import csv
import errno
import hashlib
import json
import os
import signal

import pytest

from splitstat import batch, cli, family, primes, stats
from splitstat.cli import main

from conftest import assert_no_children


def _refuse_computing(monkeypatch):
    # family.certify is the certifier that every subcommand's family reaches.
    def certify(*args, **kwargs):
        raise AssertionError("computed before refusing the configuration")

    monkeypatch.setattr(family, "certify", certify)


def test_counts_csv(tmp_path):
    out = tmp_path / "counts.csv"
    assert main(["counts", "--n", "3", "--p", "5", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("experiment=counts" in l for l in meta)
    assert any("version=" in l for l in meta)
    table = [l for l in lines if not l.startswith("#")]
    assert table[0] == "r,class_count,delta,paper_second_order,empirical_second_order"
    assert len(table) == 4  # header + p(3) rows


def _csv_table(path):
    lines = path.read_text().splitlines()
    return list(csv.reader(l for l in lines if not l.startswith("#")))


@pytest.mark.parametrize("args", [
    ["counts", "--n", "3", "--p", "5"],
    ["moments", "--n", "2", "--N", "10", "--x", "100", "--r", "2,0", "--k-max", "4"],
    ["ansplit", "--n", "5"],
])
def test_csv_table_matches_json_rows(tmp_path, args):
    json_out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(args + ["--out", str(json_out)]) == 0
    assert main(args + ["--out", str(csv_out), "--format", "csv"]) == 0
    rows = json.loads(json_out.read_text())["results"]
    header, *table = _csv_table(csv_out)
    assert len(table) == len(rows) > 0
    for row, line in zip(rows, table):
        assert sorted(header) == sorted(row)
        assert line == [str(row[key]) for key in header]


def test_counts_values(tmp_path):
    out = tmp_path / "counts.json"
    assert main(["counts", "--n", "2", "--p", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    by_type = {row["r"]: row for row in doc["results"]}
    assert by_type["0,1"]["class_count"] == 3
    assert by_type["0,1"]["empirical_second_order"] == "-1/2"
    assert by_type["0,1"]["paper_second_order"] == "0"
    assert doc["meta"]["version"]


def test_counts_needs_n_primes(tmp_path):
    out = tmp_path / "counts.json"
    args = ["counts", "--n", "4", "--p", "3", "--pmin", "101", "--out", str(out)]
    assert main(args + ["--pmax", "108"]) == 2  # 101, 103, 107
    assert list(tmp_path.iterdir()) == []
    assert main(args + ["--pmax", "109"]) == 0
    by_type = {row["r"]: row for row in json.loads(out.read_text())["results"]}
    assert by_type["4,0,0,0"]["empirical_second_order"] == "-1/4"


def test_rerun_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["chebotarev", "--n", "2", "--N", "20", "--x", "100", "--r", "2,0"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_refuses_overwrite(tmp_path):
    out = tmp_path / "c.json"
    args = ["counts", "--n", "2", "--p", "3", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


def test_invalid_type_exit_code(tmp_path, monkeypatch, capsys):
    _refuse_computing(monkeypatch)
    out = tmp_path / "bad.json"
    for r in ("2,1,0", "-1,2,0"):  # weighted sum 4; weighted sum 3, negative entry
        code = main(
            ["chebotarev", "--n", "3", "--N", "20", "--x", "100", "--r=" + r,
             "--out", str(out)]
        )
        assert code == 2
        assert "configuration error: field r" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_big_n(tmp_path):
    out = tmp_path / "bad.json"
    code = main(
        ["chebotarev", "--n", "2", "--N", "nope", "--x", "50", "--r", "2,0",
         "--out", str(out)]
    )
    assert code == 2


def test_runtime_error_exit_code(tmp_path):
    out = tmp_path / "big.json"
    # exhaustive family beyond the generation budget surfaces as exit 3
    code = main(
        ["chebotarev", "--n", "5", "--N", "10000", "--x", "50", "--r",
         "5,0,0,0,0", "--out", str(out)]
    )
    assert code in (2, 3)
    assert code == 2  # spec validation reports it as a configuration problem


def test_sampled_family_over_budget_exit_code(tmp_path, monkeypatch, capsys):
    def generate(*args, **kwargs):
        raise AssertionError("generated a family over the budget")

    monkeypatch.setattr(family, "generate", generate)
    code = main(
        ["chebotarev", "--n", "3", "--N", str(10**12), "--mode", "sampled",
         "--sample-size", str(family.FAMILY_BUDGET + 1), "--x", "100", "--r", "0,0,1",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "exceeds budget" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_big_n_decimal_string(tmp_path):
    out = tmp_path / "huge.json"
    code = main(
        ["chebotarev", "--n", "3", "--N", str(10**18), "--mode", "sampled",
         "--sample-size", "120", "--seed", "5", "--x", "200", "--r", "0,0,1",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["N"] == str(10**18)


def test_fibers_subcommand(tmp_path):
    out = tmp_path / "fib.json"
    code = main(
        ["fibers", "--n", "2", "--N", "60", "--target", "3:1,0",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["reference"] == pytest.approx(1 / 9)
    statuses = doc["meta"]["statuses"]
    assert list(statuses) == sorted(family.STATUSES)
    assert sum(statuses.values()) == 121**2 and statuses["SnCertified"] > 0


def test_fibers_outside_regime_exit_code(tmp_path, monkeypatch, capsys):
    # prod p_i^n = 27 * 125 >= 2N = 40: refused before the family is generated.
    def generate(*args, **kwargs):
        raise AssertionError("generated before refusing the targets")

    monkeypatch.setattr(family, "generate", generate)
    code = main(
        ["fibers", "--n", "3", "--N", "20", "--target", "3:1,0,2", "--target", "5:0,1,1",
         "--out", str(tmp_path / "fib.json")]
    )
    assert code == 2
    assert "configuration error: field target" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("targets", [
    ["0:1,1"],  # a modulus below 2
    ["4:1,1", "2:1,1"],  # gcd 2: the reference 1/prod p_i^n would be wrong
])
def test_fibers_bad_moduli_exit_code(tmp_path, monkeypatch, capsys, targets):
    def generate(*args, **kwargs):
        raise AssertionError("generated before refusing the targets")

    monkeypatch.setattr(family, "generate", generate)
    argv = ["fibers", "--n", "2", "--N", "100", "--out", str(tmp_path / "fib.json")]
    for target in targets:
        argv += ["--target", target]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ansplit_subcommand(tmp_path):
    out = tmp_path / "ansplit.json"
    assert main(["ansplit", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = {row["r"]: row for row in doc["results"]}
    assert rows["0,0,0,1"]["parity"] == "odd"
    assert rows["1,0,1,0"] == {"r": "1,0,1,0", "parity": "even", "splits": "True"}


def test_clt_writes_sample_csv(tmp_path):
    out = tmp_path / "clt.json"
    code = main(
        ["clt", "--n", "3", "--N", str(10**9), "--mode", "sampled",
         "--sample-size", "150", "--seed", "3", "--x", "300", "--r", "0,0,1",
         "--out", str(out)]
    )
    assert code == 0
    sample = tmp_path / "clt.json.sample.csv"
    assert sample.read_text().startswith("index,normalized_count\n")
    doc = json.loads(out.read_text())
    assert doc["results"]["clt_sample_size"] > 0


def test_index_subcommand(tmp_path):
    out = tmp_path / "index.json"
    assert main(["index", "--n", "2", "--N", "30", "--bound", "11", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["experiment"] == "index"
    assert doc["config"]["bound"] == 11
    assert doc["results"]["family_size"] + doc["results"]["excluded"] == 61**2
    assert doc["results"]["reference"] == pytest.approx(1 / 4 + 1 / 9 + 1 / 25 + 1 / 49 + 1 / 121)


def test_ramified_generates_the_box_in_slabs(tmp_path, monkeypatch):
    # The box is generated one slab at a time and never whole, the slabs
    # spread over the processes of every CPU, each taking its slabs in
    # order, and the report is the one certified with the default slab.
    # Forked workers record their ranges in a file, as the parent does.
    argv = ["ramified", "--n", "3", "--N", "5", "--bound", "7", "--out"]
    assert main(argv + [str(tmp_path / "default.json")]) == 0
    log = tmp_path / "ranges.log"
    generate = family.generate

    def recorded(spec, start=0, stop=None):
        with open(log, "a") as out:
            out.write("%d %d %d\n" % (os.getpid(), start, stop))
        return generate(spec, start, stop)

    monkeypatch.setattr(family, "generate", recorded)
    monkeypatch.setattr(stats, "SLAB_ROWS", 100)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        report = tmp_path / ("slabs%d.json" % cpus)
        assert main(argv + [str(report)]) == 0
        by_process = {}
        for line in log.read_text().splitlines():
            pid, start, stop = map(int, line.split())
            by_process.setdefault(pid, []).append((start, stop))
        log.unlink()
        ranges = sorted(sum(by_process.values(), []))
        cuts = [start for start, _stop in ranges] + [11**3]
        assert ranges == list(zip(cuts, cuts[1:])) and cuts[0] == 0
        assert all(0 < stop - start <= 100 for start, stop in ranges)
        assert len(by_process) == cpus
        assert all(own == sorted(own) for own in by_process.values())
        if cpus == 1:
            assert by_process == {os.getpid(): ranges}
        assert report.read_bytes() == (tmp_path / "default.json").read_bytes()
    assert_no_children()


def test_refusal_before_computing(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("kept\n")
    _refuse_computing(monkeypatch)
    for argv in (["ramified", "--n", "3", "--N", "20", "--bound", "7"],
                 ["index", "--n", "3", "--N", "20", "--bound", "7"],
                 ["fibers", "--n", "2", "--N", "20", "--target", "3:1,0"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert out.read_text() == "kept\n"


def test_out_in_missing_directory_refused(tmp_path, monkeypatch, capsys):
    _refuse_computing(monkeypatch)
    out = tmp_path / "nodir" / "x.json"
    for argv in (["counts", "--n", "3", "--p", "5"],
                 ["ramified", "--n", "3", "--N", "20", "--bound", "7"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert "configuration error: field out: no directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exit_code(tmp_path, capsys):
    out = tmp_path / "counts.json"
    argv = ["counts", "--n", "3", "--p", "5", "--config", str(tmp_path / "none.cfg")]
    assert main(argv + ["--out", str(out)]) == 2
    assert "configuration error: config file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_write_failure_exit_code(tmp_path, monkeypatch, capsys):
    def failing(src, dst):
        raise OSError(errno.EIO, "cannot move", src)

    monkeypatch.setattr(os, "replace", failing)
    out = tmp_path / "counts.json"
    assert main(["counts", "--n", "3", "--p", "5", "--out", str(out)]) == 3
    assert "error: cannot write the report" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_with_longest_name_is_written(tmp_path):
    out = tmp_path / ("r" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    assert main(["counts", "--n", "3", "--p", "5", "--out", str(out)]) == 0
    assert list(tmp_path.iterdir()) == [out]
    assert json.loads(out.read_text())["meta"]["experiment"] == "counts"


def _failing_in_workers(fn, failure):
    """fn, except that in any process but this one it exits, is killed or raises."""
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            if failure == "exits":
                os._exit(1)
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker failed")
        return fn(*args)

    return failing


def test_clt_sieves_once(tmp_path):
    # The report asks for the primes up to x, and pi(x), once per moment.
    primes._sieve.cache_clear()
    assert main(["clt", "--n", "3", "--N", "1000", "--mode", "sampled", "--sample-size",
                 "200", "--x", "300", "--r", "0,0,1", "--out", str(tmp_path / "clt.json")]) == 0
    assert primes._sieve.cache_info().misses == 1


# The exit code that each failure of a worker reports.
_WORKER_CODES = {"exits": 1, "raises": 1, "killed": -9}


@pytest.mark.parametrize("failure", ["exits", "raises", "killed"])
def test_count_worker_failure_exit_code(tmp_path, monkeypatch, capsys, failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(batch, "count_code", _failing_in_workers(batch.count_code, failure))
    out = tmp_path / "clt.json"
    code = main(["clt", "--n", "3", "--N", "1000", "--mode", "sampled", "--sample-size",
                 "200", "--x", "300", "--r", "0,0,1", "--out", str(out)])
    assert code == 3
    assert "error: worker exited with code %d" % _WORKER_CODES[failure] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert_no_children()


@pytest.mark.parametrize("failure", ["exits", "raises", "killed"])
def test_certify_worker_failure_exit_code(tmp_path, monkeypatch, capsys, failure):
    monkeypatch.setattr(stats, "SLAB_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(family, "certify", _failing_in_workers(family.certify, failure))
    out = tmp_path / "ramified.json"
    code = main(["ramified", "--n", "3", "--N", "5", "--bound", "7", "--out", str(out)])
    assert code == 3
    assert "error: worker exited with code %d" % _WORKER_CODES[failure] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert_no_children()


@pytest.mark.parametrize("args", [
    ["clt", "--n", "3", "--N", "3", "--x", "50", "--r", "0,0,1"],  # pi(x) < 30
    ["ramified", "--n", "3", "--N", "3", "--bound", "1"],
    # an exhaustive box uses neither, so its report would record them falsely
    ["ramified", "--n", "2", "--N", "3", "--bound", "7", "--sample-size", "50"],
    ["ramified", "--n", "2", "--N", "3", "--bound", "7", "--seed", "9"],
])
def test_statistic_value_error_exit_code(tmp_path, monkeypatch, capsys, args):
    # Each is refused before the family is drawn and certified.
    _refuse_computing(monkeypatch)
    out = tmp_path / "v.json"
    assert main(args + ["--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


X_R = ["--n", "3", "--N", "3", "--x", "300", "--r", "0,0,1"]


@pytest.mark.parametrize("args", [
    ["moments", *X_R, "--k-max", "0"],
    ["moments", *X_R, "--k-max", "-2"],
    ["clt", *X_R, "--k-max", "0"],
    ["clt", *X_R, "--k-max", "-2"],
    ["chebotarev", *X_R, "--k-max", "3"],  # only moments and clt take it
    ["counts", "--n", "2", "--p", "4"],
    ["counts", "--n", "2", "--p", "1"],
    ["counts", "--n", "2", "--p", "91"],
    # above MAX_SIEVE_LIMIT: refused while parsing, not after certifying the box
    ["chebotarev", "--n", "3", "--N", "50", "--x", "3e9", "--r", "3,0,0"],
    ["chebotarev", "--n", "3", "--N", "3", "--x", "-1", "--r", "3,0,0"],
    ["ramified", "--n", "3", "--N", "3", "--bound", str(10**8 + 1)],
    ["counts", "--n", "2", "--p", "3", "--pmax", str(10**8 + 1)],
    # above stats.MAX_MOMENT, where the k-th powers could overflow a float
    ["moments", *X_R, "--k-max", "41"],
    ["clt", *X_R, "--k-max", "41"],
    # a certifier budget below 1: refused while parsing, not after generating
    ["ramified", "--n", "3", "--N", "3", "--bound", "7", "--budget", "0"],
    # a prime above MAX_SIEVE_LIMIT: refused before trial division up to its root
    ["counts", "--n", "2", "--p", str(10**8 + 7)],
    # above the 168 certifier primes (<= 1000), a budget certify cannot spend
    ["chebotarev", "--n", "3", "--N", "3", "--x", "100", "--r", "0,0,1", "--budget", "169"],
])
def test_bad_flag_refused_before_computing(tmp_path, monkeypatch, args):
    _refuse_computing(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_clt_refusal_writes_nothing(tmp_path):
    out = tmp_path / "clt.json"
    sample = tmp_path / "clt.json.sample.csv"
    sample.write_text("kept\n")
    code = main(
        ["clt", "--n", "3", "--N", str(10**9), "--mode", "sampled",
         "--sample-size", "150", "--seed", "3", "--x", "300", "--r", "0,0,1",
         "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert sample.read_text() == "kept\n"


def test_clt_failure_leaves_no_partial_output(tmp_path, monkeypatch):
    out = tmp_path / "clt.json"
    args = ["clt", "--n", "3", "--N", str(10**9), "--mode", "sampled",
            "--sample-size", "150", "--seed", "3", "--x", "300", "--r", "0,0,1",
            "--out", str(out)]

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    with monkeypatch.context() as patch:
        patch.setattr(stats, "sample_csv", fail)
        with pytest.raises(RuntimeError):
            main(args)
    assert list(tmp_path.iterdir()) == []
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", fail)  # after both temp files are written
        with pytest.raises(RuntimeError):
            main(args)
    assert list(tmp_path.iterdir()) == []
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clt.json", "clt.json.sample.csv"]


def test_config_file_defaults_and_cli_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pmax = 149  # inline comment\n\n# full comment\n")
    out = tmp_path / "cfg.json"
    assert main(
        ["counts", "--n", "2", "--p", "3", "--config", str(cfg), "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["pmax"] == 149
    out2 = tmp_path / "cfg2.json"
    assert main(
        ["counts", "--n", "2", "--p", "3", "--config", str(cfg), "--pmax", "199",
         "--out", str(out2)]
    ) == 0
    assert json.loads(out2.read_text())["config"]["pmax"] == 199
    out3 = tmp_path / "cfg3.json"
    assert main(
        ["counts", "--n", "2", "--p", "3", "--config", str(cfg), "--pmax=199",
         "--out", str(out3)]
    ) == 0
    assert json.loads(out3.read_text())["config"]["pmax"] == 199


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 1\n")
    out = tmp_path / "x.json"
    assert main(["counts", "--n", "2", "--p", "3", "--config", str(cfg),
                 "--out", str(out)]) == 2
    cfg.write_text("target = 3:1,0\n")
    assert main(["fibers", "--n", "2", "--N", "60", "--config", str(cfg),
                 "--target", "3:1,0", "--out", str(out)]) == 2
    cfg.write_text("workers = 2\n")  # no such option
    assert main(["counts", "--n", "2", "--p", "3", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_regime_warning_nonfatal(tmp_path, capsys):
    out = tmp_path / "warn.json"
    code = main(
        ["chebotarev", "--n", "2", "--N", "30", "--x", "150", "--r", "2,0",
         "--out", str(out)]
    )
    assert code == 0
    assert "regime" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["chebotarev", "--n", "2", "--x", "100", "--r", "2,0"],
    ["ramified", "--n", "3", "--bound", "7"],
    ["index", "--n", "3", "--bound", "7"],
])
def test_heights_beyond_floats(tmp_path, args):
    # N = 10^400 overflows a float; the regime check works in logarithms.
    out = tmp_path / "big.json"
    big = ["--N", str(10**400), "--mode", "sampled", "--sample-size", "200",
           "--out", str(out)]
    assert main(args + big) == 0
    assert json.loads(out.read_text())["config"]["N"] == str(10**400)


# The N=3 cubic box at budget 25, as test_cubic_certificates_pinned pins it.
BOX_STATUSES = {"SnCertified": 216, "AnCandidate": 10, "Reducible": 117, "Undetermined": 0}


@pytest.mark.parametrize("args", [
    ["chebotarev", "--x", "100", "--r", "0,0,1"],
    ["moments", "--x", "100", "--r", "0,0,1", "--k-max", "2"],
    ["clt", "--x", "300", "--r", "0,0,1"],
    ["ramified", "--bound", "7"],
    ["index", "--bound", "7"],
])
def test_reports_carry_status_histogram(tmp_path, args):
    out = tmp_path / "r.json"
    box = ["--n", "3", "--N", "3", "--budget", "25", "--out", str(out)]
    assert main(args + box) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["statuses"] == BOX_STATUSES
    results = doc["results"]
    if isinstance(results, dict):
        assert sum(BOX_STATUSES.values()) == results["family_size"] + results["excluded"]
    csv_out = tmp_path / "r.csv"
    assert main(args + box[:-1] + [str(csv_out), "--format", "csv"]) == 0
    meta = [l for l in csv_out.read_text().splitlines() if l.startswith("# statuses=")]
    assert [json.loads(l.split("=", 1)[1]) for l in meta] == [BOX_STATUSES]


@pytest.mark.parametrize("budget, certified", [(None, 216), ("3", 178), ("2", 120)])
def test_budget_reaches_certification_and_config(tmp_path, budget, certified):
    # The N=3 cubic box: a smaller budget leaves more rows Undetermined.
    out = tmp_path / "r.json"
    args = ["ramified", "--n", "3", "--N", "3", "--bound", "7", "--out", str(out)]
    assert main(args + (["--budget", budget] if budget else [])) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["budget"] == int(budget or family.CERTIFIER_PRIME_BUDGET)
    assert doc["meta"]["statuses"] == {**BOX_STATUSES, "SnCertified": certified,
                                       "Undetermined": 216 - certified}
    assert doc["results"]["family_size"] == certified


# Small samples at n = 2, 4 and 8, and cubics at N = 10^30, whose rows are
# Python ints: every family certifies at least 100 rows, as clt requires.
_PINNED_FAMILIES = {
    "n2": ["--n", "2", "--N", str(10**6), "--sample-size", "150", "--x", "300",
           "--r", "0,1"],
    "n4": ["--n", "4", "--N", str(10**6), "--sample-size", "150", "--x", "300",
           "--r", "1,0,1,0"],
    "n8": ["--n", "8", "--N", str(10**6), "--sample-size", "120", "--x", "200",
           "--r", "0,0,0,0,0,0,0,1"],
    "n9": ["--n", "9", "--N", str(10**6), "--sample-size", "150", "--x", "150",
           "--r", "1,0,0,0,0,0,0,1,0"],
    "n3-object": ["--n", "3", "--N", str(10**30), "--sample-size", "150", "--x", "300",
                  "--r", "0,0,1"],
}

# sha256 of each report of _pinned_reports, taken before the count profile
# became one cached matrix; n9's before the trace kernel took degree 9.  No
# change to the count path may move a byte.
_PINNED_DIGESTS = {
    ("n2", "chebotarev.json"): "16c9d8fe6061947c67b22385936c6d1cff2cebeb609c097d2e9b471f6cd40453",
    ("n2", "moments.csv"): "23dca7587f5185320bd7e85cd0323467bc6899c8859254547ed03cfa63adf8c1",
    ("n2", "clt.json"): "2f471a80e7a1361df8e57b7b9723379eff34205ec25f918b14acaf5f89ca7c9c",
    ("n2", "clt.sample.csv"): "a544f073b215dc0fd884267b150a06a0b2462c60164bfca7889c3db5e977e85c",
    ("n4", "chebotarev.json"): "3fa89d4c5e4a1fec3a886b6a8ec7da6930fa8cd06722ad05d303d37af6706e4e",
    ("n4", "moments.csv"): "5f36e2c9a1204fbca820f16c41c52baa8bc7d111cc336c5e0f1228d562f726df",
    ("n4", "clt.json"): "bdd2c63d2877ee31a2e16e32d89924db13b3fae65cc607bb3d02b6c739a8bfdb",
    ("n4", "clt.sample.csv"): "9d47131f2b865d4bf47a3134bd9dfa0e407044beefcc14f500704fe5d72ee4d0",
    ("n8", "chebotarev.json"): "cab80a08164bec56b1031b951cac4838d0b2c81332a14ae82371a29603bd87e6",
    ("n8", "moments.csv"): "ddb99a035e9ca1c7731aeb1bb84f2e21ed10ffac9a34766d14f6508b27cf4483",
    ("n8", "clt.json"): "2fa5013a0f17255b7ba98cbb67de8061134d3508562743a3874823526980c3e3",
    ("n8", "clt.sample.csv"): "1cc342cc3c9b3796aa45847d5adb8b6d51bc02d306ef0e3aeda08d86141f366c",
    ("n3-object", "chebotarev.json"):
        "e70548cb208502c6d062e1f41a3bd836bdc98d77135ec6ed17c083ca6cb62493",
    ("n3-object", "moments.csv"):
        "77dcb4de0e6264b378d3507ec74ea08972131a2ef011c08219540d7d1bafb6c0",
    ("n3-object", "clt.json"):
        "ebe8b98fe0b217f9f01ff271ac73f9d65ac19971d41850d25d171eed99aa0a29",
    ("n3-object", "clt.sample.csv"):
        "43e6765d7b7a285e98538629a4f9117f37ce1831951818e51df01d69930b58f7",
    ("n9", "chebotarev.json"): "f557a6244ab89c8a6134e879a42625857eddc1cba51a24c28a84c60f410d4780",
    ("n9", "moments.csv"): "a56f49e0dd825d2c49763f642c14ef0aec7c658df70bc27fe431bd64462ec219",
    ("n9", "clt.json"): "73298704bdf1cb7dabef993ff271531c5dda29f3bd81d6978408c218812e88bb",
    ("n9", "clt.sample.csv"): "a3d19af17e5d70aa3b137d23b4c4ea667b8b172400295cc922ad94e4def87f97",
}


def _pinned_reports(tmp_path):
    """sha256 of the chebotarev (JSON), moments (CSV) and clt (JSON, and its
    sample CSV) reports of every pinned family, by (family, file)."""
    runs = [("chebotarev", "chebotarev.json", ["--format", "json"]),
            ("moments", "moments.csv", ["--format", "csv", "--k-max", "4"]),
            ("clt", "clt.json", ["--format", "json"])]
    digests = {}
    for name, family_args in _PINNED_FAMILIES.items():
        for command, filename, extra in runs:
            out = tmp_path / ("%s-%s" % (name, filename))
            args = [command, "--mode", "sampled", "--seed", "7", *family_args, *extra,
                    "--out", str(out)]
            assert main(args) == 0
            digests[name, filename] = hashlib.sha256(out.read_bytes()).hexdigest()
        sample = tmp_path / ("%s-clt.json%s" % (name, cli.SAMPLE_SUFFIX))
        digests[name, "clt.sample.csv"] = hashlib.sha256(sample.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("cpus", [1, 2])
def test_prime_sum_reports_pinned(tmp_path, monkeypatch, cpus):
    # On 2 CPUs every count profile deals its primes over a forked worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _pinned_reports(tmp_path) == _PINNED_DIGESTS
    assert_no_children()


def test_high_degree_chebotarev_pinned(tmp_path):
    # 74 of 100 degree-16 draws certified, typed by the trace kernel at
    # p > 16; the digest was taken when the oracle typed every degree above 8.
    out = tmp_path / "n16.json"
    args = ["chebotarev", "--mode", "sampled", "--seed", "7", "--n", "16",
            "--N", str(10**6), "--sample-size", "100", "--x", "100",
            "--r", ",".join("0" * 15 + "1"), "--format", "json", "--out", str(out)]
    assert main(args) == 0
    assert json.loads(out.read_bytes())["meta"]["statuses"]["SnCertified"] == 74
    digest = "5ceb8a442331f89fb238bef992595006ae5bd7d8dfa966e35bfbf5756556f0e9"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert_no_children()


# ramified over boxes at n = 3 and 4 and over cubics at N = 10^30, whose
# discriminants are Python ints; index and fibers over quadratic boxes.
_AVERAGE_RUNS = {
    "ramified-box3": ["ramified", "--n", "3", "--N", "8", "--bound", "50"],
    "ramified-box4": ["ramified", "--n", "4", "--N", "5", "--bound", "30"],
    "ramified-object": ["ramified", "--n", "3", "--N", str(10**30), "--mode", "sampled",
                        "--sample-size", "150", "--seed", "7", "--bound", "100"],
    "index-box2": ["index", "--n", "2", "--N", "30", "--bound", "11"],
    "fibers-box2": ["fibers", "--n", "2", "--N", "60", "--target", "2:1,1",
                    "--target", "3:1,0"],
}

# sha256 of each report, taken while these statistics still read a gathered
# certified family (the N = 8 cubic box's on the code that first summed slab by
# slab); no later change may move a byte.
_AVERAGE_DIGESTS = {
    ("ramified-box3", "json"): "ed10bd1e76c239e8c46a0b74f94cf008c3aefa3492b9e68fb49fa9ed79801459",
    ("ramified-box3", "csv"): "f34f3342a2b7f762c1a7bbf78504e8284cc8efd06e4917304b4d8b4ade7bab6e",
    ("ramified-box4", "json"): "001432af5a9f397153ce8fbed3221d7b7caec6212e3c07ee4b96632365b8e8e2",
    ("ramified-box4", "csv"): "f16df4d5c4b75c0a080ded4b4afb9b7be88ac5c12a3e9a48e4470602fe6b6551",
    ("ramified-object", "json"):
        "24b19fbaff156b8383de36581add1cd9278fec079ac4aadb92ac90e4662b8673",
    ("ramified-object", "csv"):
        "1b43525459418d60b40c8d143d7fb62cc2c77f440270b8fe6f4199dd8bb60828",
    ("index-box2", "json"): "d23b83075bb18b5f343ca9dce81d199cd8ffd17459c71a5e583bb649380a3788",
    ("index-box2", "csv"): "30594c2ee0c91923daa7feecb975657f0f87a361cc56a31cf29a76734200be25",
    ("fibers-box2", "json"): "4b7707a2ac1b55881971f8373d83a7d6a14f390af0f6758ac7367eef16aef01d",
    ("fibers-box2", "csv"): "d64f7ff03dd6b305b9ce669873f1c9674d19b72cf2ac804cb1cd0b84a643cd11",
}


@pytest.mark.parametrize("cpus", [1, 2])
def test_average_reports_pinned(tmp_path, monkeypatch, cpus):
    # Slabs of 100 rows: every family but the sample is many slabs, and on
    # 2 CPUs a forked worker certifies and sums half of them.
    monkeypatch.setattr(stats, "SLAB_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    digests = {}
    for name, args in _AVERAGE_RUNS.items():
        for fmt in ("json", "csv"):
            out = tmp_path / ("%s.%s" % (name, fmt))
            assert main(args + ["--format", fmt, "--out", str(out)]) == 0
            digests[name, fmt] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == _AVERAGE_DIGESTS
    assert_no_children()


def test_averages_never_gather_the_family(tmp_path, monkeypatch):
    # ramified, index and fibers sum each slab where it is certified: the
    # certified family is never gathered, and each statistic is entered
    # once, in this process, where perfbench's set-up mark and trace see it.
    def certify_family(*args, **kwargs):
        raise AssertionError("gathered the certified family")

    monkeypatch.setattr(stats, "certify_family", certify_family)
    monkeypatch.setattr(stats, "SLAB_ROWS", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    entered = []
    for name in ("ramified_average", "index_prime_average", "fiber_probability"):
        def recorded(*args, _statistic=getattr(stats, name), _name=name):
            entered.append((_name, os.getpid()))
            return _statistic(*args)

        monkeypatch.setattr(stats, name, recorded)
    for name in ("ramified-box4", "index-box2", "fibers-box2"):
        assert main(_AVERAGE_RUNS[name] + ["--out", str(tmp_path / name)]) == 0
    assert entered == [(name, os.getpid()) for name in
                       ("ramified_average", "index_prime_average", "fiber_probability")]
    assert_no_children()
