"""Self-test of the benchmark harness at tiny sizes (a few seconds).

Run with: python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Small versions of the three workloads; digests pinned like the real ones.
TINY = {
    "cubic-clt": run.Workload(
        name="cubic-clt",
        args=("clt", "--n", "3", "--N", "1000000", "--mode", "sampled",
              "--sample-size", "200", "--x", "300", "--r", "3,0,0"),
        sampled=True,
        family_size=200,
        primes=62,
        criterion=run._mean_within("empirical_mean", "reference_mean", 62, 0.01),
        digest="5e596a6ba5267a2e13bf041b413de1fca03e85206234df22e65dc7d97dc8ffb5",
        sample_csv=True,
    ),
    "quartic-chebotarev": run.Workload(
        name="quartic-chebotarev",
        args=("chebotarev", "--n", "4", "--N", "1000", "--mode", "sampled",
              "--sample-size", "20", "--x", "100", "--r", "0,0,0,1"),
        sampled=True,
        family_size=20,
        primes=25,
        criterion=run._mean_within("empirical_mean", "exact_reference", 25, 0.05),
        digest="2ddc5b1964d860089de36cefca796b52b0c0ac590dc756a4f86cefd55f3edc5c",
    ),
    "cubic-box-ramified": run.Workload(
        name="cubic-box-ramified",
        args=("ramified", "--n", "3", "--N", "5", "--bound", "7"),
        sampled=False,
        family_size=11**3,
        primes=4,
        criterion=run._ramified_within(0.25),  # N=5 is far from the limit
        digest="7bc102e51af8d3cfaae5dbbc8408523040a596467a2c99fd4ab377fc3066d321",
    ),
}

EXACT_COUNTERS = [
    "batch.count_pairs",
    "batch.kernel_rows",
    "fppoly.type_calls",
    "zpoly.discriminant_calls",
    "splittypes.class_count_calls",
] + list(run.STATUS_METRICS)


def _printed_result(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return info, result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, trace, section):
    info, result = _printed_result(monkeypatch, capsys, "cubic-clt", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert info["machine"]["nproc"] >= 1 and info["machine"]["numpy"]
    assert info["family_size"] == 200 and info["primes"] == 62


def test_end_to_end_metrics_are_never_zero(monkeypatch, capsys):
    _, result = _printed_result(monkeypatch, capsys, "cubic-box-ramified", 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_report_is_a_failed_repetition(monkeypatch, capsys):
    spawn = run._spawn

    def corrupting_spawn(mode, cli_args, workdir, tag, deadline):
        outcome = spawn(mode, cli_args, workdir, tag, deadline)
        if mode == "run":
            report = Path(cli_args[cli_args.index("--out") + 1])
            report.write_text(report.read_text().replace('"excluded": ', '"excluded": 1'))
        return outcome

    monkeypatch.setattr(run, "_spawn", corrupting_spawn)
    _, result = _printed_result(monkeypatch, capsys, "quartic-chebotarev", 0)
    assert not result["correct"]
    assert result["failed"] == 1 and result["metrics"]["success_rate"]["value"] < 1


def test_report_checks():
    workload = TINY["cubic-box-ramified"]
    report = json.dumps({
        "config": {}, "results": {"average": 1.0, "reference": 1.0,
                                  "family_size": 1000, "excluded": 331}}).encode()
    ok, reason = run.check_report(workload, run.DEFAULT_SEED, (report,), None)
    assert not ok and "digest" in reason
    ok, reason = run.check_report(workload, 7, (report,), None)
    assert not ok and "digest" in reason  # exhaustive: the seed does not matter
    unpinned = dataclasses.replace(workload, digest=None)
    assert run.check_report(unpinned, 7, (report,), None) == (True, "")
    assert not run.check_report(unpinned, 7, (report,), (b"other",))[0]


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counters_repeat_across_traced_runs(name):
    first, second = (run.measure(TINY[name], 3, 0, True)[0] for _ in range(2))
    assert first["correct"] and second["correct"]
    for counter in EXACT_COUNTERS:
        assert first["metrics"][counter] == second["metrics"][counter], counter
    m = first["metrics"]
    assert m["zpoly.discriminant_calls"]["value"] > 0
    assert (m["batch.count_pairs"]["value"] > 0) == (name == "cubic-clt")
    assert (m["fppoly.type_calls"]["value"] > 0) == (name == "quartic-chebotarev")
    assert m["trace.accounted_frac"]["value"] > 0.95


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubic-clt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
