"""splitstat benchmark: wall time, set-up time and memory of CLI subcommands.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs the real CLI subcommand of the workload in a fresh
child process (perfbench/child.py), one child at a time: a closed loop with
a single client.  Repetitions continue until --seconds have passed (at least
one).  With --trace 0 the children run untraced and the last line of
standard output reports the end-to-end metrics; with --trace 1 each
repetition is an untraced child followed by a traced one, and the last line
reports the per-layer metrics.  The line before it carries the machine, the
workload's family size and prime counts, and every repetition's raw values.

Every report is checked: at the default seed its config and results must
match the digest pinned from the reference implementation; at every seed
each repetition must be byte-identical to the first and pass the workload's
acceptance criterion.  A nonzero exit or a failed check counts as a failed
repetition.  The program is run from the checkout's own src/ directory; the
benchmark refuses to run without it.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DEFAULT_SEED = 42
RUN_DEADLINE_S = 170
# Set-up-only repetitions are added until this many set-up samples exist,
# while they fit in half of --seconds.
SETUP_SAMPLES = 5


def _mean_within(mean_key, reference_key, pi_x, share):
    """Acceptance criterion 05: family mean within share * pi(x) of the exact reference."""

    def check(results):
        return abs(results[mean_key] - results[reference_key]) <= share * pi_x

    return check


def _ramified_within(share):
    """Acceptance criterion 09: ramified-prime average within share of sum 1/p."""

    def check(results):
        return abs(results["average"] - results["reference"]) <= share * results["reference"]

    return check


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments, without --seed and --out
    sampled: bool  # the family is drawn with --seed
    family_size: int  # polynomials generated
    primes: int  # primes the statistic runs over
    criterion: Callable[[dict], bool]
    digest: str = None  # sha256 of the report at DEFAULT_SEED, or None
    sample_csv: bool = False  # the subcommand also writes <out>.sample.csv


# Configurations are the README/ROADMAP pinned ones.  Digests were taken from
# the reports of the initial implementation (ROADMAP aim 2: byte-identical).
WORKLOADS = {
    # ~98% of the time is batch.cubic_count_matrix: 10^4 cubics x 1229 primes.
    "cubic-clt": Workload(
        name="cubic-clt",
        args=("clt", "--n", "3", "--N", "1000000000000", "--mode", "sampled",
              "--sample-size", "10000", "--x", "10000", "--r", "3,0,0"),
        sampled=True,
        family_size=10000,
        primes=1229,
        criterion=_mean_within("empirical_mean", "reference_mean", 1229, 0.01),
        digest="907cebf37d0f94c2f71d265b2c3ff0abb1988f1d5c7767cec6eeb8cb4e187f37",
        sample_csv=True,
    ),
    # Degree 4 has no vectorized path: ~50k scalar fppoly.splitting_type_mod_p calls.
    "quartic-chebotarev": Workload(
        name="quartic-chebotarev",
        args=("chebotarev", "--n", "4", "--N", "1000000000000", "--mode", "sampled",
              "--sample-size", "300", "--x", "1000", "--r", "0,0,0,1"),
        sampled=True,
        family_size=300,
        primes=168,
        criterion=_mean_within("empirical_mean", "exact_reference", 168, 0.01),
        digest="bed17acf2a126be1a29e4d531c1485061c24b6460ef052befd19bff71affe14c",
    ),
    # The exhaustive box of acceptance criterion 09: generate and certify
    # 1,030,301 cubics, two discriminants each; the count kernel is idle.
    "cubic-box-ramified": Workload(
        name="cubic-box-ramified",
        args=("ramified", "--n", "3", "--N", "50", "--bound", "7"),
        sampled=False,
        family_size=101**3,
        primes=4,
        criterion=_ramified_within(0.15),
        digest="010c361089669660200c2ae2a0a237395958baaf69ca1b5f0c8d9e1bf198c9a3",
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "polys_per_s": "1/s",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    "proc.import_s": "s",
    "cli.self_s": "s",
    "primes.sieve_s": "s",
    "family.self_s": "s",
    "family.generate_s": "s",
    "family.generate_us_per_poly": "us",
    "certify.s": "s",
    "certify.us_per_poly": "us",
    "certify.certified_frac": "ratio",
    "certify.status.SnCertified": "count",
    "certify.status.AnCandidate": "count",
    "certify.status.Reducible": "count",
    "certify.status.Undetermined": "count",
    "batch.self_s": "s",
    "batch.count_matrix_s": "s",
    "batch.count_pairs": "count",
    "batch.count_ns_per_pair": "ns",
    "batch.kernel_rows": "count",
    "batch.kernel_s": "s",
    "fppoly.self_s": "s",
    "fppoly.type_calls": "count",
    "fppoly.type_us_p50": "us",
    "fppoly.type_us_p99": "us",
    "zpoly.self_s": "s",
    "zpoly.discriminant_calls": "count",
    "zpoly.discriminant_s": "s",
    "zpoly.discriminant_us_p50": "us",
    "zpoly.discriminant_us_p99": "us",
    "splittypes.reference_s": "s",
    "splittypes.class_count_calls": "count",
    "stats.self_s": "s",
    "stats.statistic_self_s": "s",
    "stats.ks_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}

STATUS_METRICS = tuple(
    "certify.status." + s for s in ("SnCertified", "AnCandidate", "Reducible", "Undetermined")
)

# Self-time metric of each layer; with proc.import_s they account for the
# traced wall time.
LAYER_SELF = {
    "primes": "primes.sieve_s",
    "family": "family.self_s",
    "batch": "batch.self_s",
    "fppoly": "fppoly.self_s",
    "zpoly": "zpoly.self_s",
    "splittypes": "splittypes.reference_s",
    "stats": "stats.self_s",
    "cli": "cli.self_s",
}


# ---------------------------------------------------------------------------
# Report checks

def report_digest(report_bytes, sample_bytes=None):
    """sha256 of the report's config and results (and the CLT sample CSV)."""
    document = json.loads(report_bytes)
    canonical = json.dumps(
        {"config": document["config"], "results": document["results"]}, sort_keys=True
    ).encode()
    h = hashlib.sha256(canonical)
    if sample_bytes is not None:
        h.update(sample_bytes)
    return h.hexdigest()


def check_report(workload, seed, outputs, first_outputs):
    """Whether one repetition's report bytes are correct; returns (ok, reason)."""
    report = outputs[0]
    try:
        document = json.loads(report)
        config, results = document["config"], document["results"]
        if workload.sampled and config["seed"] != seed:
            return False, "report seed %r != %d" % (config["seed"], seed)
        if results["family_size"] + results["excluded"] != workload.family_size:
            return False, "family_size + excluded != %d" % workload.family_size
        if not workload.criterion(results):
            return False, "acceptance criterion failed"
    except (ValueError, KeyError, TypeError) as exc:
        return False, "malformed report: %r" % exc
    if workload.digest is not None and (seed == DEFAULT_SEED or not workload.sampled):
        digest = report_digest(report, outputs[1] if workload.sample_csv else None)
        if digest != workload.digest:
            return False, "digest %s != pinned %s" % (digest, workload.digest)
    if first_outputs is not None and outputs != first_outputs:
        return False, "report differs from the first repetition"
    return True, ""


# ---------------------------------------------------------------------------
# Children

@dataclass
class Child:
    mode: str
    ok: bool
    reason: str = ""
    wall_s: float = None
    setup_s: float = None
    import_s: float = None
    peak_rss_mb: float = None
    cpu_s: float = None
    timing: dict = None
    outputs: tuple = None


def _spawn(mode, cli_args, workdir, tag, deadline):
    """Run one child; returns (exit code, rusage, spawn time, timing record or None)."""
    timing_path = workdir / (tag + ".timing.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(workdir / (tag + ".stdout"), "wb") as out, open(workdir / (tag + ".stderr"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(timing_path), mode] + list(cli_args),
            stdout=out, stderr=err, env=env, cwd=str(workdir),
        )
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
        # report the maximum over every child reaped so far.
        reaped = False
        try:
            while not reaped and time.monotonic() < deadline:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                reaped = pid != 0
                if not reaped:
                    time.sleep(0.01)
        finally:
            if not reaped:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = None
    if timing_path.exists():
        timing = json.loads(timing_path.read_text(encoding="utf-8"))
    return proc.returncode, rusage, spawned, timing


def run_child(workload, seed, mode, workdir, tag, deadline):
    out = workdir / (tag + ".json")
    cli_args = list(workload.args) + ["--out", str(out)]
    if workload.sampled:
        cli_args += ["--seed", str(seed)]
    code, rusage, spawned, timing = _spawn(mode, cli_args, workdir, tag, deadline)
    child = Child(mode=mode, ok=False, timing=timing)
    if code != 0 or timing is None:
        child.reason = "exit code %d" % code
        return child
    expected = Path(os.path.realpath(ROOT / "src" / "splitstat"))
    if Path(timing["splitstat_file"]).parent != expected:
        child.reason = "imported splitstat from %s" % timing["splitstat_file"]
        return child
    marks = timing["marks"]
    if "statistic" not in marks:
        child.reason = "the statistic never started"
        return child
    child.import_s = marks["imported"] - spawned
    child.setup_s = marks["statistic"] - spawned
    if mode == "setup":
        child.ok = True
        return child
    child.wall_s = marks["end"] - spawned
    child.peak_rss_mb = rusage.ru_maxrss / 1024.0
    child.cpu_s = rusage.ru_utime + rusage.ru_stime
    try:
        child.outputs = (out.read_bytes(),)
        if workload.sample_csv:
            child.outputs += (Path(str(out) + ".sample.csv").read_bytes(),)
    except OSError as exc:
        child.reason = "missing output: %s" % exc
        return child
    child.ok = True
    return child


def verify(workload, seed, children):
    """Check every report against the workload and the first report."""
    first = None
    for child in children:
        if not child.ok or child.outputs is None:
            continue
        child.ok, child.reason = check_report(workload, seed, child.outputs, first)
        if first is None and child.ok:
            first = child.outputs


# ---------------------------------------------------------------------------
# Metrics

# Timings come from every child that completed, also one whose report
# failed its check: the failure shows in `failed` and `success_rate`.

def end_to_end(workload, children):
    full = [c for c in children if c.mode == "run" and c.wall_s is not None]
    setups = [c.setup_s for c in children if c.setup_s is not None]
    wall = statistics.median(c.wall_s for c in full)
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in full),
        "polys_per_s": workload.family_size / wall,
        "success_rate": sum(c.ok for c in children) / len(children),
    }


def layer_metrics(traced, untraced_wall_s):
    """Per-layer metrics of one traced child."""
    spans = traced.timing["trace"]
    counters = traced.timing["counters"]

    def span(key, field="total_s"):
        return spans.get(key, {}).get(field, 0)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    layer_self = {layer: 0.0 for layer in LAYER_SELF}
    for key, entry in spans.items():
        layer_self[key.split(".", 1)[0]] += entry["self_s"]

    statuses = {name: counters.get(name, 0) for name in STATUS_METRICS}
    generated = counters.get("family.generate.items", 0)
    generate_s = span("family.generate")
    # Generation is consumed inside stats.certify_family; certify excludes it.
    certify_s = span("stats.certify_family") - generate_s
    pairs = counters.get("batch.count_pairs", 0)
    metrics = {
        "proc.import_s": traced.import_s,
        "family.generate_s": generate_s,
        "family.generate_us_per_poly": per(generate_s, generated, 1e6),
        "certify.s": certify_s,
        "certify.us_per_poly": per(certify_s, sum(statuses.values()), 1e6),
        "certify.certified_frac": per(statuses["certify.status.SnCertified"], sum(statuses.values()), 1),
        "batch.count_matrix_s": span("batch.cubic_count_matrix"),
        "batch.count_pairs": pairs,
        "batch.count_ns_per_pair": per(span("batch.cubic_count_matrix"), pairs, 1e9),
        "batch.kernel_rows": counters.get("batch.kernel_rows", 0),
        "batch.kernel_s": span("batch._cubic_codes"),
        "fppoly.type_calls": span("fppoly.splitting_type_mod_p", "calls"),
        "fppoly.type_us_p50": span("fppoly.splitting_type_mod_p", "p50_us"),
        "fppoly.type_us_p99": span("fppoly.splitting_type_mod_p", "p99_us"),
        "zpoly.discriminant_calls": span("zpoly.discriminant", "calls"),
        "zpoly.discriminant_s": span("zpoly.discriminant"),
        "zpoly.discriminant_us_p50": span("zpoly.discriminant", "p50_us"),
        "zpoly.discriminant_us_p99": span("zpoly.discriminant", "p99_us"),
        "splittypes.class_count_calls": span("splittypes.class_count", "calls"),
        "stats.statistic_self_s": layer_self["stats"] - span("stats.certify_family", "self_s"),
        "stats.ks_s": span("stats.ks_distance"),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
        "trace.accounted_frac": (traced.import_s + sum(layer_self.values())) / traced.wall_s,
    }
    metrics.update(statuses)
    for layer, name in LAYER_SELF.items():
        metrics[name] = layer_self[layer]
    return metrics


def per_layer(children):
    untraced = [c.wall_s for c in children if c.mode == "run" and c.wall_s is not None]
    traced = [c for c in children if c.mode == "trace" and c.wall_s is not None]
    samples = [layer_metrics(c, statistics.median(untraced)) for c in traced]
    return {name: statistics.median(s[name] for s in samples) for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# Measurement and entry point

def machine_info(numpy_version):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def measure(workload, seed, seconds, trace):
    """Run the workload for `seconds`; returns (result, info) dictionaries."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    children = []
    try:
        warm = run_child(workload, seed, "warmup", workdir, "warmup", deadline)
        numpy_version = (warm.timing or {}).get("numpy")
        measure_start = time.monotonic()
        modes = ("run", "trace") if trace else ("run",)
        while not children or time.monotonic() - measure_start < seconds:
            for mode in modes:
                children.append(run_child(workload, seed, mode, workdir, "c%d" % len(children), deadline))
        verify(workload, seed, children)
        if not trace:
            # Set up again, without the statistic, while it fits in half
            # the measuring time.
            probe_start = time.monotonic()
            while True:
                setups = [c.setup_s for c in children if c.setup_s is not None]
                if not setups or len(setups) >= SETUP_SAMPLES:
                    break
                if time.monotonic() - probe_start + statistics.median(setups) > seconds / 2:
                    break
                children.append(run_child(workload, seed, "setup", workdir, "c%d" % len(children), deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    failed = [c for c in children if not c.ok]
    completed = {c.mode for c in children if c.wall_s is not None}
    usable = "run" in completed and (not trace or "trace" in completed)
    metrics = None
    if usable:
        values = per_layer(children) if trace else end_to_end(workload, children)
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_info(numpy_version),
        "family_size": workload.family_size,
        "primes": workload.primes,
        "failures": [c.reason for c in failed],
        "repetitions": [
            {"mode": c.mode, "ok": c.ok, "wall_s": c.wall_s, "setup_s": c.setup_s,
             "import_s": c.import_s, "peak_rss_mb": c.peak_rss_mb, "cpu_s": c.cpu_s}
            for c in children
        ],
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "splitstat" / "cli.py").is_file():
        sys.stderr.write("perfbench: no splitstat source under %s\n" % (ROOT / "src"))
        return 2
    result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}, sort_keys=True))
    if result["metrics"] is None:
        sys.stderr.write("perfbench: no repetition completed: %s\n" % info["failures"])
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
