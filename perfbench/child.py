"""Child process of the benchmark: run one splitstat CLI subcommand.

Usage: python3 child.py TIMING_FILE MODE [CLI_ARG ...]

MODE is one of
  warmup  import the package and exit (compiles bytecode, warms the file cache)
  run     run the subcommand untraced
  setup   run the subcommand until its statistic starts, then exit
  trace   run the subcommand with every layer entry point wrapped

The child writes TIMING_FILE as JSON: CLOCK_MONOTONIC timestamps taken after
import, at the start of the statistic and after the report is on disk, plus,
in trace mode, per-entry-point call counts, total and self times, per-call
percentiles and exact work counters.  The spawning process holds the start
timestamp, so import and interpreter start-up are part of the measured time.

Tracing wraps the layers' entry points where callers look them up: every
attribute of a splitstat module bound to the original function is rebound,
so `stats.discriminant`, `batch.discriminant` and `family.discriminant` all
reach the same wrapper.  The source under src/splitstat is never changed.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("primes", "family", "batch", "fppoly", "zpoly", "splittypes", "stats", "cli")

# The statistic each measured subcommand computes after its set-up; the
# first call to any of them ends set-up.
STATISTICS = ("clt_report", "family_chebotarev_mean", "ramified_average")


def _pairs(args, result):
    return {"batch.count_pairs": len(args[0]) * len(args[1])}


def _rows(args, result):
    return {"batch.kernel_rows": len(args[0])}


def _statuses(args, result):
    return Counter("certify.status." + cert.status for cert in result)


# (module, attribute, keep per-call durations, work counter or None): the
# entry points other layers call, so each layer's self time is its own.
# Entry points called once per polynomial or per (polynomial, prime) keep
# per-call durations for percentiles instead of one span per call.
TARGETS = (
    ("primes", "sieve_primes", False, None),
    ("family", "generate", False, None),
    ("family", "certify_stream", False, _statuses),
    ("batch", "cubic_count_matrix", False, _pairs),
    ("batch", "certify_cubics", False, None),
    ("batch", "_cubic_codes", False, _rows),
    ("fppoly", "splitting_type_mod_p", True, None),
    ("zpoly", "discriminant", True, None),
    ("zpoly", "is_perfect_square", False, None),
    ("splittypes", "class_count", False, None),
    ("splittypes", "delta", False, None),
    ("splittypes", "moment_constant", False, None),
    ("splittypes", "enumerate_types", False, None),
    ("stats", "certify_family", False, None),
    ("stats", "family_chebotarev_mean", False, None),
    ("stats", "clt_report", False, None),
    ("stats", "ks_distance", False, None),
    ("stats", "ramified_average", False, None),
)


class _Stat:
    __slots__ = ("calls", "total", "self", "durations")

    def __init__(self, record):
        self.calls = 0
        self.total = 0
        self.self = 0
        self.durations = array("q") if record else None


class Tracer:
    """Self and total time per wrapped entry point, nesting-aware.

    Every wrapped call pushes a frame that collects the time of the wrapped
    calls made beneath it; a call's self time is its duration minus that.
    """

    def __init__(self):
        self.stats = {}
        self.counters = Counter()
        self._stack = [[0]]  # sentinel frame, so a parent always exists

    def wrap(self, key, fn, record=False, observe=None):
        stat = self.stats[key] = _Stat(record)
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns

        def finish(start, frame):
            elapsed = clock() - start
            stack.pop()
            stack[-1][0] += elapsed
            stat.total += elapsed
            stat.self += elapsed - frame[0]
            if stat.durations is not None:
                stat.durations.append(elapsed)

        if inspect.isgeneratorfunction(fn):
            # Time is spent when the stream is consumed: time each item.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        finish(start, frame)
                    counters[key + ".items"] += 1
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.calls += 1
                finish(start, frame)
            if observe is not None:
                counters.update(observe(args, result))
            return result

        return wrapper

    def summary(self):
        import numpy as np

        out = {}
        for key, stat in self.stats.items():
            entry = {
                "calls": stat.calls,
                "total_s": stat.total / 1e9,
                "self_s": stat.self / 1e9,
            }
            if stat.durations is not None:
                if stat.durations:
                    p50, p99 = np.percentile(np.frombuffer(stat.durations, dtype=np.int64), [50, 99])
                else:
                    p50 = p99 = 0.0
                entry["p50_us"] = float(p50) / 1e3
                entry["p99_us"] = float(p99) / 1e3
            out[key] = entry
        return out


def _modules():
    """The package's layer modules that exist, by short name."""
    found = {}
    for name in LAYERS:
        try:
            found[name] = importlib.import_module("splitstat." + name)
        except ImportError:
            continue
    return found


def _rebind(modules, original, replacement):
    """Point every module attribute bound to `original` at `replacement`."""
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _install_tracer(modules, tracer):
    for layer, attr, record, observe in TARGETS:
        original = getattr(modules.get(layer), attr, None)
        if original is None:
            continue
        _rebind(modules, original, tracer.wrap(layer + "." + attr, original, record, observe))


def _install_statistic_hook(modules, marks, on_start):
    stats = modules["stats"]
    for attr in STATISTICS:
        original = getattr(stats, attr, None)
        if original is None:
            continue

        def hooked(*args, _original=original, **kwargs):
            if "statistic" not in marks:
                marks["statistic"] = time.monotonic()
                on_start()
            return _original(*args, **kwargs)

        _rebind(modules, original, functools.wraps(original)(hooked))


def main(argv):
    timing_path, mode, cli_args = argv[0], argv[1], argv[2:]
    import splitstat
    from splitstat import cli
    import numpy

    modules = _modules()
    marks = {"imported": time.monotonic()}
    record = {
        "marks": marks,
        "splitstat_file": os.path.realpath(splitstat.__file__),
        "numpy": numpy.__version__,
    }

    def write():
        with open(timing_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)

    if mode == "warmup":
        write()
        return 0

    tracer = None
    main_fn = cli.main
    if mode == "trace":
        tracer = Tracer()
        _install_tracer(modules, tracer)
        main_fn = tracer.wrap("cli.main", cli.main)

    def on_statistic_start():
        if mode == "setup":
            write()
            sys.stdout.flush()
            os._exit(0)

    _install_statistic_hook(modules, marks, on_statistic_start)
    code = main_fn(cli_args)
    marks["end"] = time.monotonic()
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
    write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
