"""Experiment runner: deterministic execution and machine-readable reports.

Exit codes: 0 success, 2 configuration error, 3 runtime/budget error.
Reports are never overwritten unless --force is passed.  Each output is
written to a temp file beside it and moved into place with os.replace, so
a failed run leaves no partial output.  JSON reports are a single object
with stable key order; CSV reports start with '#'-prefixed metadata lines
followed by an RFC-4180-style table.
"""

import argparse
import csv
import io
import json
import math
import os
import pathlib
import sys

from . import __version__, splittypes, stats
from .errors import SplitstatError
from .family import CERTIFIER_PRIME_BUDGET, SN_CERTIFIED, FamilySpec
from .primes import MAX_SIEVE_LIMIT, sieve_primes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_type(text, n):
    try:
        r = tuple(int(tok) for tok in text.split(","))
        if splittypes.validate_type(r) != n:
            raise ValueError("it has %d entries, not n = %d" % (len(r), n))
    except ValueError as exc:
        raise ValueError("field r: %r is not a splitting type: %s" % (text, exc))
    return r


def _prime(text):
    """Argparse type of a prime in [2, MAX_SIEVE_LIMIT].

    The range is checked first, so trial division takes at most 10^4 steps.
    """
    value = _in_range(int, 2, MAX_SIEVE_LIMIT)(text)
    if any(value % q == 0 for q in range(2, math.isqrt(value) + 1)):
        raise argparse.ArgumentTypeError("%d is not prime" % value)
    return value


def _in_range(kind, low, high=math.inf):
    """Argparse type of a value of type kind in [low, high].

    Refuses a value outside the range while parsing, before the subcommand
    computes anything.
    """
    def parse(text):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                "must lie in [%s, %s], got %s" % (low, high, text)
            )
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


def _parse_target(text):
    """(p, residues) of p:a_0,...,a_{n-1}; stats.fiber_reference checks the pair."""
    try:
        head, tail = text.split(":", 1)
        p = int(head)
        return p, tuple(int(tok) % p for tok in tail.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError("field target: expected p:a_0,...,a_{n-1}, p != 0, got %r" % text)


def _family_spec(args):
    try:
        big_n = int(args.N)
    except (TypeError, ValueError):
        raise ValueError("field N: expected a decimal integer string")
    try:
        return FamilySpec(
            n=args.n,
            height_bound=big_n,
            mode=args.mode,
            sample_size=args.sample_size,
            seed=args.seed,
        )
    except (ValueError, SplitstatError) as exc:
        raise ValueError("family configuration: %s" % exc)


def _regime_warning(x, big_n):
    # In logarithms, since math.log takes an N of any size and float(N) does not.
    if big_n < 16 or x <= 0:
        return
    log_threshold = math.log(big_n) / math.log(math.log(big_n))
    if math.log(x) > log_threshold:
        sys.stderr.write(
            "warning: x=%g exceeds N^(1/loglog N)=%.1f; outside the stated regime\n"
            % (x, math.exp(log_threshold))
        )


# clt writes its normalized sample next to the report, at --out + this.
SAMPLE_SUFFIX = ".sample.csv"


def _check_outputs(args):
    """Refuse a missing --out, one in no existing directory, or one of the
    run's outputs already in the way.

    Called before the subcommand computes anything, so a refused run
    spends no time and leaves no output.
    """
    if args.out is None:
        raise ValueError("field out: an output path is required")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError("field out: no directory %s" % os.path.dirname(args.out))
    paths = [args.out]
    if args.command == "clt":
        paths.append(args.out + SAMPLE_SUFFIX)
    for path in paths:
        if os.path.exists(path) and not args.force:
            raise ValueError("output %s exists; pass --force to overwrite" % path)


def _write_report(args, experiment, config, results, summary, extra=(), statuses=None):
    """Write the report to --out, and each (path, text) of extra with it.

    The meta holds statuses, a certified family's status counts, if given.
    The CSV table is read off results: a dict gives its sorted key,value
    rows; a list of dicts gives the first dict's keys as the header and
    one row of values per dict.  Every text is complete before anything is
    written; each goes to a new temp file .<pid>.<i>.tmp in its path's
    directory and is then moved into place, so a failure before the moves
    leaves no output and no temp file; an OSError there is a
    SplitstatError.  Then prints the experiment's name, the (key, value)
    pairs of summary and out=--out on one line.
    """
    meta = {"experiment": experiment, "version": __version__}
    if statuses is not None:
        meta["statuses"] = statuses
    if args.format == "json":
        document = {"meta": meta, "config": config, "results": results}
        text = json.dumps(document, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        for key, value in sorted(meta.items()):
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            buf.write("# %s=%s\n" % (key, value))
        for key in sorted(config):
            buf.write("# %s=%s\n" % (key, config[key]))
        writer = csv.writer(buf, lineterminator="\n")
        if isinstance(results, dict):
            writer.writerow(["key", "value"])
            writer.writerows(sorted(results.items()))
        else:
            writer.writerow(list(results[0]))
            writer.writerows(row.values() for row in results)
        text = buf.getvalue()
    outputs = [(args.out, text), *extra]
    temps = []
    try:
        for i, (path, body) in enumerate(outputs):
            # A short name, so that any name the directory takes is writable.
            temp = os.path.join(os.path.dirname(path), ".%d.%d.tmp" % (os.getpid(), i))
            with open(temp, "x", encoding="utf-8", newline="") as fh:
                temps.append(temp)
                fh.write(body)
        for (path, _text), temp in zip(outputs, temps):
            os.replace(temp, path)
    except OSError as exc:
        raise SplitstatError("cannot write the report: %s" % exc) from None
    finally:
        for temp in temps:
            if os.path.lexists(temp):  # not once moved into place
                os.remove(temp)
    fields = [*summary, ("out", args.out)]
    print(experiment, " ".join("%s=%s" % field for field in fields))


# ---------------------------------------------------------------------------
# Experiments

def run_counts(args):
    config = {"n": args.n, "p": args.p, "pmin": args.pmin, "pmax": args.pmax}
    results = []
    for r in splittypes.enumerate_types(args.n):
        empirical = splittypes.empirical_second_order(r, args.pmin, args.pmax)
        results.append({
            "r": ",".join(map(str, r)),
            "class_count": splittypes.class_count(args.n, r, args.p),
            "delta": str(splittypes.delta(r)),
            "paper_second_order": str(splittypes.paper_second_order(r)),
            "empirical_second_order": str(empirical),
        })
    _write_report(args, "counts", config, results,
                  [("n", args.n), ("p", args.p), ("types", len(results))])
    return EXIT_OK


def run_fibers(args):
    spec = _family_spec(args)
    targets = [_parse_target(t) for t in args.target]
    try:  # fiber_probability raises ValueError for broken targets alone
        empirical, reference, statuses = stats.fiber_probability(spec, targets, args.budget)
    except ValueError as exc:
        raise ValueError("field target: %s" % exc)
    config = _family_config(spec, args.budget)
    config["targets"] = ";".join(args.target)
    results = {
        "empirical": empirical,
        "reference": reference,
        "deviation": empirical - reference,
    }
    _write_report(args, "fibers", config, results,
                  [("family", spec.size), ("empirical", "%.6g" % empirical)],
                  statuses=statuses)
    return EXIT_OK


def _family_config(spec, budget):
    """The report config of the family of spec certified at the budget."""
    return {
        "n": spec.n,
        "N": str(spec.height_bound),
        "mode": spec.mode,
        "sample_size": spec.sample_size,
        "seed": spec.seed,
        "budget": budget,
    }


def _prime_sum_setup(args):
    """Set-up of chebotarev, moments and clt: a statistic over the primes up to --x.

    Returns the type r, the certified family and the report config.
    """
    spec = _family_spec(args)
    r = _parse_type(args.r, args.n)
    _regime_warning(args.x, spec.height_bound)
    cf = stats.certify_family(spec, args.budget,
                              "P0(n=%d, N=%s, %s)" % (spec.n, spec.height_bound, spec.mode))
    return r, cf, {**_family_config(spec, args.budget), "r": args.r, "x": args.x}


def run_chebotarev(args):
    r, cf, config = _prime_sum_setup(args)
    mean, reference = stats.family_chebotarev_mean(cf, r, args.x)
    results = {
        "empirical_mean": mean,
        "exact_reference": reference,
        "pi_x": len(sieve_primes(args.x)),
        "excluded": cf.excluded,
        "family_size": len(cf),
    }
    summary = [("family", len(cf)), ("excluded", cf.excluded), ("mean", "%.6g" % mean)]
    _write_report(args, "chebotarev", config, results, summary, statuses=cf.statuses)
    return EXIT_OK


def run_moments(args):
    r, cf, config = _prime_sum_setup(args)
    config["k_max"] = args.k_max
    results = []
    for k in range(1, args.k_max + 1):
        moment, reference = stats.family_centered_moment(cf, r, args.x, k)
        results.append({"k": k, "moment": moment, "reference": reference})
    _write_report(args, "moments", config, results,
                  [("family", len(cf)), ("excluded", cf.excluded)], statuses=cf.statuses)
    return EXIT_OK


def run_clt(args):
    r, cf, config = _prime_sum_setup(args)
    config["k_max"] = args.k_max
    results, sample = stats.clt_report(cf, r, args.x, k_max=args.k_max)
    summary = [("family", len(cf)), ("excluded", cf.excluded),
               ("ks", "%.4f" % results["ks_distance"])]
    _write_report(args, "clt", config, results, summary,
                  extra=[(args.out + SAMPLE_SUFFIX, stats.sample_csv(sample))],
                  statuses=cf.statuses)
    return EXIT_OK


def run_average(args):
    """ramified and index: a family average over the primes up to --bound."""
    spec = _family_spec(args)
    statistic = {"ramified": stats.ramified_average, "index": stats.index_prime_average}
    average, reference, statuses = statistic[args.command](spec, args.bound, args.budget)
    certified = statuses[SN_CERTIFIED]
    config = {**_family_config(spec, args.budget), "bound": args.bound}
    results = {"average": average, "reference": reference,
               "excluded": spec.size - certified, "family_size": certified}
    summary = [("family", certified), ("excluded", results["excluded"]), ("avg", "%.4f" % average)]
    _write_report(args, args.command, config, results, summary, statuses=statuses)
    return EXIT_OK


def run_ansplit(args):
    config = {"n": args.n}
    results = []
    for r in splittypes.enumerate_types(args.n):
        par = splittypes.parity(r)
        splits = splittypes.splits_in_alternating(r) if par == "even" else ""
        results.append(
            {"r": ",".join(map(str, r)), "parity": par, "splits": str(splits)}
        )
    _write_report(args, "ansplit", config, results,
                  [("n", args.n), ("types", len(results))])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument handling

def _load_config_file(path):
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError("config file: %s" % exc) from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("%s:%d: expected key = value" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _add_common(sub):
    sub.add_argument("--out", help="report output path")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--force", action="store_true", help="overwrite existing reports")
    sub.add_argument("--config", help="key = value configuration file")


def _add_family(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--N", dest="N", default="0", help="height bound, decimal string")
    sub.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sub.add_argument("--sample-size", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=_in_range(int, 1), default=CERTIFIER_PRIME_BUDGET,
                     help="certifier prime budget")


def build_parser(defaults=None):
    """The command-line parser; defaults, if given, override every subcommand's."""
    parser = argparse.ArgumentParser(
        prog="splitstat", description="splitting-type statistics experiment runner"
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("counts", help="exact class counts per splitting type")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=_prime, required=True)
    sub.add_argument("--pmin", type=_in_range(int, 0, MAX_SIEVE_LIMIT), default=101)
    sub.add_argument("--pmax", type=_in_range(int, 0, MAX_SIEVE_LIMIT), default=199)
    _add_common(sub)
    sub.set_defaults(func=run_counts)

    sub = subs.add_parser("fibers", help="congruence-fiber probabilities")
    _add_family(sub)
    sub.add_argument(
        "--target",
        action="append",
        required=True,
        help="fiber as p:a_0,...,a_{n-1}; repeatable",
    )
    _add_common(sub)
    sub.set_defaults(func=run_fibers)

    for name, runner in [
        ("chebotarev", run_chebotarev),
        ("moments", run_moments),
        ("clt", run_clt),
    ]:
        sub = subs.add_parser(name)
        _add_family(sub)
        sub.add_argument("--x", type=_in_range(float, 0, MAX_SIEVE_LIMIT), required=True)
        sub.add_argument("--r", required=True, help="splitting type, comma-separated")
        if name != "chebotarev":
            sub.add_argument("--k-max", type=_in_range(int, 1, stats.MAX_MOMENT),
                             default=stats.DEFAULT_K_MAX,
                             help="highest moment")
        _add_common(sub)
        sub.set_defaults(func=runner)

    for name in ("ramified", "index"):
        sub = subs.add_parser(name)
        _add_family(sub)
        sub.add_argument("--bound", type=_in_range(int, 0, MAX_SIEVE_LIMIT), required=True)
        _add_common(sub)
        sub.set_defaults(func=run_average)

    sub = subs.add_parser("ansplit", help="A_n class splitting table")
    sub.add_argument("--n", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=run_ansplit)
    for sub in subs.choices.values():
        sub.set_defaults(**(defaults or {}))
    return parser


def _config_defaults(args):
    """Config-file values as parser defaults, so explicit flags override them."""
    defaults = {}
    for key, value in _load_config_file(args.config).items():
        if not hasattr(args, key) or key in ("config", "func", "command"):
            raise ValueError("config file: unknown key %r" % key)
        if isinstance(getattr(args, key), list):
            # argparse would append command-line values to a list default.
            raise ValueError("config file: give repeatable %r on the command line" % key)
        if isinstance(getattr(args, key), bool):
            value = value.lower() in ("1", "true", "yes")
        # argparse converts string defaults with the option's type.
        defaults[key] = value
    return defaults


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_config_defaults(args)).parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return EXIT_CONFIG
    except SplitstatError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
