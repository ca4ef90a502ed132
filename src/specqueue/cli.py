"""Command-line front end.

Subcommands: gen-workload writes a synthetic workload file, simulate
runs one and prints its metrics, compare runs several strategy or
threshold variants side by side, and cdf evaluates a single
finish-order probability for manual inspection.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable, not
UTF-8 or malformed workload). Output files are written to a temp file
and renamed into place so a failed run never leaves a partial file;
they get the mode a plain open() would give them.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import tempfile
from dataclasses import replace

from specqueue.completion import normal_cdf, z_score
from specqueue.core import EngineConfig
from specqueue.prediction import DurationEstimate
from specqueue.simulator import (
    GeneratorParams,
    WorkloadError,
    WorkloadSpec,
    format_workload,
    generate_workload,
    parse_workload,
    reports_to_csv,
    run,
)
from specqueue.simulator.workload import CONFIG_FIELDS, STRATEGIES


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except (WorkloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # bad flag values (threshold ranges, variant counts)
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specqueue",
        description="Speculative merge-queue simulator and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-workload", help="write a synthetic workload file")
    gen.add_argument("--n-changes", type=int, default=500)
    gen.add_argument("--arrival-rate", type=float, default=0.25)
    gen.add_argument("--density", type=float, default=0.3,
                     help="target conflict density")
    gen.add_argument("--short-fraction", type=float, default=0.7)
    gen.add_argument("--fail-rate", type=float, default=0.1)
    gen.add_argument("--breaker-rate", type=float, default=0.3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(handler=_cmd_gen_workload)

    sim = sub.add_parser("simulate", help="run one workload, print metrics")
    sim.add_argument("--workload", required=True)
    sim.add_argument("--seed", type=int, default=None,
                     help="override the workload's seed")
    sim.add_argument("--strategy", choices=STRATEGIES, default=None,
                     help="override the workload's strategy")
    _add_config_flags(sim)
    sim.add_argument("--out-metrics", help="also write the metrics CSV here")
    sim.add_argument("--out-trace", help="also write the event trace here")
    sim.set_defaults(handler=_cmd_simulate)

    cmp_ = sub.add_parser("compare", help="run variants over one workload")
    cmp_.add_argument("--workload", required=True)
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--strategies", default="baseline,enhanced",
                      help="comma-separated strategy list")
    cmp_.add_argument("--deltas", default=None,
                      help="comma-separated speculation-threshold sweep")
    _add_config_flags(cmp_)
    cmp_.add_argument("--out-metrics", help="also write the metrics CSV here")
    cmp_.set_defaults(handler=_cmd_compare)

    cdf = sub.add_parser("cdf", help="finish-order probability of y before x")
    for flag in ("--at-x", "--mu-x", "--var-x", "--at-y", "--mu-y", "--var-y"):
        cdf.add_argument(flag, type=float, required=True)
    cdf.set_defaults(handler=_cmd_cdf)

    return parser


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One override flag per config record key, typed like its field."""
    defaults = EngineConfig()
    for key, field in CONFIG_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"),
                       type=type(getattr(defaults, field)), default=None,
                       help=field.replace("_", " ") + " override")


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    params = GeneratorParams(
        n_changes=args.n_changes,
        arrival_rate=args.arrival_rate,
        conflict_density=args.density,
        short_fraction=args.short_fraction,
        fail_rate=args.fail_rate,
        breaker_rate=args.breaker_rate,
        seed=args.seed,
    )
    text = format_workload(generate_workload(params))
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    w = _load_workload(args)
    report, trace = run(w, args.strategy)
    csv_text = reports_to_csv([report])
    sys.stdout.write(csv_text)
    if args.out_metrics:
        _write_atomic(args.out_metrics, csv_text)
    if args.out_trace:
        _write_atomic(args.out_trace, "\n".join(trace) + "\n")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    w = _load_workload(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.deltas is not None:
        deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
    else:
        deltas = [w.config.speculation_threshold]
    variants = []
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        for delta in deltas:
            label = strategy
            if len(deltas) > 1:
                suffix = f"delta={delta:g}"
                label = suffix if len(strategies) == 1 else f"{strategy},{suffix}"
            cfg = replace(w.config, speculation_threshold=delta)
            variants.append((label, strategy, cfg))
    if len(variants) < 2:
        raise ValueError("compare needs at least two variants")
    rows = [
        replace(run(replace(w, config=cfg), strategy)[0], strategy=label)
        for label, strategy, cfg in variants
    ]
    csv_text = reports_to_csv(rows)
    sys.stdout.write(csv_text)
    if args.out_metrics:
        _write_atomic(args.out_metrics, csv_text)
    return 0


def _cmd_cdf(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.at_x) and math.isfinite(args.at_y)):
        raise ValueError("--at-x and --at-y must be finite")
    z = z_score(
        args.at_x,
        DurationEstimate(args.mu_x, args.var_x),
        args.at_y,
        DurationEstimate(args.mu_y, args.var_y),
    )
    print(f"Z = {z:.4f}")
    print(f"P(y finishes before x) = {normal_cdf(z):.6f}")
    return 0


def _load_workload(args: argparse.Namespace) -> WorkloadSpec:
    with open(args.workload, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise WorkloadError(f"{args.workload}: not UTF-8 text ({exc})") from None
    w = parse_workload(text)
    if args.seed is not None:
        w = replace(w, seed=args.seed)
    overrides = {
        field: getattr(args, flag)
        for flag, field in CONFIG_FIELDS.items()
        if getattr(args, flag, None) is not None
    }
    if overrides:
        w = replace(w, config=replace(w.config, **overrides))
    return w


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a renamed temp file. The file gets the
    mode open() would give it: an overwritten file keeps its mode, a new
    one gets 0o666 less the umask, where mkstemp alone would give 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".specqueue-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
