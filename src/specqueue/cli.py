"""Command-line front end.

Subcommands: gen-workload writes a synthetic workload file, simulate
runs one and prints its metrics, compare runs several strategy or
threshold variants side by side, and cdf evaluates a single
finish-order probability for manual inspection.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable, not
UTF-8 or malformed workload). A command's outputs must name distinct
files other than its workload. Its output files are each written to a
temp file and renamed into place only once all are written, so a
failed run leaves no output behind; they get the mode a plain open()
would give them. An output that is a symlink is written through to its
target; one that is a directory, pipe, device or socket exits 2.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import stat
import sys
import tempfile
from dataclasses import fields, replace

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


# gen-workload's flag keys and the GeneratorParams fields they set, one
# for each field, keyed by the field's name unless renamed here. A flag is
# "--" and its key with "-" for "_", and takes its field's type and default.
_FLAG_RENAMES = {"conflict_density": "density"}
GENERATOR_FLAGS = {
    _FLAG_RENAMES.get(f.name, f.name): f.name for f in fields(GeneratorParams)
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; main may be called repeatedly in one process."""
    try:
        args = _parser().parse_args(argv)
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
    defaults = GeneratorParams()
    for key, field in GENERATOR_FLAGS.items():
        default = getattr(defaults, field)
        gen.add_argument("--" + key.replace("_", "-"), type=type(default),
                         default=default, help=field.replace("_", " "))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parse_args keeps no
    state between calls, and the parser holds nothing of a workload."""
    return build_parser()


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One override flag per config record key, typed like its field."""
    defaults = EngineConfig()
    for key, field in CONFIG_FIELDS.items():
        p.add_argument("--" + key.replace("_", "-"),
                       type=type(getattr(defaults, field)), default=None,
                       help=field.replace("_", " ") + " override")


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    params = GeneratorParams(
        **{field: getattr(args, key) for key, field in GENERATOR_FLAGS.items()}
    )
    text = format_workload(generate_workload(params))
    if args.out:
        _write_outputs({args.out: text})
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_outputs(args, "out_metrics", "out_trace")
    w = _load_workload(args)
    report, trace = run(w, args.strategy)
    csv_text = reports_to_csv([report])
    outputs = {args.out_metrics: csv_text}
    if args.out_trace:
        outputs[args.out_trace] = "\n".join([*trace, ""])
    _write_outputs(outputs)
    sys.stdout.write(csv_text)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.delta is not None and args.deltas is not None:
        raise ValueError("--delta and --deltas both set the threshold; give one")
    _check_outputs(args, "out_metrics")
    w = _load_workload(args)
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.deltas is not None:
        deltas = [float(d) for d in args.deltas.split(",") if d.strip()]
    else:
        deltas = [w.config.speculation_threshold]
    # a repeated variant would run twice and print the same row twice;
    # two deltas repeat when they are equal or print alike
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise ValueError(f"repeated strategy {strategy!r}")
    shown = [f"{d:g}" for d in deltas]
    for i, delta in enumerate(deltas):
        if delta in deltas[:i] or shown[i] in shown[:i]:
            raise ValueError(f"repeated delta {shown[i]}")
    variants = []
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        for delta, text in zip(deltas, shown):
            label = strategy
            if len(deltas) > 1:
                suffix = f"delta={text}"
                # no comma: the CSV writes the label unquoted
                label = suffix if len(strategies) == 1 else f"{strategy} {suffix}"
            cfg = replace(w.config, speculation_threshold=delta)
            variants.append((label, strategy, cfg))
    if len(variants) < 2:
        raise ValueError("compare needs at least two variants")
    rows = [
        replace(run(replace(w, config=cfg), strategy)[0], strategy=label)
        for label, strategy, cfg in variants
    ]
    csv_text = reports_to_csv(rows)
    _write_outputs({args.out_metrics: csv_text})
    sys.stdout.write(csv_text)
    return 0


def _cmd_cdf(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.at_x) and math.isfinite(args.at_y)):
        raise ValueError("--at-x and --at-y must be finite")
    est_x = DurationEstimate(args.mu_x, args.var_x)
    est_y = DurationEstimate(args.mu_y, args.var_y)
    # the margin by which y finishes first: past the largest float, Z
    # would read nan
    if not math.isfinite((args.at_x - args.at_y) - (est_y.mean - est_x.mean)):
        raise ValueError("the margin (at_x - at_y) - (mu_y - mu_x) must be finite")
    z = z_score(args.at_x, est_x, args.at_y, est_y)
    print(f"Z = {z:.4f}")
    print(f"P(y finishes before x) = {normal_cdf(z):.6f}")
    return 0


def _check_outputs(args: argparse.Namespace, *dests: str) -> None:
    """Reject, as a usage error, an output that resolves to the workload
    file or to another output: one of them would be lost."""
    seen = {os.path.realpath(args.workload): "--workload"}
    for dest in dests:
        path = getattr(args, dest)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{flag} names the same file as {seen[real]}")
        seen[real] = flag


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


def _write_outputs(outputs: dict[str | None, str]) -> None:
    """Write each text to its path, skipping a None path, all or none.

    Every text goes to a temp file beside the file its path names, and
    the temp files are renamed into place only once all are written. A
    symlink is written through to its target, as open() would, and an
    output whose file exists but is no regular file is refused before
    anything is staged. A file gets the mode open() would give it: an
    overwritten file keeps its mode, a new one gets 0o666 less the umask,
    where mkstemp alone would give 0o600. An error names the path it was
    given, never a temp file or a link's target.
    """
    files: list[tuple[str, str, int]] = []  # (path, file it names, mode)
    staged: list[tuple[str, str, str]] = []  # (path, file, temp file), not yet renamed
    try:
        for path in outputs:
            if path is not None:
                files.append((path, *_output_file(path)))
        for path, file, mode in files:
            directory = os.path.dirname(os.path.abspath(file))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".specqueue-")
            staged.append((path, file, tmp))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), mode)
                fh.write(outputs[path])
        while staged:
            path, file, tmp = staged[-1]
            os.replace(tmp, file)
            staged.pop()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for _, _, tmp in staged:
            os.unlink(tmp)


def _output_file(path: str) -> tuple[str, int]:
    """The file an output path names and the mode it is written with: a
    symlink's resolved target, a dangling one's included, else the path
    itself. An existing file must be a regular one."""
    try:
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            path = os.path.realpath(path)
            st = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0o022)
        os.umask(umask)
        return path, 0o666 & ~umask
    if stat.S_ISDIR(st.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if not stat.S_ISREG(st.st_mode):
        raise OSError(errno.EINVAL, "not a regular file")
    return path, stat.S_IMODE(st.st_mode)


if __name__ == "__main__":
    sys.exit(main())
