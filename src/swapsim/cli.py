"""Command-line front end: run any protocol, sweep a parameter, emit
json/csv/table, optionally cross-check against the dense oracle or sample
synthetic detection shots.

``COMMANDS`` says everything about each subcommand, one ``Command`` row,
and ``OPTIONS`` declares the flag or flags that set each of its
arguments, once for every subcommand.  The parser offers ``--verify`` and
``--shots``/``--seed`` only on subcommands whose row names a function for
them, and the sweep flags only where ``sweep`` names a parameter.
Functions are stored by name and looked up when a command runs, so a
function rebound on its module is the one called.  Every usage error,
found by argparse or by a check after parsing, prints the usage line of
the subcommand that was run.  The top-level usage is one string built
from ``COMMANDS``: ``[-h]``, the brace list of subcommands and ``...``,
each on its own line and indented to the column after
``usage: swapsim ``, so it reads the same at every terminal width and on
every Python.

``--verify`` runs after the report is written.  On agreement it writes one
more stdout line, ``verify: ok (max deviation ...)``; on a mismatch it
writes an error to stderr and exits 3.  So with ``--format json`` stdout is
the JSON document and then that line, not one JSON document, and with
``--format csv`` the line follows the rows.  ``bench/golden/cli-cold.json``
pins these bytes.

Output is deterministic (byte-stable) for a fixed configuration and seed;
all floats are printed with 12 significant digits.

``run(argv, out)`` is the in-process API: it returns the exit status, and
argparse raises ``SystemExit`` for ``--help`` and usage errors; ``main()``
is the process entry point.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

from . import protocols

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_CLOSED_PIPE = 1  # Python's status for an uncaught BrokenPipeError

VERIFY_TOL = 1e-10


class Command(NamedTuple):
    help: str  # the subcommand's line in swapsim --help
    report: str  # report function in protocols
    check: str | None  # dense-oracle check in oracle, for --verify
    distribution: str | None  # click distribution in protocols, for --shots
    sweep: tuple[str, ...]  # the parameters --sweep may set
    params: tuple[str, ...]  # the arguments each function above takes, in order


_TAU_PARAMS = ("tau", "eta", "order")
COMMANDS = {
    "scheme-a": Command("double-pass SPDC swapping",
                        "run_scheme_a", "verify_scheme_a", "scheme_a_click_distribution",
                        ("tau", "tau2", "eta"), _TAU_PARAMS),
    "verify-phase": Command("phase verification after scheme A",
                            "run_phase_verification", "verify_phase_verification", None,
                            ("tau", "tau2", "eta"), _TAU_PARAMS),
    "scheme-b": Command("single-pass scheme with unbalanced BS or PBS",
                        "run_scheme_b", "verify_scheme_b", "scheme_b_click_distribution",
                        ("epsilon", "eta"),
                        ("epsilon", "eta", "order", "variant", "pair_amplitude")),
    "theta": Command("non-maximal pair swapping identity",
                     "run_theta_swapping", None, None, ("theta",), ("theta",)),
    "bell-check": Command("Bell-basis swapping identity",
                          "bell_decomposition_check", None, None, (), ()),
    "postselect-pol": Command("polarization post-selection analysis",
                              "analyze_polarization_postselection", None, None, ("eta",),
                              ("eta", "include_double_pairs", "double_pair_weight")),
    "postselect-vac": Command("vacuum/one-photon post-selection analysis",
                              "analyze_vacuum_one_photon", None, None, ("eta",), ("eta",)),
}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite, and not 0.0
    from a text whose mantissa (before any exponent) holds a non-zero digit,
    such as 1e-400, which is too small for a float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    mantissa = text.lower().partition("e")[0]
    if value == 0.0 and any(ch.isdecimal() and int(ch) for ch in mantissa):
        raise argparse.ArgumentTypeError(f"rounds to 0, too small for a float: {text!r}")
    return value


# The flag or flags that set each entry of Command.params: calling an entry
# on a subparser adds them.  --tau2 is the other way to give tau.
OPTIONS = {
    "tau": lambda p: (
        p.add_argument("--tau", type=_finite_float, help="pair amplitude ratio"),
        p.add_argument("--tau2", type=_finite_float, help="|tau|^2 (exclusive with --tau)")),
    "eta": lambda p: p.add_argument("--eta", type=_finite_float, default=1.0,
                                    help="detector efficiency in [0, 1] (default: 1)"),
    "order": lambda p: p.add_argument("--order", type=int, default=1,
                                      help="at most this many pairs per pass (default: 1)"),
    "epsilon": lambda p: p.add_argument("--epsilon", type=_finite_float, required=True,
                                        help="unbalanced BS coupling eps, in (0, 1)"),
    "variant": lambda p: p.add_argument("--variant", choices=("ubs", "pbs"), default="ubs"),
    "pair_amplitude": lambda p: p.add_argument(
        "--pair-amplitude", type=_finite_float, default=0.0,
        help="ratio of successive pair terms, |x| < 1"),
    "theta": lambda p: p.add_argument("--theta", type=_finite_float, required=True),
    "include_double_pairs": lambda p: p.add_argument(
        "--x-only", dest="include_double_pairs", action="store_false",
        help="drop the double-pair emission terms"),
    "double_pair_weight": lambda p: p.add_argument(
        "--double-pair-weight", type=_finite_float,
        help="weight of the double-pair terms (default: 1)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Entanglement-swapping simulator in truncated Fock space.",
    )
    parser.set_defaults(verify=False, shots=0, seed=None, sweep=None, sweep_from=None,
                        sweep_to=None, steps=None, spacing=None)
    sub = parser.add_subparsers(dest="scheme", required=True)
    # set after add_subparsers, which takes each subparser's prog from it
    indent = "\n" + " " * len("usage: swapsim ")
    parser.usage = f"%(prog)s [-h]{indent}{{{','.join(COMMANDS)}}}{indent}..."
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.set_defaults(parser=p)
        for param in command.params:
            OPTIONS[param](p)
        # no default: a sweep accepts only csv, and a single run prints a table
        p.add_argument("--format", choices=("json", "csv", "table"))
        if command.check:
            p.add_argument("--verify", action="store_true",
                           help="cross-check against the dense oracle (exit 3 on mismatch)")
        if command.distribution:
            p.add_argument("--shots", type=int, default=0,
                           help="sample this many synthetic detection shots (0: off)")
            p.add_argument("--seed", type=int,
                           help="sampling seed for --shots (default: 0)")
        if command.sweep:
            p.add_argument("--sweep", metavar="PARAM",
                           help="sweep a numeric parameter; emits CSV rows")
            p.add_argument("--from", dest="sweep_from", type=_finite_float)
            p.add_argument("--to", dest="sweep_to", type=_finite_float)
            p.add_argument("--steps", type=int)
            p.add_argument("--spacing", choices=("linear", "log"),
                           help="sweep grid spacing (default: linear)")
    return parser


def _resolve_tau(args, parser) -> None:
    """Check --tau/--tau2 and fold --tau2 into ``args.tau``; nothing to do
    for a subcommand without them."""
    if not hasattr(args, "tau"):
        return
    if args.tau is not None and args.tau2 is not None:
        parser.error("specify --tau or --tau2, not both")
    if args.tau2 is not None:
        if args.tau2 < 0:
            parser.error("--tau2 must be >= 0")
        args.tau, args.tau2 = math.sqrt(args.tau2), None
    if args.tau is None:
        parser.error("one of --tau / --tau2 is required")


def _reject_idle_flags(args, parser) -> None:
    """Reject flag combinations the run would ignore, and give
    --double-pair-weight its default."""
    if args.scheme == "scheme-b":
        if args.order > 1 and not args.pair_amplitude:
            parser.error(f"--order {args.order} needs a non-zero --pair-amplitude: "
                         "without one only the single-pair term is emitted")
        if args.pair_amplitude and args.order == 1:
            parser.error("--pair-amplitude needs --order 2 or more: "
                         "at order 1 no second pair is emitted")
    if args.scheme == "postselect-pol":
        if args.double_pair_weight is None:
            args.double_pair_weight = 1.0
        elif not args.include_double_pairs:
            parser.error("--double-pair-weight has no effect with --x-only, "
                         "which drops the double-pair terms")


def _call(module, name: str, args):
    """Call ``name`` on ``module`` with the positional parameters that every
    function in the subcommand's row takes."""
    return getattr(module, name)(*(getattr(args, p) for p in COMMANDS[args.scheme].params))


def _sweep_rows(report: protocols.ProtocolReport, param: str, value: float) -> list:
    rows = []
    for ev in report.events:
        rows.append([param, value, ev.name, ev.probability,
                     ev.fidelity_psi_plus, ev.fidelity_psi_minus])
    if report.scheme == "verify-phase" and report.coincidences:
        co = report.coincidences
        for event in ("event1", "event2"):
            if co.get(event):
                rows.append([param, value, f"d3_given_{event}", co[event]["p_d3"], None, None])
                rows.append([param, value, f"d4_given_{event}", co[event]["p_d4"], None, None])
        rows.append([param, value, "ideal_d3", co["ideal_psi_plus"]["p_d3"], None, None])
        rows.append([param, value, "ideal_d4", co["ideal_psi_plus"]["p_d4"], None, None])
    return rows


def _sweep_grid(args, parser) -> list[float]:
    allowed = COMMANDS[args.scheme].sweep
    if args.sweep not in allowed:
        parser.error(f"{args.scheme} cannot sweep {args.sweep!r}; "
                     f"sweepable: {', '.join(allowed)}")
    if args.verify or args.shots:
        parser.error("--sweep cannot be combined with --verify or --shots")
    if args.format not in (None, "csv"):
        parser.error(f"--sweep always emits CSV: --format {args.format} has no effect")
    if args.sweep_from is None or args.sweep_to is None or args.steps is None:
        parser.error("--sweep requires --from, --to and --steps")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    a, b, k = args.sweep_from, args.sweep_to, args.steps
    log = args.spacing == "log"  # None, the default, is linear
    if log and (a <= 0 or b <= 0):
        parser.error("log spacing needs strictly positive endpoints")
    if k == 1:
        return [a]
    if log:
        la, lb = math.log(a), math.log(b)
        return [math.exp(la + (lb - la) * i / (k - 1)) for i in range(k)]
    return [a + (b - a) * i / (k - 1) for i in range(k)]


def _sweep_point(args, value: float, parser) -> argparse.Namespace:
    """A copy of ``args`` with the swept parameter set to ``value`` (sweeping
    --tau or --tau2 clears the other), checked like a single run."""
    point = argparse.Namespace(**vars(args))
    if args.sweep in ("tau", "tau2"):
        point.tau = point.tau2 = None
    setattr(point, args.sweep, value)
    _resolve_tau(point, parser)
    return point


def _emit_csv(rows: list, header: list[str], out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(x) for x in row) + "\n")


def _columns(*cells: str) -> str:
    """Table value columns, right-aligned to 16 characters; a cell that
    overflows its width still gets one space before it."""
    return "".join(f" {cell:>15}" for cell in cells) + "\n"


def _emit_report(report: protocols.ProtocolReport, args, samples, out) -> None:
    if args.format == "json":
        data = report.to_json_dict()
        if samples is not None:
            data["samples"] = samples
        out.write(json.dumps(_round_floats(data), sort_keys=True, indent=2) + "\n")
        return
    if args.format == "csv":
        header = ["event", "probability", "fidelity_psi_plus", "fidelity_psi_minus"]
        rows = [[ev.name, ev.probability, ev.fidelity_psi_plus, ev.fidelity_psi_minus]
                for ev in report.events]
        _emit_csv(rows, header, out)
        return
    out.write(f"scheme: {report.scheme}\n")
    out.write("params: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(report.params.items())) + "\n")
    out.write(f"{'event':<18}" + _columns("probability", "fid(psi+)", "fid(psi-)"))
    for ev in report.events:
        out.write(f"{ev.name:<18}" + _columns(_fmt(ev.probability), _fmt(ev.fidelity_psi_plus),
                                              _fmt(ev.fidelity_psi_minus)))
        if ev.impossible:
            out.write(f"  ({ev.name}: conditioning impossible)\n")
        for key in ("favored", "fidelity_favored", "vacuum_weight",
                    "empty_beam_weight", "swapped_target", "fidelity_swapped_target"):
            if key in ev.extras:
                out.write(f"  {ev.name}.{key} = {_fmt(ev.extras[key])}\n")
    if report.coincidences:
        out.write("coincidences:\n")
        for name, block in sorted(report.coincidences.items()):
            if isinstance(block, dict):
                flat = " ".join(
                    f"{k}={_fmt(v)}" for k, v in sorted(block.items())
                    if not isinstance(v, dict))
                out.write(f"  {name}: {flat}\n")
    if report.dropped_mass:
        out.write(f"dropped_mass: {_fmt(report.dropped_mass)}\n")
    if samples is not None:
        out.write("samples: " + " ".join(f"{k}={v}" for k, v in sorted(samples.items())) + "\n")


def run(argv=None, out=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    parser = args.parser  # every check below prints this subcommand's usage
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    out = out if out is not None else sys.stdout
    command = COMMANDS[args.scheme]
    if args.shots < 0:
        parser.error("--shots must be >= 0")
    if args.shots and args.format == "csv":
        parser.error("--shots has no effect with --format csv, which prints no samples")
    if args.seed is not None:
        if not args.shots:
            parser.error("--seed: only valid with --shots")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
    if args.sweep is None:
        unused = [flag for flag, value in (
            ("--from", args.sweep_from), ("--to", args.sweep_to),
            ("--steps", args.steps), ("--spacing", args.spacing)) if value is not None]
        if unused:
            parser.error(f"{', '.join(unused)}: only valid with --sweep")
    _resolve_tau(args, parser)
    _reject_idle_flags(args, parser)
    try:
        if args.sweep is not None:
            grid = _sweep_grid(args, parser)
            points = [_sweep_point(args, value, parser) for value in grid]
            rows = []
            for value, point in zip(grid, points):
                report = _call(protocols, command.report, point)
                rows.extend(_sweep_rows(report, args.sweep, value))
            header = ["param", "value", "event", "probability",
                      "fidelity_psi_plus", "fidelity_psi_minus"]
            _emit_csv(rows, header, out)
            return EXIT_OK

        report = _call(protocols, command.report, args)
        samples = None
        if args.shots:
            dist = _call(protocols, command.distribution, args)
            samples = protocols.sample_run(dist, args.shots, args.seed or 0)
        _emit_report(report, args, samples, out)
        if args.verify:
            from . import oracle  # scipy is only needed here

            diff = _call(oracle, command.check, args)
            if diff > VERIFY_TOL:
                print(f"error: oracle mismatch, max deviation {diff:.3g}",
                      file=sys.stderr)
                return EXIT_VERIFY
            out.write(f"verify: ok (max deviation {diff:.3g})\n")
        return EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    """The process entry point (``python -m swapsim.cli``, the ``swapsim``
    script): ``run()``, with argparse's exit status as its own, then flush
    stdout and stderr and end the process with ``os._exit``.  The
    interpreter's teardown prints nothing but costs tens of milliseconds
    once numpy or scipy is loaded.  A reader that closed stdout early gets
    status 1 and nothing on stderr.  An exception from ``run()``, a non-int
    status and a flush that fails otherwise take Python's own exit, which
    reports them as it always has."""
    try:
        code = run()
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        code = exc.code
    except BrokenPipeError:
        code = EXIT_CLOSED_PIPE
    if not isinstance(code, int):
        sys.exit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_CLOSED_PIPE
    except Exception:  # Python's exit flushes again and reports the failure
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
