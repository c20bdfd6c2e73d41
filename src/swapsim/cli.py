"""Command-line front end: run any protocol, sweep a parameter, emit
json/csv/table, optionally cross-check against the dense oracle.

Output is deterministic (byte-stable) for a fixed configuration and seed;
all floats are printed with 12 significant digits.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import protocols

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

VERIFY_TOL = 1e-10

SCHEMES = ("scheme-a", "scheme-b", "theta", "bell-check",
           "postselect-pol", "postselect-vac", "verify-phase")

# the parameters _run_report takes from a sweep's overrides, per subcommand
SWEEP_PARAMS = {
    "scheme-a": ("tau", "tau2", "eta"),
    "verify-phase": ("tau", "tau2", "eta"),
    "scheme-b": ("epsilon", "eta"),
    "theta": ("theta",),
    "bell-check": (),
    "postselect-pol": ("eta",),
    "postselect-vac": ("eta",),
}
VERIFY_SCHEMES = ("scheme-a", "verify-phase", "scheme-b")
SHOTS_SCHEMES = ("scheme-a", "scheme-b")


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
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description="Entanglement-swapping simulator in truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="scheme", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"), default="table")
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the dense oracle (exit 3 on mismatch)")
        p.add_argument("--shots", type=int, default=0,
                       help="sample this many synthetic detection shots (0: off)")
        p.add_argument("--seed", type=int,
                       help="sampling seed for --shots (default: 0)")
        p.add_argument("--sweep", metavar="PARAM",
                       help="sweep a numeric parameter; emits CSV rows")
        p.add_argument("--from", dest="sweep_from", type=_finite_float)
        p.add_argument("--to", dest="sweep_to", type=_finite_float)
        p.add_argument("--steps", type=int)
        p.add_argument("--spacing", choices=("linear", "log"),
                       help="sweep grid spacing (default: linear)")

    def add_tau(p):
        p.add_argument("--tau", type=_finite_float, help="pair amplitude ratio")
        p.add_argument("--tau2", type=_finite_float, help="|tau|^2 (exclusive with --tau)")
        p.add_argument("--eta", type=_finite_float, default=1.0)
        p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("scheme-a", help="double-pass SPDC swapping")
    add_tau(p)
    common(p)

    p = sub.add_parser("verify-phase", help="phase verification after scheme A")
    add_tau(p)
    common(p)

    p = sub.add_parser("scheme-b", help="single-pass scheme with unbalanced BS or PBS")
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--variant", choices=("ubs", "pbs"), default="ubs")
    p.add_argument("--pair-amplitude", type=_finite_float, default=0.0)
    common(p)

    p = sub.add_parser("theta", help="non-maximal pair swapping identity")
    p.add_argument("--theta", type=_finite_float, required=True)
    common(p)

    p = sub.add_parser("bell-check", help="Bell-basis swapping identity")
    common(p)

    p = sub.add_parser("postselect-pol", help="polarization post-selection analysis")
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--x-only", action="store_true",
                   help="drop the double-pair emission terms")
    p.add_argument("--double-pair-weight", type=_finite_float, default=1.0)
    common(p)

    p = sub.add_parser("postselect-vac", help="vacuum/one-photon post-selection analysis")
    p.add_argument("--eta", type=_finite_float, default=1.0)
    common(p)
    return parser


def _resolve_tau(args, parser) -> float:
    if args.tau is not None and args.tau2 is not None:
        parser.error("specify --tau or --tau2, not both")
    if args.tau is not None:
        return args.tau
    if args.tau2 is not None:
        if args.tau2 < 0:
            parser.error("--tau2 must be >= 0")
        return math.sqrt(args.tau2)
    parser.error("one of --tau / --tau2 is required")


def _run_report(args, overrides: dict | None = None) -> protocols.ProtocolReport:
    ov = overrides or {}

    def get(name, default):
        return ov.get(name, default)

    if args.scheme in ("scheme-a", "verify-phase"):
        tau = get("tau", args._tau)
        if "tau2" in ov:
            tau = math.sqrt(ov["tau2"])
        eta = get("eta", args.eta)
        if args.scheme == "scheme-a":
            return protocols.run_scheme_a(tau, eta, args.order)
        return protocols.run_phase_verification(tau, eta, args.order)
    if args.scheme == "scheme-b":
        return protocols.run_scheme_b(
            get("epsilon", args.epsilon), get("eta", args.eta),
            args.order, args.variant, args.pair_amplitude)
    if args.scheme == "theta":
        return protocols.run_theta_swapping(get("theta", args.theta))
    if args.scheme == "bell-check":
        return protocols.bell_decomposition_check()
    if args.scheme == "postselect-pol":
        return protocols.analyze_polarization_postselection(
            get("eta", args.eta), not args.x_only, args.double_pair_weight)
    if args.scheme == "postselect-vac":
        return protocols.analyze_vacuum_one_photon(get("eta", args.eta))
    raise ValueError(f"unknown scheme {args.scheme!r}")


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
    allowed = SWEEP_PARAMS[args.scheme]
    if args.sweep not in allowed:
        parser.error(f"{args.scheme} cannot sweep {args.sweep!r}; "
                     f"sweepable: {', '.join(allowed) or 'none'}")
    if args.verify or args.shots:
        parser.error("--sweep cannot be combined with --verify or --shots")
    if args.sweep_from is None or args.sweep_to is None or args.steps is None:
        parser.error("--sweep requires --from, --to and --steps")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    a, b, k = args.sweep_from, args.sweep_to, args.steps
    if k == 1:
        return [a]
    if args.spacing == "log":  # None, the default, is linear
        if a <= 0 or b <= 0:
            parser.error("log spacing needs strictly positive endpoints")
        la, lb = math.log(a), math.log(b)
        return [math.exp(la + (lb - la) * i / (k - 1)) for i in range(k)]
    return [a + (b - a) * i / (k - 1) for i in range(k)]


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


def _verify(args) -> float:
    from . import oracle  # scipy is only needed here

    if args.scheme == "scheme-a":
        return oracle.verify_scheme_a(args._tau, args.eta, args.order)
    if args.scheme == "verify-phase":
        return oracle.verify_phase_verification(args._tau, args.eta, args.order)
    return oracle.verify_scheme_b(args.epsilon, args.eta, args.order, args.variant,
                                  args.pair_amplitude)


def _samples(args):
    if args.shots <= 0:
        return None
    if args.scheme == "scheme-a":
        dist = protocols.scheme_a_click_distribution(args._tau, args.eta, args.order)
    else:
        dist = protocols.scheme_b_click_distribution(
            args.epsilon, args.eta, args.order, args.variant, args.pair_amplitude)
    return protocols.sample_run(dist, args.shots, args.seed or 0)


def run(argv=None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    if args.shots < 0:
        parser.error("--shots must be >= 0")
    if args.verify and args.scheme not in VERIFY_SCHEMES:
        parser.error(f"--verify is not supported for {args.scheme}")
    if args.shots and args.scheme not in SHOTS_SCHEMES:
        parser.error(f"--shots is not supported for {args.scheme}")
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
    if args.scheme in ("scheme-a", "verify-phase"):
        args._tau = _resolve_tau(args, parser)
    try:
        if args.sweep is not None:
            grid = _sweep_grid(args, parser)
            rows = []
            for value in grid:
                report = _run_report(args, {args.sweep: value})
                rows.extend(_sweep_rows(report, args.sweep, value))
            header = ["param", "value", "event", "probability",
                      "fidelity_psi_plus", "fidelity_psi_minus"]
            _emit_csv(rows, header, out)
            return EXIT_OK

        report = _run_report(args)
        samples = _samples(args)
        _emit_report(report, args, samples, out)
        if args.verify:
            diff = _verify(args)
            if diff > VERIFY_TOL:
                print(f"error: oracle mismatch, max deviation {diff:.3g}",
                      file=sys.stderr)
                return EXIT_VERIFY
            out.write(f"verify: ok (max deviation {diff:.3g})\n")
        return EXIT_OK
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
