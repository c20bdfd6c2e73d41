#!/usr/bin/env python3
"""Sweep the pair-generation strength and record swapped-state quality.

Writes a CSV with, for each |tau|^2 on a log grid, the heralding
probability and the fidelity of the post-selected outer-beam state
against the favored Bell state, at several detector efficiencies.  Every
value is the ``--order`` truncation of the source, at most ``--order``
pairs per pass (default 1, one pair per pass).  ``order1_fidelity_eta1``
is the order-1 fidelity at eta = 1, 1/(1 + tau2/2), at every order; the
converged fidelity at eta = 1 is 1 - tau2, which order 10 reaches to 12
digits on the default grid.  An impossible event (every event at eta = 0)
has probability 0 and an empty fidelity cell.

Usage:
    python3 scripts/fidelity_vs_pump.py --out fidelity_vs_pump.csv
    python3 scripts/fidelity_vs_pump.py --order 10 --out fidelity_vs_pump_order10.csv
"""
import argparse
import csv
import math
import os
import sys

from swapsim.protocols import run_scheme_a


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tau2-min", type=float, default=1e-4)
    ap.add_argument("--tau2-max", type=float, default=1e-1)
    ap.add_argument("--steps", type=int, default=25)
    ap.add_argument("--etas", type=float, nargs="+", default=[1.0, 0.8, 0.5])
    ap.add_argument("--order", type=int, default=1,
                    help="source truncation: at most this many pairs per pass (1 to 10)")
    ap.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be >= 1")
    if not 1 <= args.order <= 10:
        ap.error(f"--order must be in [1, 10], got {args.order}")
    for flag, tau2 in (("--tau2-min", args.tau2_min), ("--tau2-max", args.tau2_max)):
        if not 0.0 < tau2 < 1.0:
            ap.error(f"{flag} must be in (0, 1), got {tau2}")
    for eta in args.etas:
        if not 0.0 <= eta <= 1.0:
            ap.error(f"--etas must be in [0, 1], got {eta}")

    # the log grid of the CLI's --spacing log
    la, lb, k = math.log(args.tau2_min), math.log(args.tau2_max), args.steps
    grid = [math.exp(la + (lb - la) * i / max(k - 1, 1)) for i in range(k)]
    try:
        handle = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as exc:
        ap.error(f"--out must be a file that can be written, got {args.out!r}: {exc.strerror}")
    writer = csv.writer(handle)
    writer.writerow(["tau2", "eta", "event", "probability",
                     "fidelity_favored", "order1_fidelity_eta1"])
    for tau2 in grid:
        order_1 = 1.0 / (1.0 + tau2 / 2.0)
        for eta in args.etas:
            rep = run_scheme_a(math.sqrt(tau2), eta, args.order)
            for ev in rep.events:
                # an impossible event has no fidelity: an empty cell, as the CLI writes
                fav = ev.extras.get("fidelity_favored")
                writer.writerow([f"{tau2:.6g}", f"{eta:.3g}", ev.name,
                                 f"{ev.probability:.12g}",
                                 None if fav is None else f"{fav:.12g}",
                                 f"{order_1:.12g}"])
    if handle is not sys.stdout:
        handle.close()
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early: status 1, no traceback
        os._exit(1)
    raise SystemExit(status)
