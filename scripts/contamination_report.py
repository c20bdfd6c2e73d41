#!/usr/bin/env python3
"""Post-selection contamination summary across detector efficiencies.

For the two contamination studies -- the vacuum/one-photon superposition
herald and the polarization-encoded double-pair source -- print how the
vacuum (or empty-beam) weight and the Bell fidelity of the heralded
state vary with detector efficiency eta.

Usage:
    python3 scripts/contamination_report.py [--steps 9]
"""
import argparse
import os
import sys

from swapsim.protocols import (
    analyze_polarization_postselection,
    analyze_vacuum_one_photon,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args(argv)
    if args.steps < 1:
        ap.error("--steps must be >= 1")

    etas = [round(0.1 + 0.9 * i / max(args.steps - 1, 1), 4) for i in range(args.steps)]

    print("vacuum/one-photon herald (single click on the empty-side output)")
    print(f"{'eta':>6} {'p_click':>12} {'fid_psi+':>12} {'vac_weight':>12}")
    for eta in etas:
        ev = analyze_vacuum_one_photon(eta).event("d2prime_click")
        print(f"{eta:>6.2f} {ev.probability:>12.6f} "
              f"{ev.fidelity_psi_plus:>12.6f} "
              f"{ev.extras['vacuum_weight']:>12.6f}")

    print()
    print("polarization double-pair source (coincidence on both stations)")
    print(f"{'eta':>6} {'p_coinc':>12} {'fid_target':>12} {'empty_wt':>12}")
    for eta in etas:
        ev = analyze_polarization_postselection(eta).event("d2_and_d3")
        if ev.impossible:
            print(f"{eta:>6.2f} {'--':>12} {'--':>12} {'--':>12}")
            continue
        print(f"{eta:>6.2f} {ev.probability:>12.6f} "
              f"{ev.extras['fidelity_swapped_target']:>12.6f} "
              f"{ev.extras['empty_beam_weight']:>12.6f}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early: status 1, no traceback
        os._exit(1)
    raise SystemExit(status)
