"""Correctness gate: golden digests for the default seed, and invariants
that hold for any seed.

A call fails the gate when it raised, exited non-zero, printed bytes that
differ from the golden output recorded for the same call, or broke one of
the invariants below.  Golden outputs are the 12-significant-digit JSON of
each in-process result and the stdout of each command line; their SHA-256
digests live in ``golden/<workload>.json``.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TOL = 1e-12
# Command-line output carries 12 significant digits.
PRINTED_TOL = 1e-11


def round12(obj):
    """Round every float to 12 significant digits, as the CLI prints them."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def canonical_text(output) -> str:
    """The bytes a call is judged by: stdout for a command line, else JSON."""
    if isinstance(output, tuple):
        return output[1]
    return json.dumps(round12(output), sort_keys=True, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text())["digests"]


class Gate:
    """Checks outputs against golden digests (when recorded for the call)
    and against seed-independent invariants."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.golden_checked = 0

    def check(self, call, output) -> list[str]:
        problems = []
        expected = self.golden.get(call.key)
        if expected is not None:
            self.golden_checked += 1
            if digest(canonical_text(output)) != expected:
                problems.append("output differs from the golden output")
        if isinstance(output, tuple):
            problems += _cli_invariants(call.args, *output)
        elif call.shots:
            problems += _shots_invariants(output, call.shots[0])
        else:
            problems += _report_invariants(output, TOL)
        return problems


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _in_unit(x, tol: float) -> bool:
    return x is None or -tol <= x <= 1.0 + tol


def _report_invariants(rep: dict, tol: float) -> list[str]:
    problems = []
    events = rep["events"]
    for ev in events:
        for k in ("probability", "fidelity_psi_plus", "fidelity_psi_minus"):
            if not _in_unit(ev[k], tol):
                problems.append(f"{ev['name']}.{k} = {ev[k]} outside [0, 1]")
    probs = [ev["probability"] for ev in events]
    scheme, params = rep["scheme"], rep["params"]
    if scheme in ("theta", "bell-check") and not _close(sum(probs), 1.0, tol):
        problems.append(f"Bell-outcome probabilities sum to {sum(probs)}")
    if sum(probs) > 1.0 + tol:
        problems.append(f"exclusive event probabilities sum to {sum(probs)}")
    if scheme in ("scheme-a", "verify-phase") and params["eta"] == 1.0:
        tau2, order = params["tau2"], params["order"]
        ev1 = events[0]
        # Per source pass the truncation drops emission weight tau2^(order+1);
        # the event probability is an average over photon numbers, so it
        # moves by at most twice that from the untruncated tau2*(1 - tau2).
        if not _close(ev1["probability"], tau2 * (1 - tau2),
                      2 * tau2 ** (order + 1) + tol):
            problems.append(f"event1 probability {ev1['probability']} is not "
                            f"tau2*(1-tau2) within the emission tail")
        if order == 1 and not ev1.get("impossible"):
            fav = max(ev1["fidelity_psi_plus"], ev1["fidelity_psi_minus"])
            if not _close(fav, 1.0 / (1.0 + tau2 / 2.0), tol):
                problems.append(f"heralded fidelity {fav} is not 1/(1+tau2/2)")
    for name, block in (rep.get("coincidences") or {}).items():
        if isinstance(block, dict) and "joint" in block:
            total = sum(block["joint"].values())
            if not _close(total, 1.0, tol):
                problems.append(f"coincidence table {name} sums to {total}")
    return problems


def _shots_invariants(out: dict, shots: int) -> list[str]:
    problems = []
    total = sum(out["distribution"].values())
    if not _close(total, 1.0, TOL):
        problems.append(f"click distribution sums to {total}")
    if sum(out["samples"].values()) != shots:
        problems.append("sampled counts do not sum to the shot count")
    if set(out["samples"]) != set(out["distribution"]):
        problems.append("sampled patterns differ from the distribution's")
    return problems


def _cli_invariants(argv: tuple, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    if not stdout:
        return ["empty output"]
    problems = []
    if "--verify" in argv and "verify: ok" not in stdout:
        problems.append("--verify did not report ok")
    if "--sweep" in argv:
        return problems
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    if fmt == "json":
        rep = json.loads(stdout.split("verify:")[0])
        problems += _report_invariants(rep, PRINTED_TOL)
        if "samples" in rep:
            shots = int(argv[argv.index("--shots") + 1])
            if sum(rep["samples"].values()) != shots:
                problems.append("sampled counts do not sum to the shot count")
    return problems
