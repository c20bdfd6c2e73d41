"""Workload inputs, generated from a seed, and the calls that run them.

Every input the program receives is made here: the same seed gives the same
stream of calls.  The stream is a sequence of lists, list ``r`` drawn from
(seed, r), so a pass never repeats an input (parameter-free calls aside)
and a per-input cache in the program cannot hit on a repeat.  Each list is
built from blocks; a block holds one call of every kind the workload mixes,
so a pass that stops at a block boundary sees every kind equally often.
Continuous parameters are stratified across the blocks of a list (one draw
per stratum, jittered by the seed) and discrete ones follow the block index,
so a seed changes the values but not the cost mix.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

WORKLOADS = ("scheme-a-highorder", "mixed-loworder", "cli-cold")
DEFAULT_SEED = 0
# The list that warms up entry points before timing; the timed stream's
# lists are numbered from 0, so warm-up inputs are never timed.
WARMUP = -1

# verify-phase grows the cutoff to 2*order; above order 10 that exceeds the
# factorial table of the optics kernel (MAX_FACTORIAL_CUTOFF = 20) and raises.
HIGHORDER_ORDERS = (4, 6, 8, 10)
HIGHORDER_FNS = ("run_scheme_a", "run_phase_verification")
# Below |tau|^2 ~ 1e-2 the 1e-14 amplitude pruning caps the state size, so
# higher orders stop adding work; the range starts above that plateau.
HIGHORDER_TAU2 = (1e-2, 1e-1)
HIGHORDER_BLOCKS = 12

LOWORDER_TAU2 = (1e-4, 1e-1)
LOWORDER_BLOCKS = 16
SHOTS = 1000


class Call(NamedTuple):
    """One call into the program.

    ``fn`` names a function of ``swapsim.protocols`` (or ``"cli"`` for a
    ``swapsim`` command line in ``args``); ``shots`` is ``(shots, seed)`` when
    the result distribution is sampled with ``sample_run``.
    """

    fn: str
    args: tuple
    shots: tuple | None = None

    @property
    def key(self) -> str:
        """Canonical text of the call, used to look up golden outputs."""
        if self.fn == "cli":
            return "swapsim " + " ".join(self.args)
        text = f"{self.fn}{self.args!r}"
        return text + (f"+sample_run{self.shots!r}" if self.shots else "")


class Workload(NamedTuple):
    calls: list
    block: int  # calls per block: one of every kind in the mix
    stop_every: int  # a timed pass stops only after a multiple of this


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return _sig6(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u))


def _strata(rng: random.Random, n: int, step: int) -> list[float]:
    """n uniform draws in [0, 1), draw b in stratum (b * step) mod n.

    ``step`` is coprime to n, so every stratum is drawn once and any run of
    consecutive blocks spreads over the whole range.  Parameters of one call
    use different steps, which pairs their strata in a fixed, spread-out way.
    """
    return [((b * step) % n + rng.random()) / n for b in range(n)]


def _eta(b: int, u: float) -> float:
    """Detector efficiency in [0.5, 1]: exactly 1 in every third block,
    where the event-probability check against tau2*(1 - tau2) applies.
    An efficiency below 1 makes the heralded ensemble much larger, so the
    share of eta = 1 calls is fixed rather than left to the seed."""
    return 1.0 if b % 3 == 0 else _sig6(0.5 + 0.5 * u)


def _rng(workload: str, seed: int, repeat: int) -> random.Random:
    # list 0 keeps the key the golden outputs were recorded with
    return random.Random(f"{workload}/{seed}" + (f"/{repeat}" if repeat else ""))


def scheme_a_highorder(seed: int, repeat: int = 0) -> Workload:
    rng = _rng("scheme-a-highorder", seed, repeat)
    n = HIGHORDER_BLOCKS
    cells = [(fn, order) for fn in HIGHORDER_FNS for order in HIGHORDER_ORDERS]
    draws = {cell: (_strata(rng, n, 5), _strata(rng, n, 7)) for cell in cells}
    calls = []
    for b in range(n):
        for fn, order in cells:
            u_tau, u_eta = draws[(fn, order)]
            tau2 = _log_uniform(*HIGHORDER_TAU2, u_tau[b])
            calls.append(Call(fn, (math.sqrt(tau2), _eta(b, u_eta[b]), order)))
    # Call times span two orders of magnitude and every third block is
    # cheaper, so a pass stops only at the end of a list: whole lists keep
    # the mix, and with it the percentiles, the same whatever the speed.
    return Workload(calls, len(cells), len(calls))


def mixed_loworder(seed: int, repeat: int = 0) -> Workload:
    rng = _rng("mixed-loworder", seed, repeat)
    n = LOWORDER_BLOCKS

    def tau(u):
        return math.sqrt(_log_uniform(*LOWORDER_TAU2, u))

    def eps(u):
        return _sig6(0.05 + 0.9 * u)

    # one stratified column per continuous parameter
    u = {name: _strata(rng, n, step) for name, step in (
        ("tau_a", 7), ("eta_a", 5), ("tau_v", 7), ("eta_v", 5), ("eps_u", 7),
        ("eta_u", 5), ("eps_p", 7), ("eta_p", 5), ("theta", 7), ("weight", 5),
        ("eta_pol", 3), ("eta_vac", 7), ("tau_sa", 7), ("eta_sa", 5),
        ("eps_sb", 7), ("eta_sb", 5), ("amp", 3))}
    calls = []
    for b in range(n):
        def col(name):
            return u[name][b]
        order = 1 + b % 2
        # scheme B needs an explicit pair amplitude for order 2 to matter
        amp = 0.0 if order == 1 else _sig6(0.05 + 0.25 * col("amp"))
        calls += [
            Call("run_scheme_a", (tau(col("tau_a")), _eta(b, col("eta_a")), order)),
            Call("run_phase_verification",
                 (tau(col("tau_v")), _eta(b, col("eta_v")), order)),
            Call("run_scheme_b", (eps(col("eps_u")), _eta(b, col("eta_u")), order, "ubs", amp)),
            Call("run_scheme_b", (eps(col("eps_p")), _eta(b, col("eta_p")), order, "pbs", amp)),
            Call("run_theta_swapping", (_sig6(0.05 + 1.47 * col("theta")),)),
            Call("bell_decomposition_check", ()),
            Call("analyze_polarization_postselection",
                 (_eta(b, col("eta_pol")), b % 4 < 2, _sig6(0.25 + 1.75 * col("weight")))),
            Call("analyze_vacuum_one_photon", (_sig6(0.5 + 0.5 * col("eta_vac")),)),
            Call("scheme_a_click_distribution",
                 (tau(col("tau_sa")), _eta(b, col("eta_sa")), order),
                 shots=(SHOTS, rng.randrange(2**31))),
            Call("scheme_b_click_distribution",
                 (eps(col("eps_sb")), _eta(b, col("eta_sb")), order, ("ubs", "pbs")[b % 2]),
                 shots=(SHOTS, rng.randrange(2**31))),
        ]
    return Workload(calls, len(calls) // n, len(calls) // n)


def cli_cold(seed: int, repeat: int = 0) -> Workload:
    """A fixed script of command lines: all seven subcommands, the three
    output formats, one --sweep, one --shots, and --verify on scheme-a and
    scheme-b (the only two subcommands that support it).  --sweep ignores
    --verify and --shots, so the script never combines them."""
    rng = _rng("cli-cold", seed, repeat)

    def g(x: float) -> str:
        return f"{_sig6(x):.6g}"

    def tau2():
        return g(_log_uniform(*LOWORDER_TAU2, rng.random()))

    def eta():
        return g(0.5 + 0.5 * rng.random())

    def eps():
        return g(0.05 + 0.9 * rng.random())

    lo = _log_uniform(1e-4, 1e-3, rng.random())
    hi = _log_uniform(1e-2, 1e-1, rng.random())
    script = [
        ("scheme-a", "--tau2", tau2(), "--eta", "1", "--order", "1", "--format", "json"),
        ("scheme-a", "--tau2", tau2(), "--eta", eta(), "--order", "2", "--format", "csv",
         "--verify"),
        ("verify-phase", "--tau2", tau2(), "--eta", eta(), "--order", "2",
         "--format", "json"),
        ("scheme-b", "--epsilon", eps(), "--eta", eta(), "--variant", "ubs",
         "--format", "table", "--verify"),
        ("scheme-b", "--epsilon", eps(), "--eta", eta(), "--variant", "pbs",
         "--format", "json", "--shots", str(SHOTS), "--seed", str(rng.randrange(2**31))),
        ("theta", "--theta", g(0.05 + 1.47 * rng.random()), "--format", "csv"),
        ("bell-check", "--format", "table"),
        ("postselect-pol", "--eta", eta(), "--double-pair-weight",
         g(0.25 + 1.75 * rng.random()), "--format", "json"),
        ("postselect-pol", "--eta", eta(), "--x-only", "--format", "table"),
        ("postselect-vac", "--eta", eta(), "--format", "csv"),
        # scheme-a asks for --tau2 even when sweeping it
        ("scheme-a", "--sweep", "tau2", "--from", g(lo), "--to", g(hi), "--steps", "5",
         "--spacing", "log", "--eta", eta(), "--tau2", g(lo)),
    ]
    return Workload([Call("cli", argv) for argv in script], len(script), 1)


GENERATORS = {
    "scheme-a-highorder": scheme_a_highorder,
    "mixed-loworder": mixed_loworder,
    "cli-cold": cli_cold,
}


def generate(workload: str, seed: int, repeat: int = 0) -> Workload:
    """List ``repeat`` of the workload's stream for ``seed``."""
    return GENERATORS[workload](seed, repeat)


def stream(workload: str, seed: int):
    """The workload's calls for a seed, list after list, without end."""
    for repeat in itertools.count():
        yield from generate(workload, seed, repeat).calls


def warmup_calls(workload: str) -> list:
    """One call of every kind in the workload's mix, run once before timing:
    the first block of the warm-up list, which has the cheapest draws."""
    work = generate(workload, DEFAULT_SEED, WARMUP)
    return work.calls[:work.block]


def execute(protocols, call: Call):
    """Run one in-process call; returns the JSON-ready output the user gets.

    ``protocols`` is the ``swapsim.protocols`` module; names are looked up at
    call time so that tracing wrappers bound to it are seen.
    """
    result = getattr(protocols, call.fn)(*call.args)
    if call.shots:
        return {"distribution": result, "samples": protocols.sample_run(result, *call.shots)}
    return result.to_json_dict()
