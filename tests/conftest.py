import contextlib
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import hypothesis.strategies as st

from swapsim.fock import FockKet, ModeRegister

TESTS = pathlib.Path(__file__).resolve().parent


@st.composite
def random_kets(draw, max_modes=4, max_cutoff=3, normalized=True, n_modes=None, real=False):
    """Random sparse kets on small registers (labels m0, m1, ...), with
    ``n_modes`` modes if given, and real amplitudes if ``real``."""
    if n_modes is None:
        n_modes = draw(st.integers(1, max_modes))
    cutoff = draw(st.integers(1, max_cutoff))
    reg = ModeRegister(tuple(f"m{i}" for i in range(n_modes)), cutoff)
    occ = st.tuples(*[st.integers(0, cutoff)] * n_modes)
    if real:
        amp = st.floats(-1.0, 1.0).filter(lambda a: abs(a) >= 0.05)
    else:
        amp = st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0,
                                 allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(occ, amp, min_size=1, max_size=6))
    ket = FockKet(reg, terms)
    return ket.normalized() if normalized else ket


@contextlib.contextmanager
def recording_trusted():
    """Record every FockKet._trusted call as (result, reference), where the
    reference is the public constructor on the same terms, each times the
    call's scale if it has one."""
    calls = []
    build = FockKet._trusted

    def record(cls, register, terms, scale=None):
        out = build(register, terms, scale)
        if scale is not None:
            terms = {occ: scale * amp for occ, amp in terms.items()}
        calls.append((out, FockKet(register, terms)))
        return out

    with mock.patch.object(FockKet, "_trusted", classmethod(record)):
        yield calls


def ket_bits(ket):
    """A ket's register and terms, in order, with every key element's type
    and both amplitude parts as float.hex: equal bits means equal kets."""
    return (ket.register, [(occ, tuple(map(type, occ)), a.real.hex(), a.imag.hex())
                           for occ, a in ket.terms.items()])


def run_blocked(argvs):
    """The finished process that runs ``argvs`` (see ``blocked_run.py``) in
    one fresh interpreter with numpy, scipy and dataclasses blocked, at an
    80-column terminal; its stdout is the JSON list of the runs' stdouts."""
    child = [sys.executable, "-I", "-B", str(TESTS / "blocked_run.py"), str(TESTS.parent / "src")]
    return subprocess.run(child, input=json.dumps(argvs), capture_output=True, text=True,
                          env=dict(os.environ, COLUMNS="80"))
