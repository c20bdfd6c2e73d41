import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swapsim.elements import (
    MAX_FACTORIAL_CUTOFF,
    ModeUnitary,
    _poly_multiply_linear,
    apply_mode_unitary,
    balanced_bs,
    pbs,
    polarization_rotation,
    unbalanced_bs,
)
from swapsim.fock import FockKet, ModeRegister, vacuum

from conftest import ket_bits, random_kets

R2 = 1.0 / math.sqrt(2.0)


def sector_norms(ket):
    out = {}
    for occ, amp in ket.items():
        n = sum(occ)
        out[n] = out.get(n, 0.0) + abs(amp) ** 2
    return out


def test_balanced_bs_matrix():
    u = balanced_bs()
    assert u.matrix[0, 0] == pytest.approx(R2)
    assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(2), atol=1e-14)
    assert np.allclose(u.matrix @ u.matrix, np.eye(2), atol=1e-14)


def test_unbalanced_bs():
    u = unbalanced_bs(0.1)
    assert u.matrix[0, 1] == pytest.approx(0.1 / math.sqrt(1.01))
    assert np.allclose(u.matrix.conj().T @ u.matrix, np.eye(2), atol=1e-14)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            unbalanced_bs(bad)


def test_unbalanced_limit_is_balanced():
    # eps -> 1 reproduces the balanced matrix; the constructor excludes the
    # endpoint itself, so compare just inside it
    u = unbalanced_bs(1 - 1e-12)
    assert np.allclose(u.matrix, balanced_bs().matrix, atol=1e-10)


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    for i, j in itertools.product(range(2), repeat=2):
        m = [[R2, R2], [R2, -R2]]
        m[i][j] = math.nan
        with pytest.raises(ValueError, match="not unitary"):
            ModeUnitary(m)
    for bad in ([[1.0, 0.0]], [[1.0], [0.0]], [1.0, 0.0], [], [[1.0, 0.0], [0.0]],
                np.eye(2)[None]):
        with pytest.raises(ValueError, match="square"):
            ModeUnitary(bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            polarization_rotation(bad)


def test_unitarity_check_boundary():
    # an off-diagonal entry of d makes the columns' overlap d; the bound is 1e-12
    ModeUnitary([[1.0, 1e-13], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary([[1.0, 1e-11], [0.0, 1.0]])


def test_rotation_single_photon():
    eps = 0.2
    reg = ModeRegister(("uH", "uV"), 1)
    out = apply_mode_unitary(basis(reg, (1, 0)), polarization_rotation(eps), ("uH", "uV"))
    r = 1.0 / math.sqrt(1 + eps * eps)
    assert out.amplitude((1, 0)) == pytest.approx(r)
    assert out.amplitude((0, 1)) == pytest.approx(eps * r)


def test_rotation_identity_and_vacuum():
    reg = ModeRegister(("uH", "uV"), 1)
    ket = basis(reg, (1, 0))
    out = apply_mode_unitary(ket, polarization_rotation(0.0), ("uH", "uV"))
    assert out.amplitude((1, 0)) == pytest.approx(1.0)
    vac = apply_mode_unitary(vacuum(reg), polarization_rotation(0.7), ("uH", "uV"))
    assert vac.amplitude((0, 0)) == pytest.approx(1.0)


def basis(reg, occ):
    return FockKet(reg, {occ: 1.0})


def test_apply_single_photon_split():
    reg = ModeRegister(("1", "2"), 1)
    out = apply_mode_unitary(basis(reg, (1, 0)), balanced_bs(), ("1", "2"))
    assert out.amplitude((1, 0)) == pytest.approx(R2)
    assert out.amplitude((0, 1)) == pytest.approx(R2)


def test_apply_hom_bunching():
    reg = ModeRegister(("1", "2"), 1)
    out = apply_mode_unitary(basis(reg, (1, 1)), balanced_bs(), ("1", "2"))
    assert out.register.cutoff == 2
    assert out.amplitude((2, 0)) == pytest.approx(R2)
    assert out.amplitude((0, 2)) == pytest.approx(-R2)
    assert out.amplitude((1, 1)) == pytest.approx(0.0)


def test_apply_vacuum_invariant():
    reg = ModeRegister(("1", "2"), 2)
    for u in (balanced_bs(), unbalanced_bs(0.3), polarization_rotation(0.5)):
        out = apply_mode_unitary(vacuum(reg), u, ("1", "2"))
        assert out.amplitude((0, 0)) == pytest.approx(1.0)
        assert out.num_terms() == 1


def test_apply_double_pass_source_through_bs():
    # (|00>+tau|11>)_{14} (|00>+tau|11>)_{23} mixed on beams 1, 2 yields the
    # four-branch pattern with the tau^2 bunched contamination
    tau = 0.3
    reg = ModeRegister(("1", "2", "3", "4"), 2)
    src = FockKet(reg, {
        (0, 0, 0, 0): 1.0, (1, 0, 0, 1): tau, (0, 1, 1, 0): tau, (1, 1, 1, 1): tau * tau,
    }).normalized()
    pref = 1.0 / (1.0 + tau * tau)
    out = apply_mode_unitary(src, balanced_bs(), ("1", "2"))
    assert out.amplitude((0, 0, 0, 0)) == pytest.approx(pref)
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(pref * tau * R2)
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(pref * tau * R2)
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-pref * tau * R2)
    assert out.amplitude((0, 1, 0, 1)) == pytest.approx(pref * tau * R2)
    assert out.amplitude((2, 0, 1, 1)) == pytest.approx(pref * tau * tau * R2)
    assert out.amplitude((0, 2, 1, 1)) == pytest.approx(-pref * tau * tau * R2)


def test_unknown_or_repeated_mode_rejected():
    # a layout is kept only once it passed its checks: each raises on every
    # call, and a good layout on the same register still works in between
    reg = ModeRegister(("1", "2"), 1)
    ket = basis(reg, (1, 0))
    for _ in range(2):
        with pytest.raises(KeyError, match="mode '9' not in register"):
            apply_mode_unitary(ket, balanced_bs(), ("1", "9"))
        with pytest.raises(ValueError, match="acted modes must be distinct"):
            apply_mode_unitary(ket, balanced_bs(), ("1", "1"))
        assert apply_mode_unitary(ket, balanced_bs(), ("2", "1")).amplitude((1, 0)) == -R2


@pytest.mark.parametrize("make_u", [balanced_bs, lambda: unbalanced_bs(0.3),
                                    lambda: polarization_rotation(0.4)])
@given(ket=random_kets(max_modes=4, max_cutoff=3))
@settings(max_examples=40, deadline=None)
def test_norm_and_photon_number_preserved(make_u, ket):
    modes = ket.register.labels[:2]
    if len(modes) < 2:
        return
    out = apply_mode_unitary(ket, make_u(), modes)
    assert abs(out.norm() - ket.norm()) <= 1e-12
    before, after = sector_norms(ket), sector_norms(out)
    for n in set(before) | set(after):
        assert before.get(n, 0.0) == pytest.approx(after.get(n, 0.0), abs=1e-12)


@given(ket=random_kets(max_modes=4, max_cutoff=3), eps=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_apply_then_inverse_is_identity(ket, eps):
    if ket.register.size < 2:
        return
    modes = ket.register.labels[:2]
    u = unbalanced_bs(eps)
    inverse = ModeUnitary(u.matrix.conj().T)
    back = apply_mode_unitary(apply_mode_unitary(ket, u, modes), inverse, modes)
    for occ in set(ket.terms) | set(back.terms):
        assert back.amplitude(occ) == pytest.approx(ket.amplitude(occ), abs=1e-12)


def test_pbs_routing():
    mapping = pbs(("uH", "uV"), ("1", "2"))
    assert mapping == {"uH": "1", "uV": "2"}
    with pytest.raises(ValueError):
        pbs(("uH", "uH"), ("1", "2"))


# --------------------------------------------------------------------------
# Transfer table
# --------------------------------------------------------------------------

def exact_terms(ket):
    # float.hex tells -0.0 from 0.0, so this compares bit for bit, in order
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in ket.terms.items()]


def random_ket(rng, labels, order):
    reg = ModeRegister(labels, order)
    terms = {}
    for _ in range(int(rng.integers(1, 25))):
        occ = tuple(int(n) for n in rng.integers(0, order + 1, size=len(labels)))
        terms[occ] = complex(rng.normal(), rng.normal())
    return FockKet(reg, terms)


def per_term_apply(state, u, modes):
    """Reference: expand every input term afresh, without a transfer table."""
    idx = [state.register.index(m) for m in modes]
    out, max_occ = {}, 0
    for occ, amp in state.terms.items():
        acted = [occ[i] for i in idx]
        poly = {(0,) * len(modes): 1.0 + 0.0j}
        for k, n_k in enumerate(acted):
            for _ in range(n_k):
                poly = _poly_multiply_linear(poly, u.matrix[:, k])
        pref = amp / math.sqrt(math.prod(math.factorial(n) for n in acted))
        for powers, c in poly.items():
            coeff = pref * c * math.sqrt(math.prod(math.factorial(p) for p in powers))
            new_occ = list(occ)
            for pos, i in enumerate(idx):
                new_occ[i] = powers[pos]
            key = tuple(new_occ)
            out[key] = out.get(key, 0.0) + coeff
            max_occ = max(max_occ, max(powers))
    return FockKet(state.register.with_cutoff(max(max_occ, state.register.cutoff)), out)


@pytest.mark.parametrize("order", range(1, 11))
def test_cold_and_warm_tables_bit_identical(order):
    rng = np.random.default_rng(order)
    shared = balanced_bs()
    for _ in range(5):
        ket = random_ket(rng, ("a", "b", "c"), order)
        modes = tuple(str(m) for m in rng.permutation(["a", "b", "c"])[:2])
        apply_mode_unitary(ket, shared, modes)  # the shared table is now warm
        warm = apply_mode_unitary(ket, shared, modes)
        cold = apply_mode_unitary(ket, ModeUnitary(shared.matrix), modes)
        reference = per_term_apply(ket, shared, modes)
        assert warm.register == cold.register == reference.register
        assert exact_terms(warm) == exact_terms(cold) == exact_terms(reference)


@given(ket=random_kets(max_modes=4, max_cutoff=4), eps=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_table_matches_per_term_expansion(ket, eps):
    if ket.register.size < 2:
        return
    modes = ket.register.labels[::-1][:2]
    for u in (polarization_rotation(eps), ModeUnitary(np.array([[1, 1j], [1j, 1]]) / math.sqrt(2))):
        assert exact_terms(apply_mode_unitary(ket, u, modes)) == \
            exact_terms(per_term_apply(ket, u, modes))


def test_balanced_bs_is_shared_and_read_only():
    u = balanced_bs()
    assert balanced_bs() is u
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 0.0


def test_mode_unitary_copies_its_matrix():
    m = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    u = ModeUnitary(m)
    m[0, 0] = 5.0
    assert u.matrix[0, 0] == 1.0
    assert not u.matrix.flags.writeable


def test_one_and_three_mode_unitaries_and_their_matrix():
    phase = ModeUnitary([[np.exp(0.7j)]])
    three = _random_unitary(np.random.default_rng(3), 3)
    for u, size in ((phase, 1), (three, 3), (balanced_bs(), 2)):
        assert u.size == size
        assert isinstance(u.matrix, np.ndarray) and not u.matrix.flags.writeable
        assert u.matrix.tolist() == [list(row) for row in u.entries]
        assert u.matrix is u.matrix  # built once


def test_entries_bit_identical_to_numpy_construction():
    # the same float operations as building each matrix as a numpy array
    assert balanced_bs().matrix.tobytes() == \
        np.array(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), dtype=complex).tobytes()
    for eps in (0.0, 0.05, 0.3, 0.77, 0.999):
        r = 1.0 / math.sqrt(1.0 + eps * eps)
        rotation = np.array(r * np.array([[1.0, -eps], [eps, 1.0]]), dtype=complex)
        assert polarization_rotation(eps).matrix.tobytes() == rotation.tobytes()
        if eps > 0.0:
            bs = np.array(r * np.array([[1.0, eps], [eps, -1.0]]), dtype=complex)
            assert unbalanced_bs(eps).matrix.tobytes() == bs.tobytes()


def test_table_coefficients_are_builtin_floats_exactly_when_every_entry_is_real():
    # entries stay built-in complex; a real unitary's coefficients are built-in
    # floats, so the scatters multiply floats, and any other's are built-in
    # complex.  Numpy scalars would turn the kernel loop into numpy arithmetic
    real_orthogonal, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
    real = (balanced_bs(), unbalanced_bs(0.3), polarization_rotation(0.0),
            polarization_rotation(0.2), ModeUnitary(balanced_bs().matrix.conj().T),
            ModeUnitary(real_orthogonal))
    not_real = (ModeUnitary(((1j, 0.0), (0.0, 1.0))),
                _random_unitary(np.random.default_rng(1), 2),
                _random_unitary(np.random.default_rng(2), 3))
    for u, want in [(u, float) for u in real] + [(u, complex) for u in not_real]:
        assert all(type(c) is complex for row in u.entries for c in row)
        for acted in itertools.product(range(4), repeat=u.size):
            _, outputs, _ = u.sector(acted)
            coeffs = [c for _, _, c, _ in outputs]
            assert not any(isinstance(c, np.generic) for c in coeffs)
            assert all(type(c) is want for c in coeffs)


def test_each_output_occupation_has_one_index():
    # indices number the distinct outputs of every entry in first-met order
    u = unbalanced_bs(0.3)
    seen = []
    for acted in itertools.product(range(4), repeat=2):
        _, outputs, _ = u.sector(acted)
        for powers, i, _, _ in outputs:
            if powers not in seen:
                assert i == len(seen)
                seen.append(powers)
            assert u._powers[i] == powers and seen.index(powers) == i
    assert u._powers == seen


def test_second_apply_adds_no_table_entries():
    u = unbalanced_bs(0.3)
    reg = ModeRegister(("1", "2", "3"), 3)
    ket = FockKet(reg, {(3, 1, 0): 0.5, (0, 2, 2): 0.5, (1, 1, 1): 0.5, (2, 0, 3): 0.5})
    first = apply_mode_unitary(ket, u, ("1", "2"))
    filled = dict(u._table)
    assert set(filled) == {(3, 1), (0, 2), (1, 1), (2, 0)}
    second = apply_mode_unitary(ket, u, ("1", "2"))
    assert u._table == filled
    assert exact_terms(second) == exact_terms(first)


def test_warm_table_still_enforces_factorial_limit():
    u = balanced_bs()
    reg = ModeRegister(("1", "2"), 1)
    apply_mode_unitary(basis(reg, (1, 1)), u, ("1", "2"))  # warm the (1, 1) entry
    big = ModeRegister(("1", "2"), MAX_FACTORIAL_CUTOFF + 1)
    with pytest.raises(ValueError, match="a mode would hold 21 photons, above the limit of 20"):
        apply_mode_unitary(basis(big, (1, 0)), u, ("1", "2"))


def _random_unitary(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return ModeUnitary(q * (np.diag(r) / np.abs(np.diag(r))))


@pytest.mark.parametrize("labels, modes", [
    (("a",), ("a",)),  # 1x1 on the whole 1-mode register
    (("a", "b", "c"), ("a",)),  # 1x1 on each mode of a 3-mode register
    (("a", "b", "c"), ("b",)),
    (("a", "b", "c"), ("c",)),
    (("a", "b"), ("a", "b")),  # acted modes cover the register, in either order
    (("a", "b"), ("b", "a")),
    (("a", "b", "c"), ("c", "a", "b")),
])
def test_output_keys_for_one_mode_and_whole_register(labels, modes):
    rng = np.random.default_rng(len(labels) * 10 + len(modes))
    u = (ModeUnitary(np.array([[np.exp(0.7j)]])) if len(modes) == 1
         else _random_unitary(rng, len(modes)))
    for order in (1, 3):
        ket = random_ket(rng, labels, order)
        assert ket_bits(apply_mode_unitary(ket, u, modes)) == \
            ket_bits(per_term_apply(ket, u, modes))


@pytest.mark.parametrize("labels, modes", [
    (("a", "b", "c"), ("a", "b")),  # a leading block: occ[:k] and powers + occ[k:]
    (("a", "b", "c", "d"), ("a", "b", "c")),
    (("a", "b", "c"), ("b", "c")),  # any other modes: the getter path
    (("a", "b", "c"), ("b", "a")),
    (("a", "b", "c", "d"), ("a", "c")),
])
def test_output_keys_for_a_leading_block_and_other_modes(labels, modes):
    rng = np.random.default_rng(len(labels) * 10 + len(modes) + 100)
    u = _random_unitary(rng, len(modes))
    for order in (1, 3):
        ket = random_ket(rng, labels, order)
        assert ket_bits(apply_mode_unitary(ket, u, modes)) == \
            ket_bits(per_term_apply(ket, u, modes))
