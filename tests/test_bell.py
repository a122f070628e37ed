import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from ndeb.bell import BellIndex, bell_overlap, overlap_matrix
from ndeb.qudit import optimal_angles

import born_oracle
from state_tools import (
    BasisMatrix,
    bell_basis,
    bell_state,
    brute_force_gram,
    brute_force_overlap,
    cyclic_shift,
    expand_overlap_table,
    max_entangled,
    overlap_sum_table,
    phi_basis_matrix,
)

RNG = np.random.default_rng(77001)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------- BellIndex


def test_bell_index_rejects_unknown_variant():
    with pytest.raises(ValueError):
        BellIndex(0, 0, "XY")


def test_bell_index_normalized_wraps_mod_dim():
    idx = BellIndex(5, -1, "BC").normalized(3)
    assert (idx.m, idx.n, idx.variant) == (2, 2, "BC")


@pytest.mark.parametrize(
    "m, n, name",
    [(1.9, 1, "m"), (1, True, "n"), ("2", 0, "m"), (0, 0.0, "n"), (None, 0, "m")],
)
def test_bell_index_rejects_non_int_indices(m, n, name):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        BellIndex(m, n)


def test_bell_index_accepts_numpy_ints():
    idx = BellIndex(np.int64(2), np.int32(-1))
    assert (idx.m, idx.n) == (2, -1)
    assert type(idx.m) is int and type(idx.n) is int


# ---------------------------------------------------------------- states


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["RA", "BC"])
@pytest.mark.parametrize("phase", [0.0, 0.37])
def test_bell_state_matches_loop_oracle(n, variant, phase):
    basis = phi_basis_matrix(n, phase)
    u = basis.u
    for m in range(n):
        for nn in range(n):
            got = bell_state(basis, BellIndex(m, nn, variant)).amps
            build = born_oracle.bell_ra if variant == "RA" else born_oracle.bell_bc
            np.testing.assert_allclose(got, build(u, m, nn), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("variant", ["RA", "BC"])
def test_bell_basis_is_orthonormal(n, variant):
    for u in (phi_basis_matrix(n, 0.0), phi_basis_matrix(n, 0.37)):
        cols = bell_basis(u, variant)
        gram = cols.conj().T @ cols
        np.testing.assert_allclose(gram, np.eye(n * n), atol=1e-12)
    # also over a generic (non-family) unitary
    b = BasisMatrix(n, random_unitary(n, RNG))
    cols = bell_basis(b, variant)
    np.testing.assert_allclose(cols.conj().T @ cols, np.eye(n * n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("variant", ["RA", "BC"])
def test_zero_index_state_is_max_entangled_for_any_unitary(n, variant):
    b = BasisMatrix(n, random_unitary(n, RNG))
    got = bell_state(b, BellIndex(0, 0, variant))
    np.testing.assert_allclose(got.amps, max_entangled(n).amps, atol=1e-12)


def test_n2_computational_family_members():
    b = phi_basis_matrix(2, 0.0)
    singlet = bell_state(b, BellIndex(1, 1, "RA")).amps
    # (|10> - |01>)/sqrt(2) after expanding the phase sum
    np.testing.assert_allclose(
        singlet, np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2), atol=1e-13
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("phase_index", [0, 1])
def test_shift_operator_eigenstructure(n, phase_index):
    # kron(conj(S), S) has every (m, n) family member as an eigenvector
    # with eigenvalue exp(-2j*pi*n/N): the pair state only feels the
    # phase label, not the shift label.
    phase = float(optimal_angles(n)[phase_index])
    basis = phi_basis_matrix(n, phase)
    s = cyclic_shift(n)
    op = np.kron(s.conj(), s)
    for m in range(n):
        for nn in range(n):
            vec = bell_state(basis, BellIndex(m, nn, "RA")).amps
            np.testing.assert_allclose(
                op @ vec, np.exp(-2j * math.pi * nn / n) * vec, atol=1e-12
            )


# ---------------------------------------------------------------- overlaps


@pytest.mark.parametrize("n", [2, 3])
def test_overlap_modes_agree_on_random_angles(n):
    rng = np.random.default_rng(4000 + n)
    for _ in range(2):
        phi1, phi2 = rng.uniform(-2.0, 2.0, size=2)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        idx1 = BellIndex(i, j)
                        idx2 = BellIndex(k, l)
                        closed = bell_overlap(n, phi1, phi2, idx1, idx2)
                        brute = brute_force_overlap(n, phi1, phi2, idx1, idx2)
                        assert abs(closed - brute) < 1e-12


def test_overlap_phase_index_is_conserved():
    val = bell_overlap(3, 0.1, 0.9, BellIndex(0, 0), BellIndex(0, 1))
    assert val == 0.0 + 0.0j
    brute = brute_force_overlap(3, 0.1, 0.9, BellIndex(0, 0), BellIndex(0, 1))
    assert abs(brute) < 1e-12


def test_overlap_same_angle_is_kronecker_delta():
    table = overlap_matrix(4, 0.7, 0.7)
    np.testing.assert_allclose(expand_overlap_table(table), np.eye(16), atol=1e-12)


def test_overlap_mixed_variants_raise():
    with pytest.raises(ValueError):
        bell_overlap(2, 0.0, 0.1, BellIndex(0, 0, "RA"), BellIndex(0, 0, "BC"))


def test_bc_overlap_is_conjugate_of_ra():
    n, phi1, phi2 = 3, 0.21, 1.37
    for m1 in range(n):
        for m2 in range(n):
            for j in range(n):
                ra = bell_overlap(n, phi1, phi2, BellIndex(m1, j), BellIndex(m2, j))
                bc = bell_overlap(
                    n, phi1, phi2, BellIndex(m1, j, "BC"), BellIndex(m2, j, "BC")
                )
                assert abs(bc - np.conj(ra)) < 1e-13
                bc_brute = brute_force_overlap(
                    n, phi1, phi2, BellIndex(m1, j, "BC"), BellIndex(m2, j, "BC")
                )
                assert abs(bc_brute - np.conj(ra)) < 1e-12


def test_n2_quarter_pi_overlap_values():
    # the (0,0) member is the basis-independent pair state, so its
    # self-overlap is exactly 1 at any angle difference; the phase-index-1
    # block at dphi rotates as [[cos, -i sin], [-i sin, cos]]
    dphi = math.pi / 4
    kept = bell_overlap(2, 0.0, dphi, BellIndex(0, 0), BellIndex(0, 0))
    assert kept == pytest.approx(1.0, abs=1e-12)
    same = bell_overlap(2, 0.0, dphi, BellIndex(0, 1), BellIndex(0, 1))
    cross = bell_overlap(2, 0.0, dphi, BellIndex(0, 1), BellIndex(1, 1))
    assert same == pytest.approx(math.cos(dphi), abs=1e-12)
    assert cross == pytest.approx(-1j * math.sin(dphi), abs=1e-12)


def test_n3_aligned_angle_difference_moduli_are_zero_or_one():
    # dphi = 2*pi/3 realigns the family: every same-phase-index overlap
    # collapses to modulus 0 or 1.
    n, dphi = 3, 2 * math.pi / 3
    for m1 in range(n):
        for m2 in range(n):
            val = bell_overlap(n, 0.0, dphi, BellIndex(m1, 1), BellIndex(m2, 1))
            mod = abs(val)
            assert min(mod, abs(mod - 1.0)) < 1e-12


# ------------------------------------------------------------ overlap matrix


FIXED = 1 << 140  # fixed-point unit of the high-precision sum, about 1e-42


def _fixed(angle):
    """exp(1j*angle) in 40-digit mpmath, as a pair of integers in units of 1/FIXED."""
    z = mpmath.expj(angle)
    return int(z.real * FIXED), int(z.imag * FIXED)


def _fixed_product(z, u):
    (a, b), (c, d) = z, u
    return (a * c - b * d) // FIXED, (a * d + b * c) // FIXED


@functools.lru_cache(maxsize=None)
def _fixed_roots(n):
    with mpmath.workdps(40):
        return tuple(_fixed(2 * mpmath.pi * k / n) for k in range(n))


def mp_overlap_table(n, phi1, phi2):
    """S[j, r] by the defining sum over p, at the exact angle difference.

    Each factor exp(-1j*p*dphi) and exp(1j*q*(dphi + 2*pi*r/N)) is
    computed in 40-digit mpmath and held in fixed point, so that the sum
    itself is exact integer arithmetic.
    """
    with mpmath.workdps(40):
        dphi = mpmath.mpf(phi2) - mpmath.mpf(phi1)
        turns = [_fixed(q * dphi) for q in range(n)]
    left = [(a, -b) for a, b in turns]  # exp(-1j*p*dphi)
    roots = _fixed_roots(n)
    scale = n * FIXED * FIXED
    table = np.empty((n, n), dtype=complex)
    for r in range(n):
        right = [_fixed_product(turns[q], roots[q * r % n]) for q in range(n)]
        for j in range(n):
            shifted = right[n - j:] + right[:n - j]  # shifted[p] = right[(p - j) % n]
            re = sum(a * c - b * d for (a, b), (c, d) in zip(left, shifted))
            im = sum(a * d + b * c for (a, b), (c, d) in zip(left, shifted))
            table[j, r] = complex(re / scale, im / scale)
    return table


@pytest.mark.parametrize("n", range(2, 17))
def test_overlap_matrix_matches_high_precision_sum(n):
    # the six pairs of protocol angles and two random pairs with |phi| <= 4
    rng = np.random.default_rng(7300 + n)
    pairs = list(itertools.combinations(optimal_angles(n), 2))
    pairs += [tuple(float(phi) for phi in rng.uniform(-4.0, 4.0, 2)) for _ in range(2)]
    for phi1, phi2 in pairs:
        table = overlap_matrix(n, phi1, phi2)
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert all(type(s) is complex for row in table for s in row)
        got = np.asarray(table)
        assert got.shape == (n, n)
        assert np.max(np.abs(got - mp_overlap_table(n, phi1, phi2))) < 2e-14, (phi1, phi2)
        assert np.max(np.abs(got - overlap_sum_table(n, phi1, phi2))) < 2e-14, (phi1, phi2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_overlap_matrix_is_unitary(n):
    rng = np.random.default_rng(8100 + n)
    phi1, phi2 = rng.uniform(-3.0, 3.0, size=2)
    table = np.asarray(overlap_matrix(n, phi1, phi2))
    assert table.shape == (n, n)
    gram = expand_overlap_table(table)
    np.testing.assert_allclose(gram.conj().T @ gram, np.eye(n * n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_overlap_matrix_modes_agree(n):
    rng = np.random.default_rng(9100 + n)
    for _ in range(2):
        phi1, phi2 = rng.uniform(-2.0, 2.0, size=2)
        closed = expand_overlap_table(overlap_matrix(n, phi1, phi2))
        brute = brute_force_gram(n, phi1, phi2)
        np.testing.assert_allclose(closed, brute, atol=1e-12)


def test_overlap_matrix_entry_matches_scalar_function():
    n, phi1, phi2 = 3, 0.11, 0.83
    gram = expand_overlap_table(overlap_matrix(n, phi1, phi2))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    direct = bell_overlap(n, phi1, phi2, BellIndex(i, j), BellIndex(k, l))
                    assert abs(gram[i * n + j, k * n + l] - direct) < 1e-13


def test_overlap_matrix_zero_phase_block_is_diagonal():
    # the brute-force Gram matrix never links different phase indices,
    # which is what lets the compact table drop them
    n = 4
    gram = brute_force_gram(n, 0.0, 0.613)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j != l:
                        assert abs(gram[i * n + j, k * n + l]) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_overlaps_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match="phi1 must be a finite number"):
        overlap_matrix(3, bad, 0.0)
    with pytest.raises(ValueError, match="phi2 must be a finite number"):
        overlap_matrix(3, 0.0, bad)
    for overlap in (bell_overlap, brute_force_overlap):
        with pytest.raises(ValueError, match="phi1 must be a finite number"):
            overlap(3, bad, 0.0, BellIndex(0, 1), BellIndex(1, 1))
        with pytest.raises(ValueError, match="phi2 must be a finite number"):
            overlap(3, 0.0, bad, BellIndex(0, 1), BellIndex(1, 1))
