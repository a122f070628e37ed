import math

import numpy as np
import pytest

from ndeb.qudit import (
    BasisMatrix,
    StateVector,
    check_dim,
    finite_real,
    optimal_angles,
    phi_basis,
)

import born_oracle
from state_tools import (
    DensityMatrix,
    as_tensor,
    basis_relabeling,
    computational_basis,
    conjugate_basis,
    cyclic_shift,
    density,
    max_entangled,
    mutual_unbiasedness_defect,
    partial_trace,
    states_equal_up_to_phase,
    tensor,
)

RNG = np.random.default_rng(20240811)

PHASES = [0.0, 0.1, math.pi / 7, math.pi / 4, 1.234, -0.6, 2 * math.pi / 3, 5.0]


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(dims, rng):
    size = int(np.prod(dims))
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector(dims, amps / np.linalg.norm(amps))


# ---------------------------------------------------------------- dimensions


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_check_dim_rejects_small(bad):
    with pytest.raises(ValueError):
        check_dim(bad)


def test_check_dim_passes_through():
    assert check_dim(7) == 7
    assert check_dim(np.int64(7)) == 7


@pytest.mark.parametrize("bad", [2.9, 3.0, "3", True])
def test_check_dim_rejects_non_ints(bad):
    with pytest.raises(ValueError, match="qudit dimension must be an int"):
        check_dim(bad)
    with pytest.raises(ValueError, match="qudit dimension must be an int"):
        phi_basis(bad, 0.1)


@pytest.mark.parametrize("good", [0, 0.5, -3.25, np.float64(0.1), np.int64(2)])
def test_finite_real_passes_numbers_as_float(good):
    got = finite_real("x", good)
    assert type(got) is float and got == float(good)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.nan, True, "0.5", None, 1j])
def test_finite_real_rejects_non_finite_and_non_real(bad):
    with pytest.raises(ValueError, match="angle must be a finite number"):
        finite_real("angle", bad)


# ---------------------------------------------------------------- StateVector


def test_state_vector_wrong_length_raises():
    with pytest.raises(ValueError):
        StateVector((2, 2), np.ones(3))


def test_state_vector_inner_dim_mismatch_raises():
    a = random_state((2, 2), RNG)
    b = random_state((4,), RNG)
    with pytest.raises(ValueError):
        a.inner(b)


def test_state_vector_amps_read_only():
    s = random_state((3,), RNG)
    with pytest.raises(ValueError):
        s.amps[0] = 1.0


def test_state_vector_tensor_and_norm():
    a = random_state((2,), RNG)
    b = random_state((3,), RNG)
    ab = tensor(a, b)
    assert ab.dims == (2, 3)
    assert ab.is_normalized()
    np.testing.assert_allclose(ab.amps, np.kron(a.amps, b.amps), atol=1e-14)


def test_states_equal_up_to_phase():
    s = random_state((3,), RNG)
    rotated = StateVector(s.dims, s.amps * np.exp(1j * 0.7321))
    assert states_equal_up_to_phase(s, rotated)
    other = random_state((3,), RNG)
    assert not states_equal_up_to_phase(s, other)


# ---------------------------------------------------------------- BasisMatrix


def test_basis_matrix_rejects_non_unitary():
    with pytest.raises(ValueError):
        BasisMatrix(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_basis_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError):
        BasisMatrix(3, np.eye(2))


def test_basis_matrix_column_wraps():
    b = computational_basis(3)
    np.testing.assert_allclose(b.column(4), b.column(1))


# ---------------------------------------------------------------- DensityMatrix


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix((2,), m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2, dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_accepts_pure_state():
    rho = density(random_state((2, 3), RNG))
    assert rho.dims == (2, 3)
    assert abs(np.trace(rho.entries) - 1.0) < 1e-12


# ---------------------------------------------------------------- phi bases


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("phase", PHASES)
def test_phi_basis_matches_defining_formula(n, phase):
    b = phi_basis(n, phase)
    np.testing.assert_allclose(b.u, born_oracle.phi_matrix(n, phase), atol=1e-13)
    np.testing.assert_allclose(b.u.conj().T @ b.u, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "0.1", None, True])
def test_phi_basis_rejects_bad_phase(bad):
    with pytest.raises(ValueError, match="phase must be a finite number"):
        phi_basis(3, bad)


def test_phi_basis_n2_phase0_is_hadamard_like():
    b = phi_basis(2, 0.0)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    np.testing.assert_allclose(b.u, expected, atol=1e-14)


def test_phi_basis_single_qudit_overlap_value():
    # |<l_0 | l_phi>|^2 for N=2 is (1 + cos(phi)) / 2
    b0 = phi_basis(2, 0.0)
    b1 = phi_basis(2, math.pi / 4)
    got = abs(np.vdot(b0.column(0), b1.column(0))) ** 2
    assert got == pytest.approx((1 + math.cos(math.pi / 4)) / 2, abs=1e-12)
    assert got == pytest.approx(0.8535533905932737, abs=1e-12)


def test_optimal_angles_values():
    for n in (2, 3, 7):
        np.testing.assert_allclose(
            optimal_angles(n), 2 * math.pi * np.arange(4) / (4 * n), atol=1e-15
        )


# ---------------------------------------------------------------- conjugation


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("phase", [0.0, 0.3, math.pi / 6])
def test_conjugate_basis_entries(n, phase):
    b = phi_basis(n, phase)
    c = conjugate_basis(b)
    np.testing.assert_allclose(c.u, b.u.conj(), atol=1e-15)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_conjugate_relabeling_identity_n3(j):
    # conj of column l at angle phi equals column (n - l - j) mod n at
    # angle -phi + j*2*pi/n, exactly (including phase).
    n, phi = 3, math.pi / 6
    left = conjugate_basis(phi_basis(n, phi))
    right = phi_basis(n, -phi + j * 2 * math.pi / n)
    for l in range(n):
        np.testing.assert_allclose(
            left.column(l), right.column((n - l - j) % n), atol=1e-13
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugation_partner_among_optimal(n):
    # Conjugating optimal basis i lands on optimal basis PARTNER[i] as a
    # set of rays, and on no other member of the optimal quartet.
    partner = {0: 0, 1: 3, 2: 2, 3: 1}
    angles = optimal_angles(n)
    for i in range(4):
        conj_i = conjugate_basis(phi_basis(n, angles[i]))
        for j in range(4):
            perm = basis_relabeling(conj_i, phi_basis(n, angles[j]))
            if j == partner[i]:
                assert perm is not None
                assert sorted(perm) == list(range(n))
            else:
                assert perm is None


def test_basis_relabeling_rejects_dim_mismatch():
    assert basis_relabeling(computational_basis(2), computational_basis(3)) is None


def test_basis_relabeling_identity_permutation():
    b = phi_basis(4, 0.37)
    assert basis_relabeling(b, b) == [0, 1, 2, 3]


# ---------------------------------------------------------------- pair state


def test_max_entangled_amplitudes():
    s = max_entangled(3)
    expected = np.eye(3).reshape(-1) / math.sqrt(3)
    np.testing.assert_allclose(s.amps, expected, atol=1e-15)
    assert s.is_normalized()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_max_entangled_basis_covariance(n):
    # sum_k |conj(psi_k)>|psi_k> / sqrt(n) is the same state for any unitary
    u = random_unitary(n, RNG)
    acc = np.zeros(n * n, dtype=complex)
    for k in range(n):
        acc += np.kron(u[:, k].conj(), u[:, k])
    np.testing.assert_allclose(acc / math.sqrt(n), max_entangled(n).amps, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("basis_index", [0, 1, 2, 3])
def test_max_entangled_perfect_correlations(n, basis_index):
    # Measuring (conj(b), b) on the pair gives the uniform matched diagonal.
    b = phi_basis(n, optimal_angles(n)[basis_index])
    psi = as_tensor(max_entangled(n))
    # <k_conj(b), l_b | psi> = sum_ab conj(conj(u)[a,k]) * conj(u[b,l]) * psi[ab]
    amp = np.einsum("ab,ak,bl->kl", psi, b.u, b.u.conj())
    probs = np.abs(amp) ** 2
    np.testing.assert_allclose(probs, np.eye(n) / n, atol=1e-12)


# ---------------------------------------------------------------- unbiasedness


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_phi_vs_computational_is_unbiased(n, phase):
    defect = mutual_unbiasedness_defect(computational_basis(n), phi_basis(n, phase))
    assert defect < 1e-12


def test_same_basis_defect_is_large():
    defect = mutual_unbiasedness_defect(phi_basis(2, 0.0), phi_basis(2, 0.0))
    assert defect == pytest.approx(0.5, abs=1e-12)


def test_two_phi_bases_not_unbiased():
    defect = mutual_unbiasedness_defect(phi_basis(3, 0.0), phi_basis(3, math.pi / 6))
    assert defect > 1e-3


def test_unbiasedness_dim_mismatch_raises():
    with pytest.raises(ValueError):
        mutual_unbiasedness_defect(computational_basis(2), computational_basis(3))


# ---------------------------------------------------------------- cyclic shift


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cyclic_shift_is_unitary_with_order_n(n):
    s = cyclic_shift(n)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(n), atol=1e-14)
    np.testing.assert_allclose(np.linalg.matrix_power(s, n), np.eye(n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_cyclic_shift_advances_labels(n, phase):
    # S |l_phi> = |(l+1)_phi> exactly, for every family angle.
    s = cyclic_shift(n)
    b = phi_basis(n, phase)
    for l in range(n):
        np.testing.assert_allclose(s @ b.column(l), b.column((l + 1) % n), atol=1e-13)


def test_cyclic_shift_n2_is_pauli_z():
    np.testing.assert_allclose(cyclic_shift(2), np.diag([1.0, -1.0]), atol=1e-15)


# ---------------------------------------------------------------- partial trace


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partial_trace_of_max_entangled_is_uniform(n):
    rho = density(max_entangled(n))
    for keep in ((0,), (1,)):
        red = partial_trace(rho, keep)
        np.testing.assert_allclose(red.entries, np.eye(n) / n, atol=1e-13)


def test_partial_trace_of_product_state():
    a = random_state((3,), RNG)
    b = random_state((2,), RNG)
    red = partial_trace(density(tensor(a, b)), keep=(0,))
    np.testing.assert_allclose(red.entries, np.outer(a.amps, a.amps.conj()), atol=1e-13)


def test_partial_trace_keep_all_is_identity_map():
    rho = density(random_state((2, 3), RNG))
    red = partial_trace(rho, keep=(0, 1))
    np.testing.assert_allclose(red.entries, rho.entries, atol=1e-14)


def test_partial_trace_against_loop_oracle():
    # three slots of dimension 2; keep the middle one
    psi = random_state((2, 2, 2), RNG)
    rho = density(psi)
    got = partial_trace(rho, keep=(1,)).entries
    t = as_tensor(psi)
    expected = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for c in range(2):
            for b1 in range(2):
                for b2 in range(2):
                    expected[b1, b2] += t[a, b1, c] * np.conj(t[a, b2, c])
    np.testing.assert_allclose(got, expected, atol=1e-13)


@pytest.mark.parametrize("keep", [(), (0, 0), (2,), (-1,)])
def test_partial_trace_rejects_bad_keep(keep):
    rho = density(max_entangled(2))
    with pytest.raises(ValueError):
        partial_trace(rho, keep)
