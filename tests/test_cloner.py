import functools
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ndeb.bell import overlap_matrix
from ndeb.cloner import (
    CLASS_TOL,
    PARTNER,
    ClassPartition,
    CloneParams,
    invariance_classes,
    joint_distribution,
    werner_noise_fraction,
)
from ndeb.qudit import optimal_angles
from ndeb.thresholds import crossover_fidelity

import born_oracle
from state_tools import (
    AmplitudeMatrix,
    alice_measurement_basis,
    basis_relabeling,
    bob_measurement_basis,
    brute_force_gram,
    build_attack_state,
    einsum_joint_distribution,
    fidelity_disturbances,
    max_entangled,
    numpy_joint_distribution,
    overlap_sum_gram,
    params_to_matrix,
    phi_basis_matrix,
    reduced_state_ra,
    tensor,
    traced_reduced_state,
    union_find_classes,
    werner_state,
)
from strategies import clone_params

RNG = np.random.default_rng(550211)


def class_constant_matrix(n, rng):
    """Random complex matrix constant on the four-angle invariance classes."""
    partition = invariance_classes(n, list(optimal_angles(n)))
    a = np.zeros((n, n), dtype=complex)
    for cls in partition.sorted_classes():
        val = rng.normal() + 1j * rng.normal()
        for m, nn in cls:
            a[m, nn] = val
    a /= np.linalg.norm(a.reshape(-1))
    return AmplitudeMatrix(a)


# ---------------------------------------------------------------- parameters


def test_clone_params_validation():
    with pytest.raises(ValueError):
        CloneParams(2, -0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        CloneParams(2, 1.0, 1.0, 0.0)  # not normalized
    p = CloneParams(3, *born_oracle.random_clone_params(3, RNG))
    total = p.v ** 2 + 2 * p.x ** 2 + 6 * p.y ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_clone_params_rejects_non_finite(slot, bad):
    vxy = [1.0, 0.0, 0.0]
    vxy[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        CloneParams(3, *vxy)


@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("bad", [True, "1", None, 1j], ids=["bool", "string", "none", "complex"])
def test_clone_params_rejects_non_numeric_values(slot, bad):
    vxy = [0.0, 0.0, 0.0]
    vxy[slot] = bad
    with pytest.raises(ValueError, match=f"{'vxy'[slot]} must be a finite number"):
        CloneParams(2, *vxy)


@pytest.mark.parametrize(
    "a",
    [[[True, False], [False, False]], [["1", 0], [0, 0]], [[None, 1], [0, 0]],
     [[True, 0.0], [0.0, 0.0]], [[np.True_, 0.0], [0.0, 0.0]],
     [np.array([1.0, 0.0]), [0.0, False]]],
    ids=["bool", "string", "object", "bool-among-floats", "numpy-bool-among-floats",
         "bool-beside-array-row"],
)
def test_amplitude_matrix_rejects_non_numeric_entries(a):
    with pytest.raises(ValueError, match="entries must be numbers"):
        AmplitudeMatrix(a)


@pytest.mark.parametrize(
    "a",
    [[[1, 0], [0, 0]], [[1.0, 0.0], [0.0, 0.0]], [[1j, 0], [0.0, 0]], np.full((2, 2), 0.5),
     np.array([[1, 0], [0, 0]], dtype=np.int8), [np.array([1.0, 0.0]), (0.0, 0.0)]],
    ids=["ints", "floats", "complex-among-numbers", "float-array", "int8-array", "mixed-rows"],
)
def test_amplitude_matrix_loads_numeric_entries(a):
    np.testing.assert_array_equal(AmplitudeMatrix(a).a, np.asarray(a, dtype=complex))


def test_identity_params():
    p = CloneParams.identity(4)
    assert (p.v, p.x, p.y) == (1.0, 0.0, 0.0)


def test_uniform_params_are_feasible():
    n = 3
    p = CloneParams(n, 1 / n, 1 / n, 1 / n)
    fid, dist = fidelity_disturbances(p)
    assert fid == pytest.approx(1 / n, abs=1e-12)
    np.testing.assert_allclose(dist, np.full(n - 1, 1 / n), atol=1e-12)


def test_params_to_matrix_layout():
    p = CloneParams(3, *born_oracle.random_clone_params(3, RNG))
    a = params_to_matrix(p).a
    assert a[0, 0] == pytest.approx(p.v)
    np.testing.assert_allclose(a[1:, 0], np.full(2, p.x), atol=1e-15)
    np.testing.assert_allclose(a[:, 1:], np.full((3, 2), p.y), atol=1e-15)


def test_amplitude_matrix_validation():
    with pytest.raises(ValueError):
        AmplitudeMatrix(np.ones((2, 2)))  # norm 2
    with pytest.raises(ValueError):
        AmplitudeMatrix(np.ones((2, 3)) / math.sqrt(6))
    m = AmplitudeMatrix(np.eye(2) / math.sqrt(2))
    assert m.dim == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_amplitude_matrix_rejects_non_finite(bad):
    a = np.eye(2, dtype=complex) / math.sqrt(2)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        AmplitudeMatrix(a)


# ---------------------------------------------------------------- state build


@pytest.mark.parametrize("n", [2, 3, 4])
def test_attack_state_is_normalized(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    psi = build_attack_state(phi_basis_matrix(n, 0.0), p)
    assert psi.dims == (n, n, n, n)
    assert psi.is_normalized()


def test_identity_attack_state_is_double_pair():
    n = 3
    psi = build_attack_state(phi_basis_matrix(n, 0.0), CloneParams.identity(n))
    pair = max_entangled(n)
    np.testing.assert_allclose(psi.amps, tensor(pair, pair).amps, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_attack_state_matches_loop_oracle(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    a = params_to_matrix(p).a
    for phase in (0.0, float(optimal_angles(n)[2])):
        got = build_attack_state(phi_basis_matrix(n, phase), p).amps
        expected = born_oracle.four_slot_state(born_oracle.phi_matrix(n, phase), a)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_attack_state_dim_mismatch_raises():
    with pytest.raises(ValueError):
        build_attack_state(phi_basis_matrix(3, 0.0), CloneParams.identity(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_constant_matrix_gives_basis_independent_state(n):
    amps = class_constant_matrix(n, RNG)
    states = [
        build_attack_state(phi_basis_matrix(n, float(phase)), amps).amps
        for phase in optimal_angles(n)
    ]
    for other in states[1:]:
        assert np.max(np.abs(other - states[0])) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_family_is_basis_independent(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    states = [
        build_attack_state(phi_basis_matrix(n, float(phase)), p).amps
        for phase in optimal_angles(n)
    ]
    for other in states[1:]:
        assert np.max(np.abs(other - states[0])) < 1e-10


def test_non_constant_matrix_is_basis_dependent():
    # a matrix breaking the class structure must yield different states
    n = 3
    a = np.zeros((n, n), dtype=complex)
    a[0, 1] = 1.0
    amps = AmplitudeMatrix(a)
    angles = optimal_angles(n)
    s0 = build_attack_state(phi_basis_matrix(n, float(angles[0])), amps).amps
    s1 = build_attack_state(phi_basis_matrix(n, float(angles[1])), amps).amps
    assert np.max(np.abs(s1 - s0)) > 1e-3


# ---------------------------------------------------------------- classes


def test_invariance_classes_n3_partition():
    phis = [0.0, math.pi / 6]
    partition = invariance_classes(3, phis)
    assert len(partition) == 5
    assert partition.sorted_classes() == [
        [(0, 0)],
        [(0, 1), (1, 1), (2, 1)],
        [(0, 2), (1, 2), (2, 2)],
        [(1, 0)],
        [(2, 0)],
    ]


def test_invariance_classes_n2_partition():
    partition = invariance_classes(2, [0.0, math.pi / 4])
    assert partition.sorted_classes() == [[(0, 0)], [(0, 1), (1, 1)], [(1, 0)]]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_invariance_class_count_for_generic_angles(n):
    quarter = math.pi / (2 * n)
    for dphi in (quarter, 2 * quarter, 3 * quarter, 0.7123):
        partition = invariance_classes(n, [0.0, dphi])
        assert len(partition) == 2 * n - 1
        singles = [cls for cls in partition.sorted_classes() if len(cls) == 1]
        columns = [cls for cls in partition.sorted_classes() if len(cls) == n]
        assert len(singles) == n and len(columns) == n - 1
        assert {cls[0] for cls in singles} == {(m, 0) for m in range(n)}
        for cls in columns:
            assert len({nn for _, nn in cls}) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_invariance_classes_degenerate_angle_difference(n):
    # a full-period angle shift realigns the family, so nothing is
    # constrained beyond each cell itself
    partition = invariance_classes(n, [0.0, 2 * math.pi / n])
    assert len(partition) == n * n


def test_invariance_classes_need_two_angles():
    with pytest.raises(ValueError):
        invariance_classes(3, [0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_invariance_classes_reject_non_finite_angles(bad):
    with pytest.raises(ValueError, match=r"phis\[1\] must be a finite number"):
        invariance_classes(3, [0.0, bad])
    with pytest.raises(ValueError, match=r"phis\[0\] must be a finite number"):
        invariance_classes(3, [bad, 0.0, 0.5])


@pytest.mark.parametrize("n", range(2, 17))
def test_invariance_classes_match_union_find_on_optimal_angle_subsets(n):
    angles = [float(a) for a in optimal_angles(n)]
    for size in (2, 3, 4):
        for subset in itertools.combinations(angles, size):
            got = invariance_classes(n, subset).sorted_classes()
            assert got == union_find_classes(n, subset).sorted_classes(), subset


@pytest.mark.parametrize("n", range(2, 17))
def test_invariance_classes_match_the_numpy_oracle(n):
    # every subset of two or more protocol angles, two random pairs, and a
    # pair whose difference is a multiple of 2*pi/n
    rng = np.random.default_rng(5300 + n)
    angles = optimal_angles(n)
    cases = [list(sub) for size in (2, 3, 4) for sub in itertools.combinations(angles, size)]
    cases += [[float(phi) for phi in rng.uniform(-4.0, 4.0, 2)] for _ in range(2)]
    base = float(rng.uniform(-4.0, 4.0))
    cases.append([base, base + 2 * math.pi * int(rng.integers(1, n)) / n])
    for phis in cases:
        got = invariance_classes(n, phis).sorted_classes()
        want = union_find_classes(n, phis, gram=overlap_sum_gram).sorted_classes()
        assert got == want, phis


def shift_gain(n, j, r, m=math):
    """g = |sin(pi j r/n)| / (n |sin(pi r/n)|), so that |S[j, r]| = g |2 sin(n dphi/2)|."""
    return abs(m.sin(m.pi * j * r / n)) / (n * abs(m.sin(m.pi * r / n)))


def modulus_law(n, dphi, j, r, m=math):
    """|S[j, r]| for r != 0 by the closed form, in the arithmetic of module m
    (``math``, or ``mpmath`` at its working precision)."""
    return abs(2 * m.sin(n * dphi / 2)) * shift_gain(n, j, r, m)


def rounding_band(n, dphi, j, r, modulus):
    """Bound on how far the library's float |S[j, r]| lies from the exact ``modulus``.

    ``bell.overlap_matrix`` takes the beat from w = exp(1j * theta'), with
    theta' = fl(n * fl(phi2 - phi1)).  A subtraction and a product
    round there, so theta' is off from n * dphi by at most
    dtheta = (n ulp(dphi) + ulp(n dphi)) / 2, and the beat, being
    1-Lipschitz in theta, moves the modulus by at most g * dtheta
    (g = ``shift_gain``).  Near n dphi = 2*pi*k that is many ulps of the
    modulus.  Every other step rounds once (sines, cosines, quotient,
    products, abs), a dozen times 2**-53 relative.  Rounding cos(theta')
    next to 1 moves |w - 1| by at most 2**-109 / beat**2 relative, under
    1.6e-15 wherever the modulus is near CLASS_TOL, since g < 1 puts the
    beat above 1e-9 there.  2**-48 relative covers both.
    """
    dtheta = (n * math.ulp(dphi) + math.ulp(n * dphi)) / 2
    return 2.0 ** -48 * modulus + shift_gain(n, j, r) * dtheta


def decided_link(n, phi1, phi2, j, r):
    """Whether S[j, r] links its cells: the 40-digit modulus law's verdict, or the
    library's own float verdict where the law lies within ``rounding_band`` of
    CLASS_TOL, which double precision cannot decide."""
    with mpmath.workdps(40):
        exact = modulus_law(n, mpmath.mpf(phi2) - mpmath.mpf(phi1), j, r, mpmath)
        margin = float(abs(exact - CLASS_TOL))
    if margin > rounding_band(n, phi2 - phi1, j, r, float(exact)):
        return exact > CLASS_TOL
    return abs(overlap_matrix(n, phi1, phi2)[j][r]) > CLASS_TOL


def decided_gram(n, phi1, phi2, base=brute_force_gram):
    """The Gram matrix ``base`` with each link that rounding could flip decided.

    An overlap between cells (i, j) and (k, j), k != i, whose modulus in
    ``base`` lies within 1e-12 of CLASS_TOL is set to 2 * CLASS_TOL if
    ``decided_link`` links it and to 0 otherwise; one between different
    phase indices, or of a cell with itself, is set to 0.
    """
    gram = base(n, phi1, phi2)
    verdicts = {}  # (j, r) -> linked
    for row, col in np.argwhere(abs(np.abs(gram) - CLASS_TOL) < 1e-12).tolist():
        (i, j), (k, l) = divmod(row, n), divmod(col, n)
        r = (k - i) % n
        linked = False
        if j == l and r:
            if (j, r) not in verdicts:
                verdicts[j, r] = decided_link(n, phi1, phi2, j, r)
            linked = verdicts[j, r]
        gram[row, col] = 2 * CLASS_TOL if linked else 0.0
    return gram


@pytest.mark.parametrize("n", range(2, 17))
def test_invariance_class_count_follows_the_overlap_moduli(n):
    # |S[j, r]| = |2 sin(n dphi/2)| |sin(pi j r/n)| / (n |sin(pi r/n)|) for r != 0,
    # so two angles give n^2 classes when n dphi is a multiple of 2*pi and
    # 2n - 1 otherwise
    rng = np.random.default_rng(5400 + n)
    phi1 = float(rng.uniform(-4.0, 4.0))
    steps = [math.pi / (2 * n), 0.7123, float(rng.uniform(-4.0, 4.0)), 2 * math.pi / n,
             2 * math.pi * (n - 1) / n]
    for dphi in steps:
        table = overlap_matrix(n, phi1, phi1 + dphi)
        beat = abs(2 * math.sin(n * dphi / 2))
        for j, row in enumerate(table):
            for r in range(1, n):
                law = modulus_law(n, dphi, j, r)
                assert abs(abs(row[r]) - law) < 1e-14, (dphi, j, r)
        count = n * n if beat < CLASS_TOL else 2 * n - 1
        assert len(invariance_classes(n, [phi1, phi1 + dphi])) == count, dphi


@st.composite
def angle_lists(draw):
    """n 2..16 and 2..4 angles: free ones, repeats, and shifts by multiples of 2*pi/n."""
    n = draw(st.integers(2, 16))
    base = draw(st.floats(-math.pi, math.pi))
    free = st.floats(-2 * math.pi, 2 * math.pi)
    period = st.integers(-n, n).map(lambda k: base + 2 * math.pi * k / n)
    optimal = st.sampled_from([float(a) for a in optimal_angles(n)])
    angles = draw(st.lists(st.one_of(free, period, optimal, st.just(base)), min_size=1,
                           max_size=3))
    return n, [base, *angles]


@settings(max_examples=60, deadline=None)
@given(angle_lists())
@example(case=(2, [1e-9, 0.0]))
@example(case=(3, [1e-9, 0.0]))
def test_property_invariance_classes_match_union_find(case):
    # at (2, [1e-9, 0.0]), |S[1, 1]| = sin(1e-9) lies just below CLASS_TOL,
    # and the brute-force overlap rounds it to just above; at (3, [1e-9, 0.0])
    # the library's float modulus is 1.0000000000000003e-9 and the 40-digit
    # one 4e-19 relative below CLASS_TOL, inside the rounding band
    n, phis = case
    got = invariance_classes(n, phis).sorted_classes()
    assert got == union_find_classes(n, phis, gram=decided_gram).sorted_classes()


def near_tie_angles(n):
    """Angles t at which the strongest link max |S[j, r]| of the pair [t, 0.0]
    sits at CLASS_TOL, near dphi = 0 and either side of 2*pi/n, each moved by
    0 and 1 ulp, and by 256 ulps (outside the rounding band), either way."""
    with mpmath.workdps(40):
        gain = max(shift_gain(n, j, r, mpmath) for j in range(1, n) for r in range(1, n))
        t = 2 * mpmath.asin(CLASS_TOL / (2 * gain)) / n
        ties = [float(t), float(2 * mpmath.pi / n - t), float(2 * mpmath.pi / n + t)]
    return [tie + k * math.ulp(tie) for tie in ties for k in (-256, -1, 0, 1, 256)]


@pytest.mark.parametrize("n", range(2, 17))
def test_invariance_classes_at_class_tol_ties_match_decided_oracle(n):
    # both orders of each pair; outside the rounding band the 40-digit
    # verdict decides, inside it the library's float verdict stands.  The
    # defining-sum Gram matrix stands in for the brute-force one, whose
    # Bell vectors would be rebuilt for each of the 30 angles.
    gram = functools.partial(decided_gram, base=overlap_sum_gram)
    for t in near_tie_angles(n):
        for phis in ([t, 0.0], [0.0, t]):
            got = invariance_classes(n, phis).sorted_classes()
            assert got == union_find_classes(n, phis, gram=gram).sorted_classes(), phis


def test_class_partition_rejects_overlap_and_gaps():
    grid = {(m, nn) for m in range(2) for nn in range(2)}
    with pytest.raises(ValueError):
        ClassPartition(2, (frozenset(grid), frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        ClassPartition(2, (frozenset({(0, 0)}),))


# ---------------------------------------------------------------- marginals


def test_fidelity_disturbances_identity():
    fid, dist = fidelity_disturbances(CloneParams.identity(5))
    assert fid == 1.0
    np.testing.assert_allclose(dist, np.zeros(4), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fidelity_disturbances_sum_to_one(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    fid, dist = fidelity_disturbances(p)
    assert fid + dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert fid == pytest.approx(p.v ** 2 + (n - 1) * p.y ** 2, abs=1e-12)
    np.testing.assert_allclose(
        dist, np.full(n - 1, p.x ** 2 + (n - 1) * p.y ** 2), atol=1e-12
    )


@pytest.mark.parametrize("n", [2, 3])
def test_branch_weights_match_born_marginal(n):
    # P(bob - alice = m) from the full four-way Born table equals the
    # amplitude-matrix row weight
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    a = params_to_matrix(p).a
    u = born_oracle.phi_matrix(n, 0.0)
    four = born_oracle.sifted_four_way(u, a)
    fid, dist = fidelity_disturbances(p)
    for m in range(n):
        weight = 0.0
        for alice in range(n):
            for bob in range(n):
                if (bob - alice) % n == m:
                    weight += four[alice, bob].sum()
        expected = fid if m == 0 else float(dist[m - 1])
        assert weight == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- reduced state


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_state_modes_agree(n):
    for _ in range(4):
        p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
        closed = reduced_state_ra(p).entries
        traced = traced_reduced_state(p).entries
        np.testing.assert_allclose(closed, traced, atol=1e-12)


def test_reduced_state_identity_attack_is_pure_pair():
    n = 3
    rho = reduced_state_ra(CloneParams.identity(n)).entries
    phi = max_entangled(n).amps
    np.testing.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-13)


def test_werner_noise_fraction_extremes():
    assert werner_noise_fraction(CloneParams.identity(4)) == pytest.approx(0.0)
    n = 3
    p = CloneParams(n, 1 / n, 1 / n, 1 / n)
    assert werner_noise_fraction(p) == pytest.approx(1.0, abs=1e-12)


def test_equal_vx_tail_reduces_to_exact_werner():
    # when x == y the diagonal correction vanishes and the reduced state
    # is literally the isotropic mixture
    n = 3
    y = 0.2
    v2 = 1.0 - (n - 1) * y * y - n * (n - 1) * y * y
    p = CloneParams(n, math.sqrt(v2), y, y)
    rho = reduced_state_ra(p).entries
    target = werner_state(n, werner_noise_fraction(p)).entries
    np.testing.assert_allclose(rho, target, atol=1e-13)


def test_werner_state_validation():
    with pytest.raises(ValueError):
        werner_state(3, 1.5)
    with pytest.raises(ValueError):
        werner_state(3, -0.1)


# ---------------------------------------------------------------- measurements


@pytest.mark.parametrize("n", [2, 3, 5])
def test_alice_basis_is_partner_conjugate(n):
    # as rays, Alice's index-i basis is the optimal basis at index i
    angles = optimal_angles(n)
    for i in range(4):
        ua = alice_measurement_basis(n, i)
        assert basis_relabeling(ua, phi_basis_matrix(n, float(angles[i]))) is not None
        np.testing.assert_allclose(
            ua.u, phi_basis_matrix(n, float(angles[PARTNER[i]])).u.conj(), atol=1e-14
        )


def test_measurement_basis_index_validation():
    with pytest.raises(ValueError):
        alice_measurement_basis(3, 4)
    with pytest.raises(ValueError):
        bob_measurement_basis(3, -1)


@pytest.mark.parametrize("n", range(2, 17))
def test_joint_distribution_matches_einsum_oracle(n):
    # the closed form against the Born-rule contraction of the written-out
    # reduced state, clean and at the crossover attack
    record = crossover_fidelity(n)
    for p in (CloneParams.identity(n), CloneParams(n, record.v, record.x, record.y)):
        got = np.asarray(joint_distribution(p))
        assert got.shape == (4, 4, n, n)
        assert np.max(np.abs(got - einsum_joint_distribution(p))) < 2e-15


GOLDEN_ATTACKS = {
    row["n"]: (row["v"], row["x"], row["y"])
    for row in json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json")
                          .read_text())["rows"]
}


@pytest.mark.parametrize("n", range(2, 17))
def test_joint_distribution_is_bit_identical_to_numpy_expression(n):
    # the plain-Python tables against the numpy expression they replaced:
    # clean, the golden crossover attack and seeded random attacks
    rng = np.random.default_rng(7000 + n)
    attacks = [(1.0, 0.0, 0.0), GOLDEN_ATTACKS[n]]
    attacks += [born_oracle.random_clone_params(n, rng) for _ in range(3)]
    for vxy in attacks:
        p = CloneParams(n, *vxy)
        got = joint_distribution(p)
        assert isinstance(got, tuple)
        assert np.array_equal(np.array(got), numpy_joint_distribution(p)), vxy


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_joint_distribution_matches_einsum_oracle(data):
    # any member of the family, x > v (noise weight above one) included
    n = data.draw(st.integers(2, 9))
    p = data.draw(clone_params(n))
    np.testing.assert_allclose(joint_distribution(p), einsum_joint_distribution(p), atol=1e-14)


@pytest.mark.parametrize("n", range(2, 17))
def test_clean_tables_are_exact(n):
    # the identity attack: conjugate pairs are exactly I/N, and no cell of
    # any table is negative
    tables = np.asarray(joint_distribution(CloneParams.identity(n)))
    assert tables.min() >= 0.0
    for pair in ((0, 0), (2, 2), (1, 3), (3, 1)):
        assert np.array_equal(tables[pair], np.eye(n) / n)


@pytest.mark.parametrize("n", [2, 3])
def test_joint_distribution_rows_sum_to_one(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    for a in range(4):
        for b in range(4):
            table = np.asarray(joint_distribution(p))[a, b]
            assert table.shape == (n, n)
            assert table.min() > -1e-12
            assert table.sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pair", [(0, 0), (2, 2), (1, 3), (3, 1)])
def test_conjugate_pair_tables_have_row_structure(n, pair):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    fid, dist = fidelity_disturbances(p)
    table = np.asarray(joint_distribution(p))[pair]
    expected = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            m = (l - k) % n
            expected[k, l] = (fid if m == 0 else dist[m - 1]) / n
    np.testing.assert_allclose(table, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_identity_attack_conjugate_pairs_are_perfectly_correlated(n):
    p = CloneParams.identity(n)
    for pair in ((0, 0), (2, 2), (1, 3), (3, 1)):
        np.testing.assert_allclose(np.asarray(joint_distribution(p))[pair], np.eye(n) / n, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_all_sixteen_tables_match_isotropic_noise(n):
    # the attack is indistinguishable from the isotropic mixture in
    # every pair of protocol bases, conjugate pairs included; only
    # meaningful while v >= x keeps the mixture weight below one
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG, noise_bounded=True))
    target = werner_state(n, werner_noise_fraction(p)).entries
    for a in range(4):
        for b in range(4):
            table = np.asarray(joint_distribution(p))[a, b]
            oracle = born_oracle.density_pair_distribution(
                target,
                alice_measurement_basis(n, a).u,
                bob_measurement_basis(n, b).u,
            )
            np.testing.assert_allclose(table, oracle, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_joint_distribution_matches_four_way_born_oracle(n):
    # marginalizing the eavesdropper's outcomes out of the full Born
    # table reproduces the two-slot distribution, for every basis pair
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    a = params_to_matrix(p).a
    psi = born_oracle.four_slot_state(born_oracle.phi_matrix(n, 0.0), a)
    eye = np.eye(n, dtype=complex)
    for ai in range(4):
        for bi in range(4):
            ua = alice_measurement_basis(n, ai).u
            ub = bob_measurement_basis(n, bi).u
            four = born_oracle.measurement_distribution(psi, [ua, ub, eye, eye])
            np.testing.assert_allclose(
                np.asarray(joint_distribution(p))[ai, bi], four.sum(axis=(2, 3)), atol=1e-12
            )


# ------------------------------------------------------- block structure


@pytest.mark.parametrize("n", [2, 3])
def test_general_state_splits_into_shift_blocks(n):
    # the four-way outcome distribution of a general invariant-family
    # state is the weighted mixture of its shift-difference blocks: the
    # outcome pattern (a, b, e, c) pins the block down via c-e-b+a
    rng = np.random.default_rng(660 + n)
    t = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    t /= np.linalg.norm(t.reshape(-1))
    u = born_oracle.phi_matrix(n, 0.0)
    bases = [u.conj(), u, u, u.conj()]
    p_full = born_oracle.measurement_distribution(
        born_oracle.general_four_slot_state(u, t), bases
    )
    mix = np.zeros_like(p_full)
    for i in range(n):
        block = np.zeros((n, n, n), dtype=complex)
        for m in range(n):
            block[m, (m + i) % n] = t[m, (m + i) % n]
        weight = float(np.sum(np.abs(block) ** 2))
        psi_i = born_oracle.general_four_slot_state(u, block / math.sqrt(weight))
        mix += weight * born_oracle.measurement_distribution(psi_i, bases)
    np.testing.assert_allclose(p_full, mix, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_block_phases_do_not_change_outcomes(n):
    rng = np.random.default_rng(770 + n)
    t = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    t /= np.linalg.norm(t.reshape(-1))
    twisted = t.copy()
    thetas = rng.uniform(0, 2 * math.pi, size=n)
    for m in range(n):
        for mp in range(n):
            twisted[m, mp] *= np.exp(1j * thetas[(mp - m) % n])
    u = born_oracle.phi_matrix(n, 0.0)
    bases = [u.conj(), u, u, u.conj()]
    p_ref = born_oracle.measurement_distribution(
        born_oracle.general_four_slot_state(u, t), bases
    )
    p_twist = born_oracle.measurement_distribution(
        born_oracle.general_four_slot_state(u, twisted), bases
    )
    np.testing.assert_allclose(p_twist, p_ref, atol=1e-12)
