import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndeb.cloner import CloneParams
from ndeb.info import i_ab, i_ae
from ndeb.thresholds import clone_family_at_fidelity, crossover_fidelity

import born_oracle
from state_tools import (
    AmplitudeMatrix,
    entropy,
    eve_conditional,
    fidelity_disturbances,
    matrix_fidelity_disturbances,
    matrix_i_ab,
    matrix_i_ae,
    params_to_matrix,
)
from strategies import clone_params

RNG = np.random.default_rng(90817)


def plug_in_mi(joint):
    """Mutual information of a joint table, computed from first principles."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * math.log2(joint[i, j] / (pa[i] * pb[j]))
    return total


def four_way_table(p):
    a = params_to_matrix(p).a
    u = born_oracle.phi_matrix(p.dim, 0.0)
    return born_oracle.sifted_four_way(u, a)


# ---------------------------------------------------------------- entropy


def test_entropy_uniform_and_point_mass():
    assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_binary_value():
    h = entropy([0.25, 0.75])
    assert h == pytest.approx(-(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-12)


def test_entropy_rejects_bad_distributions():
    with pytest.raises(ValueError):
        entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy([1.2, -0.2])
    with pytest.raises(ValueError):
        entropy([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="must be a finite number"):
        entropy([bad, 1.0])


def test_entropy_tolerates_tiny_negative_roundoff():
    assert entropy([1.0 + 5e-13, -5e-13]) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------- channel info


def test_i_ab_identity_attack_is_full_alphabet():
    for n in (2, 3, 5):
        assert i_ab(CloneParams.identity(n)) == pytest.approx(math.log2(n), abs=1e-12)


def test_i_ab_uniform_attack_is_zero():
    n = 3
    assert i_ab(CloneParams(n, 1 / n, 1 / n, 1 / n)) == pytest.approx(0.0, abs=1e-12)


def test_i_ab_frozen_qubit_value():
    # at fidelity 1/2 + 1/sqrt(8) the binary channel carries
    # 1 - h(0.146447) bits
    fid = 0.5 + 1 / math.sqrt(8)
    p = CloneParams(2, math.sqrt(fid), math.sqrt(1 - fid), 0.0)
    expected = 1 + fid * math.log2(fid) + (1 - fid) * math.log2(1 - fid)
    assert i_ab(p) == pytest.approx(expected, abs=1e-12)
    assert i_ab(p) == pytest.approx(0.3991239633071437, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_i_ab_matches_plug_in_mi_of_born_table(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    four = four_way_table(p)
    joint_ab = four.sum(axis=(2, 3))
    assert i_ab(p) == pytest.approx(plug_in_mi(joint_ab), abs=1e-10)


# ---------------------------------------------------------------- eavesdropper


def test_eve_conditional_identity_branch_zero_is_uniform():
    n = 4
    cond = eve_conditional(CloneParams.identity(n), 0)
    np.testing.assert_allclose(cond, np.full(n, 1 / n), atol=1e-12)


def test_eve_conditional_zero_weight_branch_raises():
    with pytest.raises(ValueError):
        eve_conditional(CloneParams.identity(3), 1)


@pytest.mark.parametrize("m", [True, 1.5, 1.0, "1", None])
def test_eve_conditional_rejects_non_int_branch(m):
    with pytest.raises(ValueError, match="m must be an int"):
        eve_conditional(CloneParams(2, 0.6, 0.8, 0.0), m)


def test_eve_conditional_branch_wraps_mod_n():
    p = CloneParams(3, *born_oracle.random_clone_params(3, RNG))
    for m in range(-3, 3):
        np.testing.assert_array_equal(eve_conditional(p, m + 3), eve_conditional(p, m))
    np.testing.assert_array_equal(eve_conditional(p, np.int64(4)), eve_conditional(p, 1))


def test_eve_conditional_explicit_peak_values():
    # branch 0 of the symmetric family peaks at offset 0 with
    # (v + (N-1) y)^2 / (N (v^2 + (N-1) y^2))
    n = 3
    v, x, y = born_oracle.random_clone_params(n, RNG)
    p = CloneParams(n, v, x, y)
    cond = eve_conditional(p, 0)
    peak = (v + (n - 1) * y) ** 2 / (n * (v * v + (n - 1) * y * y))
    side = (v - y) ** 2 / (n * (v * v + (n - 1) * y * y))
    np.testing.assert_allclose(cond, [peak, side, side], atol=1e-12)
    assert cond.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_eve_conditional_matches_born_table(n):
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    four = four_way_table(p)
    for m in range(n):
        cond = np.zeros(n)
        for a in range(n):
            for b in range(n):
                for e in range(n):
                    for c in range(n):
                        if (b - a) % n == m:
                            cond[(a - e) % n] += four[a, b, e, c]
        cond /= cond.sum()
        np.testing.assert_allclose(eve_conditional(p, m), cond, atol=1e-10)


def test_i_ae_identity_attack_is_zero():
    assert i_ae(CloneParams.identity(3)) == pytest.approx(0.0, abs=1e-12)


def test_i_ae_uniform_attack_learns_everything():
    n = 3
    assert i_ae(CloneParams(n, 1 / n, 1 / n, 1 / n)) == pytest.approx(
        math.log2(n), abs=1e-12
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_i_ae_stays_in_range(n):
    for _ in range(5):
        p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
        val = i_ae(p)
        assert -1e-12 <= val <= math.log2(n) + 1e-12


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("y", [1.256314575070179e-157, 1e-170, 1e-300])
def test_i_ae_with_subnormal_branch_weight(n, y):
    # w = N*y^2 is subnormal or 0, so 1/(N*w) would overflow; the branch
    # carries no weight and Eve's information is that of the identity attack
    p = CloneParams(n, 0.0, 1.0 / math.sqrt(n - 1), y)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        val = i_ae(p)
    assert val == pytest.approx(i_ae(CloneParams(n, 0.0, 1.0 / math.sqrt(n - 1), 0.0)), abs=1e-12)
    assert -1e-12 <= val <= math.log2(n) + 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_i_ae_matches_plug_in_mi_of_born_table(n):
    # Eve's symbol knowledge is the mutual information between Alice's
    # outcome and Eve's full (e, c) record
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    four = four_way_table(p)
    joint_a_ec = four.sum(axis=1).reshape(n, n * n)
    assert i_ae(p) == pytest.approx(plug_in_mi(joint_a_ec), abs=1e-10)


def route_point(n, point):
    """The clean, crossover or a random member of the symmetric family at dimension n."""
    if point == "clean":
        return CloneParams.identity(n)
    if point == "crossover":
        rec = crossover_fidelity(n)
        return CloneParams(n, rec.v, rec.x, rec.y)
    return CloneParams(n, *born_oracle.random_clone_params(n, np.random.default_rng(5100 + n)))


@pytest.mark.parametrize("point", ["clean", "crossover", "random"])
@pytest.mark.parametrize("n", range(2, 17))
def test_two_row_and_full_matrix_routes_agree(n, point):
    # The library reads a CloneParams in closed form; the oracle takes the
    # FFT of every row of the full N x N matrix.  Both must give the same
    # numbers, and the oracle's two-row and N-row conditionals must agree.
    p = route_point(n, point)
    m = params_to_matrix(p)
    fid, dist = fidelity_disturbances(p)
    fid_m, dist_m = matrix_fidelity_disturbances(m)
    assert abs(fid - fid_m) <= 1e-15
    np.testing.assert_allclose(dist, dist_m, rtol=0.0, atol=1e-15)
    assert abs(i_ab(p) - matrix_i_ab(m)) <= 1e-15
    assert abs(i_ae(p) - matrix_i_ae(m)) <= 1e-15
    for branch, weight in enumerate(np.concatenate(([fid], dist))):
        if weight == 0.0:
            for attack in (p, m):
                with pytest.raises(ValueError, match="zero weight"):
                    eve_conditional(attack, branch)
        else:
            got, want = eve_conditional(p, branch), eve_conditional(m, branch)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_info_rejects_other_types():
    # The library reads only the symmetric family; a general amplitude
    # matrix goes through the test oracle.
    for attack in (np.eye(2), params_to_matrix(CloneParams.identity(2))):
        for info in (i_ab, i_ae):
            with pytest.raises(TypeError):
                info(attack)


def mp_closed_forms(p):
    """(i_ab, i_ae) of the module docstring's closed forms, in 40-digit mpmath."""
    with mpmath.workdps(40):
        n = p.dim
        v, x, y = (mpmath.mpf(t) for t in (p.v, p.x, p.y))

        def xlog2x(t):
            return t * mpmath.log(t, 2) if t > 0 else mpmath.mpf(0)

        fid, miss = v * v + (n - 1) * y * y, x * x + (n - 1) * y * y
        bob = mpmath.log(n, 2) + xlog2x(fid) + (n - 1) * xlog2x(miss)
        eve = mpmath.log(n, 2)
        for c, k, w in ((v, 1, fid), (x, n - 1, miss)):
            if w > 0:
                hit, off = (c + (n - 1) * y) ** 2 / (n * w), (c - y) ** 2 / (n * w)
                eve += k * w * (xlog2x(hit) + (n - 1) * xlog2x(off))
        return float(bob), float(eve)


@pytest.mark.parametrize("point", ["clean", "crossover", "random"])
@pytest.mark.parametrize("n", range(2, 17))
def test_closed_forms_match_high_precision(n, point):
    p = route_point(n, point)
    bob, eve = mp_closed_forms(p)
    assert abs(i_ab(p) - bob) <= 1e-15
    assert abs(i_ae(p) - eve) <= 1e-15


def loop_i_ae(a):
    """Eavesdropper bits from the per-branch exp-sum, one term at a time."""
    n = a.shape[0]
    total = math.log2(n)
    for row in a:
        weight = float(np.sum(np.abs(row) ** 2))
        if weight == 0.0:
            continue
        for d in range(n):
            amp = sum(row[k] * cmath.exp(2j * math.pi * d * k / n) for k in range(n))
            prob = abs(amp) ** 2 / (n * weight)
            if prob > 0.0:
                total += weight * prob * math.log2(prob)
    return total


@pytest.mark.parametrize("n", [2, 3, 5])
def test_i_ae_matches_the_exp_sum_loop(n):
    rng = np.random.default_rng(4410 + n)
    stack = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    stack[2, 1] = 0.0  # a branch of zero weight
    stack /= np.sqrt(np.sum(np.abs(stack) ** 2, axis=(1, 2)))[:, None, None]
    expected = [loop_i_ae(a) for a in stack]
    got = [matrix_i_ae(AmplitudeMatrix(a)) for a in stack]
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------- properties


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_property_i_ae_lies_between_zero_and_log2_n(data, n):
    value = i_ae(data.draw(clone_params(n)))
    assert -1e-12 <= value <= math.log2(n) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 16),
    fids=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    shares=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
)
def test_property_i_ab_falls_as_the_error_rate_rises(n, fids, shares):
    # On the symmetric family I_AB = log2 N - H(F, (1-F)/(N-1), ...) is
    # smallest (zero) at F = 1/N, so above 1/N it rises with F: more
    # disturbance, less shared information.  y does not enter I_AB.
    def at(t, share):
        f = 1.0 / n + t * (1.0 - 1.0 / n)
        y_max = math.sqrt(min(f, (1.0 - f) / (n - 1)) / (n - 1))
        return i_ab(clone_family_at_fidelity(n, f, share * y_max))

    lo, hi = sorted(fids)
    assert at(lo, shares[0]) <= at(hi, shares[1]) + 1e-12
