import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndeb.cloner import AmplitudeMatrix, CloneParams, params_to_matrix
from ndeb.info import entropy, eve_conditional, eve_info, i_ab, i_ae
from ndeb.thresholds import clone_family_at_fidelity

import born_oracle
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
    with pytest.raises(ValueError, match="must be finite"):
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


def test_info_accepts_amplitude_matrix_input():
    n = 2
    p = CloneParams(n, *born_oracle.random_clone_params(n, RNG))
    m = params_to_matrix(p)
    assert i_ab(m) == pytest.approx(i_ab(p), abs=1e-14)
    assert i_ae(m) == pytest.approx(i_ae(p), abs=1e-14)
    assert isinstance(m, AmplitudeMatrix)


def test_info_rejects_other_types():
    with pytest.raises(TypeError):
        i_ab(np.eye(2))


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
def test_eve_info_on_a_stack_matches_per_matrix_i_ae(n):
    rng = np.random.default_rng(4410 + n)
    stack = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
    stack[2, 1] = 0.0  # a branch of zero weight
    stack /= np.sqrt(np.sum(np.abs(stack) ** 2, axis=(1, 2)))[:, None, None]
    expected = [loop_i_ae(a) for a in stack]
    np.testing.assert_allclose(eve_info(stack), expected, atol=1e-12)
    np.testing.assert_allclose([i_ae(AmplitudeMatrix(a)) for a in stack], expected, atol=1e-12)


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
