import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ndeb import thresholds
from ndeb.cloner import CloneParams
from ndeb.info import i_ab, i_ae
from ndeb.thresholds import (
    ROOT_RTOL,
    ThresholdRecord,
    _brent,
    _eve_slope,
    clone_family_at_fidelity,
    crossover_fidelity,
    max_eve_info,
    security_report,
    visibility_threshold,
    y_max,
)

from state_tools import eve_branches, fidelity_disturbances

# The crossover fidelity decreases with N; in the large-N limit it
# approaches 1/2 while the error-rate threshold approaches 50%, as
# F_A - 1/2 ~ 1/(2 log2 N) (a fit to the computed crossovers).
CROSSOVER_LIMIT_LARGE_N = 0.5


@pytest.fixture(scope="module")
def records():
    return security_report(2, 10)


@pytest.fixture(scope="module")
def all_records():
    return security_report(2, 16)


# ---------------------------------------------------------------- family


def test_y_max_edges():
    assert y_max(3, 1.0) == pytest.approx(0.0, abs=1e-15)
    n, fid = 4, 1.0 / 4
    # at fidelity 1/N both feasibility caps coincide
    assert fid / (n - 1) == pytest.approx((1 - fid) / (n - 1) ** 2, abs=1e-15)
    assert y_max(n, fid) == pytest.approx(math.sqrt(fid / (n - 1)), abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_clone_family_reproduces_fidelity(n):
    rng = np.random.default_rng(3100 + n)
    for _ in range(5):
        fid = rng.uniform(1.0 / n + 0.01, 0.99)
        y = rng.uniform(0.0, y_max(n, fid))
        p = clone_family_at_fidelity(n, fid, y)
        got, _ = fidelity_disturbances(p)
        assert got == pytest.approx(fid, abs=1e-12)
        assert p.y == pytest.approx(y, abs=1e-15)


def test_clone_family_rejects_infeasible_y():
    with pytest.raises(ValueError):
        clone_family_at_fidelity(3, 0.8, y_max(3, 0.8) + 1e-6)


@pytest.mark.parametrize("y", [math.nan, "0.1", True, None])
def test_clone_family_rejects_bad_y(y):
    with pytest.raises(ValueError, match="y must be a finite number"):
        clone_family_at_fidelity(3, 0.8, y)


def test_clone_family_y_zero_has_no_flat_tail():
    p = clone_family_at_fidelity(3, 0.8, 0.0)
    assert p.y == 0.0
    assert p.v ** 2 == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------- optimizer


def _two_row_eve_info(n, fid, ys):
    """I_AE along the fixed-fidelity family from its two distinct rows.

    Branch 0 is (v, y, ..., y) and counts once; each of the N-1 shifted
    branches is (x, y, ..., y).  The layout is written out here, not read
    from ``state_tools.branch_rows``, so that the whole grid is one batch and
    an independent statement of the family.
    """
    rows = np.empty((ys.size, 2, n))
    rows[:, :, 1:] = ys[:, None, None]
    rows[:, 0, 0] = np.sqrt(np.clip(fid - (n - 1) * ys ** 2, 0.0, None))
    rows[:, 1, 0] = np.sqrt(np.clip((1.0 - fid) / (n - 1) - (n - 1) * ys ** 2, 0.0, None))
    w, p = eve_branches(rows)
    entropy = -np.sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0), axis=-1)
    return math.log2(n) - (w[:, 0] * entropy[:, 0] + (n - 1) * w[:, 1] * entropy[:, 1])


@pytest.mark.parametrize(
    "n,fid", [(2, 0.86), (3, 0.7752755323352734), (4, 0.8), (7, 0.5), (16, 0.63), (16, 0.95)]
)
def test_eve_slope_matches_finite_difference(n, fid):
    hi = y_max(n, fid)
    step = 1e-6 * hi
    for y in hi * np.array([0.05, 0.3, 0.6, 0.9, 0.99]):
        up = i_ae(clone_family_at_fidelity(n, fid, y + step))
        down = i_ae(clone_family_at_fidelity(n, fid, y - step))
        slope = _eve_slope(n, fid, y)
        assert slope == pytest.approx((up - down) / (2 * step), rel=1e-6, abs=1e-6), y


@pytest.mark.parametrize("n", range(2, 17))
def test_eve_slope_is_the_derivative_of_i_ae_at_the_crossover(n):
    # The optimizer's slope is the written derivative of i_ae along the
    # fixed-fidelity family; check it where the crossover search uses it.
    fid = crossover_fidelity(n).f_a
    hi = y_max(n, fid)
    step = 1e-6 * hi
    for y in (0.2 * hi, 0.5 * hi, 0.8 * hi):
        up = i_ae(clone_family_at_fidelity(n, fid, y + step))
        down = i_ae(clone_family_at_fidelity(n, fid, y - step))
        assert _eve_slope(n, fid, y) == pytest.approx((up - down) / (2 * step), rel=1e-6), y


def test_eve_slope_edges():
    assert _eve_slope(3, 0.8, 0.0) == 0.0  # so the y bracket starts above 0
    assert _eve_slope(3, 1.0, 0.0) == -math.inf  # x = 0, as at y = y_max


@pytest.mark.parametrize("n,fid", [(2, 0.9), (3, 0.78), (5, 0.7)])
def test_max_eve_info_is_consistent(n, fid):
    params, val = max_eve_info(n, fid)
    assert val == pytest.approx(i_ae(params), abs=1e-9)
    got, _ = fidelity_disturbances(params)
    assert got == pytest.approx(fid, abs=1e-9)
    assert -1e-15 <= params.y <= y_max(n, fid) + 1e-9


@pytest.mark.parametrize(
    "n,fid", [(2, 0.9), (3, 0.78), (5, 0.7), (8, 0.67), (12, 0.64), (16, 0.63)]
)
def test_max_eve_info_beats_dense_grid(n, fid):
    _, val = max_eve_info(n, fid)
    ys = np.linspace(0.0, y_max(n, fid), 20001)
    grid = _two_row_eve_info(n, fid, ys)
    assert val >= grid.max() - 1e-9
    for k in (0, 5000, 10000, 20000):
        assert grid[k] == pytest.approx(i_ae(clone_family_at_fidelity(n, fid, ys[k])), abs=1e-12)


def test_max_eve_info_at_unit_fidelity_is_zero():
    params, val = max_eve_info(3, 1.0)
    assert val == pytest.approx(0.0, abs=1e-9)
    assert params.v == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "fn, n, fid",
    [
        (max_eve_info, 1, 1.0),
        (max_eve_info, 2.0, 0.9),
        (max_eve_info, True, 0.9),
        (max_eve_info, "3", 0.9),
        (y_max, True, 0.9),
        (y_max, 1, 0.9),
        (y_max, 3.0, 0.9),
    ],
    ids=["eve-dim-1", "eve-float", "eve-bool", "eve-string", "ymax-bool", "ymax-dim-1", "ymax-float"],
)
def test_optimizer_rejects_bad_dim(fn, n, fid):
    with pytest.raises(ValueError, match="qudit dimension"):
        fn(n, fid)


def family_at_zero(n, fid):
    return clone_family_at_fidelity(n, fid, 0.0)


@pytest.mark.parametrize("fn", [y_max, max_eve_info, family_at_zero])
@pytest.mark.parametrize("fid", [math.nan, math.inf, -math.inf, "0.9", True, None, 0.9j])
def test_fidelity_entry_points_reject_bad_fidelity(fn, fid):
    with pytest.raises(ValueError, match="fidelity must be a finite number"):
        fn(3, fid)


@pytest.mark.parametrize("n", [1, 0, 2.0, True, "3"])
def test_clone_family_at_fidelity_rejects_bad_dim(n):
    with pytest.raises(ValueError, match="qudit dimension"):
        clone_family_at_fidelity(n, 0.9, 0.0)


def test_fidelity_entry_points_take_numpy_and_int_fidelity():
    assert y_max(3, np.float64(0.9)) == y_max(3, 0.9)
    assert max_eve_info(3, 1) == max_eve_info(3, 1.0)
    assert clone_family_at_fidelity(np.int64(3), np.float64(0.9), 0.1) == \
        clone_family_at_fidelity(3, 0.9, 0.1)


def test_max_eve_info_rejects_out_of_range_fidelity():
    with pytest.raises(ValueError):
        max_eve_info(3, 0.2)  # below 1/3
    with pytest.raises(ValueError):
        max_eve_info(3, 1.2)


def test_brent_finds_simple_root():
    root = _brent(lambda x: x - 0.3, 0.0, 1.0)
    assert root == pytest.approx(0.3, abs=1e-15)
    assert _brent(lambda x: x, 0.0, 1.0) == 0.0  # a root on the bracket's edge
    assert _brent(lambda x: 1.0 - x, 0.0, 1.0) == 1.0


def test_brent_reports_bracket_failure():
    with pytest.raises(RuntimeError, match="bracket"):
        _brent(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="bracket"):
        _brent(lambda x: math.nan, 0.0, 1.0)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x - 0.3, 0.0, 1.0),
        (lambda x: math.exp(x) - 2.0, 0.0, 2.0),
        (lambda x: x ** 3 - 0.1, -1.0, 1.0),
        (lambda x: math.tanh(8.0 * (x - 0.7)), 0.0, 1.0),
        (lambda x: 0.5 - x * x, 0.0, 1.0),
        (lambda x: math.log(x) + x, 0.1, 2.0),
    ],
    ids=["linear", "exp", "cubic", "steep-tanh", "decreasing", "log"],
)
def test_brent_agrees_with_scipy_brentq(f, lo, hi):
    evaluated = []

    def g(x):
        evaluated.append(x)
        return f(x)

    root = _brent(g, lo, hi)
    assert root in evaluated
    assert root == pytest.approx(brentq(f, lo, hi, xtol=1e-16, rtol=ROOT_RTOL), abs=1e-14)


# ---------------------------------------------------------------- thresholds


def test_qubit_crossover_hits_closed_form():
    rec = crossover_fidelity(2)
    assert rec.f_a == pytest.approx(0.5 + 1 / math.sqrt(8), abs=1e-9)
    # the optimal attack there is y = 1/sqrt(8), v = 1/2 + y, x = 1/2 - y
    assert rec.y == pytest.approx(1 / math.sqrt(8), abs=1e-14)
    assert rec.v == pytest.approx(0.5 + 1 / math.sqrt(8), abs=1e-14)
    assert rec.x == pytest.approx(0.5 - 1 / math.sqrt(8), abs=1e-14)


# F_A for N = 2..16 from the golden threshold table of the benchmark.
CROSSOVER_FIDELITY = {
    2: 0.8535533905932737,
    3: 0.7752755323352734,
    4: 0.7341787704999072,
    5: 0.7080432455570091,
    6: 0.6897896505557073,
    7: 0.676231833963596,
    8: 0.6657090881417798,
    9: 0.6572676300186633,
    10: 0.6503193837508807,
    11: 0.6444813721949547,
    12: 0.6394930712860138,
    13: 0.6351708297305554,
    14: 0.6313812871779907,
    15: 0.6280251406817301,
    16: 0.6250268388810689,
}


def test_crossover_regression_values():
    for n, f_a in CROSSOVER_FIDELITY.items():
        assert crossover_fidelity(n).f_a == pytest.approx(f_a, abs=1e-9), n


def test_crossover_balances_the_two_channels(all_records):
    for rec in all_records:
        p = CloneParams(rec.n, rec.v, rec.x, rec.y)
        assert i_ab(p) == pytest.approx(i_ae(p), abs=1e-12), rec.n


def binary_entropy(t):
    return -sum(u * math.log2(u) for u in (t, 1.0 - t) if u > 0.0)


def test_crossover_identity(all_records):
    # I_AB = I_AE on the symmetric family reads (F - Q) log2(N-1) = h(F) - <h>:
    # Q = F P_v + (1-F) P_x is Eve's chance of guessing right, with P_c the
    # d = 0 mass of row (c, y, ..., y), and <h> = F h(P_v) + (1-F) h(P_x).
    for rec in all_records:
        n, fid, y = rec.n, rec.f_a, rec.y
        hit_v = (rec.v + (n - 1) * y) ** 2 / (n * fid)
        hit_x = (rec.x + (n - 1) * y) ** 2 * (n - 1) / (n * (1.0 - fid))
        guess = fid * hit_v + (1.0 - fid) * hit_x
        mean_h = fid * binary_entropy(hit_v) + (1.0 - fid) * binary_entropy(hit_x)
        lhs = (fid - guess) * math.log2(n - 1)
        assert lhs == pytest.approx(binary_entropy(fid) - mean_h, abs=1e-12), n


def test_crossover_diagnostics(all_records):
    for rec in all_records:
        assert rec.residual <= 1e-12, rec.n
        assert rec.root_evals <= 20, rec.n
        assert rec.y_at_bound is False, rec.n
        assert rec.stationarity <= 1e-10, rec.n


def test_crossover_makes_few_attack_optimizations(monkeypatch):
    calls = []

    def counted(n, fidelity):
        calls.append(fidelity)
        return max_eve_info(n, fidelity)

    monkeypatch.setattr(thresholds, "max_eve_info", counted)
    for n in range(2, 17):
        calls.clear()
        rec = crossover_fidelity(n)
        assert len(calls) == rec.root_evals <= 20, n
        assert rec.f_a in calls, n


@pytest.mark.parametrize("n", [17, 32, 100, 300, 1000])
def test_nonlocality_covers_security_beyond_cli_cap(n):
    rec = crossover_fidelity(n)
    assert rec.f_thr >= rec.f_a


def test_security_report_builds_few_clone_params(monkeypatch):
    # the optimizer's inner loop works on (v, x) floats; only one attack
    # per evaluation of g(F) becomes a CloneParams
    built = []
    check = CloneParams.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(CloneParams, "__post_init__", counted)
    security_report(2, 16)
    assert len(built) <= 200


def test_crossover_large_n_law():
    # (F_A - 1/2) * 2 log2 N rises toward 1: 1 - F_A ~ 1/2 - 1/(2 log2 N)
    ns = (10 ** 3, 10 ** 4, 10 ** 5)
    scaled = [(crossover_fidelity(n).f_a - 0.5) * 2.0 * math.log2(n) for n in ns]
    assert scaled[0] < scaled[1] < scaled[2] < 1.0
    assert abs(scaled[1] - 1.0) <= 0.005
    assert abs(scaled[2] - 1.0) <= 0.005


def test_visibility_threshold_large_n_limit():
    # Collins, Gisin, Linden, Massar and Popescu, PRL 88, 040404 (2002)
    assert visibility_threshold(10 ** 5) == pytest.approx(0.673443, abs=1e-6)


def test_crossover_rejects_dim_one():
    with pytest.raises(ValueError):
        crossover_fidelity(1)


@pytest.mark.parametrize("bad", [2.9, "3", True])
def test_crossover_rejects_non_int_dim(bad):
    with pytest.raises(ValueError):
        crossover_fidelity(bad)


def test_crossover_fidelities_decrease_toward_half(records):
    f_as = [rec.f_a for rec in records]
    assert all(a > b for a, b in zip(f_as, f_as[1:]))
    assert all(f > CROSSOVER_LIMIT_LARGE_N for f in f_as)
    assert f_as[-1] - CROSSOVER_LIMIT_LARGE_N < f_as[0] - CROSSOVER_LIMIT_LARGE_N


def test_qubit_visibility_threshold_is_inverse_sqrt2():
    assert visibility_threshold(2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_qubit_fidelity_threshold_closed_form():
    f_thr = crossover_fidelity(2).f_thr
    expected = 0.5 * (1 / math.sqrt(2)) + 0.5
    assert f_thr == pytest.approx(expected, abs=1e-12)
    # for two levels the local-realism border and the attack crossover
    # are the same number
    assert f_thr == pytest.approx(0.5 + 1 / math.sqrt(8), abs=1e-12)


def test_visibility_threshold_regression_values():
    frozen = {
        2: 0.7071067811865476,
        3: 0.6961524227066317,
        4: 0.6905497394878108,
        5: 0.6871565744163151,
        10: 0.6803183200606494,
    }
    for n, val in frozen.items():
        assert visibility_threshold(n) == pytest.approx(val, abs=1e-9)


def test_visibility_threshold_decreases_but_stays_above_two_thirds(records):
    vs = [rec.v_thr for rec in records]
    assert all(a > b for a, b in zip(vs, vs[1:]))
    assert all(v > 0.67 for v in vs)


def test_visibility_threshold_rejects_dim_one():
    with pytest.raises(ValueError):
        visibility_threshold(1)


@pytest.mark.parametrize("bad", [2.5, "3"])
def test_visibility_threshold_rejects_non_int_dim(bad):
    with pytest.raises(ValueError, match="qudit dimension"):
        visibility_threshold(bad)


def test_security_report_shape_and_flags(records):
    assert [rec.n for rec in records] == list(range(2, 11))
    for rec in records:
        assert isinstance(rec, ThresholdRecord)
        assert rec.nonlocal_sufficient
        assert rec.f_thr >= rec.f_a - 1e-6
        total = rec.v ** 2 + (rec.n - 1) * rec.x ** 2 + rec.n * (rec.n - 1) * rec.y ** 2
        assert total == pytest.approx(1.0, abs=1e-9)


def test_security_report_rejects_bad_range():
    with pytest.raises(ValueError):
        security_report(5, 3)
    with pytest.raises(ValueError):
        security_report(1, 4)


@pytest.mark.parametrize("bounds", [(2.0, 3), (2, 3.0), (True, 3), ("2", 3)])
def test_security_report_rejects_non_int_bounds(bounds):
    with pytest.raises(ValueError, match="must be an int"):
        security_report(*bounds)


# ---------------------------------------------------------------- universal cloner


def universal_crossover(n):
    """Crossover fidelity of the state-independent (universal) cloner.

    That attack is the y = x member CloneParams(n, v, x, x) of the
    family, fixed by its fidelity F = v^2 + (N-1) x^2 together with the
    norm; the crossover is where i_ab and i_ae meet.
    """
    def gap(f):
        x = math.sqrt((1.0 - f) / (n * (n - 1)))
        p = CloneParams(n, math.sqrt(f - (n - 1) * x * x), x, x)
        return i_ab(p) - i_ae(p)

    return _brent(gap, 1.0 / n, 1.0)


def test_universal_cloner_error_rates():
    # the state-independent cloner figures quoted in the README
    assert 100 * (1 - universal_crossover(2)) == pytest.approx(15.64, abs=0.005)
    assert 100 * (1 - universal_crossover(3)) == pytest.approx(22.67, abs=0.005)
    assert universal_crossover(2) == pytest.approx(0.8436, abs=5e-5)


@pytest.mark.parametrize("n", range(2, 17))
def test_universal_cloner_is_weaker_than_optimal(n):
    # the optimal attack reaches the crossover at a lower error rate
    assert 1 - universal_crossover(n) > 1 - crossover_fidelity(n).f_a
