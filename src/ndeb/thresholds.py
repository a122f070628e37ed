"""Security thresholds: information crossover and local-realism bounds.

For a fixed fidelity F the symmetric attack family has one free knob,
the flat amplitude y; the crossover fidelity is the F at which the
eavesdropper's best information over y, a root of dI_AE/dy, meets the
legitimate channel's.  One Brent root-finder solves both levels.  Below
the crossover one-way postprocessing cannot distill a key, so the
crossover is the security border against this attack.

The local-realism bound comes the other way: the visibility threshold
below which the measured correlations admit a local model, converted to
a fidelity through F = (N-1)/N * V + 1/N for the isotropic mixture.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cloner import CloneParams
from .info import i_ab, i_ae
from .qudit import check_dim, finite_real, strict_int

Y_LO = 1e-6  # dI_AE/dy is 0 at y = 0, so y's bracket starts at Y_LO * y_max
BRACKET_PAD = 1e-6
FEAS_TOL = 1e-12
# Brent stops once the bracket is narrower than ROOT_XTOL + ROOT_RTOL * |F|.
ROOT_XTOL = 1e-16
ROOT_RTOL = 4 * sys.float_info.epsilon
ROOT_MAX_STEPS = 100


def y_max(n: int, fidelity: float) -> float:
    """Largest flat amplitude compatible with fidelity F at dimension n."""
    n, fidelity = check_dim(n), finite_real("fidelity", fidelity)
    cap = min(fidelity / (n - 1), (1.0 - fidelity) / (n - 1) ** 2)
    return math.sqrt(max(cap, 0.0))


def clone_family_at_fidelity(n: int, fidelity: float, y: float) -> CloneParams:
    """Member of the fixed-fidelity family at flat amplitude y.

    Solves v^2 = F - (N-1) y^2 and x^2 = (1-F)/(N-1) - (N-1) y^2 and
    clamps roundoff-negative squares (never below -1e-12) to zero.
    """
    return _family(check_dim(n), finite_real("fidelity", fidelity), y)


def _family(n: int, fidelity: float, y: float) -> CloneParams:
    """``clone_family_at_fidelity`` on checked arguments, for the optimizer's inner loop."""
    v2 = fidelity - (n - 1) * y * y
    x2 = (1.0 - fidelity) / (n - 1) - (n - 1) * y * y
    if v2 < -FEAS_TOL or x2 < -FEAS_TOL:
        raise ValueError(
            f"y={y} is infeasible at fidelity {fidelity} (v^2={v2}, x^2={x2})"
        )
    return CloneParams(n, math.sqrt(max(v2, 0.0)), math.sqrt(max(x2, 0.0)), y)


def _eve_slope(n: int, fidelity: float, y: float) -> float:
    """dI_AE/dy along the fixed-fidelity family at flat amplitude y.

    k rows (c, y, ..., y) of weight w, one with c = v and N-1 with c = x,
    put P = (c+(N-1)y)^2/(N w) on d = 0 and 1-P = (N-1)(c-y)^2/(N w) evenly
    on the rest; they add k w dP/dy log2((N-1)P/(1-P)), where
    w dP/dy = 2(N-1)(c+(N-1)y)(c-y)/(N c).  A zero c, only at y_max, is -inf.
    """
    p = _family(n, fidelity, y)
    slope = 0.0
    for c, k in ((p.v, 1), (p.x, n - 1)):
        if c == 0.0:
            return -math.inf
        top, gap = c + (n - 1) * y, c - y
        if gap != 0.0:  # (c-y) * log|c-y| -> 0
            slope += k * top * gap / c * math.log2(abs(top / gap))
    return 4.0 * (n - 1) / n * slope


def max_eve_info(n: int, fidelity: float) -> tuple[CloneParams, float]:
    """Best attack at fixed fidelity: (optimal params, eavesdropper bits).

    y is the root of dI_AE/dy on [Y_LO * y_max, y_max] by ``_brent``, with
    the y_max end counted as -inf; with no sign change there, y = 0.
    """
    n, fidelity = check_dim(n), finite_real("fidelity", fidelity)
    if not 1.0 / n <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [1/{n}, 1], got {fidelity}")
    hi = y_max(n, fidelity)

    def slope(y: float) -> float:
        return _eve_slope(n, fidelity, y) if y < hi else -math.inf

    y = _brent(slope, Y_LO * hi, hi) if slope(Y_LO * hi) > 0.0 else 0.0
    params = clone_family_at_fidelity(n, fidelity, y)
    return params, i_ae(params)


def _brent(g, lo: float, hi: float) -> float:
    """Root of g in [lo, hi] by Brent's method; g(lo) and g(hi) must differ in sign.

    Each step tries inverse quadratic interpolation through the last three
    points (a secant step when two coincide) and falls back to bisection
    when the trial step would not shrink the bracket fast enough.  The
    returned root is always a point g was evaluated at.
    """
    a, fa, b, fb = lo, g(lo), hi, g(hi)
    if not (fa <= 0.0 <= fb or fb <= 0.0 <= fa):
        raise RuntimeError(f"root bracket failure: g({lo})={fa}, g({hi})={fb}")
    # b is the best estimate, a the previous one, c the far end of the bracket [b, c].
    c, fc, step, prev_step = a, fa, b - a, b - a
    for _ in range(ROOT_MAX_STEPS):
        if (fb < 0.0) == (fc < 0.0):
            c, fc, step, prev_step = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 0.5 * (ROOT_XTOL + ROOT_RTOL * abs(b))
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) < tol:
            return b
        if abs(prev_step) > tol and abs(fb) < abs(fa):
            if a == c:  # secant through a and b
                trial = -fb * (b - a) / (fb - fa)
            else:  # inverse quadratic through a, b and c
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (da * dc * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - tol):
                prev_step, step = step, trial
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = g(b)
    raise RuntimeError(f"no root within {ROOT_MAX_STEPS} steps in [{lo}, {hi}]")


def visibility_threshold(n: int) -> float:
    """Visibility below which the protocol correlations admit a local model.

    N^2 / V = sum_{k=0}^{floor(N/2)-1} (1 - 2k/(N-1)) *
              (1/sin^2(pi(4k+1)/4N) - 1/sin^2(pi(4k+3)/4N))
    """
    n = check_dim(n)
    total = 0.0
    for k in range(n // 2):
        weight = 1.0 - 2.0 * k / (n - 1)
        total += weight * (
            1.0 / math.sin(math.pi * (4 * k + 1) / (4 * n)) ** 2
            - 1.0 / math.sin(math.pi * (4 * k + 3) / (4 * n)) ** 2
        )
    return n * n / total


def fidelity_threshold(n: int) -> float:
    """Fidelity of the isotropic mixture at the local-realism visibility."""
    return (n - 1) / n * visibility_threshold(n) + 1.0 / n


@dataclass(frozen=True)
class ThresholdRecord:
    """Security summary for one dimension."""

    n: int
    f_a: float  # crossover fidelity of the optimal attack
    v: float
    x: float
    y: float
    v_thr: float  # local-realism visibility threshold
    f_thr: float  # same threshold expressed as fidelity
    nonlocal_sufficient: bool  # f_thr >= f_a - 1e-6
    root_evals: int  # evaluations of g(F) = I_AB - max I_AE by the root-finder
    residual: float  # |I_AB - I_AE| at f_a
    y_at_bound: bool  # the optimizer returned y = 0 or y = y_max(n, f_a)
    stationarity: float  # |dI_AE/dy| at the returned y


def crossover_fidelity(n: int) -> ThresholdRecord:
    """Fidelity where the legitimate information meets the best attack's.

    Brent's method on g(F) = i_ab(F) - max_eve_info(F) over
    [1/N + 1e-6, 1 - 1e-6], run until the bracket is a few ulps of F
    wide; that takes about 10 evaluations of g.
    """
    n = check_dim(n)
    seen = {}  # F -> (optimal params, g(F)) for every F that g was evaluated at

    def g(fid: float) -> float:
        params, eve = max_eve_info(n, fid)
        seen[fid] = params, i_ab(_family(n, fid, 0.0)) - eve
        return seen[fid][1]

    f_a = _brent(g, 1.0 / n + BRACKET_PAD, 1.0 - BRACKET_PAD)
    params, gap = seen[f_a]
    v_thr = visibility_threshold(n)
    f_thr = fidelity_threshold(n)
    return ThresholdRecord(
        n=n,
        f_a=f_a,
        v=params.v,
        x=params.x,
        y=params.y,
        v_thr=v_thr,
        f_thr=f_thr,
        nonlocal_sufficient=bool(f_thr >= f_a - 1e-6),
        root_evals=len(seen),
        residual=abs(gap),
        y_at_bound=bool(params.y == 0.0 or params.y >= y_max(n, f_a)),
        stationarity=abs(_eve_slope(n, f_a, params.y)),
    )


def security_report(n_min: int, n_max: int) -> list[ThresholdRecord]:
    """Threshold records for every dimension in [n_min, n_max]."""
    n_min, n_max = strict_int("n_min", n_min), strict_int("n_max", n_max)
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    return [crossover_fidelity(n) for n in range(n_min, n_max + 1)]

