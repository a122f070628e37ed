"""Security thresholds: information crossover and local-realism bounds.

For a fixed fidelity F the symmetric attack family has one free knob,
the flat amplitude y; the crossover fidelity is the F at which the
eavesdropper's best information over that knob meets the legitimate
channel's.  Below the crossover one-way postprocessing cannot distill
a key, so the crossover is the security border against this attack.

The local-realism bound comes the other way: the visibility threshold
below which the measured correlations admit a local model, converted to
a fidelity through F = (N-1)/N * V + 1/N for the isotropic mixture.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .cloner import CloneParams
from .info import eve_info, i_ab
from .qudit import check_dim

GRID_POINTS = 129
ZOOM_TOL = 1e-10
BRACKET_PAD = 1e-6
FEAS_TOL = 1e-12
# Brent stops once the bracket is narrower than ROOT_XTOL + ROOT_RTOL * |F|.
ROOT_XTOL = 1e-16
ROOT_RTOL = 4 * sys.float_info.epsilon
ROOT_MAX_STEPS = 100


def y_max(n: int, fidelity: float) -> float:
    """Largest flat amplitude compatible with fidelity F at dimension n."""
    cap = min(fidelity / (n - 1), (1.0 - fidelity) / (n - 1) ** 2)
    return math.sqrt(max(cap, 0.0))


def clone_family_at_fidelity(n: int, fidelity: float, y: float) -> CloneParams:
    """Member of the fixed-fidelity family at flat amplitude y.

    Solves v^2 = F - (N-1) y^2 and x^2 = (1-F)/(N-1) - (N-1) y^2 and
    clamps roundoff-negative squares (never below -1e-12) to zero.
    """
    v2 = fidelity - (n - 1) * y * y
    x2 = (1.0 - fidelity) / (n - 1) - (n - 1) * y * y
    if v2 < -FEAS_TOL or x2 < -FEAS_TOL:
        raise ValueError(
            f"y={y} is infeasible at fidelity {fidelity} (v^2={v2}, x^2={x2})"
        )
    return CloneParams(n, math.sqrt(max(v2, 0.0)), math.sqrt(max(x2, 0.0)), y)


def _eve_info_curve(n: int, fidelity: float, ys: np.ndarray) -> np.ndarray:
    """Eavesdropper information along the fixed-fidelity family.

    Its matrix has two distinct rows: (v, y, ..., y) for branch 0 and
    (x, y, ..., y) for each of the N-1 shifted branches.
    """
    ys = np.asarray(ys, dtype=float)
    rows = np.empty(ys.shape + (2, n))
    rows[..., 1:] = ys[..., None, None]
    flat = (n - 1) * ys ** 2
    rows[..., 0, 0] = np.sqrt(np.clip(fidelity - flat, 0.0, None))
    rows[..., 1, 0] = np.sqrt(np.clip((1.0 - fidelity) / (n - 1) - flat, 0.0, None))
    return eve_info(rows, [1, n - 1])


def max_eve_info(n: int, fidelity: float) -> tuple[CloneParams, float]:
    """Best attack at fixed fidelity: (optimal params, eavesdropper bits).

    A GRID_POINTS grid over y in [lo, hi] = [0, y_max] locates the peak;
    the grid is then re-laid over the two cells around it until
    hi - lo <= 1e-10.  Ties go to the smaller y.
    """
    if not 1.0 / n <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [1/{n}, 1], got {fidelity}")
    lo, hi = 0.0, y_max(n, fidelity)
    while True:
        ys = np.linspace(lo, hi, GRID_POINTS)
        vals = _eve_info_curve(n, fidelity, ys)
        best = int(np.argmax(vals))  # first max = smallest y on ties
        if hi - lo <= ZOOM_TOL:
            return clone_family_at_fidelity(n, fidelity, float(ys[best])), float(vals[best])
        lo = ys[max(best - 1, 0)]
        hi = ys[min(best + 1, GRID_POINTS - 1)]


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
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
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
    y_at_bound: bool  # the optimal y sits within ZOOM_TOL of 0 or y_max(n, f_a)


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
        seen[fid] = params, i_ab(clone_family_at_fidelity(n, fid, 0.0)) - eve
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
        y_at_bound=bool(params.y <= ZOOM_TOL or params.y >= y_max(n, f_a) - ZOOM_TOL),
    )


def security_report(n_min: int, n_max: int) -> list[ThresholdRecord]:
    """Threshold records for every dimension in [n_min, n_max]."""
    if not 2 <= n_min <= n_max:
        raise ValueError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    return [crossover_fidelity(n) for n in range(n_min, n_max + 1)]

