"""Shannon information for the attacked key channel (base-2 throughout).

The legitimate channel is symmetric: correct symbol with probability F,
each of the N-1 shifts with probability D_m, so

    i_ab = log2(N) + F*log2(F) + sum_m D_m*log2(D_m).

The eavesdropper learns the shift branch m exactly and, within branch
m, her best symbol guess is off by d with probability

    p_d = |sum_n a[m, n] * exp(2j*pi*d*n/N)|^2 / (N * w_m)
        = |N * ifft(a[m])[d]|^2 / (N * w_m),    w_m = sum_n |a[m, n]|^2

so her information is log2(N) minus the branch-averaged entropy of
those conditionals, summed over the distinct rows of ``branch_rows``
weighted by the number of branches that share each.
"""
from __future__ import annotations

import math

import numpy as np

from .cloner import AmplitudeMatrix, CloneParams, branch_rows, fidelity_disturbances
from .qudit import number_array, strict_int

PROB_ATOL = 1e-10


def _as_prob_dist(dist) -> np.ndarray:
    p = np.asarray(number_array("distribution", dist, "iuf"), dtype=float).reshape(-1)
    if p.size == 0:
        raise ValueError("empty probability distribution")
    if not np.isfinite(p).all():
        raise ValueError(f"probabilities must be finite, got {p}")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min()}")
    if abs(p.sum() - 1.0) > PROB_ATOL:
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1 within 1e-10")
    return np.clip(p, 0.0, None)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis of nonnegative p; 0*log(0) = 0."""
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -np.sum(p * logs, axis=-1)


def entropy(dist) -> float:
    """Shannon entropy in bits; 0*log(0) = 0."""
    return float(_entropy_bits(_as_prob_dist(dist)))


def i_ab(p: CloneParams | AmplitudeMatrix) -> float:
    """Mutual information of the sifted key symbols, in bits."""
    fid, dist = fidelity_disturbances(p)
    return math.log2(dist.size + 1) - entropy(np.concatenate(([fid], dist)))


def eve_branches(rows) -> tuple[np.ndarray, np.ndarray]:
    """(w, p[..., d]): branch weights and the eavesdropper's conditionals.

    ``rows`` holds amplitude rows a[m, :] along its last axis; a branch
    of zero weight gets the all-zero conditional.
    """
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[-1]
    w = np.sum(np.abs(rows) ** 2, axis=-1)
    amps = np.abs(n * np.fft.ifft(rows, axis=-1)) ** 2
    # divide by N*w itself, not by 1/(N*w): the reciprocal of a subnormal
    # weight overflows to inf, while |N*ifft|^2 <= N*w keeps p finite
    norm = (n * w)[..., None]
    p = np.divide(amps, norm, out=np.zeros_like(amps), where=norm > 0.0)
    return w, p


def eve_conditional(p: CloneParams | AmplitudeMatrix, m: int) -> np.ndarray:
    """Distribution of (Alice's symbol - Eve's estimate) within branch m (mod N)."""
    m = strict_int("m", m)
    rows, counts = branch_rows(p)
    row_of_branch = np.repeat(np.arange(counts.size), counts)
    weight, cond = eve_branches(rows[row_of_branch[m % row_of_branch.size]])
    if weight <= 0.0:
        raise ValueError(f"branch {m} has zero weight")
    return cond


def i_ae(p: CloneParams | AmplitudeMatrix) -> float:
    """Eavesdropper's information about Alice's sifted symbol, in bits."""
    rows, counts = branch_rows(p)
    w, cond = eve_branches(rows)
    # fsum rounds once, so two rows with counts and the N rows they stand for agree
    return math.log2(rows.shape[-1]) - math.fsum(counts * w * _entropy_bits(cond))
