"""Overlaps of the generalized two-qudit Bell states over phase-gradient bases.

The states themselves are never built here.  Two label conventions
appear, distinguished by a ``variant`` tag:

* "RA": conjugate basis on the first slot, phase +2*pi*k*n/N, i.e.
  sum_k exp(+2j*pi*k*n/N) |conj(psi_k)> |psi_{k+m}> / sqrt(N)
* "BC": conjugate basis on the second slot, phase -2*pi*k*n/N, i.e.
  sum_k exp(-2j*pi*k*n/N) |psi_k> |conj(psi_{k+m})> / sqrt(N)

For a fixed unitary the N^2 states of either variant are orthonormal.
Overlaps between the RA families of two different basis angles have a
closed form; the BC case is its complex conjugate.  It is two geometric
series, summed here in ``cmath``, so this module loads no numpy.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qudit import check_dim, finite_real, strict_int

VARIANTS = ("RA", "BC")


@dataclass(frozen=True)
class BellIndex:
    """Shift index m, phase index n, and slot convention tag."""

    m: int
    n: int
    variant: str = "RA"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "m", strict_int("m", self.m))
        object.__setattr__(self, "n", strict_int("n", self.n))

    def normalized(self, dim: int) -> "BellIndex":
        return BellIndex(self.m % dim, self.n % dim, self.variant)


def overlap_matrix(n: int, phi1: float, phi2: float) -> tuple[tuple[complex, ...], ...]:
    """S[j][r]: every RA-family overlap between angle phi1 and angle phi2.

    S[j, r] = (1/N) sum_p exp(1j*(-p*dphi + q*(dphi + theta))) with
    q = (p - j) % N, dphi = phi2 - phi1 and theta = 2*pi*r/N, and the full
    overlap is <B(phi1, (i, j)) | B(phi2, (k, l))> = delta_{j,l} * S[j, (k-i) % N]:
    the phase index is conserved, and within a fixed phase index the
    value only depends on the shift difference.

    The sum splits at p = j into two geometric series.  With
    w = exp(1j*N*dphi) they give

        S[j, 0] = exp(-1j*j*dphi) * ((N - j) + w*j) / N
        S[j, r] = exp(-1j*j*(dphi + theta)) * (w - 1) * (1 - exp(1j*j*theta))
                  / (N * (1 - exp(1j*theta)))                         (r != 0)

    and every exp(1j*k*theta) is the N-th root of unity at k*r mod N.
    """
    n = check_dim(n)
    dphi = finite_real("phi2", phi2) - finite_real("phi1", phi1)
    roots = [cmath.rect(1.0, 2.0 * math.pi * k / n) for k in range(n)]
    return tuple(_overlap_row(n, j, dphi, range(n), roots) for j in range(n))


def _overlap_row(n: int, j: int, dphi: float, shifts, roots) -> tuple[complex, ...]:
    """S[j, r] of ``overlap_matrix`` for each r in ``shifts``, with roots[k] = exp(2j*pi*k/N)."""
    w = cmath.rect(1.0, n * dphi)
    turn = cmath.rect(1.0, -j * dphi)
    w_minus_1 = w - 1.0
    row = []
    for r in shifts:
        if r:
            # the first j terms of the series, sum_{p<j} exp(1j*p*theta), over N
            head = (1.0 - roots[j * r % n]) / (n * (1.0 - roots[r]))
            row.append(turn * roots[-j * r % n] * w_minus_1 * head)
        else:
            row.append(turn * ((n - j) + w * j) / n)
    return tuple(row)


def bell_overlap(n: int, phi1: float, phi2: float, idx1: BellIndex, idx2: BellIndex) -> complex:
    """<B(phi1, idx1) | B(phi2, idx2)> for same-variant index pairs: one entry of
    ``overlap_matrix``, computed alone and conjugated for the BC variant."""
    n = check_dim(n)
    phi1, phi2 = finite_real("phi1", phi1), finite_real("phi2", phi2)
    if idx1.variant != idx2.variant:
        raise ValueError("cannot mix RA and BC variants in one overlap")
    idx1, idx2 = idx1.normalized(n), idx2.normalized(n)
    if idx1.n != idx2.n:
        return 0.0 + 0.0j
    j, r = idx1.n, (idx2.m - idx1.m) % n
    roots = {k: cmath.rect(1.0, 2.0 * math.pi * k / n) for k in (r, j * r % n, -j * r % n)}
    (value,) = _overlap_row(n, j, phi2 - phi1, (r,), roots)
    return value.conjugate() if idx1.variant == "BC" else value
