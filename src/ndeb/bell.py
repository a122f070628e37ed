"""Overlaps of the generalized two-qudit Bell states over phase-gradient bases.

The states themselves are never built here.  Two label conventions
appear, distinguished by a ``variant`` tag:

* "RA": conjugate basis on the first slot, phase +2*pi*k*n/N, i.e.
  sum_k exp(+2j*pi*k*n/N) |conj(psi_k)> |psi_{k+m}> / sqrt(N)
* "BC": conjugate basis on the second slot, phase -2*pi*k*n/N, i.e.
  sum_k exp(-2j*pi*k*n/N) |psi_k> |conj(psi_{k+m})> / sqrt(N)

For a fixed unitary the N^2 states of either variant are orthonormal.
Overlaps between the RA families of two different basis angles have a
closed form; the BC case is its complex conjugate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def overlap_matrix(n: int, phi1: float, phi2: float) -> np.ndarray:
    """S[j, r]: every RA-family overlap between angle phi1 and angle phi2.

    S[j, r] = (1/N) sum_p exp(1j*(-p*dphi + q*(dphi + 2*pi*r/N))) with
    q = (p - j) % N and dphi = phi2 - phi1, and the full overlap is
    <B(phi1, (i, j)) | B(phi2, (k, l))> = delta_{j,l} * S[j, (k-i) % N]:
    the phase index is conserved, and within a fixed phase index the
    value only depends on the shift difference.
    """
    n = check_dim(n)
    dphi = finite_real("phi2", phi2) - finite_real("phi1", phi1)
    p = np.arange(n)
    q = (p - p[:, None]) % n  # q[j, p]
    theta = 2.0 * math.pi * p[:, None] / n  # theta[r, 0]
    return np.exp(1j * (-p * dphi + q[:, None, :] * (dphi + theta))).sum(axis=-1) / n


def bell_overlap(n: int, phi1: float, phi2: float, idx1: BellIndex, idx2: BellIndex) -> complex:
    """<B(phi1, idx1) | B(phi2, idx2)> for same-variant index pairs: one entry of
    ``overlap_matrix``, conjugated for the BC variant."""
    n = check_dim(n)
    phi1, phi2 = finite_real("phi1", phi1), finite_real("phi2", phi2)
    if idx1.variant != idx2.variant:
        raise ValueError("cannot mix RA and BC variants in one overlap")
    idx1, idx2 = idx1.normalized(n), idx2.normalized(n)
    if idx1.n != idx2.n:
        return 0.0 + 0.0j
    value = complex(overlap_matrix(n, phi1, phi2)[idx1.n, (idx2.m - idx1.m) % n])
    if idx1.variant == "BC":
        value = value.conjugate()
    return value
