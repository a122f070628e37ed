"""Shift-covariant four-slot attack states and their amplitude matrices.

An individual attack on the entangled pair is described by a pure state
on four slots ordered (reference, clone_a, clone_b, machine):

    sum_{m,n} a[m, n] * B_RA(m, n) (x) B_BC(m, n)

where B_RA / B_BC are the two Bell families of ``ndeb.bell`` built over
a common basis.  The amplitude matrix a[m, n] fully determines the
attack: row m carries the branch in which the key copy is shifted by m,
and the Fourier content of the row along n is what the eavesdropper can
resolve.

A matrix constant on the invariance classes returned by
``invariance_classes`` produces the *same* four-slot state no matter
which of the four protocol bases is used to build it, which is the
property that lets a single attack cover every sifted basis choice.
The three-parameter family ``CloneParams(v, x, y)`` - column 0 equal to
(v, x, ..., x), every other column constant y - is the symmetric member
of that invariant set used by the optimizer; ``joint_distribution``
gives its exact outcome tables in every pair of protocol bases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import overlap_matrix
from .qudit import ATOL, check_dim, finite_real

CLASS_TOL = 1e-9

# Basis index of the conjugate partner: conjugating the basis at angle
# 2*pi*i/(4N) gives back (up to a column relabeling) the optimal basis
# at index PARTNER[i].  Indices 0 and 2 are self-paired, 1 and 3 swap.
PARTNER = {0: 0, 1: 3, 2: 2, 3: 1}


@dataclass(frozen=True)
class AmplitudeMatrix:
    """General N x N complex attack amplitudes with unit total weight."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"amplitude matrix must be square, got {a.shape}")
        check_dim(a.shape[0])
        if not np.isfinite(a).all():
            raise ValueError("amplitude matrix holds a non-finite entry")
        total = float(np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"amplitude matrix norm^2 is {total}, expected 1 within 1e-12")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class CloneParams:
    """Symmetric attack family: a[0,0]=v, a[m,0]=x for m>=1, a[m,n]=y for n>=1."""

    dim: int
    v: float
    x: float
    y: float

    def __post_init__(self):
        n = check_dim(self.dim)
        v, x, y = float(self.v), float(self.x), float(self.y)
        if not all(math.isfinite(t) for t in (v, x, y)):
            raise ValueError(f"(v, x, y) must be finite, got {(v, x, y)}")
        if min(v, x, y) < 0.0:
            raise ValueError(f"(v, x, y) must be nonnegative, got {(v, x, y)}")
        total = v * v + (n - 1) * x * x + n * (n - 1) * y * y
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"v^2+(N-1)x^2+N(N-1)y^2 = {total}, expected 1 within 1e-12")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @staticmethod
    def identity(n: int) -> "CloneParams":
        """The no-disturbance attack (pass-through)."""
        return CloneParams(n, 1.0, 0.0, 0.0)


def params_to_matrix(p: CloneParams) -> AmplitudeMatrix:
    a = np.full((p.dim, p.dim), p.y, dtype=complex)
    a[0, 0] = p.v
    a[1:, 0] = p.x
    return AmplitudeMatrix(a)


def _coerce_matrix(p: CloneParams | AmplitudeMatrix) -> np.ndarray:
    if isinstance(p, CloneParams):
        return params_to_matrix(p).a
    if isinstance(p, AmplitudeMatrix):
        return p.a
    raise TypeError(f"expected CloneParams or AmplitudeMatrix, got {type(p)!r}")


@dataclass(frozen=True)
class ClassPartition:
    """Disjoint cover of the N x N index grid by invariance classes."""

    dim: int
    classes: tuple[frozenset[tuple[int, int]], ...]

    def __post_init__(self):
        n = check_dim(self.dim)
        seen: set[tuple[int, int]] = set()
        for cls in self.classes:
            for cell in cls:
                if cell in seen:
                    raise ValueError(f"cell {cell} appears in two classes")
                seen.add(cell)
        if seen != {(m, nn) for m in range(n) for nn in range(n)}:
            raise ValueError("classes do not cover the index grid exactly")

    def __len__(self) -> int:
        return len(self.classes)

    def sorted_classes(self) -> list[list[tuple[int, int]]]:
        """Classes with sorted members, ordered by their smallest member."""
        out = [sorted(cls) for cls in self.classes]
        out.sort(key=lambda cls: cls[0])
        return out


def invariance_classes(n: int, phis: Sequence[float]) -> ClassPartition:
    """Partition of amplitude indices forced equal by basis independence.

    Equality of the four-slot states built at two angles requires
    a[i, j] == a[k, j] whenever their overlap S[j, (k-i) % n] (see
    ``bell.overlap_matrix``) has modulus above CLASS_TOL; overlaps across
    phase indices vanish.  So column j splits into the cosets of the
    shifts r linked this way at any pair of angles in ``phis``: the
    g = gcd(n, every such r) classes {(m, j) : m = c mod g}.  For a pair
    of angles whose difference is not a multiple of 2*pi/n the result is
    2n - 1 classes: each column-0 cell is its own class and every other
    column is one class.
    """
    n = check_dim(n)
    phis = [finite_real(f"phis[{i}]", phi) for i, phi in enumerate(phis)]
    if len(phis) < 2:
        raise ValueError("need at least two angles to constrain the amplitudes")
    linked = np.zeros((n, n), dtype=bool)  # linked[j, r]
    for ai in range(len(phis)):
        for bi in range(ai + 1, len(phis)):
            linked |= np.abs(overlap_matrix(n, phis[ai], phis[bi])) > CLASS_TOL
    classes = []
    for j in range(n):
        g = math.gcd(n, *np.flatnonzero(linked[j]).tolist())
        classes += [frozenset((m, j) for m in range(c, n, g)) for c in range(g)]
    return ClassPartition(n, tuple(classes))


def fidelity_disturbances(p: CloneParams | AmplitudeMatrix) -> tuple[float, np.ndarray]:
    """(F, [D_1 .. D_{N-1}]): row weights of the amplitude matrix.

    F is the probability that the key copy is undisturbed and D_m the
    probability of a label shift by m; F + sum(D) = 1.
    """
    a = _coerce_matrix(p)
    row_weights = np.sum(np.abs(a) ** 2, axis=1)
    return float(row_weights[0]), row_weights[1:].astype(float)


def werner_noise_fraction(p: CloneParams) -> float:
    """Weight of the isotropic-noise component seen by the two key slots."""
    return 1.0 - (p.v * p.v - p.x * p.x)


def joint_distribution(p: CloneParams) -> np.ndarray:
    """P[a, b, k, l] for every Alice index a and Bob index b, shape (4, 4, N, N).

    The key pair is left in (v^2 - x^2) |phi+><phi+| + (x^2 - y^2)
    sum_k |kk><kk| + y^2 I.  Every protocol basis is unbiased with respect
    to the computational basis, so the last two terms give the flat
    (x^2 - y^2)/N + y^2 in every cell.  Alice's index-a outcome k is read
    in the conjugate of the partner basis PARTNER[a], Bob's index-b
    outcome l in the basis at angle 2*pi*b/(4N); on |phi+> the pair then
    scores the Fejer kernel

        T = sin^2(pi d/4) / (N^3 sin^2(pi (4(l - k) + d) / (4N))),

    d = b - PARTNER[a], and T = 1/N where 4(l - k) + d = 0 mod 4N.  On a
    conjugate pair (d = 0) the table is F/N on the matched diagonal and
    D_m/N on the shift-by-m diagonal.
    """
    n = p.dim
    d = np.arange(4) - np.array([PARTNER[a] for a in range(4)])[:, None]  # [a, b]
    shift = 4 * (np.arange(n) - np.arange(n)[:, None])  # [k, l] = 4(l - k)
    m = d[:, :, None, None] + shift
    kernel = np.divide(
        np.sin(np.pi * d / 4)[:, :, None, None] ** 2,
        n ** 3 * np.sin(np.pi * m / (4 * n)) ** 2,
        out=np.full(m.shape, 1.0 / n),
        where=m % (4 * n) != 0,
    )
    flat = (p.x * p.x - p.y * p.y) / n + p.y * p.y
    return (1.0 - werner_noise_fraction(p)) * kernel + flat
