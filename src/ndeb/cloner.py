"""Shift-covariant attacks: invariance classes and outcome tables.

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
The library computes with one member of that invariant set, the
symmetric family ``CloneParams(v, x, y)`` of ``ndeb.info``: two
distinct rows, (v, y, ..., y) once and (x, y, ..., y) N - 1 times.
``joint_distribution`` gives its exact outcome tables in every pair of
protocol bases.  The module runs in plain Python and loads no numpy.
General amplitude matrices are built only by the tests.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .bell import overlap_matrix
from .info import CloneParams
from .qudit import check_dim, finite_real

CLASS_TOL = 1e-9

# Basis index of the conjugate partner: conjugating the basis at angle
# 2*pi*i/(4N) gives back (up to a column relabeling) the optimal basis
# at index PARTNER[i].  Indices 0 and 2 are self-paired, 1 and 3 swap.
PARTNER = {0: 0, 1: 3, 2: 2, 3: 1}


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
    g = gcd(n, every such r) classes {(m, j) : m = c mod g}.

    How many classes that gives follows from the closed form of S.  With
    dphi the angle difference, |w - 1| = |2 sin(n dphi / 2)| and
    |1 - exp(1j*k*theta)| = |2 sin(k theta / 2)|, so for r != 0

        |S[j, r]| = |2 sin(n dphi/2)| |sin(pi j r/n)| / (n |sin(pi r/n)|).

    Column 0 links no shift (sin(0) = 0), so its n cells are n classes.
    If n dphi is not a multiple of 2*pi, every column j != 0 links r = 1
    (sin(pi j/n) != 0), so it is one class: 2n - 1 classes in all.  If
    n dphi is a multiple of 2*pi, no shift is linked and each of the n^2
    cells is its own class.  Several angles give 2n - 1 classes as soon
    as one pair of them does.
    """
    n = check_dim(n)
    phis = [finite_real(f"phis[{i}]", phi) for i, phi in enumerate(phis)]
    if len(phis) < 2:
        raise ValueError("need at least two angles to constrain the amplitudes")
    linked = [set() for _ in range(n)]  # linked[j]: shifts r linked in column j
    for phi1, phi2 in itertools.combinations(phis, 2):
        for shifts, row in zip(linked, overlap_matrix(n, phi1, phi2)):
            shifts.update(r for r, s in enumerate(row) if abs(s) > CLASS_TOL)
    classes = []
    for j, shifts in enumerate(linked):
        g = math.gcd(n, *shifts)
        classes += [frozenset((m, j) for m in range(c, n, g)) for c in range(g)]
    return ClassPartition(n, tuple(classes))


def werner_noise_fraction(p: CloneParams) -> float:
    """Weight of the isotropic-noise component seen by the two key slots."""
    return 1.0 - (p.v * p.v - p.x * p.x)


def joint_distribution(p: CloneParams) -> tuple:
    """P[a][b][k][l] for every Alice index a and Bob index b, as nested
    tuples of shape (4, 4, N, N).

    The key pair is left in (v^2 - x^2) |phi+><phi+| + (x^2 - y^2)
    sum_k |kk><kk| + y^2 I.  Every protocol basis is unbiased with respect
    to the computational basis, so the last two terms give the flat
    (x^2 - y^2)/N + y^2 in every cell.  Alice's index-a outcome k is read
    in the conjugate of the partner basis PARTNER[a], Bob's index-b
    outcome l in the basis at angle 2*pi*b/(4N); on |phi+> the pair then
    scores the Fejer kernel

        T = sin^2(pi d/4) / (N^3 sin^2(pi m / (4N))),   m = 4(l - k) + d,

    d = b - PARTNER[a], and T = 1/N where m = 0 mod 4N.  On a conjugate
    pair (d = 0) the table is F/N on the matched diagonal and D_m/N on the
    shift-by-m diagonal.  A table depends on (a, b) only through d, and
    its row k is row 0 shifted right by k, so each of the seven tables is
    built once from one value per m and shared by the basis pairs with
    that d.
    """
    n = p.dim
    coef = 1.0 - werner_noise_fraction(p)
    flat = (p.x * p.x - p.y * p.y) / n + p.y * p.y
    tables = {}
    for d in range(-3, 4):
        top = math.sin(math.pi * d / 4)
        top *= top
        cells = []  # cells[t + n - 1]: the cell with l - k = t
        for t in range(1 - n, n):
            m = d + 4 * t
            if m % (4 * n):
                s = math.sin(math.pi * m / (4 * n))
                kernel = top / (n ** 3 * (s * s))
            else:
                kernel = 1.0 / n
            cells.append(coef * kernel + flat)
        tables[d] = tuple(tuple(cells[n - 1 - k:2 * n - 1 - k]) for k in range(n))
    return tuple(tuple(tables[b - PARTNER[a]] for b in range(4)) for a in range(4))
