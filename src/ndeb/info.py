"""The symmetric attack and its Shannon information, in closed form (base 2 throughout).

``CloneParams(v, x, y)`` is the symmetric shift-covariant attack: its
amplitude matrix has the row (v, y, ..., y) for the branch that leaves
the key copy alone and the row (x, y, ..., y) for each of the N - 1
branches that shift it.  A row (c, y, ..., y) has weight
w = c^2 + (N-1) y^2, so the legitimate channel gives the correct symbol
with probability F = v^2 + (N-1) y^2 and each shift with
D = x^2 + (N-1) y^2:

    i_ab = log2(N) + F*log2(F) + (N-1)*D*log2(D).

The eavesdropper learns the branch exactly; within a branch of row
(c, y, ..., y) her best symbol guess is off by d with probability
|sum_n a_n exp(2j*pi*d*n/N)|^2 / (N w), which is

    P = (c + (N-1) y)^2 / (N w) at d = 0,   (c - y)^2 / (N w) at each d != 0,

so her information is log2(N) plus k*w*sum_d p_d*log2(p_d) over the two
rows, with k = 1 for the v row and N - 1 for the x row.  Each sum is one
``math.fsum``, which rounds once.  Nothing here loads numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .qudit import ATOL, check_dim, finite_real


@dataclass(frozen=True)
class CloneParams:
    """Symmetric attack family: a[0,0]=v, a[m,0]=x for m>=1, a[m,n]=y for n>=1."""

    dim: int
    v: float
    x: float
    y: float

    def __post_init__(self):
        n = check_dim(self.dim)
        v, x, y = (finite_real(name, getattr(self, name)) for name in "vxy")
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


def row_weights(p: CloneParams) -> tuple[float, float]:
    """(F, D): the weight of the unshifted row and of each of the N - 1 shifted rows."""
    if not isinstance(p, CloneParams):
        raise TypeError(f"expected CloneParams, got {type(p)!r}")
    flat = (p.dim - 1) * p.y * p.y
    return p.v * p.v + flat, p.x * p.x + flat


def _xlog2x(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


def i_ab(p: CloneParams) -> float:
    """Mutual information of the sifted key symbols, in bits."""
    fid, miss = row_weights(p)
    n = p.dim
    return math.log2(n) + math.fsum((_xlog2x(fid), (n - 1) * _xlog2x(miss)))


def i_ae(p: CloneParams) -> float:
    """Eavesdropper's information about Alice's sifted symbol, in bits."""
    fid, miss = row_weights(p)
    n, y = p.dim, p.y
    terms = []
    for c, k, w in ((p.v, 1, fid), (p.x, n - 1, miss)):
        if w > 0.0:  # a branch of zero weight adds nothing
            hit, off = (c + (n - 1) * y) ** 2 / (n * w), (c - y) ** 2 / (n * w)
            terms += (k * w * _xlog2x(hit), k * w * (n - 1) * _xlog2x(off))
    return math.log2(n) + math.fsum(terms)
