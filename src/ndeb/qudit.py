"""Qudit primitives: states, phase-gradient bases and the input checks.

Conventions used throughout the package:

* A basis is an N x N unitary whose *columns* are the basis kets written
  in the computational basis.
* Multi-slot amplitudes are stored flat in row-major slot order, so the
  amplitude of |i>|j> sits at index i*N + j.
* The measurement bases of interest form a one-parameter family: column
  l of ``phi_basis(n, phase)`` has computational components
  exp(1j*k*(2*pi*l/n + phase)) / sqrt(n).  Four members of the family,
  at phase = 2*pi*i/(4*n) for i in 0..3, play a special role in the
  protocol and are referred to by index throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

ATOL = 1e-12

TWO_PI = 2.0 * math.pi


def strict_int(name: str, value: Any) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def finite_real(name: str, value: Any) -> float:
    """``value`` as a finite float; bools, strings, nan and inf are rejected."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_dim(n: int) -> int:
    """Validate a qudit dimension (an int >= 2, not a bool or float)."""
    n = strict_int("qudit dimension", n)
    if n < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {n}")
    return n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state on an ordered tuple of qudit slots."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(check_dim(d) for d in self.dims)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude vector has {amps.size} entries, expected {math.prod(dims)}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", _frozen(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_normalized(self, atol: float = ATOL) -> bool:
        return abs(self.norm() - 1.0) <= atol

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.dims != other.dims:
            raise ValueError(f"slot mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amps, other.amps))


@dataclass(frozen=True)
class BasisMatrix:
    """Unitary matrix whose columns are basis kets; ``label`` is a free tag."""

    dim: int
    u: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = check_dim(self.dim)
        u = np.array(self.u, dtype=complex)
        if u.shape != (n, n):
            raise ValueError(f"basis matrix must be {n}x{n}, got {u.shape}")
        if not np.allclose(u.conj().T @ u, np.eye(n), atol=ATOL):
            raise ValueError("basis matrix is not unitary within 1e-12")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "u", _frozen(u))

    def column(self, j: int) -> np.ndarray:
        return self.u[:, j % self.dim]


def phi_basis(n: int, phase: float) -> BasisMatrix:
    """Phase-gradient basis: u[k, l] = exp(1j*k*(2*pi*l/n + phase)) / sqrt(n)."""
    n = check_dim(n)
    phase = finite_real("phase", phase)
    k = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    u = np.exp(1j * k * (TWO_PI * l / n + phase)) / math.sqrt(n)
    return BasisMatrix(n, u, label=f"phi={phase:.10g}")


def optimal_angles(n: int) -> np.ndarray:
    """The four protocol angles 2*pi*i/(4*n), i = 0..3."""
    n = check_dim(n)
    return TWO_PI * np.arange(4) / (4 * n)

