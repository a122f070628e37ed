"""Qudit primitives: the phase-gradient bases, the protocol angles and the input checks.

The input checks and the protocol angles load no numpy; ``phi_basis``,
which builds an array, imports it when called.

Conventions used throughout the package:

* A basis is an N x N unitary whose *columns* are the basis kets written
  in the computational basis.
* The measurement bases of interest form a one-parameter family: column
  l of ``phi_basis(n, phase)`` has computational components
  exp(1j*k*(2*pi*l/n + phase)) / sqrt(n).  Four members of the family,
  at phase = 2*pi*i/(4*n) for i in 0..3, play a special role in the
  protocol and are referred to by index throughout.
"""
from __future__ import annotations

import math
import numbers
from typing import Any

ATOL = 1e-12

TWO_PI = 2.0 * math.pi


def strict_int(name: str, value: Any) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


def finite_real(name: str, value: Any) -> float:
    """``value`` as a finite float; bools, strings, nan and inf are rejected."""
    real = isinstance(value, numbers.Real)
    if isinstance(value, bool) or not real or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_dim(n: int) -> int:
    """Validate a qudit dimension (an int >= 2, not a bool or float)."""
    n = strict_int("qudit dimension", n)
    if n < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {n}")
    return n


def phi_basis(n: int, phase: float) -> np.ndarray:
    """Phase-gradient basis, read-only: u[k, l] = exp(1j*k*(2*pi*l/n + phase)) / sqrt(n)."""
    import numpy as np

    n = check_dim(n)
    phase = finite_real("phase", phase)
    k = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    u = np.exp(1j * k * (TWO_PI * l / n + phase)) / math.sqrt(n)
    u.setflags(write=False)
    return u


def optimal_angles(n: int) -> tuple[float, ...]:
    """The four protocol angles 2*pi*i/(4*n), i = 0..3."""
    n = check_dim(n)
    return tuple(TWO_PI * i / (4 * n) for i in range(4))

