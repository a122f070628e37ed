"""State algebra that only the tests use, built on the library's types.

Density matrices and partial traces, basis conjugation and relabelings,
the maximally entangled pair, the four-slot attack state, its reduced
two-slot state, the Werner state, the protocol measurement bases, the
outcome tables by an explicit Born-rule contraction, dense N^2 x N^2
Bell Gram matrices and the union-find invariance-class oracle live here
rather than in ``ndeb``: the library computes the same quantities in
closed form, and these slower, more literal routes are what the tests
compare it with.  Unlike ``born_oracle`` they reuse ``ndeb``'s states
and bases.
"""
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ndeb.bell import BellIndex, bell_state
from ndeb.cloner import (
    CLASS_TOL,
    PARTNER,
    AmplitudeMatrix,
    ClassPartition,
    CloneParams,
    _coerce_matrix,
)
from ndeb.qudit import (
    ATOL,
    BasisMatrix,
    StateVector,
    check_dim,
    optimal_angles,
    phi_basis,
)

EIG_ATOL = 1e-10


# ---------------------------------------------------------------- states


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on qudit slots."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(check_dim(d) for d in self.dims)
        size = math.prod(dims)
        rho = np.array(self.entries, dtype=complex)
        if rho.shape != (size, size):
            raise ValueError(f"density matrix must be {size}x{size}, got {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=ATOL):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
            raise ValueError("density matrix trace differs from 1 by more than 1e-12")
        if np.linalg.eigvalsh(rho).min() < -EIG_ATOL:
            raise ValueError("density matrix has an eigenvalue below -1e-10")
        rho.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", rho)


def max_entangled(n: int) -> StateVector:
    """(1/sqrt(n)) * sum_k |k>|k> on two slots.

    The same state re-expands as (1/sqrt(n)) * sum_k |conj(psi_k)>|psi_k>
    for the columns psi_k of any unitary, which is what makes basis
    agreement between the two ends of the pair possible.
    """
    n = check_dim(n)
    amps = np.eye(n, dtype=complex).reshape(-1) / math.sqrt(n)
    return StateVector((n, n), amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.dims + b.dims, np.kron(a.amps, b.amps))


def as_tensor(psi: StateVector) -> np.ndarray:
    return psi.amps.reshape(psi.dims)


def density(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.dims, np.outer(psi.amps, psi.amps.conj()))


def states_equal_up_to_phase(a: StateVector, b: StateVector, atol: float = 1e-10) -> bool:
    """True when |<a|b>| = 1 within atol (both states assumed normalized)."""
    return abs(abs(a.inner(b)) - 1.0) <= atol


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all slots not listed in ``keep`` (kept slots stay in order)."""
    k = len(rho.dims)
    keep = sorted(int(s) for s in keep)
    if len(set(keep)) != len(keep) or any(s < 0 or s >= k for s in keep):
        raise ValueError(f"keep={keep!r} is not a valid subset of slots 0..{k - 1}")
    if not keep:
        raise ValueError("cannot trace out every slot")
    letters = "abcdefghijklmnop"
    row = list(letters[:k])
    col = list(letters[k:2 * k])
    for s in range(k):
        if s not in keep:
            col[s] = row[s]
    out = "".join(row[s] for s in keep) + "".join(col[s] for s in keep)
    spec = "".join(row) + "".join(col) + "->" + out
    t = rho.entries.reshape(rho.dims + rho.dims)
    kept_dims = tuple(rho.dims[s] for s in keep)
    size = math.prod(kept_dims)
    return DensityMatrix(kept_dims, np.einsum(spec, t).reshape(size, size))


# ---------------------------------------------------------------- bases


def conjugate_basis(b: BasisMatrix) -> BasisMatrix:
    """Entrywise complex conjugate of ``b`` (columns keep their labels)."""
    return BasisMatrix(b.dim, b.u.conj(), label=f"conj({b.label})")


def computational_basis(n: int) -> BasisMatrix:
    return BasisMatrix(check_dim(n), np.eye(n, dtype=complex), label="comp")


def mutual_unbiasedness_defect(a: BasisMatrix, b: BasisMatrix) -> float:
    """max_{i,j} | |<a_i|b_j>|^2 - 1/n |, zero iff the pair is unbiased."""
    if a.dim != b.dim:
        raise ValueError("bases act on different dimensions")
    overlaps = np.abs(a.u.conj().T @ b.u) ** 2
    return float(np.max(np.abs(overlaps - 1.0 / a.dim)))


def cyclic_shift(n: int) -> np.ndarray:
    """One-slot operator advancing every phase-gradient basis label by one.

    In the computational basis this is diag(w^j) with w = exp(2j*pi/n);
    it sends column l of phi_basis(n, phase) to column l+1 mod n for
    every value of phase, and n applications give the identity.
    """
    n = check_dim(n)
    return np.diag(np.exp(2j * math.pi * np.arange(n) / n))


def basis_relabeling(a: BasisMatrix, b: BasisMatrix, atol: float = 1e-10) -> list[int] | None:
    """Column permutation p with a.column(k) equal to b.column(p[k]) up to phase.

    Returns None when the two bases are not the same set of rays.
    """
    if a.dim != b.dim:
        return None
    overlaps = np.abs(b.u.conj().T @ a.u)  # overlaps[p, k] = |<b_p|a_k>|
    perm = []
    for k in range(a.dim):
        hits = np.nonzero(overlaps[:, k] > 1.0 - atol)[0]
        if hits.size != 1:
            return None
        perm.append(int(hits[0]))
    if len(set(perm)) != a.dim:
        return None
    return perm


# ---------------------------------------------------------------- Bell overlaps


def bell_basis(basis: BasisMatrix, variant: str = "RA") -> np.ndarray:
    """All N^2 Bell vectors as columns; (m, n) maps to column m*N + n."""
    n = basis.dim
    cols = np.empty((n * n, n * n), dtype=complex)
    for m in range(n):
        for nn in range(n):
            cols[:, m * n + nn] = bell_state(basis, BellIndex(m, nn, variant)).amps
    return cols


@functools.lru_cache(maxsize=64)
def phi_bell_basis(n: int, phi: float) -> np.ndarray:
    """``bell_basis`` over ``phi_basis(n, phi)``, read-only and cached."""
    cols = bell_basis(phi_basis(n, phi))
    cols.setflags(write=False)
    return cols


def brute_force_gram(n: int, phi1: float, phi2: float) -> np.ndarray:
    """All RA overlaps <B(phi1, (i, j)) | B(phi2, (k, l))> at [i*N + j, k*N + l]."""
    return phi_bell_basis(n, float(phi1)).conj().T @ phi_bell_basis(n, float(phi2))


def expand_overlap_table(table: np.ndarray) -> np.ndarray:
    """The N^2 x N^2 Gram matrix delta_{j,l} * table[j, (k-i) % N] of a compact table."""
    n = table.shape[0]
    mat = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                mat[i * n + j, k * n + j] = table[j, (k - i) % n]
    return mat


def union_find_classes(n: int, phis: Sequence[float], tol: float = CLASS_TOL) -> ClassPartition:
    """Invariance classes by joining every pair of cells a dense Gram matrix links.

    Cells (i, j) and (k, l) are joined whenever the brute-force overlap
    between any two angles in ``phis`` connects them with modulus above
    ``tol``.
    """
    parent = list(range(n * n))

    def find(z: int) -> int:
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    for ai in range(len(phis)):
        for bi in range(ai + 1, len(phis)):
            gram = brute_force_gram(n, phis[ai], phis[bi])
            for row, col in np.argwhere(np.abs(gram) > tol):
                parent[find(int(col))] = find(int(row))
    groups: dict[int, set[tuple[int, int]]] = {}
    for m in range(n):
        for nn in range(n):
            groups.setdefault(find(m * n + nn), set()).add((m, nn))
    return ClassPartition(n, tuple(frozenset(g) for g in groups.values()))


# ---------------------------------------------------------------- attack states


def build_attack_state(basis: BasisMatrix, amps: AmplitudeMatrix | CloneParams) -> StateVector:
    """Four-slot attack state sum_{m,n} a[m,n] B_RA(m,n) (x) B_BC(m,n)."""
    a = _coerce_matrix(amps)
    n = basis.dim
    if a.shape[0] != n:
        raise ValueError(f"amplitude matrix is {a.shape[0]}x..., basis dim is {n}")
    out = np.zeros(n ** 4, dtype=complex)
    for m in range(n):
        for nn in range(n):
            if a[m, nn] == 0:
                continue
            ra = bell_state(basis, BellIndex(m, nn, "RA")).amps
            bc = bell_state(basis, BellIndex(m, nn, "BC")).amps
            out += a[m, nn] * np.kron(ra, bc)
    return StateVector((n, n, n, n), out)


def traced_reduced_state(p: CloneParams) -> DensityMatrix:
    """The (reference, clone_a) state: the attack state in the first protocol
    basis with the eavesdropper's two slots traced out."""
    psi = build_attack_state(phi_basis(p.dim, 0.0), p)
    return partial_trace(density(psi), keep=(0, 1))


def werner_state(n: int, noise_fraction: float) -> DensityMatrix:
    """(1 - f) |phi+><phi+| + f * I / N^2 on two slots."""
    n = check_dim(n)
    if not 0.0 <= noise_fraction <= 1.0 + 1e-12:
        raise ValueError(f"noise fraction must lie in [0, 1], got {noise_fraction}")
    phi = max_entangled(n).amps
    rho = (1.0 - noise_fraction) * np.outer(phi, phi.conj())
    rho += noise_fraction * np.eye(n * n) / (n * n)
    return DensityMatrix((n, n), rho)


def reduced_state_ra(p: CloneParams) -> DensityMatrix:
    """State of the (reference, clone_a) pair after the attack, written out:

        (v^2 - x^2) |phi+><phi+| + (x^2 - y^2) sum_k |kk><kk| + y^2 I
    """
    n = p.dim
    v2, x2, y2 = p.v ** 2, p.x ** 2, p.y ** 2
    phi = max_entangled(n).amps
    rho = (v2 - x2) * np.outer(phi, phi.conj())
    diag = np.zeros(n * n)
    diag[np.arange(n) * n + np.arange(n)] = x2 - y2
    rho += np.diag(diag)
    rho += y2 * np.eye(n * n)
    return DensityMatrix((n, n), rho)


# ---------------------------------------------------------------- outcome tables


def alice_measurement_basis(n: int, index: int) -> BasisMatrix:
    """Measurement basis named by Alice's protocol index.

    Alice's index-i measurement is the conjugate of the *partner* basis
    PARTNER[i].  As a set of rays this is exactly the optimal basis at
    angle 2*pi*i/(4N); taking the conjugate-partner labeling instead of
    the plain one makes her outcome equal Bob's (rather than related by
    a fixed flip) whenever the pair of indices is conjugate.
    """
    n = check_dim(n)
    if index not in (0, 1, 2, 3):
        raise ValueError(f"basis index must be in 0..3, got {index}")
    angles = optimal_angles(n)
    return conjugate_basis(phi_basis(n, angles[PARTNER[index]]))


def bob_measurement_basis(n: int, index: int) -> BasisMatrix:
    """Bob's index-j measurement: the optimal basis at angle 2*pi*j/(4N)."""
    n = check_dim(n)
    if index not in (0, 1, 2, 3):
        raise ValueError(f"basis index must be in 0..3, got {index}")
    return phi_basis(n, optimal_angles(n)[index])


def state_tables(rho: DensityMatrix) -> np.ndarray:
    """P[a, b, k, l] = <alpha_k beta_l| rho |alpha_k beta_l> for a two-slot state,
    with alpha = Alice's index-a basis and beta = Bob's index-b basis."""
    n = rho.dims[0]
    ua = np.stack([alice_measurement_basis(n, a).u for a in range(4)])
    ub = np.stack([bob_measurement_basis(n, b).u for b in range(4)])
    return np.einsum(
        "aik,bjl,ijxy,axk,byl->abkl",
        ua.conj(), ub.conj(), rho.entries.reshape(n, n, n, n), ua, ub,
        optimize=True,
    ).real


def einsum_joint_distribution(p: CloneParams) -> np.ndarray:
    """``joint_distribution`` by contracting the written-out reduced state."""
    return state_tables(reduced_state_ra(p))
