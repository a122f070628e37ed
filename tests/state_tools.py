"""State algebra that only the tests use, built on ``ndeb.qudit.phi_basis``.

Pure states and bases as types, the Bell states built over a basis and
their brute-force overlaps, the overlap table by its defining numpy
sum, density matrices and partial traces, basis conjugation and
relabelings, the maximally entangled pair, the four-slot attack state,
its reduced two-slot state, the Werner state, the protocol measurement
bases, the outcome tables by an explicit Born-rule contraction, dense
N^2 x N^2 Bell Gram matrices, the union-find invariance-class oracle,
general amplitude matrices and the eavesdropper's information from the
FFT of their rows live here rather than in ``ndeb``: the library
computes the same quantities in closed form, and these slower, more
literal routes are what the tests compare it with.  So do the helpers
only the tests call: ``entropy``, the row weights as
``fidelity_disturbances``, and ``numpy_joint_distribution``, the numpy
expression the library's plain-Python tables must match bit for bit.
Unlike ``born_oracle`` they take the protocol bases from the library's
``phi_basis``, which stays their one definition.

Multi-slot amplitudes are stored flat in row-major slot order, so the
amplitude of |i>|j> sits at index i*N + j.
"""
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ndeb.bell import BellIndex
from ndeb.cloner import CLASS_TOL, PARTNER, ClassPartition, CloneParams, werner_noise_fraction
from ndeb.info import row_weights
from ndeb.qudit import ATOL, check_dim, finite_real, optimal_angles, phi_basis, strict_int

EIG_ATOL = 1e-10
PROB_ATOL = 1e-10


# ---------------------------------------------------------------- states


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


def phi_basis_matrix(n: int, phase: float) -> BasisMatrix:
    """``ndeb.qudit.phi_basis(n, phase)`` as a ``BasisMatrix``."""
    u = phi_basis(n, phase)
    return BasisMatrix(n, u, label=f"phi={float(phase):.10g}")


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


def bell_state(basis: BasisMatrix, idx: BellIndex) -> StateVector:
    """Bell state for ``idx`` over the columns of ``basis``."""
    n_dim = basis.dim
    m, n = idx.m % n_dim, idx.n % n_dim
    u = basis.u
    k = np.arange(n_dim)
    shifted = u[:, (k + m) % n_dim]
    if idx.variant == "RA":
        phases = np.exp(2j * math.pi * k * n / n_dim)
        tensor = np.einsum("k,ik,jk->ij", phases, u.conj(), shifted)
    else:
        phases = np.exp(-2j * math.pi * k * n / n_dim)
        tensor = np.einsum("k,ik,jk->ij", phases, u, shifted.conj())
    return StateVector((n_dim, n_dim), tensor.reshape(-1) / math.sqrt(n_dim))


def brute_force_overlap(
    n: int, phi1: float, phi2: float, idx1: BellIndex, idx2: BellIndex
) -> complex:
    """<B(phi1, idx1) | B(phi2, idx2)> by building both vectors and contracting them."""
    n = check_dim(n)
    phi1, phi2 = finite_real("phi1", phi1), finite_real("phi2", phi2)
    if idx1.variant != idx2.variant:
        raise ValueError("cannot mix RA and BC variants in one overlap")
    b1, b2 = phi_basis_matrix(n, phi1), phi_basis_matrix(n, phi2)
    return bell_state(b1, idx1.normalized(n)).inner(bell_state(b2, idx2.normalized(n)))


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
    cols = bell_basis(phi_basis_matrix(n, phi))
    cols.setflags(write=False)
    return cols


def brute_force_gram(n: int, phi1: float, phi2: float) -> np.ndarray:
    """All RA overlaps <B(phi1, (i, j)) | B(phi2, (k, l))> at [i*N + j, k*N + l]."""
    return phi_bell_basis(n, float(phi1)).conj().T @ phi_bell_basis(n, float(phi2))


def overlap_sum_table(n: int, phi1: float, phi2: float) -> np.ndarray:
    """``bell.overlap_matrix`` by its defining sum over p, vectorized in numpy:
    S[j, r] = (1/N) sum_p exp(1j*(-p*dphi + q*(dphi + 2*pi*r/N))), q = (p - j) % N."""
    n = check_dim(n)
    dphi = finite_real("phi2", phi2) - finite_real("phi1", phi1)
    p = np.arange(n)
    q = (p - p[:, None]) % n  # q[j, p]
    theta = 2.0 * math.pi * p[:, None] / n  # theta[r, 0]
    return np.exp(1j * (-p * dphi + q[:, None, :] * (dphi + theta))).sum(axis=-1) / n


def overlap_sum_gram(n: int, phi1: float, phi2: float) -> np.ndarray:
    """The N^2 x N^2 Gram matrix of ``overlap_sum_table``."""
    return expand_overlap_table(overlap_sum_table(n, phi1, phi2))


def expand_overlap_table(table) -> np.ndarray:
    """The N^2 x N^2 Gram matrix delta_{j,l} * table[j, (k-i) % N] of a compact table."""
    table = np.asarray(table)
    n = table.shape[0]
    i, j, k = np.ogrid[:n, :n, :n]
    mat = np.zeros((n, n, n, n), dtype=complex)  # [i, j, k, l]
    mat[i, j, k, j] = table[j, (k - i) % n]
    return mat.reshape(n * n, n * n)


def union_find_classes(
    n: int, phis: Sequence[float], tol: float = CLASS_TOL, gram=brute_force_gram
) -> ClassPartition:
    """Invariance classes by joining every pair of cells a dense Gram matrix links.

    Cells (i, j) and (k, l) are joined whenever the overlap ``gram(n, a, b)``
    between any two angles a, b in ``phis`` connects them with modulus above
    ``tol``; by default the overlaps of the brute-force Bell vectors.
    """
    parent = list(range(n * n))

    def find(z: int) -> int:
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    for ai in range(len(phis)):
        for bi in range(ai + 1, len(phis)):
            overlaps = gram(n, phis[ai], phis[bi])
            for row, col in np.argwhere(np.abs(overlaps) > tol).tolist():
                parent[find(col)] = find(row)
    groups: dict[int, set[tuple[int, int]]] = {}
    for m in range(n):
        for nn in range(n):
            groups.setdefault(find(m * n + nn), set()).add((m, nn))
    return ClassPartition(n, tuple(frozenset(g) for g in groups.values()))


# ---------------------------------------------------------------- amplitude matrices


def number_array(name: str, value, kinds: str) -> np.ndarray:
    """``value`` as an array whose dtype kind is one of ``kinds``.

    Bools are rejected too, also inside a list that numpy would promote
    to floats along with the numbers beside them.
    """
    cells = () if isinstance(value, np.ndarray) else np.array(value, dtype=object).flat
    arr = np.asarray(value)
    if arr.dtype.kind not in kinds or any(isinstance(c, (bool, np.bool_)) for c in cells):
        raise ValueError(f"{name} entries must be numbers, got {value!r}")
    return arr


@dataclass(frozen=True)
class AmplitudeMatrix:
    """General N x N complex attack amplitudes with unit total weight."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(number_array("amplitude matrix", self.a, "iufc"), dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"amplitude matrix must be square, got {a.shape}")
        check_dim(a.shape[0])
        if not np.isfinite(a).all():
            raise ValueError("amplitude matrix holds a non-finite entry")
        total = float(np.sum(np.abs(a) ** 2))
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"amplitude matrix norm^2 is {total}, expected 1 within 1e-12")
        object.__setattr__(self, "a", _frozen(a))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def branch_rows(p: CloneParams | AmplitudeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the distinct amplitude rows and how many branches share each.

    ``CloneParams`` has two, (v, y, ..., y) for branch 0 and (x, y, ..., y)
    for each of the N - 1 shifted branches, so counts is (1, N - 1).  An
    ``AmplitudeMatrix`` gives its N rows in branch order, each counted once.
    """
    if isinstance(p, CloneParams):
        rows = np.full((2, p.dim), p.y)
        rows[:, 0] = p.v, p.x
        return rows, np.array([1, p.dim - 1])
    if isinstance(p, AmplitudeMatrix):
        return p.a, np.ones(p.dim, dtype=int)
    raise TypeError(f"expected CloneParams or AmplitudeMatrix, got {type(p)!r}")


def params_to_matrix(p: CloneParams) -> AmplitudeMatrix:
    return AmplitudeMatrix(np.repeat(*branch_rows(p), axis=0))


def eve_branches(rows) -> tuple[np.ndarray, np.ndarray]:
    """(w, p[..., d]): branch weights and the eavesdropper's conditionals.

    ``rows`` holds amplitude rows a[m, :] along its last axis, and
    p_d = |N * ifft(a[m])[d]|^2 / (N * w_m); a branch of zero weight gets
    the all-zero conditional.
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


def _xlog2x(t: np.ndarray) -> np.ndarray:
    return t * np.log2(t, out=np.zeros_like(t), where=t > 0.0)


def entropy(dist) -> float:
    """Shannon entropy in bits of a sequence of probabilities; 0*log(0) = 0."""
    try:
        probs = [finite_real("probability", p) for p in dist]
    except TypeError:
        raise ValueError(f"distribution must be a sequence of numbers, got {dist!r}") from None
    if not probs:
        raise ValueError("empty probability distribution")
    if min(probs) < -1e-12:
        raise ValueError(f"negative probability {min(probs)}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_ATOL:
        raise ValueError(f"probabilities sum to {total}, expected 1 within 1e-10")
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def fidelity_disturbances(p: CloneParams) -> tuple[float, np.ndarray]:
    """(F, [D_1 .. D_{N-1}]): row weights of the amplitude matrix.

    F is the probability that the key copy is undisturbed and D_m the
    probability of a label shift by m; F + sum(D) = 1.
    """
    fid, miss = row_weights(p)
    return fid, np.full(p.dim - 1, miss)


def matrix_fidelity_disturbances(p: CloneParams | AmplitudeMatrix) -> tuple[float, np.ndarray]:
    """(F, [D_1 .. D_{N-1}]) as the N row weights of the amplitude matrix."""
    rows, counts = branch_rows(p)
    row_weights = np.repeat(np.sum(np.abs(rows) ** 2, axis=1), counts)
    return float(row_weights[0]), row_weights[1:]


def matrix_i_ab(p: CloneParams | AmplitudeMatrix) -> float:
    """Key-symbol mutual information from the row weights, in bits."""
    fid, dist = matrix_fidelity_disturbances(p)
    return math.log2(dist.size + 1) + math.fsum(_xlog2x(np.concatenate(([fid], dist))))


def matrix_i_ae(p: CloneParams | AmplitudeMatrix) -> float:
    """Eavesdropper bits from the FFT of each row, every (branch, d) term in one fsum."""
    rows, counts = branch_rows(p)
    w, cond = eve_branches(rows)
    terms = (counts * w)[:, None] * _xlog2x(cond)
    return math.log2(rows.shape[-1]) + math.fsum(terms.ravel())


# ---------------------------------------------------------------- attack states


def build_attack_state(basis: BasisMatrix, amps: AmplitudeMatrix | CloneParams) -> StateVector:
    """Four-slot attack state sum_{m,n} a[m,n] B_RA(m,n) (x) B_BC(m,n)."""
    a = np.repeat(*branch_rows(amps), axis=0)
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
    psi = build_attack_state(phi_basis_matrix(p.dim, 0.0), p)
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
    return conjugate_basis(phi_basis_matrix(n, angles[PARTNER[index]]))


def bob_measurement_basis(n: int, index: int) -> BasisMatrix:
    """Bob's index-j measurement: the optimal basis at angle 2*pi*j/(4N)."""
    n = check_dim(n)
    if index not in (0, 1, 2, 3):
        raise ValueError(f"basis index must be in 0..3, got {index}")
    return phi_basis_matrix(n, optimal_angles(n)[index])


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


def numpy_joint_distribution(p: CloneParams) -> np.ndarray:
    """``joint_distribution`` as one numpy expression over the whole (4, 4, N, N)
    grid, in the library's order of operations, so the two agree bit for bit."""
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
