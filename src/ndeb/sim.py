"""Monte-Carlo protocol rounds with exact per-pair outcome tables.

Each round draws a basis index for both ends, then samples the outcome
pair (and nothing else - the eavesdropper's branch is a deterministic
function of a sifted outcome pair) by inverse transform from the exact
joint table of that basis pair.  Tables come straight from
``ndeb.cloner.joint_distribution``; "no attack" is the pass-through
attack, whose tables are those of the clean entangled pair.

Randomness: numpy's Philox counter-based generator keyed by the 64-bit
config seed.  All variates for all rounds are drawn in one pass before
any processing, so the report is a pure function of (config, seed) and
cannot depend on how rounds are later chunked across shards.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .cloner import CloneParams, joint_distribution
from .qudit import basis_relabeling, check_dim, conjugate_basis, optimal_angles, phi_basis
from .cloner import PARTNER

WEIGHT_ATOL = 1e-9

_PAIRS = frozenset({(0, 0), (2, 2), (1, 3), (3, 1)})
_verified_dims: set[int] = set()


def conjugate_pairs() -> frozenset[tuple[int, int]]:
    """Basis-index pairs kept at sifting: {(0,0), (2,2), (1,3), (3,1)}.

    Under the convention that Alice's index i denotes the conjugate of
    the partner basis (see ``alice_measurement_basis``), these are
    exactly the pairs whose outcomes match symbol-for-symbol on the
    clean entangled pair: indices 0 and 2 are self-conjugate, 1 and 3
    are conjugates of each other.
    """
    return _PAIRS


def _verify_pairing(n: int) -> None:
    """Re-derive the sifted-pair set for dimension n; raise on mismatch."""
    if n in _verified_dims:
        return
    angles = optimal_angles(n)
    for i in range(4):
        conj_i = conjugate_basis(phi_basis(n, angles[i]))
        if basis_relabeling(conj_i, phi_basis(n, angles[PARTNER[i]])) is None:
            raise AssertionError(f"conjugation partner of basis {i} is not {PARTNER[i]}")
    identity = CloneParams.identity(n)
    derived = set()
    for a in range(4):
        for b in range(4):
            table = joint_distribution(identity, a, b)
            if np.allclose(table, np.eye(n) / n, atol=1e-10):
                derived.add((a, b))
    if derived != set(_PAIRS):
        raise AssertionError(f"derived sifted pairs {derived} differ from {set(_PAIRS)}")
    _verified_dims.add(n)


def _strict_int(name: str, value: Any) -> int:
    """``value`` as an int; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProtocolConfig:
    """One simulation run: dimension, round count, weights, attack, seed."""

    n: int
    rounds: int
    basis_weights: tuple[float, float, float, float]
    attack: CloneParams | None
    seed: int

    def __post_init__(self):
        n = check_dim(_strict_int("n", self.n))
        rounds = _strict_int("rounds", self.rounds)
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        weights = tuple(float(w) for w in self.basis_weights)
        if len(weights) != 4:
            raise ValueError(f"need 4 basis weights, got {len(weights)}")
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"basis weights must be finite, got {weights}")
        if min(weights) < 0.0:
            raise ValueError(f"basis weights must be nonnegative, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"basis weights sum to {sum(weights)}, expected 1")
        if self.attack is not None and self.attack.dim != n:
            raise ValueError(
                f"attack dimension {self.attack.dim} does not match n={n}"
            )
        seed = _strict_int("seed", self.seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got {seed}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "basis_weights", weights)
        object.__setattr__(self, "seed", seed)

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "ProtocolConfig":
        missing = [k for k in ("n", "rounds", "basis_weights", "seed") if k not in d]
        if missing:
            raise ValueError(f"config missing required keys: {', '.join(missing)}")
        attack = d.get("attack")
        params = None
        if attack is not None:
            try:
                params = CloneParams(
                    _strict_int("n", d["n"]), attack["v"], attack["x"], attack["y"]
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    "attack block must map v, x, y to numbers"
                ) from exc
        return ProtocolConfig(
            n=d["n"],
            rounds=d["rounds"],
            basis_weights=tuple(d["basis_weights"]),
            attack=params,
            seed=d["seed"],
        )

    def to_dict(self) -> dict[str, Any]:
        attack = None
        if self.attack is not None:
            attack = {"v": self.attack.v, "x": self.attack.x, "y": self.attack.y}
        return {
            "n": self.n,
            "rounds": self.rounds,
            "basis_weights": list(self.basis_weights),
            "attack": attack,
            "seed": self.seed,
        }


@dataclass
class SimReport:
    """Aggregated outcome of a run.

    per_pair_tables[a][b][k][l] counts rounds with basis pair (a, b) and
    outcome pair (k, l); key_symbols lists the sifted rounds in order as
    (alice, bob, eve_branch) with eve_branch = (bob - alice) mod n under
    attack and None otherwise.
    """

    n: int
    rounds: int
    sifted_fraction: float
    qber: float
    qber_stderr: float
    empirical_i_ab: float
    per_pair_tables: np.ndarray
    key_symbols: list[tuple[int, int, int | None]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "rounds": self.rounds,
            "sifted_fraction": self.sifted_fraction,
            "qber": self.qber,
            "qber_stderr": self.qber_stderr,
            "empirical_i_ab": self.empirical_i_ab,
            "per_pair_tables": self.per_pair_tables.tolist(),
            "key_symbols": [list(sym) for sym in self.key_symbols],
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "SimReport":
        return SimReport(
            n=int(d["n"]),
            rounds=int(d["rounds"]),
            sifted_fraction=float(d["sifted_fraction"]),
            qber=float(d["qber"]),
            qber_stderr=float(d["qber_stderr"]),
            empirical_i_ab=float(d["empirical_i_ab"]),
            per_pair_tables=np.asarray(d["per_pair_tables"], dtype=np.int64),
            key_symbols=[
                (int(s[0]), int(s[1]), None if s[2] is None else int(s[2]))
                for s in d["key_symbols"]
            ],
        )


def _outcome_cdfs(cfg: ProtocolConfig) -> np.ndarray:
    """cdfs[a, b] = cumulative distribution over flat outcomes k*n + l."""
    params = cfg.attack if cfg.attack is not None else CloneParams.identity(cfg.n)
    n = cfg.n
    cdfs = np.empty((4, 4, n * n))
    for a in range(4):
        for b in range(4):
            table = joint_distribution(params, a, b).reshape(-1)
            cdfs[a, b] = np.cumsum(table)
    return cdfs


def _process_chunk(
    cfg: ProtocolConfig,
    cdfs: np.ndarray,
    a_idx: np.ndarray,
    b_idx: np.ndarray,
    u_out: np.ndarray,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, int, int, list[tuple[int, int, int | None]]]:
    n = cfg.n
    counts = np.zeros((4, 4, n, n), dtype=np.int64)
    a_c, b_c, u_c = a_idx[lo:hi], b_idx[lo:hi], u_out[lo:hi]
    k_c = np.empty(hi - lo, dtype=np.int64)
    l_c = np.empty(hi - lo, dtype=np.int64)
    for a in range(4):
        for b in range(4):
            sel = np.nonzero((a_c == a) & (b_c == b))[0]
            if sel.size == 0:
                continue
            flat = np.searchsorted(cdfs[a, b], u_c[sel], side="right")
            flat = np.minimum(flat, n * n - 1)
            k_c[sel] = flat // n
            l_c[sel] = flat % n
            np.add.at(counts[a, b], (k_c[sel], l_c[sel]), 1)
    pairs = conjugate_pairs()
    sift_mask = np.array([(a, b) in pairs for a, b in zip(a_c, b_c)])
    n_sift = int(sift_mask.sum())
    n_err = int((k_c[sift_mask] != l_c[sift_mask]).sum())
    attacked = cfg.attack is not None
    symbols: list[tuple[int, int, int | None]] = []
    for r in np.nonzero(sift_mask)[0]:
        k, l = int(k_c[r]), int(l_c[r])
        symbols.append((k, l, (l - k) % n if attacked else None))
    return counts, n_sift, n_err, symbols


def run_simulation(cfg: ProtocolConfig, shards: int = 1) -> SimReport:
    """Run ``cfg.rounds`` protocol rounds, optionally chunked into shards.

    Shards only split the processing loop; every per-round variate is a
    fixed function of (seed, round index), so the merged report is
    identical for every shard count.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    _verify_pairing(cfg.n)
    n, rounds = cfg.n, cfg.rounds
    cdfs = _outcome_cdfs(cfg)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    u_alice = rng.random(rounds)
    u_bob = rng.random(rounds)
    u_out = rng.random(rounds)
    weight_cdf = np.cumsum(cfg.basis_weights)
    a_idx = np.minimum(np.searchsorted(weight_cdf, u_alice, side="right"), 3)
    b_idx = np.minimum(np.searchsorted(weight_cdf, u_bob, side="right"), 3)

    counts = np.zeros((4, 4, n, n), dtype=np.int64)
    n_sift = n_err = 0
    symbols: list[tuple[int, int, int | None]] = []
    bounds = np.linspace(0, rounds, shards + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        c, s, e, sym = _process_chunk(cfg, cdfs, a_idx, b_idx, u_out, int(lo), int(hi))
        counts += c
        n_sift += s
        n_err += e
        symbols.extend(sym)

    qber = n_err / n_sift if n_sift else 0.0
    stderr = math.sqrt(qber * (1.0 - qber) / n_sift) if n_sift else 0.0
    report = SimReport(
        n=n,
        rounds=rounds,
        sifted_fraction=n_sift / rounds,
        qber=qber,
        qber_stderr=stderr,
        empirical_i_ab=0.0,
        per_pair_tables=counts,
        key_symbols=symbols,
    )
    report.empirical_i_ab = empirical_info(report) if n_sift else 0.0
    return report


def empirical_info(report: SimReport) -> float:
    """Plug-in mutual information of the sifted symbol counts, in bits."""
    table = np.zeros((report.n, report.n), dtype=np.int64)
    for a, b in conjugate_pairs():
        table += report.per_pair_tables[a, b]
    total = int(table.sum())
    if total == 0:
        raise ValueError("empty sift: report contains no conjugate-pair rounds")
    p = table / total
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    return float((p[mask] * np.log2(p[mask] / np.outer(pa, pb)[mask])).sum())
