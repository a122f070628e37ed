"""Monte-Carlo protocol rounds with exact per-pair outcome tables.

Each round draws a basis index for both ends, then samples the outcome
pair (and nothing else - the eavesdropper's branch is a deterministic
function of a sifted outcome pair) by inverse transform from the exact
joint table of that basis pair.  Tables come straight from
``ndeb.cloner.joint_distribution``; "no attack" is the pass-through
attack, whose tables are those of the clean entangled pair.

Randomness: numpy's Philox counter-based generator keyed by the 64-bit
config seed.  The stream is read in a fixed order - Alice's basis
variates for every round, then Bob's, then the outcome variates - so
the report is a pure function of (config, seed).  Each of the three
passes runs in blocks of ``BLOCK_ROUNDS`` rounds, which bounds the
temporaries; only the basis pair of each round (one byte) and the
sifted key are held for the whole run.  The ``shards`` argument is
accepted and has no effect.

Rounds are processed as arrays; the sifted key is an int64 array with
one row per sifted round: (alice, bob, (bob - alice) mod n) under
attack, (alice, bob) on a clean run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .cloner import CloneParams, joint_distribution
from .qudit import check_dim, finite_real, strict_int

WEIGHT_ATOL = 1e-9
# Rounds per block: bounds each block's temporaries.  Of 2**14..2**18,
# 2**16 ran fastest and held the least memory at N = 3 and N = 16.
BLOCK_ROUNDS = 1 << 16

_PAIRS = frozenset({(0, 0), (2, 2), (1, 3), (3, 1)})
# _SIFTED[4*a + b] is True when the basis pair (a, b) is kept at sifting.
_SIFTED = np.array([(p // 4, p % 4) in _PAIRS for p in range(16)])


def conjugate_pairs() -> frozenset[tuple[int, int]]:
    """Basis-index pairs kept at sifting: {(0,0), (2,2), (1,3), (3,1)}.

    Under the convention that Alice's index i denotes the conjugate of
    the partner basis ``cloner.PARTNER[i]`` (see ``joint_distribution``),
    these are exactly the pairs whose outcomes match symbol-for-symbol on
    the clean entangled pair: indices 0 and 2 are self-conjugate, 1 and
    3 are conjugates of each other.
    """
    return _PAIRS


def key_columns(flat: np.ndarray, n: int, attacked: bool) -> np.ndarray:
    """Key rows of flat outcomes k*n + l, as an int64 array.

    Columns alice = k, bob = l and, under attack, the eavesdropper
    branch (bob - alice) mod n.
    """
    flat = np.asarray(flat, dtype=np.int64)
    alice, bob = flat // n, flat % n
    return np.stack([alice, bob, (bob - alice) % n] if attacked else [alice, bob], axis=1)


def key_rows(key: np.ndarray) -> list[list[int | None]]:
    """Key rows as report lists: [alice, bob, branch], branch None on a clean run."""
    if key.shape[1] == 2:
        return [[alice, bob, None] for alice, bob in zip(*key.T.tolist())]
    return key.tolist()


@dataclass(frozen=True)
class ProtocolConfig:
    """One simulation run: dimension, round count, weights, attack, seed.

    Memory grows with ``rounds`` (the basis pairs and the sifted key
    are held for the whole run), so it is capped at ``MAX_ROUNDS``.
    """

    MAX_ROUNDS = 10 ** 7

    n: int
    rounds: int
    basis_weights: tuple[float, float, float, float]
    attack: CloneParams | None
    seed: int

    def __post_init__(self):
        n = check_dim(strict_int("n", self.n))
        rounds = strict_int("rounds", self.rounds)
        if not 1 <= rounds <= self.MAX_ROUNDS:
            raise ValueError(f"rounds must be in 1..{self.MAX_ROUNDS}, got {rounds}")
        try:
            raw = tuple(self.basis_weights)
        except TypeError:
            raise ValueError(
                f"basis_weights must be a sequence of 4 numbers, got {self.basis_weights!r}"
            ) from None
        weights = tuple(finite_real(f"basis_weights[{i}]", w) for i, w in enumerate(raw))
        if len(weights) != 4:
            raise ValueError(f"need 4 basis weights, got {len(weights)}")
        if min(weights) < 0.0:
            raise ValueError(f"basis weights must be nonnegative, got {weights}")
        if abs(sum(weights) - 1.0) > WEIGHT_ATOL:
            raise ValueError(f"basis weights sum to {sum(weights)}, expected 1")
        if self.attack is not None and self.attack.dim != n:
            raise ValueError(
                f"attack dimension {self.attack.dim} does not match n={n}"
            )
        seed = strict_int("seed", self.seed)
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
                vxy = [finite_real(f"attack.{k}", attack[k]) for k in "vxy"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"attack block must map v, x, y to finite numbers ({exc})"
                ) from exc
            params = CloneParams(strict_int("n", d["n"]), *vxy)
        return ProtocolConfig(
            n=d["n"],
            rounds=d["rounds"],
            basis_weights=d["basis_weights"],
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
    outcome pair (k, l).  key_symbols is an int64 array of the sifted
    rounds in order: shape (S, 3) with columns alice, bob and the
    eavesdropper branch (bob - alice) mod n under attack, shape (S, 2)
    on a clean run, which has no branch.  ``to_dict`` writes a clean
    row as [alice, bob, null]; an empty key reads back with 2 columns.
    """

    n: int
    rounds: int
    sifted_fraction: float
    qber: float
    qber_stderr: float
    empirical_i_ab: float
    per_pair_tables: np.ndarray
    key_symbols: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))

    SCALARS = ("n", "rounds", "sifted_fraction", "qber", "qber_stderr", "empirical_i_ab")

    def summary(self) -> dict[str, Any]:
        """Every report field but key_symbols, which comes last, in report order."""
        fields = {name: getattr(self, name) for name in self.SCALARS}
        fields["per_pair_tables"] = self.per_pair_tables.tolist()
        return fields

    def to_dict(self) -> dict[str, Any]:
        return {**self.summary(), "key_symbols": key_rows(self.key_symbols)}

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "SimReport":
        n = check_dim(d["n"])
        rounds = strict_int("rounds", d["rounds"])
        rows = d["key_symbols"]
        if any(len(row) != 3 for row in rows):
            raise ValueError("every key row must hold 3 entries: alice, bob, branch")
        width = 3 if rows and rows[0][2] is not None else 2
        if any((row[2] is None) != (width == 2) for row in rows):
            raise ValueError("key symbols mix rows with and without a branch")
        for row in rows:
            for value in row[:width]:
                strict_int("key symbol", value)
        key = np.array([r[:width] for r in rows], np.int64).reshape(-1, width)
        if key.size and (key.min() < 0 or key.max() >= n):
            raise ValueError(f"key symbols must lie in 0..{n - 1}")
        flat = key[:, 0] * n + key[:, 1]
        if not np.array_equal(key, key_columns(flat, n, width == 3)):
            raise ValueError("a key branch is not (bob - alice) mod n")
        tables = np.asarray(d["per_pair_tables"], dtype=object)
        if tables.shape != (4, 4, n, n):
            raise ValueError(
                f"per_pair_tables must have shape (4, 4, {n}, {n}), got {tables.shape}"
            )
        for count in tables.flat:
            if strict_int("table count", count) < 0:
                raise ValueError(f"table counts must be >= 0, got {count}")
        tables = tables.astype(np.int64)
        if tables.sum() != rounds:
            raise ValueError(f"table counts sum to {tables.sum()}, not rounds={rounds}")
        floats = {name: finite_real(name, d[name])
                  for name in ("sifted_fraction", "qber", "qber_stderr", "empirical_i_ab")}
        return SimReport(n=n, rounds=rounds, per_pair_tables=tables, key_symbols=key, **floats)


def _outcome_cdfs(cfg: ProtocolConfig) -> np.ndarray:
    """cdfs[4*a + b] = cumulative distribution over flat outcomes k*n + l.

    Table entries that rounding may leave slightly negative are taken as
    0, so every row is nondecreasing, as ``searchsorted`` requires.
    """
    params = cfg.attack if cfg.attack is not None else CloneParams.identity(cfg.n)
    table = joint_distribution(params).reshape(16, -1)
    return np.cumsum(np.maximum(table, 0.0), axis=-1)


def _basis_index(weight_cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Basis index per variate, as uint8: the number of CDF edges at or below u.

    Equals ``min(searchsorted(weight_cdf, u, "right"), 3)`` because
    ``weight_cdf`` is nondecreasing.
    """
    index = (u >= weight_cdf[0]).view(np.uint8)
    index += u >= weight_cdf[1]
    index += u >= weight_cdf[2]
    return index


def _sample_block(
    cdfs: np.ndarray, pair: np.ndarray, u_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outcome counts of a block of rounds, and its sifted flat outcomes.

    ``pair`` holds each round's basis pair as 4*a + b (uint8); outcomes
    k*n + l are drawn by inverse transform of ``u_out`` through that
    pair's CDF.  Rounds are grouped by pair with a stable sort, so each
    pair's CDF is searched once, in round order, and the outcomes are
    scattered back to their rounds.  The counts are indexed
    (pair, k*n + l), flattened.
    """
    size = cdfs.shape[1]
    order = np.argsort(pair, kind="stable")
    ends = np.cumsum(np.bincount(pair, minlength=16)).tolist()
    counts = np.empty((16, size), dtype=np.int64)
    flat = np.empty(pair.size, dtype=np.intp)
    lo = 0
    for p, hi in enumerate(ends):
        rows = order[lo:hi]
        outcome = np.searchsorted(cdfs[p], u_out[rows], side="right")
        np.minimum(outcome, size - 1, out=outcome)
        counts[p] = np.bincount(outcome, minlength=size)
        flat[rows] = outcome
        lo = hi
    return counts.ravel(), flat[_SIFTED[pair]]


def run_simulation(cfg: ProtocolConfig, shards: int = 1) -> SimReport:
    """Run ``cfg.rounds`` protocol rounds and aggregate them into a report.

    Rounds are sampled in blocks of ``BLOCK_ROUNDS``.  ``shards`` must be
    an int >= 1 and has no effect: it is kept so that callers passing it
    still run, and the report is identical for every value.
    """
    shards = strict_int("shards", shards)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n, rounds = cfg.n, cfg.rounds
    cdfs = _outcome_cdfs(cfg)

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    weight_cdf = np.cumsum(cfg.basis_weights)
    starts = range(0, rounds, BLOCK_ROUNDS)
    # Draw order is fixed: Alice's basis variates for every round, Bob's,
    # then the outcome variates.  Drawing each in blocks reads the same
    # stream as one draw of ``rounds`` variates.
    pair = np.zeros(rounds, dtype=np.uint8)
    for weight in (4, 1):
        for lo in starts:
            block = pair[lo:lo + BLOCK_ROUNDS]
            block += weight * _basis_index(weight_cdf, rng.random(block.size))

    counts = np.zeros(16 * n * n, dtype=np.int64)
    sifted = []
    for lo in starts:
        block = pair[lo:lo + BLOCK_ROUNDS]
        block_counts, block_sifted = _sample_block(cdfs, block, rng.random(block.size))
        counts += block_counts
        sifted.append(block_sifted)
    key = key_columns(np.concatenate(sifted), n, cfg.attack is not None)

    n_sift = len(key)
    n_err = int(np.count_nonzero(key[:, 0] != key[:, 1]))
    qber = n_err / n_sift if n_sift else 0.0
    stderr = math.sqrt(qber * (1.0 - qber) / n_sift) if n_sift else 0.0
    report = SimReport(
        n=n,
        rounds=rounds,
        sifted_fraction=n_sift / rounds,
        qber=qber,
        qber_stderr=stderr,
        empirical_i_ab=0.0,
        per_pair_tables=counts.reshape(4, 4, n, n),
        key_symbols=key,
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
