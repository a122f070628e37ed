"""Monte-Carlo protocol rounds with exact per-pair outcome tables.

Each round draws a basis index for both ends, then samples the outcome
pair (and nothing else - the eavesdropper's branch is a deterministic
function of a sifted outcome pair) by inverse transform from the exact
joint table of that basis pair.  Tables come straight from
``ndeb.cloner.joint_distribution``; "no attack" is the pass-through
attack, whose tables are those of the clean entangled pair.

Randomness: numpy's Philox counter-based generator keyed by the 64-bit
config seed.  Of the R = ``rounds`` variates of each kind, pass k reads
words k*R .. (k+1)*R - 1 of the stream: Alice's basis variates (k = 0),
Bob's (k = 1), then the outcome variates (k = 2), one word each.  Philox
can start at any word, so each block of ``BLOCK_ROUNDS`` rounds draws
its three slices, picks its basis pairs and samples its outcomes in one
pass, and the report is a pure function of the config.  Only the sifted
key, as flat outcomes alice*n + bob (one byte each for n <= 16), is held
for the whole run.  The QBER and the plug-in information are read from
the count tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .cloner import PARTNER, CloneParams, joint_distribution
from .qudit import check_dim, finite_real, strict_int

WEIGHT_ATOL = 1e-9
# Rounds per block: bounds each block's temporaries.  Of 2**14..2**18,
# 2**16 ran fastest and held the least memory at N = 3 and N = 16.
BLOCK_ROUNDS = 1 << 16

# _SIFTED[4*a + b] is True when the basis pair (a, b) is kept at sifting:
# Alice's index a reads the conjugate of the partner basis PARTNER[a].
_SIFTED = np.array([p % 4 == PARTNER[p // 4] for p in range(16)])


def _require_keys(kind: str, d: Any, keys) -> None:
    """Raise ValueError unless ``d`` is a dict holding every one of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} must be a JSON object, got {d!r}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValueError(f"{kind} missing required keys: {', '.join(missing)}")


def key_row(flat: int, n: int, attacked: bool) -> list[int | None]:
    """Report row [alice, bob, branch] of the flat outcome alice*n + bob; the
    eavesdropper's branch is (bob - alice) mod n under attack, None on a clean run."""
    alice, bob = divmod(flat, n)
    return [alice, bob, (bob - alice) % n if attacked else None]


def sifted_table(tables: np.ndarray) -> np.ndarray:
    """(n, n) outcome counts of the sifted rounds, the conjugate-pair tables summed:
    its sum is the sifted round count, its sum minus its trace the error count."""
    return np.asarray(tables)[_SIFTED.reshape(4, 4)].sum(axis=0)


@dataclass(frozen=True)
class ProtocolConfig:
    """One simulation run: dimension, round count, weights, attack, seed.

    Memory grows with ``rounds`` (a flat outcome per sifted round is
    held), so it is capped at ``MAX_ROUNDS``.
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
        _require_keys("config", d, ("n", "rounds", "basis_weights", "seed"))
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
    outcome pair (k, l).  key_symbols holds the sifted rounds' flat
    outcomes alice*n + bob in round order, 1-D; ``to_dict`` writes each
    as its ``key_row``.  ``attacked`` is not written: a report's first
    row tells it, and an empty key reads back as a clean run.
    """

    n: int
    rounds: int
    sifted_fraction: float
    qber: float
    qber_stderr: float
    empirical_i_ab: float
    per_pair_tables: np.ndarray
    key_symbols: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint8))
    attacked: bool = False

    SCALARS = ("n", "rounds", "sifted_fraction", "qber", "qber_stderr", "empirical_i_ab")

    def summary(self) -> dict[str, Any]:
        """Every report field but key_symbols, which comes last, in report order."""
        fields = {name: getattr(self, name) for name in self.SCALARS}
        fields["per_pair_tables"] = self.per_pair_tables.tolist()
        return fields

    def to_dict(self) -> dict[str, Any]:
        key = [key_row(flat, self.n, self.attacked) for flat in self.key_symbols.tolist()]
        return {**self.summary(), "key_symbols": key}

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "SimReport":
        _require_keys("report", d, (*SimReport.SCALARS, "per_pair_tables", "key_symbols"))
        n = check_dim(d["n"])
        rounds = strict_int("rounds", d["rounds"])
        rows = d["key_symbols"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("key_symbols must be a list of [alice, bob, branch] rows")
        if any(len(row) != 3 for row in rows):
            raise ValueError("every key row must hold 3 entries: alice, bob, branch")
        attacked = bool(rows) and rows[0][2] is not None
        flats = []
        for row in rows:
            alice, bob, branch = row
            if (branch is None) == attacked:
                raise ValueError("key symbols mix rows with and without a branch")
            for value in row if attacked else row[:2]:
                strict_int("key symbol", value)
            if not (0 <= alice < n and 0 <= bob < n):
                raise ValueError(f"key symbols must lie in 0..{n - 1}")
            flats.append(alice * n + bob)
            if branch != key_row(flats[-1], n, attacked)[2]:
                raise ValueError("a key branch is not (bob - alice) mod n")
        tables = np.asarray(d["per_pair_tables"], dtype=object)
        if tables.shape != (4, 4, n, n):
            raise ValueError(f"per_pair_tables must have shape (4, 4, {n}, {n}), "
                             f"got {tables.shape}")
        for count in tables.flat:
            if strict_int("table count", count) < 0:
                raise ValueError(f"table counts must be >= 0, got {count}")
        tables = tables.astype(np.int64)
        if tables.sum() != rounds:
            raise ValueError(f"table counts sum to {tables.sum()}, not rounds={rounds}")
        key = np.array(flats, dtype=np.min_scalar_type(n * n - 1))
        if not np.array_equal(np.bincount(key, minlength=n * n), sifted_table(tables).ravel()):
            raise ValueError("key rows do not match the sifted counts of per_pair_tables")
        floats = {name: finite_real(name, d[name])
                  for name in ("sifted_fraction", "qber", "qber_stderr", "empirical_i_ab")}
        return SimReport(n=n, rounds=rounds, per_pair_tables=tables, key_symbols=key,
                         attacked=attacked, **floats)


def _outcome_cdfs(cfg: ProtocolConfig) -> np.ndarray:
    """cdfs[4*a + b] = cumulative distribution over flat outcomes k*n + l.

    Table entries that rounding may leave slightly negative are taken as
    0, so every row is nondecreasing, as ``searchsorted`` requires.
    """
    params = cfg.attack if cfg.attack is not None else CloneParams.identity(cfg.n)
    table = np.array(joint_distribution(params), dtype=float).reshape(16, -1)
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
    flat = np.empty(pair.size, dtype=np.min_scalar_type(size - 1))
    lo = 0
    for p, hi in enumerate(ends):
        rows = order[lo:hi]
        outcome = np.searchsorted(cdfs[p], u_out[rows], side="right")
        np.minimum(outcome, size - 1, out=outcome)
        counts[p] = np.bincount(outcome, minlength=size)
        flat[rows] = outcome
        lo = hi
    return counts.ravel(), flat[_SIFTED[pair]]


def _stream(seed: int, start: int) -> np.random.Generator:
    """Generator whose variates start at word ``start`` of the seed's Philox
    stream: one counter step yields four words, each variate reads one."""
    bits = np.random.Philox(seed)
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    return np.random.Generator(bits)


def run_simulation(cfg: ProtocolConfig) -> SimReport:
    """Run ``cfg.rounds`` protocol rounds, sampled in blocks of
    ``BLOCK_ROUNDS``, and aggregate them into a report."""
    n, rounds = cfg.n, cfg.rounds
    cdfs = _outcome_cdfs(cfg)
    weight_cdf = np.cumsum(cfg.basis_weights)
    alice, bob, outcome = (_stream(cfg.seed, k * rounds) for k in range(3))
    counts = np.zeros(16 * n * n, dtype=np.int64)
    sifted = []
    for lo in range(0, rounds, BLOCK_ROUNDS):
        size = min(BLOCK_ROUNDS, rounds - lo)
        pair = 4 * _basis_index(weight_cdf, alice.random(size))
        pair += _basis_index(weight_cdf, bob.random(size))
        block_counts, block_sifted = _sample_block(cdfs, pair, outcome.random(size))
        counts += block_counts
        sifted.append(block_sifted)
    tables = counts.reshape(4, 4, n, n)
    sift = sifted_table(tables)
    n_sift = int(sift.sum())
    qber = (n_sift - int(np.trace(sift))) / n_sift if n_sift else 0.0
    stderr = math.sqrt(qber * (1.0 - qber) / n_sift) if n_sift else 0.0
    report = SimReport(
        n=n,
        rounds=rounds,
        sifted_fraction=n_sift / rounds,
        qber=qber,
        qber_stderr=stderr,
        empirical_i_ab=0.0,
        per_pair_tables=tables,
        key_symbols=np.concatenate(sifted),
        attacked=cfg.attack is not None,
    )
    report.empirical_i_ab = empirical_info(report) if n_sift else 0.0
    return report


def empirical_info(report: SimReport) -> float:
    """Plug-in mutual information of the sifted symbol counts, in bits."""
    table = sifted_table(report.per_pair_tables)
    total = int(table.sum())
    if total == 0:
        raise ValueError("empty sift: report contains no conjugate-pair rounds")
    p = table / total
    pa = p.sum(axis=1)
    pb = p.sum(axis=0)
    mask = p > 0
    return float((p[mask] * np.log2(p[mask] / np.outer(pa, pb)[mask])).sum())
