import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from ndeb import sim
from ndeb.cloner import PARTNER, CloneParams, joint_distribution
from ndeb.qudit import optimal_angles
from ndeb.sim import (
    ProtocolConfig,
    SimReport,
    empirical_info,
    run_simulation,
)
from ndeb.thresholds import crossover_fidelity

from philox_oracle import philox_words, to_double
from state_tools import basis_relabeling, conjugate_basis, phi_basis_matrix
from strategies import clone_params, protocol_configs

# Basis pairs (a, b) kept at sifting, written out independently of the library.
SIFT_PAIRS = {(0, 0), (2, 2), (1, 3), (3, 1)}
CROSSOVER3 = CloneParams(
    3, 0.8319757906688726, 0.17108599520763154, 0.2038281335784852
)


def make_config(**overrides):
    base = dict(
        n=3,
        rounds=20000,
        basis_weights=(0.25, 0.25, 0.25, 0.25),
        attack=None,
        seed=20240811,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def report_digest(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_counts_match_table(counts, probs):
    """Exact-sampler check: zero-probability cells stay empty, the rest
    pass a chi-square test at p > 1e-3."""
    counts = np.asarray(counts, dtype=float).reshape(-1)
    probs = np.asarray(probs, dtype=float).reshape(-1)
    total = counts.sum()
    if total == 0:
        return
    zero = probs < 1e-12
    assert counts[zero].sum() == 0
    kept_counts = counts[~zero]
    kept_probs = probs[~zero]
    expected = kept_probs * (kept_counts.sum() / kept_probs.sum())
    result = chisquare(kept_counts, expected)
    assert result.pvalue > 1e-3


# ---------------------------------------------------------------- pairing


def test_conjugate_pairs_value():
    assert {divmod(int(p), 4) for p in np.flatnonzero(sim._SIFTED)} == SIFT_PAIRS


@pytest.mark.parametrize("n", [*range(2, 17), 17, 32])
def test_pairing_rederivation_passes(n):
    # conjugating basis i gives basis PARTNER[i] up to a relabeling, and
    # the sifted pairs are exactly those whose clean tables are diagonal
    angles = optimal_angles(n)
    for i in range(4):
        conj_i = conjugate_basis(phi_basis_matrix(n, angles[i]))
        assert basis_relabeling(conj_i, phi_basis_matrix(n, angles[PARTNER[i]])) is not None, i
    tables = np.asarray(joint_distribution(CloneParams.identity(n)))
    derived = {
        (a, b) for a in range(4) for b in range(4)
        if np.allclose(tables[a, b], np.eye(n) / n, atol=1e-10)
    }
    assert derived == SIFT_PAIRS


# ---------------------------------------------------------------- config


def test_config_weight_validation():
    with pytest.raises(ValueError):
        make_config(basis_weights=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValueError):
        make_config(basis_weights=(0.3, 0.3, 0.4))
    with pytest.raises(ValueError):
        make_config(basis_weights=(0.3, 0.3, 0.3, 0.3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        make_config(basis_weights=(bad, 0.25, 0.25, 0.25))


@pytest.mark.parametrize("bad", [2.9, 3.0, True, "3"])
@pytest.mark.parametrize("key", ["n", "rounds", "seed"])
def test_config_ints_are_strict(key, bad):
    with pytest.raises(ValueError, match=f"{key} must be an int"):
        make_config(**{key: bad})
    raw = make_config().to_dict()
    raw[key] = bad
    with pytest.raises(ValueError, match=f"{key} must be an int"):
        ProtocolConfig.from_dict(raw)
    raw["attack"] = {"v": 1.0, "x": 0.0, "y": 0.0}
    with pytest.raises(ValueError, match=f"{key} must be an int"):
        ProtocolConfig.from_dict(raw)


@pytest.mark.parametrize(
    "weights",
    [("0.25",) * 4, (True, False, False, False), (None, 0.5, 0.25, 0.25)],
    ids=["strings", "bools", "none"],
)
def test_config_weights_must_be_real_numbers(weights):
    message = r"basis_weights\[0\] must be a finite number"
    with pytest.raises(ValueError, match=message):
        make_config(basis_weights=weights)
    raw = {**make_config().to_dict(), "basis_weights": list(weights)}
    with pytest.raises(ValueError, match=message):
        ProtocolConfig.from_dict(raw)


@pytest.mark.parametrize("weights", [5, None, 0.25])
def test_config_weights_must_be_a_sequence(weights):
    with pytest.raises(ValueError, match="basis_weights must be a sequence"):
        make_config(basis_weights=weights)
    with pytest.raises(ValueError, match="basis_weights must be a sequence"):
        ProtocolConfig.from_dict({**make_config().to_dict(), "basis_weights": weights})


def test_config_accepts_numpy_weights():
    cfg = make_config(basis_weights=tuple(np.full(4, 0.25, dtype=np.float32)))
    assert cfg.basis_weights == (0.25,) * 4
    assert all(type(w) is float for w in cfg.basis_weights)


def test_config_accepts_numpy_ints():
    cfg = make_config(n=np.int64(3), rounds=np.int32(10), seed=np.uint64(5))
    assert (cfg.n, cfg.rounds, cfg.seed) == (3, 10, 5)
    assert all(type(v) is int for v in (cfg.n, cfg.rounds, cfg.seed))


def test_config_rounds_and_seed_validation():
    with pytest.raises(ValueError):
        make_config(rounds=0)
    with pytest.raises(ValueError):
        make_config(seed=-1)
    with pytest.raises(ValueError):
        make_config(seed=2 ** 64)


def test_config_rounds_are_capped():
    cap = ProtocolConfig.MAX_ROUNDS
    assert cap == 10 ** 7
    assert make_config(rounds=cap).rounds == cap
    with pytest.raises(ValueError, match="rounds must be in 1..10000000"):
        make_config(rounds=cap + 1)
    raw = make_config().to_dict()
    raw["rounds"] = 2 ** 40
    with pytest.raises(ValueError, match="rounds must be in"):
        ProtocolConfig.from_dict(raw)


def test_config_attack_dimension_must_match():
    with pytest.raises(ValueError):
        make_config(n=2, attack=CROSSOVER3)


def test_config_dict_round_trip():
    cfg = make_config(attack=CROSSOVER3, seed=99)
    again = ProtocolConfig.from_dict(cfg.to_dict())
    assert again == cfg
    clean = make_config()
    assert ProtocolConfig.from_dict(clean.to_dict()) == clean


def test_config_from_dict_reports_missing_keys():
    good = make_config().to_dict()
    for key in ("n", "rounds", "basis_weights", "seed"):
        broken = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"missing required keys: {key}"):
            ProtocolConfig.from_dict(broken)
    with pytest.raises(ValueError, match="missing required keys: n, seed"):
        ProtocolConfig.from_dict({"rounds": 10, "basis_weights": [0.25] * 4})


def test_config_from_dict_rejects_bad_attack_block():
    good = make_config().to_dict()
    for attack in ({"v": 0.9, "x": 0.1}, {"v": 0.9, "x": 0.1, "y": None}):
        with pytest.raises(ValueError, match="attack block"):
            ProtocolConfig.from_dict({**good, "attack": attack})


@pytest.mark.parametrize("attack, name", [
    ({"v": "1", "x": 0, "y": False}, "attack.v"),
    ({"v": 1, "x": True, "y": 0}, "attack.x"),
    ({"v": 1, "x": 0, "y": "0"}, "attack.y"),
    ({"v": 1, "x": 0, "y": math.nan}, "attack.y"),
], ids=["string-v", "bool-x", "string-y", "nan-y"])
def test_config_from_dict_rejects_non_numeric_attack_values(attack, name):
    good = make_config().to_dict()
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        ProtocolConfig.from_dict({**good, "attack": attack})


# ---------------------------------------------------------------- sampling kernel


def reference_basis_index(weight_cdf, u):
    """The basis pick as one CDF search; the oracle for ``sim._basis_index``."""
    return np.minimum(np.searchsorted(weight_cdf, u, side="right"), 3)


def reference_sample_block(cdfs, pair, u_out):
    """One ``flatnonzero`` pass per basis pair; the oracle for ``sim._sample_block``."""
    size = cdfs.shape[1]
    pair = pair.astype(np.int64)
    flat = np.empty(pair.size, dtype=np.int64)
    for p in range(16):
        sel = np.flatnonzero(pair == p)
        flat[sel] = np.searchsorted(cdfs[p], u_out[sel], side="right")
    np.minimum(flat, size - 1, out=flat)
    counts = np.bincount(pair * size + flat, minlength=16 * size)
    sifted = np.isin(pair, [4 * a + b for a, b in SIFT_PAIRS])
    return counts, flat[sifted]


def crossover_attack(n):
    """The optimal attack at the crossover fidelity F_A(n)."""
    record = crossover_fidelity(n)
    return CloneParams(n, record.v, record.x, record.y)


KERNEL_WEIGHTS = [(0.25,) * 4, (0.7, 0.1, 0.1, 0.1), (0.5, 0.5, 0.0, 0.0),
                  (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
KERNEL_WEIGHT_IDS = ["uniform", "skewed", "two-zero", "only-1", "only-3"]


@pytest.mark.parametrize("weights", KERNEL_WEIGHTS, ids=KERNEL_WEIGHT_IDS)
def test_basis_index_matches_cdf_search(weights):
    weight_cdf = np.cumsum(weights)
    on_edges = [weight_cdf, np.nextafter(weight_cdf, 0.0), np.nextafter(weight_cdf, 2.0)]
    u = np.concatenate([np.random.default_rng(3).random(20000), *on_edges, [0.0]])
    got = sim._basis_index(weight_cdf, u)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, reference_basis_index(weight_cdf, u))


@pytest.mark.parametrize("weights", KERNEL_WEIGHTS[:3], ids=KERNEL_WEIGHT_IDS[:3])
@pytest.mark.parametrize("n, attacked", [(2, False), (2, True), (3, False), (3, True),
                                         (16, False), (16, True)])
def test_sample_block_matches_reference(n, attacked, weights):
    cfg = make_config(n=n, basis_weights=weights,
                      attack=crossover_attack(n) if attacked else None)
    cdfs = sim._outcome_cdfs(cfg)
    rng = np.random.default_rng(n)
    weight_cdf = np.cumsum(weights)
    pair = (4 * reference_basis_index(weight_cdf, rng.random(6000))
            + reference_basis_index(weight_cdf, rng.random(6000)))
    u_out = rng.random(pair.size)
    # a fifth of the variates sit exactly on an edge of their pair's CDF
    edge = rng.integers(0, cdfs.shape[1], size=pair.size)
    on_edge = rng.random(pair.size) < 0.2
    u_out[on_edge] = cdfs[pair, edge][on_edge]
    got_counts, got_sifted = sim._sample_block(cdfs, pair.astype(np.uint8), u_out)
    want_counts, want_sifted = reference_sample_block(cdfs, pair, u_out)
    np.testing.assert_array_equal(got_counts, want_counts)
    np.testing.assert_array_equal(got_sifted, want_sifted)


@pytest.mark.parametrize("attacked", [False, True], ids=["clean", "crossover"])
@pytest.mark.parametrize("n", range(2, 17))
def test_outcome_cdfs_are_monotone(n, attacked):
    cfg = make_config(n=n, attack=crossover_attack(n) if attacked else None)
    assert (np.diff(sim._outcome_cdfs(cfg), axis=-1) >= 0).all()


# ---------------------------------------------------------------- clean runs


@pytest.mark.parametrize("n", [2, 3])
def test_no_attack_run_has_zero_qber(n):
    report = run_simulation(make_config(n=n))
    assert report.qber == 0.0
    assert report.qber_stderr == 0.0
    for a, b in SIFT_PAIRS:
        table = report.per_pair_tables[a, b]
        assert table.sum() == np.trace(table)
    assert not report.attacked
    alice, bob = np.divmod(report.key_symbols, n)
    assert (alice == bob).all()
    rows = report.to_dict()["key_symbols"]
    assert len(rows) == len(report.key_symbols)
    assert all(alice == bob and branch is None for alice, bob, branch in rows)


def test_no_attack_empirical_info_is_full_alphabet():
    # perfectly correlated symbols: the plug-in estimate equals the
    # empirical marginal entropy, within sampling noise of log2(3)
    report = run_simulation(make_config(n=3))
    assert report.empirical_i_ab == pytest.approx(math.log2(3), abs=0.01)
    assert report.empirical_i_ab <= math.log2(3) + 1e-12


def test_sifted_fraction_near_one_quarter():
    cfg = make_config(rounds=40000)
    report = run_simulation(cfg)
    sigma = math.sqrt(0.25 * 0.75 / cfg.rounds)
    assert abs(report.sifted_fraction - 0.25) < 5 * sigma


def test_biased_weights_change_sift_rate():
    cfg = make_config(basis_weights=(0.7, 0.1, 0.1, 0.1), rounds=40000)
    report = run_simulation(cfg)
    expect = 0.7 ** 2 + 3 * 0.1 ** 2
    sigma = math.sqrt(expect * (1 - expect) / cfg.rounds)
    assert abs(report.sifted_fraction - expect) < 5 * sigma


def test_zero_weight_bases_never_fire():
    cfg = make_config(basis_weights=(0.5, 0.5, 0.0, 0.0))
    report = run_simulation(cfg)
    counts = report.per_pair_tables
    assert counts[2:].sum() == 0
    assert counts[:, 2:].sum() == 0
    sifted = sum(counts[a, b].sum() for a, b in SIFT_PAIRS)
    assert sifted == counts[0, 0].sum()


# ---------------------------------------------------------------- attacks


def test_attacked_qber_matches_crossover_rate():
    cfg = make_config(rounds=100000, attack=CROSSOVER3)
    report = run_simulation(cfg)
    assert abs(report.qber - 0.224724) < 4 * report.qber_stderr
    assert report.qber_stderr > 0.0


def test_attacked_symbols_carry_branch():
    cfg = make_config(rounds=5000, attack=CROSSOVER3)
    report = run_simulation(cfg)
    assert len(report.key_symbols) > 0
    assert report.attacked
    assert report.key_symbols.ndim == 1
    rows = report.to_dict()["key_symbols"]
    assert [alice * 3 + bob for alice, bob, _ in rows] == report.key_symbols.tolist()
    for alice, bob, branch in rows:
        assert branch == (bob - alice) % 3


@pytest.mark.parametrize("n", [2, 3])
def test_attacked_tables_pass_chi_square(n):
    if n == 2:
        attack = CloneParams(2, 0.7, math.sqrt(1 - 0.49 - 2 * 0.16), 0.4)
    else:
        attack = CROSSOVER3
    cfg = make_config(n=n, rounds=100000, attack=attack, seed=5150)
    report = run_simulation(cfg)
    for a in range(4):
        for b in range(4):
            assert_counts_match_table(
                report.per_pair_tables[a, b], np.asarray(joint_distribution(attack))[a, b]
            )


@pytest.mark.parametrize("n", [2, 3])
def test_clean_tables_pass_chi_square(n):
    cfg = make_config(n=n, rounds=100000, seed=424242)
    report = run_simulation(cfg)
    identity = CloneParams.identity(n)
    for a in range(4):
        for b in range(4):
            assert_counts_match_table(
                report.per_pair_tables[a, b], np.asarray(joint_distribution(identity))[a, b]
            )


# ---------------------------------------------------------------- determinism


def test_same_seed_reproduces_report():
    cfg = make_config(attack=CROSSOVER3, rounds=10000)
    assert report_digest(run_simulation(cfg)) == report_digest(run_simulation(cfg))


# sha256 of the sorted-key report JSON; a change to the random stream or
# to the report encoding shows up here and is never silent.  The ids match
# test_cli's report-file digests, which run these configs through the CLI.
GOLDEN_DIGESTS = [
    (dict(attack=CROSSOVER3, rounds=10001),
     "e569896d48fe87fed167173b21bbaca08b8efab1935e307df811662d20c60925"),
    (dict(n=16, rounds=2000, basis_weights=(0.7, 0.1, 0.1, 0.1)),
     "be78da7111a22b34482670e71deed4690f9ac12d78d0846d15062d09bfb2cf56"),
    (dict(n=2, rounds=1),
     "41b38fe2110d10960685132b452a8c4c75aeb32a4ad568ba918258de6cbda87d"),
    (dict(n=2, rounds=1, attack=CloneParams(2, 0.7, math.sqrt(0.19), 0.4), seed=1),
     "151e30d1395feb9dfa4a821e7829bfd9f5f173a47e4df5a0b02b307ee5211095"),
    (dict(basis_weights=(0.0, 1.0, 0.0, 0.0), rounds=500),
     "7a0b9db6c1462524270284e1ec3116b5409400baea64bd53ad5f7c7b205e6734"),
    # 2**18 + 12345 rounds span five blocks of sim.BLOCK_ROUNDS = 2**16;
    # pinned from the one-pass-per-pair sampler, reference_sample_block,
    # which drew every variate before sampling.
    (dict(attack=CROSSOVER3, rounds=2 ** 18 + 12345),
     "22ba467ac1f321c297dfcbd2bfcfe107ca8eae18a6975612d8bcbb4a1a8f5108"),
]


def sha256_digest(report):
    return hashlib.sha256(report_digest(report).encode()).hexdigest()


@pytest.mark.parametrize(
    "overrides, digest",
    GOLDEN_DIGESTS,
    ids=["n3-attacked-s1", "n16-clean", "n2-one-round",
         "n2-one-round-attacked", "never-sifting", "n3-attacked-five-blocks"],
)
def test_report_golden_digest(overrides, digest):
    report = run_simulation(make_config(**overrides))
    assert sha256_digest(report) == digest


def test_different_seed_changes_report():
    a = run_simulation(make_config(seed=1))
    b = run_simulation(make_config(seed=2))
    assert report_digest(a) != report_digest(b)


def test_rounds_run_in_fixed_size_blocks(monkeypatch):
    blocks = []
    sample_block = sim._sample_block

    def counted(cdfs, pair, u_out):
        blocks.append(pair.size)
        return sample_block(cdfs, pair, u_out)

    monkeypatch.setattr(sim, "_sample_block", counted)
    run_simulation(make_config(rounds=sim.BLOCK_ROUNDS + 1, attack=CROSSOVER3))
    assert blocks == [sim.BLOCK_ROUNDS, 1]


def test_unsifted_rounds_hold_no_memory():
    # With weights (0, 1, 0, 0) no round sifts, so a run holds nothing per round.
    def peak(blocks):
        cfg = make_config(n=2, rounds=blocks * sim.BLOCK_ROUNDS,
                          basis_weights=(0.0, 1.0, 0.0, 0.0))
        tracemalloc.start()
        try:
            run_simulation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # one-time allocations land outside the compared runs
    assert peak(16) - peak(2) < 64 * 1024


# ---------------------------------------------------------------- stream addressing


def philox_key(seed):
    return tuple(int(k) for k in np.random.SeedSequence(seed).generate_state(2, np.uint64))


@pytest.mark.parametrize("seed", [0, 7, 20240811, 2 ** 64 - 1])
def test_philox_oracle_matches_numpy_words(seed):
    key = philox_key(seed)
    assert philox_words(key, 0, 11) == np.random.Philox(seed).random_raw(11).tolist()
    bits = np.random.Philox(seed)
    bits.advance(1000)
    assert philox_words(key, 4000, 9) == bits.random_raw(9).tolist()


def test_generator_random_is_the_top_53_bits_of_a_word():
    want = [to_double(w) for w in philox_words(philox_key(3), 0, 64)]
    assert np.random.Generator(np.random.Philox(3)).random(64).tolist() == want


ODD_ROUNDS = 1001


@pytest.mark.parametrize("start", [0, 1, 2, 3, 5, ODD_ROUNDS, 2 * ODD_ROUNDS])
def test_stream_starts_at_the_given_word(start):
    want = [to_double(w) for w in philox_words(philox_key(20240811), start, 9)]
    assert sim._stream(20240811, start).random(9).tolist() == want


def test_pass_k_reads_words_k_rounds_on():
    cfg = make_config(rounds=ODD_ROUNDS, attack=CROSSOVER3)
    u = np.array([to_double(w) for w in philox_words(philox_key(cfg.seed), 0, 3 * cfg.rounds)])
    alice, bob, u_out = u.reshape(3, cfg.rounds)
    weight_cdf = np.cumsum(cfg.basis_weights)
    pair = 4 * reference_basis_index(weight_cdf, alice) + reference_basis_index(weight_cdf, bob)
    counts, key = reference_sample_block(sim._outcome_cdfs(cfg), pair, u_out)
    report = run_simulation(cfg)
    np.testing.assert_array_equal(report.per_pair_tables.ravel(), counts)
    np.testing.assert_array_equal(report.key_symbols, key)


# ---------------------------------------------------------------- reports


@pytest.mark.parametrize(
    "overrides",
    [
        dict(rounds=3000, attack=CROSSOVER3),
        dict(rounds=3000),
        dict(rounds=500, basis_weights=(0.0, 1.0, 0.0, 0.0)),
    ],
    ids=["attacked", "clean", "empty-key"],
)
def test_report_dict_round_trip(overrides):
    report = run_simulation(make_config(**overrides))
    again = SimReport.from_dict(report.to_dict())
    assert report_digest(again) == report_digest(report)


def _move_row(rows):
    """The key with its first row moved to the next outcome cell."""
    alice, bob, branch = rows[0]
    bob = (bob + 1) % 3
    return [[alice, bob, None if branch is None else (bob - alice) % 3], *rows[1:]]


@pytest.mark.parametrize("attack", [None, CROSSOVER3], ids=["clean", "attacked"])
@pytest.mark.parametrize(
    "change",
    [lambda rows: rows[1:], _move_row],
    ids=["dropped-row", "moved-row"],
)
def test_report_from_dict_rejects_a_key_that_disagrees_with_the_tables(attack, change):
    raw = run_simulation(make_config(rounds=300, attack=attack)).to_dict()
    raw["key_symbols"] = change(raw["key_symbols"])
    with pytest.raises(ValueError, match="sifted counts"):
        SimReport.from_dict(raw)


def test_report_from_dict_rejects_mixed_key_rows():
    raw = run_simulation(make_config(rounds=3000, attack=CROSSOVER3)).to_dict()
    raw["key_symbols"][-1][2] = None
    with pytest.raises(ValueError, match="mix rows"):
        SimReport.from_dict(raw)


@pytest.mark.parametrize(
    "attack, row, message",
    [
        (None, [0, 0], "3 entries"),
        (CROSSOVER3, [0, 1, 1, 0], "3 entries"),
        (None, [7, 9, None], r"0\.\.2"),
        (CROSSOVER3, [-1, 1, 2], r"0\.\.2"),
        (CROSSOVER3, [0, 1, 2], r"not \(bob - alice\) mod n"),
    ],
    ids=["clean-short-row", "attacked-long-row", "clean-out-of-range",
         "attacked-negative", "attacked-wrong-branch"],
)
def test_report_from_dict_rejects_malformed_key_rows(attack, row, message):
    raw = run_simulation(make_config(rounds=300, attack=attack)).to_dict()
    raw["key_symbols"].append(row)
    with pytest.raises(ValueError, match=message):
        SimReport.from_dict(raw)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 3.9, "int"),
        ("n", "3", "int"),
        ("rounds", 2.5, "int"),
        ("rounds", True, "int"),
    ],
    ids=["float-n", "string-n", "float-rounds", "bool-rounds"],
)
def test_report_from_dict_rejects_non_int_sizes(field, value, message):
    raw = run_simulation(make_config(rounds=300)).to_dict()
    raw[field] = value
    with pytest.raises(ValueError, match=message):
        SimReport.from_dict(raw)


@pytest.mark.parametrize(
    "field, value",
    [
        ("qber", "0.5"),
        ("sifted_fraction", math.nan),
        ("empirical_i_ab", True),
        ("qber_stderr", math.inf),
        ("qber", -math.inf),
        ("sifted_fraction", None),
    ],
    ids=["string-qber", "nan-sifted", "bool-info", "inf-stderr", "neg-inf-qber", "null-sifted"],
)
def test_report_from_dict_rejects_non_finite_floats(field, value):
    raw = run_simulation(make_config(rounds=300)).to_dict()
    raw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        SimReport.from_dict(raw)


@pytest.mark.parametrize(
    "attack, row",
    [
        (None, [True, 1, None]),
        (None, [1.7, 1, None]),
        (CROSSOVER3, [0, 1, 1.0]),
        (CROSSOVER3, [0, "1", 1]),
    ],
    ids=["clean-bool", "clean-float", "attacked-float-branch", "attacked-string"],
)
def test_report_from_dict_rejects_non_int_key_entries(attack, row):
    raw = run_simulation(make_config(rounds=300, attack=attack)).to_dict()
    raw["key_symbols"].append(row)
    with pytest.raises(ValueError, match="key symbol must be an int"):
        SimReport.from_dict(raw)


def _with_count(tables, value):
    tables = [[[list(r) for r in t] for t in row] for row in tables]
    tables[0][0][0][0] = value
    return tables


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda t: t[:3], "shape"),
        (lambda t: [[[r[:2] for r in tab] for tab in row] for row in t], "shape"),
        (lambda t: _with_count(t, t[0][0][0][0] + 0.5), "int"),
        (lambda t: _with_count(t, True), "int"),
        (lambda t: _with_count(t, -1), ">= 0"),
        (lambda t: _with_count(t, t[0][0][0][0] + 1), "sum to"),
    ],
    ids=["three-pairs", "two-outcomes", "float-count", "bool-count", "negative", "wrong-sum"],
)
def test_report_from_dict_rejects_bad_tables(change, message):
    raw = run_simulation(make_config(rounds=300)).to_dict()
    raw["per_pair_tables"] = change(raw["per_pair_tables"])
    with pytest.raises(ValueError, match=message):
        SimReport.from_dict(raw)


def test_empirical_info_uniform_table_is_zero():
    n = 3
    tables = np.zeros((4, 4, n, n), dtype=np.int64)
    tables[0, 0] = 10
    report = SimReport(
        n=n,
        rounds=90 * 16,
        sifted_fraction=0.25,
        qber=0.0,
        qber_stderr=0.0,
        empirical_i_ab=0.0,
        per_pair_tables=tables,
    )
    assert empirical_info(report) == pytest.approx(0.0, abs=1e-12)


def test_empirical_info_empty_sift_raises():
    report = SimReport(
        n=2,
        rounds=10,
        sifted_fraction=0.0,
        qber=0.0,
        qber_stderr=0.0,
        empirical_i_ab=0.0,
        per_pair_tables=np.zeros((4, 4, 2, 2), dtype=np.int64),
    )
    with pytest.raises(ValueError, match="empty sift"):
        empirical_info(report)


def test_never_sifting_weights_give_empty_key():
    cfg = make_config(basis_weights=(0.0, 1.0, 0.0, 0.0), rounds=500)
    report = run_simulation(cfg)
    assert report.sifted_fraction == 0.0
    assert report.qber == 0.0
    assert report.qber_stderr == 0.0
    assert report.empirical_i_ab == 0.0
    assert len(report.key_symbols) == 0


# ---------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_property_joint_tables_are_normalized(data, n):
    tables = np.asarray(joint_distribution(data.draw(clone_params(n))))
    assert tables.shape == (4, 4, n, n)
    assert tables.min() >= -1e-12
    np.testing.assert_allclose(tables.sum(axis=(2, 3)), 1.0, rtol=0, atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(cfg=protocol_configs())
def test_property_config_round_trips(cfg):
    assert ProtocolConfig.from_dict(cfg.to_dict()) == cfg
    assert ProtocolConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
