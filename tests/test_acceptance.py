"""Acceptance gate: every release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion; any FAIL also fails the corresponding test.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ndeb.bell import bell_overlap, BellIndex, overlap_matrix
from ndeb.cloner import CloneParams, invariance_classes, joint_distribution, werner_noise_fraction
from ndeb.info import i_ab, i_ae
from ndeb.qudit import optimal_angles
from ndeb.sim import ProtocolConfig, run_simulation
from ndeb.thresholds import max_eve_info, security_report, y_max

import born_oracle
from state_tools import (
    AmplitudeMatrix,
    alice_measurement_basis,
    bob_measurement_basis,
    brute_force_gram,
    brute_force_overlap,
    build_attack_state,
    eve_conditional,
    expand_overlap_table,
    matrix_i_ae,
    params_to_matrix,
    phi_basis_matrix,
    reduced_state_ra,
    state_tables,
    traced_reduced_state,
    werner_state,
)

# six-digit reference values for the crossover fidelity, dimensions 2..10
EXPECTED_CROSSOVER = {
    2: 0.853553,
    3: 0.775276,
    4: 0.734178,
    5: 0.708043,
    6: 0.689788,
    7: 0.676230,
    8: 0.665708,
    9: 0.657267,
    10: 0.650319,
}

# local-realism error-rate thresholds in percent, to two decimals
EXPECTED_ERROR_RATE_PCT = {2: 14.64, 3: 20.26, 4: 23.21, 5: 25.03, 10: 28.77}

CROSSOVER3 = CloneParams(
    3, 0.8319757906688726, 0.17108599520763154, 0.2038281335784852
)


@contextmanager
def reported(num, text):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {text}")
        raise
    print(f"criterion {num:02d}: PASS  {text}")


@pytest.fixture(scope="module")
def table():
    start = time.perf_counter()
    records = security_report(2, 10)
    elapsed = time.perf_counter() - start
    return records, elapsed


def plug_in_mi(joint):
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    mask = joint > 0
    return float((joint[mask] * np.log2(joint[mask] / np.outer(pa, pb)[mask])).sum())


def test_criterion_01_crossover_table(table):
    records, elapsed = table
    with reported(1, "crossover fidelities for dimensions 2..10 within 5e-4, under 60 s"):
        assert elapsed < 60.0, f"table took {elapsed:.1f} s"
        for rec in records:
            expected = EXPECTED_CROSSOVER[rec.n]
            assert abs(rec.f_a - expected) < 5e-4, (rec.n, rec.f_a, expected)


def test_criterion_02_qubit_crossover_closed_form(table):
    records, _ = table
    with reported(2, "qubit crossover equals 1/2 + 1/sqrt(8) within 1e-4"):
        assert abs(records[0].f_a - (0.5 + 1 / math.sqrt(8))) < 1e-4


def test_criterion_03_local_realism_error_rates(table):
    records, _ = table
    by_n = {rec.n: rec for rec in records}
    with reported(3, "local-realism error-rate thresholds within 0.02 percentage points"):
        for n, expected_pct in EXPECTED_ERROR_RATE_PCT.items():
            got_pct = 100.0 * (1.0 - by_n[n].f_thr)
            assert abs(got_pct - expected_pct) < 0.02, (n, got_pct, expected_pct)


def test_criterion_04_nonlocality_covers_security(table):
    records, _ = table
    with reported(4, "local-realism fidelity sits at or above the attack crossover"):
        for rec in records:
            assert rec.f_thr >= rec.f_a - 1e-4, (rec.n, rec.f_thr, rec.f_a)
        assert abs(records[0].f_thr - records[0].f_a) < 1e-4


def test_criterion_05_overlap_dual_route():
    rng = np.random.default_rng(51)
    with reported(5, "closed-form vs brute-force overlaps within 1e-12 (N=2..5)"):
        for n in (2, 3, 4, 5):
            quarter = math.pi / (2 * n)
            pairs = [
                (0.0, quarter),
                (0.0, 2 * quarter),
                (0.0, 3 * quarter),
                (0.3, 1.1),
                (-0.7, 0.4),
                tuple(rng.uniform(-3, 3, size=2)),
            ]
            for phi1, phi2 in pairs:
                closed = expand_overlap_table(overlap_matrix(n, phi1, phi2))
                brute = brute_force_gram(n, phi1, phi2)
                assert np.max(np.abs(closed - brute)) < 1e-12, (n, phi1, phi2)
                for _ in range(3):
                    i, j, k, l = rng.integers(0, n, size=4)
                    one = bell_overlap(
                        n, phi1, phi2, BellIndex(int(i), int(j)), BellIndex(int(k), int(l))
                    )
                    two = brute_force_overlap(
                        n, phi1, phi2, BellIndex(int(i), int(j)), BellIndex(int(k), int(l))
                    )
                    assert abs(one - two) < 1e-12


def test_criterion_06_invariance_classes_and_basis_independence():
    rng = np.random.default_rng(62)
    with reported(6, "2N-1 invariance classes and basis-independent attack states"):
        for n in range(2, 7):
            quarter = math.pi / (2 * n)
            for dphi in (quarter, 2 * quarter, 3 * quarter, 0.7123):
                partition = invariance_classes(n, [0.0, dphi])
                assert len(partition) == 2 * n - 1, (n, dphi, len(partition))
                classes = partition.sorted_classes()
                singles = [cls for cls in classes if len(cls) == 1]
                assert {cls[0] for cls in singles} == {(m, 0) for m in range(n)}
                for cls in classes:
                    if len(cls) > 1:
                        cols = {nn for _, nn in cls}
                        assert len(cols) == 1 and len(cls) == n
        for n in (2, 3, 4):
            partition = invariance_classes(n, list(optimal_angles(n)))
            a = np.zeros((n, n), dtype=complex)
            for cls in partition.sorted_classes():
                val = rng.normal() + 1j * rng.normal()
                for m, nn in cls:
                    a[m, nn] = val
            a /= np.linalg.norm(a.reshape(-1))
            amps = AmplitudeMatrix(a)
            states = [
                build_attack_state(phi_basis_matrix(n, float(phase)), amps).amps
                for phase in optimal_angles(n)
            ]
            for other in states[1:]:
                assert np.max(np.abs(other - states[0])) < 1e-10, n


def test_criterion_07_reduced_state_and_isotropic_disguise():
    rng = np.random.default_rng(73)
    with reported(7, "reduced-state routes and the closed-form tables within 1e-12; "
                     "all 16 tables isotropic"):
        for n in (2, 3, 4):
            for _ in range(20):
                p = CloneParams(n, *born_oracle.random_clone_params(n, rng))
                closed = reduced_state_ra(p).entries
                traced = traced_reduced_state(p)
                assert np.max(np.abs(closed - traced.entries)) < 1e-12, n
                tables = np.asarray(joint_distribution(p))
                assert np.max(np.abs(tables - state_tables(traced))) < 1e-12, n
        for n in (2, 3):
            for _ in range(3):
                p = CloneParams(n, *born_oracle.random_clone_params(n, rng, noise_bounded=True))
                target = werner_state(n, werner_noise_fraction(p)).entries
                for a in range(4):
                    for b in range(4):
                        table = np.asarray(joint_distribution(p))[a, b]
                        oracle = born_oracle.density_pair_distribution(
                            target,
                            alice_measurement_basis(n, a).u,
                            bob_measurement_basis(n, b).u,
                        )
                        assert np.max(np.abs(table - oracle)) < 1e-12, (n, a, b)


def test_criterion_08_information_vs_born_rule():
    rng = np.random.default_rng(84)
    with reported(8, "channel information matches the four-slot Born table within 1e-10"):
        for n in (2, 3):
            cases = [CloneParams(n, *born_oracle.random_clone_params(n, rng)) for _ in range(5)]
            if n == 3:
                cases.append(CROSSOVER3)
            for p in cases:
                a = params_to_matrix(p).a
                four = born_oracle.sifted_four_way(born_oracle.phi_matrix(n, 0.0), a)
                assert abs(i_ab(p) - plug_in_mi(four.sum(axis=(2, 3)))) < 1e-10
                joint_a_ec = four.sum(axis=1).reshape(n, n * n)
                assert abs(i_ae(p) - plug_in_mi(joint_a_ec)) < 1e-10
                for m in range(n):
                    cond = np.zeros(n)
                    for ai in range(n):
                        for bi in range(n):
                            if (bi - ai) % n != m:
                                continue
                            for e in range(n):
                                for c in range(n):
                                    cond[(ai - e) % n] += four[ai, bi, e, c]
                    cond /= cond.sum()
                    assert np.max(np.abs(eve_conditional(p, m) - cond)) < 1e-10


def test_criterion_09_complex_phases_do_not_help():
    with reported(9, "complex flat-amplitude phases never beat the real optimum (N=2)"):
        for fid in (0.7, 0.5 + 1 / math.sqrt(8), 0.92):
            _, best = max_eve_info(2, fid)
            cap = y_max(2, fid)
            for y in np.linspace(0.0, cap, 41):
                v2 = max(fid - y * y, 0.0)
                x2 = max(1.0 - fid - y * y, 0.0)
                v, x = math.sqrt(v2), math.sqrt(x2)
                for theta in np.linspace(0.0, 2 * math.pi, 37):
                    off = y * np.exp(1j * theta)
                    a = np.array([[v, off], [x, off]])
                    val = matrix_i_ae(AmplitudeMatrix(a))
                    assert val <= best + 1e-9, (fid, y, theta, val, best)


def test_criterion_10_simulator_end_to_end():
    with reported(10, "clean run error-free; attacked run at target rate"):
        clean = run_simulation(
            ProtocolConfig(
                n=3, rounds=20000, basis_weights=(0.25,) * 4, attack=None, seed=1905
            )
        )
        assert clean.qber == 0.0
        attacked_cfg = ProtocolConfig(
            n=3, rounds=100000, basis_weights=(0.25,) * 4, attack=CROSSOVER3, seed=1905
        )
        attacked = run_simulation(attacked_cfg)
        assert attacked.qber_stderr > 0
        assert abs(attacked.qber - 0.224724) <= 3 * attacked.qber_stderr, (
            attacked.qber,
            attacked.qber_stderr,
        )
