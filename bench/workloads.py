"""The four benchmark workloads: inputs, warm-up, operations and checks.

A workload turns the benchmark seed into the command lines one
operation runs through ``ndeb.cli.main`` (and the config files they
read), says which files an operation writes, and checks those files.
The program only ever sees the generated arguments and configs.

Why these four:

- thresholds-sweep: ``report --n 2..16``.  Nearly all time is in the
  thresholds optimizer and the information formulas; sim and bell idle.
- simulate-n3-attacked: 1e6 rounds under the crossover attack with two
  shards.  Time goes to per-round processing and report encoding.
- simulate-n16-clean: 2e5 clean rounds at N=16 with skewed weights.
  The same sim layer with 256-outcome tables and no eavesdropper
  branch; per-dimension set-up (exact tables, pairing) dominates.
- classes-sweep: ``classes`` with all four angles for N=2..16, the only
  workload that exercises the bell layer.

Every check is independent of the random stream, so a change to the
simulator's stream does not fail the benchmark, while a wrong table,
symbol, error rate or shard dependence does.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIMS = range(2, 17)

# Basis-index pairs kept at sifting, as the protocol defines them.
SIFT_PAIRS = ((0, 0), (2, 2), (1, 3), (3, 1))

# Local-realism error rates of the README threshold table, in percent.
README_ERROR_RATE_PCT = {
    2: 14.64, 3: 20.26, 4: 23.21, 5: 25.03, 6: 26.26,
    7: 27.15, 8: 27.82, 9: 28.35, 10: 28.77,
}
F_A_TOL = 1e-9
ERROR_RATE_TOL_PCT = 0.02
Z_MAX = 5.0


def load_golden() -> dict[int, dict]:
    rows = json.loads((HERE / "golden.json").read_text())["rows"]
    return {row["n"]: row for row in rows}


def json_documents(text: str) -> list:
    """Every JSON value in ``text``, which holds them back to back."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


class Workload:
    """One workload bound to a seed and a directory for its files."""

    def __init__(self, seed: int, out_dir: Path, golden: dict[int, dict]):
        self.seed = seed
        self.out = out_dir
        self.golden = golden

    def stdout_path(self, i: int) -> Path:
        return self.out / f"op{i}.stdout"

    def outputs(self, i: int) -> list[Path]:
        """Files operation i writes: its stdout and any report."""
        return [self.stdout_path(i)]

    def final_check(self, run_cli) -> list[str] | None:
        """Problems found by one more untimed operation, or None if there is none."""
        return None


class ThresholdsSweep(Workload):
    """``ndeb report --n 2..16 --format json``; the input has no random part."""

    items_per_op = len(DIMS)

    def warm_up(self) -> None:
        from ndeb.thresholds import max_eve_info

        for n in DIMS:
            max_eve_info(n, self.golden[n]["f_a"])

    def argvs(self, i: int) -> list[list[str]]:
        return [["report", "--n", f"{DIMS[0]}..{DIMS[-1]}", "--format", "json"]]

    def check(self, i: int) -> list[str]:
        rows = json.loads(self.stdout_path(i).read_text())["payload"]["rows"]
        problems = []
        if [row["n"] for row in rows] != list(DIMS):
            return [f"rows cover n={[row['n'] for row in rows]}"]
        for row in rows:
            n = row["n"]
            if abs(row["f_a"] - self.golden[n]["f_a"]) > F_A_TOL:
                problems.append(f"n={n}: f_a={row['f_a']!r} differs from the golden table")
            if n in README_ERROR_RATE_PCT:
                pct = 100.0 * row["error_rate_thr"]
                if abs(pct - README_ERROR_RATE_PCT[n]) > ERROR_RATE_TOL_PCT:
                    problems.append(f"n={n}: error_rate_thr={pct:.4f}% off the README table")
            if row["sufficient"] is not True:
                problems.append(f"n={n}: sufficient is {row['sufficient']!r}")
        if abs(rows[0]["f_a"] - (0.5 + 1.0 / math.sqrt(8.0))) > F_A_TOL:
            problems.append(f"n=2: f_a={rows[0]['f_a']!r} is not 1/2 + 1/sqrt(8)")
        return problems


class ClassesSweep(Workload):
    """``ndeb classes --n k`` with all four angle indices, k = 2..16.

    The seed shuffles the order of the four ``--phi-index`` flags per k;
    the partition does not depend on it.
    """

    items_per_op = len(DIMS)

    def warm_up(self) -> None:
        from ndeb.cloner import invariance_classes
        from ndeb.qudit import optimal_angles

        for n in DIMS:
            invariance_classes(n, optimal_angles(n)[:2])

    def argvs(self, i: int) -> list[list[str]]:
        rng = random.Random(f"{self.seed}:{i}")
        out = []
        for n in DIMS:
            order = [0, 1, 2, 3]
            rng.shuffle(order)
            flags = [arg for idx in order for arg in ("--phi-index", str(idx))]
            out.append(["classes", "--n", str(n), *flags, "--format", "json"])
        return out

    def check(self, i: int) -> list[str]:
        docs = json_documents(self.stdout_path(i).read_text())
        got = [(doc["payload"]["n"], doc["payload"]["count"], len(doc["payload"]["classes"]))
               for doc in docs]
        want = [(n, 2 * n - 1, 2 * n - 1) for n in DIMS]
        if got != want:
            return [f"(n, count, classes) = {got}, expected {want}"]
        return []


class Simulate(Workload):
    """``ndeb simulate config.json report.json --shards s`` on a generated config."""

    def __init__(self, seed, out_dir, golden, *, n, rounds, weights, attacked, shards):
        super().__init__(seed, out_dir, golden)
        self.n, self.rounds, self.weights = n, rounds, weights
        self.attacked, self.shards = attacked, shards
        self.items_per_op = rounds
        self._config_seeds = random.Random(seed)

    def attack(self) -> dict | None:
        if not self.attacked:
            return None
        row = self.golden[self.n]
        return {"v": row["v"], "x": row["x"], "y": row["y"]}

    def warm_up(self) -> None:
        from ndeb.cloner import CloneParams
        from ndeb.sim import ProtocolConfig, run_simulation

        attack = self.attack()
        params = None if attack is None else CloneParams(self.n, **attack)
        run_simulation(ProtocolConfig(self.n, 1, tuple(self.weights), params, 0))

    def config_path(self, i: int) -> Path:
        return self.out / f"op{i}.config.json"

    def report_path(self, i: int) -> Path:
        return self.out / f"op{i}.report.json"

    def outputs(self, i: int) -> list[Path]:
        return [self.stdout_path(i), self.report_path(i)]

    def argvs(self, i: int) -> list[list[str]]:
        config = {
            "n": self.n,
            "rounds": self.rounds,
            "basis_weights": self.weights,
            "attack": self.attack(),
            "seed": self._config_seeds.getrandbits(63),
        }
        self.config_path(i).write_text(json.dumps(config))
        return [["simulate", str(self.config_path(i)), str(self.report_path(i)),
                 "--shards", str(self.shards)]]

    def check(self, i: int) -> list[str]:
        rep = json.loads(self.report_path(i).read_text())["payload"]
        n, rounds = self.n, self.rounds
        tables = rep["per_pair_tables"]
        total = sum(c for row_a in tables for tab in row_a for row in tab for c in row)
        sifted = sum(c for a, b in SIFT_PAIRS for row in tables[a][b] for c in row)
        if sifted == 0:
            return ["no sifted rounds"]
        problems = []
        if rep["rounds"] != rounds or total != rounds:
            problems.append(f"tables sum to {total}, report says {rep['rounds']}, config {rounds}")
        symbols = rep["key_symbols"]
        if len(symbols) != sifted:
            problems.append(f"{len(symbols)} key symbols for {sifted} sifted rounds")
        if self.attacked:
            if any(eve != (bob - alice) % n for alice, bob, eve in symbols):
                problems.append("an eavesdropper branch is not (bob - alice) mod n")
        elif any(eve is not None for _, _, eve in symbols):
            problems.append("a clean run reports an eavesdropper branch")

        if self.attacked:
            q = 1.0 - self.golden[n]["f_a"]
            se = math.sqrt(q * (1.0 - q) / sifted)
            if abs(rep["qber"] - q) > Z_MAX * se:
                problems.append(f"qber={rep['qber']!r} is over {Z_MAX} SE from {q!r}")
        elif rep["qber"] != 0.0:
            problems.append(f"clean run has qber={rep['qber']!r}")
        p = sum(self.weights[a] * self.weights[b] for a, b in SIFT_PAIRS)
        sigma = math.sqrt(p * (1.0 - p) / rounds)
        if abs(rep["sifted_fraction"] - p) > Z_MAX * sigma:
            problems.append(
                f"sifted_fraction={rep['sifted_fraction']!r} is over {Z_MAX} sigma from {p!r}"
            )
        return problems

    def final_check(self, run_cli) -> list[str]:
        """Re-run operation 0 with the other shard count; reports must be byte-identical."""
        other = 1 if self.shards != 1 else 2
        path = self.out / f"op0.shards{other}.report.json"
        argv = ["simulate", str(self.config_path(0)), str(path), "--shards", str(other)]
        if run_cli([argv], self.out / "op0.shards.stdout") != 0:
            return [f"simulate --shards {other} failed"]
        if path.read_bytes() != self.report_path(0).read_bytes():
            return [f"--shards {self.shards} and --shards {other} reports differ"]
        return []


def simulate_n3_attacked(seed, out_dir, golden):
    return Simulate(seed, out_dir, golden, n=3, rounds=1_000_000,
                    weights=[0.25, 0.25, 0.25, 0.25], attacked=True, shards=2)


def simulate_n16_clean(seed, out_dir, golden):
    return Simulate(seed, out_dir, golden, n=16, rounds=200_000,
                    weights=[0.7, 0.1, 0.1, 0.1], attacked=False, shards=1)


WORKLOADS = {
    "thresholds-sweep": ThresholdsSweep,
    "simulate-n3-attacked": simulate_n3_attacked,
    "simulate-n16-clean": simulate_n16_clean,
    "classes-sweep": ClassesSweep,
}
