import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import ndeb
from ndeb import cli
from ndeb.bell import BellIndex
from ndeb.cli import _envelope, _fmt_complex, main, write_report
from ndeb.sim import ProtocolConfig, run_simulation

from state_tools import brute_force_overlap
from strategies import protocol_configs


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "n": 2,
        "rounds": 400,
        "basis_weights": [0.25, 0.25, 0.25, 0.25],
        "attack": None,
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------- table


def test_table_csv_output(capsys):
    rc, out, err = run_cli(capsys, "table", "--n", "2..3")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1 command=table"
    assert lines[1] == "n,f_a,v,x,y,mutual_info_bits"
    assert lines[2].startswith("2,0.853553,")
    assert lines[3].startswith("3,0.775276,")
    assert len(lines) == 4


def test_table_json_output(capsys):
    rc, out, err = run_cli(capsys, "table", "--n", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "table"
    rows = doc["payload"]["rows"]
    assert len(rows) == 1
    assert rows[0]["n"] == 2
    assert abs(rows[0]["f_a"] - 0.8535533905932737) < 1e-6
    assert abs(rows[0]["mutual_info_bits"] - 0.3991239633071437) < 1e-6


def test_table_json_carries_optimizer_diagnostics(capsys):
    rc, out, err = run_cli(capsys, "table", "--n", "2..4", "--format", "json")
    assert rc == 0 and err == ""
    for row in json.loads(out)["payload"]["rows"]:
        assert list(row) == ["n", "f_a", "v", "x", "y", "mutual_info_bits",
                             "root_evals", "residual", "y_at_bound", "stationarity"]
        assert isinstance(row["root_evals"], int) and 2 <= row["root_evals"] <= 20
        assert 0.0 <= row["residual"] <= 1e-12
        assert row["y_at_bound"] is False
        assert 0.0 <= row["stationarity"] <= 1e-10
    rc, out, err = run_cli(capsys, "report", "--n", "2", "--format", "json")
    assert rc == 0
    assert "root_evals" not in json.loads(out)["payload"]["rows"][0]


@pytest.mark.parametrize("bad", ["1..3", "5..3", "abc", "17", "2..99"])
def test_table_rejects_bad_ranges(capsys, bad):
    rc, out, err = run_cli(capsys, "table", "--n", bad)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------- report


def test_report_csv_output(capsys):
    rc, out, err = run_cli(capsys, "report", "--n", "2..3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1 command=report"
    assert lines[1] == "n,f_a,v_thr,f_thr,error_rate_thr,sufficient"
    row2 = lines[2].split(",")
    assert row2[0] == "2"
    assert row2[2] == "0.707107"
    assert row2[4] == "0.146447"
    assert row2[5] == "true"
    row3 = lines[3].split(",")
    assert row3[4] == "0.202565"
    assert row3[5] == "true"


def test_report_json_output(capsys):
    rc, out, err = run_cli(capsys, "report", "--n", "4", "--format", "json")
    assert rc == 0
    row = json.loads(out)["payload"]["rows"][0]
    assert abs(row["v_thr"] - 0.6905497394878108) < 1e-9
    assert abs(row["error_rate_thr"] - 0.23208769538414188) < 1e-9
    assert row["sufficient"] is True


# ---------------------------------------------------------------- classes


# The two classes commands of the README.
README_CLASSES = [
    ["--n", "3", "--phi", "0", "--phi", "0.5236"],
    ["--n", "4", "--phi-index", "0", "--phi-index", "1", "--format", "json"],
]


def test_classes_text_output(capsys):
    rc, out, err = run_cli(capsys, "classes", "--n", "3", "--phi", "0", "--phi", "0.5236")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n=3 ")
    assert "classes=5" in lines[0]
    assert len(lines) == 6
    assert lines[1] == "class 0: (0,0)"


def test_classes_json_with_index_angles(capsys):
    rc, out, err = run_cli(
        capsys, "classes", "--n", "3", "--phi-index", "0", "--phi-index", "1",
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == 5
    assert sorted(map(tuple, payload["classes"][0])) == [(0, 0)]
    assert len(payload["angles"]) == 2


def test_classes_requires_two_angles(capsys):
    rc, out, err = run_cli(capsys, "classes", "--n", "3", "--phi", "0.1")
    assert rc == 2
    assert "two angles" in err


def test_classes_rejects_bad_dimension(capsys):
    rc, _, err = run_cli(capsys, "classes", "--n", "99", "--phi", "0", "--phi", "1")
    assert rc == 2
    assert err.startswith("error:")


def test_classes_rejects_bad_index(capsys):
    rc, _, err = run_cli(
        capsys, "classes", "--n", "3", "--phi-index", "0", "--phi-index", "5"
    )
    assert rc == 2
    assert "--phi-index" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_classes_rejects_non_finite_angle(capsys, bad):
    rc, out, err = run_cli(capsys, "classes", "--n", "3", f"--phi={bad}", "--phi", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error: phis[0] must be a finite number")


# ---------------------------------------------------------------- overlap


def test_overlap_identity_text(capsys):
    rc, out, err = run_cli(
        capsys, "overlap", "--n", "2", "--phi1", "0", "--phi2", "0", "--idx", "0,0,0,0"
    )
    assert rc == 0
    assert out.strip() == "closed_form=1+0j"


def test_overlap_modes_agree_in_text(capsys):
    rc, out, err = run_cli(
        capsys, "overlap", "--n", "3", "--phi1", "0.2", "--phi2", "1.1",
        "--idx", "1,2,2,2",
    )
    assert rc == 0
    brute = brute_force_overlap(3, 0.2, 1.1, BellIndex(1, 2), BellIndex(2, 2))
    assert out.strip() == f"closed_form={_fmt_complex(brute)}"


def test_overlap_json_payload(capsys):
    rc, out, err = run_cli(
        capsys, "overlap", "--n", "4", "--phi1-index", "0", "--phi2-index", "2",
        "--idx", "0,1,2,1", "--variant", "BC", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)["payload"]
    assert set(payload) == {"n", "phi1", "phi2", "indices", "variant", "closed_form"}
    assert payload["variant"] == "BC"
    assert payload["indices"] == [0, 1, 2, 1]


# The two overlap commands of the README.
README_OVERLAPS = [
    ["--n", "3", "--phi1", "0.2", "--phi2", "1.1", "--idx", "1,2,2,2"],
    ["--n", "4", "--phi1-index", "0", "--phi2-index", "2", "--idx", "0,1,2,1",
     "--variant", "BC"],
]


@pytest.mark.parametrize("argv", README_OVERLAPS, ids=["n3-text", "n4-bc-json"])
def test_overlap_closed_form_matches_brute_force(capsys, argv):
    rc, out, err = run_cli(capsys, "overlap", *argv, "--format", "json")
    assert rc == 0 and err == ""
    payload = json.loads(out)["payload"]
    i, j, k, l = payload["indices"]
    variant = payload["variant"]
    brute = brute_force_overlap(
        payload["n"], payload["phi1"], payload["phi2"],
        BellIndex(i, j, variant), BellIndex(k, l, variant),
    )
    closed = complex(payload["closed_form"]["re"], payload["closed_form"]["im"])
    assert abs(closed - brute) < 1e-12


def test_overlap_requires_exactly_one_angle_source(capsys):
    rc, _, err = run_cli(
        capsys, "overlap", "--n", "2", "--phi1", "0", "--phi1-index", "1",
        "--phi2", "0", "--idx", "0,0,0,0",
    )
    assert rc == 2
    assert "exactly one" in err
    rc, _, err = run_cli(capsys, "overlap", "--n", "2", "--phi2", "0", "--idx", "0,0,0,0")
    assert rc == 2


def test_overlap_rejects_malformed_indices(capsys):
    rc, _, err = run_cli(
        capsys, "overlap", "--n", "2", "--phi1", "0", "--phi2", "1", "--idx", "1,2,3"
    )
    assert rc == 2
    assert "--idx" in err


@pytest.mark.parametrize("idx", ["1.9,0,0,0", "0,0,true,0"])
def test_overlap_rejects_non_int_indices(capsys, idx):
    rc, out, err = run_cli(
        capsys, "overlap", "--n", "3", "--phi1", "0", "--phi2", "1", "--idx", idx
    )
    assert rc == 2 and out == ""
    assert "--idx expects i,j,k,l with four ints" in err


def test_overlap_rejects_bad_angle_index(capsys):
    rc, _, err = run_cli(
        capsys, "overlap", "--n", "2", "--phi1-index", "9", "--phi2", "0",
        "--idx", "0,0,0,0",
    )
    assert rc == 2
    assert "--phi1-index" in err


@pytest.mark.parametrize("flag", ["--phi1", "--phi2"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_overlap_rejects_non_finite_angle(capsys, flag, bad):
    angles = {"--phi1": "0.2", "--phi2": "0.9", flag: bad}
    rc, out, err = run_cli(
        capsys, "overlap", "--n", "3", *[a for kv in angles.items() for a in kv],
        "--idx", "0,1,1,1",
    )
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {flag[2:]} must be a finite number")


# ---------------------------------------------------------------- simulate


def test_simulate_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "simulate", str(cfg), str(out_path))
    assert rc == 0
    assert out.startswith("sifted_fraction=")
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == "1"
    assert doc["command"] == "simulate"
    payload = doc["payload"]
    assert payload["n"] == 2
    assert payload["rounds"] == 400
    assert payload["qber"] == 0.0


def test_simulate_attack_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        n=3,
        rounds=20000,
        attack={"v": 0.8319757906688726, "x": 0.17108599520763154, "y": 0.2038281335784852},
    )
    out_path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "simulate", str(cfg), str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())["payload"]
    assert 0.15 < payload["qber"] < 0.3
    assert all(sym[2] is not None for sym in payload["key_symbols"])


def test_simulate_is_deterministic_across_shards(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(capsys, "simulate", str(cfg), str(out1))[0] == 0
    assert run_cli(capsys, "simulate", str(cfg), str(out2), "--shards", "7")[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_huge_shard_count_matches_one_shard(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=10)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(capsys, "simulate", str(cfg), str(out1))[0] == 0
    rc = run_cli(capsys, "simulate", str(cfg), str(out2), "--shards", str(2 ** 40))[0]
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("shards", ["0", "-3"])
def test_simulate_rejects_a_shard_count_below_one(tmp_path, capsys, shards):
    cfg = write_config(tmp_path, rounds=10)
    out = tmp_path / "report.json"
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(out), "--shards", shards)
    assert rc == 2
    assert f"--shards must be >= 1, got {shards}" in err
    assert not out.exists()


CROSSOVER3 = {"v": 0.8319757906688726, "x": 0.17108599520763154, "y": 0.2038281335784852}
GOLDEN_BASE = dict(n=3, rounds=20000, basis_weights=[0.25] * 4, attack=None, seed=20240811)

# sha256 of the file `ndeb simulate` writes, taken from the json.dump
# writer: the first six run the first five configs of test_report_golden_digest
# (the first at --shards 1 and 3), the last two small versions of the
# benchmark's simulate workloads.
GOLDEN_REPORT_FILES = [
    (dict(attack=CROSSOVER3, rounds=10001), 1,
     "e7c8b8c5fa2785e96707be77f5fb0ec4179c71a24652e7a42b1d7d4df5579507"),
    (dict(attack=CROSSOVER3, rounds=10001), 3,
     "e7c8b8c5fa2785e96707be77f5fb0ec4179c71a24652e7a42b1d7d4df5579507"),
    (dict(n=16, rounds=2000, basis_weights=[0.7, 0.1, 0.1, 0.1]), 1,
     "b75967239f12d111d8776664b7e50573014827bbd688fa68ab111beeb3b3594f"),
    (dict(n=2, rounds=1), 1,
     "edc9cbb70c6c1c1a7b41cca5c1d5836b6855017caeb1328add6c8c03f627163d"),
    (dict(n=2, rounds=1, attack={"v": 0.7, "x": math.sqrt(0.19), "y": 0.4}, seed=1), 1,
     "3064ea46ede4c384dfe00bafee00ebd5ead8381ea514fdbfea7d2f7dab3b2756"),
    (dict(basis_weights=[0.0, 1.0, 0.0, 0.0], rounds=500), 1,
     "2e26c63eca599eb8915d478149ac3acfa0b85ba64c73960732d57d0ccf50c13d"),
    (dict(attack=CROSSOVER3, rounds=30000, seed=7), 2,
     "c7237836b17700fa1bd0471cb38d0efce1e98bf7df9e32130a99c72e855ffb2d"),
    (dict(n=16, rounds=6000, basis_weights=[0.7, 0.1, 0.1, 0.1], seed=7), 1,
     "2dd35dd538ee0f19f2322372c78be4188b3c35f4fc6843da54b993f4bd0d5bdf"),
]


def reference_report_text(report):
    """The report file as the json.dump writer made it."""
    return json.dumps(_envelope("simulate", report.to_dict()), indent=2) + "\n"


def assert_same_text(got, want):
    # pytest's own diff of two large texts can run for minutes, so show
    # only where they part.
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts part at offset {i}: {got[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}")


@pytest.mark.parametrize(
    "overrides, shards, digest",
    GOLDEN_REPORT_FILES,
    ids=["n3-attacked-s1", "n3-attacked-s3", "n16-clean", "n2-one-round",
         "n2-one-round-attacked", "never-sifting", "bench-n3-attacked-s2",
         "bench-n16-clean"],
)
def test_simulate_report_file_golden_digest(tmp_path, capsys, overrides, shards, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**GOLDEN_BASE, **overrides}))
    out = tmp_path / "report.json"
    assert run_cli(capsys, "simulate", str(cfg), str(out), "--shards", str(shards))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(cfg=protocol_configs())
@example(cfg=ProtocolConfig(3, 500, (0.0, 1.0, 0.0, 0.0), None, 5))
def test_property_report_writer_matches_json_encoder(cfg):
    report = run_simulation(cfg)
    buf = io.StringIO()
    write_report(buf, report)
    assert_same_text(buf.getvalue(), reference_report_text(report))


@pytest.mark.parametrize("rows_per_write", [1, 7, 16])
def test_report_writer_slices_match_json_encoder(monkeypatch, rows_per_write):
    # 64 rounds with one basis always sift into exactly 64 rows.
    report = run_simulation(ProtocolConfig(3, 64, (1.0, 0.0, 0.0, 0.0), None, 3))
    assert len(report.key_symbols) == 64
    monkeypatch.setattr(cli, "KEY_ROWS_PER_WRITE", rows_per_write)
    buf = io.StringIO()
    write_report(buf, report)
    assert_same_text(buf.getvalue(), reference_report_text(report))


def assert_env_seed_is_ignored(tmp_path, capsys, monkeypatch, value):
    cfg = write_config(tmp_path)
    base = tmp_path / "base.json"
    run_cli(capsys, "simulate", str(cfg), str(base))
    monkeypatch.setenv("NDEB_SEED", value)
    again = tmp_path / "again.json"
    rc, _, _ = run_cli(capsys, "simulate", str(cfg), str(again))
    assert rc == 0
    assert again.read_bytes() == base.read_bytes()


def test_simulate_ignores_env_seed(tmp_path, capsys, monkeypatch):
    assert_env_seed_is_ignored(tmp_path, capsys, monkeypatch, "12345")


def test_simulate_ignores_bad_env_seed(tmp_path, capsys, monkeypatch):
    assert_env_seed_is_ignored(tmp_path, capsys, monkeypatch, "not-a-seed")


def test_simulate_missing_config(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys, "simulate", str(tmp_path / "nope.json"), str(tmp_path / "out.json")
    )
    assert rc == 2
    assert "config file not found" in err


def test_simulate_invalid_config_values(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=0)
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(tmp_path / "out.json"))
    assert rc == 2
    assert err.startswith("error:")


def test_simulate_rejects_rounds_above_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, rounds=10 ** 7 + 1)
    out = tmp_path / "out.json"
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(out))
    assert rc == 2
    assert "rounds must be in 1..10000000" in err
    assert not out.exists()


def test_simulate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run_cli(capsys, "simulate", str(path), str(tmp_path / "out.json"))
    assert rc == 2


def test_simulate_config_missing_keys(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"rounds": 100, "seed": 7}))
    rc, _, err = run_cli(capsys, "simulate", str(path), str(tmp_path / "out.json"))
    assert rc == 2
    assert "missing required keys: n, basis_weights" in err


def test_simulate_config_bad_attack_block(tmp_path, capsys):
    path = tmp_path / "badattack.json"
    path.write_text(
        json.dumps(
            {
                "n": 2,
                "rounds": 100,
                "basis_weights": [0.25, 0.25, 0.25, 0.25],
                "seed": 7,
                "attack": {"v": 0.9, "x": 0.1},
            }
        )
    )
    rc, _, err = run_cli(capsys, "simulate", str(path), str(tmp_path / "out.json"))
    assert rc == 2
    assert "attack block" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_simulate_rejects_non_finite_literals(tmp_path, capsys, literal):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"n": 2, "rounds": 100, "seed": 7, "attack": null,'
        f' "basis_weights": [{literal}, 0.25, 0.25, 0.25]}}'
    )
    out = tmp_path / "out.json"
    rc, _, err = run_cli(capsys, "simulate", str(path), str(out))
    assert rc == 2
    assert f"non-finite number {literal}" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("rounds", 2.9), ("seed", True), ("n", 2.0)])
def test_simulate_rejects_non_int_fields(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, **{key: value})
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(tmp_path / "out.json"))
    assert rc == 2
    assert f"{key} must be an int" in err


@pytest.mark.parametrize(
    "weights, message",
    [(["0.25"] * 4, "basis_weights[0] must be a finite number"),
     ([True, False, False, False], "basis_weights[0] must be a finite number"),
     (5, "basis_weights must be a sequence"),
     (None, "basis_weights must be a sequence")],
    ids=["strings", "bools", "number", "null"],
)
def test_simulate_rejects_non_numeric_weights(tmp_path, capsys, weights, message):
    cfg = write_config(tmp_path, basis_weights=weights)
    out = tmp_path / "out.json"
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(out))
    assert rc == 2
    assert message in err
    assert not out.exists()


def test_simulate_rejects_non_numeric_attack_values(tmp_path, capsys):
    cfg = write_config(tmp_path, attack={"v": "1", "x": 0, "y": False})
    out = tmp_path / "out.json"
    rc, _, err = run_cli(capsys, "simulate", str(cfg), str(out))
    assert rc == 2
    assert "attack.v must be a finite number" in err
    assert not out.exists()


# ---------------------------------------------------------------- module entry


def test_module_entry_point_runs():
    # The child imports the same ndeb as this test, installed or not.
    src = str(Path(ndeb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ndeb", "table", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "f_a" in proc.stdout


def test_table_and_report_load_no_numpy():
    # A fresh interpreter, so that no other test's imports count.  Every
    # command but simulate runs without numpy: table and report, and the
    # README's classes and overlap commands.  So do the exact outcome tables.
    src = str(Path(ndeb.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = [["report", "--n", "2..16"], ["table", "--n", "2..16", "--format", "json"]]
    commands += [["classes", *argv] for argv in README_CLASSES]
    commands += [["overlap", *argv, "--format", fmt]
                 for argv in README_OVERLAPS for fmt in ("text", "json")]
    script = (
        "import contextlib, io, sys\n"
        "import ndeb\n"
        "from ndeb import crossover_fidelity, invariance_classes, overlap_matrix\n"
        "import ndeb.cli as cli\n"
        "from ndeb.cloner import joint_distribution\n"
        "from ndeb.info import CloneParams\n"
        "joint_distribution(CloneParams.identity(16))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
