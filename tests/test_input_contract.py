"""One input contract over every public entry point: a bad scalar raises ValueError.

Each row of ``CASES`` names a public callable of ``ndeb.__all__`` and one
of its scalar arguments (or one entry of an array argument), a strategy
of values that argument must reject, a call that passes the drawn value
there and valid values everywhere else, and a valid value for the same
slot.  ``ThresholdRecord`` and ``SimReport`` are results the library
builds; a report that enters from outside goes through
``SimReport.from_dict``, which the table covers.  Every key of a
simulation config is also fed to ``ndeb simulate``, which must exit with
status 2.  ``test_table_covers_every_public_name`` keeps the table in
step with ``ndeb.__all__``.  The two readers, ``ProtocolConfig.from_dict``
and ``SimReport.from_dict``, also reject a document that is not an
object or lacks a field, naming it.
"""
import copy
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ndeb
from ndeb import (
    BellIndex,
    ClassPartition,
    CloneParams,
    ProtocolConfig,
    SimReport,
    bell_overlap,
    crossover_fidelity,
    invariance_classes,
    max_eve_info,
    optimal_angles,
    overlap_matrix,
    phi_basis,
    run_simulation,
    security_report,
    visibility_threshold,
)
from ndeb.bell import VARIANTS
from ndeb.cli import main

from strategies import bad_scalars

INT, REAL = bad_scalars("int"), bad_scalars("real")

ATTACK = CloneParams(2, 0.6, 0.8, 0.0)
GRID = (frozenset((m, j) for m in range(2) for j in range(2)),)
CONFIG = {
    "n": 2,
    "rounds": 200,
    "basis_weights": [0.25, 0.25, 0.25, 0.25],
    "attack": {"v": 0.6, "x": 0.8, "y": 0.0},
    "seed": 11,
}
# (path into CONFIG, strategy, valid value)
CONFIG_KEYS = [
    (("n",), INT, 2),
    (("rounds",), INT, 200),
    *((("basis_weights", i), REAL, 0.25) for i in range(4)),
    (("seed",), INT, 11),
    (("attack", "v"), REAL, 0.6),
    (("attack", "x"), REAL, 0.8),
    (("attack", "y"), REAL, 0.0),
]


def replaced(doc, path, value):
    """A deep copy of ``doc`` with ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    owner[last] = value
    return doc


def config_id(path):
    return ".".join(str(part) for part in path)


def small_config(**overrides):
    return ProtocolConfig(**{"n": 2, "rounds": 200, "basis_weights": (0.25,) * 4,
                             "attack": ATTACK, "seed": 11, **overrides})


def weights_with(i, value):
    weights = [0.25] * 4
    weights[i] = value
    return weights


REPORT = run_simulation(small_config()).to_dict()
# (path into REPORT, strategy, valid value)
REPORT_KEYS = [
    (("n",), INT, 2),
    (("rounds",), INT, 200),
    *(((name,), REAL, REPORT[name])
      for name in ("sifted_fraction", "qber", "qber_stderr", "empirical_i_ab")),
    (("key_symbols", 0, 0), INT, REPORT["key_symbols"][0][0]),
    (("per_pair_tables", 0, 0, 0, 0), INT, REPORT["per_pair_tables"][0][0][0][0]),
]

I01, I11 = BellIndex(0, 1), BellIndex(1, 1)

# (public name, argument, strategy, call with the value in that argument, valid value)
CASES = [
    ("BellIndex", "m", INT, lambda z: BellIndex(z, 0), 1),
    ("BellIndex", "n", INT, lambda z: BellIndex(0, z), 1),
    ("BellIndex", "variant", REAL.filter(lambda z: z not in VARIANTS),
     lambda z: BellIndex(0, 0, z), "BC"),
    ("ClassPartition", "dim", INT, lambda z: ClassPartition(z, GRID), 2),
    ("CloneParams", "dim", INT, lambda z: CloneParams(z, 1.0, 0.0, 0.0), 2),
    ("CloneParams", "v", REAL, lambda z: CloneParams(2, z, 0.0, 0.0), 1.0),
    ("CloneParams", "x", REAL, lambda z: CloneParams(2, 0.0, z, 0.0), 1.0),
    ("CloneParams", "y", REAL, lambda z: CloneParams(2, 0.0, 0.0, z), 0.5 ** 0.5),
    ("CloneParams", "identity.n", INT, CloneParams.identity, 2),
    ("ProtocolConfig", "n", INT, lambda z: small_config(n=z, attack=None), 2),
    ("ProtocolConfig", "rounds", INT, lambda z: small_config(rounds=z), 200),
    *(("ProtocolConfig", f"basis_weights[{i}]", REAL,
       lambda z, i=i: small_config(basis_weights=weights_with(i, z)), 0.25) for i in range(4)),
    ("ProtocolConfig", "seed", INT, lambda z: small_config(seed=z), 11),
    *(("ProtocolConfig", f"from_dict.{config_id(path)}", strategy,
       lambda z, path=path: ProtocolConfig.from_dict(replaced(CONFIG, path, z)), good)
      for path, strategy, good in CONFIG_KEYS),
    *(("SimReport", f"from_dict.{config_id(path)}", strategy,
       lambda z, path=path: SimReport.from_dict(replaced(REPORT, path, z)), good)
      for path, strategy, good in REPORT_KEYS),
    ("bell_overlap", "n", INT, lambda z: bell_overlap(z, 0.0, 0.1, I01, I11), 3),
    ("bell_overlap", "phi1", REAL, lambda z: bell_overlap(3, z, 0.1, I01, I11), 0.0),
    ("bell_overlap", "phi2", REAL, lambda z: bell_overlap(3, 0.0, z, I01, I11), 0.1),
    ("crossover_fidelity", "n", INT, crossover_fidelity, 2),
    ("invariance_classes", "n", INT, lambda z: invariance_classes(z, [0.0, 0.3]), 3),
    ("invariance_classes", "phis[1]", REAL, lambda z: invariance_classes(3, [0.0, z]), 0.3),
    ("max_eve_info", "n", INT, lambda z: max_eve_info(z, 0.9), 2),
    ("max_eve_info", "fidelity", REAL, lambda z: max_eve_info(2, z), 0.9),
    ("optimal_angles", "n", INT, optimal_angles, 2),
    ("overlap_matrix", "n", INT, lambda z: overlap_matrix(z, 0.0, 0.1), 3),
    ("overlap_matrix", "phi1", REAL, lambda z: overlap_matrix(3, z, 0.1), 0.0),
    ("overlap_matrix", "phi2", REAL, lambda z: overlap_matrix(3, 0.0, z), 0.1),
    ("phi_basis", "n", INT, lambda z: phi_basis(z, 0.1), 3),
    ("phi_basis", "phase", REAL, lambda z: phi_basis(3, z), 0.1),
    ("security_report", "n_min", INT, lambda z: security_report(z, 3), 2),
    ("security_report", "n_max", INT, lambda z: security_report(2, z), 3),
    ("visibility_threshold", "n", INT, visibility_threshold, 2),
]
CASE_IDS = [f"{name}.{arg}" for name, arg, *_ in CASES]

# Public names whose arguments are all library objects (attacks, reports) or absent.
NO_SCALAR_ARGUMENTS = {
    "ThresholdRecord",
    "empirical_info",
    "i_ab",
    "i_ae",
    "joint_distribution",
    "run_simulation",
    "werner_noise_fraction",
}


def test_table_covers_every_public_name():
    covered = {name for name, *_ in CASES}
    assert covered.isdisjoint(NO_SCALAR_ARGUMENTS)
    assert covered | NO_SCALAR_ARGUMENTS == set(ndeb.__all__)


@pytest.mark.parametrize("call, good", [case[3:] for case in CASES], ids=CASE_IDS)
def test_each_call_accepts_its_valid_value(call, good):
    call(good)


@pytest.mark.parametrize("strategy, call", [case[2:4] for case in CASES], ids=CASE_IDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_public_callables_reject_bad_scalars(strategy, call, data):
    bad = data.draw(strategy, label="bad")
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("doc", [5, None, [1, 2], "config"], ids=repr)
@pytest.mark.parametrize("reader", [ProtocolConfig.from_dict, SimReport.from_dict],
                         ids=["config", "report"])
def test_readers_reject_a_document_that_is_not_an_object(reader, doc):
    with pytest.raises(ValueError, match="must be a JSON object"):
        reader(doc)


@pytest.mark.parametrize("field", sorted(REPORT))
def test_report_reader_names_a_missing_field(field):
    broken = {k: v for k, v in REPORT.items() if k != field}
    with pytest.raises(ValueError, match=f"report missing required keys: {field}$"):
        SimReport.from_dict(broken)


@pytest.mark.parametrize("rows", [None, 5, [5], [None], "abc", [[0, 0, None], 5]], ids=repr)
def test_report_reader_rejects_a_key_that_is_not_a_list_of_rows(rows):
    with pytest.raises(ValueError, match="key_symbols must be a list"):
        SimReport.from_dict(replaced(REPORT, ("key_symbols",), rows))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def simulate_status(workdir, config):
    cfg, out = workdir / "cfg.json", workdir / "out.json"
    cfg.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    return main(["simulate", str(cfg), str(out)]), out.exists()


@pytest.mark.parametrize(
    "path, good", [(path, good) for path, _, good in CONFIG_KEYS],
    ids=[config_id(path) for path, *_ in CONFIG_KEYS],
)
def test_simulate_accepts_each_valid_config_value(workdir, path, good):
    assert simulate_status(workdir, replaced(CONFIG, path, good)) == (0, True)


@pytest.mark.parametrize(
    "path, strategy", [(path, strategy) for path, strategy, _ in CONFIG_KEYS],
    ids=[config_id(path) for path, *_ in CONFIG_KEYS],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_simulate_rejects_bad_config_scalars(workdir, path, strategy, data):
    bad = data.draw(strategy, label="bad")
    # A JSON config cannot carry complex numbers or numpy bools.
    assume(not isinstance(bad, (complex, np.bool_)))
    assert simulate_status(workdir, replaced(CONFIG, path, bad)) == (2, False)


# A run takes its seed from the config file alone.
@pytest.mark.parametrize("seed", [None], ids=["config-seed"])
@pytest.mark.parametrize("doc", [5, None, [1, 2]], ids=repr)
def test_simulate_rejects_a_config_that_is_not_an_object(workdir, capsys, doc, seed):
    assert simulate_status(workdir, doc) == (2, False)
    assert "config must be a JSON object" in capsys.readouterr().err
