"""The benchmark traces ndeb by name; every name it traces must stay in the package.

``bench/spans.py`` wraps the functions in ``TRACED`` and counts the
lines of each ``src/ndeb/<layer>.py`` in ``LAYERS``.  A name that stops
resolving makes the benchmark drop that name's metrics without failing,
so these tests fail instead.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def test_every_traced_name_resolves_to_a_callable(spans):
    missing = []
    for name in spans.TRACED:
        layer, *path = name.split(".")
        owner = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_every_layer_file_exists(spans):
    package = ROOT / "src" / spans.PACKAGE
    assert [layer for layer in spans.LAYERS if not (package / f"{layer}.py").is_file()] == []


def test_per_layer_metrics_name_traced_functions_or_layers(spans):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = []
    for metric in spec["per_layer"]:
        base, _, kind = metric["name"].rpartition(".")
        if kind in ("calls", "busy_s", "self_s"):
            known = spans.TRACED if "." in base else spans.LAYERS
            if base not in known:
                unknown.append(metric["name"])
    assert unknown == []
