"""N-level entanglement-based QKD: cloning attacks, thresholds, simulation.

Public names are imported from their modules on first use (PEP 562), so
``import ndeb`` loads no submodule.  Only the simulation names load
numpy on import; ``phi_basis`` imports it when called, and the rest run
in plain Python.
"""
import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_SOURCES = {
    "optimal_angles": "qudit",
    "phi_basis": "qudit",
    "BellIndex": "bell",
    "bell_overlap": "bell",
    "overlap_matrix": "bell",
    "ClassPartition": "cloner",
    "invariance_classes": "cloner",
    "joint_distribution": "cloner",
    "werner_noise_fraction": "cloner",
    "CloneParams": "info",
    "i_ab": "info",
    "i_ae": "info",
    "ThresholdRecord": "thresholds",
    "crossover_fidelity": "thresholds",
    "max_eve_info": "thresholds",
    "security_report": "thresholds",
    "visibility_threshold": "thresholds",
    "ProtocolConfig": "sim",
    "SimReport": "sim",
    "empirical_info": "sim",
    "run_simulation": "sim",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
