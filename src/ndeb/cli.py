"""Command-line front end.

Subcommands:
    table     crossover fidelity and optimal attack parameters per dimension
    report    crossover vs local-realism thresholds per dimension
    simulate  run protocol rounds from a JSON config file
    classes   invariance classes of the amplitude matrix for given angles
    overlap   a single Bell-family overlap, in closed form

Only ``simulate`` loads numpy.  ``table``, ``report``, ``classes`` and
``overlap`` run in plain Python; each command imports the modules it
needs when it starts.

Machine-readable output is wrapped in an envelope with schema_version
"1"; CSV output carries the same tag in a leading comment line.  Floats
in tabular output are printed with 6 significant digits; JSON keeps
full precision so that payloads round-trip.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Sequence, TextIO

from .info import CloneParams, i_ab
from .qudit import optimal_angles
from .thresholds import security_report

if TYPE_CHECKING:
    from .sim import SimReport

SCHEMA_VERSION = "1"
N_CAP = 16
# Key rows are written in slices of this many, which bounds the text held at once.
KEY_ROWS_PER_WRITE = 1 << 16
# ThresholdRecord fields that describe the crossover search itself.
DIAGNOSTICS = ("root_evals", "residual", "y_at_bound", "stationarity")


class CliError(ValueError):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise CliError(f"--n expects an int or lo..hi range, got {text!r}") from None
    if not 2 <= lo <= hi <= N_CAP:
        raise CliError(f"--n must satisfy 2 <= lo <= hi <= {N_CAP}, got {text!r}")
    return lo, hi


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _envelope(command: str, payload: Any) -> dict[str, Any]:
    return {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}


def _emit_rows(command: str, header: list[str], rows: list[list[Any]], fmt: str) -> None:
    if fmt == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        print(json.dumps(_envelope(command, payload), indent=2))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    sys.stdout.write(f"# schema_version={SCHEMA_VERSION} command={command}\n")
    sys.stdout.write(buf.getvalue())


def cmd_table(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n)
    # The optimizer diagnostics ride only in JSON; the CSV columns stay fixed.
    diagnostics = list(DIAGNOSTICS) if args.format == "json" else []
    rows = []
    for rec in security_report(lo, hi):
        params = CloneParams(rec.n, rec.v, rec.x, rec.y)
        row = [rec.n, rec.f_a, rec.v, rec.x, rec.y, i_ab(params)]
        rows.append(row + [getattr(rec, name) for name in diagnostics])
    header = ["n", "f_a", "v", "x", "y", "mutual_info_bits"] + diagnostics
    _emit_rows("table", header, rows, args.format)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    lo, hi = _parse_range(args.n)
    rows = []
    for rec in security_report(lo, hi):
        rows.append(
            [rec.n, rec.f_a, rec.v_thr, rec.f_thr, 1.0 - rec.f_thr, rec.nonlocal_sufficient]
        )
    header = ["n", "f_a", "v_thr", "f_thr", "error_rate_thr", "sufficient"]
    _emit_rows("report", header, rows, args.format)
    return 0


def _check_n(n: int) -> None:
    if not 2 <= n <= N_CAP:
        raise CliError(f"--n must satisfy 2 <= n <= {N_CAP}, got {n}")


def _angle_at(n: int, index: int, flag: str) -> float:
    """The protocol angle at ``index``, which the option ``flag`` gave."""
    if index not in (0, 1, 2, 3):
        raise CliError(f"{flag} must be in 0..3, got {index}")
    return optimal_angles(n)[index]


def _collect_angles(n: int, phis: Sequence[float], indices: Sequence[int]) -> list[float]:
    return [float(p) for p in phis] + [_angle_at(n, i, "--phi-index") for i in indices]


def cmd_classes(args: argparse.Namespace) -> int:
    from .cloner import invariance_classes

    _check_n(args.n)
    angles = _collect_angles(args.n, args.phi or [], args.phi_index or [])
    if len(angles) < 2:
        raise CliError("need at least two angles (--phi / --phi-index)")
    partition = invariance_classes(args.n, angles)
    classes = partition.sorted_classes()
    if args.format == "json":
        payload = {
            "n": args.n,
            "angles": angles,
            "count": len(classes),
            "classes": [[list(cell) for cell in cls] for cls in classes],
        }
        print(json.dumps(_envelope("classes", payload), indent=2))
        return 0
    angle_text = ",".join(_fmt(a) for a in angles)
    print(f"n={args.n} angles={angle_text} classes={len(classes)}")
    for ci, cls in enumerate(classes):
        members = " ".join(f"({m},{nn})" for m, nn in cls)
        print(f"class {ci}: {members}")
    return 0


def _parse_indices(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--idx expects i,j,k,l with four ints, got {text!r}")
    try:
        i, j, k, l = (int(p) for p in parts)
    except ValueError:
        raise CliError(f"--idx expects i,j,k,l with four ints, got {text!r}") from None
    return i, j, k, l


def _pick_angle(n: int, value: float | None, index: int | None, flag: str) -> float:
    if (value is None) == (index is None):
        raise CliError(f"give exactly one of {flag} or {flag}-index")
    if value is not None:
        return float(value)
    return _angle_at(n, index, f"{flag}-index")


def cmd_overlap(args: argparse.Namespace) -> int:
    from .bell import BellIndex, bell_overlap

    _check_n(args.n)
    phi1 = _pick_angle(args.n, args.phi1, args.phi1_index, "--phi1")
    phi2 = _pick_angle(args.n, args.phi2, args.phi2_index, "--phi2")
    i, j, k, l = _parse_indices(args.idx)
    idx1 = BellIndex(i, j, args.variant)
    idx2 = BellIndex(k, l, args.variant)
    closed = bell_overlap(args.n, phi1, phi2, idx1, idx2)
    if args.format == "json":
        payload = {
            "n": args.n,
            "phi1": phi1,
            "phi2": phi2,
            "indices": [i, j, k, l],
            "variant": args.variant,
            "closed_form": {"re": closed.real, "im": closed.imag},
        }
        print(json.dumps(_envelope("overlap", payload), indent=2))
        return 0
    print(f"closed_form={_fmt_complex(closed)}")
    return 0


def _reject_constant(name: str) -> None:
    raise CliError(f"config holds the non-finite number {name}")


def write_report(fh: TextIO, report: SimReport) -> None:
    """Write the simulate envelope exactly as ``json.dump(..., indent=2)`` plus a newline.

    Only the envelope with an empty key goes through ``json``.  A key
    row's text depends on nothing but its flat outcome alice*n + bob, so
    the n*n row texts are built once and the rows are spliced in from
    that table in place of the empty key, the envelope's last value.
    """
    import numpy as np

    from .sim import key_row

    payload = {**report.summary(), "key_symbols": []}
    head, tail = json.dumps(_envelope("simulate", payload), indent=2).rsplit("[]", 1)
    fh.write(head)
    flat, n = report.key_symbols, report.n
    if len(flat) == 0:
        fh.write("[]")
    else:
        # Rows sit three levels deep: envelope, payload, key list.
        indent = "\n" + " " * 6
        texts = np.array([json.dumps(key_row(f, n, report.attacked), indent=2)
                          .replace("\n", indent) for f in range(n * n)], dtype=object)
        sep = "," + indent
        fh.write("[" + indent)
        for lo in range(0, len(flat), KEY_ROWS_PER_WRITE):
            if lo:
                fh.write(sep)
            fh.write(sep.join(texts[flat[lo:lo + KEY_ROWS_PER_WRITE]].tolist()))
        fh.write("\n" + " " * 4 + "]")
    fh.write(tail + "\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import ProtocolConfig, run_simulation

    # --shards has no effect; it is kept, and checked, for callers that pass it.
    if args.shards < 1:
        raise CliError(f"--shards must be >= 1, got {args.shards}")
    if not os.path.exists(args.config):
        raise CliError(f"config file not found: {args.config}")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = ProtocolConfig.from_dict(json.load(fh, parse_constant=_reject_constant))
    report = run_simulation(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_report(fh, report)
    print(
        f"sifted_fraction={report.sifted_fraction:.6g} "
        f"qber={report.qber:.6g} stderr={report.qber_stderr:.6g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndeb",
        description="N-level entanglement-based QKD: attacks, thresholds, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="crossover fidelities per dimension")
    p_table.add_argument("--n", required=True, help="dimension or lo..hi range")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_table)

    p_report = sub.add_parser("report", help="crossover vs local-realism thresholds")
    p_report.add_argument("--n", required=True, help="dimension or lo..hi range")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
    p_report.set_defaults(func=cmd_report)

    p_sim = sub.add_parser("simulate", help="run protocol rounds from a config file")
    p_sim.add_argument("config", help="JSON config path")
    p_sim.add_argument("out", help="output report path (JSON)")
    p_sim.add_argument(
        "--shards", type=int, default=1,
        help="accepted for compatibility and ignored: rounds are sampled in fixed-size blocks",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classes", help="invariance classes for given angles")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--phi", type=float, action="append", help="angle in radians")
    p_cls.add_argument(
        "--phi-index", type=int, action="append", help="optimal-basis index 0..3"
    )
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=cmd_classes)

    p_ov = sub.add_parser("overlap", help="one Bell-family overlap, in closed form")
    p_ov.add_argument("--n", type=int, required=True)
    p_ov.add_argument("--phi1", type=float, default=None, help="first angle in radians")
    p_ov.add_argument("--phi2", type=float, default=None, help="second angle in radians")
    p_ov.add_argument("--phi1-index", type=int, default=None)
    p_ov.add_argument("--phi2-index", type=int, default=None)
    p_ov.add_argument("--idx", required=True, help="i,j,k,l")
    p_ov.add_argument("--variant", choices=("RA", "BC"), default="RA")
    p_ov.add_argument("--format", choices=("text", "json"), default="text")
    p_ov.set_defaults(func=cmd_overlap)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
