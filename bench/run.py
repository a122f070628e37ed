"""ndeb benchmark: run one workload in one process and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: ndeb is imported from
``src/`` there, and nothing needs building.  ``BENCHMARK.json`` at the
root names the workloads and the metrics; ``bench/README.md`` explains
them.

An untraced run (``--trace 0``) times operations back to back through
``ndeb.cli.main`` for the given seconds and reports the end-to-end
metrics.  A traced run alternates untraced and traced operations: the
traced ones record spans around each layer's public functions (see
``spans.py``) and give the per-layer metrics, and the two kinds give
the tracing overhead.  Outputs are checked after the timed loop; an
operation fails when it exits non-zero, raises, or its output fails the
workload's check.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it summarise
the run for a reader.  Each run also writes ``record.json`` (and, when
traced, ``spans.jsonl``) under ``bench/out/<workload>/``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread keeps the process within nproc threads and spares a
# small machine BLAS spin-waits.
BLAS_THREADS = 1
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
PERCENTILE_TAIL = 10  # samples a reported percentile must have above it
# Seconds of Reference work on an unloaded 2-vCPU Xeon (2.1 GHz) with
# Python 3.11 and numpy 2.4.  A fixed unit: changing it rescales every time.
REFERENCE_NOMINAL_S = 0.016
REFERENCE_SHARE = 0.04


class Reference:
    """Fixed interpreter, numpy and JSON work that belongs to the benchmark.

    Load from outside this process changes the machine's speed by tens
    of percent over seconds to minutes, for ndeb and this work alike.
    Every operation and set-up probe is therefore run between two
    reference runs, and its time is scaled by REFERENCE_NOMINAL_S over
    their mean: the time it would take on the unloaded machine.
    """

    def __init__(self):
        import numpy as np

        self._sort = np.sort
        self._array = np.random.default_rng(0).random(20_000)
        self._doc = [[i, i * 0.5, None] for i in range(3_000)]

    def seconds(self, repeats: int = 1) -> float:
        """Mean seconds of one unit of reference work over ``repeats`` units."""
        t0 = time.perf_counter()
        for _ in range(repeats):
            acc = 0
            for i in range(150_000):
                acc += i * i
            for _ in range(20):
                self._sort(self._array)
            json.dumps(self._doc, indent=2)
        return (time.perf_counter() - t0) / repeats

    def timed(self, fn, expected_s: float = 0.0):
        """(fn's result, its seconds, the factor that scales them to nominal speed).

        The reference runs for about REFERENCE_SHARE of ``expected_s`` on
        each side, so a long call is compared with the machine's speed
        over a window of comparable length.
        """
        repeats = max(1, round(REFERENCE_SHARE * expected_s / REFERENCE_NOMINAL_S))
        before = self.seconds(repeats)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = self.seconds(repeats)
        return result, elapsed, 2.0 * REFERENCE_NOMINAL_S / (before + after)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description="Run one ndeb benchmark workload.")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def source_lines(layers) -> dict[str, int]:
    def count(path: Path) -> int:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)

    out = {f"{layer}.lines": count(SRC / "ndeb" / f"{layer}.py")
           for layer in layers if (SRC / "ndeb" / f"{layer}.py").is_file()}
    out["src.lines"] = sum(count(path) for path in SRC.rglob("*.py"))
    return out


def measure_setup(workload: str, ref: Reference) -> list[tuple[float, float]]:
    """(seconds, scale) of import plus warm-up, each in a fresh process, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "probe.py"), workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, _, scale = ref.timed(lambda: subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append((float(proc.stdout.split()[-1]), scale))
    return samples


def run_cli(argvs: list[list[str]], stdout_path: Path) -> int | str:
    """``ndeb.cli.main`` on each argv, stdout to a file.

    Returns 0, the first non-zero exit code, or the traceback of an
    exception.  ``main`` is looked up on every call, so an installed
    tracer sees it.
    """
    cli = sys.modules["ndeb.cli"]
    try:
        with open(stdout_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            for argv in argvs:
                code = cli.main(argv)
                if code != 0:
                    return code
    except (Exception, SystemExit):
        return traceback.format_exc()
    return 0


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with PERCENTILE_TAIL samples above it, and its value."""
    if len(times) <= PERCENTILE_TAIL:
        return None
    ordered = sorted(times)
    below = len(ordered) - PERCENTILE_TAIL
    return 100 * below // len(ordered), ordered[below - 1]


def scaled_layer_metrics(metrics: dict[str, float], scale: float) -> dict[str, float]:
    """Per-layer numbers with times (and rates) at nominal speed, like op_s."""
    out = {}
    for key, value in metrics.items():
        if key.endswith("_per_s"):
            value = value / scale
        elif key.endswith("_s"):
            value = value * scale
        out[key] = value
    return out


def main(argv=None) -> int:
    # Before numpy is first imported; probe processes inherit these.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # The CLI lets NDEB_SEED override config seeds; the benchmark's seed decides them.
    os.environ.pop("NDEB_SEED", None)
    if not (SRC / "ndeb" / "__init__.py").is_file():
        print(f"error: no ndeb package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ndeb.cli  # noqa: F401

    if not Path(sys.modules["ndeb"].__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ndeb from {sys.modules['ndeb'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = BENCH / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, workloads.load_golden())
    ref = Reference()

    setup = [] if args.trace else measure_setup(args.workload, ref)
    wl.warm_up()
    tracer = spans.Tracer() if args.trace else None

    # ops[i] = (exit code or traceback, seconds, scale, traced, output bytes)
    ops = []
    loop_start = time.perf_counter()
    while True:
        i = len(ops)
        argvs = wl.argvs(i)
        is_traced = tracer is not None and i % 2 == 1
        gc.collect()
        if is_traced:
            tracer.op = i
            tracer.install()
        lap = time.perf_counter()
        expected = statistics.median(op[1] for op in ops) if ops else 0.0
        code, seconds, scale = ref.timed(lambda: run_cli(argvs, wl.stdout_path(i)), expected)
        lap = time.perf_counter() - lap
        if is_traced:
            tracer.uninstall()
        out_bytes = sum(p.stat().st_size for p in wl.outputs(i) if p.exists())
        ops.append((code, seconds, scale, is_traced, out_bytes))
        if i == 0:
            # What one CLI call's process needs: later operations only add
            # allocator fragmentation, which grows with the operation count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kinds = {op[3] for op in ops}
        # Start no operation that would end after the deadline, once each kind has run.
        if len(kinds) == (2 if tracer else 1) and \
                time.perf_counter() - loop_start + lap > args.seconds:
            break

    def checked(check, *params):
        try:
            return check(*params)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [f"unreadable output: {exc!r}"]

    problems: dict[int, list[str]] = {}
    for i, (code, *_) in enumerate(ops):
        found = [f"exit {code}"] if code != 0 else checked(wl.check, i)
        if found:
            problems[i] = found
        if i > 0:
            for path in wl.outputs(i):
                path.unlink(missing_ok=True)
    attempted = len(ops)
    final = checked(wl.final_check, run_cli)
    if final is not None:
        attempted += 1
        if final:
            problems[attempted - 1] = final
    for path in out_dir.glob("op*"):
        path.unlink()

    plain = [seconds * scale for _, seconds, scale, tr, _ in ops if not tr]
    op_s = statistics.median(plain)
    measured = {
        "op_s": op_s,
        "items_per_s": wl.items_per_op / op_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if setup:
        measured["setup_s"] = statistics.median(seconds * scale for seconds, scale in setup)
    if tracer is not None:
        traced = [(i, op) for i, op in enumerate(ops) if op[3]]
        measured.update(spans.median_metrics(
            [scaled_layer_metrics(tracer.op_metrics(i), op[2]) for i, op in traced]))
        measured["cli.output_bytes"] = statistics.median(op[4] for _, op in traced)
        measured["trace_overhead_frac"] = (
            statistics.median(op[1] * op[2] for _, op in traced) / op_s - 1.0)
    lines = source_lines(spans.LAYERS)
    measured.update(lines)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in measured}
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    failed = len(problems)
    raw = [seconds for _, seconds, _, tr, _ in ops if not tr]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "source_lines": lines,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": {str(i): p for i, p in problems.items()},
        "ops": [{"seconds": s, "scale": k, "traced": tr, "output_bytes": b}
                for _, s, k, tr, b in ops],
        "setup": [{"seconds": s, "scale": k} for s, k in setup],
        "op_raw_median_s": statistics.median(raw),
        "op_percentile": tail_percentile(plain),
        "absent": absent,
        "metrics": measured,
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")

    for i, found in problems.items():
        print(f"operation {i} failed: {'; '.join(found)}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} timed "
          f"operations, environment {json.dumps(record['environment'])}")
    pct = record["op_percentile"]
    print(f"  op_s: {len(plain)} samples, unscaled median {record['op_raw_median_s']:.6g} s"
          + (f", p{pct[0]} {pct[1]:.6g} s" if pct else ", too few for a tail percentile"))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<42} {record['fail_frac']:.6g} ({failed}/{attempted})")
    if absent:
        print(f"  absent: {', '.join(absent)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
