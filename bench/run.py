"""sepfx benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload cli-200k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

A run sets up three times (fresh-interpreter import, inputs, one warm-up
op) and reports the median as ``setup_s``.  It then runs ops one at a time
for ``--seconds``, each bracketed by a fixed reference kernel run in this
process before and after the op, and checks every op's outputs.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
wraps sepfx's public callables and prints per-layer metrics instead,
writing the spans to ``bench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
REF_MIN_RUNS = 5
REF_SHARE = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("op_ref_p50", "ref"),
    ("peak_rss_mb", "MB"),
)


def _import_sepfx():
    if not (SRC / "sepfx" / "__init__.py").is_file():
        sys.exit(f"error: no sepfx package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sepfx

    if Path(sepfx.__file__).resolve().parent != (SRC / "sepfx").resolve():
        sys.exit(f"error: sepfx imported from {sepfx.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Reference:
    """Fixed benchmark code timed next to every op.

    One kernel run mixes the kinds of work the workloads do: a pure-Python
    integer loop, float parsing of short strings, numpy sorts and sums on
    small arrays, and a chain of numpy matmuls.  A measurement repeats the
    kernel at least ``REF_MIN_RUNS`` times and for at least ``REF_SHARE``
    of the op's time scale, and returns the median run time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.matrix = rng.random((192, 192))
        self.rows = rng.random((40, 512))
        self.texts = [repr(float(v)) for v in rng.random(4000)]
        self.times: list = []

    def _once(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        acc += len([float(t) for t in self.texts])
        for row in self.rows:
            order = np.argsort(row, kind="stable")
            acc += int(np.argmin(np.cumsum(row[order])))
        m = self.matrix
        for _ in range(6):
            m = (m @ self.matrix) * (1.0 / 192.0)
        return time.perf_counter() - t0

    def measure(self, scale_s: float) -> float:
        runs = []
        t0 = time.perf_counter()
        while len(runs) < REF_MIN_RUNS or time.perf_counter() - t0 < REF_SHARE * scale_s:
            runs.append(self._once())
        t = statistics.median(runs)
        self.times.append(t)
        return t


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _child_seconds(cmd: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def run_workload(args) -> dict:
    from layers import Tracer, span_totals, summarize
    from workloads import WORKLOADS

    env = _child_env()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, bool(args.trace), env)
        if tracer:
            tracer.install()

        setup_times, import_times, save_times = [], [], []
        for r in range(SETUP_REPEATS):
            if tracer:
                tracer.reset()
                bare = _child_seconds([sys.executable, "-c", "pass"], env)
            t0 = time.perf_counter()
            imported = _child_seconds([sys.executable, "-c", "import sepfx.cli"], env)
            warm = workload.setup_repetition(r)
            errors = workload.check(f"warm-{r}", warm, workload.op(f"warm-{r}", warm), warm=True)
            if errors:
                raise RuntimeError("warm-up op failed: " + "; ".join(errors))
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                import_times.append(imported - bare)
                save_times.append(span_totals(tracer.spans)[1].get("data.save_four_arm", 0.0))
        workload.take_records()

        ref = Reference()
        op_times, op_ratios, layer_rows = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        elapsed = statistics.median(setup_times)  # time scale of the first op's bracket
        while i < workload.ops_available():
            prepared = workload.prepare(i)
            before = ref.measure(elapsed)
            if tracer:
                tracer.reset()
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = workload.op(f"op-{i}", prepared)
            except Exception:  # an op that raises counts as failed; the run goes on
                traceback.print_exc()
                failed += 1
                result = None
            elapsed = time.perf_counter() - t0
            records = ([tracer.snapshot()] if tracer else []) + workload.take_records()
            after = ref.measure(elapsed)
            if result is not None:
                errors = workload.check(f"op-{i}", prepared, result)
                if errors:
                    print("check failed: " + "; ".join(errors), file=sys.stderr)
                    failed += 1
                else:
                    print(f"# op {i}: {elapsed:.4f} s; reference {before:.5f} s before, {after:.5f} s after")
                    op_times.append(elapsed)
                    op_ratios.append(elapsed / (0.5 * (before + after)))
                    if tracer:
                        layer_rows.append((records, summarize(records)))
            i += 1
            if time.perf_counter() - start >= args.seconds:
                break
        pooled = workload.finish()
        if pooled:
            print("pooled check failed: " + "; ".join(pooled), file=sys.stderr)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy

    print(f"# workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed; "
          f"python {sys.version.split()[0]}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
          f"nproc {os.cpu_count()}, blas threads {_blas_threads()}")
    if args.trace:
        metrics = _layer_metrics(layer_rows, import_times, save_times, ref.times)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"ops": [rec for rec, _ in layer_rows], "metrics": metrics}),
            encoding="utf-8",
        )
        units = {name: _layer_unit(name) for name in metrics}
    else:
        if op_times:
            print(f"# op_s_p50 {statistics.median(op_times):.6g} s over {len(op_times)} ops")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ref_p50": statistics.median(op_ratios) if op_ratios else float("nan"),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{args.workload:<14} {name:<42} {value:>14.6g} {units[name]}")
    return {
        "correct": failed == 0 and not pooled and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    return "count"


def _layer_metrics(layer_rows, import_times, save_times, ref_times) -> dict:
    """Median over ops of each per-op layer figure, plus set-up layers.

    ``cli.import.s`` is a fresh-interpreter ``import sepfx.cli`` minus a
    bare interpreter start, and ``data.save_four_arm.s`` the CSV writing
    of one set-up repetition.
    """
    from layers import COUNTERS, SPAN_METRICS

    metrics = {}
    for name in [m for m, _, _ in SPAN_METRICS] + [*COUNTERS, "trace.overhead.s"]:
        values = [row[name] for _, row in layer_rows]
        metrics[name] = statistics.median(values) if values else float("nan")
    metrics["cli.import.s"] = statistics.median(import_times)
    metrics["data.save_four_arm.s"] = statistics.median(save_times)
    metrics["ref.kernel.s"] = statistics.median(ref_times)
    return metrics


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _import_sepfx()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
