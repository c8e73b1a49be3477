"""vertexsim benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload estimate --seed 0 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  Prints the environment, one line per metric (name, value, unit), the
error rate, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` measures the end-to-end
metrics with tracing off; `--trace 1` alternates untraced and traced runs of
the same ops and reports the per-layer metrics.  Details, the golden values and
the tracing layout are in perfbench/README.md.  Exits 2 without a result when
the package or the goldens cannot be loaded, 1 when an output was wrong.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread unless the caller says otherwise: on a small shared machine a
# second BLAS thread makes `oracle` depend on whether the other core is free,
# and both sides of a comparison must use the same setting.  Set before numpy
# is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Normalizer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import INPUTS_PER_SEED, WORKLOADS, Workload  # noqa: E402

GOLDENS = HERE / "goldens.json"
OUT = HERE / "out"
SETUP_REPEATS = 9
# Highest percentile with at least ten ops beyond it at ~40+ ops per run.
TAIL_PERCENTILE = 75
# A traced run makes one untraced and one traced op for each input of a seed,
# so its counts are a pure function of the seed.
TRACED_OPS = INPUTS_PER_SEED


def import_package():
    """Fresh import of vertexsim from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "vertexsim" or m.startswith("vertexsim.")]:
        del sys.modules[name]
    vs = importlib.import_module("vertexsim")
    if not Path(vs.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vertexsim imported from {vs.__file__}, not from {src}")
    return vs


def set_up(name: str, seed: int, goldens_path: Path = GOLDENS):
    """Import, build the workload and load its goldens SETUP_REPEATS times.

    Returns the last workload, its pinned records and the median normalized
    set-up time.
    """
    norm = Normalizer("python")
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        vs = import_package()
        goldens = json.loads(goldens_path.read_text())[name]
        workload = WORKLOADS[name](vs, seed, goldens["reference"])
        workload.setup()
        pinned = goldens.get("ops", {}).get(str(seed), [])
        norm.add(perf_counter() - t0)
    return workload, pinned, statistics.median(norm.normalized())


class Checker:
    """Runs ops, checks each output, and counts the ops that failed.

    An output is compared with the pinned record of its input when the seed
    is pinned, else with the first output of the same input in this run.
    """

    def __init__(self, workload: Workload, pinned: list[dict]):
        self.workload = workload
        self.expected = dict(enumerate(pinned))
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, j: int, call):
        """call() -> (output, seconds).  Returns that pair, or None if the op raised."""
        self.attempted += 1
        try:
            out, seconds = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"input {j}: {type(exc).__name__}: {exc}")
            return None
        wl = self.workload
        bad = wl.problems(out)
        got = wl.record(out)
        want = self.expected.setdefault(j, got)
        if not wl.same(got, want):
            bad.append(f"output {got} differs from {want}")
        if bad:
            self.failures.append(f"input {j}: " + "; ".join(bad))
        return out, seconds

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_untraced(workload: Workload, checker: Checker, seconds: float):
    """Closed loop for `seconds` after one warm-up op.

    Returns the normalized op times and the Normalizer (which holds the
    kernel times).
    """
    checker.run(0, lambda: timed(workload.op, 0))
    norm = Normalizer(workload.calibration)
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        j = i % INPUTS_PER_SEED
        done = checker.run(j, lambda: timed(workload.op, j))
        if done is not None:
            norm.add(done[1])
        i += 1
    return norm.normalized(), norm


def run_traced(workload: Workload, checker: Checker, seconds: float):
    """Each input once untraced, then once traced; returns (tracer, plain, traced times).

    Stops early only if the ops have become so slow that the run would take
    more than four times `seconds`.
    """
    checker.run(0, lambda: timed(workload.op, 0))
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    for j in range(TRACED_OPS):
        if perf_counter() - start > 4 * seconds:
            break
        done = checker.run(j, lambda: timed(workload.op, j))
        if done is not None:
            plain.append(done[1])
        with tracer.installed():
            done = checker.run(j, lambda: tracer.op(j, workload.op, j))
        if done is not None:
            traced.append(done[1])
    return tracer, plain, traced


def end_to_end_metrics(times: list[float], setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        f"op_s_p{TAIL_PERCENTILE}": (float(np.percentile(times, TAIL_PERCENTILE)), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer: Tracer, plain: list[float], traced: list[float]) -> dict:
    """Layer times as percent of traced op time, so a layer a workload never
    calls reads 0 % rather than a zero duration."""
    stats = tracer.summary()
    op_total = sum(traced)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def pct(seconds):
        return (100.0 * seconds / op_total, "%")

    shots = get("simulator.run_shots", "shots")
    meaningful = get("simulator.run_shots", "meaningful_shots")
    experiments_self = sum(get(f"experiments.{f}", "self_s") for f in
                           ("estimate_lambda1", "power_iterate_psi0", "simulated_t_action"))
    return {
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
        "trace.op_s_mean": (op_total / len(traced), "s"),
        "simulator.run_shots.calls": (get("simulator.run_shots", "calls"), "count"),
        "simulator.run_shots.pct": pct(get("simulator.run_shots", "s")),
        "simulator.run_shots.self_pct": pct(get("simulator.run_shots", "self_s")),
        "simulator.shots": (shots, "count"),
        "simulator.meaningful_fraction": (meaningful / shots if shots else 0.0, "ratio"),
        "simulator.shots_per_s": (shots / sum(plain), "1/s"),
        "simulator.meaningful_shots_per_s": (meaningful / sum(plain), "1/s"),
        "gates.apply_matrix.calls": (get("gates.apply_matrix", "calls"), "count"),
        "gates.apply_matrix.calls_in_simulator": (get("gates.apply_matrix", "calls_in_simulator"), "count"),
        "gates.apply_matrix.calls_in_transfer": (get("gates.apply_matrix", "calls_in_transfer"), "count"),
        "gates.apply_matrix.calls_per_op": (get("gates.apply_matrix", "calls") / len(traced), "count"),
        "gates.apply_matrix.bytes_computed": (get("gates.apply_matrix", "bytes_computed"), "B"),
        "gates.apply_matrix.pct": pct(get("gates.apply_matrix", "s")),
        "rng.substream_value.calls": (get("rng.substream_value", "calls"), "count"),
        "rng.substream_value.pct": pct(get("rng.substream_value", "s")),
        "rng.substream_seed.calls": (get("rng.substream_seed", "calls"), "count"),
        "rng.substream_seed.pct": pct(get("rng.substream_seed", "s")),
        "transfer.spectral_summary.calls": (get("transfer.spectral_summary", "calls"), "count"),
        "transfer.spectral_summary.iterations": (get("transfer.spectral_summary", "iterations"), "count"),
        "transfer.spectral_summary.pct": pct(get("transfer.spectral_summary", "s")),
        "transfer.assemble_transfer.calls": (get("transfer.assemble_transfer", "calls"), "count"),
        "transfer.assemble_transfer.pct": pct(get("transfer.assemble_transfer", "s")),
        "experiments.self_pct": pct(experiments_self),
        "dilation.svd_scaled.calls": (get("dilation.svd_scaled", "calls"), "count"),
        "dilation.svd_scaled.pct": pct(get("dilation.svd_scaled", "s")),
        "model.r_matrix.calls": (get("model.r_matrix", "calls"), "count"),
        "model.r_matrix.pct": pct(get("model.r_matrix", "s")),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        workload, pinned, setup_s = set_up(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: cannot set up: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    checker = Checker(workload, pinned)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    metrics = {}  # stays empty when every op raised
    timings = {}
    if args.trace:
        tracer, plain, traced = run_traced(workload, checker, args.seconds)
        if plain and traced:
            metrics = per_layer_metrics(tracer, plain, traced)
        tracer.write(OUT / f"{tag}_spans.json")
    else:
        times, norm = run_untraced(workload, checker, args.seconds)
        if times:
            metrics = end_to_end_metrics(times, setup_s)
        timings = {"raw_op_s": norm.raw, "kernel_s": norm.kernel_times}
        kernel = statistics.median(norm.kernel_times)
        print(f"calibration {norm.kind} kernel median {kernel!r} s, reference "
              f"{REFERENCE_S[norm.kind]!r} s: raw seconds = normalized x {kernel / REFERENCE_S[norm.kind]!r}")

    env = environment()
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "pinned_seed": bool(pinned), "failures": checker.failures,
         "result": result, **timings}, indent=1))

    print("environment " + json.dumps(env))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    print(f"{'error_rate':40s} {checker.failed / checker.attempted!r} "
          f"({checker.failed} of {checker.attempted} ops)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
