"""gffresist benchmark: one workload per run, timed from outside the program.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-gff --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see tracer.py). The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, ``fail_ratio`` and, for trace 0, the op latency
percentiles ``op_p50_s`` and ``op_p90_s``.
``--workload all`` runs every workload, ``desk-suite`` too, each in its own
process, and prints a table. ``desk-suite`` is not in BENCHMARK.json: see
perfbench/README.md.

End-to-end metrics (trace 0):

* ``setup_s``: median over fresh processes of the wall time from spawn to
  ready-for-the-first-op: imports, one warm-up dense solve and eigh. For
  ``cli-mix`` it covers writing the network files only.
* ``ops_per_s``: ops completed per second of the timed phase.
* ``peak_rss_mb``: peak RSS of the run, or of the largest CLI child.

Failed ops (an exception, or an output that fails its check) count in
``failed``; they are reported, never dropped or re-run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread for this process and every child it starts. On two vCPUs a
# second OpenBLAS thread spins after each dense call and slowed the Python
# layers that follow by up to 2x, differently from run to run; it sped up a
# 1000x1000 SPD solve by only about 10 %. Set before numpy loads its BLAS.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Op latency percentiles are printed on the line before the result but are
# not metrics: the shared host's speed shifts between levels up to 1.5x
# apart for tens of seconds at a time, and a percentile of a run jumps with
# the level the run mostly sees, while ops_per_s, a mean over the run, moves
# in proportion. See README.md for the spreads measured.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LATENCY_PERCENTILES = {"op_p50_s": 50, "op_p90_s": 90}
# Half the set-up probes run before the timed phase and half after it, so
# that the median spans two moments of the host's shifting speed rather than
# the two seconds the probes take.
SETUP_PROBES = 8
SETUP_PROBE_TIMEOUT_S = 120.0
RUN_TIMEOUT_S = 175.0
OUT_DIR = ROOT / ".perfbench_out"


def timed_phase(wl, seconds: float, max_ops: int, first: int = 0,
                recorder=None) -> dict:
    """Run ops ``first, first+1, ...`` until ``seconds`` pass or ``max_ops`` run.

    Unless ``max_ops`` stops it first, the phase ends on a rotation boundary.
    Input generation and output checks stay outside each op's latency but
    inside the phase's wall time.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    i = first
    while True:
        x = wl.make_input(i)
        if recorder is not None:
            recorder.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = wl.run_op(x)
        except Exception:  # a failing op is counted and reported, not fatal
            out = traceback.format_exc()
        latencies.append(time.perf_counter() - t0)
        try:
            problems = [out] if isinstance(out, str) else wl.check(x, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"op {i} failed: {problems}", file=sys.stderr)
        i += 1
        done = i - first
        if done >= max_ops or (done % wl.rotation == 0
                               and time.perf_counter() - start >= seconds):
            break
    return {"latencies": latencies, "failed": failed,
            "wall_s": time.perf_counter() - start}


def setup_probe_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Spawn-to-ready wall time of one fresh process doing the run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def blas_info() -> list:
    """Vendor library and thread count of each OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append({"library": Path(path).name, "threads": fn()})
                break
    return found


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for blas_info)

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
    }


def untraced_metrics(args, wl) -> tuple:
    probes = 1 if args.smoke else SETUP_PROBES
    setup = [setup_probe_seconds(args.workload, args.seed, args.smoke)
             for _ in range(probes // 2)]
    phase = timed_phase(wl, args.seconds, max_ops=1 if args.smoke else 10**9)
    setup += [setup_probe_seconds(args.workload, args.seed, args.smoke)
              for _ in range(probes - probes // 2)]
    lat = phase["latencies"]
    metrics = {
        "ops_per_s": len(lat) / phase["wall_s"],
        "peak_rss_mb": workloads.peak_rss_mb(wl),
    }
    for name, q in LATENCY_PERCENTILES.items():
        metrics[name] = float(np.percentile(lat, q))
    metrics["setup_s"] = statistics.median(setup)
    return phase, metrics


def traced_metrics(args, wl) -> tuple:
    """Half the time untraced, half traced; per-layer metrics from the latter."""
    max_ops = 1 if args.smoke else 10**9
    plain = timed_phase(wl, args.seconds / 2, max_ops)
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        traced = timed_phase(wl, args.seconds / 2, max_ops,
                             first=len(plain["latencies"]), recorder=recorder)
    finally:
        recorder.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{args.workload}.jsonl.gz")
    rate = {p: len(ph["latencies"]) / ph["wall_s"]
            for p, ph in (("plain", plain), ("traced", traced))}
    metrics = recorder.metrics(len(traced["latencies"]),
                               rate["plain"] / rate["traced"])
    phase = {"latencies": plain["latencies"] + traced["latencies"],
             "failed": plain["failed"] + traced["failed"]}
    return phase, metrics


def run_one(args) -> int:
    in_process = args.trace == 1 or args.workload != "cli-mix"
    wl = workloads.prepare(args.workload, args.seed, args.smoke, in_process)
    if args.setup_probe:
        print("ready", flush=True)
        wl.close()
        return 0
    try:
        if args.trace:
            phase, metrics = traced_metrics(args, wl)
        else:
            phase, metrics = untraced_metrics(args, wl)
    finally:
        wl.close()
    units = tracer.per_layer_units() if args.trace else END_TO_END
    attempted, failed = len(phase["latencies"]), phase["failed"]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "fail_ratio": failed / attempted, "environment": environment()}
    if not args.trace:
        info.update((name, metrics[name]) for name in LATENCY_PERCENTILES)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS does not carry over."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = dict(result, fail_ratio=info["fail_ratio"],
                             environment=info["environment"])
        print(f"{name}  attempted={result['attempted']}  "
              f"failed={result['failed']}  fail_ratio={info['fail_ratio']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:52s} {entry['value']:14.6g} {entry['unit']}")
        for metric in LATENCY_PERCENTILES:
            if metric in info:
                results[name][metric] = info[metric]
                print(f"  {metric:52s} {info[metric]:14.6g} s")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, one op, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gffresist" / "__init__.py").is_file():
        print(f"error: no gffresist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
