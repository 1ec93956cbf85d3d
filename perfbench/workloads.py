"""Seeded inputs, operations and output checks for the four benchmark workloads.

Every workload is a closed loop with one caller: op ``i`` runs only after op
``i - 1`` has returned. Inputs for op ``i`` are made from the workload seed
and ``i`` alone, outside the op timer, so the program under test only ever
receives generated inputs. ``check`` returns a list of problems; an empty
list means the op's outputs are correct.

Why these four (each layer likely to be optimised does most of the work in
one workload and little in another):

* ``desk-suite``: one body of ``verify.run_suite``'s loop on a random network
  of at most 8 vertices. Per-call Python overhead and tiny solves dominate,
  so a sparse or array path that slows small inputs shows here. It runs by
  name only: it follows the shared host's speed too closely to be gated
  (see README.md).
* ``grid-electric``: every electric and verify check except the entropy chain
  on a 16x16 grid. The O(V*E) graph layer and repeated dense Laplacian solves
  dominate; the gaussian layer is never called.
* ``grid-gff``: free field plus entropy chain on a 12x12 grid. Dense eigh/SVD
  conditioning of the 528-dimensional doubled system dominates.
* ``cli-mix``: fresh ``python -m gffresist.cli`` processes on 4x4 grid files.
  Cold start, ``parse_network`` and ``gaussian.sample`` memory dominate.
"""

import io
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("desk-suite", "grid-electric", "grid-gff", "cli-mix")

# Relative gate for agreement between independent routes to one quantity.
CROSS_ROUTE_TOL = 1e-9
CONCAVITY_GRID = 11
R_LOW, R_HIGH = 0.1, 10.0
# Small enough for 100-300 ops in a 40 s run, so that run-level figures rest
# on many ops; the layer that dominates each workload is the same as at 32x32
# and 20x20.
GRID_SIDE = {"grid-electric": 16, "grid-gff": 12, "cli-mix": 4}
SMOKE_GRID_SIDE = 4
CLI_KINDS = ("reff", "thomson", "gff", "verify-entropy", "verify-mc")
CLI_FILE_SETS = 8
SMOKE_MC_SAMPLES = 1000
CLI_TIMEOUT_S = 120.0
WARMUP_DIM = 256


@dataclass
class Workload:
    """A prepared workload: ``run_op(make_input(i))`` is op ``i``."""

    name: str
    make_input: Callable[[int], Any]
    run_op: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    # The timed phase only stops after a whole rotation of this many ops, so
    # a mix of unequal ops is always measured in the same proportions.
    rotation: int = 1
    close: Callable[[], None] = lambda: None
    child_peak_rss_kb: int = 0


def op_rng(seed: int, workload: str, index: int, stream: int = 0):
    """Generator for op ``index`` of ``workload`` under the run seed.

    ``stream`` 1 draws set-up inputs (the cli-mix files) apart from the ops.
    """
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream, index])


def log_uniform(rng, count: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(R_LOW), math.log(R_HIGH), count))


def grid_specs(side: int) -> list:
    """Edges of a side x side grid on vertices 0..side^2-1, rows then columns."""
    specs = [(i * side + j, i * side + j + 1)
             for i in range(side) for j in range(side - 1)]
    specs += [(i * side + j, (i + 1) * side + j)
              for i in range(side - 1) for j in range(side)]
    return specs


def grid_input(rng, side: int) -> dict:
    """Seeded grid instance: two resistance vectors, a pair, a bump, a scale."""
    n_e = 2 * side * (side - 1)
    a, b = (int(v) for v in rng.choice(side * side, size=2, replace=False))
    return {
        "vertices": list(range(side * side)),
        "specs": grid_specs(side),
        "r": log_uniform(rng, n_e),
        "r_bar": log_uniform(rng, n_e),
        "a": a,
        "b": b,
        "edge": int(rng.integers(0, n_e)),
        "delta": float(rng.uniform(0.1, 2.0)),
        "t": float(rng.uniform(0.5, 10.0)),
    }


def rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y))


def _route_problems(label: str, values: dict) -> list:
    """Every pair of route values must agree to CROSS_ROUTE_TOL relative."""
    names = list(values)
    problems = []
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            gap = rel_gap(values[first], values[second])
            if not gap <= CROSS_ROUTE_TOL:
                problems.append(f"{label}: {first} vs {second} relative gap {gap:.3e}")
    return problems


def _report_problems(reports) -> list:
    return [f"{rep.name} failed: {rep.to_dict()['inequalities']}"
            for rep in reports if not rep.passed]


def warm_up():
    """One dense SPD solve and one eigh, so lazy BLAS start-up is paid in setup."""
    import scipy.linalg

    m = np.random.default_rng(0).standard_normal((WARMUP_DIM, WARMUP_DIM))
    spd = m @ m.T + WARMUP_DIM * np.eye(WARMUP_DIM)
    scipy.linalg.solve(spd, np.ones(WARMUP_DIM), assume_a="pos")
    np.linalg.eigh(spd)


# --- desk-suite ---------------------------------------------------------------

def _desk(seed: int) -> Workload:
    from gffresist import verify

    def make_input(i):
        # The body of verify.run_suite's loop, drawn in the same order.
        rng = verify.instance_rng(seed, i)
        net = verify.random_network(rng)
        graph = net.graph
        r_bar = verify.random_resistances(rng, graph.n_edges)
        a, b = verify.random_pair(rng, graph.n_vertices)
        edge = int(rng.integers(0, graph.n_edges))
        delta = float(rng.uniform(0.1, 2.0))
        return graph, net.resistances, r_bar, a, b, edge, delta

    def run_op(x):
        graph, r, r_bar, a, b, edge, delta = x
        return {
            "superadditivity": verify.check_superadditivity(graph, r, r_bar, a, b),
            "melvin": verify.melvin_chain(graph, r, r_bar, a, b),
            "entropy": verify.entropy_chain(graph, r, r_bar, a, b),
            "scaling": [verify.check_scaling(graph, r, t, a, b)
                        for t in (0.5, 2.0, 10.0)],
            "monotonicity": verify.check_monotonicity(graph, r, edge, delta, a, b),
            "concavity": verify.check_concavity_segment(
                graph, r, r_bar, CONCAVITY_GRID, a, b),
        }

    def check(x, out):
        reports = [out["superadditivity"], out["melvin"], out["entropy"],
                   *out["scaling"], out["monotonicity"], out["concavity"]]
        problems = _report_problems(reports)
        problems += _route_problems("reff(r + r_bar)", {
            "laplacian": out["superadditivity"].quantity("reff_hat"),
            "gff": out["entropy"].quantity("var_hat"),
        })
        problems += _route_problems("reff(r) + reff(r_bar)", {
            "laplacian": out["superadditivity"].quantity("reff_sum"),
            "gff": out["entropy"].quantity("var_sum"),
        })
        return problems

    return Workload("desk-suite", make_input, run_op, check)


# --- grid-electric ------------------------------------------------------------

def _grid_electric(seed: int, side: int) -> Workload:
    from gffresist import electric, graph, verify

    def run_op(x):
        g = graph.build_multigraph(x["vertices"], x["specs"])
        r, r_bar, a, b = x["r"], x["r_bar"], x["a"], x["b"]
        net = electric.ResistiveNetwork(g, r)
        flow = electric.thomson_flow(net, a, b)
        oracle = electric.min_energy_flow_oracle(net, a, b)
        return {
            "reff": electric.effective_resistance(net, a, b),
            "thomson_power": electric.dissipated_power(net, flow),
            "oracle_power": electric.dissipated_power(net, oracle),
            "kcl": electric.kcl_residual(net, flow, a, b),
            "kvl": electric.kvl_residual(net, flow),
            "reports": [
                verify.melvin_chain(g, r, r_bar, a, b),
                verify.check_superadditivity(g, r, r_bar, a, b),
                verify.check_concavity_segment(g, r, r_bar, CONCAVITY_GRID, a, b),
                verify.check_monotonicity(g, r, x["edge"], x["delta"], a, b),
                verify.check_scaling(g, r, x["t"], a, b),
            ],
        }

    def check(x, out):
        problems = _report_problems(out["reports"])
        problems += _route_problems("reff(r)", {
            "laplacian": out["reff"],
            "thomson_power": out["thomson_power"],
            "oracle_power": out["oracle_power"],
        })
        # A unit current gives currents of order 1 and drops of order reff.
        if not out["kcl"] <= CROSS_ROUTE_TOL:
            problems.append(f"kcl residual {out['kcl']:.3e}")
        if not out["kvl"] <= CROSS_ROUTE_TOL * out["reff"]:
            problems.append(f"kvl residual {out['kvl']:.3e}")
        return problems

    return Workload("grid-electric",
                    lambda i: grid_input(op_rng(seed, "grid-electric", i), side),
                    run_op, check)


# --- grid-gff -----------------------------------------------------------------

def _grid_gff(seed: int, side: int) -> Workload:
    from gffresist import electric, gff, graph, verify

    def run_op(x):
        g = graph.build_multigraph(x["vertices"], x["specs"])
        a, b = x["a"], x["b"]
        net = electric.ResistiveNetwork(g, x["r"])
        field = gff.build_free_field(net)
        return {
            "gff_variance": gff.potential_difference_variance(field, a, b),
            "reff": electric.effective_resistance(net, a, b),
            "entropy": verify.entropy_chain(g, x["r"], x["r_bar"], a, b),
        }

    def check(x, out):
        problems = _report_problems([out["entropy"]])
        problems += _route_problems("reff(r)", {
            "laplacian": out["reff"], "gff": out["gff_variance"]})
        return problems

    return Workload("grid-gff",
                    lambda i: grid_input(op_rng(seed, "grid-gff", i), side),
                    run_op, check)


# --- cli-mix ------------------------------------------------------------------

def _write_network(path: Path, side: int, r) -> None:
    doc = {
        "vertices": [f"v{i}" for i in range(side * side)],
        "edges": [{"u": f"v{u}", "v": f"v{v}", "r": float(x)}
                  for (u, v), x in zip(grid_specs(side), r)],
    }
    path.write_text(json.dumps(doc))


def _cli_argv(kind: str, files: dict, mc_seed: int, smoke: bool) -> list:
    base = ["--network", str(files["net"]), "--pair", files["pair"]]
    if kind == "verify-entropy":
        return ["verify", "entropy", *base, "--bar-network", str(files["bar"])]
    if kind == "verify-mc":
        argv = ["verify", "mc", *base, "--seed", str(mc_seed)]
        return argv + (["--samples", str(SMOKE_MC_SAMPLES)] if smoke else [])
    return [kind, *base]


_TEXT_VALUE = re.compile(r"^\s*(\w+)\s+=\s+(\S+)\s*$")


def _text_values(stdout: str) -> dict:
    """``label = value`` lines of a text report, as floats."""
    values = {}
    for line in stdout.splitlines():
        match = _TEXT_VALUE.match(line)
        if match:
            values[match.group(1)] = float(match.group(2))
    return values


def _cli_problems(kind: str, result: dict) -> list:
    """Exit code 0 and a stdout of the shape this command prints."""
    if result["code"] != 0:
        return [f"{kind}: exit code {result['code']}: {result['stderr'][-500:]}"]
    out = result["stdout"]
    try:
        if kind == "reff":
            reff = float(out)
            return [] if reff > 0 else [f"reff: nonpositive {reff}"]
        values = _text_values(out)
        if kind == "gff":
            return _route_problems("cli gff", {
                "laplacian": values["reff"], "gff": values["var_u"]})
        if kind == "thomson":
            problems = [] if values["power"] > 0 else ["thomson: nonpositive power"]
            if not values["kcl_residual"] <= CROSS_ROUTE_TOL:
                problems.append(f"thomson: kcl residual {values['kcl_residual']}")
            if not values["kvl_residual"] <= CROSS_ROUTE_TOL * values["power"]:
                problems.append(f"thomson: kvl residual {values['kvl_residual']}")
            return problems
    except (KeyError, ValueError) as exc:
        return [f"{kind}: unparsable stdout ({exc!r}): {out[-500:]}"]
    if out.rstrip().splitlines()[-1].strip() != "result: pass":
        return [f"{kind}: report did not pass: {out[-500:]}"]
    return []


def _cli_mix(seed: int, side: int, smoke: bool, in_process: bool) -> Workload:
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-mix-", dir=scratch))
    file_sets = []
    for k in range(CLI_FILE_SETS):
        rng = op_rng(seed, "cli-mix", k, stream=1)
        x = grid_input(rng, side)
        files = {"net": tmp / f"net{k}.json", "bar": tmp / f"bar{k}.json",
                 "pair": f"v{x['a']},v{x['b']}"}
        _write_network(files["net"], side, x["r"])
        _write_network(files["bar"], side, x["r_bar"])
        file_sets.append(files)

    def make_input(i):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        files = file_sets[(i // len(CLI_KINDS)) % len(file_sets)]
        mc_seed = int(op_rng(seed, "cli-mix", i).integers(0, 2**31))
        return kind, _cli_argv(kind, files, mc_seed, smoke)

    def check(x, result):
        return _cli_problems(x[0], result)

    wl = Workload("cli-mix", make_input, None, check, rotation=len(CLI_KINDS),
                  close=lambda: shutil.rmtree(tmp, ignore_errors=True))

    if in_process:
        from gffresist import cli

        def run_op(x):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run_command(x[1])
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    else:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out_path, err_path = tmp / "stdout", tmp / "stderr"

        def run_op(x):
            with open(out_path, "w+") as out, open(err_path, "w+") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "gffresist.cli", *x[1]],
                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                    env=env, cwd=ROOT)
                watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    # wait4 rather than Popen.wait, to read this child's rusage.
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    watchdog.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
                wl.child_peak_rss_kb = max(wl.child_peak_rss_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                return {"code": proc.returncode, "stdout": out.read(),
                        "stderr": err.read()}

    wl.run_op = run_op
    return wl


def prepare(name: str, seed: int, smoke: bool, in_process: bool) -> Workload:
    """Set-up for one run: imports, BLAS warm-up and inputs.

    ``cli-mix`` out of process only writes its network files: every op pays
    the cold start itself, as a user does on every call.
    """
    side = SMOKE_GRID_SIDE if smoke else GRID_SIDE.get(name)
    if name == "cli-mix":
        wl = _cli_mix(seed, side, smoke, in_process)
        if in_process:
            warm_up()
        return wl
    import gffresist  # noqa: F401  (import cost belongs to set-up)

    warm_up()
    if name == "desk-suite":
        return _desk(seed)
    if name == "grid-electric":
        return _grid_electric(seed, side)
    return _grid_gff(seed, side)


def peak_rss_mb(wl: Workload) -> float:
    """Peak RSS of this process, or of the largest cli child for cli-mix."""
    kb = wl.child_peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0
