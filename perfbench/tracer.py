"""Span recorder for the traced run.

The recorder wraps the public functions named in LAYERS from outside the
program: each wrapper is bound in every ``gffresist`` module namespace that
binds the original, because ``from .graph import ...`` copies names into the
importing module. Spans (name, start, end, parent, op) stay in memory and are
written once, when the traced phase ends.

Per-layer metrics are per traced op, so runs of different length compare:
``<module>.<function>.calls``, ``.s`` (inclusive time) and ``.self_s``
(inclusive time minus the time of the wrapped calls it made), plus
``<module>.self_s`` and the ratios and sizes in EXTRA_METRICS.
"""

import functools
import gzip
import importlib
import json
import pkgutil
import time
from collections import defaultdict

# Public functions per layer. Which end-to-end figure a change to each layer
# should move, on which workload, is tabled in README.md.
LAYERS = {
    "graph": ("build_multigraph", "spanning_tree", "fundamental_circuits",
              "walk_between", "circuit_matrix", "walk_sign_vector"),
    "electric": ("laplacian", "node_voltages", "effective_resistance",
                 "thomson_flow", "min_energy_flow_oracle", "kcl_residual",
                 "kvl_residual"),
    "gaussian": ("independent_gaussian", "condition_on_value",
                 "linear_functional_variance", "sample"),
    "gff": ("build_free_field", "potential_difference_variance"),
    "verify": ("check_superadditivity", "melvin_chain", "entropy_chain",
               "check_concavity_segment", "check_scaling", "check_monotonicity",
               "monte_carlo_variance_check"),
    "cli": ("parse_network", "render_report", "run_command"),
}

EXTRA_METRICS = {
    # node_voltages calls per distinct (graph, resistances) in an op; 1.0 is ideal.
    "electric.solves_per_network": "ratio",
    # fundamental_circuits calls per distinct graph in an op.
    "graph.circuit_builds_per_graph": "ratio",
    # Sum of dim^2 * 8 B over the Gaussians conditioned.
    "gaussian.condition_on_value.cov_mb_computed": "MB/op",
    # count * dim * 8 B of normals drawn.
    "gaussian.sample.draw_mb_computed": "MB/op",
    # Untraced ops_per_s over traced ops_per_s in the same run.
    "trace.overhead_ratio": "ratio",
}

MB = float(2 ** 20)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for module, functions in LAYERS.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "calls/op"
            units[f"{module}.{fn}.s"] = "s/op"
            units[f"{module}.{fn}.self_s"] = "s/op"
        units[f"{module}.self_s"] = "s/op"
    units.update(EXTRA_METRICS)
    return units


def _graph_key(g):
    return g.vertices, g.edges


class SpanRecorder:
    """Collects spans and work counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1
        self.cov_bytes = 0
        self.draw_bytes = 0
        self.distinct_graphs = 0
        self.distinct_networks = 0
        self._op_graphs = set()
        self._op_networks = set()
        self._restore = []

    def begin_op(self, index: int):
        self._end_op()
        self.op = index

    def _end_op(self):
        self.distinct_graphs += len(self._op_graphs)
        self.distinct_networks += len(self._op_networks)
        self._op_graphs.clear()
        self._op_networks.clear()

    # Counters read from a call's arguments; each signature is fixed by the
    # wrapped function, whose first parameter is always the object read here.
    def _count_node_voltages(self, n, *_args, **_kwargs):
        self._op_networks.add((_graph_key(n.graph), n.resistances.tobytes()))

    def _count_fundamental_circuits(self, g, *_args, **_kwargs):
        self._op_graphs.add(_graph_key(g))

    def _count_condition_on_value(self, g, *_args, **_kwargs):
        self.cov_bytes += g.dim * g.dim * 8

    def _count_sample(self, g, count, *_args, **_kwargs):
        self.draw_bytes += count * g.dim * 8

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return wrapper

    def install(self):
        """Bind a wrapper in place of each LAYERS function in every namespace."""
        package = importlib.import_module("gffresist")
        for module in LAYERS:
            importlib.import_module(f"gffresist.{module}")
        namespaces = [package] + [
            importlib.import_module(f"gffresist.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        for module, functions in LAYERS.items():
            home = importlib.import_module(f"gffresist.{module}")
            for fn_name in functions:
                original = getattr(home, fn_name)
                count = getattr(self, f"_count_{fn_name}", None)
                wrapper = self._wrap(f"{module}.{fn_name}", original, count)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))

    def uninstall(self):
        self._end_op()
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def write(self, path):
        """Write every span as one gzipped JSON array per line, times from the first."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin,
                                     parent, op]) + "\n")

    def metrics(self, n_ops: int, overhead_ratio: float) -> dict:
        """Per-op layer metrics over the spans recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[k]

        ops = max(n_ops, 1)
        out = {}
        for module, functions in LAYERS.items():
            module_self = 0.0
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = calls[name] / ops
                out[f"{name}.s"] = incl[name] / ops
                out[f"{name}.self_s"] = own[name] / ops
                module_self += own[name]
            out[f"{module}.self_s"] = module_self / ops
        out["electric.solves_per_network"] = (
            calls["electric.node_voltages"] / self.distinct_networks
            if self.distinct_networks else 0.0)
        out["graph.circuit_builds_per_graph"] = (
            calls["graph.fundamental_circuits"] / self.distinct_graphs
            if self.distinct_graphs else 0.0)
        out["gaussian.condition_on_value.cov_mb_computed"] = self.cov_bytes / MB / ops
        out["gaussian.sample.draw_mb_computed"] = self.draw_bytes / MB / ops
        out["trace.overhead_ratio"] = overhead_ratio
        return out
