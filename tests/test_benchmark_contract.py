"""The benchmark tracer looks up every LAYERS name in its gffresist module."""

import importlib
import importlib.util
from pathlib import Path

from gffresist import electric, verify
from gffresist.cli import parse_network

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
DATA = Path(__file__).parent / "data"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_exists():
    missing = []
    for module_name, functions in load_tracer().LAYERS.items():
        module = importlib.import_module(f"gffresist.{module_name}")
        missing += [f"gffresist.{module_name}.{fn}" for fn in functions
                    if not callable(getattr(module, fn, None))]
    assert missing == []


def test_tracer_sees_the_laplacian_under_node_voltages():
    # node_voltages assembles through the public laplacian, so a traced
    # solve records one laplacian span inside its node_voltages span.
    net = parse_network(str(DATA / "triangle.json"))
    recorder = load_tracer().SpanRecorder()
    recorder.install()
    try:
        electric.effective_resistance(net, 0, 1)
    finally:
        recorder.uninstall()
    names = [span[0] for span in recorder.spans]
    parents = [names[span[3]] for span in recorder.spans
               if span[0] == "electric.laplacian"]
    assert parents == ["electric.node_voltages"]


def test_tracer_counts_the_general_gaussian_path():
    # No benchmark workload conditions a general Gaussian, so this pins the
    # tracer's counter on condition_on_value's first argument: the appendix
    # check conditions its 8-dimensional joint twice, 2 x 8^2 x 8 B.
    recorder = load_tracer().SpanRecorder()
    recorder.install()
    try:
        verify.appendix_check(verify.random_appendix_instance(4, 0))
    finally:
        recorder.uninstall()
    names = [span[0] for span in recorder.spans]
    assert names.count("gaussian.condition_on_value") == 2
    assert names.count("gaussian.linear_functional_variance") == 3
    assert recorder.cov_bytes == 1024
