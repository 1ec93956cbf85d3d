"""The benchmark tracer looks up every LAYERS name in its gffresist module."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
