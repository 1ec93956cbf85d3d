"""The six LAPACK and BLAS routines the routes call, from scipy's own
compiled wrappers, loaded without importing the ``scipy.linalg`` package.

``scipy.linalg``'s ``__init__`` costs more than the rest of a CLI process's
start-up, and nothing here needs it. Each extension is found in scipy's
directory (``find_spec`` does not execute scipy) and registered in
``sys.modules`` under its own name, so a later ``import scipy.linalg``
reuses the same module: one copy of each kernel, whichever is imported
first.
"""

import os
import sys
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
)
from importlib.util import find_spec, module_from_spec


def _extension(name: str):
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        (scipy_dir,) = find_spec("scipy").submodule_search_locations
        finder = FileFinder(os.path.join(scipy_dir, "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


dgeqrf, dormqr, dpbsv, dpbtrf, dpbtrs = (
    getattr(_extension("_flapack"), name)
    for name in ("dgeqrf", "dormqr", "dpbsv", "dpbtrf", "dpbtrs"))
dsbmv = _extension("_fblas").dsbmv
