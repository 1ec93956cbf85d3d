"""A CLI process loads scipy's LAPACK and BLAS wrappers, not the
scipy.linalg package. Every test module imports scipy.linalg, so each case
here runs in a fresh interpreter, where nothing has imported it yet."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
NET = ["--network", str(DATA / "grid4.json"), "--pair", "v0,v15"]
BAR = ["--bar-network", str(DATA / "grid4_bar.json")]
# Each command and a line its output holds.
COMMANDS = {
    "reff": (["reff", *NET], "1.934594422"),
    "thomson": (["thomson", *NET], "thomson flow, unit current v0 -> v15"),
    "gff": (["gff", *NET], "var_u = 1.934594422"),
    "verify entropy": (["verify", "entropy", *NET, *BAR], "result: pass"),
    "verify mc": (["verify", "mc", *NET, "--samples", "1000"], "result: pass"),
    "verify appendix": (["verify", "appendix"], "result: pass"),
    "suite": (["suite", "--instances", "5"], "overall: pass"),
}
# scipy.linalg's package import pulls in numpy.f2py, and scipy.special
# costs verify mc 3 MB of RSS.
COLD = ("scipy.linalg", "scipy.special", "numpy.f2py")
ROUTINES = {"dgeqrf": "lapack", "dormqr": "lapack", "dpbsv": "lapack",
            "dpbtrf": "lapack", "dpbtrs": "lapack", "dsbmv": "blas"}


def run_python(*args, **env):
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, line", COMMANDS.values(), ids=COMMANDS)
def test_commands_load_no_scipy_linalg(argv, line):
    child = (
        "import json, sys\n"
        "from gffresist.cli import run_command\n"
        "code = run_command(json.loads(sys.argv[1]))\n"
        "assert code == 0, code\n"
        f"loaded = [name for name in {COLD!r} if name in sys.modules]\n"
        "assert loaded == [], loaded\n")
    proc = run_python("-c", child, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_an_ill_conditioned_solve_warns_from_a_cold_start(tmp_path):
    # TestWarningLocation's path: rcond 2^-53 is below eps, and the warning
    # branch imports LinAlgWarning only when it warns. PYTHONWARNINGS is set
    # so that an inherited "error" does not turn the warning into an exit 1.
    path = tmp_path / "path.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [{"u": "a", "v": "b", "r": 1.0},
                  {"u": "b", "v": "c", "r": 2.0 ** 51}]}))
    proc = run_python("-m", "gffresist.cli", "reff", "--network", str(path),
                      "--pair", "a,c", PYTHONWARNINGS="default")
    assert proc.returncode == 0, proc.stderr
    assert "LinAlgWarning: ill-conditioned" in proc.stderr


@pytest.mark.parametrize("gffresist_first", [True, False],
                         ids=["gffresist first", "scipy.linalg first"])
def test_one_kernel_not_a_copy(gffresist_first):
    # Each extension module the first import registers is the one scipy's
    # lapack and blas hold after the second, and so is each routine.
    first, second = "import gffresist._lapack", "import scipy.linalg"
    if not gffresist_first:
        first, second = second, first
    child = (
        "import json, sys\n"
        f"{first}\n"
        "held = [sys.modules.get(f'scipy.linalg.{name}')\n"
        "        for name in ('_flapack', '_fblas')]\n"
        f"{second}\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "assert held[0] is scipy.linalg.lapack._flapack\n"
        "assert held[1] is scipy.linalg.blas._fblas\n"
        "ours = sys.modules['gffresist._lapack']\n"
        "copies = [name for name, where in json.loads(sys.argv[1]).items()\n"
        "          if getattr(ours, name) is not\n"
        "          getattr(getattr(scipy.linalg, where), name)]\n"
        "assert copies == [], copies\n")
    proc = run_python("-c", child, json.dumps(ROUTINES))
    assert proc.returncode == 0, proc.stderr
