"""SciPy loads with the first search, not with the package.

Each case runs in a fresh interpreter, because an earlier test in this
process has already imported SciPy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESET = ROOT / "configs" / "five_facility.json"

COMMANDS = """
from echelonopt.cli import main
config, out = sys.argv[1:3]
history = ["--config", config, "--history-dir", out + "/history"]
assert main(["generate-data", "--config", config,
             "--out", out + "/history"]) == 0
"""


def run_python(code: str, *args) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_commands_without_a_search_run_without_scipy(tmp_path):
    run_python("import sys\n"
               "sys.modules['scipy'] = None  # any import of SciPy fails\n"
               "import echelonopt, echelonopt.cli\n" + COMMANDS + """
assert main(["simulate", *history, "--horizon", "30"]) == 0
assert main(["evaluate", *history, "--out", out + "/evaluate"]) == 0
try:
    import echelonopt.optim.gp
except ImportError:
    pass
else:
    raise AssertionError("SciPy was importable, so nothing was checked")
""", PRESET, tmp_path)


def test_served_names_stay_bound_when_a_module_function_is_wrapped():
    # bench/tracing.py wraps each search in its module first, then
    # requires the package attribute to be the function it found there.
    run_python("""
from echelonopt.optim import gp
import echelonopt.optim as optim
for module, name in [(optim.gp, "gp_optimize"), (optim.gp, "GaussianProcess"),
                     (optim.nelder_mead, "nelder_mead_restart"),
                     (optim.rbf, "rbf_optimize"),
                     (optim.rbf, "CubicRbfSurrogate")]:
    original = getattr(module, name)
    setattr(module, name, lambda *args: original(*args))
    assert getattr(optim, name) is original, name
""")


def test_scipy_loads_before_the_tracker_clock_starts(tmp_path):
    # wall_time_s, cpu_time_s and max_minutes leave the import out.
    run_python("import sys\n" + COMMANDS + """
from echelonopt.optim import core
assert "scipy" not in sys.modules
loaded = []
init = core.EvaluationTracker.__init__
def record(self, *args, **kwargs):
    loaded.append("scipy" in sys.modules)
    init(self, *args, **kwargs)
core.EvaluationTracker.__init__ = record
assert main(["optimize", *history, "--out", out + "/run", "--strategy",
             "rbf", "--max-evals", "3", "--replications", "1",
             "--horizon", "30"]) == 0
assert loaded == [True], loaded
""", PRESET, tmp_path)


def test_unknown_attribute_loads_no_scipy():
    # the lazy loader rejects a name before it imports a search module
    run_python("""
import sys
import echelonopt.optim
assert not hasattr(echelonopt.optim, "nope")
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
""")
