"""The quick demos, and the README's python code, run to completion from
any working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_python() -> str:
    """The README's python blocks (the Library example), as one script."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README.md has no python block"
    return "\n".join(blocks)


@pytest.mark.parametrize("demo", ["01_single_facility_sawtooth.py",
                                  "02_evaluate_five_facility.py",
                                  "03_optimize_rbf.py", "README.md"])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    script = (["-c", readme_python()] if demo == "README.md"
              else [str(ROOT / "demos" / demo)])
    done = subprocess.run([sys.executable, *script],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
