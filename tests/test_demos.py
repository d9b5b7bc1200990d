"""The demos print exactly what they printed when their outputs were
recorded in tests/demo_outputs (demo 06's temporary workspace path is
replaced by <workspace> on both sides)."""

import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "demo_outputs")


@pytest.mark.parametrize("name", sorted(
    f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, os.path.join(DEMOS, name + ".py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    out = run.stdout
    workspace = re.match(r"workspace: (\S+)\n", out)
    if workspace:
        shutil.rmtree(workspace.group(1), ignore_errors=True)
        out = out.replace(workspace.group(1), "<workspace>")
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        assert out == fh.read()
