"""The demo scripts under scripts/ run to completion from a source checkout."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@functools.cache
def _run(name):
    env = {**os.environ, "PYTHONPATH": "src"}
    return subprocess.run([sys.executable, str(Path("scripts") / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_script_is_collected():
    assert SCRIPTS == ["chain_tree_symbols.py", "klein_gordon_demo.py", "wave_ivp_demo.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_exits_zero(name):
    done = _run(name)
    assert done.returncode == 0, done.stderr


def test_chain_tree_symbols_prints_the_chain_exponents():
    lines = [line for line in _run("chain_tree_symbols.py").stdout.splitlines()
             if line.startswith("exponent ")]
    assert lines == [
        "exponent 1: 1/63*D3^8*t^7 + 1/9*D2*D3^6*t^6 + 1/3*D2^2*D3^4*t^5 + 1/6*D1*D3^4*t^4"
        " + 1/2*D2^3*D3^2*t^4 + 2/3*D1*D2*D3^2*t^3 + 1/3*D2^4*t^3 + D1*D2^2*t^2 + D1^2*t",
        "exponent 2: 1/3*x1*D3^4*t^3 + x1*D2*D3^2*t^2 + x1*D2^2*t",
        "exponent 3: x2*t*D3^2",
    ]
