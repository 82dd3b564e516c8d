"""The runtime needs numpy and PyYAML only; scipy is a test oracle, and
numpy.polynomial is left unloaded (the Gauss-Legendre rules are stored)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
unwanted = ("scipy", "numpy.polynomial")
loaded = lambda: sorted(m for m in sys.modules if m.startswith(unwanted))
import jumpfolio.cli
after_import = loaded()
code = jumpfolio.cli.main(sys.argv[1:])
print(json.dumps([after_import, code, loaded()]))
"""


def test_cli_never_loads_scipy(tmp_path):
    """A fresh process per command: neither ``import jumpfolio.cli`` nor a
    full ``optimize``, ``simulate``, ``value``, ``verify`` or
    ``verify --gamma 0.5`` run (the solver, the path CSVs, closed form,
    Monte Carlo, the pathwise identity and the reductions) puts a scipy
    or numpy.polynomial module in sys.modules."""
    config = ROOT / "demos" / "configs" / "regime_switching.yaml"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = (
        ["optimize"],
        ["simulate", "--paths", "20"],
        ["value"],
        ["verify"],
        ["verify", "--gamma", "0.5"],
    )
    for command in commands:
        argv = [*command, str(config), "--n-paths", "2000", "--output-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *argv],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        after_import, code, after_run = json.loads(proc.stdout.splitlines()[-1])
        assert after_import == [], command
        assert code == 0, command
        assert after_run == [], command
