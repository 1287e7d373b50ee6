"""The names that ``bench/tracer.py`` wraps must keep resolving.

The traced benchmark run patches driftlab's functions and methods by name, so
a name deleted or renamed in ``src/`` would otherwise show only in that run.
This installs the tracer on a fresh import, in its own interpreter, as a
traced benchmark worker does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_a_fresh_import():
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'bench')!r}]",
        "import driftlab, tracer",
        "from driftlab import harness",
        "tracer.install(tracer.Tracer(), driftlab)",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
