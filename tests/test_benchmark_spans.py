"""The traced benchmark wraps library functions by attribute name, so a
renamed or removed layer function breaks it; this catches that here."""

import json
import subprocess
import sys
from pathlib import Path

from ringlattice import checks  # noqa: F401  (registers the checks)
from ringlattice import verify

ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
print(json.dumps(spans.install(spans.Tracer())))
"""


def test_span_install_finds_every_layer():
    # in a subprocess: install replaces library attributes for good
    out = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == sorted(verify.CHECKS)
