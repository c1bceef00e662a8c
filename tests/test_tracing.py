"""The benchmark's span recorder (``perfbench/spans.py``) wraps latcoh
functions and methods by name.  Installing it must keep working, so that
deleting or renaming one of those names fails here and not only in the
benchmark's self-test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_span_recorder_installs():
    # A separate interpreter, because install() monkeypatches the package.
    code = ("import sys; sys.path[:0] = [%r, %r]; import spans, latcoh; "
            "spans.install(latcoh)" % (str(ROOT / "perfbench"),
                                       str(ROOT / "src")))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
