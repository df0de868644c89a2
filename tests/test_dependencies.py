import os
import subprocess
import sys
from pathlib import Path

import matchkit

SRC = str(Path(matchkit.__file__).resolve().parents[1])


def test_numpy_is_the_only_runtime_dependency():
    # A fresh interpreter, so that nothing a test imported is already loaded.
    # Modules the interpreter loads at start-up (site hooks from .pth files)
    # are there before matchkit is imported and are not counted.
    code = """
import sys
before = set(sys.modules)
import matchkit, matchkit.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["matchkit", "numpy"]
