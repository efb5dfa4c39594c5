"""The package root holds its modules and ``__version__``, no re-exported names."""

import subprocess
import sys
from pathlib import Path

import spotalign

MODULES = {"autodiff", "data_io", "evaluation", "grouping", "losses", "model", "render", "trainer"}


def test_root_holds_only_the_modules():
    # a fresh interpreter, so modules other tests imported (cli) are not bound yet
    src = str(Path(spotalign.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spotalign; print(spotalign.__version__); "
         "print(' '.join(sorted(n for n in vars(spotalign) if not n.startswith('_'))))"],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    version, names = proc.stdout.splitlines()
    assert version == spotalign.__version__
    # errors is bound by the modules' own ``from .errors import ...``
    assert set(names.split()) == MODULES | {"errors"}
