"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import anisogeo


def test_star_import_resolves_every_export():
    # A name left in __all__ after its definition is gone makes the star
    # import raise AttributeError.
    namespace = {}
    exec("from anisogeo import *", namespace)
    assert len(set(anisogeo.__all__)) == len(anisogeo.__all__)
    for name in anisogeo.__all__:
        assert namespace[name] is getattr(anisogeo, name), name


def test_import_leaves_scipy_optimize_out():
    # The oracle solves its cone program on the package's own hulls; a
    # fresh interpreter shows what importing the package pulls in.
    package_root = str(Path(anisogeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, *sys.path]))
    code = "import sys, anisogeo; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
