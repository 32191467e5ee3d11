"""Every name a module exports exists on that module, and the library runs on
its declared runtime dependencies alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import cnoweave

MODULES = sorted(m.name for m in pkgutil.iter_modules(cnoweave.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"cnoweave.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_library_runs_without_scipy():
    # scipy is a test dependency only: with it unimportable, project a
    # callable onto fourier_l2 and build a tiny SDE dataset
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from cnoweave import cno, sde, spaces
        v = spaces.project(spaces.fourier_l2(1.0), np.sin, 4)
        ds = sde.build_sde_dataset(sde.ou_coeffs(), cno.TimeGrid(np.array([0.0, 0.25, 0.5])),
                                   (-1.0, 1.0), sde.McOracle(n_paths=50, n_steps=16),
                                   n_modes=3, n_orbit_samples=2)
        assert np.all(np.isfinite(v.coords)) and len(ds.windows) == 2
    """)
    src = os.path.dirname(os.path.dirname(cnoweave.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
