"""The ``repro`` package root resolves its public names lazily (PEP 562).

Importing one submodule must not load every subpackage, yet every name
in ``repro.__all__`` must still resolve to the object its subpackage
defines, and ``from repro import *`` must bind them all.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.mark.parametrize("name", repro.__all__)
def test_every_public_name_resolves(name):
    value = getattr(repro, name)
    if name != "__version__":
        module = importlib.import_module(f"repro.{repro._SOURCE[name]}")
        assert value is getattr(module, name)
    assert name in dir(repro)


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope


def test_importing_a_submodule_leaves_other_subpackages_unloaded():
    code = (
        "import sys, repro.sim.registry; "
        "print(sorted(m for m in ('repro.campaign', 'repro.schedules') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
