"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib

import pytest


@pytest.mark.parametrize(
    "module",
    ["macc_lab", "macc_lab.delivery", "macc_lab.rates", "macc_lab.cli"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
