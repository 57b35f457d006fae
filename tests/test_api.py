"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib

import pytest

from macc_lab import IcpInstance, IcpUser, node_data


@pytest.mark.parametrize(
    "module",
    ["macc_lab", "macc_lab.delivery", "macc_lab.rates", "macc_lab.cli"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_node_data_is_the_instance():
    # benchmark harnesses read node_data.cache_info() on every run
    icp = IcpInstance(n_messages=2, users=(IcpUser(frozenset({1}), frozenset({2})),))
    node_data.cache_clear()
    assert node_data(icp) is icp
    assert node_data.cache_info().misses == 1
