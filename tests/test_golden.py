"""Golden bytes: SHA-256 digests of plan JSON and sweep CSV on a fixed corpus.

A change that keeps outputs byte-identical leaves every digest here as it is.
A change that means to alter an output updates the digests it touches and
says why in its log. Print the digests of the current tree with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import redirect_stdout
from unittest import mock

import pytest

from macc_lab import FieldSpec, MaccInstance, assemble, cli, plan_to_json

# (K, L, i, mode, field degree or None for the default field) -> digest of
# plan_to_json at the default demands
PLANS = {
    (9, 2, 3, "quadratic", None): "8c47889ddd5943724c68e5aa9de2ee0a27430f3214dce812e5aae6a1a767dc14",
    (9, 2, 3, "linear", None): "f81ef35c6f3566fee321074e736353b97deea0f81b2e21ccdc085de7b8dd058d",
    (9, 2, 3, "divisor", None): "e51188a91a691c2811c0a6e07f98fc53c77f9c3de20f4c0f156ad13b2b23fa15",
    (40, 2, 6, "quadratic", None): "8cfd54d3eefe3e0c8a7b1917a3b58253c01c784e95bac9ccefb489b5a87e9b6e",
    (40, 2, 6, "linear", None): "dd45626fe0a7678d65b2cdf3b0fdae549b055684ccfd803ff6741345d1db19fa",
    (40, 2, 6, "divisor", None): "dcc1144d114b5ba4126493b5c8d08a7148e4633a4a37937ddc4ac654fb50bdb8",
    (20, 2, 3, "quadratic", 16): "477275e926dd29ad4fac4bb096da3db554ccabf60198f35dca68515a740248b1",
}

# mode -> digest of `sweep --K-range 3:10 --out -` with the default field
SWEEP_K_RANGE = "3:10"
SWEEPS = {
    "quadratic": "10114da35cdcab6bffcb60af59be14887f2d9f8a89a72eba8de7d90ba4043a48",
    "linear": "879f086b45ff22973b025f620a2fc90ef165b355c2323d170eea65c4469f9248",
    "divisor": "08c2287b300f284161a2a9d18d8ed287fd01bea01043e8e9ec8008c0df006f35",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digest(k: int, l: int, i: int, mode: str, w: int | None) -> str:
    instance = MaccInstance(n_files=k, n_caches=k, access_degree=l, memory_index=i)
    field = None if w is None else FieldSpec(w)
    return _sha256(plan_to_json(assemble(instance, mode=mode, field=field)))


def sweep_digest(mode: str) -> str:
    out = io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out):
        os.environ.pop("MACC_LAB_FIELD_W", None)
        assert cli.main(["sweep", "--K-range", SWEEP_K_RANGE, "--mode", mode, "--out", "-"]) == 0
    return _sha256(out.getvalue())


@pytest.mark.parametrize("corner", list(PLANS), ids=lambda c: "-".join(map(str, c)))
def test_plan_bytes(corner):
    assert plan_digest(*corner) == PLANS[corner]


@pytest.mark.parametrize("mode", list(SWEEPS))
def test_sweep_bytes(mode):
    assert sweep_digest(mode) == SWEEPS[mode]


if __name__ == "__main__":
    for corner in PLANS:
        print(f"    {corner!r}: {plan_digest(*corner)!r},")
    for mode in SWEEPS:
        print(f"    {mode!r}: {sweep_digest(mode)!r},")
