"""The assembled systems of ``fingerprints.CASES`` against the committed
figures in ``fingerprints.json`` (see ``fingerprints.py``)."""

import json

import pytest

from fingerprints import CASES, PATH, fingerprint

STORED = json.loads(PATH.read_text())


def test_every_case_is_stored():
    assert set(STORED["cases"]) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_the_stored_figures(case):
    want = STORED["cases"][case]
    got = fingerprint(case)
    assert (got["n"], got["nnz"]) == (want["n"], want["nnz"])
    for name in ("frobenius", "uAv", "wb"):
        assert abs(got[name] - want[name]) <= STORED["rtol"] * abs(want[name]), name
    assert set(got["errors"]) == set(want["errors"])
    for name, norm in want["errors"].items():
        assert abs(got["errors"][name] - norm) <= want["error_rtol"] * norm, name
