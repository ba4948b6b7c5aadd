"""Shared fixtures and the transcribed closed forms used as test oracles."""

import pytest

from exhopf import bst


def _clear_bst_memos():
    for memo in (bst._basis, bst._stable, bst._solve_rho):
        memo.cache_clear()


@pytest.fixture
def fresh_bst_memos():
    """Empty the chain of bases and the Method I memos before and after a
    test that perturbs the thetas, so that perturbed links neither meet the
    real ones nor outlive the test."""
    _clear_bst_memos()
    yield
    _clear_bst_memos()
