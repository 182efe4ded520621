"""Fixtures shared by the test files."""

import pytest

from zxdj import circuit, mbqc, rewrite

# Every memo of the package by name: a functools.lru_cache on a builder
# whose arguments are its key (see zxdj.rewrite's module docstring).
MEMOS = {
    "zx": circuit._translate,
    "rewrite": rewrite._rewrite,
    "template": mbqc._view_template,
    "exact": mbqc._prelude,
    "flow": mbqc._gflow,
    "lattice": mbqc._reduction,
}


def clear_memos():
    for memo in MEMOS.values():
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Empty every memo before the test and after it: the test starts
    cold, and what it builds under its own patches stays with it."""
    clear_memos()
    yield
    clear_memos()
