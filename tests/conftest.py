import sys
from pathlib import Path

import pytest
from hypothesis import settings

DATA = Path(__file__).parent / "data"

# property tests draw the same examples on every run, so tier-1 stays
# deterministic and its running time fixed
settings.register_profile("echtoric", derandomize=True, deadline=None,
                          max_examples=200, database=None)
settings.load_profile("echtoric")


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def digit_limit():
    """CPython's least int/str digit limit, for this test only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield 640
    finally:
        sys.set_int_max_str_digits(old)
