import pytest

from commacat import memo


@pytest.fixture(autouse=True)
def _empty_memo_tables():
    """Each test starts from empty memo tables: no test sees values, or the
    labels they carry, that another test cached."""
    memo.clear()
