import pytest

from golden import LEAST_BY_RANK
from intcomplexity.dp import build
from intcomplexity.enumerator import oracle_table

DESK_LIMIT = 2_000_000


@pytest.fixture(scope="session")
def sieve_5k():
    return build(5000, ranks=True)


@pytest.fixture(scope="session")
def sieve_50k():
    return build(50_000, ranks=True)


@pytest.fixture(scope="session")
def oracle_5k():
    return oracle_table(5000)


@pytest.fixture(scope="session")
def dp_5k():
    return build(5000)


@pytest.fixture(scope="session")
def desk_table():
    """Ranked table at the desk-scale limit (about 1 s to build)."""
    return build(DESK_LIMIT, ranks=True)


@pytest.fixture(scope="session")
def desk_seq(desk_table):
    from intcomplexity.analysis import derive_sequences

    return derive_sequences(desk_table)


@pytest.fixture(scope="session")
def rank17_table():
    """Ranked table up to the least n of rank 17, 26,489,579 (about 0.7 s
    to build and 95 MB peak RSS)."""
    return build(LEAST_BY_RANK[17], ranks=True)


@pytest.fixture(scope="session")
def table_2_27():
    """Unranked table up to 2^27 - 1 = 134,217,727 (about 2 s to build and
    142 MB peak RSS)."""
    return build(2**27 - 1)
