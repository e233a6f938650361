import pytest

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
