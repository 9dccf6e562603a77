import pytest

from coperm import collide
from coperm.enumerate import enumerate_graphs
from coperm.pipeline import run_census
from oracles import READER_CHUNKS


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run the full n=9 census checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def graphs_by_n():
    """All canonical representatives for n <= 6, keyed by n."""
    return {n: list(enumerate_graphs(n)) for n in range(7)}


@pytest.fixture(scope="session")
def graphs_n8():
    return list(enumerate_graphs(8))


@pytest.fixture(scope="session")
def census():
    """Both-kind census results for every n <= 8."""
    return run_census(range(9), ("perm", "char"))


@pytest.fixture(scope="session")
def census9(request):
    if not request.config.getoption("--runslow"):
        pytest.skip("needs --runslow")
    return run_census([9], ("perm", "char"), workers=2)[9]


@pytest.fixture
def reader_chunks(monkeypatch):
    """Iterate over it to run a test body once per READER_CHUNKS size, set
    on the run reader for that pass."""
    def sizes():
        for size in READER_CHUNKS:
            monkeypatch.setattr(collide, "_CHUNK", size)
            yield size
    return sizes
