import pytest

from gbdkit import DiagramHandle, catalog_names, make_diagram

NAMES = [n for n in catalog_names() if n != "banded"]


@pytest.fixture(scope="session")
def handles():
    return {name: make_diagram(name) for name in NAMES}


@pytest.fixture(params=NAMES)
def each_diagram(request, handles):
    return handles[request.param]


@pytest.fixture()
def row_reads(monkeypatch):
    """[count]: the calls of `DiagramHandle.in_edges`, the one row accessor,
    made while the test runs (the method the benchmark tracer wraps)."""
    count = [0]
    in_edges = DiagramHandle.in_edges

    def counted(self, n, v):
        count[0] += 1
        return in_edges(self, n, v)

    monkeypatch.setattr(DiagramHandle, "in_edges", counted)
    return count
