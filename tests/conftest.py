import pytest

from wcell import builder

_BUILT = {}


@pytest.fixture(scope="session")
def built():
    """Session cache of built cell graphs, keyed by shape."""

    def get(lam):
        lam = tuple(lam)
        if lam not in _BUILT:
            _BUILT[lam] = builder.build_cell_graph(lam)
        return _BUILT[lam]

    return get


@pytest.fixture
def made_columns(monkeypatch):
    """The KL columns made while the test runs, in order, one per _Columns.__missing__ call."""
    from wcell import hecke

    made = []
    make = hecke._Columns.__missing__

    def counted(self, w):
        made.append(w)
        return make(self, w)

    monkeypatch.setattr(hecke._Columns, "__missing__", counted)
    return made
