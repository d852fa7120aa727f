import collections

import pytest

from hybridflow.client import DistroStreamClient
from hybridflow.server import StreamServer


@pytest.fixture
def server():
    srv = StreamServer(host="127.0.0.1", port=0, tick_ms=20)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    cli = DistroStreamClient(host=server.host, port=server.port, group="test-app")
    yield cli
    cli.close()


@pytest.fixture
def client_factory(server):
    made = []

    def make(group: str = "test-app", **kw) -> DistroStreamClient:
        cli = DistroStreamClient(host=server.host, port=server.port, group=group, **kw)
        made.append(cli)
        return cli

    yield make
    for cli in made:
        cli.close()


@pytest.fixture
def listings(monkeypatch):
    """Directory listings made through hybridflow.dirmon, counted by path."""
    from hybridflow import dirmon
    counts = collections.Counter()

    def counting(real):
        def wrapper(path="."):
            counts[path] += 1
            return real(path)
        return wrapper

    for name in ("listdir", "scandir"):
        monkeypatch.setattr(dirmon.os, name, counting(getattr(dirmon.os, name)))
    return counts
