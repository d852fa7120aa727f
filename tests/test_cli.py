"""Command line entry points."""
from hybridflow.server import StreamServer
from hybridflow.workbench.cli import main


def test_server_command_starts(monkeypatch):
    served = []
    monkeypatch.setattr(StreamServer, "serve", lambda self: served.append(self))
    assert main(["server", "--port", "0"]) == 0
    assert len(served) == 1
