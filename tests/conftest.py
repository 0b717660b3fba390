import subprocess

import pytest

from gpbt.external import ExternalTrainer


@pytest.fixture(autouse=True)
def reaped_processes(monkeypatch):
    """The list of every process started during the test (the trainer
    processes of gpbt.external); after the test, each must have exited and
    been reaped by its owner. Every test uses it.

    ExternalTrainer's finalizer kills its process when the trainer is garbage
    collected, which would hide a trainer that nothing closed, so it is turned
    off for the test."""
    started = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    monkeypatch.setattr(ExternalTrainer, "__del__", lambda self: None)
    yield started
    # returncode is set only once the process has been waited for.
    unreaped = [proc for proc in started if proc.returncode is None]
    for proc in unreaped:
        proc.kill()
        proc.wait()
    assert not unreaped, f"processes never reaped: {[proc.args for proc in unreaped]}"
