"""Fixtures shared by the test modules."""

import contextlib
import io

import pytest


class _TornFile:
    """A file that fails with ``OSError`` once ``limit`` bytes (characters,
    in text mode) have been written, after writing those up to the limit."""

    def __init__(self, fh, limit):
        self._fh = fh
        self._left = limit

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) >= self._left:
            self._fh.write(data[: self._left])
            self._left = 0
            raise OSError("disk full")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def torn_writes():
    """``with torn_writes(limit):`` every file opened for writing through
    ``io.open`` (which ``Path.open`` uses) fails with ``OSError("disk
    full")`` once ``limit`` bytes have been written to it."""

    @contextlib.contextmanager
    def tear(limit):
        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _TornFile(fh, limit) if "w" in mode or "x" in mode else fh

        io.open = torn_open
        try:
            yield
        finally:
            io.open = real_open

    return tear


@pytest.fixture
def two_workers(monkeypatch):
    """Every ``backward`` runs on two workers, however narrow its tape and
    however many CPUs the process may use."""
    from cmpr import autodiff

    monkeypatch.setattr(autodiff, "_TWO_WORKER_MIN", 0)
    monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
