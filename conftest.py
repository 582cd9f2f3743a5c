"""Repo-level pytest configuration."""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="Rewrite the golden fixtures (the traces under tests/fixtures/golden/ "
        "and tests/lint/fixtures/golden.json) from the current code instead "
        "of comparing against them.",
    )


@pytest.fixture
def write_order(monkeypatch):
    """Log ``os.fsync`` and ``os.replace`` calls in order, each tagged
    with the inode it acts on (a replace by its source file's), so a
    test can pin the publish order of an atomic write."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events
