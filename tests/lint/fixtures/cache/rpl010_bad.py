"""RPL010 positive fixture: publish-before-fsync and in-place updates.

Each function is a realistic wrong way to maintain a content-addressed
cache entry; the runnable twin (``tests/lint/test_rules.py`` +
``tests/exec/test_cache.py::test_corrupt_entry_is_a_miss_and_removed``)
shows why the real store does neither.
"""

import os
import tempfile


def bad_store(root, name, payload):
    """Renames the entry into place before its bytes are durable: a
    crash right after the replace surfaces a truncated entry."""
    path = os.path.join(root, name)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    with os.fdopen(fd, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)
    dirfd = os.open(root, os.O_RDONLY)
    os.fsync(dirfd)
    os.close(dirfd)


def bad_update(path, extra):
    """Read-modify-write on a published entry: concurrent readers see a
    half-rewritten file."""
    with open(path, "r+b") as fh:
        blob = fh.read()
        fh.seek(0)
        fh.write(blob + extra)


def bad_append(path, record):
    """Appending mutates an entry after publication."""
    with open(path, "ab") as fh:
        fh.write(record)
