"""Tests of the content-addressed result cache and the stable hashing
underneath its keys."""

import functools
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.exec import ResultCache, code_version, stable_describe, stable_digest


@dataclass(frozen=True)
class _Sample:
    a: int
    b: float


def _module_fn(x):
    return x


class TestStableDescribe:
    def test_primitives(self):
        assert stable_describe(None) == "None"
        assert stable_describe(3) == "3"
        assert stable_describe(0.1) == "0.1"
        assert stable_describe("x") == "'x'"
        assert stable_describe(b"\x01") == "bytes:01"

    def test_dict_order_does_not_matter(self):
        assert stable_describe({"a": 1, "b": 2}) == stable_describe({"b": 2, "a": 1})

    def test_list_order_does_matter(self):
        assert stable_describe([1, 2]) != stable_describe([2, 1])

    def test_dataclass_by_fields(self):
        text = stable_describe(_Sample(1, 2.5))
        assert "_Sample" in text and "a=1" in text and "b=2.5" in text

    def test_partial_and_function(self):
        p = functools.partial(_module_fn, 3)
        text = stable_describe(p)
        assert "_module_fn" in text and "3" in text
        assert "test_cache" in stable_describe(_module_fn)

    def test_float_precision_survives(self):
        a, b = 0.1 + 0.2, 0.3
        assert stable_describe(a) != stable_describe(b)

    def test_digest_differs_on_any_part(self):
        assert stable_digest("x", 1) != stable_digest("x", 2)
        assert stable_digest("x", 1) != stable_digest("y", 1)

    def test_digest_stable_across_hash_randomization(self):
        """Cache keys must agree between interpreter invocations even
        though str hashes (and so set/dict iteration orders) differ."""
        code = (
            "from repro.exec import stable_digest;"
            "print(stable_digest({'b': 2.5, 'a': 1}, ('x', 'y'), {'s', 't'}))"
        )
        digests = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = (
                os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestCodeVersion:
    def test_is_a_digest_and_cached(self):
        v = code_version()
        assert len(v) == 64
        assert code_version() is v  # lru_cache


class TestResultCache:
    def test_store_load_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 1)
        assert cache.load(key) is None
        cache.store(key, {"value": [1.5, 2.5]}, "unit", 1)
        assert cache.load(key) == {"value": [1.5, 2.5]}
        assert key in cache
        assert len(cache) == 1

    def test_inspect_exposes_description(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", _Sample(4, 0.5))
        cache.store(key, 42, "unit", _Sample(4, 0.5))
        description, result = cache.inspect(key)
        assert "_Sample" in description and "a=4" in description
        assert result == 42
        assert cache.inspect("0" * 64) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 2)
        cache.store(key, "ok", "unit", 2)
        path = cache._path(key)
        path.write_bytes(b"\x80truncated garbage")
        assert cache.load(key) is None
        assert not path.exists()

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.store(cache.key_for("unit", i), i, "unit", i)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert sorted(cache.keys()) == sorted(
            cache.key_for("unit", i) for i in range(3)
        )
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_key_includes_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key_for("unit") == stable_digest(code_version(), "unit")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 3)
        cache.store(key, list(range(100)), "unit", 3)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_temp_file_is_fsynced_before_the_replace_that_publishes_it(
        self, tmp_path, write_order
    ):
        # A crash after a replace of unsynced bytes can leave a torn entry,
        # and an entry is trusted by its key: torn means a wrong result.
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 5)
        cache.store(key, list(range(100)), "unit", 5)
        published = os.stat(cache._path(key)).st_ino
        assert write_order == [("fsync", published), ("replace", published)]

    def test_storing_an_existing_key_publishes_a_new_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 6)
        cache.store(key, "old", "unit", 6)
        path = cache._path(key)
        old_bytes = path.read_bytes()
        with path.open("rb") as held:
            cache.store(key, "new", "unit", 6)
            # The old entry was never rewritten in place: a reader holding
            # it still sees every old byte, and the key names a new file.
            assert held.read() == old_bytes
            assert os.stat(path).st_ino != os.fstat(held.fileno()).st_ino
        assert cache.load(key) == "new"

    def test_unpicklable_result_raises_and_leaves_no_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for("unit", 4)
        with pytest.raises(Exception):
            cache.store(key, lambda: None, "unit", 4)  # lambdas don't pickle
        assert cache.load(key) is None
