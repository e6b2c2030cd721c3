"""Tests for the durability satellites: the shared atomic write,
concurrent-writer-safe result cache stores, and per-thread telemetry
emitter slots."""

import os
import threading

import pytest

from repro.core.runner import ResultCache, atomic_write
from repro.obs.telemetry import (
    emit,
    install_emitter,
    telemetry_enabled,
    uninstall_emitter,
)


class TestConcurrentCacheStores:
    def test_racing_writers_on_one_key_never_tear_the_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            barrier.wait()
            for round_ in range(25):
                cache.store("contested", {"worker": worker, "round": round_})

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Last-writer-wins semantics: the surviving entry is one of the
        # writes, complete and checksum-valid — never an interleaving.
        result = cache.load("contested")
        assert result is not None
        assert set(result) == {"worker", "round"}
        assert cache.metrics.counters.get("core.cache_evictions", 0) == 0
        # Every temp file was cleaned up (unique names per writer).
        assert list(tmp_path.glob("*.tmp")) == []

    def test_distinct_keys_from_many_threads_all_land(self, tmp_path):
        cache = ResultCache(tmp_path)

        def store(k: int) -> None:
            cache.store(f"key-{k}", {"value": k})

        threads = [threading.Thread(target=store, args=(k,)) for k in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(16):
            assert cache.load(f"key-{k}") == {"value": k}


class TestAtomicWrite:
    def test_failed_rename_keeps_the_old_file_and_leaves_no_temp(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.store("key", {"value": "old"})
        target = tmp_path / "plain"
        atomic_write(target, b"old ", b"bytes")

        def failing_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated rename failure"):
            atomic_write(target, b"new bytes")
        with pytest.raises(OSError, match="simulated rename failure"):
            cache.store("key", {"value": "new"})
        monkeypatch.undo()

        assert target.read_bytes() == b"old bytes"
        assert cache.load("key") == {"value": "old"}
        assert list(tmp_path.glob("*.tmp")) == []


class TestThreadLocalEmitters:
    def test_emitters_are_isolated_per_thread(self):
        seen_main: list[dict] = []
        seen_other: list[dict] = []
        errors: list[str] = []

        def other_thread() -> None:
            # A sibling thread installing and removing its own emitter
            # must not disturb the main thread's slot.
            install_emitter(seen_other.append)
            emit({"from": "other"})
            uninstall_emitter()
            if telemetry_enabled():
                errors.append("other thread still enabled after uninstall")

        install_emitter(seen_main.append)
        try:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            emit({"from": "main"})
        finally:
            uninstall_emitter()

        assert errors == []
        assert seen_main == [{"from": "main"}]
        assert seen_other == [{"from": "other"}]

    def test_thread_without_emitter_is_disabled(self):
        states: list[bool] = []
        worker = threading.Thread(
            target=lambda: states.append(telemetry_enabled())
        )
        install_emitter(lambda frame: None)
        try:
            worker.start()
            worker.join()
        finally:
            uninstall_emitter()
        assert states == [False]
