"""Tests for the shared worker-count helper and its ordered map."""

import os

import pytest

from halfharm.parallel import map_ordered, thread_count


def test_thread_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("HALFHARM_THREADS", raising=False)
    assert thread_count() == 1


@pytest.mark.parametrize("raw", ["many", "", "2.5", "0", "-3"])
def test_thread_count_invalid_or_nonpositive_is_one(monkeypatch, raw):
    monkeypatch.setenv("HALFHARM_THREADS", raw)
    assert thread_count() == 1


def test_thread_count_is_capped_at_cpu_count(monkeypatch):
    # only the count is computed here; no thread is started
    monkeypatch.setenv("HALFHARM_THREADS", str(10**12))
    assert thread_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("HALFHARM_THREADS", "1")
    assert thread_count() == 1


def test_map_ordered_keeps_order_serially(monkeypatch):
    monkeypatch.setenv("HALFHARM_THREADS", "1")
    assert map_ordered(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
    assert map_ordered(lambda x: x, []) == []
