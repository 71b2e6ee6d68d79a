"""A shard's control plane is entered by one thread at a time.

Only two modules deal in threads: ``drivers/walled.py``, whose wrapper
runs a driver that may block on worker threads (and keeps the serial
lock and in-flight guard those workers need), and
``drivers/registry.py``, whose door is the one thread-safe way into a
shard.  A lock anywhere else would guard against a caller the contract
rules out, so a new ``threading`` import fails here by name.
"""

from __future__ import annotations

from tests.source_reading import src_lines_matching


def test_only_the_worker_hand_off_and_the_door_import_threading():
    modules = {
        hit.rpartition(":")[0]
        for hit in src_lines_matching(r"^\s*(import threading|from threading import)")
    }
    assert modules == {"drivers/registry.py", "drivers/walled.py"}
