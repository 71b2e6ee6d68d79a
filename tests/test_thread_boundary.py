"""A shard's control plane is entered by one thread at a time.

Only two modules deal in threads: ``drivers/base.py``, whose walled
drivers run blocking calls on a worker (and keep the locks that worker
shares with the shard), and ``drivers/registry.py``, whose door is the
one thread-safe way into a shard.  A lock anywhere else would guard
against a caller the contract rules out, so a new ``threading`` import
fails here by name.
"""

from __future__ import annotations

from tests.source_reading import src_lines_matching


def test_only_the_worker_hand_off_and_the_door_import_threading():
    modules = {
        hit.rpartition(":")[0]
        for hit in src_lines_matching(r"^\s*(import threading|from threading import)")
    }
    assert modules == {"drivers/base.py", "drivers/registry.py"}
