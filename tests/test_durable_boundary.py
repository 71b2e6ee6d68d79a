"""Every durable write goes through one module, ``repro.store.files``.

The journal, the snapshots and the lease are made durable by an fsync,
an atomic rename and a directory sync.  Only the seam calls ``os`` for
them, so a counter or a power-cut layer that stands in for ``os.fsync``
or ``os.replace`` sees every one; a second ``os.fsync`` elsewhere, or a
``from os import fsync`` that binds the real function, fails here by
name.
"""

from __future__ import annotations

from tests.source_reading import src_lines_matching

SEAM = "store/files.py"
DURABLE_CALLS = (
    r"\bos\.(fsync|replace|rename|open)\b"
    r"|\bfrom os import\b.*\b(fsync|replace|rename|open)\b"
)


def test_only_the_seam_calls_os_for_durable_writes():
    hits = src_lines_matching(DURABLE_CALLS)
    assert [hit for hit in hits if not hit.startswith(f"{SEAM}:")] == []
    assert src_lines_matching(DURABLE_CALLS, SEAM)  # the pattern still finds the seam's own


def test_the_seam_looks_os_up_at_call_time():
    assert src_lines_matching(r"\bfrom os import\b|\bimport os as\b", SEAM) == []
