"""The program frees a control plane by reference counting alone.

Ownership runs one way: no pending timer, callback, slice or closure of
a control plane points back at its owner, so a deposed plane dies where
its last reference goes.  A ``gc`` call in ``src/`` would hide a
back-reference instead of removing it, so any import of ``gc`` there
fails here by name.
"""

from __future__ import annotations

from tests.source_reading import src_lines_matching


def test_no_module_imports_gc():
    assert src_lines_matching(r"^\s*(import gc\b|from gc import|import .*\bgc\b)") == []
