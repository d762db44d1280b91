"""Xuantie-910 reproduction: assembler, emulator, timing model, service."""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path


@functools.cache
def source_digest(root: str | None = None) -> str:
    """sha256 over every ``*.py`` file under *root* (default: this
    package), names and bytes, in path order.

    It is part of every persistent cache key (the tier-3 code cache, the
    job result store), so an edit anywhere in the simulator misses both
    instead of serving code or cycles the edited source would not give.
    Computed once per process; forked workers inherit it.
    """
    base = Path(root) if root is not None else Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
