"""Durable file-write helpers.

Every durable JSON record in the repository — run manifests, service job
records, the daemon pidfile — must reach disk through
:func:`atomic_write_json`.  The pattern is the classic POSIX
atomic replace:

1. serialize into a same-directory temporary file (``<path>.<pid>.tmp``),
2. flush, and
3. ``os.replace`` the temporary over the destination.

Readers therefore observe either the old complete document or the new
complete document, never a torn intermediate — the property crash
recovery (resume, supervisor restart, daemon SIGKILL recovery) depends
on.  The static-analysis rule ``RPR001`` (see :mod:`repro.analysis`)
flags bare truncating ``open(..., "w")`` / ``json.dump`` calls in the
durability-critical modules so that this helper stays the single
blessed pattern.

Append-only JSONL streams (``trials.jsonl``, event logs) are a different
contract — torn *tails* there are tolerated and cut off by
``repro.results.store.recover_trial_file`` — and intentionally do not use
this helper.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable

__all__ = ["atomic_write_json", "atomic_write_text"]


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8).

    The temporary sibling embeds the writer's PID so concurrent writers
    from different processes never collide on the same temporary name;
    last ``os.replace`` wins, and each replace is atomic.
    """
    path = str(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
        os.replace(tmp, path)
    finally:
        # On any failure between creation and replace, do not leave the
        # temporary behind to be mistaken for a durable record.
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass


def atomic_write_json(
    path: str,
    payload: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
    default: Callable[[Any], Any] | None = None,
) -> None:
    """Atomically replace ``path`` with ``payload`` serialized as JSON.

    The document always ends with a trailing newline so that shell tools
    (``cat``, ``tail``) compose cleanly with the store layout.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys,
                      default=default)
    atomic_write_text(path, text + "\n")
