"""The ``BENCH_*.json`` records at the repo root: read before, merge after.

Each benchmark module owns one file.  A gate reads the committed value
before its run overwrites it; every measurement merges under its own key.
"""

from __future__ import annotations

import json
import os


def bench_path(name: str) -> str:
    """Path of ``BENCH_<name>.json`` at the repo root."""
    return os.path.join(os.path.dirname(__file__), "..", f"BENCH_{name}.json")


def load_bench(path: str) -> dict:
    """The document at *path*; empty when missing or not JSON."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError:
            return {}


def committed_bench(path: str, key: str, field: str):
    """The committed positive number at ``[key][field]``, else None."""
    value = load_bench(path).get(key, {}).get(field)
    return value if isinstance(value, (int, float)) and value > 0 else None


def record_bench(path: str, key: str, payload: dict, **top_level) -> None:
    """Merge one measurement (and any *top_level* keys) into *path*."""
    document = load_bench(path)
    document[key] = payload
    document.update(top_level)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
