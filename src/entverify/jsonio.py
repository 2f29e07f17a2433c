"""JSON serialization for POVMs, reports, and transcripts.

Complex numbers are stored as [re, im] pairs and matrices as row-major nested
lists; floats round-trip exactly through json's repr-based encoding.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .testops import RankOnePovm

CACHE_ENV = "ENTVERIFY_CACHE_DIR"
FIDUCIAL_CACHE = "fiducial-cache.json"


def cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "entverify")


def load_cache_entry(path: str, d: int, parse):
    """parse(d, entry) for the cache entry of dimension d; None on a miss.

    An unreadable file, or an entry that parse rejects by raising, is a miss
    as well and is reported by one warning line on stderr.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)["entries"].get(str(d))
        return None if entry is None else parse(d, entry)
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        print(f"warning: ignoring cache entry d={d} in {path}: {exc}", file=sys.stderr)
        return None


def save_cache_entry(path: str, d: int, entry: dict) -> None:
    """Write (or replace) the entry for dimension d, keeping the other entries.

    The file is replaced atomically, so an interrupted write leaves the old
    cache in place; an unreadable old cache is started afresh.
    """
    store = {"schema": 1, "entries": {}}
    try:
        with open(path) as fh:
            old = json.load(fh)
        if isinstance(old, dict) and isinstance(old.get("entries"), dict):
            store = old
    except (OSError, ValueError):
        pass
    store["entries"][str(d)] = entry
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(store, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [[z.real, z.imag] for z in np.asarray(v, dtype=complex)]


def pairs_to_vector(pairs) -> np.ndarray:
    raw = np.asarray(pairs, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    return raw[:, 0] + 1j * raw[:, 1]


def povm_to_dict(m: RankOnePovm, scheme: str | None = None, d: int | None = None) -> dict:
    out = {
        "schema": 1,
        "kind": "povm",
        "dim": m.dim,
        "elements": [{"weight": float(w), "vector": vector_to_pairs(v)}
                     for w, v in zip(m.weights, m.vectors)],
    }
    if scheme is not None:
        out["scheme"] = scheme
    if d is not None:
        out["d"] = d
    return out


def povm_from_dict(data: dict) -> RankOnePovm:
    if data.get("kind") != "povm":
        raise ValueError("not a POVM document")
    dim = int(data["dim"])
    weights = [el["weight"] for el in data["elements"]]
    vectors = [pairs_to_vector(el["vector"]) for el in data["elements"]]
    return RankOnePovm(dim, np.asarray(weights), np.stack(vectors))


def dump_json(data: dict, path: str | None = None) -> None:
    """Write a JSON document to a file, or stdout when no path is given."""
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(data, sys.stdout, indent=2)
        sys.stdout.write("\n")
