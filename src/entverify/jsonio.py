"""JSON serialization for POVMs, reports, and transcripts.

Complex numbers are stored as [re, im] pairs and matrices as row-major nested
lists; floats round-trip exactly through json's repr-based encoding.

Reports, transcripts and counts are written by json.dump with two-space
indentation. A POVM document keeps that layout for its outer object, but each
entry of its `elements` array takes one line,
`{"weight": w, "vector": [[re, im], ...]}`, encoded from the arrays a chunk of
rows at a time, in the chunks of testops.chunks (about BELL_CHUNK = 2^12
complex entries); the nested list of the whole POVM is never built. A chunk's
lists and strings live until it is written, so the chunk stays small: 2^16
entries raised `gen clifford --d 5` peak RSS by 10 MB. The bytes do not
depend on the chunking. The document parses to the same JSON value as an
indented dump, with bit-identical floats, in about half the bytes (3.4 MB
instead of 6.3 MB for the Clifford orbit at d = 5).

dump_povm does not use json's C encoder for the elements. An orbit repeats
few entries many times (4 098 distinct complex entries among the 75 000 of
the Clifford orbit at d = 5), so each chunk formats each of its distinct
entries once, with float.__repr__ as json does for a finite float, and joins
the texts: 13 436 [re, im] texts over the 19 chunks at d = 5, where json
formatted 150 000 floats. The bytes are those json.dumps writes; writing the
d = 5 document takes about 40 ms instead of 120 ms in process (2-CPU VM).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from itertools import chain

import numpy as np

from .testops import RankOnePovm, chunks

ELEMENT_SEP = ",\n    "
# a complex128 entry as one 16-byte key: equal keys are equal bits, so -0.0 and 0.0 differ
_ENTRY_BITS = np.dtype((np.void, 16))


def pairs_to_vector(pairs, where: str = "pairs") -> np.ndarray:
    """Complex vector of [re, im] number pairs, bit for bit (signed zeros included).

    A ValueError naming `where` for anything else, such as a str, bool or null entry that np.asarray would take.
    """
    try:
        # the distinct entry types, gathered without a Python call per entry
        kinds = set(map(type, chain.from_iterable(pairs))) if isinstance(pairs, list) else {None}
        numbers = all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in kinds)
        raw = np.asarray(pairs, dtype=float) if numbers else None
    except (TypeError, ValueError, OverflowError):   # a pair that is no list, pairs of unequal length
        raw = None
    if raw is None or raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"{where}: expected a list of [re, im] number pairs")
    # re + 1j * im would turn a real part of -0.0 into +0.0
    v = np.empty(len(raw), dtype=complex)
    v.real, v.imag = raw[:, 0], raw[:, 1]
    return v


def _field(data: dict, key: str, where: str):
    """data[key]; a ValueError unless data is an object with that key."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} is not an object")
    if key not in data:
        raise ValueError(f"{where} has no {key!r}")
    return data[key]


def povm_from_dict(data: dict) -> RankOnePovm:
    """The POVM of a document that dump_povm wrote; a one-line ValueError names a bad key or element.

    Weights and vector entries are finite JSON numbers. A document does not
    record the pair count, so the POVM has pairs = 1: a Clifford orbit reads
    back as a one-pair POVM on C^(d^2).
    """
    if not isinstance(data, dict) or data.get("kind") != "povm":
        raise ValueError("not a POVM document")
    dim = _field(data, "dim", "POVM document")
    if type(dim) is not int or dim < 1:   # not a bool, float or str, which int() would take
        raise ValueError(f"POVM document 'dim' is not a positive integer: {dim!r}")
    elements = _field(data, "elements", "POVM document")
    if not isinstance(elements, list) or not elements:
        raise ValueError("POVM document 'elements' is not a non-empty list")
    weights, vectors = [], []
    for i, el in enumerate(elements):
        weight = _field(el, "weight", f"element {i}")
        # a bool is no JSON number; an int too large for a float compares without overflow
        if type(weight) not in (int, float) or not abs(weight) <= sys.float_info.max:
            raise ValueError(f"element {i} 'weight' is not a finite number: {weight!r}")
        v = pairs_to_vector(_field(el, "vector", f"element {i}"), f"element {i} 'vector'")
        if len(v) != dim:
            raise ValueError(f"element {i} 'vector' has length {len(v)}, not dim = {dim}")
        weights.append(weight)
        vectors.append(v)
    vectors = np.stack(vectors)
    for i in np.flatnonzero(~np.isfinite(vectors).all(axis=1))[:1]:
        raise ValueError(f"element {i} 'vector' has a NaN or Inf entry")
    return RankOnePovm(dim, np.asarray(weights), vectors)


def _entry_texts(block: np.ndarray) -> list[list[str]]:
    """The json text `[re, im]` of every entry of a 2-D complex block, row by row.

    Each distinct entry, keyed by its exact bits, is formatted once with
    float.__repr__, the encoding json.dumps gives a finite float (the
    entries of a RankOnePovm are finite).
    """
    block = np.ascontiguousarray(block, dtype=complex)
    keys, inverse = np.unique(block.view(_ENTRY_BITS).ravel(), return_inverse=True)
    texts = np.array([f"[{float.__repr__(z.real)}, {float.__repr__(z.imag)}]"
                      for z in keys.view(complex).tolist()], dtype=object)
    return texts[inverse.reshape(block.shape)].tolist()


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream on the file at path (its directory made if needed), else stdout.

    Only None means stdout: an empty path fails to open, as any bad path does.
    """
    if path is not None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def dump_json(data: dict, path: str | None = None) -> None:
    """Write a JSON document to a file, or stdout when no path is given."""
    with _output(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def dump_povm(m: RankOnePovm, path: str | None = None, **fields) -> None:
    """Write m as a POVM document, followed by fields, to a file or stdout.

    The keys are schema, kind, dim, elements, then fields in the order given.
    Each element is one line, encoded by _entry_texts from a chunk of rows
    of testops.chunks.
    """
    if m.outcomes_per_row != 1:
        raise ValueError("a POVM document lists every outcome, not one row per group of outcomes")
    with _output(path) as fh:
        fh.write('{\n  "schema": 1,\n  "kind": "povm",\n'
                 f'  "dim": {json.dumps(m.dim)},\n  "elements": [\n    ')
        for rows in chunks(m.n_elements, m.dim):
            if rows.start:
                fh.write(ELEMENT_SEP)
            weights = m.weights[rows].tolist()
            vectors = _entry_texts(m.vectors[rows])
            fh.write(ELEMENT_SEP.join(f'{{"weight": {float.__repr__(w)}, "vector": [{", ".join(row)}]}}'
                                      for w, row in zip(weights, vectors)))
        fh.write("\n  ]")
        for key, value in fields.items():
            fh.write(f",\n  {json.dumps(key)}: {json.dumps(value)}")
        fh.write("\n}\n")
