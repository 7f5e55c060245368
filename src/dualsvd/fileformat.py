"""Text format for dual matrices and decomposition result documents.

Documents are one line of JSON with sorted keys.  Floats are written as the
shortest decimal that reads back as the same binary64 value, so a document
round-trips exactly and equal documents serialize to identical bytes.
Non-finite numbers are rejected both when writing and when reading a matrix.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .linalg import DualMatrix
from .errors import DualLinAlgError


class ParseError(DualLinAlgError):
    """Input text is not a well-formed matrix or result document."""


def dumps(doc) -> str:
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ParseError(f"cannot serialize document: {exc}") from exc


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid document: {exc}") from exc


# -- matrix files ------------------------------------------------------------


def matrix_to_obj(m: DualMatrix) -> dict:
    rows, cols = m.shape
    entries = np.stack([m.std, m.inf], -1).reshape(-1, 2).tolist()
    return {"rows": rows, "cols": cols, "entries": entries}


def obj_to_matrix(obj) -> DualMatrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be an object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        # np.array would also read strings and booleans as numbers.
        kinds = set(map(type, chain.from_iterable(entries)))
        e = np.array(entries, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix document: {exc}") from exc
    if type(rows) is not int or type(cols) is not int or not kinds <= {int, float}:
        raise ParseError("rows and cols must be integers, entries JSON numbers")
    if rows < 0 or cols < 0:
        raise ParseError("negative dimensions")
    # Entries are rows*cols [std, inf] pairs; numpy reads an empty list as (0,).
    want = (rows * cols, 2) if rows * cols else (0,)
    if e.shape != want:
        raise ParseError(f"expected {rows * cols} [std, inf] pairs, got shape {e.shape}")
    if not np.isfinite(e).all():
        raise ParseError("entries are not finite")
    return DualMatrix(*e.reshape(rows, cols, 2).transpose(2, 0, 1).copy())


def serialize_matrix(m: DualMatrix) -> str:
    return dumps(matrix_to_obj(m))


def parse_matrix(text: str) -> DualMatrix:
    return obj_to_matrix(loads(text))
