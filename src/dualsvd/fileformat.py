"""Text format for dual matrices and decomposition result documents.

Documents are one line of JSON with sorted keys.  Floats are written as the
shortest decimal that reads back as the same binary64 value, so a document
round-trips exactly and equal documents serialize to identical bytes.
Non-finite numbers are rejected both when writing and when reading a matrix.
"""

from __future__ import annotations

import json
import math

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
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix document: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ParseError("negative dimensions")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} entries, got "
            f"{len(entries) if isinstance(entries, list) else 'non-list'}"
        )
    std = np.zeros((rows, cols))
    inf = np.zeros((rows, cols))
    for k, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"entry {k} is not a [std, inf] pair")
        try:
            a, b = float(pair[0]), float(pair[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"entry {k} is not numeric: {exc}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ParseError(f"entry {k} is not finite")
        std[k // cols, k % cols] = a
        inf[k // cols, k % cols] = b
    return DualMatrix(std, inf)


def serialize_matrix(m: DualMatrix) -> str:
    return dumps(matrix_to_obj(m))


def parse_matrix(text: str) -> DualMatrix:
    return obj_to_matrix(loads(text))
