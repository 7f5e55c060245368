"""Command-line front end: decompose dual matrices from files, classify 2x2
transforms, and re-verify result documents.  One verdict, ``svd.invariants``,
gives the residuals that ``decompose`` writes and the lines ``check`` prints.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileformat
from .errors import DualLinAlgError, OutOfRange, PreconditionViolation
from .fileformat import ParseError
from .laguerre import LaguerreTransform, classify_transform
from .linalg import DEFAULT_CLUSTER_TOL, DEFAULT_SPLIT_TOL, FLAVOR_STAR, FLAVOR_T, DualMatrix
from .spectral import star_spectral, t_spectral
from .svd import factors_of, invariants, pinv_t, svd, t_polar

# Each kind's flavor, call and document factors.  A call looks its function up
# when it runs, so that it calls a wrapper patched over the module's name.
KIND_FACTORS = {
    "t-svd": (FLAVOR_T, lambda m: svd(m, FLAVOR_T), ("u", "sigma", "v")),
    "star-svd": (FLAVOR_STAR, lambda m: svd(m, FLAVOR_STAR), ("u", "sigma", "v")),
    "t-spectral": (FLAVOR_T, lambda m: t_spectral(m), ("v", "sigma")),
    "star-spectral": (FLAVOR_STAR, lambda m: star_spectral(m), ("v", "sigma")),
    "t-polar": (FLAVOR_T, lambda m: t_polar(m), ("u", "p")),
    "pinv": (FLAVOR_T, lambda m: pinv_t(m), ("pinv",)),
}
KINDS = tuple(KIND_FACTORS)


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _summary(flavor, middle) -> dict:
    """The diagonal (T) or block (star) summary of the per-index arrays
    (sigma, sigma_prime, size) of a middle factor: the inverse of ``_middle_of``."""
    rows = zip(*(a.tolist() for a in middle))
    if flavor is FLAVOR_STAR:
        return {"blocks": [{"sigma": s, "sigma_prime": p, "size": z} for s, p, z in rows if z]}
    return {"diag": [[s, p] for s, p, _ in rows]}


def _middle_of(doc: dict, flavor, n: int):
    """The per-index arrays (sigma, sigma_prime, size) of ``middle_matrix``,
    read from the summary: T ``diag`` pairs, or star ``blocks``, where a
    size-2 block covers two indices and the second has size 0.  A generator,
    so that a malformed summary exits 2 after ``check`` prints U's and V's lines."""
    try:
        if flavor is FLAVOR_STAR:
            pairs = [[b["sigma"], b["sigma_prime"]] for b in doc["summary"]["blocks"]]
            sizes = [b["size"] for b in doc["summary"]["blocks"]]
        else:
            pairs = doc["summary"]["diag"]
            sizes = [1] * len(pairs)
        vals = fileformat.obj_to_matrix({"rows": len(sizes), "cols": 1, "entries": pairs})
    except (KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"result document has a malformed summary: {exc!r}") from exc
    if not all(type(z) is int and z in (1, 2) for z in sizes) or sum(sizes) != n:
        raise ParseError(f"summary block sizes must be 1 or 2 and add up to {n}")
    at = np.repeat(np.arange(len(sizes)), sizes)  # the block of each index
    head = np.diff(at, prepend=-1) > 0  # False at the second index of a block
    yield from (vals.std[at, 0], vals.inf[at, 0] * head, np.repeat(sizes, sizes) * head)


def build_result(m: DualMatrix, kind: str, tol: float, cluster_tol: float) -> dict:
    if (tol, cluster_tol) != (DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL):
        raise ValueError("tol and cluster_tol must be the library's constant tolerances")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    flavor, factors, middle = factors_of(KIND_FACTORS[kind][1](m))
    outcome = "ok" if factors else "nonexistent"
    doc: dict = {"kind": kind, "rows": m.shape[0], "cols": m.shape[1], "outcome": outcome}
    if middle is not None:
        doc["summary"] = _summary(flavor, middle)
    doc["factors"] = {name: fileformat.matrix_to_obj(a) for name, a in factors.items()}
    doc["residuals"] = {name: res for name, res, _ in invariants(m, flavor, factors, middle)}
    for name, res in doc["residuals"].items():
        if not np.isfinite(res):
            raise OutOfRange(f"residual {name} is not finite: a product of factors overflows")
    return doc


def cmd_decompose(args) -> int:
    m = fileformat.parse_matrix(_read(args.input))
    doc = build_result(m, args.kind, DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)
    text = fileformat.dumps(doc)
    if args.output:
        try:
            with open(args.output, "w") as f:
                f.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def cmd_classify(args) -> int:
    m = fileformat.parse_matrix(_read(args.input))
    c = classify_transform(LaguerreTransform(m))
    residual = (c.reconstruct() - m).norm()
    if c.form == 1:
        print("form=1")
        print(f"sigma=[{c.sigma[0]:.17g}, {c.sigma[1]:.17g}]")
    else:
        print("form=2")
        print(f"sigma={c.sigma:.17g}")
        print(f"sigma_prime={c.sigma_prime:.17g}")
    print(f"residual={residual:.17g}")
    return 0


def _get_factor(doc, name) -> DualMatrix:
    """The factor ``name``, which must be rows x cols like M."""
    try:
        a = fileformat.obj_to_matrix(doc["factors"][name])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"result document is missing factor {name!r}") from exc
    if a.shape != (doc["rows"], doc["cols"]):
        raise ParseError(f"factor {name!r} is {a.shape[0]}x{a.shape[1]}, not the input's shape")
    return a


def _verify(m: DualMatrix, doc: dict):
    """Yield (name, residual, limit) triples for every invariant of the
    result document: the ``invariants`` of its factors and summary."""
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"result document has unknown kind {kind!r}")
    flavor, call, names = KIND_FACTORS[kind]
    if doc.get("outcome") == "nonexistent":
        yield "nonexistence_confirmed", float(call(m) is not None), 0.5
        return
    factors = {name: _get_factor(doc, name) for name in names}
    yield from invariants(m, flavor, factors, _middle_of(doc, flavor, m.shape[0]))


def cmd_check(args) -> int:
    m = fileformat.parse_matrix(_read(args.input))
    doc = fileformat.loads(_read(args.result))
    if not isinstance(doc, dict):
        raise ParseError("result document must be an object")
    dims = doc.get("rows"), doc.get("cols")
    if not all(type(z) is int for z in dims) or dims != m.shape:
        raise ParseError("result document dimensions do not match the input")
    for name, residual, limit in _verify(m, doc):
        print(f"{name}: residual={residual:.3e} limit={limit:.3e}")
        if not residual <= limit:
            print(f"verification failed: {name}", file=sys.stderr)
            return 4
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsvd",
        description="Decompositions of square matrices over the dual numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="run a decomposition on a matrix file")
    p_dec.add_argument("--kind", required=True, choices=KINDS)
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--output")
    p_dec.set_defaults(func=cmd_decompose)

    p_cls = sub.add_parser("classify", help="classify a 2x2 Laguerre transform")
    p_cls.add_argument("--input", required=True)
    p_cls.set_defaults(func=cmd_classify)

    p_chk = sub.add_parser("check", help="re-verify a result document")
    p_chk.add_argument("--input", required=True)
    p_chk.add_argument("--result", required=True)
    p_chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionViolation as exc:
        print(f"precondition violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except DualLinAlgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
