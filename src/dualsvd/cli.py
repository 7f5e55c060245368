"""Command-line front end: decompose dual matrices from files, classify 2x2
transforms, and independently re-verify result documents.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileformat
from .errors import DualLinAlgError, NotSquare, PreconditionViolation
from .fileformat import ParseError
from .laguerre import LaguerreTransform, classify_transform
from .linalg import (
    FLAVOR_T,
    ISOMETRY,
    DualMatrix,
    adjoint,
    require_square,
    structure_residual,
)
from .spectral import star_spectral, t_spectral
from .svd import penrose_limits, penrose_residuals, pinv_t, svd, t_polar

# Each kind's flavor and the factors its result document carries.
KIND_FACTORS = {
    "t-svd": ("T", ("u", "sigma", "v")),
    "star-svd": ("star", ("u", "sigma", "v")),
    "t-spectral": ("T", ("v", "sigma")),
    "star-spectral": ("star", ("v", "sigma")),
    "t-polar": ("T", ("u", "p")),
    "pinv": ("T", ("pinv",)),
}
KINDS = tuple(KIND_FACTORS)


def _load_matrix(path: str) -> DualMatrix:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return fileformat.parse_matrix(text)


def _summary(r) -> dict:
    """The diagonal (T) or block (star) summary of an SVD or spectral result."""
    if r.flavor == FLAVOR_T:
        return {"diag": [[d.std, d.inf] for d in r.diag]}
    # Block fields are Python numbers, so a block's fields are its JSON entry.
    return {"blocks": [vars(b) for b in r.blocks]}


def _maxabs(a: np.ndarray, mask: np.ndarray) -> float:
    return float(np.abs(a[mask]).max()) if mask.any() else 0.0


def _offdiag_residual(sigma: DualMatrix) -> float:
    off = ~np.eye(sigma.shape[0], dtype=bool)
    return max(_maxabs(sigma.std, off), _maxabs(sigma.inf, off))


def _star_sigma_form_residual(sigma: DualMatrix) -> float:
    """Departure of sigma from the legal star block pattern: real diagonal
    standard part, infinitesimal part skew with support on the diagonal and
    the adjacent off-diagonals."""
    n = sigma.shape[0]
    off = ~np.eye(n, dtype=bool)
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    return max(
        _maxabs(sigma.std, off),
        _maxabs(sigma.inf, far),
        _maxabs(sigma.inf + sigma.inf.T, off),
    )


def _invariants(m: DualMatrix, kind: str, f: dict, tol: float):
    """Yield (name, residual, limit) for every invariant of a result whose
    factors are ``f``.  Each limit is ``tol`` times the scale of its residual:
    1 for an isometry, ``penrose_limits`` for the Penrose identities, and ||M||
    for every other residual."""
    flavor = KIND_FACTORS[kind][0]
    lim = tol * m.norm()
    for name in ("u", "v"):
        if name in f:
            yield f"{name}_structure", structure_residual(f[name], ISOMETRY[flavor]), tol
    if "p" in f:
        yield "p_symmetry", structure_residual(f["p"], "symmetric"), lim
        yield "reconstruction", (f["u"] @ f["p"] - m).norm(), lim
    elif "sigma" in f:
        sigma = f["sigma"]
        if flavor == FLAVOR_T:
            yield "sigma_diagonal", _offdiag_residual(sigma), lim
        else:
            if "u" not in f:
                yield "sigma_hermitian", structure_residual(sigma, "hermitian"), lim
            yield "sigma_block_form", _star_sigma_form_residual(sigma), lim
        # U Sigma V^adj, or V Sigma V^adj for a spectral result.
        recon = f.get("u", f["v"]) @ sigma @ adjoint(f["v"], flavor)
        yield "reconstruction", (recon - m).norm(), lim
    elif "pinv" in f:
        lims = penrose_limits(m, f["pinv"], tol)
        for name, val in penrose_residuals(m, f["pinv"]).items():
            yield f"penrose_{name}", val, lims[name]


def build_result(m: DualMatrix, kind: str, tol: float, cluster_tol: float) -> dict:
    require_square(m, "decompose")
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}")
    flavor = KIND_FACTORS[kind][0]
    doc: dict = {"kind": kind, "rows": m.shape[0], "cols": m.shape[1], "outcome": "ok"}
    if kind.endswith("-svd"):
        r = svd(m, flavor, tol, cluster_tol)
        factors = {"u": r.u, "sigma": r.sigma, "v": r.v}
        doc["summary"] = _summary(r)
    elif kind.endswith("-spectral"):
        r = (t_spectral if flavor == FLAVOR_T else star_spectral)(m, tol, cluster_tol)
        factors = {"v": r.v, "sigma": r.sigma_matrix()}
        doc["summary"] = _summary(r)
    elif kind == "t-polar":
        r = t_polar(m)
        factors = {"u": r.u, "p": r.p}
    else:
        x = pinv_t(m, tol)
        factors = {} if x is None else {"pinv": x}
        if x is None:
            doc["outcome"] = "nonexistent"
    doc["factors"] = {name: fileformat.matrix_to_obj(a) for name, a in factors.items()}
    doc["residuals"] = {name: res for name, res, _ in _invariants(m, kind, factors, tol)}
    return doc


def cmd_decompose(args) -> int:
    m = _load_matrix(args.input)
    doc = build_result(m, args.kind, args.tol, args.cluster_tol)
    text = fileformat.dumps(doc)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_classify(args) -> int:
    m = _load_matrix(args.input)
    if m.shape != (2, 2):
        raise NotSquare(f"classify needs a 2x2 matrix, got {m.shape}")
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
    try:
        return fileformat.obj_to_matrix(doc["factors"][name])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"result document is missing factor {name!r}") from exc


def _verify(m: DualMatrix, doc: dict, tol: float):
    """Yield (name, residual, limit) triples for every invariant of the
    result document."""
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"result document has unknown kind {kind!r}")
    if kind == "pinv" and doc.get("outcome") == "nonexistent":
        again = pinv_t(m)
        yield "nonexistence_confirmed", (0.0 if again is None else 1.0), 0.5
        return
    factors = {name: _get_factor(doc, name) for name in KIND_FACTORS[kind][1]}
    yield from _invariants(m, kind, factors, tol)


def cmd_check(args) -> int:
    m = _load_matrix(args.input)
    try:
        with open(args.result) as f:
            doc = fileformat.loads(f.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.result}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("result document must be an object")
    if doc.get("rows") != m.shape[0] or doc.get("cols") != m.shape[1]:
        raise ParseError("result document dimensions do not match the input")
    for name, residual, limit in _verify(m, doc, args.tol):
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
    p_dec.add_argument("--tol", type=float, default=1e-8)
    p_dec.add_argument(
        "--cluster-tol", type=float, default=1e-8,
        help="largest gap, relative to ||M||, between singular values or eigenvalues "
        "that count as one (default 1e-8)",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_cls = sub.add_parser("classify", help="classify a 2x2 Laguerre transform")
    p_cls.add_argument("--input", required=True)
    p_cls.set_defaults(func=cmd_classify)

    p_chk = sub.add_parser("check", help="re-verify a result document")
    p_chk.add_argument("--input", required=True)
    p_chk.add_argument("--result", required=True)
    p_chk.add_argument("--tol", type=float, default=1e-8)
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
