"""Independent verifier for decomposition results.

Written against plain numpy arrays, not the library's matrix types, so a
defect in ``dualsvd`` cannot hide itself.  It checks the invariants that
``dualsvd check`` checks: isometry structure, the middle-factor pattern,
reconstruction and the Penrose identities.  Unlike ``check``, every limit
is relative to the natural scale of the quantity (‖M‖ for anything that
scales with M), never to ``max(1, ‖M‖)``, so a tiny input whose result is
wrong by all of its size fails.

A dual matrix is a pair ``(std, inf)`` of real arrays.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-8


def dmul(a, b):
    return a[0] @ b[0], a[0] @ b[1] + a[1] @ b[0]


def adj(a, flavor):
    return a[0].T, (a[1].T if flavor == "T" else -a[1].T)


def dsub(a, b):
    return a[0] - b[0], a[1] - b[1]


def dnorm(a) -> float:
    """Max-abs entry over both parts."""
    if a[0].size == 0:
        return 0.0
    return float(max(np.abs(a[0]).max(), np.abs(a[1]).max()))


def _eye(n):
    return np.eye(n), np.zeros((n, n))


def isometry_residual(q, flavor) -> float:
    i = _eye(q[0].shape[0])
    return max(
        dnorm(dsub(dmul(adj(q, flavor), q), i)),
        dnorm(dsub(dmul(q, adj(q, flavor)), i)),
    )


def _off_diagonal(a) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.abs(a[mask]).max()) if mask.any() else 0.0


def diagonal_residual(s) -> float:
    """Departure from a diagonal middle factor (T flavor)."""
    return max(_off_diagonal(s[0]), _off_diagonal(s[1]))


def star_block_residual(s) -> float:
    """Departure from the star block pattern: real diagonal standard part,
    skew infinitesimal part supported on the two adjacent off-diagonals
    (its diagonal carries the pure-infinitesimal singular values)."""
    n = s[0].shape[0]
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) >= 2
    worst = _off_diagonal(s[0])
    if far.any():
        worst = max(worst, float(np.abs(s[1][far]).max()))
    return max(worst, _off_diagonal(s[1] + s[1].T))


def pinv_exists(m) -> bool:
    """Closed-form existence test for the dual Moore-Penrose inverse of
    A + eps*B: it exists iff (I - A A+) B (I - A+ A) = 0."""
    a, b = m
    if not b.any():
        return True
    ap = np.linalg.pinv(a, rcond=1e-10)
    n = a.shape[0]
    e = (np.eye(n) - a @ ap) @ b @ (np.eye(n) - ap @ a)
    return float(np.abs(e).max()) <= 1e-6 * float(np.abs(b).max())


def checks(kind: str, m, f) -> list:
    """(name, residual, scale) triples for one result.  ``f`` maps factor
    names to dual matrices; for ``pinv`` it is None when the library
    reported that no pseudoinverse exists."""
    mn = dnorm(m)
    if kind in ("svd-T", "svd-star", "classify"):
        flavor = "T" if kind == "svd-T" else "star"
        u, s, v = f["u"], f["sigma"], f["v"]
        pattern = diagonal_residual(s) if flavor == "T" else star_block_residual(s)
        return [
            ("u_structure", isometry_residual(u, flavor), 1.0),
            ("v_structure", isometry_residual(v, flavor), 1.0),
            ("sigma_pattern", pattern, mn),
            ("reconstruction", dnorm(dsub(dmul(dmul(u, s), adj(v, flavor)), m)), mn),
        ]
    if kind in ("t_spectral", "star_spectral"):
        flavor = "T" if kind == "t_spectral" else "star"
        v, s = f["v"], f["sigma"]
        out = [("v_structure", isometry_residual(v, flavor), 1.0)]
        if flavor == "T":
            out.append(("sigma_pattern", diagonal_residual(s), mn))
        else:
            out.append(("sigma_pattern", star_block_residual(s), mn))
            out.append(("sigma_hermitian", dnorm(dsub(s, adj(s, "star"))), mn))
        out.append(("reconstruction", dnorm(dsub(dmul(dmul(v, s), adj(v, flavor)), m)), mn))
        return out
    if kind == "t_polar":
        u, p = f["u"], f["p"]
        return [
            ("u_structure", isometry_residual(u, "T"), 1.0),
            ("p_symmetry", dnorm(dsub(p, adj(p, "T"))), mn),
            ("reconstruction", dnorm(dsub(dmul(u, p), m)), mn),
        ]
    if kind == "pinv_t":
        if f is None:
            return [("exists", float(pinv_exists(m)), 0.0)]
        x = f["pinv"]
        mx, xm = dmul(m, x), dmul(x, m)
        return [
            ("exists", float(not pinv_exists(m)), 0.0),
            ("penrose_mxm", dnorm(dsub(dmul(mx, m), m)), mn),
            ("penrose_xmx", dnorm(dsub(dmul(xm, x), x)), dnorm(x)),
            ("penrose_mx_symmetric", dnorm(dsub(mx, adj(mx, "T"))), 1.0),
            ("penrose_xm_symmetric", dnorm(dsub(xm, adj(xm, "T"))), 1.0),
        ]
    raise ValueError(kind)


def verify(kind: str, m, f) -> tuple[bool, float, str]:
    """Return (ok, defect, first failing invariant).  The defect is the
    worst residual divided by its scale."""
    ok, defect, failed = True, 0.0, ""
    for name, res, scale in checks(kind, m, f):
        if not res <= TOL * scale:
            if ok:
                failed = name
            ok = False
        if scale > 0:
            defect = max(defect, res / scale)
    return ok, defect, failed
