"""Real spectral backends: symmetric eigendecomposition and skew-symmetric
block-diagonalization, both by orthogonal transforms.

The symmetric solver is a cyclic Jacobi iteration; the skew solver reduces to
it through -A^2 and pairs eigenvectors v with A v / mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotSkewSymmetric, NotSymmetric

_JACOBI_SWEEPS = 100
_JACOBI_TOL = 1e-15


@dataclass
class RealSpectral:
    """A = q diag(eigenvalues) q^T with orthogonal q, eigenvalues descending."""

    q: np.ndarray
    eigenvalues: np.ndarray


@dataclass
class SkewBlockForm:
    """A = q S q^T where S is block-diagonal with 2x2 blocks [[0,-mu],[mu,0]]
    (mu > 0, descending) followed by ``zero_count`` scalar zero blocks."""

    q: np.ndarray
    mus: list = field(default_factory=list)
    zero_count: int = 0

    def assemble(self) -> np.ndarray:
        n = 2 * len(self.mus) + self.zero_count
        s = np.zeros((n, n))
        for i, mu in enumerate(self.mus):
            p = 2 * i
            s[p, p + 1] = -mu
            s[p + 1, p] = mu
        return s


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def sym_eig(a, tol: float = 1e-9) -> RealSpectral:
    """Orthogonally diagonalize a real symmetric matrix with cyclic Jacobi."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is not square: {a.shape}")
    if _maxabs(a - a.T) > tol * max(1.0, _maxabs(a)):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    if n == 0:
        return RealSpectral(np.zeros((0, 0)), np.zeros(0))

    m = 0.5 * (a + a.T)
    q = np.eye(n)
    fro = np.linalg.norm(m)
    floor = 1e-18 * max(fro, 1e-300)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for r in range(p + 1, n):
                apq = m[p, r]
                # Relative criterion: keeps small diagonal blocks accurate
                # relative to their own scale (graded/ill-conditioned inputs).
                rel = _JACOBI_TOL * np.sqrt(abs(m[p, p] * m[r, r]))
                if abs(apq) <= max(rel, floor):
                    continue
                rotated = True
                theta = (m[r, r] - m[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * m[:, p] - s * m[:, r]
                rot_r = s * m[:, p] + c * m[:, r]
                m[:, p], m[:, r] = rot_p, rot_r
                rot_p = c * m[p, :] - s * m[r, :]
                rot_r = s * m[p, :] + c * m[r, :]
                m[p, :], m[r, :] = rot_p, rot_r
                m[p, r] = m[r, p] = 0.0
                rot_p = c * q[:, p] - s * q[:, r]
                rot_r = s * q[:, p] + c * q[:, r]
                q[:, p], q[:, r] = rot_p, rot_r
        if not rotated:
            break

    eigenvalues = np.diag(m).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    q = q[:, order]
    # Deterministic sign: first component of meaningful size is positive.
    for j in range(n):
        col = q[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            q[:, j] = -col
    return RealSpectral(q, eigenvalues)


def skew_block_diag(a, tol: float = 1e-9) -> SkewBlockForm:
    """Orthogonally block-diagonalize a real skew-symmetric matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise NotSkewSymmetric(f"matrix is not square: {a.shape}")
    scale = max(1.0, _maxabs(a))
    if _maxabs(a + a.T) > tol * scale:
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")
    if n == 0:
        return SkewBlockForm(np.zeros((0, 0)))

    a = 0.5 * (a - a.T)
    spec = sym_eig(-a @ a)
    # Estimate each mu as ||A v|| rather than sqrt(eigenvalue of -A^2):
    # rounding noise in a near-zero eigenvalue (~eps*||A||^2) would inflate
    # sqrt to ~sqrt(eps)*||A||, misclassifying kernel vectors.
    mus_all = np.linalg.norm(a @ spec.q, axis=0)
    thr = tol * scale

    appreciable = [i for i in range(n) if mus_all[i] > thr]
    zero_idx = [i for i in range(n) if mus_all[i] <= thr]

    pair_cols = []
    mus = []
    i = 0
    while i < len(appreciable):
        # cluster indices with nearly-equal mu (relative 1e-8)
        j = i
        while (
            j + 1 < len(appreciable)
            and mus_all[appreciable[i]] - mus_all[appreciable[j + 1]]
            <= 1e-8 * max(1.0, mus_all[appreciable[0]])
        ):
            j += 1
        cluster = [appreciable[k] for k in range(i, j + 1)]
        basis = spec.q[:, cluster].copy()
        while basis.shape[1] >= 2:
            v = basis[:, 0]
            v = v / np.linalg.norm(v)
            w = a @ v
            mu = float(np.linalg.norm(w))
            w = w / mu
            pair_cols.extend([v, w])
            mus.append(float(w @ (a @ v)))
            rest = basis[:, 1:]
            rest = rest - np.outer(v, v @ rest) - np.outer(w, w @ rest)
            if rest.shape[1] >= 2:
                u_r, s_r, _ = np.linalg.svd(rest, full_matrices=False)
                rest = u_r[:, s_r > 0.5]
            basis = rest
        i = j + 1

    cols = pair_cols + [spec.q[:, k] for k in zero_idx]
    q = np.column_stack(cols) if cols else np.zeros((n, 0))
    return SkewBlockForm(q, mus, len(zero_idx))
