"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line on the terminal (bypassing capture) so a full run
reads as a checklist.
"""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DegenerateInput,
    DualMatrix,
    LaguerreTransform,
    adjoint,
    classify_transform,
    eigenvalue_multiset,
    factors_of,
    form,
    gram_schmidt,
    invariants,
    penrose,
    pinv_t,
    star_spectral,
    svd,
    t_spectral,
)
from dualsvd.cli import main
from dualsvd.fileformat import dumps, matrix_to_obj
from dualsvd.realspec import sym_eig
from conftest import (
    random_degenerate_self_adjoint,
    random_dual_matrix,
    random_isometry,
    random_self_adjoint,
    random_vectors,
)

FLAVORS = (FLAVOR_T, FLAVOR_STAR)
REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines")


def report(capsys, ok, label, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def scaled(residual, scale):
    """residual / scale; 0 for an exact result of a zero matrix."""
    return residual / scale if residual else 0.0


def judge(m, r, f):
    """Whether every invariant of r is within f times its limit, and the
    largest residual over its limit."""
    checks = list(invariants(m, *factors_of(r)))
    ok = all(res <= f * lim for _, res, lim in checks)
    return ok, max((scaled(res, lim) for _, res, lim in checks), default=0.0)


def test_criterion_1_existence_at_scale(capsys):
    """1000 random matrices per flavor, n in 1..8, four regimes: the SVD
    exists and all invariants hold at 0.1 of their limits, 1e-9 scaled."""
    rng = np.random.default_rng(1001)
    ok, worst = True, 0.0
    count = 0
    for flavor in FLAVORS:
        for k in range(1000):
            n = 1 + k % 8
            regime = REGIMES[(k // 8) % 4]
            m = random_dual_matrix(rng, n, regime)
            r = svd(m, flavor)
            ok_r, worst_r = judge(m, r, 0.1)
            # The verdict judges Sigma against its middle: T has no 2x2 block.
            ok = ok and ok_r and (flavor == FLAVOR_STAR or (r.middle[2] == 1).all())
            worst = max(worst, worst_r)
            count += 1
    report(
        capsys,
        ok,
        "criterion 1 (existence at scale)",
        f"{count} decompositions, worst residual/limit {worst:.3e} (bound 0.1)",
    )


def test_criterion_2_spectral_reconstruction(capsys):
    """500 Hermitian and 500 symmetric matrices: every invariant at 0.1 of
    its limit, 1e-9 scaled; every star 2x2 block carries a genuine sigma_prime."""
    rng = np.random.default_rng(1002)
    ok, worst = True, 0.0
    min_rel_sp = np.inf
    two_blocks = 0
    for k in range(500):
        n = 1 + k % 8
        m = (
            random_degenerate_self_adjoint(rng, n, FLAVOR_STAR)
            if k % 3 == 0 and n >= 2
            else random_self_adjoint(rng, n, FLAVOR_STAR)
        )
        dec = star_spectral(m)
        ok_r, worst_r = judge(m, dec, 0.1)
        ok, worst = ok and ok_r, max(worst, worst_r)
        for b in dec.blocks:
            if b.size == 2:
                two_blocks += 1
                # A lower bound: the floor at 1 only makes it stricter.
                min_rel_sp = min(min_rel_sp, abs(b.sigma_prime) / max(1.0, m.norm()))
    for k in range(500):
        n = 1 + k % 8
        m = (
            random_degenerate_self_adjoint(rng, n, FLAVOR_T)
            if k % 3 == 0 and n >= 2
            else random_self_adjoint(rng, n, FLAVOR_T)
        )
        ok_r, worst_r = judge(m, t_spectral(m), 0.1)
        ok, worst = ok and ok_r, max(worst, worst_r)
    ok = ok and two_blocks > 0 and min_rel_sp > 1e-8
    report(
        capsys,
        ok,
        "criterion 2 (spectral reconstruction)",
        f"worst residual/limit {worst:.3e} (bound 0.1), "
        f"{two_blocks} rotation blocks, min |sigma'|/scale {min_rel_sp:.3e}",
    )


def test_criterion_3_eigenvalue_multiset_uniqueness(capsys):
    """Conjugation by exact isometries preserves the eigenvalue multiset
    within 1e-8 per component over 200 trials."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for k in range(200):
        n = 1 + k % 8
        flavor = FLAVORS[k % 2]
        m = random_self_adjoint(rng, n, flavor)
        decomp = t_spectral if flavor == FLAVOR_T else star_spectral
        q = random_isometry(rng, n, flavor)
        conj = q @ m @ adjoint(q, flavor)
        a = eigenvalue_multiset(decomp(m))
        b = eigenvalue_multiset(decomp(conj))
        for (s1, p1), (s2, p2) in zip(a, b):
            worst = max(worst, abs(s1 - s2), abs(p1 - p2))
    report(
        capsys,
        worst <= 1e-8,
        "criterion 3 (eigenvalue-multiset uniqueness)",
        f"200 conjugation trials, worst component drift {worst:.3e} (limit 1e-8)",
    )


def test_criterion_4_classical_limit(capsys):
    """Real inputs: T-SVD singular values match the classical SVD and
    t_spectral matches the real symmetric eigensolver, at 1e-9."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for k in range(200):
        n = 1 + k % 8
        a = rng.standard_normal((n, n))
        r = svd(DualMatrix(a), FLAVOR_T)
        got = np.sort(r.middle[0])[::-1]
        want = np.linalg.svd(a, compute_uv=False)
        worst = max(worst, float(np.abs(got - want).max()))

        s = a + a.T
        dec = t_spectral(DualMatrix(s))
        got = np.sort(dec.middle[0])[::-1]
        want = sym_eig(s)[1]
        worst = max(worst, float(np.abs(got - want).max()))
    report(
        capsys,
        worst <= 1e-9,
        "criterion 4 (classical limit)",
        f"200 real instances, worst eigenvalue/singular-value gap {worst:.3e} "
        "(limit 1e-9)",
    )


def test_criterion_5_pseudoinverse_dichotomy(capsys):
    """Hand cases, Penrose identities at 1e-8 on every returned inverse, and
    an exhaustive 1x1 witness confirmation of nonexistence verdicts."""
    ok = True
    notes = []

    if pinv_t(DualMatrix([[0.0]], [[1.0]])) is not None:
        ok, notes = False, notes + ["[[eps]] not rejected"]
    if pinv_t(DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))) is not None:
        ok, notes = False, notes + ["diag(1,eps) not rejected"]
    got = pinv_t(DualMatrix(np.diag([2.0, 0.0])))
    if got is None or (got - DualMatrix(np.diag([0.5, 0.0]))).norm() > 1e-12:
        ok, notes = False, notes + ["diag(2,0) wrong"]

    rng = np.random.default_rng(1005)
    worst = 0.0
    for k in range(200):
        n = 1 + k % 6
        m = random_dual_matrix(rng, n, REGIMES[k % 4])
        x = pinv_t(m)
        if x is not None:
            for _, res, lim in penrose(m, x):
                worst = max(worst, scaled(res, lim))
    if worst > 1.0:
        ok, notes = False, notes + [f"Penrose residual/limit {worst:.3e}"]

    # 1x1 exhaustive witness: for m = a + b*eps the Penrose system reduces to
    # a^2 p = a and 2abp + a^2 q = b, solvable iff a != 0 or b = 0.  Sweep a
    # parameter grid and compare the verdict with the analytic answer.
    mismatches = 0
    for a in np.linspace(-2.0, 2.0, 9):
        for b in np.linspace(-2.0, 2.0, 9):
            exists = a != 0.0 or b == 0.0
            got = pinv_t(DualMatrix([[a]], [[b]]))
            if (got is not None) != exists:
                mismatches += 1
    if mismatches:
        ok, notes = False, notes + [f"{mismatches} 1x1 witness mismatches"]

    report(
        capsys,
        ok,
        "criterion 5 (pseudoinverse dichotomy)",
        notes[0] if notes else
        f"hand cases, 81-point 1x1 witness grid, worst Penrose residual/limit "
        f"{worst:.3e} (limits 1e-8 at each identity's scale)",
    )


def test_criterion_6_yaglom_dichotomy(capsys):
    """10^4 random invertible 2x2 matrices classify into exactly one of the
    two forms with reconstruction at 1e-9; hand examples reproduce."""
    c = classify_transform(LaguerreTransform(DualMatrix(np.diag([2.0, 1.0]))))
    hand_ok = c.form == 1 and sorted(c.sigma, reverse=True) == [2.0, 1.0]
    m2 = DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])
    c = classify_transform(LaguerreTransform(m2))
    hand_ok = hand_ok and c.form == 2 and c.sigma == 1.0 and c.sigma_prime == 1.0

    rng = np.random.default_rng(1006)
    worst = 0.0
    counts = {1: 0, 2: 0}
    trials = 0
    while trials < 10_000:
        if trials % 5 == 4:
            # Constructed Form-2 inputs; random draws are almost surely Form 1.
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            s = float(rng.uniform(0.3, 3.0))
            sp = float(rng.uniform(0.1, 2.0))
            m = DualMatrix(q) @ DualMatrix(
                s * np.eye(2), [[0.0, -sp], [sp, 0.0]]
            )
        else:
            m = DualMatrix(
                rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            )
        t = LaguerreTransform(m)
        if abs(np.linalg.det(m.std)) <= 1e-6:
            continue
        c = classify_transform(t)
        counts[c.form] += 1
        worst = max(worst, (c.reconstruct() - m).norm() / m.norm())
        trials += 1
    ok = hand_ok and worst <= 1e-9 and counts[1] > 0 and counts[2] > 0
    report(
        capsys,
        ok,
        "criterion 6 (Yaglom dichotomy)",
        f"{counts[1]} form-1 + {counts[2]} form-2, worst scaled residual "
        f"{worst:.3e} (limit 1e-9), hand examples {'ok' if hand_ok else 'BAD'}",
    )


def test_criterion_7_gram_schmidt(capsys):
    """Random independent sets orthonormalize to Gram matrix I at 1e-9 under
    both forms; dependent inputs raise DegenerateInput."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    raised = 0
    expected_raises = 0
    for k in range(100):
        n = 2 + k % 7
        kcount = 1 + k % n
        flavor = FLAVORS[k % 2]
        vs = random_vectors(rng, n, kcount)
        out = gram_schmidt(vs, flavor)
        g = form(out, out, flavor) - DualMatrix(np.eye(kcount))
        worst = max(worst, g.norm())

        if kcount >= 3:
            expected_raises += 1
            bad = vs.copy()
            bad.std[:, 1], bad.inf[:, 1] = bad.std[:, 0], bad.inf[:, 0]  # duplicate a vector
            bad.inf[:, 2] += rng.standard_normal(n)
            try:
                gram_schmidt(bad, flavor)
            except DegenerateInput:
                raised += 1
    ok = worst <= 1e-9 and raised == expected_raises
    report(
        capsys,
        ok,
        "criterion 7 (Gram-Schmidt)",
        f"worst Gram defect {worst:.3e} (limit 1e-9), "
        f"{raised}/{expected_raises} dependent sets rejected",
    )


def _golden_corpus(rng):
    """20 fixed inputs covering every decomposition kind."""
    cases = []
    sym = []
    herm = []
    for n in (2, 3, 4):
        m = random_self_adjoint(rng, n, FLAVOR_T)
        sym.append(m)
        m = random_self_adjoint(rng, n, FLAVOR_STAR)
        herm.append(m)
    cases += [("t-spectral", m) for m in sym]
    cases += [("star-spectral", m) for m in herm]
    cases += [
        ("t-svd", random_dual_matrix(rng, 3, "generic")),
        ("t-svd", random_dual_matrix(rng, 4, "rankdef")),
        ("t-svd", DualMatrix(np.zeros((2, 2)), rng.standard_normal((2, 2)))),
        ("t-svd", DualMatrix(np.eye(2))),
        ("star-svd", random_dual_matrix(rng, 3, "generic")),
        ("star-svd", random_dual_matrix(rng, 4, "rankdef")),
        ("star-svd", DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])),
        ("t-polar", random_dual_matrix(rng, 3, "generic")),
        ("t-polar", DualMatrix([[0.0]], [[1.0]])),
        ("t-polar", random_dual_matrix(rng, 2, "generic")),
        ("pinv", random_dual_matrix(rng, 3, "generic")),
        ("pinv", DualMatrix(np.diag([2.0, 0.0]))),
        ("pinv", DualMatrix([[0.0]], [[1.0]])),
        ("pinv", random_dual_matrix(rng, 2, "generic")),
    ]
    return cases


def test_criterion_8_cli_pipeline(capsys, tmp_path):
    """decompose then check exits 0 on 20 golden inputs covering every kind;
    outputs are byte-identical across repeated runs."""
    rng = np.random.default_rng(1008)
    cases = _golden_corpus(rng)
    assert len(cases) == 20
    kinds_seen = set()
    ok = True
    detail = f"{len(cases)} golden inputs"
    for i, (kind, m) in enumerate(cases):
        kinds_seen.add(kind)
        inp = tmp_path / f"in_{i}.json"
        inp.write_text(dumps(matrix_to_obj(m)))
        out1 = tmp_path / f"out_{i}a.json"
        out2 = tmp_path / f"out_{i}b.json"
        rc1 = main(
            ["decompose", "--kind", kind, "--input", str(inp), "--output", str(out1)]
        )
        rc2 = main(
            ["decompose", "--kind", kind, "--input", str(inp), "--output", str(out2)]
        )
        rc3 = main(["check", "--input", str(inp), "--result", str(out1)])
        if (rc1, rc2, rc3) != (0, 0, 0):
            ok, detail = False, f"case {i} ({kind}) exits {(rc1, rc2, rc3)}"
            break
        if out1.read_bytes() != out2.read_bytes():
            ok, detail = False, f"case {i} ({kind}) output not deterministic"
            break
    if ok and len(kinds_seen) != 6:
        ok, detail = False, f"kinds covered: {sorted(kinds_seen)}"
    report(
        capsys,
        ok,
        "criterion 8 (CLI pipeline)",
        detail + (", all decompose/check exit 0, byte-identical reruns" if ok else ""),
    )
