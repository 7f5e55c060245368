"""File format round trips and command-line behavior, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualsvd
from dualsvd import FLAVOR_STAR, FLAVOR_T, DualMatrix, adjoint, errors
from dualsvd.cli import KIND_FACTORS, KINDS, _middle_of, _verify, build_result, main
from dualsvd.fileformat import (
    ParseError,
    dumps,
    loads,
    matrix_to_obj,
    obj_to_matrix,
    parse_matrix,
)
from dualsvd.spectral import DEFAULT_CLUSTER_TOL, star_spectral, t_spectral
from dualsvd.svd import DEFAULT_SPLIT_TOL, factors_of, invariants, pinv_t, svd
from conftest import (
    REGIMES,
    SPECTRAL,
    random_degenerate_self_adjoint,
    random_dual_matrix,
    random_input,
)

DATA = Path(__file__).parent / "data"


def write_input(path, m):
    """Write a DualMatrix, or raw text, as an input file."""
    path.write_text(m if isinstance(m, str) else dumps(matrix_to_obj(m)))
    return str(path)


class TestFileFormat:
    def test_round_trip_exact(self, rng):
        m = random_dual_matrix(rng, 4, "generic")
        back = parse_matrix(dumps(matrix_to_obj(m)))
        assert np.array_equal(back.std, m.std)
        assert np.array_equal(back.inf, m.inf)

    def test_deterministic_bytes(self, rng):
        m = random_dual_matrix(rng, 3, "generic")
        assert dumps(matrix_to_obj(m)) == dumps(matrix_to_obj(m.copy()))

    def test_seventeen_digit_floats_round_trip(self):
        vals = [1 / 3, np.pi, 1e-300, -0.1, 2.0 ** -1074]
        doc = loads(dumps({"x": vals}))
        assert doc["x"] == vals

    def test_sorted_keys(self):
        text = dumps({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_rejects_bad_documents(self):
        with pytest.raises(ParseError):
            parse_matrix("not json")
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 1, "entries": []}')
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 1, "entries": [[1]]}')
        with pytest.raises(ParseError):
            obj_to_matrix([1, 2, 3])
        with pytest.raises(ParseError):
            dumps({"x": float("nan")})
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 1, "entries": [[1e400, 0]]}')
        with pytest.raises(ParseError):
            parse_matrix('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400))
        with pytest.raises(ParseError):
            parse_matrix('{"rows": Infinity, "cols": 1, "entries": []}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1, "cols": 1, "entries": [["2", "1"]]}',
            '{"rows": 1, "cols": 1, "entries": [[2.5, "1"]]}',
            '{"rows": 1, "cols": 1, "entries": [[true, false]]}',
            '{"rows": 1, "cols": 1, "entries": [[2.5, true]]}',
            '{"rows": 1, "cols": 1, "entries": [[null, 1]]}',
            '{"rows": 1, "cols": 1, "entries": [[[2], [1]]]}',
            '{"rows": 1, "cols": 1, "entries": [2, 1]}',
        ],
    )
    def test_entries_must_be_json_numbers(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)

    @pytest.mark.parametrize("rows", ["1.7", "1.0", "true", '"1"', "null"])
    def test_dimensions_must_be_integers(self, rows):
        for doc in ('{"rows": %s, "cols": 1, "entries": [[2, 1]]}' % rows,
                    '{"rows": 1, "cols": %s, "entries": [[2, 1]]}' % rows):
            with pytest.raises(ParseError, match="integers"):
                parse_matrix(doc)

    def test_integer_and_float_entries_read_as_floats(self):
        m = parse_matrix('{"rows": 1, "cols": 2, "entries": [[2, 1.5], [-3, 0]]}')
        assert m.std.tolist() == [[2.0, -3.0]] and m.inf.tolist() == [[1.5, 0.0]]

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1, "cols": 1, "entries": [["2", "1"]]}',
            '{"rows": 1, "cols": 1, "entries": [[true, 1]]}',
            '{"rows": 1.7, "cols": 1, "entries": [[2, 1]]}',
            '{"rows": true, "cols": 1, "entries": [[2, 1]]}',
        ],
    )
    def test_lax_documents_exit_2(self, tmp_path, text):
        bad = tmp_path / "lax.json"
        bad.write_text(text)
        assert main(["decompose", "--kind", "t-svd", "--input", str(bad)]) == 2

    def test_rejects_negative_dimensions(self):
        with pytest.raises(ParseError, match="negative"):
            obj_to_matrix({"rows": -1, "cols": 1, "entries": []})

    def test_matrix_obj_shape(self):
        obj = matrix_to_obj(DualMatrix([[1, 2], [3, 4]], [[5, 6], [7, 8]]))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["entries"][1] == [2.0, 6.0]


class TestDecompose:
    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_check_passes(self, tmp_path, rng, capsys, kind):
        inp = write_input(tmp_path / "m.json", random_input(rng, 3, kind))
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", out]) == 0
        capsys.readouterr()
        assert main(["check", "--input", inp, "--result", out]) == 0
        # The document's residuals are exactly the invariants check tests.
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            name, rest = line.split(": ")
            printed[name] = rest.split()[0]
        residuals = loads((tmp_path / "r.json").read_text())["residuals"]
        assert {k: f"residual={v:.3e}" for k, v in residuals.items()} == printed

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_verdict_from_the_library_and_from_the_document(self, rng, kind):
        # invariants() of the library's result and of check's parse of its
        # document: equal names, residuals and limits, in the same order, and
        # the residuals that decompose wrote.
        # Rank-deficient inputs reach the zero block and P0's null space, and
        # a repeated eigenvalue the star 2x2 blocks.
        call = KIND_FACTORS[kind][1]
        for n in (1, 2, 3, 6):
            m = random_input(rng, n, kind, "generic" if kind == "pinv" else "rankdef")
            doc = loads(dumps(build_result(m, kind, DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)))
            got = list(invariants(m, *factors_of(call(m))))
            assert got == list(_verify(m, doc))
            assert {name: res for name, res, _ in got} == doc["residuals"]

    def test_output_to_a_device_is_success(self, tmp_path):
        # --output need not be a regular file.
        inp = write_input(tmp_path / "m.json", DualMatrix([[2.0]], [[1.0]]))
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", os.devnull]) == 0

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        inp = write_input(tmp_path / "m.json", DualMatrix([[2.0]], [[1.0]]))
        out = tmp_path / "absent" / "r.json"
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: cannot write {out}: ")
        assert main(["check", "--input", inp, "--result", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: cannot read {out}: ")

    def test_pinv_nonexistent_is_success(self, tmp_path, capsys):
        inp = write_input(tmp_path / "m.json", INLINE["eps_1x1"])
        assert main(["decompose", "--kind", "pinv", "--input", inp]) == 0
        assert loads(capsys.readouterr().out)["outcome"] == "nonexistent"

    def test_byte_identical_output(self, tmp_path, rng):
        m = random_dual_matrix(rng, 4, "generic")
        inp = write_input(tmp_path / "m.json", m)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", out]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_exit_3_errors_share_one_base(self):
        eight = {
            errors.NotSquare, errors.NotSymmetric, errors.NotHermitian, errors.NotInvertible,
            errors.DimensionMismatch, errors.DegenerateInput, errors.NonFiniteInput,
            errors.OutOfRange,
        }
        subclasses = {
            c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.PreconditionViolation)
        }
        assert subclasses - {errors.PreconditionViolation} == eight

    @pytest.mark.parametrize(
        "command, option",
        [("decompose", "--tol"), ("decompose", "--cluster-tol"), ("check", "--tol")],
        ids=["decompose-tol", "decompose-cluster-tol", "check-tol"],
    )
    def test_tolerance_options_are_usage_errors(self, tmp_path, capsys, command, option):
        # decompose runs only at the library defaults and check judges only
        # at ORTHONORMAL_TOL, the tolerances every document was written for.
        inp = write_input(tmp_path / "m.json", DualMatrix(np.diag([2.0, 1.0])))
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", out]) == 0
        rest = ["--kind", "t-svd"] if command == "decompose" else ["--result", out]
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", inp, *rest, option, "1e-8"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    def test_tolerance_arguments_are_errors(self):
        # The split, cluster and symmetry limits are constants: a tolerance
        # passed in is refused, not applied or silently ignored.
        m = DualMatrix(np.diag([2.0, 1.0]))
        calls = [
            lambda: svd(m, "T", tol=1e-8),
            lambda: svd(m, "T", 1e-8, 1e-8),
            lambda: t_spectral(m, 1e-8),
            lambda: star_spectral(m, cluster_tol=1e-8),
            lambda: pinv_t(m, 1e-8),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        with pytest.raises(ValueError, match="tol"):
            build_result(m, "t-svd", 1e-9, 1e-8)
        with pytest.raises(ParseError, match="unknown kind"):
            build_result(m, "lu", DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)

    def test_library_error_exits_4(self, tmp_path, capsys):
        # A nearly singular A: pinv_t's Penrose self-check finds MX about
        # 75 times further from symmetric than its limit.
        rng = np.random.default_rng(1)
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q1 @ np.diag([1.0, 0.5, 1e-4]) @ q2.T
        inp = write_input(tmp_path / "m.json", DualMatrix(a, rng.standard_normal((3, 3))))
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


class TestClassify:
    def test_not_2x2_exit_3(self, tmp_path, rng, capsys):
        inp = write_input(tmp_path / "m.json", random_dual_matrix(rng, 3, "generic"))
        assert main(["classify", "--input", inp]) == 3
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # `python -m dualsvd.cli` goes through entry(), which must turn
        # main()'s return value into the process exit status.
        src = str(Path(dualsvd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def run(name):
            inp = write_input(tmp_path / "m.json", INLINE[name])
            cmd = [sys.executable, "-m", "dualsvd.cli", "classify", "--input", inp]
            return subprocess.run(cmd, capture_output=True, text=True, env=env)

        ok = run("diag_2_1")
        assert ok.returncode == 0
        assert ok.stdout.splitlines()[:2] == ["form=1", "sigma=[2, 1]"]
        singular = run("zero_divisor_det")
        assert singular.returncode == 3
        assert "NotInvertible" in singular.stderr


class TestCheck:
    def test_pinv_nonexistent_check(self, tmp_path):
        inp = write_input(tmp_path / "m.json", INLINE["eps_1x1"])
        out = str(tmp_path / "r.json")
        main(["decompose", "--kind", "pinv", "--input", inp, "--output", out])
        assert main(["check", "--input", inp, "--result", out]) == 0


class TestSummary:
    """check rebuilds Sigma from the document's summary."""

    @pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
    def test_summary_reads_back_as_the_held_middle(self, rng, flavor):
        star = flavor is FLAVOR_STAR
        spectral = SPECTRAL[flavor]
        sizes = set()

        def reads_back(kind, m, r):
            doc = build_result(m, f"{flavor.lower()}-{kind}", DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)
            got = tuple(_middle_of(loads(dumps(doc)), flavor, m.shape[0]))
            assert all(np.array_equal(g, w) for g, w in zip(got, r.middle))
            sizes.update(got[2].tolist())

        for n in range(9):
            for regime in REGIMES:
                a = random_dual_matrix(rng, n, regime)
                h = a + adjoint(a, flavor)
                reads_back("svd", a, svd(a, flavor))
                reads_back("spectral", h, spectral(h))
            # A repeated eigenvalue gives a star spectral result a 2x2 block.
            h = random_degenerate_self_adjoint(rng, n, flavor)
            reads_back("spectral", h, spectral(h))
        assert sizes == ({0, 1, 2} if star else {1})


# Inputs too small for a file of their own: a DualMatrix, or the raw text of
# a file.  INPUTS names them as it names the files under tests/data.
INLINE = {
    "eps_1x1": DualMatrix([[0.0]], [[1.0]]),
    "not_json": "nope",
    "nan_2x2": '{"rows": 2, "cols": 2, "entries": [[NaN, 0], [1, 0], [0, 0], [1, Infinity]]}',
    "not_square": DualMatrix(np.zeros((2, 3))),
    "not_hermitian": DualMatrix([[0, 1], [0, 0]]),
    "hermitian_overflow": DualMatrix(np.full((2, 2), 1.5e308), [[0.0, 1.5e308], [-1.5e308, 0.0]]),
    # s_1 = 1.30e308 is below the float64 maximum of 1.80e308.
    "largest_fits": DualMatrix([[8e307, -6e307], [-5e307, 7e307]],
                               [[2e307, -1e307], [3e307, 4e307]]),
    "diag_2_1": DualMatrix(np.diag([2.0, 1.0])),
    "rotation": DualMatrix(np.eye(2), [[0, -1], [1, 0]]),
    "zero_divisor_det": DualMatrix([[0, 0], [0, 1]], [[1, 0], [0, 0]]),
}

# What each input (a file under tests/data, or an INLINE name) does under a
# kind, or under classify: the exit code, and text that stderr holds, or on
# exit 0 the stdout of check (of classify itself for classify).  Every row
# runs under the suite's error::RuntimeWarning filter, so none may warn.
INPUTS = [
    # n = 32, rank 31: the zero block's delta is appreciable, so no pinv.
    # The SVD used to rebuild U by Gram-Schmidt here and exit 3.
    ("pinv_n32_rank31", "pinv", 0, "nonexistence_confirmed: residual=0.000e+00"),
    # n = 32, rank 31, and the pinv exists: default_rng(0) draws Q1, Q2 (QR of
    # Gaussians), s ~ U(0.5, 2)^31 and a Gaussian B; A = Q1 diag(s, 0) Q2^T,
    # and B is projected so that (I - AA^+) B (I - A^+A) = 0.
    ("pinv_n32_rank31_exists", "pinv", 0, "penrose_mxm: residual="),
    # cond(A) = 2.3e4: pinv_t's Penrose self-check raises, and no output is written.
    ("pinv_ill_conditioned_3x3", "pinv", 4,
     "error: VerificationError: Penrose mx_symmetric: 3.427e-08 > limit 1.000e-08\n"),
    # ||M|| = 2.5e-9 puts ||X|| near 4e9: only MXM - M is judged against
    # ||M||, so only its limit is this small.
    ("pinv_n3_tiny_norm", "pinv", 0, "limit=2.500e-17"),
    # Singular values 1e-3 + 1e-5 and 1e-3 next to 1.5 are two clusters:
    # merged, the reconstruction would miss M by about 3e-6.
    ("svd_small_pair", "t-svd", 0, "reconstruction: residual="),
    ("svd_small_pair", "star-svd", 0, "reconstruction: residual="),
    # A subnormal ||M|| is out of float64's range.
    *[("subnormal_2x2", k, 3, "OutOfRange: ||M|| = 4.941e-324")
      for k in ("pinv", "t-svd", "star-svd", "t-polar")],
    # Every entry is 1.5e308: the largest singular value and eigenvalue,
    # 3e308, overflow when scaled back.
    *[("overflow_2x2", k, 3, "OutOfRange: a factor scaled back")
      for k in ("t-svd", "star-svd", "t-spectral")],
    ("hermitian_overflow", "star-spectral", 3, "OutOfRange: a factor scaled back"),
    # Sigma fits (8.6e307, 6.3e307), but U Sigma in the reconstruction overflows.
    ("product_overflow_2x2", "t-svd", 3, "OutOfRange: residual reconstruction is not finite"),
    ("product_overflow_2x2", "star-svd", 0, "reconstruction: residual="),
    ("product_overflow_2x2", "pinv", 0, "penrose_mxm: residual="),
    *[("largest_fits", k, 0, "reconstruction: residual=")
      for k in ("t-svd", "star-svd", "t-polar")],
    ("largest_fits", "pinv", 0, "penrose_mxm: residual="),
    # P is read off B~ at unit scale, and neither sigma nor U1 Sigma is formed.
    ("overflow_2x2", "t-polar", 0, "p_definite: residual=0.000e+00"),
    ("product_overflow_2x2", "t-polar", 0, "p_definite: residual=0.000e+00"),
    # X is about 1/||M||, far inside the range.
    ("overflow_2x2", "pinv", 0, "penrose_mxm: residual="),
    # A pure-eps 5x5 with sigma' = 1.46e308.
    ("eps_overflow_5x5", "star-svd", 0, "sigma_block_form: residual=0.000e+00"),
    # Each spectral kind passes the file that meets its symmetry precondition.
    ("symmetric_4x4", "t-spectral", 0, "sigma_diagonal: residual=0.000e+00"),
    ("symmetric_4x4", "star-spectral", 3, "NotHermitian"),
    ("hermitian_4x4", "star-spectral", 0, "sigma_hermitian: residual=0.000e+00"),
    ("hermitian_4x4", "t-spectral", 3, "NotSymmetric"),
    ("not_hermitian", "star-spectral", 3, "NotHermitian"),
    ("not_square", "t-svd", 3, "NotSquare"),
    # A pure-eps input has no pseudoinverse: an answer, which check confirms.
    ("pinv_nonexistent_2x2", "pinv", 0, "nonexistence_confirmed: residual=0.000e+00"),
    # Text that is not a matrix document, and a file that does not exist.
    ("not_json", "t-svd", 2, "parse error: invalid document"),
    ("nan_2x2", "t-svd", 2, "parse error: entries are not finite"),
    ("absent", "t-svd", 2, "absent.json: "),
    # classify takes a 2x2 input whose determinant is not a zero divisor.
    ("diag_2_1", "classify", 0, "form=1\nsigma=[2, 1]\n"),
    ("rotation", "classify", 0, "form=2\nsigma=1\nsigma_prime=1\n"),
    ("product_overflow_2x2", "classify", 0, "form=1\n"),
    ("zero_divisor_det", "classify", 3, "NotInvertible"),
    ("symmetric_4x4", "classify", 3, "DimensionMismatch"),
]


@pytest.mark.parametrize(
    "name, kind, code, text", INPUTS, ids=[f"{name}-{kind}" for name, kind, *_ in INPUTS]
)
def test_data_file(tmp_path, capsys, name, kind, code, text):
    inp, out = str(DATA / f"{name}.json"), tmp_path / "r.json"
    if name in INLINE:
        inp = write_input(tmp_path / "m.json", INLINE[name])
    if kind == "classify":
        assert main(["classify", "--input", inp]) == code
    else:
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == code
        assert out.exists() == (code == 0)
        if code == 0:
            capsys.readouterr()
            assert main(["check", "--input", inp, "--result", str(out)]) == 0
    captured = capsys.readouterr()
    assert text in (captured.err if code else captured.out)
    if code == 2:  # check reads its input as decompose does
        assert main(["check", "--input", inp, "--result", str(out)]) == 2
        assert text in capsys.readouterr().err


def _factors(**edits):
    """An alter that replaces each named factor F of the document by edits[name](F)."""
    def alter(doc):
        for name, edit in edits.items():
            doc["factors"][name] = matrix_to_obj(edit(obj_to_matrix(doc["factors"][name])))
    return alter


def _moved(field):
    """An alter that moves sigma (field 0) or sigma' (field 1) of the
    summary's first entry by 1e-6 of the largest entry of Sigma."""
    def alter(doc):
        summary, by = doc["summary"], 1e-6 * obj_to_matrix(doc["factors"]["sigma"]).norm()
        if "blocks" in summary:
            summary["blocks"][0][("sigma", "sigma_prime")[field]] += by
        else:
            summary["diag"][0][field] += by
    return alter


def _null_column_scaled(doc):
    """Scale U's column 1 by 1 + 1e-4; it meets sigma = 0, so reconstruction holds."""
    assert doc["summary"]["diag"][1] == [0.0, 0.0]
    _factors(u=lambda u: u @ DualMatrix(np.diag([1.0, 1.0 + 1e-4])))(doc)


def _t_entry(doc):
    return doc["summary"]["diag"][0]


def _star_block(doc):
    return doc["summary"]["blocks"][0]


def _draw(kind, n=3):
    return lambda rng: random_input(rng, n, kind)


def _pd_hermitian(rng):
    std, inf = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    return DualMatrix(std @ std.T + 3 * np.eye(2), inf - inf.T)


# u = I + eps*[[0, 1e308], [-1e308, 0]] is exactly T-orthogonal, but U Sigma
# U^T overflows to inf - inf = NaN in its infinitesimal part.
U_OVERFLOW = DualMatrix(np.eye(2), [[0.0, 1e308], [-1e308, 0.0]])
# Sigma = 2I + eps*S with S skew on both neighbour pairs (0, 1) and (1, 2)
# has no block form.  U = V = I, so every other invariant holds.
SKEW_PAIRS = DualMatrix(2.0 * np.eye(3), [[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
I3 = matrix_to_obj(DualMatrix(np.eye(3)))
OVERLAPPING = {"factors": {"u": I3, "sigma": matrix_to_obj(SKEW_PAIRS), "v": I3},
               "summary": {"blocks": [{"sigma": 2.0, "sigma_prime": 1.0, "size": 2},
                                      {"sigma": 2.0, "sigma_prime": 0.0, "size": 1}]}}
NOT_FINITE = "malformed summary: ParseError('entries are not finite')"

# What check does with an altered document: the input (a function of the
# test's rng if it needs a draw) is decomposed under the kind, and the
# document passes check.  alter(doc) edits it in place or returns a document
# to write instead; check then exits with the code and prints the text.
DOCUMENTS = [
    # Negating U's first column keeps U an isometry but breaks reconstruction.
    ("u column negated", "t-svd", _draw("t-svd"),
     _factors(u=lambda u: u @ DualMatrix(np.diag([-1.0, 1.0, 1.0]))),
     4, "verification failed: reconstruction"),
    ("sigma' moved", "star-svd", _pd_hermitian,
     _factors(sigma=lambda s: s + DualMatrix(np.zeros((2, 2)), [[0.0, 0.5], [0.0, 0.0]])),
     4, "verification failed: sigma_block_form"),
    # At |M| = 1e8 a limit of tol*|M| would pass an isometry defect of 2e-4.
    ("isometry limit is scale-free", "t-svd", DualMatrix(np.diag([1e8, 0.0])),
     _null_column_scaled, 4, "verification failed: u_structure"),
    # At ||M|| = 2e-6 a reconstruction off by 1e-10 is off by 5e-5 of M;
    # a limit of tol*max(1, ||M||) = 1e-8 let it pass.
    ("limits scale with a tiny M", "t-svd", DualMatrix(np.diag([2e-6, 1e-6])),
     _factors(sigma=lambda s: s + DualMatrix([[1e-10, 0.0], [0.0, 0.0]])),
     4, "verification failed: sigma_diagonal"),
    ("nan residual", "t-svd", DualMatrix(10.0 * np.eye(2)),
     _factors(u=lambda _: U_OVERFLOW, v=lambda _: U_OVERFLOW), 4, "reconstruction: residual=nan"),
    # M X M overflows to inf * 0 = NaN; the residual forms without numpy's warning.
    ("penrose overflow", "pinv", DualMatrix(1e300 * np.eye(2)),
     _factors(pinv=lambda _: DualMatrix(1e300 * np.eye(2))), 4, "penrose_mxm: residual=nan"),
    # (-U, -P) is T-orthogonal, symmetric and reconstructs M, but -P is not
    # positive semidefinite.
    ("polar factors negated", "t-polar", _draw("t-polar"),
     _factors(u=lambda u: -u, p=lambda p: -p), 4, "verification failed: p_definite"),
    # M = diag(1, 0) + eps*diag(0, 1) has U = I, P = M.  U = diag(1, -1) and
    # P = diag(1, 0) - eps*diag(0, 1) are T-orthogonal, symmetric and give
    # U P = M exactly, with P0 >= 0, but P1 < 0 on the null space of P0.
    ("polar factor indefinite on the null space", "t-polar",
     DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
     _factors(u=lambda _: DualMatrix(np.diag([1.0, -1.0])),
              p=lambda _: DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, -1.0]))),
     4, "verification failed: p_definite"),
    # check calls the document's kind again: a T-SVD always exists.
    ("nonexistence claimed", "t-svd", _draw("t-svd"),
     lambda d: d.update(outcome="nonexistent"), 4, "verification failed: nonexistence_confirmed"),
    # The old pattern test, a skew eps part on the tridiagonal, passed this.
    ("overlapping skew pairs", "star-svd", SKEW_PAIRS, lambda d: d.update(OVERLAPPING),
     4, "verification failed: sigma_block_form"),
    # A degenerate Hermitian M puts a 2x2 block first in star-spectral.
    *[(f"{kind} summary value {field} moved", kind, _draw(kind, 4), _moved(field), 4,
       "verification failed: sigma_" + ("block_form" if kind.startswith("star") else "diagonal"))
      for kind in ("t-svd", "star-svd", "t-spectral", "star-spectral") for field in (0, 1)],
    # A document that is not one: each is a parse error, exit 2.
    ("not an object", "t-svd", _draw("t-svd"), lambda d: [1, 2], 2, "must be an object"),
    ("unknown kind", "t-svd", _draw("t-svd"), lambda d: d.update(kind="lu-decomposition"),
     2, "unknown kind 'lu-decomposition'"),
    ("factor missing", "t-svd", _draw("t-svd"), lambda d: d["factors"].__delitem__("u"),
     2, "missing factor 'u'"),
    *[(f"factor {name} is {size}x{size}", "t-svd", _draw("t-svd"),
       _factors(**{name: lambda _, size=size: DualMatrix(np.eye(size))}),
       2, f"factor {name!r} is {size}x{size}") for name, size in [("sigma", 2), ("u", 4)]],
    ("non-finite factor entry", "t-svd", _draw("t-svd", 2),
     lambda d: d["factors"]["u"]["entries"][0].__setitem__(0, float("nan")),
     2, "parse error: entries are not finite"),
    ("dimensions mismatch", "t-svd", _draw("t-svd"), lambda d: d.update(rows=2, cols=2),
     2, "dimensions do not match"),
    # 2.0 == 2 and true == 1: compared by value, both documents passed.
    ("dimensions 2.0", "t-svd", DualMatrix(np.diag([2.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]),
     lambda d: d.update(rows=2.0, cols=2.0), 2, "dimensions do not match"),
    ("dimensions true", "pinv", DualMatrix([[2.0]], [[1.0]]),
     lambda d: d.update(rows=True, cols=True), 2, "dimensions do not match"),
    # Summaries that describe no middle factor.
    ("summary missing", "t-svd", _draw("t-svd"), lambda d: d.__delitem__("summary"),
     2, "malformed summary: KeyError('summary')"),
    ("summary missing-star", "star-svd", _draw("star-svd"), lambda d: d.__delitem__("summary"),
     2, "malformed summary: KeyError('summary')"),
    ("summary not an object", "t-svd", _draw("t-svd"), lambda d: d.update(summary=[[1.0, 0.0]]),
     2, "malformed summary: TypeError"),
    ("summary diag not a list", "t-svd", _draw("t-svd"),
     lambda d: d["summary"].update(diag={"0": [1.0, 0.0]}), 2, "bad matrix document"),
    ("summary blocks not a list", "star-svd", _draw("star-svd"),
     lambda d: d["summary"].update(blocks=3.0), 2, "malformed summary: TypeError"),
    ("summary other flavor's key", "star-svd", _draw("star-svd"),
     lambda d: d.update(summary={"diag": [[1.0, 0.0]] * 3}), 2, "KeyError('blocks')"),
    ("summary string number", "t-svd", _draw("t-svd"),
     lambda d: _t_entry(d).__setitem__(0, "1.5"), 2, "entries JSON numbers"),
    ("summary string number-star", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).update(sigma="1.5"), 2, "entries JSON numbers"),
    ("summary bool value", "t-svd", _draw("t-svd"),
     lambda d: _t_entry(d).__setitem__(1, False), 2, "entries JSON numbers"),
    ("summary bool size", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).update(size=True), 2, "sizes must be 1 or 2"),
    # One block of size 3 adds up to n: only the size is wrong.
    ("summary size 3", "star-svd", _draw("star-svd"),
     lambda d: d["summary"].update(blocks=[dict(_star_block(d), size=3)]),
     2, "sizes must be 1 or 2"),
    ("summary string size", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).update(size="1"), 2, "sizes must be 1 or 2"),
    ("summary missing field", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).__delitem__("sigma_prime"),
     2, "malformed summary: KeyError('sigma_prime')"),
    ("summary too few pairs", "t-svd", _draw("t-svd"),
     lambda d: d["summary"]["diag"].__delitem__(-1), 2, "add up to 3"),
    ("summary a triple", "t-svd", _draw("t-svd"), lambda d: _t_entry(d).append(0.0),
     2, "inhomogeneous shape"),
    ("summary sizes above n", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).update(size=2), 2, "add up to 3"),
    ("summary sizes below n", "star-svd", _draw("star-svd"),
     lambda d: d["summary"]["blocks"].__delitem__(-1), 2, "add up to 3"),
    ("summary NaN", "t-svd", _draw("t-svd"),
     lambda d: _t_entry(d).__setitem__(0, float("nan")), 2, NOT_FINITE),
    ("summary NaN-star", "star-svd", _draw("star-svd"),
     lambda d: _star_block(d).update(sigma_prime=float("nan")), 2, NOT_FINITE),
    ("summary infinite", "t-spectral", _draw("t-spectral"),
     lambda d: _t_entry(d).__setitem__(1, float("inf")), 2, NOT_FINITE),
]


@pytest.mark.parametrize("kind, source, alter, code, text", [row[1:] for row in DOCUMENTS],
                         ids=[row[0] for row in DOCUMENTS])
def test_document(tmp_path, rng, capsys, kind, source, alter, code, text):
    inp = write_input(tmp_path / "m.json", source(rng) if callable(source) else source)
    out = tmp_path / "r.json"
    assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 0
    assert main(["check", "--input", inp, "--result", str(out)]) == 0
    doc = loads(out.read_text())
    altered = alter(doc)
    out.write_text(json.dumps(doc if altered is None else altered))  # writes NaN and Infinity
    capsys.readouterr()
    assert main(["check", "--input", inp, "--result", str(out)]) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err
