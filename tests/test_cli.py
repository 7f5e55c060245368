"""File format round trips and command-line behavior, including exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualsvd
from dualsvd import FLAVOR_STAR, FLAVOR_T, Dual, DualMatrix, adjoint, errors
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
from dualsvd.svd import DEFAULT_SPLIT_TOL, factors_of, invariants, pinv_t, svd, t_polar
from conftest import (
    random_degenerate_self_adjoint,
    random_dual_matrix,
    random_self_adjoint,
)

DATA = Path(__file__).parent / "data"


def write_matrix(path, m):
    path.write_text(dumps(matrix_to_obj(m)))
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
    @pytest.mark.parametrize(
        "kind",
        ["t-svd", "star-svd", "t-spectral", "star-spectral", "t-polar", "pinv"],
    )
    def test_round_trip_check_passes(self, tmp_path, rng, capsys, kind):
        if kind == "t-spectral":
            std = rng.standard_normal((3, 3))
            inf = rng.standard_normal((3, 3))
            m = DualMatrix(std + std.T, inf + inf.T)
        elif kind == "star-spectral":
            std = rng.standard_normal((3, 3))
            inf = rng.standard_normal((3, 3))
            m = DualMatrix(std + std.T, inf - inf.T)
        else:
            m = random_dual_matrix(rng, 3, "generic")
        inp = write_matrix(tmp_path / "m.json", m)
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
        flavor = KIND_FACTORS[kind][0]
        library = {"t-svd": lambda m: svd(m, "T"), "star-svd": lambda m: svd(m, "star"),
                   "t-spectral": t_spectral, "star-spectral": star_spectral,
                   "t-polar": t_polar, "pinv": pinv_t}[kind]
        for n in (1, 2, 3, 6):
            if kind.endswith("spectral"):
                m = random_degenerate_self_adjoint(rng, n, flavor)
            else:
                m = random_dual_matrix(rng, n, "generic" if kind == "pinv" else "rankdef")
            doc = loads(dumps(build_result(m, kind, DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)))
            got = list(invariants(m, *factors_of(library(m))))
            assert got == list(_verify(m, doc))
            assert {name: res for name, res, _ in got} == doc["residuals"]

    def test_output_to_a_device_is_success(self, tmp_path):
        # --output need not be a regular file.
        inp = write_matrix(tmp_path / "m.json", DualMatrix([[2.0]], [[1.0]]))
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", os.devnull]) == 0

    def test_pinv_nonexistent_is_success(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "m.json", DualMatrix([[0.0]], [[1.0]]))
        assert main(["decompose", "--kind", "pinv", "--input", inp]) == 0
        doc = loads(capsys.readouterr().out)
        assert doc["outcome"] == "nonexistent"

    def test_byte_identical_output(self, tmp_path, rng):
        m = random_dual_matrix(rng, 4, "generic")
        inp = write_matrix(tmp_path / "m.json", m)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(
                ["decompose", "--kind", "t-svd", "--input", inp, "--output", out]
            ) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_non_finite_input_exit_2(self, tmp_path, rng):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"rows": 2, "cols": 2, "entries": [[NaN, 0], [1, 0], [0, 0], [1, Infinity]]}'
        )
        assert main(["decompose", "--kind", "t-svd", "--input", str(bad)]) == 2
        inp = write_matrix(tmp_path / "m.json", random_dual_matrix(rng, 2, "generic"))
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", str(out)]) == 0
        assert main(["check", "--input", str(bad), "--result", str(out)]) == 2
        doc = loads(out.read_text())
        doc["factors"]["u"]["entries"][0][0] = float("nan")
        out.write_text(json.dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 2

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        assert main(["decompose", "--kind", "t-svd", "--input", str(bad)]) == 2
        assert main(["decompose", "--kind", "t-svd", "--input", str(tmp_path / "absent.json")]) == 2
        with pytest.raises(ParseError, match="unknown kind"):
            build_result(DualMatrix(np.eye(2)), "lu", DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)

    def test_pinv_rank_deficient_n32(self, tmp_path, capsys):
        # n=32, rank 31, smallest appreciable singular value 4.9e-3: the SVD
        # used to rebuild U by Gram-Schmidt here and exit 3 (DegenerateInput).
        inp = str(Path(__file__).parent / "data" / "pinv_n32_rank31.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

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

    def test_precondition_exit_3(self, tmp_path):
        nonsq = tmp_path / "r.json"
        nonsq.write_text(dumps(matrix_to_obj(DualMatrix(np.zeros((2, 3))))))
        assert main(["decompose", "--kind", "t-svd", "--input", str(nonsq)]) == 3
        nonherm = tmp_path / "h.json"
        nonherm.write_text(dumps(matrix_to_obj(DualMatrix([[0, 1], [0, 0]]))))
        assert main(
            ["decompose", "--kind", "star-spectral", "--input", str(nonherm)]
        ) == 3


    @pytest.mark.parametrize(
        "command, option",
        [("decompose", "--tol"), ("decompose", "--cluster-tol"), ("check", "--tol")],
        ids=["decompose-tol", "decompose-cluster-tol", "check-tol"],
    )
    def test_tolerance_options_are_usage_errors(self, tmp_path, capsys, command, option):
        # decompose runs only at the library defaults and check judges only
        # at ORTHONORMAL_TOL, the tolerances every document was written for.
        inp = write_matrix(tmp_path / "m.json", DualMatrix(np.diag([2.0, 1.0])))
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

    def test_library_error_exits_4(self, tmp_path, capsys):
        # A nearly singular A: pinv_t's Penrose self-check finds MX about
        # 75 times further from symmetric than its limit.
        rng = np.random.default_rng(1)
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q1 @ np.diag([1.0, 0.5, 1e-4]) @ q2.T
        inp = write_matrix(tmp_path / "m.json", DualMatrix(a, rng.standard_normal((3, 3))))
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_ill_conditioned_data_file_exits_4(self, tmp_path, capsys):
        inp = str(DATA / "pinv_ill_conditioned_3x3.json")
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", str(out)]) == 4
        msg = "Penrose mx_symmetric: 3.427e-08 > limit 1.000e-08"
        assert capsys.readouterr().err == f"error: VerificationError: {msg}\n"
        assert not out.exists()


class TestClassify:
    def test_form1_output(self, tmp_path, capsys):
        inp = write_matrix(tmp_path / "m.json", DualMatrix(np.diag([2.0, 1.0])))
        assert main(["classify", "--input", inp]) == 0
        out = capsys.readouterr().out
        assert "form=1" in out
        assert "sigma=[2, 1]" in out

    def test_form2_output(self, tmp_path, capsys):
        m = DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])
        inp = write_matrix(tmp_path / "m.json", m)
        assert main(["classify", "--input", inp]) == 0
        out = capsys.readouterr().out
        assert "form=2" in out
        assert "sigma=1" in out
        assert "sigma_prime=1" in out

    def test_zero_divisor_determinant_exit_3(self, tmp_path):
        m = DualMatrix([[0, 0], [0, 1]], [[1, 0], [0, 0]])
        inp = write_matrix(tmp_path / "m.json", m)
        assert main(["classify", "--input", inp]) == 3

    def test_not_2x2_exit_3(self, tmp_path, rng, capsys):
        inp = write_matrix(tmp_path / "m.json", random_dual_matrix(rng, 3, "generic"))
        assert main(["classify", "--input", inp]) == 3
        assert "DimensionMismatch" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        # `python -m dualsvd.cli` goes through entry(), which must turn
        # main()'s return value into the process exit status.
        src = str(Path(dualsvd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def run(m):
            inp = write_matrix(tmp_path / "m.json", m)
            cmd = [sys.executable, "-m", "dualsvd.cli", "classify", "--input", inp]
            return subprocess.run(cmd, capture_output=True, text=True, env=env)

        ok = run(DualMatrix(np.diag([2.0, 1.0])))
        assert ok.returncode == 0
        assert ok.stdout.splitlines()[:2] == ["form=1", "sigma=[2, 1]"]
        singular = run(DualMatrix([[0, 0], [0, 1]], [[1, 0], [0, 0]]))
        assert singular.returncode == 3
        assert "NotInvertible" in singular.stderr


class TestCheck:
    def test_tampered_u_fails(self, tmp_path, rng):
        m = random_dual_matrix(rng, 3, "generic")
        inp = write_matrix(tmp_path / "m.json", m)
        out = str(tmp_path / "r.json")
        main(["decompose", "--kind", "t-svd", "--input", inp, "--output", out])
        doc = loads((tmp_path / "r.json").read_text())
        # Negate one U column: structure still holds, reconstruction breaks.
        for k in range(3):
            doc["factors"]["u"]["entries"][k * 3][0] *= -1.0
            doc["factors"]["u"]["entries"][k * 3][1] *= -1.0
        (tmp_path / "r.json").write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", out]) == 4

    def test_tampered_sigma_prime_fails(self, tmp_path, rng):
        std = rng.standard_normal((2, 2))
        inf = rng.standard_normal((2, 2))
        m = DualMatrix(std @ std.T + 3 * np.eye(2), inf - inf.T)
        inp = write_matrix(tmp_path / "m.json", m)
        out = str(tmp_path / "r.json")
        main(["decompose", "--kind", "star-svd", "--input", inp, "--output", out])
        doc = loads((tmp_path / "r.json").read_text())
        doc["factors"]["sigma"]["entries"][1][1] += 0.5
        (tmp_path / "r.json").write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", out]) == 4

    def test_isometry_limit_is_scale_free(self, tmp_path):
        # At |M| = 1e8 a limit of tol*|M| would pass an isometry defect of 2e-4.
        inp = write_matrix(tmp_path / "m.json", DualMatrix(np.diag([1e8, 0.0])))
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", out]) == 0
        doc = loads((tmp_path / "r.json").read_text())
        assert doc["summary"]["diag"][1] == [0.0, 0.0]
        # Column 1 of U meets the zero singular value, so reconstruction holds.
        for k in (1, 3):
            doc["factors"]["u"]["entries"][k][0] *= 1.0 + 1e-4
        (tmp_path / "r.json").write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", out]) == 4

    def test_dimension_mismatch_is_parse_error(self, tmp_path, rng):
        m = random_dual_matrix(rng, 3, "generic")
        inp = write_matrix(tmp_path / "m.json", m)
        out = str(tmp_path / "r.json")
        main(["decompose", "--kind", "t-svd", "--input", inp, "--output", out])
        other = write_matrix(tmp_path / "m2.json", random_dual_matrix(rng, 2, "generic"))
        assert main(["check", "--input", other, "--result", out]) == 2

    def test_non_integer_dimensions_are_parse_errors(self, tmp_path):
        # 2.0 == 2 and true == 1: compared by value, both documents passed.
        for kind, m, dim in [
            ("t-svd", DualMatrix(np.diag([2.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]), 2.0),
            ("pinv", DualMatrix([[2.0]], [[1.0]]), True),
        ]:
            inp = write_matrix(tmp_path / "m.json", m)
            out = tmp_path / "r.json"
            assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 0
            assert main(["check", "--input", inp, "--result", str(out)]) == 0
            out.write_text(dumps(dict(loads(out.read_text()), rows=dim, cols=dim)))
            assert main(["check", "--input", inp, "--result", str(out)]) == 2

    def test_malformed_result_is_parse_error(self, tmp_path, rng):
        inp = write_matrix(tmp_path / "m.json", random_dual_matrix(rng, 3, "generic"))
        out = tmp_path / "r.json"
        main(["decompose", "--kind", "t-svd", "--input", inp, "--output", str(out)])
        doc = loads(out.read_text())
        no_u = dict(doc, factors={k: v for k, v in doc["factors"].items() if k != "u"})
        # Not an object, a missing factor, an unknown kind.
        for bad in ([1, 2], no_u, dict(doc, kind="lu-decomposition")):
            out.write_text(dumps(bad))
            assert main(["check", "--input", inp, "--result", str(out)]) == 2
        absent = str(tmp_path / "absent.json")
        assert main(["check", "--input", inp, "--result", absent]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_fails(self, tmp_path, capsys):
        # u = I + eps*[[0, 1e308], [-1e308, 0]] is exactly T-orthogonal, but
        # U Sigma U^T overflows to inf - inf = NaN in its infinitesimal part.
        m = DualMatrix(10.0 * np.eye(2))
        inp = write_matrix(tmp_path / "m.json", m)
        u = matrix_to_obj(DualMatrix(np.eye(2), [[0.0, 1e308], [-1e308, 0.0]]))
        factors = {"u": u, "sigma": matrix_to_obj(m), "v": u}
        summary = {"diag": [[10.0, 0.0], [10.0, 0.0]]}
        doc = {"kind": "t-svd", "rows": 2, "cols": 2, "outcome": "ok", "factors": factors,
               "summary": summary}
        out = tmp_path / "r.json"
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 4
        assert "reconstruction: residual=nan" in capsys.readouterr().out

    def test_pinv_at_tiny_norm_passes(self, tmp_path, capsys):
        # ||M|| = 2.5e-9 puts ||X|| near 4e9: XMX - X is judged against ||X||
        # and MXM - M against ||M||, not both against max(1, ||M||).
        inp = str(Path(__file__).parent / "data" / "pinv_n3_tiny_norm.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("penrose_mxm:")][0].endswith("limit=2.500e-17")

    @pytest.mark.parametrize("kind", ["t-svd", "star-svd"])
    def test_small_distinct_pair_passes(self, tmp_path, kind):
        # Singular values 1e-3 + 1e-5 and 1e-3 next to s_1 = 1.5 are two
        # clusters: merged, the reconstruction would miss M by about 3e-6.
        inp = str(Path(__file__).parent / "data" / "svd_small_pair.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    def test_limits_scale_with_a_tiny_m(self, tmp_path):
        # At ||M|| = 2e-6 a reconstruction off by 1e-10 is off by 5e-5 of M;
        # a limit of tol*max(1, ||M||) = 1e-8 let it pass.
        inp = write_matrix(tmp_path / "m.json", DualMatrix(np.diag([2e-6, 1e-6])))
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "t-svd", "--input", inp, "--output", str(out)]) == 0
        assert main(["check", "--input", inp, "--result", str(out)]) == 0
        doc = loads(out.read_text())
        doc["factors"]["sigma"]["entries"][0][0] += 1e-10
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 4

    @pytest.mark.parametrize("kind", ["pinv", "t-svd", "star-svd", "t-polar"])
    def test_subnormal_norm_exits_3(self, tmp_path, capsys, kind):
        # Before: pinv exited 2 (it could not serialize an infinite X), and the
        # other kinds exited 0 with results that check failed (exit 4).
        inp = str(Path(__file__).parent / "data" / "subnormal_2x2.json")
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 3
        assert "OutOfRange" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("kind", ["t-svd", "star-svd", "t-spectral"])
    def test_overflowing_middle_factor_exits_3(self, tmp_path, capsys, kind):
        # Every entry is 1.5e308, so the largest singular value and eigenvalue
        # are 3e308.  Before, scaling them back by c overflowed to inf (with a
        # RuntimeWarning) and decompose exited 2, unable to serialize Sigma.
        inp = str(Path(__file__).parent / "data" / "overflow_2x2.json")
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 3
        assert "OutOfRange" in capsys.readouterr().err and not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["t-svd"])
    def test_overflowing_product_exits_3(self, tmp_path, capsys, kind):
        # Sigma fits (8.6e307, 6.3e307), but U Sigma in the reconstruction
        # overflows.  Before, decompose exited 2: it could not serialize the
        # infinite residual.
        inp = str(DATA / "product_overflow_2x2.json")
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "OutOfRange" in err and "not finite" in err and not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["star-svd", "pinv"])
    def test_product_overflow_input_passes_other_kinds(self, tmp_path, kind):
        inp = str(DATA / "product_overflow_2x2.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["overflow_2x2.json", "product_overflow_2x2.json"])
    def test_t_polar_near_the_top_of_the_range_passes(self, tmp_path, name):
        # P is read off B~ at unit scale and range-tested, and neither sigma
        # nor U1 Sigma is formed, so both files get a finite polar factor.
        # Before, decompose exited 3 on both.
        inp = str(DATA / name)
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "t-polar", "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_star_svd_near_the_top_of_the_range_does_not_warn(self, tmp_path):
        # A pure-eps 5x5 with sigma' = 1.46e308.  The old block-form check
        # overflowed in Sigma_eps + Sigma_eps^T on the diagonal, which it then
        # masked out: a right verdict with a RuntimeWarning.
        inp = str(DATA / "eps_overflow_5x5.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "star-svd", "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, kind, error",
        [
            ("symmetric_4x4.json", "t-spectral", None),
            ("symmetric_4x4.json", "star-spectral", "NotHermitian"),
            ("hermitian_4x4.json", "star-spectral", None),
            ("hermitian_4x4.json", "t-spectral", "NotSymmetric"),
        ],
    )
    def test_spectral_data_files(self, tmp_path, capsys, name, kind, error):
        # Each spectral kind decomposes and checks the file that meets its
        # symmetry precondition, and exits 3 on the other one.
        inp = str(DATA / name)
        out = tmp_path / "r.json"
        argv = ["decompose", "--kind", kind, "--input", inp, "--output", str(out)]
        if error is None:
            assert main(argv) == 0
            assert main(["check", "--input", inp, "--result", str(out)]) == 0
        else:
            assert main(argv) == 3
            assert error in capsys.readouterr().err and not out.exists()

    def test_overflowing_hermitian_exits_3(self, tmp_path, capsys):
        big = 1.5e308
        m = DualMatrix(np.full((2, 2), big), [[0.0, big], [-big, 0.0]])
        inp = write_matrix(tmp_path / "m.json", m)
        argv = ["decompose", "--kind", "star-spectral", "--input", inp]
        assert main(argv) == 3
        assert "OutOfRange" in capsys.readouterr().err

    def test_pinv_of_an_overflowing_matrix_passes(self, tmp_path):
        # X is about 1/||M||, far inside the range.
        inp = str(Path(__file__).parent / "data" / "overflow_2x2.json")
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    @pytest.mark.parametrize("kind", ["t-svd", "star-svd", "t-polar", "pinv"])
    def test_largest_singular_value_that_fits_passes(self, tmp_path, kind):
        # s_1 = 1.30e308 is below the float64 maximum of 1.80e308.
        m = DualMatrix([[8e307, -6e307], [-5e307, 7e307]], [[2e307, -1e307], [3e307, 4e307]])
        inp = write_matrix(tmp_path / "m.json", m)
        out = str(tmp_path / "r.json")
        assert main(["decompose", "--kind", kind, "--input", inp, "--output", out]) == 0
        assert main(["check", "--input", inp, "--result", out]) == 0

    def test_negated_polar_factors_fail(self, tmp_path, rng, capsys):
        # (-U, -P) is T-orthogonal, symmetric and reconstructs M, but -P is
        # not positive semidefinite.
        inp, out, doc = decomposed(tmp_path, "t-polar", random_dual_matrix(rng, 3, "generic"))
        assert main(["check", "--input", inp, "--result", str(out)]) == 0
        assert "p_definite: residual=0.000e+00" in capsys.readouterr().out
        for name in ("u", "p"):
            doc["factors"][name]["entries"] = [[-a, -b] for a, b in doc["factors"][name]["entries"]]
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 4
        assert "verification failed: p_definite" in capsys.readouterr().err

    def test_polar_factor_indefinite_on_the_null_space_fails(self, tmp_path, capsys):
        # M = diag(1, 0) + eps*diag(0, 1) has U = I, P = M.  U = diag(1, -1) and
        # P = diag(1, 0) - eps*diag(0, 1) are T-orthogonal, symmetric and give
        # U P = M exactly, with P0 >= 0, but P1 < 0 on the null space of P0.
        m = DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        inp, out, doc = decomposed(tmp_path, "t-polar", m)
        doc["factors"]["u"] = matrix_to_obj(DualMatrix(np.diag([1.0, -1.0])))
        doc["factors"]["p"] = matrix_to_obj(DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, -1.0])))
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 4
        assert "verification failed: p_definite" in capsys.readouterr().err

    @pytest.mark.parametrize("name, size", [("sigma", 2), ("u", 4)])
    def test_factor_of_the_wrong_shape_exits_2(self, tmp_path, rng, capsys, name, size):
        inp, out, doc = decomposed(tmp_path, "t-svd", random_dual_matrix(rng, 3, "generic"))
        doc["factors"][name] = matrix_to_obj(DualMatrix(np.eye(size)))
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 2
        assert f"factor {name!r} is {size}x{size}" in capsys.readouterr().err

    def test_pinv_nonexistent_check(self, tmp_path):
        inp = write_matrix(tmp_path / "m.json", DualMatrix([[0.0]], [[1.0]]))
        out = str(tmp_path / "r.json")
        main(["decompose", "--kind", "pinv", "--input", inp, "--output", out])
        assert main(["check", "--input", inp, "--result", out]) == 0

    def test_pure_eps_data_file_is_nonexistent(self, tmp_path):
        inp = str(DATA / "pinv_nonexistent_2x2.json")
        out = tmp_path / "r.json"
        assert main(["decompose", "--kind", "pinv", "--input", inp, "--output", str(out)]) == 0
        assert loads(out.read_text())["outcome"] == "nonexistent"
        assert main(["check", "--input", inp, "--result", str(out)]) == 0


def decomposed(tmp_path, kind, m):
    """Write m, decompose it, and return the input path, result path and document."""
    inp = write_matrix(tmp_path / "m.json", m)
    out = tmp_path / "r.json"
    assert main(["decompose", "--kind", kind, "--input", inp, "--output", str(out)]) == 0
    return inp, out, loads(out.read_text())


def _t_entry(doc):
    return doc["summary"]["diag"][0]


def _star_block(doc):
    return doc["summary"]["blocks"][0]


# Summaries that describe no middle factor: each makes check exit 2.
MALFORMED = {
    "missing": ("t-svd", lambda d: d.pop("summary")),
    "missing-star": ("star-svd", lambda d: d.pop("summary")),
    "not an object": ("t-svd", lambda d: d.update(summary=[[1.0, 0.0]])),
    "diag not a list": ("t-svd", lambda d: d["summary"].update(diag={"0": [1.0, 0.0]})),
    "blocks not a list": ("star-svd", lambda d: d["summary"].update(blocks=3.0)),
    "other flavor's key": ("star-svd", lambda d: d.update(summary={"diag": [[1.0, 0.0]] * 3})),
    "string number": ("t-svd", lambda d: _t_entry(d).__setitem__(0, "1.5")),
    "string number-star": ("star-svd", lambda d: _star_block(d).update(sigma="1.5")),
    "bool value": ("t-svd", lambda d: _t_entry(d).__setitem__(1, False)),
    "bool size": ("star-svd", lambda d: _star_block(d).update(size=True)),
    "size 3": ("star-svd", lambda d: _star_block(d).update(size=3)),
    "string size": ("star-svd", lambda d: _star_block(d).update(size="1")),
    "missing field": ("star-svd", lambda d: _star_block(d).pop("sigma_prime")),
    "too few pairs": ("t-svd", lambda d: d["summary"]["diag"].pop()),
    "a triple": ("t-svd", lambda d: _t_entry(d).append(0.0)),
    "sizes above n": ("star-svd", lambda d: _star_block(d).update(size=2)),
    "sizes below n": ("star-svd", lambda d: d["summary"]["blocks"].pop()),
    "NaN": ("t-svd", lambda d: _t_entry(d).__setitem__(0, float("nan"))),
    "NaN-star": ("star-svd", lambda d: _star_block(d).update(sigma_prime=float("nan"))),
    "infinite": ("t-spectral", lambda d: _t_entry(d).__setitem__(1, float("inf"))),
}


class TestSummary:
    """check rebuilds Sigma from the document's summary."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_summary_exits_2(self, tmp_path, rng, capsys, case):
        kind, spoil = MALFORMED[case]
        if kind == "t-spectral":
            m = random_self_adjoint(rng, 3, FLAVOR_T)
        else:
            m = random_dual_matrix(rng, 3)
        inp, out, doc = decomposed(tmp_path, kind, m)
        spoil(doc)
        out.write_text(json.dumps(doc))  # json.dumps writes NaN and Infinity
        assert main(["check", "--input", inp, "--result", str(out)]) == 2
        assert "summary" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [0, 1])
    @pytest.mark.parametrize("kind", ["t-svd", "star-svd", "t-spectral", "star-spectral"])
    def test_moved_summary_value_exits_4(self, tmp_path, rng, capsys, kind, field):
        # A degenerate Hermitian M puts a 2x2 block first in star-spectral.
        if kind == "t-spectral":
            m = random_self_adjoint(rng, 4, FLAVOR_T)
        elif kind == "star-spectral":
            m = random_degenerate_self_adjoint(rng, 4, FLAVOR_STAR)
        else:
            m = random_dual_matrix(rng, 4)
        inp, out, doc = decomposed(tmp_path, kind, m)
        assert main(["check", "--input", inp, "--result", str(out)]) == 0
        if kind.startswith("star"):
            _star_block(doc)[("sigma", "sigma_prime")[field]] += 1e-6 * m.norm()
        else:
            _t_entry(doc)[field] += 1e-6 * m.norm()
        out.write_text(dumps(doc))
        capsys.readouterr()
        assert main(["check", "--input", inp, "--result", str(out)]) == 4
        name = "sigma_block_form" if kind.startswith("star") else "sigma_diagonal"
        assert capsys.readouterr().err == f"verification failed: {name}\n"

    def test_overlapping_skew_pairs_exit_4(self, tmp_path):
        # Sigma = 2I + eps*S with S skew on both neighbour pairs (0, 1) and (1, 2)
        # has no block form.  U = V = I, so every other invariant holds.  The
        # old pattern test, a skew eps part on the tridiagonal, passed it.
        s = [[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        sigma = DualMatrix(2.0 * np.eye(3), s)
        inp = write_matrix(tmp_path / "m.json", sigma)
        eye = matrix_to_obj(DualMatrix(np.eye(3)))
        blocks = [{"sigma": 2.0, "sigma_prime": 1.0, "size": 2},
                  {"sigma": 2.0, "sigma_prime": 0.0, "size": 1}]
        doc = {"kind": "star-svd", "rows": 3, "cols": 3, "outcome": "ok",
               "factors": {"u": eye, "sigma": matrix_to_obj(sigma), "v": eye},
               "summary": {"blocks": blocks}}
        out = tmp_path / "r.json"
        out.write_text(dumps(doc))
        assert main(["check", "--input", inp, "--result", str(out)]) == 4

    @pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
    def test_summary_reads_back_as_the_held_middle(self, rng, flavor):
        star = flavor is FLAVOR_STAR
        spectral = star_spectral if star else t_spectral
        sizes = set()

        def reads_back(kind, m, r):
            doc = build_result(m, f"{flavor.lower()}-{kind}", DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)
            got = tuple(_middle_of(loads(dumps(doc)), flavor, m.shape[0]))
            assert all(np.array_equal(g, w) for g, w in zip(got, r.middle))
            sizes.update(got[2].tolist())

        for n in range(9):
            for regime in ("generic", "rankdef", "pure_inf", "zero_lines"):
                a = random_dual_matrix(rng, n, regime)
                h = a + adjoint(a, flavor)
                reads_back("svd", a, svd(a, flavor))
                reads_back("spectral", h, spectral(h))
            # A repeated eigenvalue gives a star spectral result a 2x2 block.
            h = random_degenerate_self_adjoint(rng, n, flavor)
            reads_back("spectral", h, spectral(h))
        assert sizes == ({0, 1, 2} if star else {1})
