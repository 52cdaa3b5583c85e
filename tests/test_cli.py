import json
import sys
from fractions import Fraction

import pytest

from g2aa import cli
from g2aa.classify import NilpotentReport, nilpotent_parallel_report
from g2aa.cli import (EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK,
                     _example_a_algebra, main)
from g2aa.exterior import KForm, pullback
from g2aa.g2 import phi_model, witt_phi
from g2aa.liealg import AlmostAbelianAlgebra
from g2aa.linalg import Matrix
from g2aa.scalars import Scalar


def write_form(tmp_path, form, name="form.json"):
    return write_text(tmp_path, name, form.to_json())


def write_algebra(tmp_path, algebra, name="algebra.json"):
    return write_text(tmp_path, name, algebra.to_json())


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_certify_model_by_name(capsys):
    assert main(["certify", "--form", "phi_minus"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "G2" in out and "definite" in out and "stab dim 14" in out


def test_certify_split_model_prints_its_signature(capsys):
    assert main(["certify", "--form", "phi_plus"]) == EXIT_OK
    assert capsys.readouterr().out == "G2*, (3,4), adapted, stab dim 14\n"


def test_certify_float_fallback(tmp_path, capsys):
    # 2 phi_minus needs the ninth root of 2^21, which leaves Q(sqrt2):
    # certify prints g~ = sign(det B) B = 8 I and det B exactly
    path = write_form(tmp_path, phi_model(-1).scale(2))
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_metric"] is False
    assert payload["signature"] == [7, 0, 0]
    assert payload["stabilizer_dim"] == 14
    assert "metric" not in payload and "vol_coefficient" not in payload
    assert payload["scaled_metric"] == [["8" if i == j else "0" for j in range(7)]
                                        for i in range(7)]
    assert payload["det_b"] == str(2**21)
    assert main(["certify", "--form", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["G2, definite, generic, stab dim 14",
                     "metric: g = g~/|c|, c^9 = det B = 2097152, c not in Q(sqrt2)"]
    # 2 phi_plus: the same det B, and g~ of signature (3,4)
    path = write_form(tmp_path, phi_model(1).scale(2), "plus.json")
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["signature"] == [3, 4, 0] and payload["det_b"] == str(2**21)
    assert Matrix(payload["scaled_metric"]).signature() == (3, 4, 0)


def test_certify_float_fallback_does_not_cancel(tmp_path, capsys):
    # 2 A*phi_minus with A = diag(u^k, 1, ..., 1), u = sqrt2 - 1: det B =
    # 2^21 u^(9k) has parts of opposite signs that grow with k, and
    # g~ = 8 det(A) A^T A is printed exactly for every k
    u = Scalar(-1, 1)
    for k in range(9):
        a = Matrix.diagonal([u**k] + [1] * 6)
        path = write_form(tmp_path, pullback(a, phi_model(-1)).scale(2), f"form{k}.json")
        assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK, k
        payload = json.loads(capsys.readouterr().out)
        assert payload["signature"] == [7, 0, 0] and payload["exact_metric"] is False
        assert payload["det_b"] == str(2**21 * u ** (9 * k)), k
        want = Matrix.diagonal([8 * u ** (3 * k)] + [8 * u**k] * 6)
        assert Matrix(payload["scaled_metric"]) == want, k


def test_certify_witt_form_file(tmp_path, capsys):
    path = write_form(tmp_path, witt_phi())
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "G2*"
    assert payload["signature"] == [3, 4, 0]
    assert payload["frame"] == "witt"
    assert payload["stabilizer_dim"] == 14
    # the Witt form by name reads as the same form
    assert main(["certify", "--form", "witt_phi", "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == payload


def test_certify_rejects_decomposable(tmp_path, capsys):
    path = write_form(tmp_path, KForm.basis(7, 1, 2, 3))
    assert main(["certify", "--form", path]) == EXIT_DOMAIN
    assert "NotG2" in capsys.readouterr().out
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out) == {
        "certified": False, "reason": "induced bilinear form is degenerate"}
    # report certifies the form first and refuses it on stderr
    apath = write_algebra(tmp_path, _example_a_algebra())
    assert main(["report", "--input", apath, "--form", path]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "NotG2: induced bilinear form is degenerate\n"


def test_rejects_inputs_outside_the_domain(tmp_path, capsys):
    apath = write_algebra(tmp_path, AlmostAbelianAlgebra(8, Matrix.zero(7)))
    fpath = write_form(tmp_path, witt_phi())
    assert main(["decide", "--input", apath, "--mode", "g2"]) == EXIT_DOMAIN
    assert main(["report", "--input", apath, "--form", fpath]) == EXIT_DOMAIN
    assert "dimension 8" in capsys.readouterr().err
    # no ninth root in Q(sqrt2), and numbers past the range of a float:
    # certify prints det B exactly, report refuses
    huge = write_form(tmp_path, phi_model(-1).scale(10**40), "huge.json")
    assert main(["certify", "--form", huge, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["det_b"] == str(10**840)
    # det B = (7/4)^21 (1 + sqrt2)^792
    big = Matrix.diagonal([Scalar(1, 1) ** 88] + [1] * 6)
    big = write_form(tmp_path, pullback(big, phi_model(-1)).scale(Fraction(7, 4)), "big.json")
    assert main(["certify", "--form", big, "--format", "json"]) == EXIT_OK
    det_b = Scalar(Fraction(7, 4)) ** 21 * Scalar(1, 1) ** 792
    assert json.loads(capsys.readouterr().out)["det_b"] == str(det_b)
    flat = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.zero(6)), "flat.json")
    for form in (huge, big):
        assert main(["report", "--input", flat, "--form", form]) == EXIT_DOMAIN
    assert capsys.readouterr().err.count("error: the ninth root of det B leaves Q(sqrt2)") == 2
    # an exact metric with entries past the integer-to-text limit, printed
    # by certify and, through the curvature, by report
    vast = pullback(Matrix.diagonal([10**3000] + [1] * 6), phi_model(-1))
    vast = write_form(tmp_path, vast, "vast.json")
    chain = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, {(0, 1): 1})),
                          "chain.json")
    assert main(["certify", "--form", vast, "--format", "json"]) == EXIT_DOMAIN
    for fmt in ("json", "text"):
        assert main(["report", "--input", chain, "--form", vast, "--format", fmt]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: scalar too large to print") == 3
    # n = 7 with a 5x5 ad-matrix, and an entry that is not a scalar
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"n": 7, "ad": [["0"] * 5 for _ in range(5)]}))
    assert main(["decide", "--input", str(small), "--mode", "g2"]) == EXIT_DOMAIN
    assert "6x6" in capsys.readouterr().err
    bad = [["0"] * 6 for _ in range(6)]
    bad[2][3] = "1/0"
    bad_path = tmp_path / "bad_scalar.json"
    bad_path.write_text(json.dumps({"n": 7, "ad": bad}))
    assert main(["decide", "--input", str(bad_path), "--mode", "g2"]) == EXIT_DOMAIN
    assert main(["report", "--input", str(bad_path), "--form", fpath]) == EXIT_DOMAIN
    zero = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.zero(6)), "zero.json")
    assert main(["decide", "--input", zero, "--mode", "g2", "--eigen", "1,x"]) == EXIT_DOMAIN
    assert "malformed scalar '1/0'" in capsys.readouterr().err
    # an empty --eigen= is eigen data with a malformed value, not absent
    # data: on undecidable and on nilpotent input, and in a parallel decision
    diag = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.diagonal([1, -1, 0, 0, 0, 0])),
                         "diag.json")
    for path in (diag, zero):
        assert main(["decide", "--input", path, "--mode", "g2", "--eigen="]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: malformed scalar ''") == 2
    assert main(["decide", "--input", zero, "--kind", "parallel", "--mode", "g2",
                 "--eigen="]) == EXIT_DOMAIN
    assert "eigen data applies to calibrated decisions only" in capsys.readouterr().err
    # certify has no tolerance option; argparse refuses it with exit 2
    with pytest.raises(SystemExit) as refused:
        main(["certify", "--form", "phi_plus", "--tol", "1e-9"])
    assert refused.value.code == EXIT_DOMAIN
    assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err
    # a parallel decision in the degenerate mode
    assert main(["decide", "--input", zero, "--kind", "parallel",
                 "--mode", "g2star_deg"]) == EXIT_DOMAIN
    assert "non-degenerate modes only" in capsys.readouterr().err
    # det B = 2^21 10^-840, no ninth root in Q(sqrt2)
    tiny = write_form(tmp_path, phi_model(-1).scale(Scalar(Fraction(2, 10**40))), "tiny.json")
    assert main(["certify", "--form", tiny]) == EXIT_OK
    det_b = Fraction(2**21, 10**840)
    assert f"c^9 = det B = {det_b}, c not in Q(sqrt2)" in capsys.readouterr().out
    assert main(["report", "--input", zero, "--form", tiny]) == EXIT_DOMAIN
    assert "error: the ninth root of det B leaves Q(sqrt2)" in capsys.readouterr().err
    # a sweep of no points
    assert main(["reproduce", "sweep", "--sweep-limit", "0"]) == EXIT_DOMAIN
    assert main(["reproduce", "sweep", "--sweep-bound", "-1"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error: a sweep needs") == 2
    # malformed files and eigen data: exit 2 with a reason, no traceback
    diag = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.diagonal(range(1, 7))),
                         "diag.json")
    form = {"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1/0"}]}
    coef = write_text(tmp_path, "coef.json", json.dumps(form))
    form["terms"] = [{"idx": [1, 2, 9], "coef": "1"}]
    index = write_text(tmp_path, "index.json", json.dumps(form))
    form["terms"] = [{"idx": [1, 2, 7], "coef": "1"}, {"idx": [1, 2, 7], "coef": "5"}]
    repeated = write_text(tmp_path, "repeated.json", json.dumps(form))
    not_json = write_text(tmp_path, "not_json.json", '{"n": 7, "ad": [')
    no_ad = write_text(tmp_path, "no_ad.json", json.dumps({"n": 7}))
    cases = [
        (["decide", "--input", diag, "--mode", "g2", "--eigen", "1,2"],
         "six real eigenvalues"),
        (["decide", "--input", not_json, "--mode", "g2"], "not valid JSON"),
        (["report", "--input", no_ad, "--form", "witt_phi"], "has no key 'ad'"),
        (["certify", "--form", coef], "malformed scalar '1/0'"),
        (["report", "--input", diag, "--form", coef], "malformed scalar '1/0'"),
        (["certify", "--form", index], "out of range 1..7"),
        (["certify", "--form", repeated], "form index [1, 2, 7] is repeated"),
        (["report", "--input", diag, "--form", repeated], "form index [1, 2, 7] is repeated"),
        (["decide", "--input", diag, "--mode", "g2", "--eigen", "2*sqrt2+1,0,0,0,0,0"],
         "malformed scalar '2*sqrt2+1'"),
        # an exponent is outside the scalar grammar, in a file or on the command line
        (["decide", "--input", diag, "--mode", "g2", "--eigen", "1e9,0,0,0,0,0"],
         "malformed scalar '1e9'"),
        (["decide", "--input", diag, "--mode", "g2", "--kind", "parallel",
          "--eigen", "1,2,3,4,5,6"], "eigen data applies to calibrated decisions only"),
    ]
    # JSON values of the wrong type are refused, not truncated or read as 0/1
    ad = [["0"] * 6 for _ in range(6)]
    for name, doc, reason in (
            ("n_float", {"n": 7.6, "ad": ad}, "n must be an integer, not 7.6"),
            ("n_bool", {"n": True, "ad": ad}, "n must be an integer, not True"),
            ("ad_bool", {"n": 7, "ad": [[True] + row[1:] for row in ad]},
             "ad entry must be a string or an integer, not True"),
            ("ad_float", {"n": 7, "ad": [[0.5] + row[1:] for row in ad]},
             "ad entry must be a string or an integer, not 0.5"),
            ("ad_exponent", {"n": 7, "ad": [["1e9"] + row[1:] for row in ad]},
             "malformed scalar '1e9'")):
        cases.append((["decide", "--input", write_text(tmp_path, f"{name}.json", json.dumps(doc)),
                        "--mode", "g2"], reason))
    for name, change, reason in (
            ("dim_float", {"dim": 7.9}, "dim must be an integer, not 7.9"),
            ("degree_bool", {"degree": True}, "degree must be an integer, not True"),
            ("idx_bool", {"terms": [{"idx": [True, 2, 3], "coef": "1"}]},
             "form index must be an integer, not True"),
            ("idx_float", {"terms": [{"idx": [1.0, 2, 3], "coef": "1"}]},
             "form index must be an integer, not 1.0"),
            # a JSON float keeps only about 17 digits of what the file says
            ("coef_float", {"terms": [{"idx": [1, 2, 3], "coef": 1234567890123456789.5}]},
             "coefficient must be a string or an integer, not 1.2345678901234568e+18")):
        doc = {"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1"}], **change}
        cases.append((["certify", "--form", write_text(tmp_path, f"{name}.json", json.dumps(doc))],
                      reason))
    # JSON containers of the wrong shape are refused with the field's name
    for name, doc, reason in (
            ("alg_list", [1, 2], "algebra must be an object, not [1, 2]"),
            ("alg_str", "x", "algebra must be an object, not 'x'"),
            ("ad_flat", {"n": 7, "ad": [1, 2, 3, 4, 5, 6]}, "ad row must be a list, not 1"),
            ("ad_str", {"n": 7, "ad": "xxxxxx"}, "ad must be a list, not 'xxxxxx'"),
            ("ad_dict", {"n": 7, "ad": {"a": 1}}, "ad must be a list, not {'a': 1}")):
        cases.append((["decide", "--input", write_text(tmp_path, f"{name}.json", json.dumps(doc)),
                       "--mode", "g2"], reason))
    for name, terms, reason in (
            ("terms_str", "abc", "terms must be a list, not 'abc'"),
            ("terms_int", [1], "term must be an object, not 1"),
            ("idx_int", [{"idx": 7, "coef": "1"}], "idx must be a list, not 7")):
        doc = {"dim": 7, "degree": 3, "terms": terms}
        cases.append((["certify", "--form", write_text(tmp_path, f"{name}.json", json.dumps(doc))],
                      reason))
    # nesting past the recursion limit of every supported interpreter (3.12 and
    # 3.13 parse 1 200 levels), in every command that reads a file
    deep = write_text(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    cases += [(["decide", "--input", deep, "--mode", "g2"], "deep.json nests JSON too deeply"),
              (["report", "--input", deep, "--form", "witt_phi"], "deep.json nests JSON too deeply"),
              (["certify", "--form", deep], "deep.json nests JSON too deeply")]
    for argv, reason in cases:
        assert main(argv) == EXIT_DOMAIN, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err, argv
        assert captured.err.count("\n") == 1, argv
    # a missing file is not a domain question
    assert main(["certify", "--form", str(tmp_path / "missing.json")]) == EXIT_INTERNAL
    assert "no such form file" in capsys.readouterr().err


def test_refusals_show_a_bounded_value(tmp_path, capsys):
    # 900 levels parse under Python 3.11 (and are too deep under some other
    # versions): either way the one error line stays short
    deep = write_text(tmp_path, "deep.json", "[" * 900 + "]" * 900)
    for argv in (["certify", "--form", deep], ["report", "--input", deep, "--form", "witt_phi"],
                 ["decide", "--input", deep, "--mode", "g2"]):
        assert main(argv) == EXIT_DOMAIN, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1 and len(captured.err) <= 201, argv
    # a numeral past the integer conversion limit is too large, not malformed
    form = {"dim": 7, "degree": 3, "terms": [{"idx": [1, 2, 3], "coef": "1" * 5000}]}
    assert main(["certify", "--form", write_text(tmp_path, "big.json", json.dumps(form))]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scalar too large: '111")
    assert f"more than {sys.get_int_max_str_digits()} digits" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) <= 201


def test_report_example_a(tmp_path, capsys):
    apath = write_algebra(tmp_path, _example_a_algebra())
    fpath = write_form(tmp_path, witt_phi())
    assert main(["report", "--input", apath, "--form", fpath, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["hol_dim"] == 3
    assert payload["ricci_flat"] is True
    assert payload["calibrated"] is True
    assert payload["parallel"] is False
    assert payload["hol_annihilates_phi"] is False
    # JSON round-trips
    assert json.loads(json.dumps(payload)) == payload
    # the text format prints the flags and the nonzero curvature pairs
    assert main(["report", "--input", apath, "--form", "witt_phi", "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "eps: 1", "calibrated: True", "coclosed: False", "parallel: False", "flat: False",
        "ricci_flat: True", "locally_symmetric: False", "hol_dim: 3",
        "hol_annihilates_phi: False", "nonzero R(f_i,f_j) pairs: ['2,7', '5,7', '6,7']"]


def test_decide_builds_no_geometry(tmp_path, monkeypatch, capsys):
    # decisions rest on Segre partitions, stabilizer certificates and
    # eigenvalue data: no connection is built and no form is certified
    from g2aa import g2, geometry

    def refuse(*args, **kwargs):
        raise AssertionError("decide reached geometry or certification")

    monkeypatch.setattr(geometry, "levi_civita", refuse)
    monkeypatch.setattr(g2, "_certify_cached", refuse)
    nilpotent = [[0] * 6 for _ in range(6)]
    nilpotent[0][1] = nilpotent[1][2] = 1
    jordan = [[int(i == j) for j in range(6)] for i in range(6)]
    jordan[0][1] = 1
    spectrum = (1, 1, 2, 2, -3, -3)
    diagonal = [[spectrum[i] * int(i == j) for j in range(6)] for i in range(6)]
    paths = {name: write_text(tmp_path, f"{name}.json", json.dumps({"n": 7, "ad": ad}))
             for name, ad in (("zero", [[0] * 6] * 6), ("nilpotent", nilpotent),
                              ("jordan", jordan), ("diagonal", diagonal))}
    runs = [
        (["zero", "--mode", "g2"], "yes"),
        (["nilpotent", "--mode", "g2"], "no"),
        (["zero", "--kind", "parallel", "--mode", "g2star_33"], "yes"),
        (["nilpotent", "--kind", "parallel", "--mode", "g2star_33"], "no"),
        (["diagonal", "--mode", "g2", "--eigen", ",".join(map(str, spectrum))], "yes"),
        (["jordan", "--mode", "g2"], "undecidable"),
    ]
    for (name, *argv), want in runs:
        code = main(["decide", "--input", paths[name], *argv])
        assert (code, capsys.readouterr().out) == (
            EXIT_DOMAIN if want == "undecidable" else EXIT_OK, want + "\n"), name


def test_report_exact_on_a_large_unit_determinant(tmp_path, capsys):
    # the ninth root (1 + sqrt2)^60 is exact, so the report is exact too
    a = Matrix.diagonal([Scalar(1, 1) ** 60] + [1] * 6)
    fpath = write_form(tmp_path, pullback(a, phi_model(-1)))
    apath = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.zero(6)))
    assert main(["report", "--input", apath, "--form", fpath, "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["flat"] is True


def test_report_rejects_float_metric(tmp_path, capsys):
    apath = write_algebra(tmp_path, _example_a_algebra())
    fpath = write_form(tmp_path, phi_model(-1).scale(2))
    assert main(["report", "--input", apath, "--form", fpath]) == EXIT_DOMAIN
    assert "error: the ninth root of det B leaves Q(sqrt2)" in capsys.readouterr().err


def test_report_refuses_an_unprintable_metric_before_the_analysis(tmp_path, monkeypatch,
                                                                   capsys):
    # A = diag(10^3000, 1, ..., 1): A^* phi_minus has an exact metric with
    # the entry 10^6000, too large to print
    def refuse(*args, **kwargs):
        raise AssertionError("report analyzed a metric it cannot print")

    monkeypatch.setattr(cli, "analyze", refuse)
    fpath = write_form(tmp_path, pullback(Matrix.diagonal([10**3000] + [1] * 6), phi_model(-1)))
    apath = write_algebra(tmp_path, _example_a_algebra())
    assert main(["report", "--input", apath, "--form", fpath]) == EXIT_DOMAIN
    assert "scalar too large to print" in capsys.readouterr().err


def test_report_abelian_flat(tmp_path, capsys):
    apath = write_algebra(tmp_path, AlmostAbelianAlgebra(7, Matrix.zero(6)))
    fpath = write_form(tmp_path, witt_phi())
    assert main(["report", "--input", apath, "--form", fpath, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["flat"] is True and payload["parallel"] is True


@pytest.mark.parametrize("which", ["stabilizers", "witt", "example_a", "example_b", "table1"])
def test_reproduce_sections(which, capsys):
    assert main(["reproduce", which]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_reproduce_json_records(capsys):
    assert main(["reproduce", "witt", "--format", "json"]) == EXIT_OK
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 5
    for rec in records:
        assert set(rec) == {"name", "ok", "seconds"}
        assert rec["ok"] is True and rec["seconds"] >= 0
    assert records[0]["name"] == "witt image of phi"


def test_reproduce_sweep_small(capsys):
    assert main(["reproduce", "sweep", "--sweep-limit", "25"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS sweep" in out


def test_reproduce_sweep_samples_every_delta_and_names_a_mismatch(monkeypatch, capsys):
    # a pipeline that is wrong at delta = +1 only: the sample must reach
    # those points, fail, and name the first failing parameter set
    def pipeline(p):
        closed = nilpotent_parallel_report(p)
        if p.delta != 1:
            return closed
        return NilpotentReport(closed.algebra_name, closed.hol_dim + 1,
                               closed.locally_symmetric, closed.flat)

    monkeypatch.setattr(cli, "pipeline_report", pipeline)
    assert main(["reproduce", "sweep", "--sweep-limit", "25"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "FAIL sweep" in captured.out
    assert 'first mismatch at {"delta": 1,' in captured.err
