import json
from fractions import Fraction

import pytest

from g2aa import cli
from g2aa.classify import NilpotentReport, nilpotent_parallel_report
from g2aa.cli import (EXIT_DOMAIN, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK,
                     _example_a_algebra, main)
from g2aa.exterior import KForm
from g2aa.g2 import phi_model, witt_phi
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
    # 2 phi_minus needs the ninth root of 2^21, which leaves Q(sqrt2)
    path = write_form(tmp_path, phi_model(-1).scale(2))
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_metric"] is False
    assert payload["signature"] == [7, 0, 0]
    assert payload["stabilizer_dim"] == 14
    assert "metric" not in payload and len(payload["metric_float"]) == 7
    assert main(["certify", "--form", path]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["G2, definite, generic, stab dim 14",
                     "metric: float fallback (relation verified to 1e-09)"]


def test_certify_witt_form_file(tmp_path, capsys):
    path = write_form(tmp_path, witt_phi())
    assert main(["certify", "--form", path, "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "G2*"
    assert payload["signature"] == [3, 4, 0]
    assert payload["frame"] == "witt"
    assert payload["stabilizer_dim"] == 14


def test_certify_rejects_decomposable(tmp_path, capsys):
    path = write_form(tmp_path, KForm.basis(7, 1, 2, 3))
    assert main(["certify", "--form", path]) == EXIT_DOMAIN
    assert "NotG2" in capsys.readouterr().out


def test_rejects_inputs_outside_the_domain(tmp_path, capsys):
    from g2aa.liealg import AlmostAbelianAlgebra
    from g2aa.linalg import Matrix

    apath = write_algebra(tmp_path, AlmostAbelianAlgebra(8, Matrix.zero(7)))
    fpath = write_form(tmp_path, witt_phi())
    assert main(["decide", "--input", apath, "--mode", "g2"]) == EXIT_DOMAIN
    assert main(["report", "--input", apath, "--form", fpath]) == EXIT_DOMAIN
    assert "dimension 8" in capsys.readouterr().err
    huge = write_form(tmp_path, phi_model(-1).scale(10**40), "huge.json")
    assert main(["certify", "--form", huge]) == EXIT_DOMAIN
    assert "too large" in capsys.readouterr().out
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
    # a tolerance that is not positive, and a parallel decision in the
    # degenerate mode
    assert main(["certify", "--form", "phi_plus", "--tol", "0"]) == EXIT_DOMAIN
    assert "tolerance must be positive" in capsys.readouterr().err
    # nan and inf would accept any float fallback, such as that of 2 phi_-
    two_phi = write_form(tmp_path, phi_model(-1).scale(2), "two_phi.json")
    for tol in ("nan", "inf"):
        assert main(["certify", "--form", two_phi, "--tol", tol]) == EXIT_DOMAIN
        assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert main(["decide", "--input", zero, "--kind", "parallel",
                 "--mode", "g2star_deg"]) == EXIT_DOMAIN
    assert "non-degenerate modes only" in capsys.readouterr().err
    # a float fallback whose determinant underflows
    tiny = write_form(tmp_path, phi_model(-1).scale(Scalar(Fraction(2, 10**40))), "tiny.json")
    assert main(["certify", "--form", tiny]) == EXIT_DOMAIN
    assert "NotG2: coefficients too small" in capsys.readouterr().out
    assert main(["report", "--input", zero, "--form", tiny]) == EXIT_DOMAIN
    assert "NotG2: coefficients too small" in capsys.readouterr().err
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
    ]
    for argv, reason in cases:
        assert main(argv) == EXIT_DOMAIN, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err, argv
    # a missing file is not a domain question
    assert main(["certify", "--form", str(tmp_path / "missing.json")]) == EXIT_INTERNAL
    assert "no such form file" in capsys.readouterr().err


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


def test_report_rejects_float_metric(tmp_path, capsys):
    apath = write_algebra(tmp_path, _example_a_algebra())
    fpath = write_form(tmp_path, phi_model(-1).scale(2))
    assert main(["report", "--input", apath, "--form", fpath]) == EXIT_DOMAIN


def test_report_abelian_flat(tmp_path, capsys):
    from g2aa.liealg import AlmostAbelianAlgebra
    from g2aa.linalg import Matrix

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
