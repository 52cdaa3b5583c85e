import json

import pytest

from g2aa.cli import EXIT_DOMAIN, EXIT_OK, _example_a_algebra, main
from g2aa.exterior import KForm
from g2aa.g2 import phi_model, witt_phi


def write_form(tmp_path, form, name="form.json"):
    path = tmp_path / name
    path.write_text(form.to_json())
    return str(path)


def write_algebra(tmp_path, algebra, name="algebra.json"):
    path = tmp_path / name
    path.write_text(algebra.to_json())
    return str(path)


def test_certify_model_by_name(capsys):
    assert main(["certify", "--form", "phi_minus"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "G2" in out and "definite" in out and "stab dim 14" in out


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
