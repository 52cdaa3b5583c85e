"""Every reachable refusal of the package, one row each: the call and the
exception type it raises, with a message of at most 200 characters.  Also
the two postconditions of the instance generators, the immutability guards,
equality against other types, the operators that other tests do not call,
and the mismatch report of ``table1``."""

from fractions import Fraction

import pytest

from g2aa import classify
from g2aa.classify import (NilpotentParallelParams, _verified_instance, is_parallel_witt,
                           nilpotent_witnesses, shape_24, sweep_parameter_grid, table1_diff)
from g2aa.cli import EXIT_MISMATCH, _example_a_algebra, main
from g2aa.exterior import (DegenerateMetricError, DimensionMismatchError, KForm, hodge_star,
                           interior, wedge)
from g2aa.g2 import (bilinear_volume_form, certify_g2, hyperplane_model_type, phi_model,
                     stabilizer_algebra, structure_map, witt_phi)
from g2aa.geometry import analyze, curvature, levi_civita, nabla_r_full
from g2aa.liealg import (AlmostAbelianAlgebra, SegrePartition, catalog_entry_for_partition,
                         differential, identify_nilpotent, segre_partition)
from g2aa.linalg import Matrix
from g2aa.scalars import (HALF, HALF_SQRT2, ONE, SQRT2, DomainError, Scalar, as_scalar, json_list,
                          json_object)

M23 = Matrix([[1, 2, 3], [4, 5, 6]])
M22 = Matrix([[1, 2], [3, 4]])
E12 = KForm.basis(3, 1, 2)
ALG3 = AlmostAbelianAlgebra(3, Matrix([[0, 1], [0, 0]]))
I7 = Matrix.identity(7)
VOL7 = KForm.basis(7, 1, 2, 3, 4, 5, 6, 7)
ALG7 = AlmostAbelianAlgebra(7, Matrix.zero(6))
CURVED7 = AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, {(0, 1): 1}))
FLAT7_CONN = levi_civita(ALG7, I7)
FLAT7_R = curvature(FLAT7_CONN)


HUGE = 10**5000  # past the int-to-str conversion limit, so repr() refuses it

REFUSALS = [
    # scalars: operands that are not scalars, values too long to show
    ("Scalar + str", lambda: Scalar(1) + "1", TypeError),
    ("str - Scalar", lambda: "1" - Scalar(1), TypeError),
    ("Scalar * None", lambda: Scalar(1) * None, TypeError),
    ("Scalar / str", lambda: Scalar(1) / "2", TypeError),
    ("str / Scalar", lambda: "2" / Scalar(1), TypeError),
    ("json_object of a huge int", lambda: json_object([HUGE], "form"), DomainError),
    ("json_list of a huge int", lambda: json_list(HUGE, "ad"), DomainError),
    ("as_scalar of a huge int", lambda: as_scalar([HUGE]), TypeError),
    ("Scalar of a huge int", lambda: Scalar([HUGE]), TypeError),
    # linalg
    ("Matrix of no rows", lambda: Matrix([]), ValueError),
    ("Matrix of an empty row", lambda: Matrix([[]]), ValueError),
    ("Matrix of ragged rows", lambda: Matrix([[1, 2], [3]]), ValueError),
    ("Matrix.zero of a negative size", lambda: Matrix.zero(-1), ValueError),
    ("Matrix.zero of no columns", lambda: Matrix.zero(2, 0), ValueError),
    ("Matrix.identity of a negative size", lambda: Matrix.identity(-2), ValueError),
    ("Matrix.identity of size 0", lambda: Matrix.identity(0), ValueError),
    ("Matrix.sparse of a negative size", lambda: Matrix.sparse(-1, 2, {}), ValueError),
    ("Matrix.diagonal of no values", lambda: Matrix.diagonal([]), ValueError),
    ("@ shape mismatch", lambda: M23 @ M23, ValueError),
    ("Matrix @ int", lambda: M22 @ 3, TypeError),
    ("Matrix + int", lambda: M22 + 1, TypeError),
    ("Matrix - Scalar", lambda: M22 - ONE, TypeError),
    ("commutator with an int", lambda: M22.commutator(3), TypeError),
    ("+ shape mismatch", lambda: M23 + M23.transpose(), ValueError),
    ("apply length", lambda: M23.apply([1, 2]), ValueError),
    ("trace of a non-square matrix", lambda: M23.trace(), ValueError),
    ("det of a non-square matrix", lambda: M23.det(), ValueError),
    ("inverse of a non-square matrix", lambda: M23.inverse(), ValueError),
    ("signature of a non-symmetric matrix", lambda: Matrix([[1, 1], [0, 1]]).signature(),
     ValueError),
    ("Matrix entry at a row slice", lambda: M22[0:2, 0], TypeError),
    ("Matrix entry at a column slice", lambda: M22[0, 0:1], TypeError),
    ("Matrix row of a slice", lambda: M22.row(slice(0, 1)), TypeError),
    ("Matrix column of a slice", lambda: M22.column(slice(0, 1)), TypeError),
    ("Matrix row_items past the last row", lambda: list(M22.row_items(5)), IndexError),
    # a negative index counts from the end, as in row(), so -3 is the one refused
    ("Matrix row_items before the first row", lambda: list(M22.row_items(-3)), IndexError),
    # exterior
    ("KForm of negative degree", lambda: KForm(3, -1), ValueError),
    ("KForm of degree above dim", lambda: KForm(3, 4, {(1, 2, 3, 4): 1}), ValueError),
    ("KForm index length", lambda: KForm(3, 2, {(1,): 1}), ValueError),
    ("KForm index order", lambda: KForm(3, 2, {(2, 1): 1}), ValueError),
    ("KForm index range", lambda: KForm(3, 1, {(4,): 1}), ValueError),
    ("KForm index of a float", lambda: KForm(3, 1, {(1.0,): 1}), TypeError),
    ("KForm index of a bool", lambda: KForm(3, 1, {(True,): 1}), TypeError),
    ("coefficient of too few indices", lambda: E12.coefficient(1), ValueError),
    ("coefficient of no index", lambda: E12.coefficient(), ValueError),
    ("coefficient of too many indices", lambda: E12.coefficient(1, 2, 3), ValueError),
    ("coefficient at index 0", lambda: E12.coefficient(0, 1), ValueError),
    ("coefficient at an index past dim", lambda: E12.coefficient(1, 5), ValueError),
    ("coefficient at a float index", lambda: E12.coefficient(1.0, 2), TypeError),
    ("KForm + across degrees", lambda: KForm.basis(3, 1) + KForm.basis(3, 1, 2),
     DimensionMismatchError),
    ("KForm + int", lambda: E12 + 1, TypeError),
    ("KForm - int", lambda: KForm.basis(3, 1) - 1, TypeError),
    ("wedge with an int", lambda: wedge(KForm.basis(3, 1), 1), TypeError),
    ("hodge_star orientation of a Scalar", lambda: hodge_star(phi_model(1), I7, ONE),
     TypeError),
    ("interior vector length", lambda: interior([1, 0], KForm.basis(3, 1)),
     DimensionMismatchError),
    ("hodge_star metric size", lambda: hodge_star(phi_model(1), Matrix.identity(6), VOL7),
     DimensionMismatchError),
    ("hodge_star degenerate metric", lambda: hodge_star(phi_model(1), Matrix.zero(7), VOL7),
     DegenerateMetricError),
    ("hodge_star orientation of the wrong degree",
     lambda: hodge_star(phi_model(1), I7, KForm.basis(7, 1)), ValueError),
    ("hodge_star zero orientation", lambda: hodge_star(phi_model(1), I7, KForm.zero(7, 7)),
     ValueError),
    ("hodge_star orientation on another dimension", lambda: hodge_star(
        KForm.basis(3, 1), Matrix.identity(3), KForm(4, 3, {(1, 2, 3): 1})),
     DimensionMismatchError),
    # geometry
    ("levi_civita metric size", lambda: levi_civita(ALG7, Matrix.identity(6)),
     DimensionMismatchError),
    ("levi_civita degenerate metric", lambda: levi_civita(ALG7, Matrix.zero(7)),
     DegenerateMetricError),
    ("levi_civita non-symmetric metric",
     lambda: levi_civita(ALG7, I7 + Matrix.sparse(7, 7, {(0, 1): 1})), ValueError),
    ("analyze of a form on R^5, flat algebra",
     lambda: analyze(ALG7, KForm.basis(5, 1, 2, 3), I7), DimensionMismatchError),
    ("analyze of a form on R^5, curved algebra",
     lambda: analyze(CURVED7, KForm.basis(5, 1, 2, 3), I7), DimensionMismatchError),
    ("r_of past the last index", lambda: FLAT7_R.r_of(7, 9), IndexError),
    ("r_of at a negative index", lambda: FLAT7_R.r_of(-1, 3), IndexError),
    ("nabla_r_full at a negative index",
     lambda: nabla_r_full(FLAT7_CONN, FLAT7_R, -1, 0, 2), IndexError),
    ("nabla_r_full past the last index",
     lambda: nabla_r_full(FLAT7_CONN, FLAT7_R, 0, 0, 7), IndexError),
    # liealg
    ("differential dimension", lambda: differential(ALG7, KForm.basis(6, 1)), ValueError),
    ("bracket at index 0", lambda: ALG3.bracket(0, 3), IndexError),
    ("bracket at a negative index", lambda: ALG3.bracket(-1, 3), IndexError),
    ("SegrePartition with a zero part", lambda: SegrePartition((2, 0)), ValueError),
    ("SegrePartition increasing", lambda: SegrePartition((1, 2)), ValueError),
    ("segre_partition of a non-square matrix", lambda: segre_partition(M23), ValueError),
    ("catalog entry of a partition of 7", lambda: catalog_entry_for_partition(
        SegrePartition((7,))), KeyError),
    ("identify_nilpotent with n = 4", lambda: identify_nilpotent(
        AlmostAbelianAlgebra(4, Matrix.zero(3))), ValueError),
    # g2
    ("eps = 0", lambda: phi_model(0), ValueError),
    ("stabilizer_algebra dimensions", lambda: stabilizer_algebra(
        KForm.basis(7, 1, 2, 3), KForm.basis(6, 1, 2, 3)), ValueError),
    ("bilinear_volume_form of degree 0", lambda: bilinear_volume_form(KForm.constant(7, 1)),
     ValueError),
    ("structure_map of a form on R^7", lambda: structure_map(phi_model(1)), ValueError),
    ("structure_map of a two-form", lambda: structure_map(KForm.basis(6, 1, 2)), ValueError),
    ("hyperplane of a covector on R^6", lambda: hyperplane_model_type(
        certify_g2(phi_model(1)), KForm.basis(6, 1)), ValueError),
    ("hyperplane of a two-form", lambda: hyperplane_model_type(
        certify_g2(phi_model(1)), KForm.basis(7, 1, 2)), ValueError),
    ("hyperplane of the zero covector", lambda: hyperplane_model_type(
        certify_g2(phi_model(1)), KForm.zero(7, 1)), ValueError),
    # classify
    ("delta = 2", lambda: NilpotentParallelParams.of(2, [[0, 0], [0, 0]], (0, 0), (0, 0)),
     ValueError),
    ("shape_24 case 5", lambda: shape_24(5, ()), ValueError),
    ("witnesses of a partition of 5", lambda: nilpotent_witnesses(SegrePartition((3, 2))),
     ValueError),
    ("grid of bound -1", lambda: sweep_parameter_grid(-1), DomainError),
    ("is_parallel_witt on a 5x5 matrix", lambda: is_parallel_witt(Matrix.zero(5)), ValueError),
]


@pytest.mark.parametrize("call, error", [(c, e) for _, c, e in REFUSALS],
                         ids=[name for name, _, _ in REFUSALS])
def test_refusal_raises_its_type(call, error):
    with pytest.raises(error) as exc:
        call()
    assert len(str(exc.value)) <= 200


def test_instance_postconditions_name_what_is_not_closed():
    # example A is calibrated but not coclosed, so only the second one fails
    with pytest.raises(AssertionError, match="instance probe: three-form is not closed"):
        _verified_instance(Matrix.diagonal([1, 0, 0, 0, 0, 0]), witt_phi(), "g2star_deg", "probe")
    with pytest.raises(AssertionError, match="instance probe: Hodge dual is not closed"):
        _verified_instance(_example_a_algebra().ad_matrix, witt_phi(), "g2star_deg", "probe")


@pytest.mark.parametrize("value", [Scalar(1), Matrix.identity(2), KForm.basis(3, 1)],
                         ids=["Scalar", "Matrix", "KForm"])
def test_value_types_are_immutable(value):
    with pytest.raises(AttributeError, match="immutable"):
        value.rows = 3


@pytest.mark.parametrize("value, other", [(Scalar(1), "1"), (Matrix.identity(2), 1),
                                          (KForm.basis(3, 1), 1)],
                         ids=["Scalar", "Matrix", "KForm"])
def test_value_types_differ_from_other_types(value, other):
    assert value != other and not value == other


def test_operators_that_scale_negate_and_invert():
    m = Matrix([[1, Fraction(1, 2)], [0, -3]])
    assert 2 * m == m.scale(2) == Matrix([[2, 1], [0, -6]])
    form = KForm.build(3, 2, [(1, 1, 2), (Fraction(-1, 3), 2, 3)])
    assert SQRT2 * form == form.scale(SQRT2)
    assert (-form).coefficient(2, 3) == Scalar(Fraction(1, 3))
    assert -form == form.scale(-1) and -form + form == KForm.zero(3, 2)
    assert 1 / Scalar(2) == HALF
    assert 1 / SQRT2 == HALF_SQRT2
    with pytest.raises(ZeroDivisionError):
        1 / Scalar(0)


def test_table1_mismatch_is_named_and_reproduce_exits_3(monkeypatch, capsys):
    closed = classify.nilpotent_parallel_report

    def flat_everywhere(p):
        rep = closed(p)
        return classify.NilpotentReport(rep.algebra_name, 0, rep.locally_symmetric, True)

    monkeypatch.setattr(classify, "nilpotent_parallel_report", flat_everywhere)
    diff = table1_diff()
    # n_{7,3} and A_{5,2}+R^2 have holonomy 2 only; every row with a
    # non-flat locally symmetric point loses it
    names = [line.split(":")[0] for line in diff]
    assert names == ["n_{7,3}", "n_{7,4}", "n_{6,1}+R", "A_{5,1}+R^2", "A_{5,2}+R^2"]
    assert diff[0] == ("n_{7,3}: regenerated TableRow(name='n_{7,3}', bracket=('e27', 'e37', "
                       "'e47', '0', 'e67', '0', '0'), parallel=True, hol_dims=(0,), "
                       "nonflat_locally_symmetric=False) != expected TableRow(name='n_{7,3}', "
                       "bracket=('e27', 'e37', 'e47', '0', 'e67', '0', '0'), parallel=True, "
                       "hol_dims=(2,), nonflat_locally_symmetric=False)")
    assert main(["reproduce", "table1"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == "FAIL table1: regenerated rows match (11 rows)\n"
    assert captured.err == "".join(f"  {line}\n" for line in diff) + (
        "first failing check: table1: regenerated rows match (11 rows)\n")
