import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from g2aa.exterior import KForm, gl_action, pullback, wedge
from g2aa.g2 import (
    WITT_GRAM,
    HyperplaneType,
    ModelTypeMismatchError,
    NotG2Error,
    adapted_metric,
    bilinear_volume_form,
    certify_g2,
    cubic_invariant,
    half_omega_squared,
    hyperplane_model_type,
    joint_stabilizer_algebra,
    ninth_root,
    omega_null_model,
    phi_model,
    rho_model,
    rho_null_model,
    stabilizer_algebra,
    structure_map,
    witt_frame_from_adapted,
    witt_phi,
    witt_star_phi,
)
from g2aa.linalg import Matrix
from g2aa.scalars import ONE, SQRT2, DomainError, Scalar

from conftest import oracle_bilinear_form, random_form, random_matrix, random_unimodular


# -- stabilizers -----------------------------------------------------------------


@pytest.mark.parametrize(
    "form,expected",
    [
        (rho_model(-1), 16),
        (rho_model(1), 16),
        (rho_null_model(), 17),
        (omega_null_model(), 22),
        (phi_model(-1), 14),
        (phi_model(1), 14),
    ],
)
def test_stabilizer_dimensions(form, expected):
    basis = stabilizer_algebra(form)
    assert len(basis) == expected
    for a in basis:
        assert gl_action(a, form).is_zero()


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (rho_model(-1), half_omega_squared(-1), 8),
        (rho_model(-1), half_omega_squared(1), 8),
        (rho_model(1), half_omega_squared(-1), 8),
    ],
)
def test_joint_stabilizer_dimensions(a, b, expected):
    basis = joint_stabilizer_algebra(a, b)
    assert len(basis) == expected
    for m in basis:
        assert gl_action(m, a).is_zero() and gl_action(m, b).is_zero()


def test_joint_stabilizer_split_pair_block_shape():
    # in the null-pair coordinates P_i = (f_{2i-1}+f_{2i})/2,
    # Q_i = (f_{2i-1}-f_{2i})/2 every element becomes diag(A, -A^t), tr A = 0
    from g2aa.classify import NULL_PAIR_BASIS

    basis = joint_stabilizer_algebra(rho_model(1), half_omega_squared(-1))
    c = NULL_PAIR_BASIS
    cinv = c.inverse()
    for m in basis:
        d = cinv @ m @ c
        a_block = Matrix([[d[i, j] for j in range(3)] for i in range(3)])
        assert a_block.trace().is_zero()
        for i in range(3):
            for j in range(3):
                assert d[i, 3 + j].is_zero() and d[3 + i, j].is_zero()
                assert d[3 + i, 3 + j] == -a_block[j, i]


def test_joint_stabilizer_with_itself():
    rho = rho_model(-1)
    assert len(joint_stabilizer_algebra(rho, rho)) == len(stabilizer_algebra(rho))


def test_stabilizer_annihilates_hodge_dual_too():
    for eps in (-1, 1):
        phi = phi_model(eps)
        s = certify_g2(phi)
        star = s.star_phi()
        for a in stabilizer_algebra(phi):
            assert gl_action(a, star).is_zero()


# -- the stability criterion -----------------------------------------------------
#
# A three-form on R^7 has a 14-dimensional stabilizer (g2 or g2*) exactly
# when its bilinear form B is non-degenerate, and then the signature of B,
# swapped when det B < 0, is (7,0) or (3,4) (Hitchin, math/0010054;
# Bryant, math/0305124).  Certification tests det B != 0 only; these tests
# pin it to the stabilizer dimension.

STABILITY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def unimodular_frames(draw, n=7):
    """Integer shears E_ij(c) followed by a row permutation: det = +-1."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    shears = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(shears, max_size=8)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix([rows[k] for k in draw(st.permutations(range(n)))])


def _stability_signature(phi: KForm):
    """Check the criterion on phi; the normalized signature of B, or None
    when B is degenerate."""
    b = bilinear_volume_form(phi)
    det_b = b.det()
    dim = len(stabilizer_algebra(phi))
    event("degenerate" if det_b.is_zero() else f"det B sign {det_b.sign():+d}")
    if det_b.is_zero():
        # a degenerate form lies in no open orbit: its stabilizer is larger
        assert dim > 14
        with pytest.raises(NotG2Error):
            certify_g2(phi)
        return None
    assert dim == 14
    p, q, z = b.signature()
    sig = (p, q, z) if det_b.sign() > 0 else (q, p, z)
    assert sig in ((7, 0, 0), (3, 4, 0))
    assert certify_g2(phi).eps == (-1 if sig == (7, 0, 0) else 1)
    return sig


@STABILITY
@given(frame=unimodular_frames(), eps=st.sampled_from((-1, 1)),
       diag=st.lists(st.sampled_from((1, -1, 2, -2)), min_size=7, max_size=7),
       drop=st.one_of(st.none(), st.integers(0, 6)),
       scale=st.sampled_from((ONE, -ONE, Scalar(1, 1), Scalar(-1, -1))))
def test_stability_criterion_on_model_pullbacks(frame, eps, diag, drop, scale):
    # the integer frame U diag(d) loses rank when one d_i is dropped to 0;
    # a scale of +-(1 + sqrt2) sends the ninth root out of Q(sqrt2)
    if drop is not None:
        diag[drop] = 0
    a = frame @ Matrix.diagonal(diag)
    sig = _stability_signature(pullback(a, phi_model(eps)).scale(scale))
    assert (sig is None) == (drop is not None)
    assert sig is None or sig == ((7, 0, 0) if eps == -1 else (3, 4, 0))


covectors = st.lists(st.integers(-2, 2), min_size=7, max_size=7).map(
    lambda c: KForm(7, 1, {(i + 1,): Scalar(x) for i, x in enumerate(c) if x}))


@STABILITY
@given(a=covectors, b=covectors, c=covectors)
def test_stability_criterion_on_decomposable_forms(a, b, c):
    assert _stability_signature(wedge(wedge(a, b), c)) is None


@STABILITY
@given(frame=unimodular_frames(),
       omega=st.lists(st.integers(-1, 1), min_size=6, max_size=6))
def test_stability_criterion_on_lifted_null_form(frame, omega):
    # rho_0 on R^6 lifted to R^7 is degenerate (e_7 -| phi = 0); adding
    # e^7 ^ omega makes it a split structure for about two omegas in three
    # here, and the criterion must agree with the stabilizer either way
    lift = Matrix.sparse(6, 7, {(i, i): ONE for i in range(6)})
    pairs = ((1, 4), (5, 6), (2, 5), (4, 6), (3, 6), (4, 5))
    phi = pullback(lift, rho_null_model()) + KForm.build(
        7, 3, [(c, i, j, 7) for c, (i, j) in zip(omega, pairs) if c])
    sig = _stability_signature(pullback(frame, phi))
    # rho_0 is the hyperplane type of the split form only
    assert sig in (None, (3, 4, 0))
    if not any(omega):
        assert sig is None


# -- certification -----------------------------------------------------------------


def test_certify_compact_model():
    s = certify_g2(phi_model(-1))
    assert s.eps == -1
    assert s.metric == Matrix.identity(7)
    assert s.frame_kind == "adapted"
    assert s.vol == KForm.basis(7, 1, 2, 3, 4, 5, 6, 7)


def test_certify_split_model():
    s = certify_g2(phi_model(1))
    assert s.eps == 1
    assert s.metric == adapted_metric(1)
    assert s.frame_kind == "adapted"


def test_certify_witt_form():
    s = certify_g2(witt_phi())
    assert s.eps == 1
    assert s.frame_kind == "witt"
    assert s.metric == WITT_GRAM
    assert s.metric.signature() == (3, 4, 0)
    assert s.vol.coefficient(1, 2, 3, 4, 5, 6, 7) == Scalar(Fraction(-1, 2))
    assert s.star_phi() == witt_star_phi()


def test_star_phi_is_computed_once_per_structure(monkeypatch):
    import g2aa.g2 as g2

    calls = []
    original = g2.hodge_star

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(g2, "hodge_star", counted)
    s = certify_g2(phi_model(-1))
    fresh = dataclasses.replace(s)  # the certify cache may hold a warm memo
    star = fresh.star_phi()
    assert fresh.star_phi() is star and len(calls) == 1
    assert star == s.star_phi()
    # the memo is not a field: equality and hashing see the form only
    assert fresh == s and hash(fresh) == hash(s)
    assert "_star_phi" not in repr(fresh)


def test_tolerance_must_be_positive_and_finite():
    phi = phi_model(-1).scale(2)  # certified through the float fallback
    assert not certify_g2(phi).is_exact
    for tol in (0, -1e-9, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="positive and finite"):
            certify_g2(phi, tol=tol)


def test_certify_builds_no_action_matrix(monkeypatch):
    # det B != 0 is the whole stability test: no 35x49 stabilizer rank
    import g2aa.g2 as g2

    monkeypatch.setattr(g2, "_action_matrix", lambda forms: pytest.fail("action matrix built"))
    phi = pullback(random_unimodular(random.Random(44), 7), phi_model(1))
    assert certify_g2(phi, tol=1e-8).eps == 1
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(7, 1, 2, 3), tol=1e-8)


def test_certify_rejects_decomposable():
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(7, 1, 2, 3))


def test_certify_rejects_wrong_shape():
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(6, 1, 2, 3))


def test_certify_equivariance():
    rng = random.Random(41)
    for eps in (-1, 1):
        phi = phi_model(eps)
        for _ in range(4):
            p = random_unimodular(rng, 7)
            pulled = pullback(p, phi)
            s = certify_g2(pulled)
            assert s.eps == eps
            # metric congruent by p: g' = det-sign-corrected p^t g p
            base = certify_g2(phi)
            cand = p.transpose() @ base.metric @ p
            assert s.metric == cand or s.metric == cand.scale(-1)


def test_certify_float_fallback_on_scaled_form():
    # 2*phi scales the metric by 2^(2/3), outside Q(sqrt2)
    s = certify_g2(phi_model(-1).scale(2))
    assert s.eps == -1
    assert not s.is_exact
    assert s.frame_kind == "generic"
    got = s.metric_float[0][0]
    assert abs(got - 2 ** (2 / 3)) < 1e-9
    with pytest.raises(ValueError):
        s.star_phi()


def test_certify_huge_coefficients():
    # 10^60 phi has the exact metric 10^40 g; 10^40 phi needs the float
    # fallback, whose coefficients no float can hold, and the determinant
    # of B for 2 10^-40 phi underflows to 0.0
    s = certify_g2(phi_model(-1).scale(10**60))
    assert s.is_exact and s.metric == Matrix.identity(7).scale(10**40)
    with pytest.raises(NotG2Error, match="too large"):
        certify_g2(phi_model(-1).scale(10**40))
    with pytest.raises(NotG2Error, match="too small"):
        certify_g2(phi_model(-1).scale(Scalar(Fraction(2, 10**40))))


def test_bilinear_form_matches_metric_times_volume():
    for eps in (-1, 1):
        s = certify_g2(phi_model(eps))
        b = bilinear_volume_form(phi_model(eps))
        c = s.vol.coefficient(1, 2, 3, 4, 5, 6, 7)
        assert b == s.metric.scale(c)


def test_bilinear_form_against_wedge_of_wedges():
    rng = random.Random(61)
    dense = [pullback(random_matrix(rng, 7, sqrt2=True), phi_model(eps))
             for eps in (-1, 1) for _ in range(2)]
    degenerate = [random_form(rng, 7, 3, terms=t, sqrt2=True) for t in (2, 4, 6)]
    for phi in dense + degenerate + [rho_null_model()]:
        assert bilinear_volume_form(phi) == oracle_bilinear_form(phi)
    assert all(len(list(phi.items())) == 35 for phi in dense)
    assert all(not bilinear_volume_form(phi).det().is_zero() for phi in dense)
    assert all(bilinear_volume_form(phi).det().is_zero() for phi in degenerate)


def test_bilinear_form_equivariance():
    # b_{A^* phi}(v, w) = det(A) b_phi(Av, Aw)
    rng = random.Random(62)
    forms = [pullback(random_matrix(rng, 7, sqrt2=True), phi_model(eps)) for eps in (-1, 1)]
    forms.append(random_form(rng, 7, 3, terms=5, sqrt2=True))
    for phi in forms:
        b = bilinear_volume_form(phi)
        for scale in (ONE, Scalar(1, 1)):
            a = random_unimodular(rng, 7).scale(scale)
            expected = (a.transpose() @ b @ a).scale(a.det())
            assert bilinear_volume_form(pullback(a, phi)) == expected


def test_ninth_root():
    assert ninth_root(Scalar(1)) == Scalar(1)
    assert ninth_root(Scalar(Fraction(-1, 512))) == Scalar(Fraction(-1, 2))
    assert ninth_root(Scalar(512)) == Scalar(2)
    assert ninth_root(Scalar(0, 16)) == SQRT2  # (sqrt2)^9 = 16 sqrt2
    assert ninth_root(Scalar(2)) is None
    x = Scalar(1, 1)
    assert ninth_root(x**9) == x
    y = Scalar(Fraction(3, 2), Fraction(-1, 4))
    assert ninth_root(y**9) == y
    # beyond float range: the integer root must be exact
    big = 10**20 + 1
    assert ninth_root(Scalar(Fraction(-(big**9), 2**9))) == Scalar(Fraction(-big, 2))
    assert ninth_root(Scalar(big**9 + 1)) is None


# -- Witt frame --------------------------------------------------------------------


def test_witt_frame_golden():
    frame = witt_frame_from_adapted()
    assert not frame.basis_change.det().is_zero()
    assert frame.to_witt(phi_model(1)) == witt_phi()
    star_adapted = certify_g2(phi_model(1)).star_phi()
    assert frame.to_witt(star_adapted) == witt_star_phi()
    assert frame.gram_in_witt(adapted_metric(1)) == WITT_GRAM
    # round trip
    assert frame.from_witt(frame.to_witt(phi_model(1))) == phi_model(1)


# -- structure map / orbit invariant ----------------------------------------------


def test_cubic_invariant_signs():
    assert cubic_invariant(rho_model(-1)).sign() < 0
    assert cubic_invariant(rho_model(1)).sign() > 0
    lam0 = cubic_invariant(rho_null_model())
    assert lam0.is_zero()
    assert not structure_map(rho_null_model()).is_zero()


def test_cubic_invariant_scales_by_det_squared():
    rng = random.Random(42)
    for rho in (rho_model(-1), rho_model(1)):
        lam = cubic_invariant(rho)
        for _ in range(5):
            p = random_unimodular(rng, 6)
            pulled = pullback(p, rho)
            # det p = +-1 here, so lambda is literally preserved
            assert cubic_invariant(pulled) == lam


# -- hyperplane model types ---------------------------------------------------------


def test_hyperplane_types_adapted():
    s_minus = certify_g2(phi_model(-1))
    t = hyperplane_model_type(s_minus, KForm.basis(7, 7))
    assert t is HyperplaneType.RHO_MINUS_OM_MINUS

    s_plus = certify_g2(phi_model(1))
    # ker f^7 = span(f_1..f_6): signature (2,4)
    assert hyperplane_model_type(s_plus, KForm.basis(7, 7)) is HyperplaneType.RHO_MINUS_OM_PLUS
    # ker f^1 = span(f_2..f_7): signature (3,3)
    assert hyperplane_model_type(s_plus, KForm.basis(7, 1)) is HyperplaneType.RHO_PLUS_OM_MINUS
    # ker(f^1 - f^7) contains f_1 + f_7: degenerate
    cov = KForm(7, 1, {(1,): ONE, (7,): -ONE})
    assert hyperplane_model_type(s_plus, cov) is HyperplaneType.RHO_NULL


def test_hyperplane_type_rejects_zero_covector():
    s = certify_g2(phi_model(-1))
    with pytest.raises(ValueError):
        hyperplane_model_type(s, KForm.zero(7, 1))


def test_hyperplane_type_rejects_inconsistent_invariants():
    s = certify_g2(phi_model(-1))
    # a metric degenerate on ker f^7 says RHO_NULL, while phi there is
    # rho_minus with negative cubic invariant: the two checks disagree
    fake = dataclasses.replace(s, metric=Matrix.diagonal([0, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(ModelTypeMismatchError):
        hyperplane_model_type(fake, KForm.basis(7, 7))


def test_hyperplane_type_invariance_under_pullback():
    rng = random.Random(43)
    s = certify_g2(phi_model(1))
    cases = [
        (KForm.basis(7, 7), HyperplaneType.RHO_MINUS_OM_PLUS),
        (KForm.basis(7, 1), HyperplaneType.RHO_PLUS_OM_MINUS),
        (KForm(7, 1, {(1,): ONE, (7,): -ONE}), HyperplaneType.RHO_NULL),
    ]
    for _ in range(4):
        p = random_unimodular(rng, 7)
        pulled = certify_g2(pullback(p, phi_model(1)))
        for cov, expected in cases:
            cov_pulled = pullback(p, cov)
            assert hyperplane_model_type(pulled, cov_pulled) is expected


def test_hyperplane_type_invariant_under_stabilizer_exponentials():
    # exponentials of nilpotent stabilizer elements fix the structure
    s = certify_g2(phi_model(1))
    basis = stabilizer_algebra(phi_model(1))
    used = 0
    for a in _nilpotent_combinations(basis, want=3):
        used += 1
        expa = _matrix_exp_nilpotent(a)
        assert pullback(expa, phi_model(1)) == phi_model(1)
        for cov, expected in [
            (KForm.basis(7, 7), HyperplaneType.RHO_MINUS_OM_PLUS),
            (KForm(7, 1, {(1,): ONE, (7,): -ONE}), HyperplaneType.RHO_NULL),
        ]:
            assert hyperplane_model_type(s, pullback(expa, cov)) is expected
    assert used >= 3


def _nilpotent_combinations(basis, want):
    def is_nilpotent(a):
        p = a
        for _ in range(8):
            p = p @ a
            if p.is_zero():
                return True
        return False

    out = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            for cand in (basis[i] + basis[j], basis[i] - basis[j]):
                if not cand.is_zero() and is_nilpotent(cand):
                    out.append(cand)
                    if len(out) == want:
                        return out
    return out


def _matrix_exp_nilpotent(a: Matrix) -> Matrix:
    out = Matrix.identity(a.rows)
    term = Matrix.identity(a.rows)
    fact = 1
    for k in range(1, a.rows + 1):
        term = term @ a
        if term.is_zero():
            break
        fact *= k
        out = out + term.scale(Scalar(Fraction(1, fact)))
    return out
