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
from g2aa.scalars import ONE, SQRT2, ZERO, Scalar

from conftest import (oracle_bilinear_form, random_form, random_matrix, random_unimodular,
                      signature_cases)


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
    basis = stabilizer_algebra(a, b)
    assert len(basis) == expected
    for m in basis:
        assert gl_action(m, a).is_zero() and gl_action(m, b).is_zero()


def test_joint_stabilizer_split_pair_block_shape():
    # in the null-pair coordinates P_i = (f_{2i-1}+f_{2i})/2,
    # Q_i = (f_{2i-1}-f_{2i})/2 every element becomes diag(A, -A^t), tr A = 0
    from g2aa.classify import NULL_PAIR_BASIS

    basis = stabilizer_algebra(rho_model(1), half_omega_squared(-1))
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
    assert len(stabilizer_algebra(rho, rho)) == len(stabilizer_algebra(rho))


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


def test_certify_builds_no_action_matrix(monkeypatch):
    # det B != 0 is the whole stability test: no 35x49 stabilizer rank
    import g2aa.g2 as g2

    monkeypatch.setattr(g2, "_action_matrix", lambda forms: pytest.fail("action matrix built"))
    phi = pullback(random_unimodular(random.Random(44), 7), phi_model(1))
    assert certify_g2(phi).eps == 1
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(7, 1, 2, 3))


def test_certify_and_star_use_neither_wedge_nor_interior(monkeypatch):
    # B = (1/6) H P H^T and the Hodge star are integer-pair kernels
    import g2aa.exterior as exterior
    import g2aa.g2 as g2

    def refuse(*args):
        pytest.fail("wedge or interior called")

    for module in (exterior, g2):
        monkeypatch.setattr(module, "interior", refuse)
        monkeypatch.setattr(module, "wedge", refuse)
    phi = pullback(random_matrix(random.Random(45), 7, sqrt2=True), phi_model(-1))
    s = certify_g2(phi)
    assert s.eps == -1 and s.is_exact
    assert not s.star_phi().is_zero()


def test_signature_and_certify_make_no_dense_copy(monkeypatch):
    # the signature's rank-one congruence reads the row maps, so neither it
    # nor certification needs a dense view of a matrix
    cases = signature_cases(random.Random(46))
    expected = [m.signature() for m in cases]

    def refuse(*args):
        pytest.fail("dense view of a matrix taken")

    for name in ("tolist", "row", "column"):
        monkeypatch.setattr(Matrix, name, refuse)
    assert [m.signature() for m in cases] == expected
    s = certify_g2(pullback(random_matrix(random.Random(47), 7, sqrt2=True), phi_model(1)))
    assert s.eps == 1 and s.is_exact and s.metric.signature() == (3, 4, 0)


def test_certify_rejects_decomposable():
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(7, 1, 2, 3))


def test_certify_rejects_wrong_shape():
    with pytest.raises(NotG2Error):
        certify_g2(KForm.basis(6, 1, 2, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(frame=unimodular_frames(), eps=st.sampled_from((-1, 1)),
       sign=st.sampled_from((1, -1)), k=st.integers(-4, 4))
def test_certify_equivariance(frame, eps, sign, k):
    # p = U diag(u, 1, ..., 1) with u = +-(1 + sqrt2)^k: B of p*phi is
    # det p p^T B p, so det B gains (det p)^9 and the ninth root det p.  The
    # root is rational for k = 0 and has both parts nonzero otherwise.
    u = Scalar(1, 1) ** k * sign
    p = frame @ Matrix.diagonal([u] + [1] * 6)
    base = certify_g2(phi_model(eps))
    s = certify_g2(pullback(p, phi_model(eps)))
    c = s.vol.coefficient(*range(1, 8))
    event("rational root" if c.is_rational() else "general root")
    assert s.eps == eps
    assert s.metric == p.transpose() @ base.metric @ p
    assert c == p.det() * base.vol.coefficient(*range(1, 8))
    assert s.star_phi() == pullback(p, base.star_phi())


def test_certify_float_fallback_on_scaled_form():
    # 2*phi scales B by 8 and det B by 2^21, whose ninth root 2^(7/3)
    # leaves Q(sqrt2): g~ = sign(det B) B and det B are kept exactly
    s = certify_g2(phi_model(-1).scale(2))
    assert s.eps == -1
    assert not s.is_exact and s.metric is None and s.vol is None
    assert s.frame_kind == "generic"
    assert s.scaled_metric == Matrix.identity(7).scale(8)
    assert s.det_b == 2**21
    with pytest.raises(ValueError):
        s.star_phi()
    s = certify_g2(phi_model(1).scale(2))
    assert s.eps == 1 and not s.is_exact
    assert s.det_b == 2**21
    assert s.scaled_metric == adapted_metric(1).scale(8)
    assert s.scaled_metric.signature() == (3, 4, 0)


def test_certify_huge_coefficients():
    # 10^60 phi has the exact metric 10^40 g; 10^40 phi and 2 10^-40 phi
    # have no ninth root in Q(sqrt2) and keep g~ and det B exactly, far
    # outside the range of a float
    s = certify_g2(phi_model(-1).scale(10**60))
    assert s.is_exact and s.metric == Matrix.identity(7).scale(10**40)
    s = certify_g2(phi_model(-1).scale(10**40))
    assert not s.is_exact and s.eps == -1
    assert s.scaled_metric == Matrix.identity(7).scale(10**120) and s.det_b == 10**840
    s = certify_g2(phi_model(-1).scale(Scalar(Fraction(2, 10**40))))
    assert not s.is_exact and s.eps == -1
    assert s.scaled_metric == Matrix.identity(7).scale(Fraction(8, 10**120))
    assert s.det_b == Scalar(Fraction(2**21, 10**840))


def test_bilinear_form_matches_metric_times_volume():
    for eps in (-1, 1):
        s = certify_g2(phi_model(eps))
        b = bilinear_volume_form(phi_model(eps))
        c = s.vol.coefficient(1, 2, 3, 4, 5, 6, 7)
        assert b == s.metric.scale(c)
        assert s.det_b == c**9 and s.scaled_metric == s.metric.scale(c.sign() * c)


def test_bilinear_form_against_wedge_of_wedges():
    rng = random.Random(61)
    dense = [pullback(random_matrix(rng, 7, sqrt2=True), phi_model(eps))
             for eps in (-1, 1) for _ in range(2)]
    degenerate = [random_form(rng, 7, 3, terms=t, sqrt2=True) for t in (2, 4, 6)]
    # all 35 terms, parts with denominators 1 to 3, and far from a common
    # denominator of 1 in either direction
    full = random_form(rng, 7, 3, terms=35, sqrt2=True)
    scaled = [dense[0].scale(10**40), full.scale(Scalar(Fraction(1, 10**40), 3))]
    # 2(k - 1) + k = dim pairs two hooks with phi only for 2-forms on R^4
    # (hooks anticommute, B is skew) and three-forms on R^7; B = 0 otherwise
    others = [rho_null_model(), rho_model(-1), rho_model(1),
              random_form(rng, 6, 3, terms=20, sqrt2=True),
              random_form(rng, 4, 2, terms=6, sqrt2=True), random_form(rng, 5, 2, terms=8)]
    for phi in dense + degenerate + [full] + scaled + others:
        assert bilinear_volume_form(phi) == oracle_bilinear_form(phi)
    skew = bilinear_volume_form(others[4])
    assert not skew.is_zero() and skew.transpose() == -skew
    assert all(bilinear_volume_form(phi).is_zero() for phi in others[:4] + others[5:])
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
    # coefficients far beyond a fixed working precision
    for x in (Scalar(10**41 + 7, 3), Scalar(1, 1) ** 60, Scalar(1, 1) ** 120):
        assert ninth_root(x**9) == x
    assert ninth_root(Scalar(10**41 + 7, 3) ** 9 + 1) is None
    assert ninth_root(ZERO) == ZERO
    # units of norm -1 = (-1)^9 pass the norm test but have no ninth root
    assert ninth_root(Scalar(1, 1)) is None
    assert ninth_root(Scalar(1, 1) ** 3) is None
    # the conjugate embedding is the larger one
    for x in (Scalar(1, -1), Scalar(-3, 2)):
        assert ninth_root(x**9) == x
    assert ninth_root(Scalar(0, -16)) == -SQRT2


big_rationals = st.builds(Fraction, st.integers(-10**60, 10**60), st.integers(1, 10**30))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u=big_rationals, v=big_rationals, unit=st.integers(-40, 40))
def test_ninth_root_round_trip(u, v, unit):
    x = Scalar(u, v) * Scalar(1, 1) ** unit
    assert ninth_root(x**9) == x


def test_certify_exact_with_a_large_unit_determinant():
    # det B = ((1 + sqrt2)^60)^9: its ninth root is exact, so no float fallback
    a = Matrix.diagonal([Scalar(1, 1) ** 60] + [1] * 6)
    s = certify_g2(pullback(a, phi_model(-1)))
    assert s.is_exact and s.eps == -1
    assert s.metric == a.transpose() @ adapted_metric(-1) @ a


# -- Witt frame --------------------------------------------------------------------


def test_witt_frame_golden():
    frame = witt_frame_from_adapted()
    assert not frame.basis_change.det().is_zero()
    assert frame.to_witt(phi_model(1)) == witt_phi()
    star_adapted = certify_g2(phi_model(1)).star_phi()
    assert frame.to_witt(star_adapted) == witt_star_phi()
    assert frame.gram_in_witt(adapted_metric(1)) == WITT_GRAM
    # round trip
    assert pullback(frame.basis_change, frame.to_witt(phi_model(1))) == phi_model(1)


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


def test_hyperplane_types_without_an_exact_metric():
    # 2 phi has the ninth root c = 2^(7/3), outside Q(sqrt2); g~ = |c| g has
    # the signature of g on every hyperplane
    covectors = [KForm.basis(7, 7), KForm.basis(7, 1), KForm(7, 1, {(1,): ONE, (7,): -ONE})]
    for eps in (-1, 1):
        exact = certify_g2(phi_model(eps))
        scaled = certify_g2(phi_model(eps).scale(2))
        assert exact.is_exact and not scaled.is_exact
        for cov in covectors:
            assert hyperplane_model_type(scaled, cov) is hyperplane_model_type(exact, cov)


def test_hyperplane_type_rejects_zero_covector():
    s = certify_g2(phi_model(-1))
    with pytest.raises(ValueError):
        hyperplane_model_type(s, KForm.zero(7, 1))


def test_hyperplane_type_rejects_inconsistent_invariants():
    s = certify_g2(phi_model(-1))
    # a metric degenerate on ker f^7 says RHO_NULL, while phi there is
    # rho_minus with negative cubic invariant: the two checks disagree
    fake = dataclasses.replace(s, scaled_metric=Matrix.diagonal([0, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(ModelTypeMismatchError):
        hyperplane_model_type(fake, KForm.basis(7, 7))
    # a G2 form whose metric is (3,3) on ker f^7 says RHO_PLUS_OM_MINUS, and
    # the type is read off the signature for either eps
    fake = dataclasses.replace(s, scaled_metric=Matrix.diagonal([1, 1, 1, -1, -1, -1, 1]))
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
