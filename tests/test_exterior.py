import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from g2aa.exterior import (
    DegenerateMetricError,
    DimensionMismatchError,
    KForm,
    gl_action,
    hodge_star,
    interior,
    pullback,
    wedge,
)
from g2aa.classify import NilpotentParallelParams, build_instance
from g2aa.g2 import adapted_metric, phi_model, witt_phi
from g2aa.liealg import AlmostAbelianAlgebra, differential
from g2aa.linalg import Matrix
from g2aa.scalars import ONE, ZERO, Scalar

from conftest import (
    inversion_sign,
    oracle_form_inner,
    oracle_pullback,
    random_form,
    random_matrix,
    random_scalar,
    random_unimodular,
)

VOL7 = KForm.basis(7, 1, 2, 3, 4, 5, 6, 7)


def e(*idx):
    return KForm.basis(7, *idx)


def test_wedge_basics():
    assert wedge(e(1), e(2)) == e(1, 2)
    assert wedge(e(1, 2), e(1, 2)).is_zero()
    # permutation-sign oracle: e^13 ^ e^245 = sign(1,3,2,4,5) e^12345
    sign = inversion_sign((1, 3, 2, 4, 5))
    assert sign == -1
    assert wedge(e(1, 3), e(2, 4, 5)) == e(1, 2, 3, 4, 5).scale(-1)


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(3, 6)
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        a = random_form(rng, n, ka)
        b = random_form(rng, n, kb)
        c = random_form(rng, n, 1)
        lhs = wedge(a, b)
        rhs = wedge(b, a).scale((-1) ** (ka * kb))
        assert lhs == rhs
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_build_sorts_signs_sums_and_drops_terms():
    assert KForm.build(3, 2, [(1, 2, 1), (2, 1, 2)]) == KForm.basis(3, 1, 2)
    # a repeated index, and two terms that cancel, leave nothing
    assert KForm.build(3, 2, [(5, 1, 1)]).is_zero()
    assert KForm.build(3, 2, [(1, 1, 2), (1, 2, 1)]).is_zero()
    assert KForm.basis(3, 1, 2).coefficient(1, 1) == ZERO
    assert str(KForm.zero(3, 2)) == "0"
    assert str(KForm.constant(3, 2)) == "(2)"


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        wedge(KForm.basis(6, 1), KForm.basis(7, 1))


def test_interior_basics():
    f1 = [ONE] + [ZERO] * 6
    f2 = [ZERO, ONE] + [ZERO] * 5
    assert interior(f1, e(1, 2)) == e(2)
    assert interior(f2, e(1, 2)) == e(1).scale(-1)
    f7 = [ZERO] * 6 + [ONE]
    hooked = interior(f7, phi_model(1))
    expected = KForm.build(7, 2, [(-1, 1, 2), (-1, 3, 4), (1, 5, 6)])
    assert hooked == expected  # omega for the split model


def test_interior_antiderivation():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(3, 6)
        a = random_form(rng, n, rng.randint(1, 2))
        b = random_form(rng, n, rng.randint(1, min(2, n - a.degree)))
        v = [Scalar(rng.randint(-2, 2)) for _ in range(n)]
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)).scale((-1) ** a.degree)
        assert lhs == rhs


def test_interior_rejects_degree_zero():
    with pytest.raises(ValueError):
        interior([ONE] * 3, KForm.constant(3, 1))


def test_gl_action_convention():
    # A f_1 = f_2, all else zero: A.e^2 = -e^1
    a = Matrix.zero(7)
    rows = a.tolist()
    rows[1][0] = ONE
    a = Matrix(rows)
    assert gl_action(a, e(2)) == e(1).scale(-1)
    assert gl_action(Matrix.zero(7), random_form(random.Random(0), 7, 3)).is_zero()


def test_gl_action_is_lie_action():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(3, 5)
        a = random_matrix(rng, n, sqrt2=True)
        b = random_matrix(rng, n, sqrt2=True)
        f = random_form(rng, n, rng.randint(1, 3), sqrt2=True)
        lhs = gl_action(a.commutator(b), f)
        rhs = gl_action(a, gl_action(b, f)) - gl_action(b, gl_action(a, f))
        assert lhs == rhs


def test_hodge_star_golden_adapted():
    # both signs of the model: the (1256)+(3456) block carries -eps
    for eps in (-1, 1):
        st = hodge_star(phi_model(eps), adapted_metric(eps), VOL7)
        expected = KForm.build(7, 4, [
            (-eps, 1, 2, 5, 6), (-eps, 3, 4, 5, 6), (1, 1, 2, 3, 4),
            (-1, 2, 4, 6, 7), (1, 2, 3, 5, 7), (1, 1, 4, 5, 7), (1, 1, 3, 6, 7),
        ])
        assert st == expected


def test_hodge_star_of_one_is_volume():
    one = KForm.constant(7, 1)
    assert hodge_star(one, adapted_metric(-1), VOL7) == VOL7


def test_hodge_star_defining_relation_with_oracle_inner():
    rng = random.Random(24)
    for _ in range(30):
        n = rng.randint(3, 5)
        k = rng.randint(1, n - 1)
        d = Matrix.diagonal([rng.choice([1, -1]) for _ in range(n)])
        p = random_unimodular(rng, n)
        g = p.transpose() @ d @ p
        vol = KForm.basis(n, *range(1, n + 1))
        a = random_form(rng, n, k)
        b = random_form(rng, n, k)
        st = hodge_star(b, g, vol)
        lhs = wedge(a, st).coefficient(*range(1, n + 1))
        assert lhs == oracle_form_inner(a, b, g)


def test_hodge_star_double_star_sign_law():
    rng = random.Random(25)
    for diag in ([1] * 7, [-1, -1, -1, -1, 1, 1, 1]):
        g = Matrix.diagonal(diag)
        det_sign = 1 if diag.count(-1) % 2 == 0 else -1
        for _ in range(30):
            k = rng.randint(0, 7)
            a = random_form(rng, 7, k, terms=4)
            st2 = hodge_star(hodge_star(a, g, VOL7), g, VOL7)
            expected = a.scale(det_sign * (-1) ** (k * (7 - k)))
            assert st2 == expected


scalars = st.builds(lambda p, q, r, s: Scalar(Fraction(p, q), Fraction(r, s)),
                    st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3))
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())


@st.composite
def mixed_metrics(draw, n):
    """P^T D P with P an integer unimodular frame and D diagonal over
    Q(sqrt2) with entries of both signs."""
    mags = draw(st.lists(st.sampled_from((ONE, Scalar(2), Scalar(Fraction(1, 3)), Scalar(1, 1))),
                         min_size=n, max_size=n))
    signs = [1, -1] + draw(st.lists(st.sampled_from((1, -1)), min_size=n - 2, max_size=n - 2))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    shears = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(shears, max_size=8)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    frame = Matrix([rows[k] for k in draw(st.permutations(range(n)))])
    d = Matrix.diagonal([m * sg for m, sg in zip(mags, signs)])
    return frame.transpose() @ d @ frame


@st.composite
def forms(draw, n, k):
    idx = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), k))),
                        min_size=1, max_size=4, unique=True))
    return KForm(n, k, {i: draw(scalars) for i in idx})


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(2, 6), v0=nonzero_scalars)
def test_double_star_sign_law_on_mixed_signature_metrics(data, n, v0):
    # star star alpha = (-1)^(k(n-k)) v0^2 / det g alpha for the volume v0 e^{1..n}
    g = data.draw(mixed_metrics(n))
    k = data.draw(st.integers(0, n))
    a = data.draw(forms(n, k))
    event(f"signature {g.signature()}")
    vol = KForm(n, n, {tuple(range(1, n + 1)): v0})
    factor = Scalar((-1) ** (k * (n - k))) * v0 * v0 * g.det().inverse()
    assert hodge_star(hodge_star(a, g, vol), g, vol) == a.scale(factor)


def test_hodge_star_rejects_degenerate_metric():
    g = Matrix.diagonal([1, 1, 0])
    with pytest.raises(DegenerateMetricError):
        hodge_star(KForm.basis(3, 1), g, KForm.basis(3, 1, 2, 3))


def test_pullback_functorial():
    rng = random.Random(26)
    for _ in range(25):
        n = rng.randint(3, 5)
        p = random_unimodular(rng, n)
        q = random_unimodular(rng, n)
        f = random_form(rng, n, rng.randint(1, 3))
        assert pullback(q, pullback(p, f)) == pullback(p @ q, f)
        assert pullback(Matrix.identity(n), f) == f
    # rectangular maps R^4 -> R^6 -> R^7; the result lives on the column space
    for _ in range(10):
        p = random_matrix(rng, 7, 6)
        q = random_matrix(rng, 6, 4)
        f = random_form(rng, 7, rng.randint(0, 4), terms=5)
        pulled = pullback(q, pullback(p, f))
        assert pulled.dim == 4 and pulled == pullback(p @ q, f)
    with pytest.raises(DimensionMismatchError):
        pullback(Matrix.identity(6), phi_model(-1))


def test_pullback_against_minors():
    # sqrt2 entries and denominators, rectangular maps, degrees 0 to 4
    rng = random.Random(27)
    for degree in range(5):
        for rows, cols in ((7, 7), (7, 5), (5, 7), (4, 6)):
            m = random_matrix(rng, rows, cols, sqrt2=True)
            f = random_form(rng, rows, degree, terms=4, sqrt2=True)
            assert pullback(m, f) == oracle_pullback(m, f), (degree, rows, cols)
    # sparse maps: a zero row, and the empty form
    m = Matrix([[random_scalar(rng) if i != 2 else ZERO for _ in range(6)] for i in range(5)])
    for f in (random_form(rng, 5, 3, terms=6, sqrt2=True), KForm.zero(5, 2)):
        assert pullback(m, f) == oracle_pullback(m, f)
    assert pullback(m, KForm.basis(5, 1, 3)).is_zero()
    assert pullback(Matrix.zero(4, 3), KForm.constant(4, Scalar(1, 1))) == \
        KForm.constant(3, Scalar(1, 1))


def test_kernel_outputs_equal_the_checked_constructor():
    # gl_action, pullback, hodge_star and differential build their results
    # unchecked; each must be the form that KForm() would build from its
    # terms, with no zero coefficient kept
    rng = random.Random(28)
    outputs = []
    for _ in range(20):
        n = rng.randint(2, 6)
        f = random_form(rng, n, rng.randint(0, n), terms=4, sqrt2=True)
        m = random_matrix(rng, n, span=2, sqrt2=True)
        frame = random_unimodular(rng, n)
        vol = KForm(n, n, {tuple(range(1, n + 1)): random_scalar(rng) or ONE})
        algebra = AlmostAbelianAlgebra(n, random_matrix(rng, n - 1, span=2))
        outputs += [gl_action(m, f), pullback(m, f),
                    hodge_star(f, frame.transpose() @ frame, vol), differential(algebra, f)]
    # terms that cancel: a trace-free diagonal kills e^12, and the three-form
    # of a parallel instance is closed
    outputs.append(gl_action(Matrix.diagonal([1, -1, 0]), KForm.basis(3, 1, 2)))
    instance = build_instance(NilpotentParallelParams.of(1, [[1, 0], [1, 1]], (0, 1), (1, 0)))
    outputs.append(differential(instance.algebra, witt_phi()))
    for out in outputs:
        assert out == KForm(out.dim, out.degree, dict(out.items()))
        assert all(not c.is_zero() for _, c in out.items()), out


def test_json_round_trip():
    rng = random.Random(27)
    for _ in range(25):
        f = random_form(rng, 7, rng.randint(0, 4), sqrt2=True)
        assert KForm.from_json(f.to_json()) == f
    payload = phi_model(1).to_json_dict()
    assert payload["dim"] == 7 and payload["degree"] == 3
    assert {"idx": [1, 2, 7], "coef": "-1"} in payload["terms"]
