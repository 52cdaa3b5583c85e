import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2aa.exterior import DegenerateMetricError, KForm, gl_action
from g2aa.g2 import adapted_metric, certify_g2, witt_phi
from g2aa.geometry import (
    _curved_triples,
    _lowered_product,
    _raise,
    analyze,
    annihilates,
    curvature,
    endo_derivative,
    holonomy_algebra,
    is_locally_symmetric,
    levi_civita,
    nabla_r_full,
)
from g2aa.liealg import AlmostAbelianAlgebra
from g2aa.linalg import Matrix, _pair_rows
from g2aa.scalars import HALF, SQRT2, ZERO, Scalar

from conftest import (is_abelian_family, oracle_curvature, oracle_holonomy, oracle_levi_civita,
                      oracle_lowered_product, oracle_nabla_r, oracle_ricci, random_matrix,
                      random_scalar, random_unimodular, sweep_witness_pairs)


def example_a_algebra():
    rows = [[0] * 6 for _ in range(6)]
    rows[0][2] = -1
    rows[2][3] = -1
    rows[1][4] = -1
    rows[4][5] = -1
    return AlmostAbelianAlgebra(7, Matrix(rows))


def example_b_algebra():
    return AlmostAbelianAlgebra(7, Matrix.diagonal([2, -1, 2, 2, -1, -1]))


def endo(n, *terms):
    """sum of c * f^j (x) f_i terms, entries (c, j, i), 1-based."""
    rows = [[ZERO] * n for _ in range(n)]
    for c, j, i in terms:
        c = Scalar(c) if isinstance(c, int) else c
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + c
    return Matrix(rows)


def witt_structure():
    s = certify_g2(witt_phi())
    return s


def random_metric(rng, n):
    d = Matrix.diagonal([rng.choice([1, 1, -1]) for _ in range(n)])
    p = random_unimodular(rng, n)
    return p.transpose() @ d @ p


def random_algebra(rng, n=7):
    return AlmostAbelianAlgebra(n, random_matrix(rng, n - 1, span=2))


def test_levi_civita_abelian_is_flat_connection():
    alg = AlmostAbelianAlgebra(7, Matrix.zero(6))
    conn = levi_civita(alg, Matrix.identity(7))
    assert all(m.is_zero() for m in conn.nabla)


def test_levi_civita_rejects_degenerate():
    alg = example_a_algebra()
    with pytest.raises(DegenerateMetricError):
        levi_civita(alg, Matrix.diagonal([1, 1, 1, 1, 1, 1, 0]))


def test_levi_civita_torsion_and_metricity_random():
    rng = random.Random(51)
    for _ in range(30):
        n = rng.choice([4, 5, 6, 7])
        alg = random_algebra(rng, n)
        g = random_metric(rng, n)
        conn = levi_civita(alg, g)
        _assert_torsion_free_and_metric(alg, g, conn)


def random_dense_metric(rng, n):
    """A non-degenerate symmetric metric with every entry drawn from
    Q(sqrt2), fractional and sqrt2 parts included."""
    while True:
        entries = {}
        for i in range(n):
            for j in range(i, n):
                entries[(i, j)] = entries[(j, i)] = random_scalar(rng, span=3)
        g = Matrix.sparse(n, n, entries)
        if not g.det().is_zero():
            return g


def _dense_cases(count):
    """``count`` (algebra, metric) pairs with every entry of the ad-matrix
    and of the metric drawn from Q(sqrt2)."""
    rng = random.Random(61)
    for _ in range(count):
        n = rng.choice([4, 5, 6, 7])
        yield (AlmostAbelianAlgebra(n, random_matrix(rng, n - 1, span=3, sqrt2=True)),
               random_dense_metric(rng, n))


def _sparse_cases():
    """(algebra, metric) pairs on which M = g A is sparse: the Witt metric
    at the sweep witnesses, then an M with diagonal entries, an M with both
    M[c][j] and M[j][c] nonzero, and an M with entries in its last row, once
    on an integer metric and once on a fractional one with a sqrt2 entry."""
    tied = Matrix.sparse(7, 7, {**{(k, k): 1 for k in range(5)}, (5, 5): -1,
                                (6, 6): 2, (0, 6): 1, (6, 0): 1})
    third = Fraction(1, 3)
    fractional = Matrix.sparse(7, 7, {**{(k, k): HALF for k in range(5)}, (5, 5): -third,
                                      (6, 6): SQRT2, (1, 6): third, (6, 1): third})
    return sweep_witness_pairs() + [
        (AlmostAbelianAlgebra(7, Matrix.diagonal([1, -2, 0, 3, 0, HALF])),
         Matrix.diagonal([1, -1, 2, 1, 1, -1, 1])),
        (AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, {(0, 1): 1, (1, 0): 2, (2, 2): -1,
                                                      (3, 4): SQRT2, (4, 3): SQRT2})),
         Matrix.identity(7)),
        (AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, {(0, 0): 2, (0, 1): 1, (2, 3): -1})),
         tied),
        (AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, {(1, 0): third, (1, 2): SQRT2,
                                                      (4, 1): -HALF})),
         fractional),
    ]


def _three_denominator_case():
    """(algebra, metric) with g, A and g^{-1} over three different least
    common denominators (6, 4 and 70), each with sqrt2 parts."""
    third = Fraction(1, 3)
    g = Matrix.sparse(7, 7, {(0, 0): 1, (1, 1): -1, (2, 2): third, (3, 3): 1, (4, 4): 1,
                             (5, 5): -1, (6, 6): SQRT2, (2, 6): third * SQRT2,
                             (6, 2): third * SQRT2, (0, 5): HALF, (5, 0): HALF})
    quarter = Fraction(1, 4)
    a = Matrix.sparse(6, 6, {(0, 1): 3 * quarter, (2, 3): quarter * SQRT2, (4, 2): -1,
                             (1, 5): quarter + SQRT2, (3, 0): 1})
    return AlmostAbelianAlgebra(7, a), g


def test_levi_civita_checks_symmetry_before_inverting():
    # singular and not symmetric: the symmetry is what is refused
    singular = Matrix.sparse(7, 7, {(0, 1): 1})
    with pytest.raises(ValueError, match="symmetric") as exc:
        levi_civita(example_a_algebra(), singular)
    assert not isinstance(exc.value, DegenerateMetricError)


def test_levi_civita_equals_dense_koszul():
    sparse = _sparse_cases()
    corners = sparse[-4:]
    # each corner case has what its description says: M = g A with a
    # nonzero diagonal, with M[c][j] and M[j][c] both nonzero, with a
    # nonzero last row, on an integer metric and on a fractional one
    ms = [g @ Matrix.sparse(7, 7, dict(alg.ad_matrix.items())) for alg, g in corners]
    assert any(ms[0][k, k] for k in range(6))
    assert any(ms[1][c, j] and ms[1][j, c] for c in range(6) for j in range(c + 1, 6))
    assert all(any(True for _ in m.row_items(6)) for m in ms[2:])
    assert any(x.a.denominator > 1 for _, x in corners[3][1].items())
    # and g, A and g^{-1} of the three-denominator case have what it says
    alg, g = _three_denominator_case()
    three = (g, alg.ad_matrix, g.inverse())
    assert [_pair_rows(m)[0] for m in three] == [6, 4, 70]
    assert all(any(x.b for _, x in m.items()) for m in three)
    for alg, g in list(_dense_cases(24)) + sparse + [_three_denominator_case()]:
        conn = levi_civita(alg, g)
        want = oracle_levi_civita(alg, g)
        assert [m.tolist() for m in conn.nabla] == want
        assert [m.tolist() for m in conn.christoffel] == [(g @ Matrix(w)).tolist() for w in want]
        # the Christoffel matrices Gamma_z = g nabla_z are skew, and for
        # z < n-1 nonzero only in the last row and column
        last = alg.n - 1
        for z, (gamma, nab) in enumerate(zip(conn.christoffel, conn.nabla)):
            assert gamma == g @ nab
            assert gamma.transpose() == -gamma
            if z < last:
                assert all(last in key for key, _ in gamma.items())


def test_curvature_equals_dense_definition():
    """r, lowered, ricci and both flags against R(f_i, f_j) =
    [nabla_i, nabla_j] - nabla_{[f_i, f_j]} on dense lists; a zero R is the
    zero matrix."""
    zeros = nonzeros = 0
    for alg, g in list(_dense_cases(6)) + _sparse_cases() + [_three_denominator_case()]:
        conn = levi_civita(alg, g)
        rep = curvature(conn)
        n = alg.n
        want = oracle_curvature(conn)
        assert sorted(rep.r) == [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i in range(n):
            for j in range(n):
                assert rep.r_of(i, j).tolist() == want[i][j]
        for key, r in rep.r.items():
            assert rep.lowered[key] == _strict_upper(g @ r)
            if r.is_zero():
                assert r == Matrix.zero(n)
                zeros += 1
            else:
                nonzeros += 1
        ricci = oracle_ricci(want)
        assert rep.ricci.tolist() == ricci
        assert rep.is_flat is all(r.is_zero() for r in rep.r.values())
        assert rep.is_flat is all(x.is_zero() for line in want for m in line
                                  for row in m for x in row)
        assert rep.is_ricci_flat is all(x.is_zero() for row in ricci for x in row)
    assert zeros and nonzeros


def _assert_torsion_free_and_metric(alg, g, conn):
    n = alg.n
    for i in range(n):
        for j in range(n):
            lhs = [conn.nabla[i][k, j] - conn.nabla[j][k, i] for k in range(n)]
            assert lhs == alg.bracket(i + 1, j + 1)
    for i in range(n):
        ni = conn.nabla[i]
        # g(nabla_i Y, Z) + g(Y, nabla_i Z) = 0 for basis Y, Z
        m = ni.transpose() @ g + g @ ni
        assert m.is_zero()


def test_example_a_curvature_golden():
    alg = example_a_algebra()
    s = witt_structure()
    conn = levi_civita(alg, s.metric)
    rep = curvature(conn)
    nonzero = {k for k, m in rep.r.items() if not m.is_zero()}
    assert nonzero == {(1, 6), (4, 6), (5, 6)}
    assert rep.r[(1, 6)] == endo(7, (-1, 6, 1), (Scalar(Fraction(1, 2)), 7, 3))
    assert rep.r[(4, 6)] == endo(7, (Scalar(Fraction(-3, 2)), 5, 1),
                                 (Scalar(Fraction(-3, 4)), 7, 4))
    assert rep.r[(5, 6)] == endo(7, (-1, 2, 1), (Scalar(Fraction(-1, 2)), 7, 2))
    assert rep.is_ricci_flat and not rep.is_flat


def test_example_a_nabla_relations():
    alg = example_a_algebra()
    s = witt_structure()
    conn = levi_civita(alg, s.metric)
    rep = curvature(conn)
    for i in range(6):
        for key in ((1, 6), (4, 6), (5, 6)):
            assert endo_derivative(conn, i, rep.r[key]).is_zero()
    assert endo_derivative(conn, 6, rep.r[(1, 6)]).is_zero()
    assert endo_derivative(conn, 6, rep.r[(4, 6)]) == rep.r[(1, 6)].scale(Scalar(Fraction(3, 2)))
    assert endo_derivative(conn, 6, rep.r[(5, 6)]) == rep.r[(4, 6)].scale(Scalar(Fraction(1, 3)))
    assert not is_locally_symmetric(conn, rep)


def test_example_a_holonomy_and_annihilation():
    alg = example_a_algebra()
    s = witt_structure()
    rep = analyze(alg, witt_phi(), s.metric)
    assert rep.hol_dim == 3 == _span_dim(rep.hol_basis)
    assert is_abelian_family(rep.hol_basis)
    assert rep.hol_annihilates_phi is False
    # the action of R(f_6, f_7) on the structure form, computed exactly
    conn = levi_civita(alg, s.metric)
    r67 = curvature(conn).r[(5, 6)]
    acted = gl_action(r67, witt_phi())
    expected = KForm.build(7, 3, [
        (-1, 2, 5, 6),
        (Scalar(Fraction(-1, 2)), 3, 6, 7),
        (Scalar(Fraction(1, 2)), 4, 5, 7),
    ])
    assert acted == expected
    assert not acted.is_zero()


def test_example_b_curvature_and_holonomy():
    alg = example_b_algebra()
    s = witt_structure()
    rep = analyze(alg, witt_phi(), s.metric)
    assert rep.is_ricci_flat
    assert rep.hol_dim == 5 == _span_dim(rep.hol_basis)
    assert is_abelian_family(rep.hol_basis)
    assert rep.hol_annihilates_phi is False
    # holonomy span equals the five reference endomorphisms
    half = Scalar(Fraction(1, 2))
    reference = [
        endo(7, (2, 2, 1), (1, 7, 2)),
        endo(7, (2, 6, 1), (-1, 7, 3)),
        endo(7, (2, 5, 1), (1, 7, 4)),
        endo(7, (2, 4, 1), (1, 7, 5)),
        endo(7, (2, 3, 1), (-1, 7, 6)),
    ]
    assert _span_dim(reference + rep.hol_basis) == 5 == _span_dim(reference)


def _span_dim(mats):
    rows = [[m[i, j] for i in range(7) for j in range(7)] for m in mats]
    return Matrix(rows).rank()


def test_flat_when_structure_block_vanishes():
    # the degenerate nilpotent family with delta = 0 gives a flat metric
    from g2aa.classify import NilpotentParallelParams, nilpotent_structure_matrix

    rng = random.Random(52)
    s = witt_structure()
    for _ in range(5):
        p = NilpotentParallelParams.of(
            0,
            [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)],
            (rng.randint(-2, 2), rng.randint(-2, 2)),
            (rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        alg = AlmostAbelianAlgebra(7, nilpotent_structure_matrix(p))
        conn = levi_civita(alg, s.metric)
        rep = curvature(conn)
        assert rep.is_flat


def test_curvature_identities_random():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.choice([4, 5, 6])
        alg = random_algebra(rng, n)
        g = random_metric(rng, n)
        conn = levi_civita(alg, g)
        rep = curvature(conn)
        # antisymmetry is structural (only i<j stored); first Bianchi:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    acc = [ZERO] * n
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        col = rep.r_of(a, b).column(c)
                        acc = [x + y for x, y in zip(acc, col)]
                    assert all(x.is_zero() for x in acc)
        # skew-adjointness of R(X,Y) wrt g; symmetry of Ricci
        for m in rep.r.values():
            assert (m.transpose() @ g + g @ m).is_zero()
        assert rep.ricci.is_symmetric()


@pytest.fixture(scope="module")
def nabla_r_cases():
    """(conn, curvature) for six random 5-dimensional algebras and
    metrics, one random 7-dimensional one, two points of the nilpotent
    degenerate family (one locally symmetric but not flat, one not locally
    symmetric), and a sparse case where a nonzero (nabla_z R)(f_x, f_y) is
    found only through row q of nabla_z for a curved pair (p, q), p < q."""
    from g2aa.classify import NilpotentParallelParams, nilpotent_structure_matrix

    rng = random.Random(54)
    pairs = [(random_algebra(rng, n), random_metric(rng, n)) for n in (5,) * 6 + (7,)]
    for b in ([[1, 0], [0, -1]], [[0, 0], [1, 0]]):
        p = NilpotentParallelParams.of(1, b, (0, 0), (0, 0))
        pairs.append((AlmostAbelianAlgebra(7, nilpotent_structure_matrix(p)),
                      witt_structure().metric))
    pairs.append((AlmostAbelianAlgebra(5, Matrix.sparse(4, 4, {(0, 3): -1, (1, 0): -1})),
                  Matrix.diagonal([-1, -1, 1, 1, -1])))
    out = []
    for alg, g in pairs:
        conn = levi_civita(alg, g)
        out.append((conn, curvature(conn)))
    return out


def test_second_bianchi_random(nabla_r_cases):
    for conn, rep in nabla_r_cases:
        n = conn.algebra.n
        for z in range(n):
            for x in range(n):
                assert nabla_r_full(conn, rep, z, x, x).is_zero()
                for y in range(x + 1, n):
                    s = (
                        nabla_r_full(conn, rep, z, x, y)
                        + nabla_r_full(conn, rep, x, y, z)
                        + nabla_r_full(conn, rep, y, z, x)
                    )
                    assert s.is_zero()


def test_nabla_r_equals_dense_reference(nabla_r_cases):
    seen = set()
    for conn, rep in nabla_r_cases:
        expected = oracle_nabla_r(conn)
        curved = set(_curved_triples(conn, rep))
        for (z, x, y), want in expected.items():
            got = nabla_r_full(conn, rep, z, x, y)
            assert got.tolist() == want
            assert nabla_r_full(conn, rep, z, y, x) == -got
            # the local-symmetry scan visits every triple where nabla R is nonzero
            assert got.is_zero() or (z, x, y) in curved
        symmetric = all(all(x.is_zero() for row in m for x in row) for m in expected.values())
        assert is_locally_symmetric(conn, rep) is symmetric
        seen.add((symmetric, rep.is_flat))
    assert {(True, False), (False, False)} <= seen


def test_scaling_invariance_of_curvature_and_holonomy():
    alg = example_a_algebra()
    s = witt_structure()
    conn1 = levi_civita(alg, s.metric)
    conn4 = levi_civita(alg, s.metric.scale(4))
    rep1, rep4 = curvature(conn1), curvature(conn4)
    assert rep1.r == rep4.r
    assert len(holonomy_algebra(conn1, rep1)) == len(holonomy_algebra(conn4, rep4))


def test_nabla_r_both_notions_and_annihilates():
    alg = example_a_algebra()
    s = witt_structure()
    conn = levi_civita(alg, s.metric)
    rep = curvature(conn)
    assert not is_locally_symmetric(conn, rep)
    # the endomorphism derivative along f_7 of R(f_5, f_7)
    assert endo_derivative(conn, 6, rep.r[(4, 6)]) == rep.r[(1, 6)].scale(Scalar(Fraction(3, 2)))
    assert annihilates(witt_phi(), []) is True


# Two pairs (eps, ad0) whose holonomy, with the adapted metric of phi_eps,
# is all of so(g): dimension 21, where the closure stops early.
HOLONOMY_21_BASES = (
    (-1, ((0, 0, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0),
          (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))),
    (1, ((0, -1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
         (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))),
)


def _holonomy_21_pairs():
    """Each base pair moved by a dense unimodular frame A = [[A_u, c], [0, 1]]:
    ad = A_u^-1 ad0 A_u and g = A^T g_eps A, an isometric copy of the base."""
    rng = random.Random(55)
    out = []
    for eps, ad0 in HOLONOMY_21_BASES:
        a_u = random_unimodular(rng, 6, shears=12)
        c = [rng.randint(-2, 2) for _ in range(6)]
        a = Matrix([list(a_u.row(i)) + [c[i]] for i in range(6)] + [[0] * 6 + [1]])
        alg = AlmostAbelianAlgebra(7, a_u.inverse() @ Matrix(ad0) @ a_u)
        out.append((alg, a.transpose() @ adapted_metric(eps) @ a))
    return out


def test_holonomy_matches_reference_closure_and_is_g_skew(nabla_r_cases):
    s = witt_structure()
    pairs = [(example_a_algebra(), s.metric), (example_b_algebra(), s.metric)]
    cases = list(nabla_r_cases)
    for alg, g in pairs + _holonomy_21_pairs():
        conn = levi_civita(alg, g)
        cases.append((conn, curvature(conn)))
    dims = []
    for conn, rep in cases:
        basis = holonomy_algebra(conn, rep)
        assert basis == oracle_holonomy(conn, rep)
        for h in basis:
            gh = conn.metric @ h
            assert gh.transpose() == -gh
        dims.append(len(basis))
    assert dims[-4:] == [3, 5, 21, 21]


# (eps, nonzero entries of ad, dimension of the span of the curvature,
# holonomy dimension) with the adapted metric of phi_eps: the holonomy is
# larger than the span of the curvature, so the closure keeps derivatives
HOLONOMY_BEYOND_CURVATURE = (
    (-1, {(1, 0): 1, (2, 1): 1, (4, 1): 1}, 4, 6),
    (-1, {(2, 0): 1, (4, 3): 1, (5, 2): 1}, 11, 15),
    (1, {(1, 0): 1, (2, 1): -1, (5, 1): 1}, 4, 6),
    (1, {(0, 0): 1, (3, 2): 1, (5, 3): -1}, 7, 10),
    (1, {(1, 2): 1, (1, 4): 1, (5, 3): -1}, 9, 10),
)


@pytest.mark.parametrize("eps,entries,span,dim", HOLONOMY_BEYOND_CURVATURE)
def test_holonomy_keeps_derivatives_beyond_the_curvature(eps, entries, span, dim):
    alg = AlmostAbelianAlgebra(7, Matrix.sparse(6, 6, entries))
    conn = levi_civita(alg, adapted_metric(eps))
    rep = curvature(conn)
    curv = [[x for row in m.tolist() for x in row] for m in rep.r.values()]
    assert Matrix(curv).rank() == span
    basis = holonomy_algebra(conn, rep)
    assert len(basis) == dim
    assert basis == oracle_holonomy(conn, rep)
    for h in basis:
        gh = conn.metric @ h
        assert gh.transpose() == -gh


def test_empty_holonomy_candidates_are_the_commuting_pairs():
    """g [nabla_z, h] = Gamma_z h - (Gamma_z h)^T for g-skew h, so the
    candidate _lowered_product(Gamma_z, h) is all zeros exactly when [nabla_z, h] = 0:
    only the product shows which candidates are empty."""
    seen = set()
    for alg, g in sweep_witness_pairs():
        conn = levi_civita(alg, g)
        for h in holonomy_algebra(conn, curvature(conn)):
            for z, gamma in enumerate(conn.christoffel):
                if gamma.is_zero():
                    continue
                empty = all(x.is_zero() for x in _lowered_product(gamma, h).values())
                assert empty is conn.nabla[z].commutator(h).is_zero()
                seen.add(empty)
    assert seen == {True, False}


# -- lowered coordinates -----------------------------------------------------


def _strict_upper(m):
    n = m.rows
    return {a * n + b: x for (a, b), x in m.items() if a < b}


def _nonzero(u):
    return {k: x for k, x in u.items() if not x.is_zero()}


def test_lowered_derivative_and_curvature_on_dense_metrics():
    for alg, g in _dense_cases(3):
        conn = levi_civita(alg, g)
        rep = curvature(conn)
        for key, r in rep.r.items():
            assert rep.lowered[key] == _strict_upper(g @ r)
            assert _raise(conn, rep.lowered[key]) == r
            if r.is_zero():
                continue
            for z, gamma in enumerate(conn.christoffel):
                want = _strict_upper(g @ endo_derivative(conn, z, r))
                assert _nonzero(_lowered_product(gamma, r)) == want


def _lowered_product_pairs():
    """(a, b) pairs for the fused lowered product: dense Q(sqrt2) squares of
    several sizes, sparse ones, zero ones, and pairs that do not commute."""
    rng = random.Random(25)
    pairs = [(random_matrix(rng, n, sqrt2=True), random_matrix(rng, n, sqrt2=True))
             for n in (1, 2, 4, 7, 7)]
    pairs += [(Matrix.sparse(7, 7, {(0, 6): SQRT2, (6, 0): -1, (3, 3): HALF}),
               Matrix.sparse(7, 7, {(6, 2): 2, (0, 5): -SQRT2, (3, 1): 1})),
              (Matrix.zero(7), random_matrix(rng, 7)),
              (random_matrix(rng, 7), Matrix.zero(7)),
              (Matrix.zero(5), Matrix.zero(5))]
    e12, e21 = Matrix.sparse(3, 3, {(0, 1): 1}), Matrix.sparse(3, 3, {(1, 0): 1})
    pairs += [(e12, e21), (e21, e12)]
    for alg, g in sweep_witness_pairs()[1:3]:
        conn = levi_civita(alg, g)
        pairs += [(gamma, h) for gamma in conn.christoffel for h in conn.nabla]
    return pairs


def test_fused_lowered_product_equals_the_formed_product():
    pairs = _lowered_product_pairs()
    assert any(not (a @ b - b @ a).is_zero() for a, b in pairs)
    kinds = set()
    for a, b in pairs:
        got = _nonzero(_lowered_product(a, b))
        assert got == _nonzero(oracle_lowered_product(a, b))
        kinds.add(bool(got))
    assert kinds == {True, False}


def test_nabla_r_where_some_nabla_vanishes():
    """On the curved sweep witnesses most nabla_z vanish.  The scan drops
    those directions, and the full nabla R, read at every triple, still
    equals the dense oracle; the witnesses hold both answers of the scan."""
    answers = set()
    for alg, g in sweep_witness_pairs():
        conn = levi_civita(alg, g)
        rep = curvature(conn)
        still = {z for z, m in enumerate(conn.nabla) if m.is_zero()}
        if rep.is_flat or not still:
            continue
        assert not still & {z for z, _, _ in _curved_triples(conn, rep)}
        for (z, x, y), want in oracle_nabla_r(conn).items():
            assert nabla_r_full(conn, rep, z, x, y).tolist() == want
        answers.add(is_locally_symmetric(conn, rep))
    assert answers == {True, False}


def _basis_change(draw, n=7):
    """A = [[A_u, c], [0, 1]] with A_u a product of integer shears and a
    row permutation (det = +-1) and c an integer shear of f_n."""
    rows = [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    shears = st.tuples(st.integers(0, n - 2), st.integers(0, n - 2), st.integers(-2, 2))
    for i, j, c in draw(st.lists(shears, max_size=8)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    a_u = Matrix([rows[k] for k in draw(st.permutations(range(n - 1)))])
    c = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    a = Matrix([list(a_u.row(i)) + [c[i]] for i in range(n - 1)] + [[0] * (n - 1) + [1]])
    return a_u, a


# Two more pairs (eps, ad0), with holonomy dimension 15 and 2 for the
# adapted metric of phi_eps; the second is locally symmetric, not flat.
HOLONOMY_15_AND_2_BASES = (
    (-1, ((-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0, 0),
          (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, -1, 0, 0))),
    (1, ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0),
         (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))),
)


def _isometry_bases():
    """Base pairs with holonomy dimension 3, 5, 21, 15, 2 and 1 (the last
    two locally symmetric but not flat)."""
    from g2aa.classify import NilpotentParallelParams, nilpotent_structure_matrix

    g = witt_structure().metric
    p = NilpotentParallelParams.of(1, [[1, 0], [0, -1]], (0, 0), (0, 0))
    adapted = [(AlmostAbelianAlgebra(7, Matrix(ad0)), adapted_metric(eps))
               for eps, ad0 in (HOLONOMY_21_BASES[0],) + HOLONOMY_15_AND_2_BASES]
    return [(example_a_algebra(), g), (example_b_algebra(), g), *adapted,
            (AlmostAbelianAlgebra(7, nilpotent_structure_matrix(p)), g)]


def _facts(alg, g):
    conn = levi_civita(alg, g)
    rep = curvature(conn)
    return (len(holonomy_algebra(conn, rep)), rep.is_flat, rep.is_ricci_flat,
            is_locally_symmetric(conn, rep))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(base=st.integers(0, 5), change=st.composite(_basis_change)())
def test_holonomy_and_symmetry_invariant_under_isometric_basis_change(base, change):
    # f'_j = sum_i A[i][j] f_i keeps u and f_n + u, so ad' = A_u^-1 ad A_u and
    # g' = A^T g A is an isometric copy of the pair
    alg, g = _isometry_bases()[base]
    a_u, a = change
    moved = AlmostAbelianAlgebra(7, a_u.inverse() @ alg.ad_matrix @ a_u)
    facts = _facts(moved, a.transpose() @ g @ a)
    assert facts == _facts(alg, g)
    assert facts[0] == (3, 5, 21, 15, 2, 1)[base]
