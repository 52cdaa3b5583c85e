import random
from fractions import Fraction

import pytest

from g2aa.exterior import DegenerateMetricError, KForm, gl_action
from g2aa.g2 import adapted_metric, certify_g2, witt_phi
from g2aa.geometry import (
    analyze,
    annihilates,
    curvature,
    endo_derivative,
    holonomy_algebra,
    is_abelian_family,
    is_locally_symmetric,
    levi_civita,
    nabla_r,
    nabla_r_full,
)
from g2aa.liealg import AlmostAbelianAlgebra, differential
from g2aa.linalg import Matrix
from g2aa.scalars import ONE, ZERO, Scalar

from conftest import (oracle_holonomy, oracle_levi_civita, oracle_nabla_r, random_matrix,
                      random_scalar, random_unimodular)


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


def test_levi_civita_equals_dense_koszul():
    rng = random.Random(61)
    for _ in range(24):
        n = rng.choice([4, 5, 6, 7])
        alg = AlmostAbelianAlgebra(n, random_matrix(rng, n - 1, span=3, sqrt2=True))
        g = random_dense_metric(rng, n)
        conn = levi_civita(alg, g)
        assert [m.tolist() for m in conn.nabla] == oracle_levi_civita(alg, g)


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
    """(conn, curvature, nabla_r) for six random 5-dimensional algebras and
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
        rep = curvature(conn)
        out.append((conn, rep, nabla_r(conn, rep)))
    return out


def test_second_bianchi_random(nabla_r_cases):
    for conn, rep, _ in nabla_r_cases:
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
    for conn, rep, data in nabla_r_cases:
        expected = oracle_nabla_r(conn)
        assert set(data.full_tensor) == set(expected)
        for (z, x, y), want in expected.items():
            got = data.full_tensor[(z, x, y)]
            assert got.tolist() == want
            assert nabla_r_full(conn, rep, z, y, x) == -got
        symmetric = all(all(x.is_zero() for row in m for x in row) for m in expected.values())
        assert is_locally_symmetric(conn, rep) is data.is_locally_symmetric is symmetric
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
    data = nabla_r(conn, rep)
    assert not data.is_locally_symmetric
    # endo derivative along f_7 of R(f_5,f_7) is reported too
    key = (6, 4, 6)
    assert data.endo_derivatives[key] == rep.r[(1, 6)].scale(Scalar(Fraction(3, 2)))
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
    cases = [(conn, rep) for conn, rep, _ in nabla_r_cases]
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
