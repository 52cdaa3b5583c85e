"""Shared helpers: seeded random generators for exact objects and
independent oracles used to cross-check the library's own routines."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from g2aa.classify import NilpotentParallelParams, build_instance
from g2aa.exterior import KForm, interior, pullback, wedge
from g2aa.g2 import bilinear_volume_form, phi_model
from g2aa.geometry import endo_derivative
from g2aa.liealg import AlmostAbelianAlgebra
from g2aa.linalg import Echelon, Matrix
from g2aa.scalars import HALF, ONE, SQRT2, ZERO, Scalar


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_scalar(rng, span=4, sqrt2=True):
    a = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    b = Fraction(rng.randint(-span, span), rng.randint(1, 3)) if sqrt2 else 0
    return Scalar(a, b)


def random_matrix(rng, rows, cols=None, span=3, sqrt2=False):
    cols = rows if cols is None else cols
    return Matrix(
        [[random_scalar(rng, span, sqrt2) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng, n, shears=6):
    """Product of integer shears and permutation swaps: det = +-1, exact."""
    m = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = Scalar(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] = m[i][k] + c * m[j][k]
        if rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            m[a], m[b] = m[b], m[a]
    return Matrix(m)


def random_form(rng, dim, degree, terms=3, span=3, sqrt2=False):
    tuples = list(combinations(range(1, dim + 1), degree))
    chosen = rng.sample(tuples, min(terms, len(tuples)))
    return KForm(dim, degree, {t: random_scalar(rng, span, sqrt2) for t in chosen})


def random_algebra(rng, n=7, span=2, sqrt2=False):
    return AlmostAbelianAlgebra(n, random_matrix(rng, n - 1, span=span, sqrt2=sqrt2))


# The witness points (delta, B, v, w) of the nilpotent degenerate sweep.
SWEEP_WITNESSES = (
    (1, (0, 0, 0, 0), (0, 0), (0, 0)),
    (1, (0, 0, 1, 0), (0, 0), (0, 0)),
    (1, (1, 0, 1, 0), (0, 0), (0, 0)),
    (1, (1, 0, 0, -1), (0, 0), (0, 0)),
    (1, (0, 0, 0, 0), (1, 0), (0, 0)),
    (1, (1, 0, 0, 1), (0, 1), (1, 0)),
    (-1, (0, 1, 1, 1), (0, 1), (0, 1)),
    (0, (1, 0, 0, 0), (1, 1), (0, 0)),
    (0, (0, 0, 0, 0), (1, 1), (0, 0)),
    (0, (1, 0, 0, 1), (0, 0), (0, 0)),
    (0, (1, 0, 0, -1), (0, 0), (0, 0)),
    (0, (0, 0, 0, 0), (0, 0), (1, 0)),
    (0, (0, 0, 0, 0), (0, 0), (0, 0)),
)


def sweep_params(delta, b, v, w) -> NilpotentParallelParams:
    return NilpotentParallelParams.of(delta, [[b[0], b[1]], [b[2], b[3]]], v, w)


def sweep_witness_pairs() -> list:
    """(algebra, Witt metric) of the built instance at each sweep witness."""
    out = []
    for point in SWEEP_WITNESSES:
        inst = build_instance(sweep_params(*point))
        out.append((inst.algebra, inst.structure.metric))
    return out


def witness_block_matrix(a3: Matrix, b3: Matrix) -> Matrix:
    """The 6x6 block matrix [[A, 0], [B, A]] of a witness pair (A, B)."""
    entries = {(3 + i, j): x for (i, j), x in b3.items()}
    for (i, j), x in a3.items():
        entries[(i, j)] = entries[(3 + i, 3 + j)] = x
    return Matrix.sparse(6, 6, entries)


def signature_cases(rng) -> list[Matrix]:
    """Symmetric matrices for each path of the rank-one congruence of
    ``Matrix.signature``: a zero diagonal on which row i + row j cancels an
    entry; three hyperbolic planes, one e_i + e_j step each; a hyperbolic
    block inside a definite one; a rank-2 matrix with sqrt2 entries; and
    the bilinear form B of a dense three-form, scaled by 10^40."""
    planes = Matrix.sparse(6, 6, {(0, 1): 1, (2, 3): -SQRT2, (4, 5): HALF})
    v = Matrix([[1, SQRT2, 0, ONE - SQRT2, 2]])
    w = Matrix([[0, 1, SQRT2, 1, 0]])
    phi = pullback(random_matrix(rng, 7, sqrt2=True), phi_model(1))
    return [
        Matrix([[0, 1, 1, 0], [1, 0, -1, 2], [1, -1, 0, 1], [0, 2, 1, 0]]),
        planes + planes.transpose(),
        Matrix([[2, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 3]]),
        (v.transpose() @ v).scale(SQRT2) - w.transpose() @ w,
        bilinear_volume_form(phi).scale(10**40),
    ]


def is_abelian_family(endos: list[Matrix]) -> bool:
    """Do the endomorphisms commute pairwise?"""
    return all(endos[i].commutator(endos[j]).is_zero()
               for i in range(len(endos)) for j in range(i + 1, len(endos)))


# -- independent oracles -----------------------------------------------------


def inversion_sign(seq):
    """Permutation sign by counting inversions (used as the wedge oracle)."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
            elif seq[i] == seq[j]:
                return 0
    return sign


def oracle_differential(algebra: AlmostAbelianAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential computed directly from brackets:
    (d a)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i, X_j], ..hat i..hat j..).

    Completely independent of the gl-action route used by the library.
    """
    n = algebra.n
    k = a.degree
    out = {}
    for idx in combinations(range(1, n + 1), k + 1):
        acc = ZERO
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                br = algebra.bracket(idx[p], idx[q])
                rest = [idx[r] for r in range(k + 1) if r not in (p, q)]
                val = ZERO
                for m, c in enumerate(br):
                    if c.is_zero():
                        continue
                    seq = [m + 1] + rest
                    sg = inversion_sign(seq)
                    if sg == 0:
                        continue
                    coeff = a.coefficient(*sorted(seq))
                    if not coeff.is_zero():
                        val = val + (c if sg > 0 else -c) * coeff
                if not val.is_zero():
                    acc = acc + (-val if (p + q) % 2 else val)
        if not acc.is_zero():
            out[idx] = acc
    return KForm(n, k + 1, out)


def oracle_form_inner(a: KForm, b: KForm, metric: Matrix) -> Scalar:
    """<a, b>_g via full index raising: (1/k!) a_{I} b^{I} over all ordered
    index tuples; independent of the library's minor-based pairing."""
    k = a.degree
    ginv = metric.inverse()
    acc = ZERO
    fact = 1
    for m in range(2, k + 1):
        fact *= m
    for i_idx, c in a.items():
        for j_idx, d in b.items():
            # sum over permutations sigma of j_idx: prod ginv[i, sigma(j)] sign
            for perm in permutations(range(k)):
                sg = inversion_sign(perm)
                prod = ONE
                ok = True
                for s in range(k):
                    e = ginv[i_idx[s] - 1, j_idx[perm[s]] - 1]
                    if e.is_zero():
                        ok = False
                        break
                    prod = prod * e
                if ok:
                    term = c * d * prod
                    acc = acc + (term if sg > 0 else -term)
    return acc


def plain_gauss_rank(m: Matrix) -> int:
    """Field Gaussian elimination, used as the rank oracle."""
    a = m.tolist()
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = a[r][c].inverse()
        a[r] = [inv * x for x in a[r]]
        for i in range(nr):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(nc)]
        r += 1
        if r == nr:
            break
    return r


def oracle_levi_civita(algebra: AlmostAbelianAlgebra, metric: Matrix) -> list:
    """nabla_{f_i} as dense lists from the Koszul formula summed over every
    index triple, 2 g(nabla_i f_j, f_k) = g([f_i, f_j], f_k)
    - g([f_j, f_k], f_i) + g([f_k, f_i], f_j), brackets read one pair at a
    time; independent of the library's closed form in g A."""
    n = algebra.n
    ginv = metric.inverse()
    gb = [[metric.apply(algebra.bracket(i + 1, j + 1)) for j in range(n)] for i in range(n)]
    half = Scalar(Fraction(1, 2))
    out = []
    for i in range(n):
        rhs = Matrix.from_columns(
            [[half * (gb[i][j][k] - gb[j][k][i] + gb[k][i][j]) for k in range(n)]
             for j in range(n)])
        out.append((ginv @ rhs).tolist())
    return out


def oracle_lowered_product(a: Matrix, b: Matrix) -> dict:
    """The strict upper entries of p - p^T for p = a @ b, as {i n + j: entry}
    for i < j, read off the formed product p; zero entries may remain.  The
    two-step form of the library's fused ``_lowered_product``."""
    p = a @ b
    n = p.rows
    out: dict = {}
    for (i, j), x in p.items():
        if i < j:
            out[i * n + j] = out.get(i * n + j, ZERO) + x
        elif i > j:
            out[j * n + i] = out.get(j * n + i, ZERO) - x
    return out


def _dense_lin(n, terms):
    """sum c * m over (c, m) in terms, on n x n dense lists."""
    out = [[ZERO] * n for _ in range(n)]
    for c, m in terms:
        if c.is_zero():
            continue
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + c * m[i][j]
    return out


def _dense_commutator(a, b):
    n = len(a)

    def mm(x, y):
        return [[sum((x[i][k] * y[k][j] for k in range(n)), ZERO) for j in range(n)]
                for i in range(n)]

    return _dense_lin(n, [(ONE, mm(a, b)), (-ONE, mm(b, a))])


def oracle_curvature(conn) -> list:
    """R(f_i, f_j) for every i, j as dense lists, from the definition
    R(f_i, f_j) = [nabla_i, nabla_j] - nabla_{[f_i, f_j]}, the bracket read
    one pair at a time from ``AlmostAbelianAlgebra.bracket``; independent
    of the library's lowered coordinates and of its bracket shortcut."""
    n = conn.algebra.n
    nab = [m.tolist() for m in conn.nabla]
    return [[_dense_lin(n, [(ONE, _dense_commutator(nab[i], nab[j]))]
                        + [(-c, nab[k]) for k, c in enumerate(conn.algebra.bracket(i + 1, j + 1))])
             for j in range(n)] for i in range(n)]


def oracle_ricci(r: list) -> list:
    """Ric(f_i, f_j) = tr(Z -> R(Z, f_i) f_j) = sum_k R(f_k, f_i)[k][j]."""
    n = len(r)
    return [[sum((r[k][i][k][j] for k in range(n)), ZERO) for j in range(n)]
            for i in range(n)]


def oracle_nabla_r(conn) -> dict:
    """Every (nabla_z R)(f_x, f_y), x < y, as dense lists, from the
    definitions alone: R from ``oracle_curvature`` and
    (nabla_z R)(X, Y) = [nabla_z, R(X, Y)] - R(nabla_z X, Y) - R(X, nabla_z Y),
    on dense lists of lists."""
    n = conn.algebra.n
    nab = [m.tolist() for m in conn.nabla]
    r = oracle_curvature(conn)

    def r_of(u, w):
        return _dense_lin(n, [(u[i] * w[j], r[i][j]) for i in range(n) for j in range(n)])

    def unit(k):
        return [ONE if i == k else ZERO for i in range(n)]

    out = {}
    for z in range(n):
        col = [[nab[z][i][k] for i in range(n)] for k in range(n)]
        for x in range(n):
            for y in range(x + 1, n):
                out[(z, x, y)] = _dense_lin(n, [(ONE, _dense_commutator(nab[z], r[x][y])),
                                                (-ONE, r_of(col[x], unit(y))),
                                                (-ONE, r_of(unit(x), col[y]))])
    return out


def oracle_holonomy(conn, report) -> list:
    """The holonomy closure from its definition, with no early stop: the
    curvature endomorphisms, then the covariant derivatives of every newly
    independent element along every basis direction, round after round
    until a round adds nothing, keeping the first independent elements."""
    n = conn.algebra.n
    echelon = Echelon()

    def independent(m: Matrix) -> bool:
        return echelon.add({i * n + j: x for (i, j), x in m.items()})

    basis = [m for m in report.r.values() if independent(m)]
    frontier = list(basis)
    while frontier:
        new_frontier = []
        for m in frontier:
            for z in range(n):
                d = endo_derivative(conn, z, m)
                if independent(d):
                    basis.append(d)
                    new_frontier.append(d)
        frontier = new_frontier
    return basis


def oracle_bilinear_form(phi: KForm) -> Matrix:
    """B(v, w) = (1/6)(v -| phi)^(w -| phi)^phi as the top coefficient of
    the full wedge of wedges, entry by entry; zero when that wedge is not a
    top form."""
    n = phi.dim
    top = tuple(range(1, n + 1))
    if 3 * phi.degree - 2 != n:
        return Matrix.zero(n)
    hooks = [interior([ONE if k == i else ZERO for k in range(n)], phi) for i in range(n)]
    sixth = Scalar(Fraction(1, 6))
    return Matrix([[sixth * wedge(wedge(hooks[i], hooks[j]), phi).coefficient(*top)
                    for j in range(n)] for i in range(n)])


def oracle_pullback(m: Matrix, a: KForm) -> KForm:
    """m^* a by minors, (m^* a)_J = sum_I a_I det m[I, J], each minor a
    Leibniz sum over permutations in plain Scalar arithmetic; independent
    of the library's expansion in integer pairs."""
    k = a.degree
    out = {}
    for jdx in combinations(range(1, m.cols + 1), k):
        acc = ZERO
        for idx, c in a.items():
            minor = ZERO
            for perm in permutations(range(k)):
                prod = ONE
                for s in range(k):
                    prod = prod * m[idx[s] - 1, jdx[perm[s]] - 1]
                minor = minor + prod * inversion_sign(perm)
            acc = acc + c * minor
        out[jdx] = acc
    return KForm(m.cols, k, out)
