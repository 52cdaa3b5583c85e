import random
from fractions import Fraction

import pytest

from g2aa.g2 import phi_model, _action_matrix
from g2aa.linalg import Echelon, Matrix, kernel, rank, signature
from g2aa.scalars import ONE, SQRT2, ZERO, Scalar

from conftest import plain_gauss_rank, random_matrix, random_scalar, random_unimodular


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(3)) == []
    assert len(kernel(Matrix.zero(2))) == 2


def test_kernel_of_split_model_action_matrix_is_g2_dimensional():
    # the action of gl(7) on the split model three-form: 14-dimensional
    # kernel, cross-checked against rank + nullity via plain elimination
    action = _action_matrix([phi_model(-1)])
    vecs = action.kernel()
    assert len(vecs) == action.cols - plain_gauss_rank(action) == 14
    for v in vecs:
        assert all(x.is_zero() for x in action.apply(v))


def test_rank_examples():
    assert rank(Matrix.zero(4)) == 0
    # the 4x4 minor of the degenerate nilpotent family at
    # delta=1, v2=0, B=diag(1,1), w=0 drops to rank 3 (plain-Gauss oracle)
    g = Matrix([[-2, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]])
    assert rank(g) == plain_gauss_rank(g) == 3
    # with a nonzero lower-left entry of B the determinant is nonzero
    g2 = Matrix([[-2, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    assert rank(g2) == 4 and not g2.det().is_zero()


def test_rank_of_squared_family_matrix_counts_long_blocks():
    # delta = 0, v = (1,1): the family matrix cubes to zero, and the rank
    # of its square counts the Jordan blocks of size three (at least one)
    from g2aa.classify import NilpotentParallelParams, nilpotent_structure_matrix
    from g2aa.liealg import segre_partition

    for b in ([[1, 0], [0, 0]], [[0, 0], [0, 0]], [[1, 1], [0, -1]]):
        p = NilpotentParallelParams.of(0, b, (1, 1), (0, 0))
        f = nilpotent_structure_matrix(p)
        assert (f @ f @ f).is_zero()
        parts = segre_partition(f).parts
        assert rank(f @ f) == parts.count(3) >= 1


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(2, 5), rng.randint(2, 6), sqrt2=True)
        vecs = m.kernel()
        assert m.rank() + 0 == plain_gauss_rank(m)
        assert len(vecs) == m.cols - m.rank()
        for v in vecs:
            assert all(x.is_zero() for x in m.apply(v))
        # independence: stacked vectors have full rank
        if vecs:
            stacked = Matrix(vecs)
            assert stacked.rank() == len(vecs)


def test_det_multiplicative_and_bareiss_agrees():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_matrix(rng, n, sqrt2=True)
        b = random_matrix(rng, n, sqrt2=True)
        assert (a @ b).det() == a.det() * b.det()


def test_inverse_and_solve():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = random_unimodular(rng, n)
        assert m @ m.inverse() == Matrix.identity(n)
        v = [Scalar(rng.randint(-3, 3)) for _ in range(n)]
        x = m.solve(v)
        assert m.apply(x) == v
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2, 0], [2, 4, 0], [0, 1, 1]]).inverse()


def test_inverse_is_computed_once_per_instance(monkeypatch):
    kernels = []
    original = Matrix.kernel

    def counted(self):
        kernels.append(self.shape)
        return original(self)

    monkeypatch.setattr(Matrix, "kernel", counted)
    m = Matrix([[2, 1, 0], [1, SQRT2, 0], [0, 0, Fraction(1, 3)]])
    first = m.inverse()
    assert m.inverse() is first and m.solve([1, 0, 0]) == list(first.column(0))
    assert kernels == [(3, 6)]
    # an equal but distinct instance keeps its own memo
    assert Matrix(m.tolist()).inverse() == first and len(kernels) == 2
    # a singular matrix is refused on every call, and nothing is kept
    singular = Matrix([[1, 2], [2, 4]])
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            singular.inverse()
    assert len(kernels) == 4


def test_signature_examples():
    assert signature(Matrix.diagonal([-1, -1, -1, -1, 1, 1, 1])) == (3, 4, 0)
    assert signature(Matrix.zero(5)) == (0, 0, 5)
    assert signature(Matrix.identity(4)) == (4, 0, 0)


def test_signature_hyperbolic_pairs():
    # zero diagonal, off-diagonal pairing: one plus and one minus per pair
    m = Matrix([[0, 1], [1, 0]])
    assert signature(m) == (1, 1, 0)
    m2 = Matrix([[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, -1]])
    assert signature(m2) == (1, 2, 0)


def test_signature_congruence_invariant():
    rng = random.Random(14)
    diag = Matrix.diagonal([1, 1, -1, -1, 0])
    for _ in range(40):
        p = random_unimodular(rng, 5)
        m = p.transpose() @ diag @ p
        assert signature(m) == (2, 2, 1)


def test_signature_float_oracle():
    # independent numeric oracle for a non-diagonal exact case
    numpy = pytest.importorskip("numpy")

    def float_signature(m):
        eig = numpy.linalg.eigvalsh(numpy.array(m.to_float()))
        pos = int((eig > 1e-8).sum())
        neg = int((eig < -1e-8).sum())
        return pos, neg, m.rows - pos - neg

    rng = random.Random(15)
    for _ in range(25):
        p = random_unimodular(rng, 6)
        d = Matrix.diagonal([1, 1, 1, -1, -1, -1])
        m = p.transpose() @ d @ p
        assert signature(m) == float_signature(m)
    # the Witt-frame Gram matrix: hyperbolic pairs plus one minus
    from g2aa.g2 import WITT_GRAM

    assert signature(WITT_GRAM) == float_signature(WITT_GRAM) == (3, 4, 0)


def test_signature_against_descartes_rule():
    # independent exact oracle: a symmetric matrix has real eigenvalues
    # only, so Descartes' rule of signs on sympy's characteristic
    # polynomial p over QQ<sqrt(2)> counts the positive ones (the negative
    # ones on p(-x)), and x^z with z the zero count is the largest power
    # of x dividing p
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from g2aa.g2 import WITT_GRAM

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))

    def elem(x: Scalar):
        return field.new([sympy.QQ(x.b.numerator, x.b.denominator),
                          sympy.QQ(x.a.numerator, x.a.denominator)])

    def changes(coeffs):
        signs = [field.to_sympy(c) > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def descartes(m: Matrix):
        p = DomainMatrix([[elem(x) for x in r] for r in m.tolist()],
                         m.shape, field).charpoly()  # highest power first
        n = m.rows
        zeros = next(k for k in range(n + 1) if p[n - k])
        return changes(p), changes([c if (n - k) % 2 == 0 else -c
                                    for k, c in enumerate(p)]), zeros

    rng = random.Random(23)
    a = random_matrix(rng, 5, sqrt2=True)
    b = random_matrix(rng, 3, 6, sqrt2=True)
    u = random_unimodular(rng, 6)
    hyperbolic = Matrix([[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
                         [0, 0, 0, SQRT2, 0, 0], [0, 0, SQRT2, 0, 0, 0],
                         [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1]])
    zero_diagonal = Matrix([[0 if i == j else random_scalar(rng) for j in range(5)]
                            for i in range(5)])
    cases = [
        a + a.transpose(),                                       # indefinite
        (a.transpose() @ a).scale(-1),                           # negative definite
        b.transpose() @ Matrix.diagonal([1, -1, SQRT2]) @ b,     # rank 3 of 6
        u.transpose() @ hyperbolic @ u,                          # degenerate, (2, 3, 1)
        zero_diagonal + zero_diagonal.transpose(),
        WITT_GRAM,
    ]
    for m in cases:
        assert m.signature() == descartes(m)
    assert [descartes(m)[2] for m in cases] == [0, 0, 3, 1, 0, 0]
    assert descartes(WITT_GRAM) == (3, 4, 0)


def test_gram_restriction():
    # the metric induced on the span of w's columns is w^T g w
    g = Matrix.diagonal([-1, -1, 1])
    w = Matrix.from_columns([[ONE, ZERO, ONE], [ZERO, ONE, ZERO]])
    assert w.transpose() @ g @ w == Matrix([[0, 0], [0, -1]])


def test_sparse_storage_with_dense_views():
    # explicit zeros are not stored: equal and hashing alike to the sparse build
    dense = Matrix([[0, 1, 0], ["0", 0, Scalar(0)], [Fraction(1, 2), 0, "sqrt2"]])
    sparse = Matrix.sparse(3, 3, {(0, 1): 1, (1, 1): 0, (2, 0): Fraction(1, 2),
                                  (2, 2): Scalar(0, 1)})
    assert dense == sparse and hash(dense) == hash(sparse)
    assert sorted(ij for ij, _ in dense.items()) == [(0, 1), (2, 0), (2, 2)]
    # row, column and tolist are dense
    assert dense.row(1) == (ZERO, ZERO, ZERO)
    assert dense.column(0) == (ZERO, ZERO, Scalar(Fraction(1, 2)))
    assert dense.tolist() == [[ZERO, ONE, ZERO], [ZERO] * 3,
                              [Scalar(Fraction(1, 2)), ZERO, Scalar(0, 1)]]
    assert dense[-1, -1] == Scalar(0, 1) and dense[1, 2] == ZERO
    with pytest.raises(IndexError):
        dense[3, 0]
    with pytest.raises(IndexError):
        Matrix.sparse(2, 2, {(0, 2): 1})
    # results that cancel to zero store no entries
    a = Matrix([[1, 2], [3, "sqrt2"]])
    nil = Matrix([[0, 1], [0, 0]])
    for zero in (a - a, a + (-a), a.scale(0), nil @ nil,
                 Matrix([[1, 1]]) @ Matrix([[1], [-1]]), a.commutator(a)):
        assert list(zero.items()) == [] and zero.is_zero()
    assert a - a == Matrix.zero(2) and hash(a - a) == hash(Matrix.zero(2))


def _sparse_random(rng, rows, cols, density=0.6):
    return Matrix([[random_scalar(rng) if rng.random() < density else ZERO
                    for _ in range(cols)] for _ in range(rows)])


def _oracle_cases(rng):
    """Square, wide, tall and rank-deficient matrices over Q(sqrt2) with
    fractional entries."""
    for _ in range(12):
        n = rng.randint(1, 5)
        yield _sparse_random(rng, n, n)
        yield _sparse_random(rng, rng.randint(1, 4), rng.randint(5, 7))
        yield _sparse_random(rng, rng.randint(5, 7), rng.randint(1, 4))
        k, r, c = rng.randint(1, 3), rng.randint(3, 6), rng.randint(3, 6)
        yield _sparse_random(rng, r, k, 0.8) @ _sparse_random(rng, k, c, 0.8)
        yield _sparse_random(rng, r, k, 0.8) @ _sparse_random(rng, k, r, 0.8)


def test_solvers_against_sympy():
    # independent oracle: sympy's DomainMatrix over QQ<sqrt(2)>
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))

    def elem(x: Scalar):
        # coefficients of the generator sqrt(2), highest power first
        return field.new([sympy.QQ(x.b.numerator, x.b.denominator),
                          sympy.QQ(x.a.numerator, x.a.denominator)])

    assert field.to_sympy(elem(Scalar(Fraction(1, 2), Fraction(-3, 5)))) == (
        sympy.Rational(1, 2) - sympy.Rational(3, 5) * sympy.sqrt(2))

    def dm(rows):
        return DomainMatrix([[elem(x) for x in r] for r in rows],
                            (len(rows), len(rows[0])), field)

    rng = random.Random(17)
    deficient = 0
    for m in _oracle_cases(rng):
        ref = dm(m.tolist())
        assert m.rank() == ref.rank()
        deficient += m.rank() < min(m.shape)
        if m.rows == m.cols:
            assert elem(m.det()) == ref.det()
        vecs = m.kernel()
        ref_null = ref.nullspace().to_list()
        assert len(vecs) == len(ref_null) == m.cols - ref.rank()
        # the same basis: one vector per non-pivot column of the reduced
        # echelon form, 1 there and 0 at the other non-pivot columns (sympy
        # leaves its vectors unnormalized)
        free = [c for c in range(m.cols) if c not in ref.rref()[1]]
        for x, y, c in zip(vecs, ref_null, free):
            assert [elem(t) for t in x] == [field.quo(t, y[c]) for t in y]
    assert deficient >= 20


def test_echelon_incremental_rank_and_dependence():
    rng = random.Random(18)
    for _ in range(30):
        cols = rng.randint(2, 7)
        rows = [list(_sparse_random(rng, 1, cols).row(0)) for _ in range(rng.randint(1, 6))]
        # interleave rows that depend on the ones before them
        for _ in range(2):
            k = rng.randint(1, len(rows))
            c = [random_scalar(rng) for _ in range(k)]
            rows.insert(k, [sum((a * r[j] for a, r in zip(c, rows[:k])), ZERO)
                            for j in range(cols)])
        e = Echelon()
        for k, row in enumerate(rows, 1):
            before = len(e.pivots)
            kept = e.add(dict(enumerate(row)))
            assert len(e.pivots) == plain_gauss_rank(Matrix(rows[:k]))
            assert kept == (len(e.pivots) > before)
        # a sqrt2- and fraction-weighted combination of the rows is dependent
        weights = [Scalar(Fraction(rng.randint(1, 5), rng.randint(2, 7)),
                          Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(2, 7)))
                   for _ in rows]
        combo = {j: sum((w * r[j] for w, r in zip(weights, rows)), ZERO) for j in range(cols)}
        rank = len(e.pivots)
        assert e.add(combo) is False
        assert len(e.pivots) == rank
        assert e.add({}) is False
