import random
from fractions import Fraction

import pytest

from g2aa.g2 import phi_model, _action_matrix
from g2aa.linalg import Matrix, kernel, rank, signature
from g2aa.scalars import ONE, ZERO, Scalar

from conftest import plain_gauss_rank, random_matrix, random_unimodular


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


def test_gram_restriction():
    # the metric induced on the span of w's columns is w^T g w
    g = Matrix.diagonal([-1, -1, 1])
    w = Matrix.from_columns([[ONE, ZERO, ONE], [ZERO, ONE, ZERO]])
    assert w.transpose() @ g @ w == Matrix([[0, 0], [0, -1]])
