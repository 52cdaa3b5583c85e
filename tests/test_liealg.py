import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from g2aa.exterior import DimensionMismatchError, KForm, wedge
from g2aa.g2 import certify_g2, witt_phi
from g2aa.liealg import (
    AlmostAbelianAlgebra,
    NILPOTENT_CATALOG,
    NonNilpotentError,
    SegrePartition,
    catalog_entry_for_partition,
    differential,
    identify_nilpotent,
    is_stabilized,
    segre_partition,
)
from g2aa.linalg import Matrix
from g2aa.scalars import Scalar

from conftest import oracle_differential, random_algebra, random_form, random_unimodular


def example_a_algebra():
    rows = [[0] * 6 for _ in range(6)]
    rows[0][2] = -1
    rows[2][3] = -1
    rows[1][4] = -1
    rows[4][5] = -1
    return AlmostAbelianAlgebra(7, Matrix(rows))


def test_differential_one_form():
    alg = example_a_algebra()
    # oracle: (d f^1)(X, Y) = -f^1([X, Y]), nonzero only on (f_3, f_7)
    got = differential(alg, KForm.basis(7, 1))
    assert got == oracle_differential(alg, KForm.basis(7, 1))
    assert got == KForm.build(7, 2, [(-1, 3, 7)])


def test_differential_witt_structure():
    alg = example_a_algebra()
    phi = witt_phi()
    assert differential(alg, phi).is_zero()
    star = certify_g2(phi).star_phi()
    assert differential(alg, star) == KForm.build(7, 5, [(-1, 2, 3, 5, 6, 7)])


def test_differential_matches_oracle_randomized():
    # every degree 0..n, so the top degrees n - 1 and n are compared too;
    # fractional ad-matrices with sqrt2 entries, so that gl_action multiplies
    # a sqrt2 part of A by a sqrt2 part of a coefficient
    rng = random.Random(31)
    for _ in range(40):
        alg = random_algebra(rng, n=rng.choice([4, 5, 6, 7]), sqrt2=True)
        f = random_form(rng, alg.n, rng.randint(0, alg.n), sqrt2=rng.random() < 0.5)
        assert differential(alg, f) == oracle_differential(alg, f)


def test_d_squared_zero_and_leibniz():
    rng = random.Random(32)
    for _ in range(60):
        alg = random_algebra(rng, n=rng.choice([5, 6, 7]))
        a = random_form(rng, alg.n, rng.randint(1, 2))
        b = random_form(rng, alg.n, rng.randint(1, 2))
        da = differential(alg, a)
        assert differential(alg, da).is_zero()
        lhs = differential(alg, wedge(a, b))
        rhs = wedge(da, b) + wedge(a, differential(alg, b)).scale((-1) ** a.degree)
        assert lhs == rhs


scalars = st.builds(lambda p, q, r, s: Scalar(Fraction(p, q), Fraction(r, s)),
                    st.integers(-2, 2), st.integers(1, 3), st.integers(-2, 2), st.integers(1, 3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(3, 7))
def test_d_squared_zero_on_random_algebras_and_forms(data, n):
    ad = data.draw(st.lists(st.lists(scalars, min_size=n - 1, max_size=n - 1),
                            min_size=n - 1, max_size=n - 1))
    alg = AlmostAbelianAlgebra(n, Matrix(ad))
    k = data.draw(st.integers(0, n))
    idx = data.draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), k))),
                             min_size=1, max_size=5, unique=True))
    a = KForm(n, k, {i: data.draw(scalars) for i in idx})
    da = differential(alg, a)
    assert da == oracle_differential(alg, a)
    assert differential(alg, da).is_zero()
    assert oracle_differential(alg, da).is_zero()


def is_closed(alg, f):
    """Is the form f on the ideal u closed as a form on the algebra?"""
    return differential(alg, KForm(alg.n, f.degree, dict(f.items()))).is_zero()


def test_is_closed_equals_is_stabilized():
    rng = random.Random(33)
    abelian = AlmostAbelianAlgebra(5, Matrix.zero(4))
    any_form = random_form(rng, 4, 2)
    assert is_stabilized(abelian, any_form) and is_closed(abelian, any_form)
    for _ in range(40):
        alg = random_algebra(rng, n=rng.choice([5, 6, 7]))
        f = random_form(rng, alg.n - 1, rng.randint(1, 3))
        assert is_closed(alg, f) == is_stabilized(alg, f)


def test_is_closed_examples():
    # example A: the structure form restricted to the ideal is closed, its
    # dual four-form part is not
    alg = example_a_algebra()
    phi_u = KForm(6, 3, {idx: c for idx, c in witt_phi().items() if 7 not in idx})
    assert is_stabilized(alg, phi_u)
    star = certify_g2(witt_phi()).star_phi()
    star_u = KForm(6, 4, {idx: c for idx, c in star.items() if 7 not in idx})
    assert not is_stabilized(alg, star_u)
    # diagonal example: d star has a nonzero ideal part
    alg_b = AlmostAbelianAlgebra(7, Matrix.diagonal([2, -1, 2, 2, -1, -1]))
    assert is_stabilized(alg_b, phi_u)
    assert not is_stabilized(alg_b, star_u)
    # is_stabilized takes a form on the ideal only
    with pytest.raises(DimensionMismatchError):
        is_stabilized(alg, KForm(7, 3, dict(phi_u.items())))


def test_segre_partition_examples():
    assert segre_partition(Matrix.zero(6)).parts == (1, 1, 1, 1, 1, 1)
    assert segre_partition(example_a_algebra().ad_matrix).parts == (3, 3)
    jordan6 = Matrix([[1 if j == i + 1 else 0 for j in range(6)] for i in range(6)])
    assert segre_partition(jordan6).parts == (6,)


def test_segre_partition_rejects_non_nilpotent():
    with pytest.raises(NonNilpotentError):
        segre_partition(Matrix.identity(3))


def _nilpotent_jordan(parts) -> Matrix:
    """The nilpotent Jordan matrix with blocks of the given sizes."""
    entries, start = {}, 0
    for size in parts:
        entries.update({(start + k, start + k + 1): 1 for k in range(size - 1)})
        start += size
    return Matrix.sparse(start, start, entries)


def test_segre_partition_stops_at_the_first_zero_power(monkeypatch):
    """Every catalog partition, conjugated by a unimodular P, comes back
    with at most (largest part) rank computations; non-nilpotent inputs,
    those whose powers stall at a nonzero rank included, are refused."""
    rng = random.Random(71)
    rank = Matrix.rank
    calls = []

    def counted(self):
        calls.append(1)
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    for entry in NILPOTENT_CATALOG:
        parts = entry.partition.parts
        p = random_unimodular(rng, 6, shears=10)
        m = p.inverse() @ _nilpotent_jordan(parts) @ p
        calls.clear()
        assert segre_partition(m).parts == parts
        assert len(calls) <= parts[0]
    j33 = _nilpotent_jordan((3, 3))
    stalled = Matrix.sparse(6, 6, {**dict(_nilpotent_jordan((3, 2)).items()), (5, 5): 1})
    # J_2(1) + diag(1, 2, -1, 0), as in the undecidable inputs of decide
    j2 = Matrix.sparse(6, 6, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1, (3, 3): 2, (4, 4): -1})
    p = random_unimodular(rng, 6, shears=10)
    for m in (Matrix.identity(6), j33 + Matrix.identity(6).scale(Scalar(0, 1)), stalled,
              p.inverse() @ stalled @ p, p.inverse() @ j2 @ p, Matrix.diagonal([0] * 5 + [-2])):
        with pytest.raises(NonNilpotentError):
            segre_partition(m)


def test_segre_similarity_and_scaling_invariance():
    rng = random.Random(34)
    base = example_a_algebra().ad_matrix
    for _ in range(25):
        p = random_unimodular(rng, 6)
        conj = p.inverse() @ base @ p
        assert segre_partition(conj).parts == (3, 3)
        scaled = conj.scale(Scalar(rng.choice([1, -1, 2, 3])))
        assert segre_partition(scaled).parts == (3, 3)
        alg = AlmostAbelianAlgebra(7, scaled)
        assert identify_nilpotent(alg).name == "n_{7,2}"


def test_identify_nilpotent_examples():
    assert identify_nilpotent(AlmostAbelianAlgebra(7, Matrix.zero(6))).name == "R^7"
    assert identify_nilpotent(example_a_algebra()).name == "n_{7,2}"
    entry = catalog_entry_for_partition(SegrePartition((3, 1, 1, 1)))
    assert entry.name == "A_{4,1}+R^3"


def test_identify_rejects_non_nilpotent():
    alg = AlmostAbelianAlgebra(7, Matrix.diagonal([1, 0, 0, 0, 0, 0]))
    with pytest.raises(NonNilpotentError):
        identify_nilpotent(alg)


def test_catalog_is_complete():
    assert len(NILPOTENT_CATALOG) == 11
    partitions = {e.partition.parts for e in NILPOTENT_CATALOG}
    assert len(partitions) == 11
    assert all(e.partition.total == 6 for e in NILPOTENT_CATALOG)
    # the catalog brackets realize their own partitions: rebuild each ad
    # matrix from the dual-bracket strings and identify it
    for entry in NILPOTENT_CATALOG:
        ad = _ad_from_brackets(entry.dual_brackets)
        if ad is not None:
            assert segre_partition(ad).parts == entry.partition.parts
        # and so does the nilpotent Jordan matrix with the entry's blocks
        assert segre_partition(_nilpotent_jordan(entry.partition.parts)) == entry.partition


def _ad_from_brackets(brackets):
    """Reconstruct ad(generator) from dual-notation brackets when the
    generator index is determined (appears in every nonzero de^i)."""
    pairs = []
    for i, b in enumerate(brackets):
        if b == "0":
            continue
        idx = [int(ch) for ch in b.replace("e", "")]
        pairs.append((i + 1, idx))
    if not pairs:
        return Matrix.zero(6)
    shared = set.intersection(*(set(idx) for _, idx in pairs))
    if not shared:
        return None
    gen = max(shared)
    others = [k for k in range(1, 8) if k != gen]
    col = {k: pos for pos, k in enumerate(others)}
    rows = [[0] * 6 for _ in range(6)]
    for target, idx in pairs:
        src = next(k for k in idx if k != gen)
        # de^t = e^{s g} means [f_s, f_g] = -f_t up to orientation; only the
        # chain structure matters for the partition, so fix the sign +1
        rows[col[target]][col[src]] = 1
    return Matrix(rows)


def test_algebra_json_round_trip():
    alg = example_a_algebra()
    assert AlmostAbelianAlgebra.from_json(alg.to_json()) == alg
