import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest

from g2aa.exterior import gl_action
from g2aa.g2 import certify_g2, rho_model, rho_null_model, stabilizer_algebra, witt_phi
from g2aa.geometry import analyze, curvature, levi_civita
from g2aa.liealg import (NILPOTENT_CATALOG, AlmostAbelianAlgebra, SegrePartition,
                         identify_nilpotent, segre_partition)
from conftest import SWEEP_WITNESSES, random_unimodular, sweep_params, witness_block_matrix
from g2aa.classify import (
    CALIBRATED_MODES,
    NULL_PAIR_BASIS,
    PARALLEL_MODES,
    Decision,
    NilpotentParallelParams,
    NilpotentReport,
    ParallelFamilyParams,
    blockdiag,
    build_instance,
    calibrated_decision,
    is_parallel_witt,
    nilpotent_parallel_report,
    nilpotent_witnesses,
    parallel_nondeg_decision,
    pipeline_report,
    regenerate_table1,
    rotation_block,
    shape_24,
    structure_matrix,
    sweep_parameter_grid,
    sweep_sample,
    table1_diff,
)
from g2aa.liealg import differential
from g2aa.linalg import Matrix
from g2aa.scalars import DomainError, Scalar


PARTITIONS_OF_6 = [
    (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
    (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
]


def rnd2(rng):
    return Matrix([[rng.randint(-2, 2), rng.randint(-2, 2)],
                   [rng.randint(-2, 2), rng.randint(-2, 2)]])


# -- structure matrices and the Witt pattern ---------------------------------------


def test_is_parallel_witt_zero_matrix():
    ok, extracted = is_parallel_witt(Matrix.zero(6))
    assert ok
    a2, b2, v, w = extracted
    assert a2.is_zero() and b2.is_zero()
    assert all(x.is_zero() for x in v) and all(x.is_zero() for x in w)


def test_is_parallel_witt_rejects_block_violation():
    m = Matrix.zero(6).tolist()
    m[2][0] = Scalar(1)  # the (3,1) entry must vanish in the family
    ok, extracted = is_parallel_witt(Matrix(m))
    assert not ok and extracted is None


def test_is_parallel_witt_equals_differential_conditions():
    # pattern match iff both the structure form and its dual are closed
    rng = random.Random(61)
    star = certify_g2(witt_phi()).star_phi()
    hits = 0
    for _ in range(120):
        if rng.random() < 0.5:
            m = structure_matrix(rnd2(rng), rnd2(rng),
                                 (rng.randint(-2, 2), rng.randint(-2, 2)),
                                 (rng.randint(-2, 2), rng.randint(-2, 2)))
            if rng.random() < 0.5:
                # random single-entry corruption
                rowsm = m.tolist()
                i, j = rng.randrange(6), rng.randrange(6)
                rowsm[i][j] = rowsm[i][j] + Scalar(rng.choice([1, -1]))
                m = Matrix(rowsm)
        else:
            m = Matrix([[rng.randint(-1, 1) for _ in range(6)] for _ in range(6)])
        alg = AlmostAbelianAlgebra(7, m)
        closed = differential(alg, witt_phi()).is_zero() and differential(alg, star).is_zero()
        ok, _ = is_parallel_witt(m)
        assert ok == closed
        hits += ok
    assert hits > 10  # the sample exercises both outcomes


def test_example_a_matrix_is_calibrated_but_not_parallel_witt():
    rows = [[0] * 6 for _ in range(6)]
    rows[0][2] = -1
    rows[2][3] = -1
    rows[1][4] = -1
    rows[4][5] = -1
    m = Matrix(rows)
    ok, _ = is_parallel_witt(m)
    assert not ok  # closed but not coclosed
    alg = AlmostAbelianAlgebra(7, m)
    assert differential(alg, witt_phi()).is_zero()


# -- build_instance ------------------------------------------------------------------


def test_build_nilpotent_instances():
    p0 = NilpotentParallelParams.of(1, [[0, 0], [0, 0]], (0, 0), (0, 0))
    inst = build_instance(p0)
    conn = levi_civita(inst.algebra, inst.structure.metric)
    assert curvature(conn).is_flat
    p1 = NilpotentParallelParams.of(1, [[0, 0], [1, 0]], (0, 0), (0, 0))
    inst1 = build_instance(p1)
    rep = nilpotent_parallel_report(p1)
    assert rep.hol_dim == 2


def test_build_family_instances_are_parallel():
    rng = random.Random(62)
    cases = [
        ParallelFamilyParams(family="g2_su3", reals=(0, 0)),
        ParallelFamilyParams(family="g2_su3", reals=(2, -1)),
        ParallelFamilyParams(family="g2star_24", case=1, reals=(1, 2)),
        ParallelFamilyParams(family="g2star_24", case=2, reals=(-2, 1)),
        ParallelFamilyParams(family="g2star_24", case=3, reals=(2,)),
        ParallelFamilyParams(family="g2star_24", case=4),
        ParallelFamilyParams(
            family="g2star_33",
            block=Matrix([[1, 2, 0], [0, -3, 1], [1, 0, 2]]),
        ),
        ParallelFamilyParams(
            family="g2star_deg",
            a2=rnd2(rng), b2=rnd2(rng), v=(1, -1), w=(0, 2),
        ),
    ]
    for p in cases:
        inst = build_instance(p)  # closure postconditions checked internally
        assert differential(inst.algebra, inst.phi).is_zero()
        assert differential(inst.algebra, inst.structure.star_phi()).is_zero()


def test_build_instance_eps_and_signatures():
    inst = build_instance(ParallelFamilyParams(family="g2_su3", reals=(1, 1)))
    assert inst.structure.eps == -1
    inst24 = build_instance(ParallelFamilyParams(family="g2star_24", case=2, reals=(1, 1)))
    assert inst24.structure.eps == 1
    inst33 = build_instance(
        ParallelFamilyParams(family="g2star_33", block=Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    )
    assert inst33.structure.eps == 1


def test_build_instance_rejects_bad_params():
    with pytest.raises(ValueError):
        build_instance(ParallelFamilyParams(family="g2star_33", block=Matrix.identity(3)))
    with pytest.raises(ValueError):
        build_instance(ParallelFamilyParams(family="nope"))


# -- nilpotent witnesses --------------------------------------------------------------


def test_witnesses_cover_all_partitions_but_the_impossible_one():
    for parts in PARTITIONS_OF_6:
        got = nilpotent_witnesses(SegrePartition(parts))
        if parts == (3, 1, 1, 1):
            assert got is None
            continue
        a3, b3 = got
        assert b3.trace().is_zero()
        block = witness_block_matrix(a3, b3)
        assert segre_partition(block).parts == parts
        assert gl_action(block, rho_null_model()).is_zero()


def test_witness_examples():
    a3, b3 = nilpotent_witnesses(SegrePartition((2, 2, 2)))
    assert a3.is_zero() and b3.rank() == 3
    a3, b3 = nilpotent_witnesses(SegrePartition((6,)))
    assert a3 == Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert b3.column(0) == (Scalar(0), Scalar(0), Scalar(1))


def test_impossible_partition_has_no_witness_in_the_family():
    # rank((3,1,1,1) block) = 2 forces the upper block to have rank <= 1;
    # sweep both normal forms against every trace-free B on a grid
    j2 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for a3 in (Matrix.zero(3), j2):
        for entries in product((-1, 0, 1), repeat=8):
            b3 = Matrix([
                [entries[0], entries[1], entries[2]],
                [entries[3], entries[4], entries[5]],
                [entries[6], entries[7], -entries[0] - entries[4]],
            ])
            block = witness_block_matrix(a3, b3)
            if block.rank() != 2:
                continue
            assert segre_partition(block).parts != (3, 1, 1, 1)


# -- closed-form report vs pipeline ---------------------------------------------------


def test_report_examples():
    r = nilpotent_parallel_report(NilpotentParallelParams.of(1, [[0, 0], [0, 0]], (1, 0), (0, 0)))
    assert r.algebra_name == "n_{7,4}"
    r = nilpotent_parallel_report(NilpotentParallelParams.of(1, [[1, 0], [1, 0]], (0, 0), (0, 0)))
    assert r.algebra_name == "n_{7,3}" and r.hol_dim == 2 and not r.locally_symmetric
    r = nilpotent_parallel_report(NilpotentParallelParams.of(1, [[0, 0], [1, 0]], (0, 0), (0, 0)))
    assert r.algebra_name == "A_{5,2}+R^2" and r.hol_dim == 2
    r = nilpotent_parallel_report(NilpotentParallelParams.of(0, [[1, 1], [1, 1]], (1, 1), (2, -2)))
    assert r.flat and r.hol_dim == 0


def test_degenerate_family_holonomy_bound():
    # every degenerate-family instance (general 2x2 block, not only the
    # nilpotent one) has holonomy inside the fixed two-dimensional abelian
    # span of 2f^5 x f_1 + f^7 x f_4 and 2f^6 x f_1 - f^7 x f_3
    from g2aa.geometry import analyze
    from g2aa.scalars import ZERO

    def endo(*terms):
        rows = [[ZERO] * 7 for _ in range(7)]
        for c, j, i in terms:
            rows[i - 1][j - 1] = Scalar(c)
        return Matrix(rows)

    v1 = endo((2, 5, 1), (1, 7, 4))
    v2 = endo((2, 6, 1), (-1, 7, 3))

    def span_dim(mats):
        return Matrix([[m[i, j] for i in range(7) for j in range(7)] for m in mats]).rank()

    rng = random.Random(64)
    for _ in range(8):
        p = ParallelFamilyParams(
            family="g2star_deg",
            a2=rnd2(rng), b2=rnd2(rng),
            v=(rng.randint(-2, 2), rng.randint(-2, 2)),
            w=(rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        inst = build_instance(p)
        rep = analyze(inst.algebra, inst.phi, inst.structure.metric)
        assert rep.hol_dim <= 2
        assert span_dim([v1, v2] + rep.hol_basis) == 2
        assert rep.is_ricci_flat
        assert rep.hol_annihilates_phi is True


def test_report_matches_pipeline_sampled():
    rng = random.Random(63)
    for _ in range(30):
        p = NilpotentParallelParams.of(
            rng.choice([-1, 0, 1]),
            [[rng.randint(-2, 2), rng.randint(-2, 2)] for _ in range(2)],
            (rng.randint(-2, 2), rng.randint(-2, 2)),
            (rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        closed = nilpotent_parallel_report(p)
        direct = pipeline_report(p)
        assert closed.algebra_name == direct.algebra_name
        assert closed.hol_dim == direct.hol_dim
        assert closed.locally_symmetric == direct.locally_symmetric
        assert closed.flat == direct.flat


def test_pipeline_report_reads_the_four_fields_of_analyze():
    """pipeline_report runs four stages of the geometry itself, not
    analyze: its fields are analyze's, at the sweep witnesses and on an
    evenly spaced sample of the bound-2 grid."""
    points = [sweep_params(*w) for w in SWEEP_WITNESSES] + list(sweep_sample(2, 60))
    for p in points:
        inst = build_instance(p)
        rep = analyze(inst.algebra, inst.phi, inst.structure.metric)
        want = NilpotentReport(identify_nilpotent(inst.algebra).name, rep.hol_dim,
                               rep.is_locally_symmetric, rep.is_flat)
        assert pipeline_report(p) == want


def _listed_sample(bound, count):
    """The sample as indices into the whole grid in lexicographic order,
    read off one pass over the grid instead of a list of it."""
    axes = [(-1, 0, 1)] + [range(-bound, bound + 1)] * 8
    size = math.prod(len(a) for a in axes)
    wanted = range(size) if count >= size else {k * size // count for k in range(count)}
    return [NilpotentParallelParams.of(t[0], [t[1:3], t[3:5]], t[5:7], t[7:9])
            for i, t in enumerate(product(*axes)) if i in wanted]


@pytest.mark.parametrize("bound, counts", [(0, (1, 2, 3, 7)), (1, (1, 5, 13, 4000)),
                                           (2, (1, 3, 500))])
def test_sweep_sample_decodes_the_listed_grid(bound, counts):
    for count in counts:
        assert list(sweep_sample(bound, count)) == _listed_sample(bound, count)


@pytest.mark.parametrize("bound", [0, 1])
def test_sweep_parameter_grid_is_the_listed_grid(bound):
    assert list(sweep_parameter_grid(bound)) == _listed_sample(bound, 3 * (2 * bound + 1) ** 8)


def test_sweep_sample_builds_no_grid():
    tracemalloc.start()
    try:
        points = list(sweep_sample(3, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.delta for p in points] == [-1, -1, 0, 0, 1]
    assert peak < 1 << 20


# -- decisions -------------------------------------------------------------------------


def algebra_with_partition(parts):
    rows = [[0] * 6 for _ in range(6)]
    pos = 0
    for size in parts:
        for k in range(size - 1):
            rows[pos + k][pos + k + 1] = 1
        pos += size
    return AlmostAbelianAlgebra(7, Matrix(rows))


def test_calibrated_decision_nilpotent_lists():
    g2_yes = {(1, 1, 1, 1, 1, 1), (2, 2, 1, 1), (3, 3)}
    nondeg_yes = {
        (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1),
        (3, 3), (3, 2, 1), (3, 1, 1, 1),
    }
    for parts in PARTITIONS_OF_6:
        alg = algebra_with_partition(parts)
        want_g2 = Decision.YES if parts in g2_yes else Decision.NO
        assert calibrated_decision(alg, "g2") is want_g2
        assert calibrated_decision(alg, "g2star_24") is want_g2
        want_33 = Decision.YES if parts in nondeg_yes else Decision.NO
        assert calibrated_decision(alg, "g2star_33") is want_33
        want_deg = Decision.NO if parts == (3, 1, 1, 1) else Decision.YES
        assert calibrated_decision(alg, "g2star_deg") is want_deg


def test_calibrated_decision_eigen_data():
    alg = AlmostAbelianAlgebra(7, Matrix.diagonal([1, 2, 3, -5, -4, -3]))
    ev = [1, 2, 3, -5, -4, -3]
    assert calibrated_decision(alg, "g2star_deg", eigen_data=ev) is Decision.YES
    assert calibrated_decision(alg, "g2star_24", eigen_data=ev) is Decision.NO
    assert calibrated_decision(alg, "g2star_33", eigen_data=ev) is Decision.NO
    assert calibrated_decision(alg, "g2star_33") is Decision.UNDECIDABLE


def test_calibrated_decision_certificate_path():
    # an ad-matrix literally inside the degenerate-family stabilizer
    m = witness_block_matrix(Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), Matrix.zero(3))
    noisy = m.scale(Scalar(3))  # still in the stabilizer family (A scales)
    alg = AlmostAbelianAlgebra(7, noisy)
    assert calibrated_decision(alg, "g2star_deg") is Decision.YES


def test_parallel_nondeg_decision_nilpotent():
    parallel_yes = {(1, 1, 1, 1, 1, 1), (2, 2, 1, 1), (3, 3)}
    for parts in PARTITIONS_OF_6:
        alg = algebra_with_partition(parts)
        for mode in ("g2star_24", "g2star_33"):
            want = Decision.YES if parts in parallel_yes else Decision.NO
            assert parallel_nondeg_decision(alg, mode) is want
        want_g2 = Decision.YES if parts == (1, 1, 1, 1, 1, 1) else Decision.NO
        assert parallel_nondeg_decision(alg, "g2") is want_g2


def test_parallel_nondeg_certificate():
    inst = build_instance(ParallelFamilyParams(family="g2_su3", reals=(1, 2)))
    assert parallel_nondeg_decision(inst.algebra, "g2") is Decision.YES
    alg = AlmostAbelianAlgebra(7, Matrix.diagonal([1, -1, 2, -2, 3, -3]))
    assert parallel_nondeg_decision(alg, "g2") is Decision.UNDECIDABLE
    # the sum of a basis of stab(rho_eps) annihilates rho_eps, is not
    # nilpotent, and does not annihilate the mode's omega^2/2
    for mode, eps in (("g2", -1), ("g2star_24", -1), ("g2star_33", 1)):
        alg = AlmostAbelianAlgebra(7, sum(stabilizer_algebra(rho_model(eps)), Matrix.zero(6)))
        assert calibrated_decision(alg, mode) is Decision.YES
        assert parallel_nondeg_decision(alg, mode) is Decision.UNDECIDABLE


def _oracle_rule(mode, values):
    """The eigenvalue rules read off the 720 orderings of the six values."""
    zero = Scalar(0)
    if mode in ("g2", "g2star_24"):  # zero sum, in equal pairs
        return sum(values, zero) == 0 and any(
            p[0] == p[1] and p[2] == p[3] and p[4] == p[5] for p in permutations(values))
    if mode == "g2star_33":  # two triples of zero sum
        return any(sum(p[:3], zero) == 0 and sum(p[3:], zero) == 0
                   for p in permutations(values))
    # mu and mu - tr(mu)
    return any(all(p[3 + i] == p[i] - sum(p[:3], zero) for i in range(3))
               for p in permutations(values))


_S2 = Scalar(0, 1)
# values -> the modes (g2, g2star_24, g2star_33, g2star_deg) that answer yes
EIGEN_CASES = [
    ([1, 1, 2, 2, -3, -3], "YYYY"),                          # zero-sum pairs
    ([_S2, _S2, 1, 1, -1 - _S2, -1 - _S2], "YYYY"),
    ([_S2, _S2, -_S2, -_S2, 0, 0], "YYYY"),
    ([1, 1, 2, 2, 3, 3], "NNNN"),                            # pairs, nonzero sum
    ([1, 1, -1, -1, 2, -2], "NNYN"),                         # two zero-sum triples
    ([1, 2, -3, 4, 5, -9], "NNYN"),
    ([_S2, 1, -1 - _S2, 2 * _S2, -_S2, -_S2], "NNYN"),
    ([1, 2, 3, -5, -4, -3], "NNNY"),                         # mu and mu - tr(mu)
    ([_S2, 1, 0, -1, -_S2, -1 - _S2], "NNNY"),
    ([1, 1, 1, 1, 1, 1], "NNNN"),
    ([_S2, 1, 2, 3, 4, 5], "NNNN"),
]


@pytest.mark.parametrize("values, want", EIGEN_CASES)
def test_eigen_rules_on_constructed_spectra(values, want):
    values = [Scalar(x) if isinstance(x, int) else x for x in values]
    # a conjugate of diag(values) that no model form certifies, so the
    # eigenvalue rule decides
    p = Matrix.identity(6) + Matrix.sparse(6, 6, {(i, i + 1): 1 for i in range(5)})
    alg = AlmostAbelianAlgebra(7, p @ Matrix.diagonal(values) @ p.inverse())
    shuffled = values[3:] + values[:3]
    for mode, w in zip(CALIBRATED_MODES, want):
        assert calibrated_decision(alg, mode) is Decision.UNDECIDABLE
        got = calibrated_decision(alg, mode, eigen_data=shuffled)
        assert got is (Decision.YES if w == "Y" else Decision.NO), mode
        assert _oracle_rule(mode, values) is (w == "Y"), mode
        with pytest.raises(DomainError, match="six real eigenvalues"):
            calibrated_decision(alg, mode, eigen_data=values[:5])


def test_decision_order_partition_then_certificate_then_eigen_data():
    # eigen data of the wrong length is read only when neither the
    # partition nor the certificate decides
    nilpotent = algebra_with_partition((3, 1, 1, 1))
    assert calibrated_decision(nilpotent, "g2star_deg", eigen_data=[1]) is Decision.NO
    certified = AlmostAbelianAlgebra(7, witness_block_matrix(Matrix.diagonal([1, 2, -3]),
                                                             Matrix.zero(3)))
    assert calibrated_decision(certified, "g2star_deg", eigen_data=[1]) is Decision.YES
    with pytest.raises(DomainError, match="non-degenerate modes only"):
        parallel_nondeg_decision(nilpotent, "g2star_deg")
    with pytest.raises(DomainError, match="unknown calibrated mode"):
        calibrated_decision(nilpotent, "g2star")


def test_basis_change_certificate(rng):
    # non-nilpotent ad-matrices literally in the stabilizers of the model
    # forms, seen in another basis: only conjugating back certifies them
    literal = {
        "g2": blockdiag(rotation_block(0, 1), rotation_block(0, 2), rotation_block(0, -3)),
        "g2star_24": shape_24(2, (1, 2)),
        "g2star_33": NULL_PAIR_BASIS @ blockdiag(Matrix.diagonal([1, 2, -3]),
                                                 Matrix.diagonal([-1, -2, 3]))
        @ NULL_PAIR_BASIS.inverse(),
        "g2star_deg": witness_block_matrix(Matrix.diagonal([1, 2, -3]), Matrix.zero(3)),
    }
    q = random_unimodular(rng, 6)
    for mode, ad in literal.items():
        moved = AlmostAbelianAlgebra(7, q @ ad @ q.inverse())
        decisions = [calibrated_decision]
        if mode in PARALLEL_MODES:
            decisions.append(parallel_nondeg_decision)
        for decide in decisions:
            assert decide(AlmostAbelianAlgebra(7, ad), mode) is Decision.YES
            assert decide(moved, mode) is Decision.UNDECIDABLE
            further = AlmostAbelianAlgebra(7, q @ moved.ad_matrix @ q.inverse())
            back = AlmostAbelianAlgebra(7, q.inverse() @ moved.ad_matrix @ q)
            assert decide(further, mode) is Decision.UNDECIDABLE
            assert decide(back, mode) is Decision.YES


# (mode, parameters) of the library's own parallel instances of each mode
OWN_INSTANCES = [
    ("g2", ParallelFamilyParams(family="g2_su3", reals=(1, 2))),
    ("g2", ParallelFamilyParams(family="g2_su3", reals=(1, 0))),
    ("g2star_24", ParallelFamilyParams(family="g2star_24", case=1, reals=(1, 2))),
    ("g2star_24", ParallelFamilyParams(family="g2star_24", case=2, reals=(-2, 1))),
    ("g2star_24", ParallelFamilyParams(family="g2star_24", case=3, reals=(2,))),
    ("g2star_24", ParallelFamilyParams(family="g2star_24", case=4)),
    ("g2star_33", ParallelFamilyParams(family="g2star_33", block=Matrix.diagonal([1, 2, -3]))),
    ("g2star_33", ParallelFamilyParams(family="g2star_33",
                                       block=Matrix([[1, 2, 0], [0, -3, 1], [1, 0, 2]]))),
]


def test_decisions_never_say_no_on_the_library_structures():
    """A structure the library builds is parallel, so in every basis of its
    algebra both decisions in its mode may answer YES or UNDECIDABLE, never
    NO; and a nilpotent ad-matrix is decided by its Jordan type, which
    conjugation and a nonzero scaling keep."""
    rng = random.Random(24)
    for mode, p in OWN_INSTANCES:
        ad = build_instance(p).algebra.ad_matrix
        for _ in range(5):
            q = random_unimodular(rng, 6)
            moved = AlmostAbelianAlgebra(7, q @ ad @ q.inverse())
            assert parallel_nondeg_decision(moved, mode) is not Decision.NO, p
            assert calibrated_decision(moved, mode) is not Decision.NO, p
    for entry in NILPOTENT_CATALOG:
        jordan = algebra_with_partition(entry.partition.parts)
        for c in (2, -3, Fraction(1, 2)):
            q = random_unimodular(rng, 6)
            moved = AlmostAbelianAlgebra(7, (q @ jordan.ad_matrix @ q.inverse()).scale(c))
            for mode in CALIBRATED_MODES:
                assert calibrated_decision(moved, mode) is calibrated_decision(jordan, mode)
            for mode in PARALLEL_MODES:
                assert (parallel_nondeg_decision(moved, mode)
                        is parallel_nondeg_decision(jordan, mode))


# -- table regeneration -----------------------------------------------------------------


def test_table1_regeneration_matches_expected():
    assert table1_diff() == []
    rows = regenerate_table1()
    assert len(rows) == 11
    by_name = {r.name: r for r in rows}
    assert by_name["n_{7,4}"].hol_dims == (0, 1, 2)
    assert by_name["A_{4,1}+R^3"].parallel is False
    assert by_name["n_{6,2}+R"].parallel is False
    assert by_name["n_{6,1}+R"].nonflat_locally_symmetric is True


def test_report_json_shape():
    p = NilpotentParallelParams.of(1, [[1, 0], [1, 0]], (0, 0), (0, 0))
    rep = nilpotent_parallel_report(p)
    payload = rep.to_json_dict(p)
    assert payload["algebra"] == "n_{7,3}"
    assert payload["hol_dim"] == 2
    assert payload["locally_symmetric"] is False
    assert payload["flat"] is False
    assert payload["params"]["delta"] == 1
