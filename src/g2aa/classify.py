"""Decision procedures and instance generators for calibrated and parallel
structures on seven-dimensional almost abelian Lie algebras.

Instance generators pair an ad-matrix with a three-form whose closure and
coclosure are verified internally, so every returned instance is parallel
by construction.  Decision procedures are exact for nilpotent input;
otherwise they accept a stabilizer-membership certificate or real
eigenvalue data, and return ``Decision.UNDECIDABLE`` rather than guess.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .exterior import KForm, pullback
from .g2 import (
    G2EpsStructure,
    certify_g2,
    half_omega_squared,
    phi_model,
    rho_model,
    rho_null_model,
    witt_phi,
)
from .geometry import analyze
from .liealg import (
    AlmostAbelianAlgebra,
    NILPOTENT_CATALOG,
    NonNilpotentError,
    SegrePartition,
    differential,
    identify_nilpotent,
    is_stabilized,
    segre_partition,
)
from .linalg import Matrix
from .scalars import HALF, ONE, ZERO, DomainError, Scalar, as_scalar


class Decision(Enum):
    YES = "yes"
    NO = "no"
    UNDECIDABLE = "undecidable"


# -- parameter records ---------------------------------------------------------


@dataclass(frozen=True)
class NilpotentParallelParams:
    """Parameters of the nilpotent degenerate family: the 2x2 block is
    N = [[0, delta], [0, 0]] with delta in {-1, 0, 1}."""

    delta: int
    b: Matrix
    v: tuple[Scalar, Scalar]
    w: tuple[Scalar, Scalar]

    @staticmethod
    def of(delta: int, b_entries, v, w) -> "NilpotentParallelParams":
        if delta not in (-1, 0, 1):
            raise ValueError("delta must be -1, 0 or 1")
        return NilpotentParallelParams(
            delta,
            Matrix(b_entries),
            (as_scalar(v[0]), as_scalar(v[1])),
            (as_scalar(w[0]), as_scalar(w[1])),
        )


@dataclass(frozen=True)
class ParallelFamilyParams:
    """A point of one of the parallel families.

    family:
      * "g2_su3": reals (a, b);
      * "g2star_24": case 1..4 plus the case's real parameters;
      * "g2star_33": a trace-free 3x3 block;
      * "g2star_deg": the (A, B, v, w) data of the degenerate family.
    """

    family: str
    case: int | None = None
    reals: tuple = ()
    block: Matrix | None = None
    a2: Matrix | None = None
    b2: Matrix | None = None
    v: tuple | None = None
    w: tuple | None = None


@dataclass(frozen=True)
class BuiltInstance:
    algebra: AlmostAbelianAlgebra
    phi: KForm
    structure: G2EpsStructure
    family: str
    label: str


# -- small matrix builders -------------------------------------------------------


def rotation_block(a, b) -> Matrix:
    """M_{a,b} = [[a, b], [-b, a]]."""
    a = as_scalar(a)
    b = as_scalar(b)
    return Matrix([[a, b], [-b, a]])


def blockdiag(*blocks: Matrix) -> Matrix:
    entries: dict = {}
    off = 0
    for b in blocks:
        entries.update({(off + i, off + j): x for (i, j), x in b.items()})
        off += b.rows
    return Matrix.sparse(off, off, entries)


def structure_matrix(a2: Matrix, b2: Matrix, v, w) -> Matrix:
    """The degenerate-family ad-matrix built from 2x2 blocks A, B and
    2-vectors v, w:

        [ -tr A   -tr B    v^t        w^t ]
        [  0       0       0          v^t ]
        [  0       Jv      A-trA I2   B   ]
        [  0       0       0          A   ]
    """
    v1, v2 = as_scalar(v[0]), as_scalar(v[1])
    w1, w2 = as_scalar(w[0]), as_scalar(w[1])
    (a11, a12), (a21, a22) = a2.row(0), a2.row(1)
    (b11, b12), (b21, b22) = b2.row(0), b2.row(1)
    # the nonzero entries in row-major order; A - tr(A) I2 = [[-a22, a12], [a21, -a11]]
    return Matrix.sparse(6, 6, {
        (0, 0): -a2.trace(), (0, 1): -b2.trace(), (0, 2): v1, (0, 3): v2, (0, 4): w1, (0, 5): w2,
        (1, 4): v1, (1, 5): v2,
        (2, 1): v2, (2, 2): -a22, (2, 3): a12, (2, 4): b11, (2, 5): b12,
        (3, 1): -v1, (3, 2): a21, (3, 3): -a11, (3, 4): b21, (3, 5): b22,
        (4, 4): a11, (4, 5): a12,
        (5, 4): a21, (5, 5): a22,
    })


def nilpotent_structure_matrix(p: NilpotentParallelParams) -> Matrix:
    n_block = Matrix([[0, p.delta], [0, 0]])
    return structure_matrix(n_block, p.b, p.v, p.w)


def is_parallel_witt(m: Matrix):
    """Match a 6x6 Witt-frame ad-matrix against the degenerate parallel
    family shape; returns (True, (A, B, v, w)) or (False, None)."""
    if m.rows != 6 or m.cols != 6:
        raise ValueError("expected a 6x6 matrix")
    a2 = Matrix([[m[4, 4], m[4, 5]], [m[5, 4], m[5, 5]]])
    b2 = Matrix([[m[2, 4], m[2, 5]], [m[3, 4], m[3, 5]]])
    v = (m[1, 4], m[1, 5])
    w = (m[0, 4], m[0, 5])
    if m == structure_matrix(a2, b2, v, w):
        return True, (a2, b2, v, w)
    return False, None


# -- embeddings and reference frames ----------------------------------------------


def iota(z_re: Matrix, z_im: Matrix) -> Matrix:
    """The real 6x6 image of a complex 3x3 matrix under the interleaved
    identification (x1, y1, x2, y2, x3, y3) of C^3 with R^6."""
    entries = {}
    for (i, j), x in z_re.items():
        entries[(2 * i, 2 * j)] = entries[(2 * i + 1, 2 * j + 1)] = x
    for (i, j), y in z_im.items():
        entries[(2 * i, 2 * j + 1)], entries[(2 * i + 1, 2 * j)] = -y, y
    return Matrix.sparse(6, 6, entries)


# Pairing basis for the split three-form rho_plus: in the null coordinates
# P_i = (f_{2i-1} + f_{2i})/2, Q_i = (f_{2i-1} - f_{2i})/2 its stabilizer is
# block-diagonal {diag(A, -A^t)}.
NULL_PAIR_BASIS = Matrix.from_columns(
    [
        [HALF, HALF, 0, 0, 0, 0],
        [0, 0, HALF, HALF, 0, 0],
        [0, 0, 0, 0, HALF, HALF],
        [HALF, -HALF, 0, 0, 0, 0],
        [0, 0, HALF, -HALF, 0, 0],
        [0, 0, 0, 0, HALF, -HALF],
    ]
)

# Reference split structure whose restriction pair to span(f_1..f_6) is
# literally (rho_plus, -1/2 omega_minus^2); the ideal has signature (3,3).
PHI_SPLIT33_REF = KForm.build(7, 3, [
    (-1, 1, 2, 7), (1, 1, 3, 5), (1, 1, 4, 6), (1, 2, 3, 6),
    (1, 2, 4, 5), (-1, 3, 4, 7), (-1, 5, 6, 7),
])

# Conjugators moving the real Jordan shapes of the signature-(2,4)
# parallel family into the literal joint stabilizer of (rho_minus,
# 1/2 omega_plus^2); found by exact eigenbasis computations and verified
# by the instance postcondition.
_Z3 = Matrix.zero(3)
_CONJ_24 = {
    1: iota(Matrix([[0, 0, 1], [1, 1, 0], [1, -1, 0]]), _Z3),
    2: Matrix.identity(6),
    3: iota(
        Matrix([[1, 0, 0], [0, 0, 1], [1, 0, 0]]),
        Matrix([[0, Fraction(-1, 2), 0], [0, 0, 0], [0, Fraction(1, 2), 0]]),
    ),
    4: iota(
        Matrix([[1, 0, Fraction(-1, 2)], [0, 1, 0], [1, 0, Fraction(1, 2)]]),
        _Z3,
    ),
}


def shape_24(case: int, reals: tuple) -> Matrix:
    """The four real Jordan shapes of the signature-(2,4) parallel family."""
    if case == 1:
        a, b = (as_scalar(reals[0]), as_scalar(reals[1]))
        return blockdiag(rotation_block(a, b), rotation_block(-a, b),
                         rotation_block(0, -2 * b))
    if case == 2:
        c, d = (as_scalar(reals[0]), as_scalar(reals[1]))
        return blockdiag(rotation_block(0, c), rotation_block(0, d),
                         rotation_block(0, -(c + d)))
    if case == 3:
        e = as_scalar(reals[0])
        return (blockdiag(rotation_block(0, e), rotation_block(0, e), rotation_block(0, -2 * e))
                + Matrix.sparse(6, 6, dict.fromkeys([(0, 2), (1, 3)], ONE)))
    if case == 4:
        return Matrix.sparse(6, 6, dict.fromkeys([(0, 2), (1, 3), (2, 4), (3, 5)], ONE))
    raise ValueError("case must be 1..4")


def _verified_instance(ad: Matrix, phi: KForm, family: str, label: str) -> BuiltInstance:
    algebra = AlmostAbelianAlgebra(7, ad)
    structure = certify_g2(phi)
    if not differential(algebra, phi).is_zero():
        raise AssertionError(f"instance {label}: three-form is not closed")
    if not differential(algebra, structure.star_phi()).is_zero():
        raise AssertionError(f"instance {label}: Hodge dual is not closed")
    return BuiltInstance(algebra, phi, structure, family, label)


def build_instance(p: ParallelFamilyParams | NilpotentParallelParams) -> BuiltInstance:
    """A parallel structure with the requested family data; the closure of
    phi and of its Hodge dual is checked before returning."""
    if isinstance(p, NilpotentParallelParams):
        ad = nilpotent_structure_matrix(p)
        label = f"deg nilpotent delta={p.delta}"
        return _verified_instance(ad, witt_phi(), "g2star_deg", label)
    if p.family == "g2_su3":
        a, b = (as_scalar(p.reals[0]), as_scalar(p.reals[1]))
        return _verified_instance(shape_24(2, (a, b)), phi_model(-1), "g2_su3", f"su3 a={a} b={b}")
    if p.family == "g2star_24":
        ad = shape_24(p.case, p.reals)
        # the conjugator acts on u and fixes f_7
        phi = pullback(blockdiag(_CONJ_24[p.case], Matrix.identity(1)), phi_model(1))
        return _verified_instance(ad, phi, "g2star_24", f"su(1,2) case {p.case}")
    if p.family == "g2star_33":
        block = p.block
        if block is None or block.rows != 3 or not block.trace().is_zero():
            raise ValueError("g2star_33 requires a trace-free 3x3 block")
        d = blockdiag(block, -block.transpose())
        ad = NULL_PAIR_BASIS @ d @ NULL_PAIR_BASIS.inverse()
        return _verified_instance(ad, PHI_SPLIT33_REF, "g2star_33", "sl3 pair")
    if p.family == "g2star_deg":
        ad = structure_matrix(p.a2, p.b2, p.v, p.w)
        return _verified_instance(ad, witt_phi(), "g2star_deg", "deg general")
    raise ValueError(f"unknown family {p.family!r}")


# -- nilpotent witnesses of the calibrated degenerate family ----------------------


def _cols3(*cols) -> Matrix:
    return Matrix.from_columns([list(c) for c in cols])


_E1, _E2, _E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
_ZC = (0, 0, 0)
_J2 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
_J3 = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])

_WITNESSES: dict[tuple[int, ...], tuple[Matrix, Matrix]] = {
    (1, 1, 1, 1, 1, 1): (Matrix.zero(3), Matrix.zero(3)),
    (2, 1, 1, 1, 1): (Matrix.zero(3), _cols3(_E2, _ZC, _ZC)),
    (2, 2, 1, 1): (Matrix.zero(3), _cols3(_E2, _E3, _ZC)),
    (2, 2, 2): (Matrix.zero(3), _cols3(_E2, _E3, _E1)),
    (3, 2, 1): (_J2, _cols3(_E3, _ZC, _ZC)),
    (4, 1, 1): (_J2, _cols3(_E2, _ZC, _ZC)),
    (4, 2): (_J2, _cols3(_E2, (0, -1, 0), _E3)),
    (3, 3): (_J3, Matrix.zero(3)),
    (5, 1): (_J3, _cols3(_E2, _ZC, _ZC)),
    (6,): (_J3, _cols3(_E3, _ZC, _ZC)),
}


def nilpotent_witnesses(partition: SegrePartition):
    """Witness (A, B) with A nilpotent 3x3 and B trace-free such that the
    block matrix [[A, 0], [B, A]] has the requested Segre partition, or
    None for the impossible partition (3,1,1,1)."""
    if partition.total != 6:
        raise ValueError("partition must sum to 6")
    return _WITNESSES.get(partition.parts)


# -- closed-form nilpotent report ------------------------------------------------


@dataclass(frozen=True)
class NilpotentReport:
    algebra_name: str
    hol_dim: int
    locally_symmetric: bool
    flat: bool

    def to_json_dict(self, params: NilpotentParallelParams | None = None) -> dict:
        out = {
            "algebra": self.algebra_name,
            "hol_dim": self.hol_dim,
            "locally_symmetric": self.locally_symmetric,
            "flat": self.flat,
        }
        if params is not None:
            out["params"] = {
                "delta": params.delta,
                "B": [[str(params.b[i, j]) for j in range(2)] for i in range(2)],
                "v": [str(x) for x in params.v],
                "w": [str(x) for x in params.w],
            }
        return out


def nilpotent_parallel_report(p: NilpotentParallelParams) -> NilpotentReport:
    """Closed-form holonomy/flatness/symmetry data and the algebra name."""
    delta = as_scalar(p.delta)
    b11, b12 = p.b[0, 0], p.b[0, 1]
    b21, b22 = p.b[1, 0], p.b[1, 1]
    v1, v2 = p.v
    w1, w2 = p.w
    tr_b = b11 + b22
    if p.delta != 0:
        if not b21.is_zero():
            hol = 2
        elif b11 != b22:
            hol = 1
        else:
            hol = 0
        flat = hol == 0
        loc_sym = b21.is_zero()
        if not v1.is_zero():
            name = "n_{7,4}"
        elif not b21.is_zero():
            name = "n_{7,3}" if tr_b != -delta * v2 * v2 else "A_{5,2}+R^2"
        elif w1 != delta * b11 * v2 or tr_b != -delta * v2 * v2:
            name = "n_{6,1}+R"
        else:
            name = "A_{5,1}+R^2"
        return NilpotentReport(name, hol, loc_sym, flat)
    # delta = 0: flat; the algebra comes from the rank analysis of the family
    if v1.is_zero() and v2.is_zero():
        probe = Matrix([[-tr_b, w1, w2], [ZERO, b11, b12], [ZERO, b21, b22]])
        r = probe.rank()
        name = {3: "n_{7,1}", 2: "A_{5,1}+R^2", 1: "h_3+R^4", 0: "R^7"}[r]
    else:
        rank_f = nilpotent_structure_matrix(p).rank()
        name = "n_{7,2}" if rank_f == 4 else "n_{6,1}+R"
    return NilpotentReport(name, 0, True, True)


# -- decisions --------------------------------------------------------------------


def _paired(values: list[Scalar]) -> bool:
    """The eigenvalues sum to zero and each occurs an even number of times."""
    return sum(values, ZERO).is_zero() and all(c % 2 == 0 for c in Counter(values).values())


def _some_split(values: list[Scalar], test) -> bool:
    """Does some split of the six eigenvalues into triples (mu, nu) pass test?"""
    for pick in combinations(range(6), 3):
        mu = [values[i] for i in pick]
        nu = [values[i] for i in range(6) if i not in pick]
        if test(mu, nu):
            return True
    return False


def _zero_sum_triples(mu, nu) -> bool:
    return sum(mu, ZERO).is_zero() and sum(nu, ZERO).is_zero()


def _shifted_triple(mu, nu) -> bool:
    """nu = mu - tr(mu) as multisets."""
    t = sum(mu, ZERO)
    return Counter(nu) == Counter(x - t for x in mu)


@dataclass(frozen=True)
class _Mode:
    """One structure type: G2, or G2* with an ideal of signature (2,4),
    (3,3) or degenerate.

    ``calibrated`` and ``parallel`` hold the Segre partitions of the
    nilpotent ad-matrices that admit a calibrated structure, and a parallel
    one with non-degenerate ideal (None for the degenerate type).  ad(f_7)
    that annihilates ``rho`` (and ``half_omega_sq``, for parallel
    structures) certifies existence; ``eigen_rule`` decides a diagonalizable
    ad(f_7) from its six real eigenvalues.
    """

    calibrated: frozenset
    parallel: frozenset | None
    rho: KForm
    half_omega_sq: KForm | None
    eigen_rule: Callable[[list[Scalar]], bool]


# the Jordan types of a nilpotent 3x3 matrix, each doubled
_DOUBLED_PARTS = frozenset({(1, 1, 1, 1, 1, 1), (2, 2, 1, 1), (3, 3)})

_MODES = {
    "g2": _Mode(_DOUBLED_PARTS, frozenset({(1, 1, 1, 1, 1, 1)}),
                rho_model(-1), half_omega_squared(-1), _paired),
    "g2star_24": _Mode(_DOUBLED_PARTS, _DOUBLED_PARTS,
                       rho_model(-1), half_omega_squared(1), _paired),
    # calibrated: the union of two Jordan types of a nilpotent 3x3 matrix
    "g2star_33": _Mode(frozenset({(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1),
                                  (3, 3), (3, 2, 1), (3, 1, 1, 1)}),
                       _DOUBLED_PARTS, rho_model(1), half_omega_squared(-1),
                       lambda values: _some_split(values, _zero_sum_triples)),
    # calibrated: every partition with a witness, i.e. all but (3,1,1,1)
    "g2star_deg": _Mode(frozenset(_WITNESSES), None, rho_null_model(), None,
                        lambda values: _some_split(values, _shifted_triple)),
}

CALIBRATED_MODES = tuple(_MODES)
PARALLEL_MODES = tuple(m for m, row in _MODES.items() if row.parallel is not None)


def _mode(mode: str, kind: str) -> _Mode:
    if mode not in _MODES:
        raise DomainError(f"unknown {kind} mode {mode!r}")
    return _MODES[mode]


def _partition_of(algebra: AlmostAbelianAlgebra) -> SegrePartition | None:
    try:
        return segre_partition(algebra.ad_matrix)
    except NonNilpotentError:
        return None


def _decide(algebra, partitions, forms, rule=None, eigen_data=None) -> Decision:
    """The Segre partition decides nilpotent input; otherwise ad(f_7)
    annihilating every form certifies YES, and eigenvalue data, if given,
    decides by ``rule``."""
    parts = _partition_of(algebra)
    if parts is not None:
        return Decision.YES if parts.parts in partitions else Decision.NO
    if all(is_stabilized(algebra, form) for form in forms):
        return Decision.YES
    if eigen_data is None:
        return Decision.UNDECIDABLE
    values = [as_scalar(x) for x in eigen_data]
    if len(values) != 6:
        raise DomainError("eigen data must list the six real eigenvalues")
    return Decision.YES if rule(values) else Decision.NO


def calibrated_decision(
    algebra: AlmostAbelianAlgebra,
    mode: str,
    *,
    eigen_data: list | None = None,
) -> Decision:
    """Does the algebra admit a calibrated structure of the given kind?

    Nilpotent input is decided exactly from the Segre partition.  General
    input is decided by a stabilizer-membership certificate, or from
    caller-supplied real eigenvalue data for a diagonalizable ad-matrix;
    otherwise UNDECIDABLE.  A caller with a conjugator q decides
    ``AlmostAbelianAlgebra(7, q.inverse() @ ad @ q)`` instead.
    """
    row = _mode(mode, "calibrated")
    return _decide(algebra, row.calibrated, (row.rho,), row.eigen_rule, eigen_data)


def parallel_nondeg_decision(algebra: AlmostAbelianAlgebra, mode: str) -> Decision:
    """Does the algebra admit a parallel structure with non-degenerate
    ideal of the given kind?"""
    row = _mode(mode, "parallel")
    if row.parallel is None:
        raise DomainError("parallel decisions cover the non-degenerate modes only")
    return _decide(algebra, row.parallel, (row.rho, row.half_omega_sq))


# -- Table regeneration -------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    name: str
    bracket: tuple[str, ...]
    parallel: bool
    hol_dims: tuple[int, ...]
    nonflat_locally_symmetric: bool


TABLE1_EXPECTED: tuple[TableRow, ...] = (
    TableRow("n_{7,1}", ("e47", "e57", "e67", "0", "0", "0", "0"), True, (0,), False),
    TableRow("n_{7,2}", ("e27", "e37", "0", "e57", "e67", "0", "0"), True, (0,), False),
    TableRow("n_{7,3}", ("e27", "e37", "e47", "0", "e67", "0", "0"), True, (2,), False),
    TableRow("n_{7,4}", ("e27", "e37", "e47", "e57", "e67", "0", "0"), True, (0, 1, 2), True),
    TableRow("n_{6,1}+R", ("0", "0", "e12", "e13", "0", "e15", "0"), True, (0, 1), True),
    TableRow("n_{6,2}+R", ("0", "0", "e12", "e13", "e14", "e15", "0"), False, (), False),
    TableRow("A_{5,1}+R^2", ("e35", "e45", "0", "0", "0", "0", "0"), True, (0, 1), True),
    TableRow("A_{5,2}+R^2", ("e25", "e35", "e45", "0", "0", "0", "0"), True, (2,), False),
    TableRow("A_{4,1}+R^3", ("e24", "e34", "0", "0", "0", "0", "0"), False, (), False),
    TableRow("h_3+R^4", ("e23", "0", "0", "0", "0", "0", "0"), True, (0,), False),
    TableRow("R^7", ("0", "0", "0", "0", "0", "0", "0"), True, (0,), False),
)


def sweep_parameter_grid(bound: int = 1):
    """Deterministic grid over the nilpotent degenerate family, in the
    lexicographic order of (delta, B, v, w)."""
    if bound < 0:
        raise DomainError(f"a grid needs bound >= 0, not {bound}")
    return _grid_points(bound, range(_grid_size(bound)))


def sweep_sample(bound: int, count: int):
    """``count`` evenly spaced points of ``sweep_parameter_grid(bound)`` in
    grid order (all of them if the grid is no larger), so that every delta
    is sampled.  A sample of no points is refused."""
    if bound < 0 or count < 1:
        raise DomainError(f"a sweep needs bound >= 0 and at least one point, "
                          f"not bound {bound} and {count} points")
    size = _grid_size(bound)
    picks = range(size) if count >= size else (k * size // count for k in range(count))
    return _grid_points(bound, picks)


# The grid's layout: delta in (-1, 0, 1) is the leading digit, in base 3, then
# the eight entries of (B, v, w), each a digit in base 2 * bound + 1.  Points
# are decoded from their index, so no part of the grid is ever listed.


def _grid_size(bound: int) -> int:
    return 3 * (2 * bound + 1) ** 8


def _grid_points(bound: int, indices):
    radix = 2 * bound + 1
    for index in indices:
        digits = []
        for _ in range(8):
            index, d = divmod(index, radix)
            digits.append(d - bound)
        b11, b12, b21, b22, v1, v2, w1, w2 = reversed(digits)
        yield NilpotentParallelParams.of((-1, 0, 1)[index], [[b11, b12], [b21, b22]],
                                         (v1, v2), (w1, w2))


def regenerate_table1() -> list[TableRow]:
    """Rebuild the catalog table from report sweeps over the bound-1 grid and
    the non-degenerate parallel classification, not from stored answers."""
    hol_dims: dict[str, set[int]] = {e.name: set() for e in NILPOTENT_CATALOG}
    nonflat_ls: dict[str, bool] = {e.name: False for e in NILPOTENT_CATALOG}
    for p in sweep_parameter_grid(1):
        rep = nilpotent_parallel_report(p)
        hol_dims[rep.algebra_name].add(rep.hol_dim)
        if rep.locally_symmetric and not rep.flat:
            nonflat_ls[rep.algebra_name] = True
    rows = []
    for entry in NILPOTENT_CATALOG:
        # a nilpotent ad-matrix is decided by its partition alone
        nondeg = entry.partition.parts in _MODES["g2star_24"].parallel
        parallel = nondeg or bool(hol_dims[entry.name])
        dims = set(hol_dims[entry.name])
        if nondeg:
            dims.add(0)  # non-degenerate parallel structures are flat
        rows.append(TableRow(entry.name, entry.dual_brackets, parallel, tuple(sorted(dims)),
                             nonflat_ls[entry.name]))
    return rows


def table1_diff() -> list[str]:
    """Human-readable differences between the regenerated table and the
    expected one; empty when they agree."""
    out = []
    for got, want in zip(regenerate_table1(), TABLE1_EXPECTED):
        if got != want:
            out.append(f"{want.name}: regenerated {got} != expected {want}")
    return out


# -- direct pipeline (used for consistency tests and the CLI) -----------------------


def pipeline_report(p: NilpotentParallelParams) -> NilpotentReport:
    """Run the honest geometry pipeline on a built instance and read the
    same four fields that the closed-form report produces."""
    inst = build_instance(p)
    report = analyze(inst.algebra, inst.phi, inst.structure.metric)
    entry = identify_nilpotent(inst.algebra)
    return NilpotentReport(
        entry.name, report.hol_dim, report.is_locally_symmetric, report.is_flat
    )
