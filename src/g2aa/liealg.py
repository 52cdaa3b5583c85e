"""Almost abelian Lie algebras: one matrix determines everything.

An n-dimensional almost abelian Lie algebra is u x| R f_n with u an abelian
ideal of dimension n-1; the bracket, and hence the Chevalley-Eilenberg
differential, is determined by the matrix of ad(f_n)|_u.  The last basis
index n always plays the role of the complement direction f_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exterior import KForm, _form, gl_action
from .linalg import Matrix
from .scalars import ZERO, Scalar, json_int, json_list, json_object, json_scalar


class NonNilpotentError(ValueError):
    pass


@dataclass(frozen=True)
class AlmostAbelianAlgebra:
    """u x| R f_n, encoded by ad(f_n)|_u in a basis f_1..f_{n-1} of u."""

    n: int
    ad_matrix: Matrix

    def __post_init__(self):
        if self.ad_matrix.rows != self.n - 1 or self.ad_matrix.cols != self.n - 1:
            raise ValueError(f"ad matrix must be {self.n - 1}x{self.n - 1}")

    def bracket(self, i: int, j: int) -> list[Scalar]:
        """[f_i, f_j] as a coefficient vector (1-based arguments)."""
        n = self.n
        if not (0 < i <= n and 0 < j <= n):
            raise IndexError(f"bracket indices ({i}, {j}) outside 1..{n}")
        if i == j or (i < n and j < n):
            return [ZERO] * n
        # [f_n, f_j] = -[f_j, f_n] = ad(f_n) f_j
        col = self.ad_matrix.column((j if i == n else i) - 1)
        return [c if i == n else -c for c in col] + [ZERO]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ad": [[str(x) for x in self.ad_matrix.row(i)] for i in range(self.n - 1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "AlmostAbelianAlgebra":
        data = json_object(data, "algebra")
        rows = [[json_scalar(x, "ad entry") for x in json_list(row, "ad row")]
                for row in json_list(data["ad"], "ad")]
        return AlmostAbelianAlgebra(json_int(data["n"], "n"), Matrix(rows))

    @staticmethod
    def from_json(text: str) -> "AlmostAbelianAlgebra":
        return AlmostAbelianAlgebra.from_json_dict(json.loads(text))


def differential(algebra: AlmostAbelianAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential of a form on the algebra.

    With a = rho + sigma ^ f^n, rho and sigma forms on u, the sigma part is
    closed and da = f^n ^ (ad.rho), ad = ad(f_n)|_u acting on rho as a form
    on u; f^n ^ e^I = (-1)^|I| e^{In} appends the index n with sign (-1)^k.
    """
    n = algebra.n
    if a.dim != n:
        raise ValueError(f"form must live on the {n}-dimensional algebra")
    rho = _form(n - 1, a.degree, ((idx, c) for idx, c in a.items() if n not in idx))
    odd = a.degree % 2
    return _form(n, a.degree + 1, ((idx + (n,), -c if odd else c)
                                   for idx, c in gl_action(algebra.ad_matrix, rho).items()))


def is_stabilized(algebra: AlmostAbelianAlgebra, a: KForm) -> bool:
    """True iff ad(f_n)|_u annihilates ``a``, a form on the ideal u (so iff ``a``
    is closed on the algebra); other dimensions raise DimensionMismatchError."""
    return gl_action(algebra.ad_matrix, a).is_zero()


# -- nilpotent classification ---------------------------------------------------


@dataclass(frozen=True)
class SegrePartition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise ValueError("partition must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def segre_partition(m: Matrix) -> SegrePartition:
    """Jordan block sizes of a nilpotent matrix, from ranks of powers.

    The powers m, m^2, ... are multiplied out up to the first zero one, and
    every later rank is 0: a matrix whose largest block has size k costs
    k - 1 products and k - 1 ranks.  An n x n matrix with m^n != 0 is not
    nilpotent."""
    n = m.rows
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    ranks = [n]  # ranks[k] = rank(m^k)
    p = m
    while not p.is_zero():
        if len(ranks) == n:
            raise NonNilpotentError("matrix is not nilpotent")
        ranks.append(p.rank())
        p = p @ m
    # rank(m^{j-1}) - rank(m^j) blocks have size >= j, and the last power is
    # zero: the block sizes are the conjugate partition of these drops
    drops = [r - s for r, s in zip(ranks, ranks[1:] + [0])]
    return SegrePartition(tuple(sum(d >= i for d in drops) for i in range(1, drops[0] + 1)))


@dataclass(frozen=True)
class NilpotentCatalogEntry:
    """A row of the 7-dimensional nilpotent almost abelian catalog."""

    name: str
    partition: SegrePartition
    dual_brackets: tuple[str, ...]


# The eleven 7-dimensional nilpotent almost abelian Lie algebras, one per
# partition of 6, with brackets in dual notation (de^1, ..., de^7).
NILPOTENT_CATALOG: tuple[NilpotentCatalogEntry, ...] = (
    NilpotentCatalogEntry("n_{7,1}", SegrePartition((2, 2, 2)),
                          ("e47", "e57", "e67", "0", "0", "0", "0")),
    NilpotentCatalogEntry("n_{7,2}", SegrePartition((3, 3)),
                          ("e27", "e37", "0", "e57", "e67", "0", "0")),
    NilpotentCatalogEntry("n_{7,3}", SegrePartition((4, 2)),
                          ("e27", "e37", "e47", "0", "e67", "0", "0")),
    NilpotentCatalogEntry("n_{7,4}", SegrePartition((6,)),
                          ("e27", "e37", "e47", "e57", "e67", "0", "0")),
    NilpotentCatalogEntry("n_{6,1}+R", SegrePartition((3, 2, 1)),
                          ("0", "0", "e12", "e13", "0", "e15", "0")),
    NilpotentCatalogEntry("n_{6,2}+R", SegrePartition((5, 1)),
                          ("0", "0", "e12", "e13", "e14", "e15", "0")),
    NilpotentCatalogEntry("A_{5,1}+R^2", SegrePartition((2, 2, 1, 1)),
                          ("e35", "e45", "0", "0", "0", "0", "0")),
    NilpotentCatalogEntry("A_{5,2}+R^2", SegrePartition((4, 1, 1)),
                          ("e25", "e35", "e45", "0", "0", "0", "0")),
    NilpotentCatalogEntry("A_{4,1}+R^3", SegrePartition((3, 1, 1, 1)),
                          ("e24", "e34", "0", "0", "0", "0", "0")),
    NilpotentCatalogEntry("h_3+R^4", SegrePartition((2, 1, 1, 1, 1)),
                          ("e23", "0", "0", "0", "0", "0", "0")),
    NilpotentCatalogEntry("R^7", SegrePartition((1, 1, 1, 1, 1, 1)),
                          ("0", "0", "0", "0", "0", "0", "0")),
)

_CATALOG_BY_PARTITION = {entry.partition.parts: entry for entry in NILPOTENT_CATALOG}


def catalog_entry_for_partition(partition: SegrePartition) -> NilpotentCatalogEntry:
    entry = _CATALOG_BY_PARTITION.get(partition.parts)
    if entry is None:
        raise KeyError(f"no 7-dimensional entry for partition {partition}")
    return entry


def identify_nilpotent(algebra: AlmostAbelianAlgebra) -> NilpotentCatalogEntry:
    """Catalog entry of a 7-dimensional nilpotent almost abelian algebra."""
    if algebra.n != 7:
        raise ValueError("catalog identification requires n = 7")
    part = segre_partition(algebra.ad_matrix)  # raises NonNilpotentError if not
    return catalog_entry_for_partition(part)
