"""Almost abelian Lie algebras: one matrix determines everything.

An n-dimensional almost abelian Lie algebra is u x| R f_n with u an abelian
ideal of dimension n-1; the bracket, and hence the Chevalley-Eilenberg
differential, is determined by the matrix of ad(f_n)|_u.  The last basis
index n always plays the role of the complement direction f_n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .exterior import KForm, gl_action, wedge
from .linalg import Matrix
from .scalars import ZERO, Scalar


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
        out = [ZERO] * n
        if i == j or (i < n and j < n):
            return out
        if i == n:
            col = self.ad_matrix.column(j - 1)
            for k, c in enumerate(col):
                out[k] = c
        else:
            col = self.ad_matrix.column(i - 1)
            for k, c in enumerate(col):
                out[k] = -c
        return out

    def is_nilpotent(self) -> bool:
        m = self.ad_matrix
        p = m
        for _ in range(m.rows - 1):
            if p.is_zero():
                return True
            p = p @ m
        return p.is_zero()

    def is_abelian(self) -> bool:
        return self.ad_matrix.is_zero()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ad": [[str(x) for x in self.ad_matrix.row(i)] for i in range(self.n - 1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "AlmostAbelianAlgebra":
        return AlmostAbelianAlgebra(int(data["n"]), Matrix(data["ad"]))

    @staticmethod
    def from_json(text: str) -> "AlmostAbelianAlgebra":
        return AlmostAbelianAlgebra.from_json_dict(json.loads(text))


def differential(algebra: AlmostAbelianAlgebra, a: KForm) -> KForm:
    """Chevalley-Eilenberg differential of a form on the algebra.

    Splitting a = rho + sigma ^ f^n with rho, sigma not involving f^n,
    da = f^n ^ (ad.rho); the sigma part is closed.
    """
    n = algebra.n
    if a.dim != n:
        raise ValueError(f"form must live on the {n}-dimensional algebra")
    if a.degree >= n:
        return KForm(n, a.degree + 1, {})
    rho = KForm(n, a.degree, {idx: c for idx, c in a.items() if n not in idx})
    full = Matrix.sparse(n, n, dict(algebra.ad_matrix.items()))
    fn = KForm.basis(n, n)
    return wedge(fn, gl_action(full, rho))


def _on_ideal(algebra: AlmostAbelianAlgebra, a: KForm) -> KForm:
    """Reinterpret a form with no f^n component as a form on u."""
    n = algebra.n
    if a.dim == n - 1:
        return a
    if a.dim == n:
        if any(n in idx for idx in a.support()):
            raise ValueError("form has an f^n component; not a form on the ideal")
        return KForm(n - 1, a.degree, {idx: c for idx, c in a.items()})
    raise ValueError("form dimension matches neither the algebra nor its ideal")


def is_stabilized(algebra: AlmostAbelianAlgebra, a: KForm) -> bool:
    """True iff ad(f_n)|_u annihilates the form (a form on u)."""
    rho = _on_ideal(algebra, a)
    return gl_action(algebra.ad_matrix, rho).is_zero()


def is_closed(algebra: AlmostAbelianAlgebra, a: KForm) -> bool:
    """For forms on u this agrees with is_stabilized."""
    n = algebra.n
    rho = _on_ideal(algebra, a)
    lifted = KForm(n, rho.degree, {idx: c for idx, c in rho.items()})
    return differential(algebra, lifted).is_zero()


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
    """Jordan block sizes of a nilpotent matrix, from ranks of powers."""
    n = m.rows
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    ranks = [n]
    p = Matrix.identity(n)
    for _ in range(n):
        p = p @ m
        ranks.append(p.rank())
    if ranks[-1] != 0:
        raise NonNilpotentError("matrix is not nilpotent")
    # number of blocks of size >= j is rank(m^{j-1}) - rank(m^j)
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, n + 1)]
    sizes: list[int] = []
    for j in range(n, 0, -1):
        count = at_least[j - 1] - (at_least[j] if j < n else 0)
        sizes.extend([j] * count)
    return SegrePartition(tuple(sorted(sizes, reverse=True)))


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
CATALOG_BY_NAME = {entry.name: entry for entry in NILPOTENT_CATALOG}


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
