"""Dense exact linear algebra over Q(sqrt2).

Matrices are immutable, row-major, with ``Scalar`` entries.  Rank, kernel,
determinant and inverse run through a fraction-free (Bareiss) elimination
over Z[sqrt2] after clearing denominators row by row, which keeps
intermediate entries small on the 35x49 and 35x36 stabilizer systems.
Signatures of symmetric matrices use exact congruence diagonalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, as_scalar


class Matrix:
    """Immutable dense matrix over Q(sqrt2)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(as_scalar(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "_e", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(values: Iterable) -> "Matrix":
        vals = [as_scalar(v) for v in values]
        n = len(vals)
        return Matrix([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Matrix":
        cols = [[as_scalar(x) for x in c] for c in columns]
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._e[i][j]

    def row(self, i: int) -> tuple:
        return self._e[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self._e)

    def tolist(self) -> list[list[Scalar]]:
        return [list(r) for r in self._e]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self._e])

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix([[c * a for a in r] for r in self._e])

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self._e):
            out_i = out[i]
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                other_k = other._e[k]
                for j, b in enumerate(other_k):
                    if not b.is_zero():
                        out_i[j] = out_i[j] + a * b
        return Matrix(out)

    def apply(self, vec: Sequence) -> list[Scalar]:
        v = [as_scalar(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for i, row in enumerate(self._e):
            acc = ZERO
            for a, x in zip(row, v):
                if not a.is_zero() and not x.is_zero():
                    acc = acc + a * x
            out[i] = acc
        return out

    def transpose(self) -> "Matrix":
        return Matrix([[self._e[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self._e[i][i]
        return t

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self._e for x in r)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self._e[i][j] == self._e[j][i] for i in range(self.rows) for j in range(i)
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self._e)
        return f"Matrix[{body}]"

    def _check_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- exact solvers -------------------------------------------------------

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        work, scales = _to_integer_rows(self._e)
        d, nr_pivots = _bareiss_det(work)
        if nr_pivots < self.rows:
            return ZERO
        undo = Scalar(Fraction(1))
        for s in scales:
            undo = undo * Scalar(Fraction(1, s))
        return _from_pair(d) * undo

    def rank(self) -> int:
        work, _ = _to_integer_rows(self._e)
        _, pivots, _ = _bareiss_echelon(work)
        return len(pivots)

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the right null space {x : self @ x = 0}."""
        work, _ = _to_integer_rows(self._e)
        echelon, pivots, _ = _bareiss_echelon(work)
        ncols = self.cols
        pivot_cols = [c for _, c in pivots]
        free_cols = [c for c in range(ncols) if c not in pivot_cols]
        basis = []
        for fc in free_cols:
            x: list[Scalar] = [ZERO] * ncols
            x[fc] = ONE
            # back-substitute through the echelon rows, bottom-up
            for r in range(len(pivots) - 1, -1, -1):
                prow, pcol = pivots[r]
                row = echelon[prow]
                acc = ZERO
                for c in range(pcol + 1, ncols):
                    xc = x[c]
                    if not xc.is_zero() and row[c] != (0, 0):
                        acc = acc + _from_pair(row[c]) * xc
                x[pcol] = -acc / _from_pair(row[pcol])
            basis.append(x)
        return basis

    def inverse(self) -> "Matrix":
        """A^{-1}, read off the kernel of [A | I], which is spanned by the
        columns of [-A^{-1} ; I] exactly when A is invertible."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        eye = Matrix.identity(n)._e
        basis = Matrix([r + e for r, e in zip(self._e, eye)]).kernel()
        if any(tuple(x[n:]) != e for x, e in zip(basis, eye)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix.from_columns([[-y for y in x[:n]] for x in basis])

    def solve(self, rhs: Sequence) -> list[Scalar]:
        return self.inverse().apply(rhs)

    def signature(self) -> tuple[int, int, int]:
        """Sylvester signature (positives, negatives, zeros); requires symmetry."""
        if not self.is_symmetric():
            raise ValueError("signature needs a symmetric matrix")
        return _congruence_signature([list(r) for r in self._e])

    def to_float(self) -> list[list[float]]:
        return [[float(x) for x in r] for r in self._e]


# -- helper functions --------------------------------------------------------


def kernel(m: Matrix) -> list[list[Scalar]]:
    return m.kernel()


def rank(m: Matrix) -> int:
    return m.rank()


def signature(sym: Matrix) -> tuple[int, int, int]:
    return sym.signature()


# -- fraction-free core over Z[sqrt2] ----------------------------------------
#
# Internally rows are lists of (p, q) integer pairs meaning p + q*sqrt2.
# Bareiss two-step division is exact in this domain.


def _to_integer_rows(entries) -> tuple[list[list[tuple[int, int]]], list[int]]:
    work = []
    scales = []
    for row in entries:
        denom = 1
        for x in row:
            denom = lcm(denom, x.a.denominator, x.b.denominator)
        work.append([(int(x.a * denom), int(x.b * denom)) for x in row])
        scales.append(denom)
    return work, scales


def _pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c + 2 * b * d, a * d + b * c)


def _pair_div(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    # exact division in Z[sqrt2]; Bareiss guarantees divisibility
    a, b = x
    c, d = y
    n = c * c - 2 * d * d
    if n == 0:
        raise ZeroDivisionError("zero divisor in Z[sqrt2]")
    pa, pb = a * c - 2 * b * d, b * c - a * d
    qa, ra = divmod(pa, n)
    qb, rb = divmod(pb, n)
    if ra or rb:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qa, qb)


def _from_pair(x: tuple[int, int]) -> Scalar:
    return Scalar(x[0], x[1])


def _bareiss_echelon(work: list[list[tuple[int, int]]]):
    """Fraction-free row echelon form.

    Returns (rows, pivots, sign) where pivots is a list of (row, col) in
    elimination order and sign tracks row swaps.
    """
    nr = len(work)
    nc = len(work[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    sign = 1
    prev = (1, 0)
    r = 0
    for c in range(nc):
        p = next((i for i in range(r, nr) if work[i][c] != (0, 0)), None)
        if p is None:
            continue
        if p != r:
            work[r], work[p] = work[p], work[r]
            sign = -sign
        piv = work[r][c]
        for i in range(r + 1, nr):
            row_i = work[i]
            fac = row_i[c]
            if fac == (0, 0):
                # still renormalize by Bareiss rule to keep division exact
                for j in range(c + 1, nc):
                    if row_i[j] != (0, 0):
                        row_i[j] = _pair_div(_pair_mul(piv, row_i[j]), prev)
                continue
            row_r = work[r]
            for j in range(c + 1, nc):
                t = _pair_mul(piv, row_i[j])
                u = _pair_mul(fac, row_r[j])
                row_i[j] = _pair_div((t[0] - u[0], t[1] - u[1]), prev)
            row_i[c] = (0, 0)
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nr:
            break
    return work, pivots, sign


def _bareiss_det(work: list[list[tuple[int, int]]]) -> tuple[tuple[int, int], int]:
    rows, pivots, sign = _bareiss_echelon(work)
    if not pivots:
        return (0, 0), 0
    pr, pc = pivots[-1]
    last = rows[pr][pc]
    return ((sign * last[0], sign * last[1]), len(pivots))


def _congruence_signature(a: list[list[Scalar]]) -> tuple[int, int, int]:
    n = len(a)
    pos = neg = zero = 0
    pos_idx = 0
    while pos_idx < n:
        if a[pos_idx][pos_idx].is_zero():
            k = next(
                (i for i in range(pos_idx + 1, n) if not a[i][i].is_zero()), None
            )
            if k is not None:
                a[pos_idx], a[k] = a[k], a[pos_idx]
                for row in a:
                    row[pos_idx], row[k] = row[k], row[pos_idx]
            else:
                k = next(
                    (j for j in range(pos_idx + 1, n) if not a[pos_idx][j].is_zero()),
                    None,
                )
                if k is None:
                    zero += 1
                    a = [r[:pos_idx] + r[pos_idx + 1 :] for i, r in enumerate(a) if i != pos_idx]
                    n -= 1
                    continue
                # hyperbolic pair: add row/column k to create a nonzero pivot
                for j in range(n):
                    a[pos_idx][j] = a[pos_idx][j] + a[k][j]
                for i in range(n):
                    a[i][pos_idx] = a[i][pos_idx] + a[i][k]
                continue
        piv = a[pos_idx][pos_idx]
        if piv.sign() > 0:
            pos += 1
        else:
            neg += 1
        inv = piv.inverse()
        for i in range(pos_idx + 1, n):
            if not a[i][pos_idx].is_zero():
                f = a[i][pos_idx] * inv
                for j in range(n):
                    a[i][j] = a[i][j] - f * a[pos_idx][j]
        for j in range(pos_idx + 1, n):
            if not a[pos_idx][j].is_zero():
                f = a[pos_idx][j] * inv
                for i in range(n):
                    a[i][j] = a[i][j] - f * a[i][pos_idx]
        pos_idx += 1
    return pos, neg, zero
