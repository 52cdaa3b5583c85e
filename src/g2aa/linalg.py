"""Sparse exact linear algebra over Q(sqrt2).

Matrices are immutable and store only their nonzero ``Scalar`` entries, as
a map from row index to a map from column index to entry, the way
``KForm`` stores only its nonzero terms; sums, products and scaling touch
nonzeros only.  Rank, kernel, determinant and inverse run on a dense view
through a fraction-free (Bareiss) elimination over Z[sqrt2] after clearing
denominators row by row, which keeps intermediate entries small on the
35x49 and 35x36 stabilizer systems.  Signatures of symmetric matrices use
exact congruence diagonalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .scalars import ONE, ZERO, Scalar, as_scalar

_EMPTY: dict = {}
_set = object.__setattr__


def _of(rows: int, cols: int, entries: dict) -> "Matrix":
    """A matrix on row maps that already hold only nonzero entries."""
    m = object.__new__(Matrix)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_r", entries)
    return m


class Matrix:
    """Immutable sparse matrix over Q(sqrt2)."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, entries: Sequence[Sequence]):
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(entries[0])
        out: dict[int, dict[int, Scalar]] = {}
        for i, row in enumerate(entries):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            r = {}
            for j, x in enumerate(row):
                x = x if type(x) is Scalar else as_scalar(x)
                if not x.is_zero():
                    r[j] = x
            if r:
                out[i] = r
        _set(self, "rows", len(entries))
        _set(self, "cols", ncols)
        _set(self, "_r", out)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        return _of(rows, rows if cols is None else cols, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _of(n, n, {i: {i: ONE} for i in range(n)})

    @staticmethod
    def diagonal(values: Iterable) -> "Matrix":
        vals = list(values)
        return Matrix.sparse(len(vals), len(vals), {(i, i): v for i, v in enumerate(vals)})

    @staticmethod
    def sparse(rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "Matrix":
        """The rows x cols matrix with the given (i, j) -> value entries,
        zero elsewhere."""
        out: dict[int, dict[int, Scalar]] = {}
        for (i, j), x in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            x = as_scalar(x)
            if not x.is_zero():
                out.setdefault(i, {})[j] = x
        return _of(rows, cols, out)

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Matrix":
        return Matrix(columns).transpose()

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        # indexing a range checks bounds and resolves negative indices
        return self._r.get(range(self.rows)[i], _EMPTY).get(range(self.cols)[j], ZERO)

    def row(self, i: int) -> tuple:
        r = self._r.get(range(self.rows)[i], _EMPTY)
        return tuple(r.get(j, ZERO) for j in range(self.cols))

    def column(self, j: int) -> tuple:
        j = range(self.cols)[j]
        return tuple(self._r.get(i, _EMPTY).get(j, ZERO) for i in range(self.rows))

    def tolist(self) -> list[list[Scalar]]:
        return [[r.get(j, ZERO) for j in range(self.cols)]
                for r in (self._r.get(i, _EMPTY) for i in range(self.rows))]

    def items(self):
        """((i, j), entry) for the nonzero entries."""
        return (((i, j), x) for i, r in self._r.items() for j, x in r.items())

    def row_items(self, i: int):
        """(j, entry) for the nonzero entries of row i."""
        return self._r.get(i, _EMPTY).items()

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        out = dict(self._r)
        for i, row in other._r.items():
            acc = dict(out.get(i, _EMPTY))
            for j, x in row.items():
                v = acc.pop(j, ZERO) + x
                if not v.is_zero():
                    acc[j] = v
            if acc:
                out[i] = acc
            else:
                out.pop(i, None)
        return _of(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return _of(self.rows, self.cols,
                   {i: {j: -x for j, x in r.items()} for i, r in self._r.items()})

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        if c.is_zero():
            return _of(self.rows, self.cols, {})
        return _of(self.rows, self.cols,
                   {i: {j: c * x for j, x in r.items()} for i, r in self._r.items()})

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        b = other._r
        out = {}
        for i, row in self._r.items():
            acc: dict[int, Scalar] = {}
            for k, x in row.items():
                for j, y in b.get(k, _EMPTY).items():
                    v = acc.get(j)
                    acc[j] = x * y if v is None else v + x * y
            acc = {j: v for j, v in acc.items() if not v.is_zero()}
            if acc:
                out[i] = acc
        return _of(self.rows, other.cols, out)

    def apply(self, vec: Sequence) -> list[Scalar]:
        v = [as_scalar(x) for x in vec]
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for i, row in self._r.items():
            acc = ZERO
            for j, x in row.items():
                acc = acc + x * v[j]
            out[i] = acc
        return out

    def transpose(self) -> "Matrix":
        out: dict[int, dict[int, Scalar]] = {}
        for i, row in self._r.items():
            for j, x in row.items():
                out.setdefault(j, {})[i] = x
        return _of(self.cols, self.rows, out)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = ZERO
        for i, row in self._r.items():
            t = t + row.get(i, ZERO)
        return t

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self._r

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self._r == self.transpose()._r

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self._r == other._r

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.items())))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.tolist())
        return f"Matrix[{body}]"

    def _check_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- exact solvers -------------------------------------------------------

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        work, scales = _to_integer_rows(self.tolist())
        d, nr_pivots = _bareiss_det(work)
        if nr_pivots < self.rows:
            return ZERO
        return _from_pair(d) * Scalar(Fraction(1, prod(scales)))

    def rank(self) -> int:
        work, _ = _to_integer_rows(self.tolist())
        _, pivots, _ = _bareiss_echelon(work)
        return len(pivots)

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the right null space {x : self @ x = 0}."""
        work, _ = _to_integer_rows(self.tolist())
        echelon, pivots, _ = _bareiss_echelon(work)
        ncols = self.cols
        pivot_cols = [c for _, c in pivots]
        free_cols = [c for c in range(ncols) if c not in pivot_cols]
        # each echelon row, bottom-up: its pivot column, the inverse of the
        # pivot, and its nonzero entries right of the pivot
        steps = [(pc, _from_pair(echelon[pr][pc]).inverse(),
                  [(c, _from_pair(e)) for c, e in enumerate(echelon[pr][pc + 1:], pc + 1)
                   if e != (0, 0)])
                 for pr, pc in reversed(pivots)]
        basis = []
        for fc in free_cols:
            x: list[Scalar] = [ZERO] * ncols
            x[fc] = ONE
            for pcol, inv, entries in steps:
                acc = ZERO
                for c, e in entries:
                    acc = acc + e * x[c]
                x[pcol] = -(acc * inv)
            basis.append(x)
        return basis

    def inverse(self) -> "Matrix":
        """A^{-1}, read off the kernel of [A | I], which is spanned by the
        columns of [-A^{-1} ; I] exactly when A is invertible."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        eye = Matrix.identity(n).tolist()
        aug = _of(n, 2 * n, {i: {**self._r.get(i, _EMPTY), n + i: ONE} for i in range(n)})
        basis = aug.kernel()
        if any(x[n:] != e for x, e in zip(basis, eye)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix.from_columns([[-y for y in x[:n]] for x in basis])

    def solve(self, rhs: Sequence) -> list[Scalar]:
        return self.inverse().apply(rhs)

    def signature(self) -> tuple[int, int, int]:
        """Sylvester signature (positives, negatives, zeros); requires symmetry."""
        if not self.is_symmetric():
            raise ValueError("signature needs a symmetric matrix")
        return _congruence_signature(self.tolist())

    def to_float(self) -> list[list[float]]:
        return [[float(x) for x in r] for r in self.tolist()]


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
        work.append([(x.a.numerator * (denom // x.a.denominator),
                      x.b.numerator * (denom // x.b.denominator)) for x in row])
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
            f = a[i][pos_idx] * inv
            for j in range(n):
                a[i][j] = a[i][j] - f * a[pos_idx][j]
        for j in range(pos_idx + 1, n):
            f = a[pos_idx][j] * inv
            for i in range(n):
                a[i][j] = a[i][j] - f * a[i][pos_idx]
        pos_idx += 1
    return pos, neg, zero
