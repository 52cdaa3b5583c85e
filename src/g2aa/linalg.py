"""Sparse exact linear algebra over Q(sqrt2).

Matrices are immutable and store only their nonzero ``Scalar`` entries, as
a map from row index to a map from column index to entry, the way
``KForm`` stores only its nonzero terms; sums, products and scaling touch
nonzeros only.  One elimination engine, ``Echelon``, serves rank, kernel,
determinant and inverse, and the span tests of the holonomy closure: an
incremental, sparse, fraction-free (Bareiss) row echelon form over
Z[sqrt2] that clears denominators row by row, which keeps intermediate
entries small on the 35x49 and 35x36 stabilizer systems.  A matrix keeps
its inverse once computed.  Signatures of symmetric matrices use exact
congruence diagonalization.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
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

    # _inv, set by the first successful inverse(), memoizes it
    __slots__ = ("rows", "cols", "_r", "_inv")

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
        return self._merge(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._merge(other, operator.sub)

    def _merge(self, other: "Matrix", op) -> "Matrix":
        """Entrywise ``op(self, other)``, with ``op`` addition or
        subtraction, in one pass over the nonzero entries of ``other``."""
        self._check_shape(other)
        out = dict(self._r)
        for i, row in other._r.items():
            acc = dict(out.get(i, _EMPTY))
            for j, x in row.items():
                v = op(acc.pop(j, ZERO), x)
                if not v.is_zero():
                    acc[j] = v
            if acc:
                out[i] = acc
            else:
                out.pop(i, None)
        return _of(self.rows, self.cols, out)

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

    def _echelon(self) -> "Echelon":
        e = Echelon()
        for i in range(self.rows):
            e.add(self._r.get(i, _EMPTY))
        return e

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        e = self._echelon()
        ps = e.pivots
        if len(ps) < self.rows:
            return ZERO
        # the last pivot is the determinant of the scaled rows with their
        # columns in pivot order
        inversions = sum(a > b for k, a in enumerate(ps) for b in ps[k + 1:])
        return _from_pair(e.rows[-1][ps[-1]]) * Scalar(Fraction((-1) ** inversions, e.scale))

    def rank(self) -> int:
        return len(self._echelon().pivots)

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the right null space {x : self @ x = 0}: one vector per
        non-pivot column c, with 1 at c and 0 at the other non-pivot columns.

        Back-substitution runs over the kept rows, bottom-up, in Z[sqrt2]
        integer pairs: a vector is held as numerator pairs over one common
        integer denominator, a pivot is divided out through its conjugate
        and norm, and each vector becomes ``Scalar``s once, at the end.
        Row k is zero at the pivots of the rows kept before it, so each
        step reads solved entries only."""
        e = self._echelon()
        ncols = self.cols
        pivots = set(e.pivots)
        steps = []
        for r, p in zip(reversed(e.rows), reversed(e.pivots)):
            a, b = r[p]
            # x[p] = -(sum of the other entries times x) * conj / norm
            conj, norm = ((1, 0), a) if b == 0 else ((a, -b), a * a - 2 * b * b)
            steps.append((p, conj, norm, [(c, x) for c, x in r.items() if c != p]))
        basis = []
        for fc in range(ncols):
            if fc in pivots:
                continue
            x = {fc: (1, 0)}
            den = 1
            for pcol, conj, norm, entries in steps:
                sa = sb = 0
                for c, (ya, yb) in entries:
                    v = x.get(c)
                    if v is not None:
                        sa += ya * v[0] + 2 * yb * v[1]
                        sb += ya * v[1] + yb * v[0]
                if not (sa or sb):
                    continue
                sa, sb = _pair_mul((sa, sb), conj)
                g = gcd(sa, sb, norm)
                sa, sb, d = sa // g, sb // g, norm // g
                if d != 1:
                    x = {c: (v[0] * d, v[1] * d) for c, v in x.items()}
                    den *= d
                x[pcol] = (-sa, -sb)
            vec = [ZERO] * ncols
            for c, (va, vb) in x.items():
                vec[c] = Scalar(Fraction(va, den), Fraction(vb, den))
            basis.append(vec)
        return basis

    def inverse(self) -> "Matrix":
        """A^{-1}, read off the kernel of [A | I], which is spanned by the
        columns of [-A^{-1} ; I] exactly when A is invertible.

        The inverse is kept on the instance, which is immutable, so every
        caller that inverts one metric (``hodge_star``, ``levi_civita``)
        shares one elimination."""
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        eye = Matrix.identity(n)
        aug = _of(n, 2 * n, {i: {**self._r.get(i, _EMPTY), n + i: ONE} for i in range(n)})
        basis = aug.kernel()
        if any(tuple(x[n:]) != eye.row(i) for i, x in enumerate(basis)):
            raise ZeroDivisionError("matrix is singular")
        inv = Matrix.from_columns([[-y for y in x[:n]] for x in basis])
        _set(self, "_inv", inv)
        return inv

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


# -- the elimination engine: fraction-free over Z[sqrt2] ----------------------
#
# Entries are (p, q) integer pairs meaning p + q*sqrt2.


class Echelon:
    """Incremental, sparse, fraction-free (Bareiss) row echelon form over
    Z[sqrt2], on rows that map a column to a nonzero entry.

    ``add`` clears a row's denominators and takes it through one Bareiss
    step per kept row k, pivot column p_k, pivot pi_k = r_k[p_k]:
    v <- (pi_k * v - v[p_k] * r_k) / pi_{k-1}, with pi_{-1} = 1.  After k
    steps every entry is a (k+1)-minor of the scaled rows (Sylvester's
    identity), so each division is exact for any choice of pivot columns.
    A nonzero remainder is kept, pivoted at its first nonzero column; so
    kept row k is zero at the pivots of the rows kept before it, and the
    pivot columns are the leftmost independent columns."""

    __slots__ = ("rows", "pivots", "scale")

    def __init__(self):
        self.rows: list[dict[int, tuple[int, int]]] = []
        self.pivots: list[int] = []
        self.scale = 1  # product of the denominators cleared from kept rows

    def add(self, row: Mapping[int, Scalar]) -> bool:
        """Reduce ``row`` by the kept rows and keep what is left; False,
        keeping nothing, when the kept rows span it."""
        denom = 1
        for x in row.values():
            denom = lcm(denom, x.a.denominator, x.b.denominator)
        v = {c: (x.a.numerator * (denom // x.a.denominator),
                 x.b.numerator * (denom // x.b.denominator))
             for c, x in row.items() if not x.is_zero()}
        prev = (1, 0)
        for r, p in zip(self.rows, self.pivots):
            if not v:
                return False
            piv = r[p]
            f = v.pop(p, None)
            w = {c: _pair_mul(piv, x) for c, x in v.items()}
            if f is not None:
                for c, y in r.items():
                    if c != p:
                        t = _pair_mul(f, y)
                        s = w.get(c, (0, 0))
                        w[c] = (s[0] - t[0], s[1] - t[1])
            v = {c: _pair_div(x, prev) for c, x in w.items() if x[0] or x[1]}
            prev = piv
        if not v:
            return False
        self.rows.append(v)
        self.pivots.append(min(v))
        self.scale *= denom
        return True


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
    if d == 0:
        if c == 0:
            raise ZeroDivisionError("zero divisor in Z[sqrt2]")
        n, pa, pb = c, a, b
    else:
        n = c * c - 2 * d * d
        pa, pb = a * c - 2 * b * d, b * c - a * d
    qa, ra = divmod(pa, n)
    qb, rb = divmod(pb, n)
    if ra or rb:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qa, qb)


def _from_pair(x: tuple[int, int]) -> Scalar:
    return Scalar(x[0], x[1])


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
