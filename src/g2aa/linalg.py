"""Sparse exact linear algebra over Q(sqrt2).

Matrices are immutable and store only their nonzero ``Scalar`` entries, as
a map from row index to a map from column index to entry, the way
``KForm`` stores only its nonzero terms; sums, products and scaling touch
nonzeros only.  One elimination engine, ``Echelon``, serves rank, kernel,
determinant and inverse, and the span tests of the holonomy closure: an
incremental, sparse, fraction-free (Bareiss) row echelon form over
Z[sqrt2] that clears denominators row by row, which keeps intermediate
entries small on the 35x49 and 35x36 stabilizer systems.  Kernel and
inverse back-substitute over its kept rows fraction-free, through the same
exact division.  Rows enter the integer pairs and results leave them
through the two helpers of ``scalars`` that every integer kernel shares;
``_pair_rows`` and ``_pair_product`` read and multiply row maps as pairs
for the other kernels that take matrices, ``exterior.gl_action``,
``exterior.pullback`` and ``geometry.levi_civita``.
A matrix keeps its inverse once computed.  The signature of a symmetric
matrix is counted by exact rank-one congruence steps on a copy of its row
maps.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Mapping, Sequence

from .scalars import ONE, ZERO, Scalar, _clear_denominators, _pair_scalar, _PairScalars, as_scalar

_EMPTY: dict = {}
_set = object.__setattr__


def _row_maps(entries: Iterable[tuple[tuple[int, int], object]]) -> dict[int, dict[int, Scalar]]:
    """The row maps {i: {j: x}} of the nonzero ((i, j), x) entries, as Scalars."""
    out: dict[int, dict[int, Scalar]] = {}
    for (i, j), x in entries:
        x = x if type(x) is Scalar else as_scalar(x)
        if not x.is_zero():
            out.setdefault(i, {})[j] = x
    return out


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
        if any(len(row) != ncols for row in entries):
            raise ValueError("ragged rows")
        _set(self, "rows", len(entries))
        _set(self, "cols", ncols)
        _set(self, "_r", _row_maps(((i, j), x) for i, row in enumerate(entries)
                                   for j, x in enumerate(row)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int | None = None) -> "Matrix":
        return Matrix.sparse(rows, rows if cols is None else cols, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.sparse(n, n, {(i, i): ONE for i in range(n)})

    @staticmethod
    def diagonal(values: Iterable) -> "Matrix":
        vals = list(values)
        return Matrix.sparse(len(vals), len(vals), {(i, i): v for i, v in enumerate(vals)})

    @staticmethod
    def sparse(rows: int, cols: int, entries: Mapping[tuple[int, int], object]) -> "Matrix":
        """The rows x cols matrix with the given (i, j) -> value entries,
        zero elsewhere; a shape below 1x1 is refused, as by ``Matrix([])``."""
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix needs at least one row and one column, not {rows}x{cols}")
        for i, j in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
        return _of(rows, cols, _row_maps(entries.items()))

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Matrix":
        return Matrix(columns).transpose()

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        # indexing a range checks bounds and resolves negative indices, and
        # index() refuses a slice, which a range would answer with a range
        row = self._r.get(range(self.rows)[index(i)], _EMPTY)
        return row.get(range(self.cols)[index(j)], ZERO)

    def row(self, i: int) -> tuple:
        r = self._r.get(range(self.rows)[index(i)], _EMPTY)
        return tuple(r.get(j, ZERO) for j in range(self.cols))

    def column(self, j: int) -> tuple:
        j = range(self.cols)[index(j)]
        return tuple(self._r.get(i, _EMPTY).get(j, ZERO) for i in range(self.rows))

    def tolist(self) -> list[list[Scalar]]:
        return [[r.get(j, ZERO) for j in range(self.cols)]
                for r in (self._r.get(i, _EMPTY) for i in range(self.rows))]

    def items(self):
        """((i, j), entry) for the nonzero entries."""
        return (((i, j), x) for i, r in self._r.items() for j, x in r.items())

    def row_items(self, i: int):
        """(j, entry) for the nonzero entries of row i."""
        return self._r.get(range(self.rows)[index(i)], _EMPTY).items()

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, negate=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, negate=True)

    def _sum(self, other: "Matrix", negate: bool) -> "Matrix":
        """self + other, or self - other with ``negate``, in one (i, j) -> value dict."""
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        out = dict(self.items())
        for k, x in other.items():
            y = out.get(k)
            if y is None:
                out[k] = -x if negate else x
            else:
                out[k] = y - x if negate else y + x
        return Matrix.sparse(self.rows, self.cols, out)

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
        if not isinstance(other, Matrix):
            return NotImplemented
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
        r = self._r
        return self.rows == self.cols and all(
            x == r.get(j, _EMPTY).get(i) for i, row in r.items() for j, x in row.items())

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
        sign = (-1) ** inversions
        p, q = e.rows[-1][ps[-1]]
        return _pair_scalar(sign * p, sign * q, e.scale)

    def rank(self) -> int:
        return len(self._echelon().pivots)

    def kernel(self) -> list[list[Scalar]]:
        """Basis of the right null space {x : self @ x = 0}: one vector per
        non-pivot column c, with 1 at c and 0 at the other non-pivot columns
        (``Echelon.null_vectors``)."""
        e = self._echelon()
        pivots = set(e.pivots)
        return [[x.get(c, ZERO) for c in range(self.cols)]
                for x in e.null_vectors(c for c in range(self.cols) if c not in pivots)]

    def inverse(self) -> "Matrix":
        """A^{-1}, read off the echelon of [A | I].  Its rows are independent,
        so A is invertible exactly when the pivots are the first n columns;
        then the null vector at column n + j is column j of [-A^{-1} ; I].

        The inverse is kept on the instance, which is immutable, so every
        caller that inverts one metric (``hodge_star``, ``levi_civita``)
        shares one elimination."""
        inv = getattr(self, "_inv", None)
        if inv is not None:
            return inv
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = _of(n, 2 * n, {i: {**self._r.get(i, _EMPTY), n + i: ONE} for i in range(n)})
        e = aug._echelon()
        if sorted(e.pivots) != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        out: dict[int, dict[int, Scalar]] = {}
        for j, x in enumerate(e.null_vectors(range(n, 2 * n))):
            for i, y in x.items():
                if i < n:
                    out.setdefault(i, {})[j] = -y
        inv = _of(n, n, out)
        _set(self, "_inv", inv)
        return inv

    def signature(self) -> tuple[int, int, int]:
        """Sylvester signature (positives, negatives, zeros); requires symmetry.

        Counted by rank-one congruence steps on a copy of the row maps.  With
        v = e_i for a nonzero a_ii, or v = e_i + e_j for a nonzero a_ij when
        the diagonal is zero, q = v^T A v is nonzero: count sign(q) and
        replace A by A - u u^T / q, u = A v, touching the nonzero entries of
        u only.  That matrix vanishes on v and equals A on the A-orthogonal
        complement of v, so it keeps the rest of the signature.  The steps
        end when no entry is left; the rows they did not use are the zeros."""
        if not self.is_symmetric():
            raise ValueError("signature needs a symmetric matrix")
        a = {i: dict(r) for i, r in self._r.items()}
        pos = steps = 0
        while a:
            i = next((i for i, r in a.items() if i in r), None)
            if i is not None:
                u = dict(a[i])
                q = u[i]
            else:
                i, r = next(iter(a.items()))
                j = next(iter(r))
                u = dict(r)
                for k, x in a[j].items():
                    u[k] = u.get(k, ZERO) + x
                u = {k: x for k, x in u.items() if not x.is_zero()}
                q = r[j] + r[j]
            steps += 1
            pos += q.sign() > 0
            inv = q.inverse()
            for k, x in u.items():
                row = a[k]
                f = x * inv
                for m, y in u.items():
                    s = row.get(m, ZERO) - f * y
                    if s.is_zero():
                        row.pop(m, None)
                    else:
                        row[m] = s
                if not row:
                    del a[k]
        return pos, steps - pos, self.rows - steps


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
        if not row:
            # most candidate rows of the holonomy closure are empty
            return False
        denom, pairs = _clear_denominators(row.values())
        v = {c: x for c, x in zip(row, pairs) if x[0] or x[1]}
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

    def null_vectors(self, free: Iterable[int]):
        """For each non-pivot column c of ``free``, the nonzero entries
        {column: Scalar} of the null vector of the kept rows that is 1 at c
        and 0 at the other non-pivot columns.

        Fraction-free back-substitution, bottom-up: seeded with x[c] = d, the
        last pivot, every entry is a minor of the scaled rows (Cramer's
        rule), so each step x[p_k] = -(r_k . x) / pi_k divides exactly.  Row
        k is zero at the pivots kept before it and x[p_k] is not set yet, so
        the step reads solved entries only.  The vector is divided by d once,
        at the end."""
        d = self.rows[-1][self.pivots[-1]] if self.rows else (1, 0)
        a, b = d
        # 1/d = conj(d) / norm(d)
        conj, norm = (a, -b), a * a - 2 * b * b
        for fc in free:
            x = {fc: d}
            for r, p in zip(reversed(self.rows), reversed(self.pivots)):
                sa, sb = _pair_dot(r, x)
                if sa or sb:
                    x[p] = _pair_div((-sa, -sb), r[p])
            yield {c: _pair_scalar(*_pair_mul(v, conj), norm) for c, v in x.items()}


def _pair_rows(*ms: Matrix) -> tuple[int, list[dict[int, dict[int, tuple[int, int]]]]]:
    """(den, [rows, ...]): the row maps of ``ms``, in their order, with each
    entry (p + q*sqrt2) / den held as the pair (p, q), den the least common
    denominator of all their entries."""
    den, pairs = _clear_denominators([x for m in ms for r in m._r.values() for x in r.values()])
    it = iter(pairs)
    return den, [{i: {j: next(it) for j in r} for i, r in m._r.items()} for m in ms]


def _pair_product(a: Mapping, b: Mapping) -> dict[int, dict[int, tuple[int, int]]]:
    """The nonzero row maps of the product of two pair matrices, over the
    product of their denominators, in the order ``Matrix.__matmul__`` makes."""
    out = {}
    for i, row in a.items():
        acc: dict[int, tuple[int, int]] = {}
        for k, (xa, xb) in row.items():
            for j, (ya, yb) in b.get(k, _EMPTY).items():
                s = acc.get(j, (0, 0))
                acc[j] = (s[0] + xa * ya + 2 * xb * yb, s[1] + xa * yb + xb * ya)
        acc = {j: v for j, v in acc.items() if v[0] or v[1]}
        if acc:
            out[i] = acc
    return out


def _pair_matrix(n: int, rows: Mapping, scalars: _PairScalars) -> Matrix:
    """The n x n matrix of nonzero pair row maps, its entries made by ``scalars``."""
    return _of(n, n, {i: {j: scalars[x] for j, x in r.items()} for i, r in rows.items()})


def _pair_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    if b == 0 and d == 0:
        return (a * c, 0)
    return (a * c + 2 * b * d, a * d + b * c)


def _pair_dot(x: Mapping, y: Mapping) -> tuple[int, int]:
    """Sum of x[k] * y[k] over the keys k of x that y holds, for pair vectors."""
    sa = sb = 0
    for k, (a, b) in x.items():
        v = y.get(k)
        if v is not None:
            sa += a * v[0] + 2 * b * v[1]
            sb += a * v[1] + b * v[0]
    return sa, sb


def _pair_div(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    # exact division in Z[sqrt2]: Bareiss, and Cramer's rule in the
    # back-substitution, guarantee divisibility
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
