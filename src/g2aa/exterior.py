"""Exterior algebra over Q(sqrt2): alternating forms, wedge, interior
product, gl-action, pullback and the Hodge star of an exact metric.

Forms are sparse: a map from strictly increasing 1-based index tuples to
nonzero scalars.  Index conventions follow the usual e^{127}-style
notation, so ``KForm.basis(7, 1, 2, 7)`` is e^127 on R^7.

``pullback`` is the one kernel for changes of basis: the Hodge star is the
pullback along g^{-1} followed by complementing indices, and the form a
subspace inherits is the pullback along the matrix of its basis vectors.
It runs in Z[sqrt2] integer pairs over one common denominator, like the
elimination engine of ``linalg``, and builds each result ``Scalar`` once.

``KForm(...)`` and ``KForm.build`` check every term they are given; the
kernels ``gl_action``, ``pullback``, ``hodge_star`` and ``liealg.differential``
build their results with ``_form``, which only drops zero coefficients.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix
from .scalars import (ONE, ZERO, DomainError, Scalar, _clear_denominators, _pair_scalar, as_scalar,
                      json_int, json_list, json_object, json_scalar)


class DimensionMismatchError(ValueError):
    pass


class DegenerateMetricError(ValueError):
    pass


def sort_indices(idx: Sequence[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, returning (sorted_tuple, permutation_sign).

    Repeated indices give (None, 0).
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] >= lst[j]:
            if lst[j - 1] == lst[j]:
                return None, 0
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def _check_index(tup: tuple, degree: int, dim: int):
    """Refuse an index tuple of the wrong length or with an entry not an int in 1..dim."""
    if len(tup) != degree:
        raise ValueError(f"index {tup} has wrong length for degree {degree}")
    for i in tup:
        if type(i) is not int:  # a float 1.0 would hash as the index 1
            raise TypeError(f"index {tup} has an entry that is not an int")
        if i < 1 or i > dim:
            raise ValueError(f"index {tup} out of range 1..{dim}")


class KForm:
    """Alternating k-form on an n-dimensional space."""

    __slots__ = ("dim", "degree", "_t")

    def __init__(self, dim: int, degree: int, terms: Mapping | None = None):
        if degree < 0 or (degree > dim and terms):
            # degree > dim is allowed only for the zero form of a trivial space
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        clean: dict[tuple[int, ...], Scalar] = {}
        for idx, c in (terms or {}).items():
            c = as_scalar(c)
            if c.is_zero():
                continue
            tup = tuple(idx)
            _check_index(tup, degree, dim)
            if any(tup[i] >= tup[i + 1] for i in range(len(tup) - 1)):
                raise ValueError(f"index {tup} not strictly increasing")
            clean[tup] = c
        object.__setattr__(self, "_t", clean)

    def __setattr__(self, name, value):
        raise AttributeError("KForm is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def basis(dim: int, *indices: int) -> "KForm":
        return KForm(dim, len(indices), {tuple(indices): ONE})

    @staticmethod
    def zero(dim: int, degree: int) -> "KForm":
        return KForm(dim, degree, {})

    @staticmethod
    def constant(dim: int, value) -> "KForm":
        return KForm(dim, 0, {(): as_scalar(value)})

    @staticmethod
    def build(dim: int, degree: int, terms: Iterable[tuple]) -> "KForm":
        """Accumulate (coef, i1, i2, ...) terms, sorting indices with signs."""
        acc: dict[tuple[int, ...], Scalar] = {}
        for coef, *idx in terms:
            tup, sg = sort_indices(idx)
            if sg == 0:
                continue
            c = as_scalar(coef)
            acc[tup] = acc.get(tup, ZERO) + (c if sg > 0 else -c)
        return KForm(dim, degree, acc)

    # -- access --------------------------------------------------------------

    def items(self):
        return self._t.items()

    def coefficient(self, *indices: int) -> Scalar:
        """The coefficient of e^{indices}, signed by their order; zero when an
        index repeats."""
        _check_index(indices, self.degree, self.dim)
        tup, sg = sort_indices(indices)
        if sg == 0:
            return ZERO
        c = self._t.get(tup, ZERO)
        return c if sg > 0 else -c

    def is_zero(self) -> bool:
        return not self._t

    # -- algebra -------------------------------------------------------------

    def _check(self, other: "KForm"):
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        if self.degree != other.degree:
            raise DimensionMismatchError("degree mismatch in addition")
        return KForm.build(self.dim, self.degree,
                           ((c, *idx) for t in (self._t, other._t) for idx, c in t.items()))

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(-1)

    def __neg__(self) -> "KForm":
        return self.scale(-1)

    def scale(self, c) -> "KForm":
        c = as_scalar(c)
        return KForm(self.dim, self.degree, {i: c * v for i, v in self._t.items()})

    def __rmul__(self, c) -> "KForm":
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.dim, self.degree, self._t) == (other.dim, other.degree, other._t)

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(sorted(self._t.items()))))

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for idx in sorted(self._t):
            c = self._t[idx]
            if idx == ():
                parts.append(f"({c})")
                continue
            label = "".join(map(str, idx)) if all(i <= 9 for i in idx) else ",".join(map(str, idx))
            parts.append(f"({c})*e{label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"KForm({self.dim},{self.degree}: {self})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "terms": [
                {"idx": list(idx), "coef": str(c)} for idx, c in sorted(self._t.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(data: dict) -> "KForm":
        data = json_object(data, "form")
        terms = {}
        for t in json_list(data["terms"], "terms"):
            t = json_object(t, "term")
            idx = tuple(json_int(i, "form index") for i in json_list(t["idx"], "idx"))
            if idx in terms:
                raise DomainError(f"form index {list(idx)} is repeated")
            terms[idx] = json_scalar(t["coef"], "coefficient")
        return KForm(json_int(data["dim"], "dim"), json_int(data["degree"], "degree"), terms)

    @staticmethod
    def from_json(text: str) -> "KForm":
        return KForm.from_json_dict(json.loads(text))


def _form(dim: int, degree: int, terms: Iterable[tuple[tuple[int, ...], Scalar]]) -> KForm:
    """The form of the nonzero (index tuple, Scalar) ``terms``, unchecked:
    each tuple must be strictly increasing, in 1..dim and of length degree."""
    f = object.__new__(KForm)
    object.__setattr__(f, "dim", dim)
    object.__setattr__(f, "degree", degree)
    object.__setattr__(f, "_t", {idx: c for idx, c in terms if c.a or c.b})
    return f


# -- operations ----------------------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b; a pair of terms with a common index is skipped."""
    a._check(b)
    return KForm.build(a.dim, a.degree + b.degree,
                       ((c * d, *i, *j) for i, c in a._t.items()
                        for j, d in b._t.items() if set(i).isdisjoint(j)))


def interior(vector: Sequence, a: KForm) -> KForm:
    """Interior product v -| a, inserting v into the first slot."""
    if a.degree == 0:
        raise ValueError("interior product needs degree >= 1")
    v = [as_scalar(x) for x in vector]
    if len(v) != a.dim:
        raise DimensionMismatchError("vector length must equal form dimension")
    return KForm.build(a.dim, a.degree - 1,
                       ((-t if pos % 2 else t, *idx[:pos], *idx[pos + 1:])
                        for idx, c in a._t.items() for pos, i in enumerate(idx)
                        for t in (v[i - 1] * c,)))


@lru_cache(maxsize=None)
def _moves(dim: int, idx: tuple[int, ...]) -> tuple:
    """[pos][j]: (sorted tuple, sign) of idx with entry pos replaced by j + 1,
    or (None, 0) on a repeat.  Cached per index tuple in use, not per degree."""
    return tuple(tuple(sort_indices(idx[:pos] + (j + 1,) + idx[pos + 1:]) for j in range(dim))
                 for pos in range(len(idx)))


def gl_action(m: Matrix, a: KForm) -> KForm:
    """Derivation action of gl(n) on forms, pinned by (A.al)(v) = -al(Av)
    on 1-forms so that the almost abelian differential reads d rho = f^n ^ A.rho.
    """
    if m.rows != a.dim or m.cols != a.dim:
        raise DimensionMismatchError("endomorphism size must match form dimension")
    # its own loop, not KForm.build: the decide and sweep workloads spend their time here
    rows = [m.row_items(i) for i in range(m.rows)]
    acc: dict[tuple[int, ...], Scalar] = {}
    for idx, c in a._t.items():
        for ip, moved in zip(idx, _moves(a.dim, idx)):
            for j, co in rows[ip - 1]:
                tup, sg = moved[j]
                if sg == 0:
                    continue
                term = co * c
                acc[tup] = acc.get(tup, ZERO) + (-term if sg > 0 else term)
    return _form(a.dim, a.degree, acc.items())


def pullback(m: Matrix, a: KForm) -> KForm:
    """Pullback of ``a`` along the linear map with matrix ``m``:
    (m^* a)(v_1, ..., v_k) = a(m v_1, ..., m v_k).

    ``m`` may be rectangular: it needs ``a.dim`` rows, and the result lives
    on ``m.cols`` dimensions.  Each term of ``a`` expands as the product of
    its pulled-back 1-forms m^* e^i = sum_j m[i-1][j-1] e^j.  The products
    run in Z[sqrt2] integer pairs, m over its common denominator den_m and
    ``a`` over den_a, and each term of the result becomes a ``Scalar``
    once, over den_a * den_m^k.
    """
    if m.rows != a.dim:
        raise DimensionMismatchError("matrix rows must match form dimension")
    entries = list(m.items())
    den_m, pairs = _clear_denominators([x for _, x in entries])
    support: list[list[tuple[int, int, int]]] = [[] for _ in range(m.rows)]
    for ((i, j), _), (xa, xb) in zip(entries, pairs):
        support[i].append((j + 1, xa, xb))
    terms = list(a.items())
    den_a, coefs = _clear_denominators([c for _, c in terms])
    acc: dict[tuple[int, ...], tuple[int, int]] = {}
    for (idx, _), (ca, cb) in zip(terms, coefs):
        # expand the product of pulled-back 1-forms, dropping index tuples
        # that repeat (they wedge to zero)
        partial = [((), ca, cb)]
        for i in idx:
            partial = [(tup + (j,), pa * xa + 2 * pb * xb, pa * xb + pb * xa)
                       for tup, pa, pb in partial
                       for j, xa, xb in support[i - 1] if j not in tup]
        for tup, pa, pb in partial:
            stup, sg = sort_indices(tup)
            s = acc.get(stup, (0, 0))
            acc[stup] = (s[0] + pa, s[1] + pb) if sg > 0 else (s[0] - pa, s[1] - pb)
    den = den_a * den_m**a.degree
    return _form(m.cols, a.degree,
                 ((idx, _pair_scalar(p, q, den)) for idx, (p, q) in acc.items() if p or q))


def hodge_star(a: KForm, metric: Matrix, orientation_vol: KForm) -> KForm:
    """Hodge dual pinned by alpha ^ star(beta) = <alpha, beta>_g * orientation_vol.

    The pairing <e^I, beta>_g is the e^I coefficient of the pullback of beta
    along g^{-1}, so star(beta) = v0 * sum_I (g^{-1*} beta)_I sign(I, I^c) e^{I^c}.
    """
    n = a.dim
    ginv = _metric_inverse(metric, n)
    a._check(orientation_vol)
    if orientation_vol.degree != n or orientation_vol.is_zero():
        raise ValueError("orientation volume must be a nonzero top form")
    v0 = orientation_vol.coefficient(*range(1, n + 1))
    acc: dict[tuple[int, ...], Scalar] = {}
    for idx, val in pullback(ginv, a).items():
        comp, sg = _complement(idx, n)
        acc[comp] = v0 * val if sg > 0 else -(v0 * val)
    return _form(n, n - a.degree, acc.items())


def _metric_inverse(metric: Matrix, n: int) -> Matrix:
    """The inverse of an n x n metric; DimensionMismatchError for any other
    size, DegenerateMetricError for a singular metric."""
    if metric.rows != n or metric.cols != n:
        raise DimensionMismatchError(f"metric size must match the dimension {n}")
    try:
        return metric.inverse()
    except ZeroDivisionError as exc:
        raise DegenerateMetricError("metric is degenerate") from exc


def _complement(idx: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """The complement I^c of an index tuple I in 1..n and the sign of the
    permutation (I, I^c): e^I ^ e^{I^c} = sign * e^{1...n}."""
    comp = tuple(x for x in range(1, n + 1) if x not in idx)
    return comp, sort_indices(idx + comp)[1]
