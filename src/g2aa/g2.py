"""Model tensors, certification of G2 and split-G2 three-forms, stabilizer
algebras, Witt frames, and model types of hyperplane restrictions.

A three-form phi on R^7 induces the bilinear form
B(v,w) = (1/6) (v -| phi) ^ (w -| phi) ^ phi with values in top forms.
phi lies in one of the two open GL(7, R) orbits, with stabilizer g2 or
g2* of dimension 14, exactly when B is non-degenerate (Hitchin, "The
geometry of three-forms in six and seven dimensions", math/0010054;
Bryant, "Some remarks on G2-structures", math/0305124), so det B != 0 is
the certification test.  Writing B = c * g with c the real ninth root of
det(B), the metric g has signature (7,0) (compact case, eps = -1) or
(3,4) (split case, eps = +1), and the metric volume is c * e^{1...7}.
``ninth_root`` finds c, or shows that it leaves Q(sqrt2), with integer
arithmetic in Z[sqrt2].  Every certified form keeps the exact data
g~ = sign(det B) B = |c| g and det B = c^9; the metric and volume
themselves are set only when c lies in Q(sqrt2).

Certification is memoized in a cache of one entry, which is what the
package's traffic needs: ``g2aa reproduce all`` certifies one form 122
times, a sweep certifies one form, and report runs never repeat a form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .exterior import (KForm, _complement, _form, _pair_terms, gl_action, hodge_star, interior,
                       pullback, sort_indices, wedge)
from .linalg import Matrix, _pair_dot
from .scalars import HALF, HALF_SQRT2, ONE, ZERO, Scalar, _clear_denominators, _pair_scalar


class NotG2Error(ValueError):
    """The given three-form is not a G2^eps structure."""


class ModelTypeMismatchError(ArithmeticError):
    """Two independent invariants of a hyperplane restriction disagree."""


# -- model tensors -------------------------------------------------------------


def phi_model(eps: int) -> KForm:
    """The reference three-form on R^7; eps = -1 compact, eps = +1 split."""
    _check_eps(eps)
    return KForm.build(7, 3, [
        (-eps, 1, 2, 7), (-eps, 3, 4, 7), (1, 5, 6, 7),
        (1, 1, 3, 5), (-1, 1, 4, 6), (-1, 2, 3, 6), (-1, 2, 4, 5),
    ])


def omega_model(eps: int) -> KForm:
    _check_eps(eps)
    return KForm.build(6, 2, [(-eps, 1, 2), (-eps, 3, 4), (1, 5, 6)])


def rho_model(eps: int) -> KForm:
    _check_eps(eps)
    return KForm.build(6, 3, [(1, 1, 3, 5), (eps, 1, 4, 6), (eps, 2, 3, 6), (eps, 2, 4, 5)])


def rho_null_model() -> KForm:
    """The degenerate-type three-form e^126 - e^135 + e^234 on R^6."""
    return KForm.build(6, 3, [(1, 1, 2, 6), (-1, 1, 3, 5), (1, 2, 3, 4)])


def omega_null_model() -> KForm:
    """The degenerate-type four-form e^1256 + e^3456 on R^6."""
    return KForm.build(6, 4, [(1, 1, 2, 5, 6), (1, 3, 4, 5, 6)])


def half_omega_squared(eps: int) -> KForm:
    om = omega_model(eps)
    return wedge(om, om).scale(HALF)


def adapted_metric(eps: int) -> Matrix:
    _check_eps(eps)
    if eps == -1:
        return Matrix.identity(7)
    return Matrix.diagonal([-1, -1, -1, -1, 1, 1, 1])


def _check_eps(eps: int):
    if eps not in (-1, 1):
        raise ValueError("eps must be -1 or +1")


MODEL_TENSORS = {
    "phi_minus": lambda: phi_model(-1),
    "phi_plus": lambda: phi_model(1),
    "rho_minus": lambda: rho_model(-1),
    "rho_plus": lambda: rho_model(1),
    "rho_0": rho_null_model,
    "Omega_0": omega_null_model,
    "omega_minus": lambda: omega_model(-1),
    "omega_plus": lambda: omega_model(1),
}


# -- stabilizer algebras ---------------------------------------------------------


def _action_matrix(forms: list[KForm]) -> Matrix:
    """Matrix of A |-> (A.form_1, ..., A.form_r) on gl(n), columns indexed by
    the n^2 entries of A in row-major order, one row per (form, index tuple)
    of the action's support in the order first met.  Row order leaves the
    kernel alone: pivots are the leftmost independent columns, and each
    null vector is fixed by its free column."""
    n = forms[0].dim
    row_of: dict = {}
    entries = {}
    for k, f in enumerate(forms):
        for i in range(n):
            for j in range(n):
                acted = gl_action(Matrix.sparse(n, n, {(i, j): ONE}), f)
                for idx, x in acted.items():
                    entries[(row_of.setdefault((k, idx), len(row_of)), i * n + j)] = x
    # a form that all of gl(n) annihilates still gives one (zero) row
    return Matrix.sparse(max(len(row_of), 1), n * n, entries)


def stabilizer_algebra(a: KForm, *others: KForm) -> list[Matrix]:
    """Exact basis of the joint annihilator {A in gl(n) : A.a = 0 and A.b = 0
    for every b of others}."""
    if any(b.dim != a.dim for b in others):
        raise ValueError("forms must share the ambient dimension")
    n = a.dim
    return [Matrix([v[i * n:(i + 1) * n] for i in range(n)])
            for v in _action_matrix([a, *others]).kernel()]


# -- certification ----------------------------------------------------------------


@dataclass(frozen=True)
class G2EpsStructure:
    """A certified G2^eps three-form with its induced metric data.

    B = c g with c^9 = det B.  ``scaled_metric`` is g~ = sign(det B) B =
    |c| g and ``det_b`` is det B, both exact for every form.  ``metric``
    and ``vol`` = c e^{1...7} are exact when the ninth root c lies in
    Q(sqrt2); otherwise they are None, and g = g~ / |c|.
    """

    phi: KForm
    eps: int
    metric: Matrix | None
    vol: KForm | None
    frame_kind: str  # adapted | witt | generic
    scaled_metric: Matrix
    det_b: Scalar

    @property
    def is_exact(self) -> bool:
        return self.metric is not None

    def star_phi(self) -> KForm:
        """The Hodge dual of phi, computed on the first call and kept on
        the structure.  The write is idempotent, so a structure that the
        certify cache shares stays safe to share."""
        star = self.__dict__.get("_star_phi")
        if star is None:
            if not self.is_exact:
                raise ValueError("Hodge star requires the exact-metric pipeline")
            star = hodge_star(self.phi, self.metric, self.vol)
            object.__setattr__(self, "_star_phi", star)
        return star


# Gram matrix of the induced metric in a Witt frame:
# -(F^2)^2 + F^1.F^7 + 2 F^3.F^6 - 2 F^4.F^5
WITT_GRAM = Matrix([
    [0, 0, 0, 0, 0, 0, Fraction(1, 2)],
    [0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, -1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [Fraction(1, 2), 0, 0, 0, 0, 0, 0],
])


@lru_cache(maxsize=None)
def _pairing_table(dim: int, degree: int) -> dict:
    """The disjoint index triples (I, J, M) of a k-form on R^dim, with I and
    J of length k - 1 and M of length k, as J -> ((I, M, sign(I, J, M)), ...).
    Only when dim = 3k - 2 do the three cover 1..dim and a triple exist."""
    table = {}
    if 3 * degree - 2 == dim:
        full = range(1, dim + 1)
        for jdx in combinations(full, degree - 1):
            rest = [x for x in full if x not in jdx]
            triples = []
            for idx in combinations(rest, degree - 1):
                mdx = tuple(x for x in rest if x not in idx)
                triples.append((idx, mdx, sort_indices(idx + jdx + mdx)[1]))
            table[jdx] = tuple(triples)
    return table


def bilinear_volume_form(phi: KForm) -> Matrix:
    """Coefficient matrix of B(v,w) = (1/6)(v -| phi)^(w -| phi)^phi.

    B = (1/6) H P H^T: row i of H holds the hook e_i -| phi, and P pairs
    two (k-1)-forms into a top form, P[I][J] = sign(I, J, M) phi_M with
    M = (I u J)^c, read from the static table of disjoint triples.  The
    products run in Z[sqrt2] integer pairs over phi's common denominator,
    and each entry becomes a ``Scalar`` once, at the end."""
    n, k = phi.dim, phi.degree
    if k == 0:
        raise ValueError("bilinear form needs degree >= 1")
    den, full = _pair_terms(phi)
    hooks: list[dict] = [{} for _ in range(n)]
    for idx, (p, q) in full.items():
        for pos, x in enumerate(idx):
            hooks[x - 1][idx[:pos] + idx[pos + 1:]] = (-p, -q) if pos % 2 else (p, q)
    table = _pairing_table(n, k)
    # columns of P H^T, as I -> integer pair
    ph = []
    for hook in hooks:
        col: dict = {}
        for jdx, (ha, hb) in hook.items():
            for idx, mdx, sg in table.get(jdx, ()):
                f = full.get(mdx)
                if f is None:
                    continue
                pa, pb = (ha, hb) if sg > 0 else (-ha, -hb)
                fa, fb = f
                s = col.get(idx, (0, 0))
                col[idx] = (s[0] + pa * fa + 2 * pb * fb, s[1] + pa * fb + pb * fa)
        ph.append(col)
    # B_ji = (-1)^((k-1)^2) B_ij: hooks of odd degree anticommute
    flip = -1 if k % 2 == 0 else 1
    scale = 6 * den**3
    entries = {}
    for i, hook in enumerate(hooks):
        for j in range(i, n):
            sa, sb = _pair_dot(hook, ph[j])
            if sa or sb:
                entries[(i, j)] = _pair_scalar(sa, sb, scale)
                entries[(j, i)] = _pair_scalar(flip * sa, flip * sb, scale)
    return Matrix.sparse(n, n, entries)


def _floor_ninth_root(n: int) -> int:
    """floor(n^(1/9)) for an integer n >= 0."""
    if n < 2:
        return n
    # integer Newton from above: x starts at 2^ceil(bits/9) >= n^(1/9) and
    # decreases to floor(n^(1/9))
    x = 1 << -(-n.bit_length() // 9)
    while True:
        y = (8 * x + n // x**8) // 9
        if y >= x:
            return x
        x = y


def ninth_root(d: Scalar) -> Scalar | None:
    """The real ninth root of d, if it lies in Q(sqrt2); None otherwise.

    Integer arithmetic only.  Negating and conjugating d (x^9 = d exactly
    when (-x)^9 = -d and conj(x)^9 = conj(d)) makes d = a + b sqrt2 with
    a, b >= 0, so the embedding a + b sqrt2 is the larger in size.  With m
    the common denominator of a and b, X = m x = U + V sqrt2 is a ninth
    root of D = m^9 d = A + B sqrt2 in Z[sqrt2], the integers of Q(sqrt2),
    and its norm n = U^2 - 2 V^2 is the integer ninth root of
    A^2 - 2 B^2.  The larger embedding X+ = U + V sqrt2 is a fixed-point
    ninth root of A + B sqrt2 with 8 guard bits, the smaller is
    X- = n / X+, so neither cancels and both are within 2^-7; U is their
    rounded mean and V^2 = (U^2 - n) / 2.  The candidate is checked
    exactly."""
    if d.is_zero():
        return ZERO
    m, ((big_a, big_b),) = _clear_denominators((d,))
    negate = big_a < 0 or (not big_a and big_b < 0)
    if negate:
        big_a, big_b = -big_a, -big_b
    conjugate = big_b < 0
    m8 = m**8
    big_a, big_b = big_a * m8, abs(big_b) * m8
    norm = big_a * big_a - 2 * big_b * big_b
    n = _floor_ninth_root(abs(norm))
    if n**9 != abs(norm):
        return None
    n = n if norm > 0 else -n
    k = 8  # guard bits: 2^k X+ and 2^k X- are each within 2 of their true values
    large = _floor_ninth_root((big_a << 9 * k) + math.isqrt(2 * big_b * big_b << 18 * k))
    small = (n << 2 * k) // large
    u = (large + small + (1 << k)) >> (k + 1)
    v = math.isqrt(max(u * u - n, 0) // 2)
    cand = _pair_scalar(u, -v if conjugate else v, m)
    if negate:
        cand = -cand
    return cand if cand**9 == d else None


def _detect_frame_kind(metric: Matrix, eps: int) -> str:
    if metric == adapted_metric(eps):
        return "adapted"
    if metric == WITT_GRAM:
        return "witt"
    return "generic"


@lru_cache(maxsize=1)
def _certify_cached(phi: KForm) -> G2EpsStructure:
    n = phi.dim
    if n != 7 or phi.degree != 3:
        raise NotG2Error("certification needs a three-form on a 7-dimensional space")
    b = bilinear_volume_form(phi)
    det_b = b.det()
    if det_b.is_zero():
        raise NotG2Error("induced bilinear form is degenerate")
    # B = c g with c^9 = det B, so c has the sign of det B and
    # g~ = sign(det B) B = |c| g has the signature of g
    scaled = b if det_b.sign() > 0 else -b
    sig = scaled.signature()
    if sig not in ((7, 0, 0), (3, 4, 0)):
        raise NotG2Error(f"induced metric has signature {sig}, not (7,0) or (3,4)")
    eps = -1 if sig == (7, 0, 0) else 1
    c = ninth_root(det_b)
    if c is None:
        return G2EpsStructure(phi, eps, None, None, "generic", scaled, det_b)
    metric = b.scale(c.inverse())
    vol = _form(7, 7, [(tuple(range(1, 8)), c)])
    return G2EpsStructure(phi, eps, metric, vol, _detect_frame_kind(metric, eps),
                          scaled, det_b)


def certify_g2(phi: KForm) -> G2EpsStructure:
    """Certify a three-form as a G2^eps structure; raises NotG2Error.

    The test is the stability criterion: phi is a G2^eps structure exactly
    when its bilinear form B is non-degenerate (Hitchin; Bryant), and eps
    is read off the signature of g~ = sign(det B) B.
    ``tests/test_g2.py`` pins the criterion against the dimension of the
    stabilizer algebra.
    """
    return _certify_cached(phi)


# -- Witt frame -------------------------------------------------------------------


@dataclass(frozen=True)
class WittFrame:
    """Covector change from an adapted basis of the split model to a Witt
    basis F_1..F_7: row i of ``basis_change`` expresses F^i in the f^j."""

    basis_change: Matrix

    def to_witt(self, a: KForm) -> KForm:
        """Rewrite a form given in adapted coordinates in Witt coordinates."""
        return pullback(self.basis_change.inverse(), a)

    def gram_in_witt(self, metric: Matrix) -> Matrix:
        t = self.basis_change.inverse()
        return t.transpose() @ metric @ t


def witt_frame_from_adapted() -> WittFrame:
    """The explicit change F^1 = f^1 + f^7, ..., F^7 = -f^1 + f^7."""
    c = HALF_SQRT2  # sqrt2 / 2
    rows = [
        [1, 0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, c, 0, 0, c, 0],
        [0, 0, 0, c, c, 0, 0],
        [0, 0, 0, c, -c, 0, 0],
        [0, 0, -c, 0, 0, c, 0],
        [-1, 0, 0, 0, 0, 0, 1],
    ]
    return WittFrame(Matrix(rows))


_WITT_PHI = KForm.build(7, 3, [
    (-1, 1, 5, 6), (-1, 2, 3, 6), (1, 2, 4, 5),
    (Scalar(Fraction(-1, 2)), 1, 2, 7), (-1, 3, 4, 7),
])


def witt_phi() -> KForm:
    """The split three-form in its Witt frame:
    -F^156 - F^236 + F^245 - 1/2 F^127 - F^347, one immutable form built at
    import and shared by every call, which the certify cache matches by identity."""
    return _WITT_PHI


def witt_star_phi() -> KForm:
    """Hodge dual of the Witt-frame three-form:
    F^1256 + F^3456 + 1/2 F^1367 - 1/2 F^1457 + F^2347."""
    return KForm.build(7, 4, [
        (1, 1, 2, 5, 6), (1, 3, 4, 5, 6),
        (Scalar(Fraction(1, 2)), 1, 3, 6, 7),
        (Scalar(Fraction(-1, 2)), 1, 4, 5, 7),
        (1, 2, 3, 4, 7),
    ])


# -- hyperplane restrictions ---------------------------------------------------


class HyperplaneType(Enum):
    """Model tensors of (phi|_W, star(phi)|_W) on a hyperplane W."""

    RHO_MINUS_OM_MINUS = ("rho_minus", "half_omega_minus_sq")
    RHO_MINUS_OM_PLUS = ("rho_minus", "half_omega_plus_sq")
    RHO_PLUS_OM_MINUS = ("rho_plus", "minus_half_omega_minus_sq")
    RHO_NULL = ("rho_0", "Omega_0")

    def __str__(self):
        return f"({self.value[0]}, {self.value[1]})"


# the non-degenerate restrictions: signature of g|_W -> (type, sign of the
# cubic invariant of phi|_W); g is positive definite for eps = -1 and of
# signature (3,4) for eps = 1
_HYPERPLANE_TYPES = {
    (6, 0, 0): (HyperplaneType.RHO_MINUS_OM_MINUS, -1),
    (2, 4, 0): (HyperplaneType.RHO_MINUS_OM_PLUS, -1),
    (3, 3, 0): (HyperplaneType.RHO_PLUS_OM_MINUS, 1),
}


def structure_map(rho: KForm) -> Matrix:
    """K(v) = A((v -| rho)^rho) for a three-form on R^6, with A the
    canonical pairing of five-forms against the volume e^{1...6}."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("structure map needs a three-form on R^6")
    # e^i pairs with the e^{i^c} coefficient, signed by e^i ^ e^{i^c}
    pairing = [_complement((i,), 6) for i in range(1, 7)]
    cols = []
    for j in range(6):
        v = [ONE if k == j else ZERO for k in range(6)]
        xi = wedge(interior(v, rho), rho)
        cols.append([sg * xi.coefficient(*comp) for comp, sg in pairing])
    return Matrix.from_columns(cols)


def cubic_invariant(rho: KForm) -> Scalar:
    """lambda(rho) = (1/6) tr(K^2); negative for rho_minus-type, positive
    for rho_plus-type, zero (with K != 0) for the degenerate type."""
    k = structure_map(rho)
    return Scalar(Fraction(1, 6)) * (k @ k).trace()


def hyperplane_model_type(s: G2EpsStructure, covector: KForm) -> HyperplaneType:
    """Classify (phi|_W, star(phi)|_W) for the hyperplane W = ker(covector).

    The type is read off the signature of g|_W, which g~|_W = |c| g|_W has
    for every certified form, and cross-checked against the sign of the
    cubic invariant of phi|_W; ``ModelTypeMismatchError`` is raised if the
    two disagree, which no G2^eps structure allows.
    """
    if covector.dim != 7 or covector.degree != 1:
        raise ValueError("hyperplane must be given by a covector on R^7")
    if covector.is_zero():
        raise ValueError("zero covector does not define a hyperplane")
    row = [[covector.coefficient(i) for i in range(1, 8)]]
    # the columns of w are a basis of W: g~|_W = w^T g~ w and phi|_W = w^* phi
    w = Matrix.from_columns(Matrix(row).kernel())
    sig = (w.transpose() @ s.scaled_metric @ w).signature()
    rho_w = pullback(w, s.phi)
    lam = cubic_invariant(rho_w)
    # the type from the signature, cross-validated by the orbit invariant
    if sig[2] > 0:
        result = HyperplaneType.RHO_NULL
        ok = lam.is_zero() and not structure_map(rho_w).is_zero()
    elif sig in _HYPERPLANE_TYPES:
        result, lam_sign = _HYPERPLANE_TYPES[sig]
        ok = lam.sign() == lam_sign
    else:
        raise ValueError(f"unexpected restricted signature {sig}")
    if not ok:
        raise ModelTypeMismatchError(
            f"orbit invariant {lam} inconsistent with signature classification {result}"
        )
    return result
