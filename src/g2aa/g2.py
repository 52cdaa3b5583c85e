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

Certification is memoized per form in a cache of 32 entries.  The
package's own traffic needs one: ``g2aa reproduce all`` certifies one
distinct form (122 cache hits), a sweep one, and report runs never repeat
a form.  The size is picked to bound memory, not derived from that
traffic: a certified structure computes its ``star_phi()`` once and keeps
it, and its metric keeps its inverse, so the Hodge star and the
Levi-Civita connection share one elimination.  These memos hold about
8.5 KB per structure of a report, so 32 entries keep at most about 270 KB
while leaving room for a library caller that alternates among a few forms.
Measured on the report benchmark, peak RSS went from 28.2 to 29.7 MB with
the memos and 256 entries, and to about 27 MB with 32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .exterior import KForm, _complement, gl_action, hodge_star, interior, pullback, wedge
from .linalg import Matrix
from .scalars import HALF, HALF_SQRT2, ONE, ZERO, DomainError, Scalar


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
    the n^2 entries of A in row-major order: one row per index tuple in the
    support of the action on a form, forms in turn, supports sorted."""
    n = forms[0].dim
    entries = {}
    top = 0
    for f in forms:
        rows: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for i in range(n):
            for j in range(n):
                acted = gl_action(Matrix.sparse(n, n, {(i, j): ONE}), f)
                for idx, x in acted.items():
                    rows.setdefault(idx, {})[i * n + j] = x
        for k, idx in enumerate(sorted(rows), start=top):
            entries.update(((k, col), x) for col, x in rows[idx].items())
        top += len(rows)
    # a form that all of gl(n) annihilates still gives one (zero) row
    return Matrix.sparse(max(top, 1), n * n, entries)


def _kernel_to_endos(vectors: list[list[Scalar]], n: int) -> list[Matrix]:
    return [Matrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in vectors]


def stabilizer_algebra(a: KForm) -> list[Matrix]:
    """Exact basis of {A in gl(n) : A.a = 0}."""
    action = _action_matrix([a])
    return _kernel_to_endos(action.kernel(), a.dim)


def joint_stabilizer_algebra(a: KForm, b: KForm) -> list[Matrix]:
    """Exact basis of the intersection of the annihilators of a and b."""
    if a.dim != b.dim:
        raise ValueError("forms must share the ambient dimension")
    action = _action_matrix([a, b])
    return _kernel_to_endos(action.kernel(), a.dim)


# -- certification ----------------------------------------------------------------


@dataclass(frozen=True)
class G2EpsStructure:
    """A certified G2^eps three-form with its induced metric data.

    ``metric``/``vol`` are exact when the required ninth root lies in
    Q(sqrt2); otherwise they are None and the float fallbacks are set,
    with the defining relation checked to ``FLOAT_TOL`` relative error.
    """

    phi: KForm
    eps: int
    metric: Matrix | None
    vol: KForm | None
    frame_kind: str  # adapted | witt | generic
    metric_float: tuple[tuple[float, ...], ...] | None = None
    vol_float: float | None = None

    @property
    def is_exact(self) -> bool:
        return self.metric is not None

    def hodge(self, a: KForm) -> KForm:
        if not self.is_exact:
            raise ValueError("Hodge star requires the exact-metric pipeline")
        return hodge_star(a, self.metric, self.vol)

    def star_phi(self) -> KForm:
        """The Hodge dual of phi, computed on the first call and kept on
        the structure.  The write is idempotent, so a structure that the
        certify cache shares stays safe to share."""
        star = self.__dict__.get("_star_phi")
        if star is None:
            star = self.hodge(self.phi)
            object.__setattr__(self, "_star_phi", star)
        return star


FLOAT_TOL = 1e-9

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


def bilinear_volume_form(phi: KForm) -> Matrix:
    """Coefficient matrix of B(v,w) = (1/6)(v -| phi)^(w -| phi)^phi.

    With h_j = e_j -| phi, B_ij is (1/6) the top coefficient of
    h_i ^ (h_j ^ phi), which reads only the coefficients of the five-form
    h_j ^ phi complementary to the terms of h_i:
    B_ij = (1/6) sum_I h_i[I] (h_j ^ phi)[I^c] sign(I, I^c)."""
    n = phi.dim
    hooks = [interior([ONE if k == i else ZERO for k in range(n)], phi) for i in range(n)]
    fives = [dict(wedge(h, phi).items()) for h in hooks]
    sixth = Scalar(Fraction(1, 6))
    entries = {}
    for i in range(n):
        terms = [(_complement(idx, n), c) for idx, c in hooks[i].items()]
        for j in range(i, n):
            five = fives[j]
            acc = ZERO
            for (comp, sg), c in terms:
                y = five.get(comp)
                if y is not None:
                    acc = acc + c * y if sg > 0 else acc - c * y
            entries[(i, j)] = entries[(j, i)] = sixth * acc
    return Matrix.sparse(n, n, entries)


def _integer_ninth_root(m: int) -> int | None:
    if m < 0:
        r = _integer_ninth_root(-m)
        return None if r is None else -r
    if m < 2:
        return m
    # integer Newton from above: x starts at 2^ceil(bits/9) >= m^(1/9) and
    # decreases to floor(m^(1/9))
    x = 1 << -(-m.bit_length() // 9)
    while True:
        y = (8 * x + m // x**8) // 9
        if y >= x:
            return x if x**9 == m else None
        x = y


def _rational_ninth_root(f: Fraction) -> Fraction | None:
    num = _integer_ninth_root(f.numerator)
    den = _integer_ninth_root(f.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def ninth_root(d: Scalar) -> Scalar | None:
    """The real ninth root of d, if it lies in Q(sqrt2); None otherwise."""
    if d.is_rational():
        r = _rational_ninth_root(d.a)
        return None if r is None else Scalar(r)
    if not d.a:
        # (t*sqrt2)^9 = 16 sqrt2 t^9
        r = _rational_ninth_root(d.b / 16)
        return None if r is None else Scalar(0, r)
    # general element: reconstruct from the two real embeddings and verify
    import mpmath

    def real_ninth(x):
        return mpmath.sign(x) * mpmath.root(abs(x), 9)

    with mpmath.workdps(60):
        s2 = mpmath.sqrt(2)
        ea = mpmath.mpf(d.a.numerator) / d.a.denominator
        eb = mpmath.mpf(d.b.numerator) / d.b.denominator
        r_plus = real_ninth(ea + s2 * eb)
        r_minus = real_ninth(ea - s2 * eb)
        u = Fraction(mpmath.nstr((r_plus + r_minus) / 2, 40))
        v = Fraction(mpmath.nstr((r_plus - r_minus) / (2 * s2), 40))
    for bound in (10**3, 10**6, 10**12, 10**18):
        cand = Scalar(u.limit_denominator(bound), v.limit_denominator(bound))
        if cand**9 == d:
            return cand
    return None


def _detect_frame_kind(metric: Matrix, eps: int) -> str:
    if metric == adapted_metric(eps):
        return "adapted"
    if metric == WITT_GRAM:
        return "witt"
    return "generic"


@lru_cache(maxsize=32)
def _certify_cached(phi: KForm, tol: float) -> G2EpsStructure:
    n = phi.dim
    if n != 7 or phi.degree != 3:
        raise NotG2Error("certification needs a three-form on a 7-dimensional space")
    b = bilinear_volume_form(phi)
    det_b = b.det()
    if det_b.is_zero():
        raise NotG2Error("induced bilinear form is degenerate")
    # B = c g with c^9 = det B, so c has the sign of det B and g has the
    # signature of B, swapped when det B < 0
    p, q, z = b.signature()
    sig = (p, q, z) if det_b.sign() > 0 else (q, p, z)
    if sig not in ((7, 0, 0), (3, 4, 0)):
        raise NotG2Error(f"induced metric has signature {sig}, not (7,0) or (3,4)")
    eps = -1 if sig == (7, 0, 0) else 1
    c = ninth_root(det_b)
    if c is not None:
        metric = b.scale(c.inverse())
        vol = KForm(7, 7, {tuple(range(1, 8)): c})
        return G2EpsStructure(phi, eps, metric, vol, _detect_frame_kind(metric, eps))
    # float fallback: the ninth root leaves Q(sqrt2)
    try:
        det_f = float(det_b)
        bf = b.to_float()
    except OverflowError as exc:
        raise NotG2Error("coefficients too large for the float fallback") from exc
    if det_f == 0.0:
        raise NotG2Error("coefficients too small for the float fallback")
    c_f = _float_ninth_root(det_f)
    metric_f = tuple(tuple(x / c_f for x in row) for row in bf)
    rel = abs(c_f**9 - det_f) / max(abs(det_f), 1e-300)
    if rel > tol:
        raise NotG2Error("float fallback failed the defining-relation tolerance")
    return G2EpsStructure(phi, eps, None, None, "generic",
                          metric_float=metric_f, vol_float=c_f)


def certify_g2(phi: KForm, tol: float = FLOAT_TOL) -> G2EpsStructure:
    """Certify a three-form as a G2^eps structure; raises NotG2Error.

    The test is the stability criterion: phi is a G2^eps structure exactly
    when its bilinear form B is non-degenerate (Hitchin; Bryant), and eps
    is read off the signature of B, swapped when det B < 0.
    ``tests/test_g2.py`` pins the criterion against the dimension of the
    stabilizer algebra.

    ``tol`` bounds the relative error of the float fallback's ninth-root
    relation; the exact path ignores it.
    """
    return _certify_cached(phi, _positive_tol(tol))


def _positive_tol(tol: float) -> float:
    # the negated test also refuses nan, which compares false both ways
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be positive and finite")
    return tol


def _float_ninth_root(x: float) -> float:
    return (abs(x) ** (1 / 9.0)) * (1 if x >= 0 else -1)


# -- Witt frame -------------------------------------------------------------------


@dataclass(frozen=True)
class WittFrame:
    """Covector change from an adapted basis of the split model to a Witt
    basis F_1..F_7: row i of ``basis_change`` expresses F^i in the f^j."""

    basis_change: Matrix

    def to_witt(self, a: KForm) -> KForm:
        """Rewrite a form given in adapted coordinates in Witt coordinates."""
        return pullback(self.basis_change.inverse(), a)

    def from_witt(self, a: KForm) -> KForm:
        return pullback(self.basis_change, a)

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


def witt_phi() -> KForm:
    """The split three-form in its Witt frame:
    -F^156 - F^236 + F^245 - 1/2 F^127 - F^347."""
    return KForm.build(7, 3, [
        (-1, 1, 5, 6), (-1, 2, 3, 6), (1, 2, 4, 5),
        (Scalar(Fraction(-1, 2)), 1, 2, 7), (-1, 3, 4, 7),
    ])


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


def structure_map(rho: KForm) -> Matrix:
    """K(v) = A((v -| rho)^rho) for a three-form on R^6, with A the
    canonical pairing of five-forms against the volume e^{1...6}."""
    if rho.dim != 6 or rho.degree != 3:
        raise ValueError("structure map needs a three-form on R^6")
    cols = []
    full = tuple(range(1, 7))
    for j in range(6):
        v = [ONE if k == j else ZERO for k in range(6)]
        xi = wedge(interior(v, rho), rho)
        col = []
        for i in range(1, 7):
            rest = tuple(x for x in full if x != i)
            c = xi.coefficient(*rest)
            if (i - 1) % 2:
                c = -c
            col.append(c)
        cols.append(col)
    return Matrix.from_columns(cols)


def cubic_invariant(rho: KForm) -> Scalar:
    """lambda(rho) = (1/6) tr(K^2); negative for rho_minus-type, positive
    for rho_plus-type, zero (with K != 0) for the degenerate type."""
    k = structure_map(rho)
    return Scalar(Fraction(1, 6)) * (k @ k).trace()


def hyperplane_model_type(s: G2EpsStructure, covector: KForm) -> HyperplaneType:
    """Classify (phi|_W, star(phi)|_W) for the hyperplane W = ker(covector).

    The type is read off the signature of g|_W and cross-checked against the
    sign of the cubic invariant of phi|_W; ``ModelTypeMismatchError`` is
    raised if the two disagree, which no G2^eps structure allows.
    """
    if covector.dim != 7 or covector.degree != 1:
        raise ValueError("hyperplane must be given by a covector on R^7")
    if covector.is_zero():
        raise ValueError("zero covector does not define a hyperplane")
    if not s.is_exact:
        raise ValueError("hyperplane classification requires an exact metric")
    row = [[covector.coefficient(i) for i in range(1, 8)]]
    # the columns of w are a basis of W: g|_W = w^T g w and phi|_W = w^* phi
    w = Matrix.from_columns(Matrix(row).kernel())
    sig = (w.transpose() @ s.metric @ w).signature()
    rho_w = pullback(w, s.phi)
    lam = cubic_invariant(rho_w)
    if sig[2] > 0:
        result = HyperplaneType.RHO_NULL
        expect_zero = True
    elif s.eps == -1:
        result = HyperplaneType.RHO_MINUS_OM_MINUS
        expect_zero = False
    elif sig == (2, 4, 0):
        result = HyperplaneType.RHO_MINUS_OM_PLUS
        expect_zero = False
    elif sig == (3, 3, 0):
        result = HyperplaneType.RHO_PLUS_OM_MINUS
        expect_zero = False
    else:
        raise ValueError(f"unexpected restricted signature {sig}")
    # cross-validation by the orbit invariant
    lam_sign = lam.sign()
    if expect_zero:
        ok = lam_sign == 0 and not structure_map(rho_w).is_zero()
    elif result is HyperplaneType.RHO_PLUS_OM_MINUS:
        ok = lam_sign > 0
    else:
        ok = lam_sign < 0
    if not ok:
        raise ModelTypeMismatchError(
            f"orbit invariant {lam} inconsistent with signature classification {result}"
        )
    return result
