"""Left-invariant pseudo-Riemannian geometry of an almost abelian Lie
algebra: Levi-Civita connection, curvature, covariant derivatives of the
curvature, infinitesimal holonomy, and structure annihilation tests.

Sign conventions, fixed once and used everywhere:

* Koszul: 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y);
* R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_{[X,Y]};
* Ric(X,Y) = tr(Z -> R(Z,X)Y).

For left-invariant tensors the covariant derivative of an endomorphism
field T along f_z is the commutator [nabla_z, T].

The algebra is almost abelian, so the connection and the curvature are
built from the nonzero brackets [f_n, f_j] = A f_j only (see ``levi_civita``
and ``curvature``).  The metric is inverted by ``exterior._metric_inverse``,
as in the Hodge star, and ``Matrix.inverse`` keeps the inverse on it.

Lowered coordinates.  The connection keeps the Christoffel matrices
Gamma_z = g nabla_z, which are skew, and for z < n-1 nonzero only in the
last row and column.  An endomorphism h is g-skew when g h is
antisymmetric; every R(f_x, f_y), every holonomy element and every
(nabla_z R)(f_x, f_y) is.  Such an h is stored as the n(n-1)/2 strict upper
entries of g h, which h -> g h maps injectively.  For g-skew h,
g [nabla_z, h] = Gamma_z h - (Gamma_z h)^T, whose strict upper part
``_lowered_product`` accumulates from the row maps of Gamma_z and h without
forming Gamma_z h; ``_raise`` returns to h = g^{-1} (u - u^T).  The
curvature, the holonomy closure and the nabla R test work on these
coordinates; the last two skip every z with nabla_z = 0, where each
derivative vanishes.  Loops over matrices built here read their row maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exterior import KForm, _metric_inverse, gl_action
from .liealg import AlmostAbelianAlgebra
from .linalg import _EMPTY, Echelon, Matrix, _of
from .scalars import HALF, ZERO, Scalar


@dataclass(frozen=True)
class ConnectionTable:
    """nabla_{f_i} as matrices: column j of ``nabla[i]`` is nabla_{f_i} f_j.
    ``christoffel[i]`` is Gamma_i = g nabla_i, with (k, j) entry
    g(nabla_{f_i} f_j, f_k); it is skew because the connection is metric."""

    algebra: AlmostAbelianAlgebra
    metric: Matrix
    nabla: tuple[Matrix, ...]
    christoffel: tuple[Matrix, ...] = field(compare=False, repr=False)


@dataclass
class CurvatureReport:
    """Curvature endomorphisms R(f_i, f_j) for i < j plus derived data."""

    r: dict[tuple[int, int], Matrix]
    ricci: Matrix
    is_flat: bool
    is_ricci_flat: bool
    hol_basis: list[Matrix] | None = None
    hol_dim: int | None = None
    is_locally_symmetric: bool | None = None
    hol_annihilates_phi: bool | None = None
    # lowered coordinates (see ``_lowered_product``) of R(f_i, f_j), i < j
    lowered: dict[tuple[int, int], dict[int, Scalar]] = field(
        default_factory=dict, compare=False, repr=False)

    def r_of(self, i: int, j: int) -> Matrix:
        """R(f_i, f_j) for arbitrary 0-based index order."""
        if i == j:
            return Matrix.zero(self.ricci.rows)
        if i < j:
            return self.r[(i, j)]
        return -self.r[(j, i)]


def levi_civita(algebra: AlmostAbelianAlgebra, metric: Matrix) -> ConnectionTable:
    """Levi-Civita connection of an exact left-invariant metric, in closed
    form from M = g A.

    Here A is ad(f_n) padded with a zero last row and column, so the last
    column of M is zero.  The only nonzero brackets are
    [f_n, f_j] = -[f_j, f_n] = A f_j for j < n, and the Koszul formula
    gives the Christoffel matrices Gamma_i = g nabla_i directly:

    * for i < n-1, Gamma_i = e_n s_i^T - s_i e_n^T, with s_i row i of the
      symmetric part S = (M + M^T) / 2;
    * Gamma_{n-1} has (k, j) entry (M[k][j] - M[j][k]) / 2 for k, j < n-1,
      M[n-1][j] at (n-1, j) and -M[n-1][j] at (j, n-1).

    Each pair {c, j} of the support of M is read once, so every entry of S
    and of M - M^T is formed once.  Then nabla_i = g^{-1} Gamma_i."""
    n = algebra.n
    ginv = _metric_inverse(metric, n)
    if not metric.is_symmetric():
        raise ValueError("metric must be symmetric")
    last = n - 1
    # A, padded to n x n, shares the row maps of ad(f_n); Gamma_i gets nonzeros only
    m = dict((metric @ _of(n, n, algebra.ad_matrix._r)).items())
    gammas: list[dict[int, dict[int, Scalar]]] = [{} for _ in range(n)]
    for (c, j), x in m.items():
        y = m.get((j, c))
        if y is not None and c > j:
            continue  # read at (j, c): each pair {c, j} is read once
        # s = 2 S[c][j]; S[c][j] = S[j][c] enters Gamma_c and Gamma_j, while
        # S[n-1][j] would enter Gamma_j only at (n-1, n-1), where it cancels
        s = x if y is None else x + y
        if c < last and not s.is_zero():
            h = HALF * s
            for i, k in ((c, j), (j, c)):
                gammas[i].setdefault(last, {})[k] = h
                gammas[i].setdefault(k, {})[last] = -h
        # (M - M^T)[c][j] enters Gamma_{n-1}, halved off its last row and column
        d = ZERO if c == j else x if y is None else x - y
        if not d.is_zero():
            if c != last:
                d = HALF * d
            gammas[last].setdefault(c, {})[j] = d
            gammas[last].setdefault(j, {})[c] = -d
    christoffel = tuple(_of(n, n, rows) for rows in gammas)
    nabla = tuple(ginv @ gamma for gamma in christoffel)
    return ConnectionTable(algebra, metric, nabla, christoffel)


def _lowered_product(a: Matrix, b: Matrix) -> dict[int, Scalar]:
    """The strict upper entries of p - p^T for p = a b, as {i n + j: entry}
    for i < j: the lowered coordinates of the g-skew g^{-1} (p - p^T).  Each
    term a[i][k] b[k][j] is added at (i, j) or subtracted at (j, i), so p is
    never formed.  Zero entries may remain."""
    n = a.rows
    rows = b._r
    out: dict[int, Scalar] = {}
    for i, row in a._r.items():
        for k, x in row.items():
            for j, y in rows.get(k, _EMPTY).items():
                if i < j:
                    key = i * n + j
                    v = out.get(key)
                    out[key] = x * y if v is None else v + x * y
                elif i > j:
                    key = j * n + i
                    v = out.get(key)
                    out[key] = -(x * y) if v is None else v - x * y
    return out


def _sub_scaled(u: dict[int, Scalar], c: Scalar, w: dict[int, Scalar]):
    """u <- u - c w, in place, on lowered coordinates."""
    for k, x in w.items():
        v = u.get(k)
        u[k] = -c * x if v is None else v - c * x


def _raise(conn: ConnectionTable, u: dict[int, Scalar]) -> Matrix:
    """The g-skew endomorphism g^{-1} (u - u^T) with lowered coordinates u."""
    n = conn.algebra.n
    skew = {}
    for k, x in u.items():
        a, b = divmod(k, n)
        skew[(a, b)] = x
        skew[(b, a)] = -x
    return conn.metric.inverse() @ Matrix.sparse(n, n, skew)


def curvature(conn: ConnectionTable) -> CurvatureReport:
    """Curvature endomorphisms and the Ricci form, built lowered.

    g R(f_i, f_j) = Gamma_i nabla_j - Gamma_j nabla_i - g nabla_{[f_i, f_j]},
    and Gamma_j nabla_i = (Gamma_i nabla_j)^T (both Gamma are skew and
    nabla = g^{-1} Gamma), so _lowered_product(Gamma_i, nabla_j) gives the
    lowered coordinates.  The only nonzero brackets are [f_i, f_n] = -A f_i,
    so the bracket term adds A[k][i] Gamma_k to the pairs (i, n-1) only, for
    the nonzero entries of column i of A.  Each nonzero R is raised once
    with the inverse metric; every zero R is one shared zero matrix."""
    algebra = conn.algebra
    n = algebra.n
    last = n - 1
    nabla = conn.nabla
    upper_gamma = [{a * n + b: x for (a, b), x in m.items() if a < b}
                   for m in conn.christoffel]
    columns = algebra.ad_matrix.transpose()  # row i is column i of A
    zero = Matrix.zero(n)
    r: dict[tuple[int, int], Matrix] = {}
    lowered: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            u = _lowered_product(conn.christoffel[i], nabla[j])
            if j == last:
                for k, c in columns.row_items(i):
                    _sub_scaled(u, -c, upper_gamma[k])
            u = {k: x for k, x in u.items() if not x.is_zero()}
            lowered[(i, j)] = u
            r[(i, j)] = _raise(conn, u) if u else zero
    # Ric(f_i, f_j) = sum_k R(f_k, f_i)[k, j]: R(f_a, f_b) enters row b
    # through its row a, and row a, negated, through its row b
    ric: dict[tuple[int, int], Scalar] = {}
    for (a, b), m in r.items():
        for j, x in m._r.get(a, _EMPTY).items():
            ric[(b, j)] = ric.get((b, j), ZERO) + x
        for j, x in m._r.get(b, _EMPTY).items():
            ric[(a, j)] = ric.get((a, j), ZERO) - x
    ricci = Matrix.sparse(n, n, ric)
    is_flat = all(m.is_zero() for m in r.values())
    return CurvatureReport(r, ricci, is_flat, ricci.is_zero(), lowered=lowered)


def endo_derivative(conn: ConnectionTable, z: int, t: Matrix) -> Matrix:
    """nabla_{f_z} of a left-invariant endomorphism field: [nabla_z, T]."""
    return conn.nabla[z].commutator(t)


def _nabla_r(conn: ConnectionTable, report: CurvatureReport, triples):
    """The one implementation of the covariant derivative of the curvature,

        (nabla_z R)(f_x, f_y) = [nabla_z, R(f_x, f_y)]
                                - R(nabla_z f_x, f_y) - R(f_x, nabla_z f_y),

    yielding ((z, x, y), u) lazily for each triple, u the nonzero lowered
    coordinates of the value, so that a caller can stop at the first
    nonzero value.  The first term is the fused product of Gamma_z and
    R(f_x, f_y), the others subtract lowered curvatures; only the nonzero
    entries of the columns nabla_z f_x and nabla_z f_y are walked."""
    cols = [m.transpose()._r for m in conn.nabla]  # row x of cols[z] is nabla_z f_x

    def sub(u, c, p, q):  # u <- u - c * lowered R(f_p, f_q)
        if p != q:
            _sub_scaled(u, c if p < q else -c, report.lowered[(min(p, q), max(p, q))])

    for z, x, y in triples:
        u = _lowered_product(conn.christoffel[z], report.r_of(x, y))
        for a, c in cols[z].get(x, _EMPTY).items():
            sub(u, c, a, y)
        for a, c in cols[z].get(y, _EMPTY).items():
            sub(u, c, x, a)
        yield (z, x, y), {k: v for k, v in u.items() if not v.is_zero()}


def _curved_triples(conn: ConnectionTable, report: CurvatureReport) -> list:
    """The triples (z, x, y), x < y, at which some term of (nabla_z R)(f_x, f_y)
    involves a nonzero R(f_p, f_q); nabla R vanishes at every other triple.

    R(nabla_z f_x, f_y) involves R(f_p, f_q) when y = q and nabla_z[p, x] != 0,
    or y = p and nabla_z[q, x] != 0; the last term likewise with x, y swapped;
    a z with nabla_z = 0 is dropped."""
    moving = [(z, nz._r) for z, nz in enumerate(conn.nabla) if not nz.is_zero()]
    out = set()
    for (p, q), m in report.r.items():
        if m.is_zero():
            continue
        for z, rows in moving:
            out.add((z, p, q))
            for a, b in ((p, q), (q, p)):
                out.update((z, min(c, b), max(c, b)) for c in rows.get(a, _EMPTY) if c != b)
    return sorted(out)


def nabla_r_full(conn: ConnectionTable, report: CurvatureReport,
                 z: int, x: int, y: int) -> Matrix:
    """Full tensor derivative (nabla_z R)(f_x, f_y)."""
    return _raise(conn, next(_nabla_r(conn, report, [(z, x, y)]))[1])


def is_locally_symmetric(conn: ConnectionTable, report: CurvatureReport) -> bool:
    """Early-exit check that the full nabla R vanishes."""
    triples = _curved_triples(conn, report)
    return not any(u for _, u in _nabla_r(conn, report, triples))


def holonomy_algebra(conn: ConnectionTable, report: CurvatureReport) -> list[Matrix]:
    """Infinitesimal holonomy: the span of all curvature endomorphisms,
    closed under covariant differentiation along every basis direction.

    The connection is metric, so every R(f_i, f_j) and every [nabla_z, .]
    of a g-skew endomorphism is g-skew: the span lies in so(g), and the
    closure stops once it holds dim so(g) = n(n-1)/2 independent elements.
    Every round but the last adds at least one independent element, so the
    loop ends within n(n-1)/2 + 1 rounds.

    The span test reads a candidate's lowered coordinates, which h -> g h
    maps injectively, so the basis keeps the same elements in the same
    order as on the endomorphisms themselves.  A derivative [nabla_z, h]
    costs one ``_lowered_product(Gamma_z, h)``, its lowered coordinates,
    which it is tested on and raised from, as ``curvature`` raises R, only
    when it is kept; a direction z with Gamma_z = 0 gives only zero
    candidates and is skipped.  Any other candidate is zero exactly when
    [nabla_z, h] = 0, which only the product shows, so none is skipped."""
    n = conn.algebra.n
    full = n * (n - 1) // 2
    moving = [z for z in range(n) if not conn.christoffel[z].is_zero()]
    echelon = Echelon()
    basis: list[Matrix] = []
    # (lowered coordinates, the endomorphism, or None for a derivative not yet raised)
    candidates = ((report.lowered[k], m) for k, m in report.r.items())
    while True:
        frontier = []
        for u, m in candidates:
            if echelon.add(u):
                if m is None:
                    m = _raise(conn, u)
                basis.append(m)
                if len(basis) == full:
                    return basis
                frontier.append(m)
        if not frontier:
            return basis
        candidates = ((_lowered_product(conn.christoffel[z], m), None)
                      for m in frontier for z in moving)


def annihilates(phi: KForm, endos: list[Matrix]) -> bool:
    """True iff every endomorphism acts trivially on the form."""
    return all(gl_action(a, phi).is_zero() for a in endos)


def analyze(algebra: AlmostAbelianAlgebra, phi: KForm, metric: Matrix) -> CurvatureReport:
    """Full curvature report for a structure with an exact metric."""
    conn = levi_civita(algebra, metric)
    report = curvature(conn)
    report.hol_basis = holonomy_algebra(conn, report)
    report.hol_dim = len(report.hol_basis)
    report.is_locally_symmetric = is_locally_symmetric(conn, report)
    report.hol_annihilates_phi = annihilates(phi, report.hol_basis)
    return report
