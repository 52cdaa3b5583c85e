"""Left-invariant pseudo-Riemannian geometry of an almost abelian Lie
algebra: Levi-Civita connection, curvature, covariant derivatives of the
curvature, infinitesimal holonomy, and structure annihilation tests.

Sign conventions, fixed once and used everywhere:

* Koszul: 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y);
* R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_{[X,Y]};
* Ric(X,Y) = tr(Z -> R(Z,X)Y).

For left-invariant tensors the covariant derivative of an endomorphism
field T along f_z is the commutator [nabla_z, T].
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import DegenerateMetricError, KForm, gl_action
from .liealg import AlmostAbelianAlgebra
from .linalg import Matrix
from .scalars import HALF, ONE, ZERO, Scalar


@dataclass(frozen=True)
class ConnectionTable:
    """nabla_{f_i} as matrices: column j of ``nabla[i]`` is nabla_{f_i} f_j."""

    algebra: AlmostAbelianAlgebra
    metric: Matrix
    nabla: tuple[Matrix, ...]


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

    def r_of(self, i: int, j: int) -> Matrix:
        """R(f_i, f_j) for arbitrary 0-based index order."""
        if i == j:
            return Matrix.zero(self.ricci.rows)
        if i < j:
            return self.r[(i, j)]
        return -self.r[(j, i)]


def levi_civita(algebra: AlmostAbelianAlgebra, metric: Matrix) -> ConnectionTable:
    """Levi-Civita connection of an exact left-invariant metric."""
    n = algebra.n
    if metric.rows != n or metric.cols != n:
        raise ValueError("metric size must match the algebra dimension")
    if not metric.is_symmetric():
        raise ValueError("metric must be symmetric")
    try:
        ginv = metric.inverse()
    except ZeroDivisionError as exc:
        raise DegenerateMetricError("metric is degenerate") from exc

    brackets = [[algebra.bracket(i + 1, j + 1) for j in range(n)] for i in range(n)]

    def g_pair(vec: list[Scalar], k: int) -> Scalar:
        # g(vec, f_k) with vec a coefficient vector
        acc = ZERO
        for a in range(n):
            va = vec[a]
            if not va.is_zero():
                m = metric[a, k]
                if not m.is_zero():
                    acc = acc + va * m
        return acc

    nabla = []
    for i in range(n):
        cols = []
        for j in range(n):
            rhs = []
            for k in range(n):
                t = (
                    g_pair(brackets[i][j], k)
                    - g_pair(brackets[j][k], i)
                    + g_pair(brackets[k][i], j)
                )
                rhs.append(HALF * t)
            cols.append(ginv.apply(rhs))
        nabla.append(Matrix.from_columns(cols))
    return ConnectionTable(algebra, metric, tuple(nabla))


def curvature(conn: ConnectionTable) -> CurvatureReport:
    """Curvature endomorphisms and the Ricci form."""
    algebra = conn.algebra
    n = algebra.n
    nabla = conn.nabla
    r: dict[tuple[int, int], Matrix] = {}
    for i in range(n):
        for j in range(i + 1, n):
            rij = nabla[i] @ nabla[j] - nabla[j] @ nabla[i]
            bracket = algebra.bracket(i + 1, j + 1)
            for k, c in enumerate(bracket):
                if not c.is_zero():
                    rij = rij - c * nabla[k]
            r[(i, j)] = rij
    ricci_rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = ZERO
            for k in range(n):
                if k == i:
                    continue
                rk = r[(k, i)] if k < i else r[(i, k)]
                val = rk[k, j]
                if not val.is_zero():
                    acc = acc + (val if k < i else -val)
            ricci_rows[i][j] = acc
    ricci = Matrix(ricci_rows)
    is_flat = all(m.is_zero() for m in r.values())
    return CurvatureReport(r, ricci, is_flat, ricci.is_zero())


def endo_derivative(conn: ConnectionTable, z: int, t: Matrix) -> Matrix:
    """nabla_{f_z} of a left-invariant endomorphism field: [nabla_z, T]."""
    return conn.nabla[z].commutator(t)


def _r_bilinear(report: CurvatureReport, u: list[Scalar], w: list[Scalar]) -> Matrix:
    n = report.ricci.rows
    out = Matrix.zero(n)
    for i in range(n):
        ui = u[i]
        if ui.is_zero():
            continue
        for j in range(n):
            wj = w[j]
            if wj.is_zero() or i == j:
                continue
            c = ui * wj
            rij = report.r[(i, j)] if i < j else report.r[(j, i)]
            if rij.is_zero():
                continue
            out = out + (c if i < j else -c) * rij
    return out


def nabla_r_full(conn: ConnectionTable, report: CurvatureReport,
                 z: int, x: int, y: int) -> Matrix:
    """Full tensor derivative (nabla_z R)(f_x, f_y)."""
    n = conn.algebra.n
    t1 = endo_derivative(conn, z, report.r_of(x, y))
    nx = list(conn.nabla[z].column(x))
    ny = list(conn.nabla[z].column(y))
    ex = [ONE if k == x else ZERO for k in range(n)]
    ey = [ONE if k == y else ZERO for k in range(n)]
    return t1 - _r_bilinear(report, nx, ey) - _r_bilinear(report, ex, ny)


@dataclass(frozen=True)
class NablaRData:
    """Both covariant-derivative notions for the curvature."""

    endo_derivatives: dict[tuple[int, int, int], Matrix]
    full_tensor: dict[tuple[int, int, int], Matrix]
    is_locally_symmetric: bool


def nabla_r(conn: ConnectionTable, report: CurvatureReport) -> NablaRData:
    """All (nabla_z R)(f_x, f_y) and all endomorphism derivatives
    nabla_z(R(f_x, f_y)); local symmetry means the full tensor vanishes."""
    n = conn.algebra.n
    endo: dict[tuple[int, int, int], Matrix] = {}
    full: dict[tuple[int, int, int], Matrix] = {}
    loc_sym = True
    for z in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                rxy = report.r[(x, y)]
                endo[(z, x, y)] = endo_derivative(conn, z, rxy)
                t = nabla_r_full(conn, report, z, x, y)
                full[(z, x, y)] = t
                if loc_sym and not t.is_zero():
                    loc_sym = False
    return NablaRData(endo, full, loc_sym)


def is_locally_symmetric(conn: ConnectionTable, report: CurvatureReport) -> bool:
    """Early-exit check that the full nabla R vanishes."""
    n = conn.algebra.n
    nonzero_pairs = [(x, y) for (x, y), m in report.r.items() if not m.is_zero()]
    if not nonzero_pairs:
        return True
    for z in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                if not nabla_r_full(conn, report, z, x, y).is_zero():
                    return False
    return True


class _SpanTracker:
    """Incremental row reduction for flattened endomorphisms."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    def add(self, m: Matrix) -> bool:
        v = [m[i, j] for i in range(self.n) for j in range(self.n)]
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not c.is_zero():
                v = [a - c * b for a, b in zip(v, row)]
        p = next((k for k, a in enumerate(v) if not a.is_zero()), None)
        if p is None:
            return False
        inv = v[p].inverse()
        self.rows.append([inv * a for a in v])
        self.pivots.append(p)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


HOLONOMY_ITERATION_CAP = 49


def holonomy_algebra(conn: ConnectionTable, report: CurvatureReport) -> list[Matrix]:
    """Infinitesimal holonomy: the span of all curvature endomorphisms,
    closed under covariant differentiation along every basis direction."""
    n = conn.algebra.n
    tracker = _SpanTracker(n)
    basis: list[Matrix] = []
    frontier: list[Matrix] = []
    for m in report.r.values():
        if not m.is_zero() and tracker.add(m):
            basis.append(m)
            frontier.append(m)
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > HOLONOMY_ITERATION_CAP:
            raise RuntimeError("holonomy iteration failed to stabilize")
        new_frontier = []
        for m in frontier:
            for z in range(n):
                d = endo_derivative(conn, z, m)
                if not d.is_zero() and tracker.add(d):
                    basis.append(d)
                    new_frontier.append(d)
        frontier = new_frontier
    return basis


def annihilates(phi: KForm, endos: list[Matrix]) -> bool:
    """True iff every endomorphism acts trivially on the form."""
    return all(gl_action(a, phi).is_zero() for a in endos)


def is_abelian_family(endos: list[Matrix]) -> bool:
    return all(
        endos[i].commutator(endos[j]).is_zero()
        for i in range(len(endos))
        for j in range(i + 1, len(endos))
    )


def analyze(algebra: AlmostAbelianAlgebra, phi: KForm, metric: Matrix) -> CurvatureReport:
    """Full curvature report for a structure with an exact metric."""
    conn = levi_civita(algebra, metric)
    report = curvature(conn)
    report.hol_basis = holonomy_algebra(conn, report)
    report.hol_dim = len(report.hol_basis)
    report.is_locally_symmetric = is_locally_symmetric(conn, report)
    report.hol_annihilates_phi = annihilates(phi, report.hol_basis)
    return report
