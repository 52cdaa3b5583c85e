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
from .linalg import Echelon, Matrix
from .scalars import HALF, ZERO, Scalar


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
    # gb[i][j][k] = g([f_i, f_j], f_k); the metric is symmetric
    gb = [[metric.apply(algebra.bracket(i + 1, j + 1)) for j in range(n)] for i in range(n)]
    # column j of nabla_i solves g(nabla_i f_j, f_k) = rhs_k (Koszul)
    nabla = tuple(
        ginv @ Matrix.from_columns(
            [[HALF * (gb[i][j][k] - gb[j][k][i] + gb[k][i][j]) for k in range(n)]
             for j in range(n)])
        for i in range(n))
    return ConnectionTable(algebra, metric, nabla)


def curvature(conn: ConnectionTable) -> CurvatureReport:
    """Curvature endomorphisms and the Ricci form."""
    algebra = conn.algebra
    n = algebra.n
    nabla = conn.nabla
    r: dict[tuple[int, int], Matrix] = {}
    for i in range(n):
        for j in range(i + 1, n):
            rij = nabla[i].commutator(nabla[j])
            for k, c in enumerate(algebra.bracket(i + 1, j + 1)):
                rij = rij - c * nabla[k]
            r[(i, j)] = rij
    # Ric(f_i, f_j) = sum_k R(f_k, f_i)[k, j]: R(f_a, f_b) enters row b
    # through its row a, and row a, negated, through its row b
    ric: dict[tuple[int, int], Scalar] = {}
    for (a, b), m in r.items():
        for j, x in m.row_items(a):
            ric[(b, j)] = ric.get((b, j), ZERO) + x
        for j, x in m.row_items(b):
            ric[(a, j)] = ric.get((a, j), ZERO) - x
    ricci = Matrix.sparse(n, n, ric)
    is_flat = all(m.is_zero() for m in r.values())
    return CurvatureReport(r, ricci, is_flat, ricci.is_zero())


def endo_derivative(conn: ConnectionTable, z: int, t: Matrix) -> Matrix:
    """nabla_{f_z} of a left-invariant endomorphism field: [nabla_z, T]."""
    return conn.nabla[z].commutator(t)


def _nabla_r(conn: ConnectionTable, report: CurvatureReport, triples):
    """The one implementation of the covariant derivative of the curvature,

        (nabla_z R)(f_x, f_y) = [nabla_z, R(f_x, f_y)]
                                - R(nabla_z f_x, f_y) - R(f_x, nabla_z f_y),

    yielding ((z, x, y), value) lazily for each triple, so that a caller
    can stop at the first nonzero value.  Only the nonzero entries of the
    columns nabla_z f_x and nabla_z f_y are walked."""
    cols = [m.transpose() for m in conn.nabla]  # row x of cols[z] is nabla_z f_x
    for z, x, y in triples:
        out = endo_derivative(conn, z, report.r_of(x, y))
        for a, c in cols[z].row_items(x):
            out = out - c * report.r_of(a, y)
        for a, c in cols[z].row_items(y):
            out = out - c * report.r_of(x, a)
        yield (z, x, y), out


def _curved_triples(conn: ConnectionTable, report: CurvatureReport) -> list:
    """The triples (z, x, y), x < y, at which some term of (nabla_z R)(f_x, f_y)
    involves a nonzero R(f_p, f_q); nabla R vanishes at every other triple.

    R(nabla_z f_x, f_y) involves R(f_p, f_q) when y = q and nabla_z[p, x] != 0,
    or y = p and nabla_z[q, x] != 0; the last term likewise with x, y swapped."""
    out = set()
    for (p, q), m in report.r.items():
        if m.is_zero():
            continue
        for z, nz in enumerate(conn.nabla):
            out.add((z, p, q))
            for a, b in ((p, q), (q, p)):
                out.update((z, min(c, b), max(c, b)) for c, _ in nz.row_items(a) if c != b)
    return sorted(out)


def nabla_r_full(conn: ConnectionTable, report: CurvatureReport,
                 z: int, x: int, y: int) -> Matrix:
    """Full tensor derivative (nabla_z R)(f_x, f_y)."""
    return next(_nabla_r(conn, report, [(z, x, y)]))[1]


@dataclass(frozen=True)
class NablaRData:
    """Both covariant-derivative notions for the curvature."""

    endo_derivatives: dict[tuple[int, int, int], Matrix]
    full_tensor: dict[tuple[int, int, int], Matrix]
    is_locally_symmetric: bool


def nabla_r(conn: ConnectionTable, report: CurvatureReport) -> NablaRData:
    """All (nabla_z R)(f_x, f_y) and all endomorphism derivatives
    nabla_z(R(f_x, f_y)); local symmetry means the full tensor vanishes."""
    keys = [(z, x, y) for z in range(conn.algebra.n) for (x, y) in report.r]
    endo = {k: endo_derivative(conn, k[0], report.r[k[1:]]) for k in keys}
    full = dict.fromkeys(keys, Matrix.zero(conn.algebra.n))
    full.update(_nabla_r(conn, report, _curved_triples(conn, report)))
    return NablaRData(endo, full, all(m.is_zero() for m in full.values()))


def is_locally_symmetric(conn: ConnectionTable, report: CurvatureReport) -> bool:
    """Early-exit check that the full nabla R vanishes."""
    triples = _curved_triples(conn, report)
    return all(m.is_zero() for _, m in _nabla_r(conn, report, triples))


def holonomy_algebra(conn: ConnectionTable, report: CurvatureReport) -> list[Matrix]:
    """Infinitesimal holonomy: the span of all curvature endomorphisms,
    closed under covariant differentiation along every basis direction.

    The connection is metric, so every R(f_i, f_j) and every [nabla_z, .]
    of a g-skew endomorphism is g-skew: the span lies in so(g), and the
    closure stops once it holds dim so(g) = n(n-1)/2 independent elements.
    Every round but the last adds at least one independent element, so the
    loop ends within n(n-1)/2 + 1 rounds."""
    n = conn.algebra.n
    full = n * (n - 1) // 2
    echelon = Echelon()
    basis: list[Matrix] = []
    candidates = report.r.values()
    while True:
        frontier = []
        for m in candidates:
            if echelon.add({i * n + j: x for (i, j), x in m.items()}):
                basis.append(m)
                if len(basis) == full:
                    return basis
                frontier.append(m)
        if not frontier:
            return basis
        candidates = (endo_derivative(conn, z, m) for m in frontier for z in range(n))


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
