"""The three benchmark workloads: inputs, the timed call, and the oracle.

Each workload is a closed loop with one caller.  Item ``i`` of a workload
is drawn from its own generator seeded by ``(seed, workload, i)``, so the
same seed gives the same inputs and a longer run only appends items.  The
order of the input kinds is a fixed cycle: the seed draws the matrices, not
the mix, so every run (and every seed) carries the same share of each kind
and the figures of different seeds compare.

* ``sweep``  -- ``pipeline_report`` on the nilpotent degenerate family: the
  13 witness points of the acceptance sweep, then points cycling through
  delta = -1, 0, 1, -1, 1.  Curvature and nabla R are sparse and many points are
  locally symmetric, so the full nabla R scan and arithmetic on zeros
  dominate; every point certifies the same ``witt_phi`` (cache hit) and
  recomputes its Hodge dual.
* ``report`` -- ``g2aa report --format json`` through ``cli.main``.  Each
  item is a base pair (ad0, phi_eps) moved by a block-triangular change of
  basis A (a fixed dense frame, randomly relabeled), which keeps the algebra
  almost abelian and the geometry isometric to the base: the metric becomes
  dense, the holonomy
  (dimension up to 21) dominates, and every form is new, so certification
  always misses its cache.  Three kinds cycle: det A = +-1 (rational
  ninth root), det A a unit of Z[sqrt2] (mpmath ninth root), and 2 A*phi,
  whose ninth root leaves Q(sqrt2) and must be refused with exit 2.
* ``decide`` -- ``g2aa decide`` through ``cli.main``: nilpotent Jordan
  forms conjugated by unimodular P, diagonalizable ad-matrices with
  ``--eigen`` data, and non-diagonalizable non-nilpotent ones that must be
  ``undecidable`` (exit 2).  Ranks of powers, ``gl_action`` certificates
  and scalar arithmetic dominate; geometry and certification do no work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from g2aa import classify, cli, g2
from g2aa.classify import (
    Decision,
    NilpotentParallelParams,
    calibrated_decision,
    nilpotent_parallel_report,
    parallel_nondeg_decision,
)
from g2aa.exterior import KForm, gl_action, pullback
from g2aa.g2 import adapted_metric, certify_g2, phi_model, rho_model, rho_null_model
from g2aa.g2 import half_omega_squared
from g2aa.geometry import analyze
from g2aa.liealg import NILPOTENT_CATALOG, AlmostAbelianAlgebra, NonNilpotentError
from g2aa.linalg import Matrix
from g2aa.scalars import ONE, ZERO, Scalar
from spans import ninth_root_branch


@dataclass
class Item:
    index: int
    kind: str
    call: object                 # argv for cli.main, or the sweep parameters
    expect: dict = field(default_factory=dict)
    describe: str = ""           # the input, printed when the oracle fails


@dataclass
class Outcome:
    value: object = None         # return value (sweep) or exit code (cli)
    stdout: str = ""
    stderr: str = ""
    taps: dict = field(default_factory=dict)
    error: str | None = None     # unexpected exception, if any


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _unimodular(rng: random.Random, n: int, steps: int):
    """A random integer matrix of determinant 1 and its inverse, as int
    lists, from ``steps`` elementary row operations with coefficient +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # a <- E a with E = I + c e_ij; inv <- inv E^-1 (column op)
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(n):
            inv[k][j] -= c * inv[k][i]
    return a, inv


def _matmul_int(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


class Workload:
    name = ""
    tail_pct = 90.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.taps: dict = {}
        self.kinds: dict[str, int] = {}

    def item(self, index: int) -> Item:
        raise NotImplementedError

    def warm_item(self) -> Item:
        return self.item(-1)

    def _rng(self, index: int) -> random.Random:
        """The generator of item ``index``.  The warm-up item (index -1) is
        drawn alike for every seed, so that set-up time does not depend on
        the seed."""
        return random.Random(f"{self.seed if index >= 0 else 0}:{self.name}:{index}")

    def install_taps(self, patches):
        """Record intermediate results the oracle needs, at no cost to the
        timed call beyond one extra Python frame."""

    def call(self, item: Item) -> Outcome:
        self.taps = {}
        code, out, err = call_cli(item.call)
        return Outcome(code, out, err, dict(self.taps))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        raise NotImplementedError

    def observe(self, item: Item, outcome: Outcome):
        """Count the input properties of a finished item."""
        self.kinds[item.kind] = self.kinds.get(item.kind, 0) + 1

    def properties(self) -> dict:
        n = max(1, sum(self.kinds.values()))
        return {"kind_share": {k: round(v / n, 4) for k, v in sorted(self.kinds.items())}}

    def _tap(self, patches, module, attr: str, key: str):
        fn = getattr(module, attr)
        taps_of = self

        def tapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                taps_of.taps[key] = exc
                raise
            taps_of.taps[key] = result
            return result

        patches.set(module, attr, tapped)


# -- sweep ---------------------------------------------------------------------

# The witness points of the acceptance sweep: (delta, B, v, w).
SWEEP_WITNESSES = (
    (1, (0, 0, 0, 0), (0, 0), (0, 0)),
    (1, (0, 0, 1, 0), (0, 0), (0, 0)),
    (1, (1, 0, 1, 0), (0, 0), (0, 0)),
    (1, (1, 0, 0, -1), (0, 0), (0, 0)),
    (1, (0, 0, 0, 0), (1, 0), (0, 0)),
    (1, (1, 0, 0, 1), (0, 1), (1, 0)),
    (-1, (0, 1, 1, 1), (0, 1), (0, 1)),
    (0, (1, 0, 0, 0), (1, 1), (0, 0)),
    (0, (0, 0, 0, 0), (1, 1), (0, 0)),
    (0, (1, 0, 0, 1), (0, 0), (0, 0)),
    (0, (1, 0, 0, -1), (0, 0), (0, 0)),
    (0, (0, 0, 0, 0), (0, 0), (1, 0)),
    (0, (0, 0, 0, 0), (0, 0), (0, 0)),
)
SWEEP_BOUND = 2
# delta = 0 gives flat points (R = 0, about a fifth of the others' time);
# at a fifth of the cycle they keep the median well inside the dearer group.
SWEEP_DELTAS = (-1, 0, 1, -1, 1)


class Sweep(Workload):
    name = "sweep"
    tail_pct = 90.0

    def item(self, index: int) -> Item:
        if 0 <= index < len(SWEEP_WITNESSES):
            delta, b, v, w = SWEEP_WITNESSES[index]
        else:
            rng = self._rng(index)
            delta = SWEEP_DELTAS[index % len(SWEEP_DELTAS)]
            b = tuple(rng.randint(-SWEEP_BOUND, SWEEP_BOUND) for _ in range(4))
            v = tuple(rng.randint(-SWEEP_BOUND, SWEEP_BOUND) for _ in range(2))
            w = tuple(rng.randint(-SWEEP_BOUND, SWEEP_BOUND) for _ in range(2))
        p = NilpotentParallelParams.of(delta, [[b[0], b[1]], [b[2], b[3]]], v, w)
        return Item(index, f"delta={delta:+d}", p,
                    describe=f"delta={delta} B={b} v={v} w={w}")

    def call(self, item: Item) -> Outcome:
        return Outcome(classify.pipeline_report(item.call))

    def check(self, item: Item, outcome: Outcome) -> str | None:
        got = outcome.value
        want = nilpotent_parallel_report(item.call)
        fields = ("algebra_name", "hol_dim", "locally_symmetric", "flat")
        diff = [f"{f}: pipeline {getattr(got, f)!r} != closed form {getattr(want, f)!r}"
                for f in fields if getattr(got, f) != getattr(want, f)]
        return "; ".join(diff) or None

    def properties(self):
        return {"delta_share": super().properties()["kind_share"]}


# -- report --------------------------------------------------------------------

# Base pairs (eps, ad0): with the adapted metric of phi_eps their holonomy
# dimensions are 21, 21, 15, 10, 3 and 2 (the last two locally symmetric).
REPORT_BASES = (
    (-1, ((0, 0, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0),
          (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))),
    (1, ((0, -1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
         (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))),
    (-1, ((-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0, 0, 0),
          (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, -1, 0, 0))),
    (1, ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (-1, 0, 0, 0, 0, 0),
         (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, -1))),
    (-1, ((0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
          (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0))),
    (1, ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0),
         (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))),
)
# One cycle of (base, kind).  The shares -- 4/18 float fallbacks (cheapest),
# 8/18 items on the four lighter bases, 6/18 on the two holonomy-21 bases
# (dearest) -- put the median inside the middle group and the p80 tail
# inside the dearest one, so neither falls on the edge between two groups.
REPORT_CYCLE = (
    (0, "rational"), (2, "sqrt2"), (3, "rational"), (0, "float"),
    (1, "sqrt2"), (4, "rational"), (5, "sqrt2"), (1, "float"),
    (0, "sqrt2"), (1, "rational"),
    (2, "rational"), (3, "sqrt2"), (0, "float"),
    (4, "sqrt2"), (5, "rational"), (1, "float"),
    (0, "rational"), (1, "sqrt2"),
)
# Every item's change of basis is A = A0 . diag(S Q, 1), where
# A0 = [[M, c0], [0, 1]] is a fixed dense frame (M = I + E_14 - E_52 is
# unimodular, c0 shears f_7), S scales f_1 by the determinant factor of the
# item's kind, and Q is a random signed permutation.  Q only relabels
# coordinates, so a slot of the cycle does the same arithmetic whatever the
# seed, and the figures of different seeds compare.
REPORT_FRAME = (
    (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, -1, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
)
REPORT_FRAME_INV = (
    (1, 0, 0, -1, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
)
REPORT_SHEAR = (1, 0, 0, 0, 0, -1)
UNIT = Scalar(1, 1)            # 1 + sqrt2, a unit of Z[sqrt2]
UNIT_INV = Scalar(-1, 1)       # sqrt2 - 1


def star_phi_closed_form(eps: int) -> KForm:
    """The adapted-basis Hodge dual of phi_eps, as the README states it:
    -eps (f^1256 + f^3456) + f^1234 - f^2467 + f^2357 + f^1457 + f^1367."""
    return KForm.build(7, 4, [
        (-eps, 1, 2, 5, 6), (-eps, 3, 4, 5, 6), (1, 1, 2, 3, 4),
        (-1, 2, 4, 6, 7), (1, 2, 3, 5, 7), (1, 1, 4, 5, 7), (1, 1, 3, 6, 7),
    ])


class Report(Workload):
    name = "report"
    tail_pct = 80.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._forms: set[KForm] = set()
        self._base_facts: dict[int, tuple] = {}
        self.certify = [0, 0]                 # hits, misses
        self.hol_dims: dict[int, int] = {}

    def item(self, index: int) -> Item:
        rng = self._rng(index)
        if index < 0:
            base, kind = 4, "sqrt2"      # warm-up: pays the mpmath import
        else:
            base, kind = REPORT_CYCLE[index % len(REPORT_CYCLE)]
        eps, ad0 = REPORT_BASES[base]
        while True:
            a_u, a_u_inv, det_a = self._change_of_basis(rng, kind)
            a = Matrix([list(a_u[i]) + [REPORT_SHEAR[i]] for i in range(6)]
                       + [[ZERO] * 6 + [ONE]])
            phi = pullback(a, phi_model(eps))
            if kind == "float":
                phi = phi.scale(2)
            if phi not in self._forms:
                break
        self._forms.add(phi)
        ad = Matrix(a_u_inv) @ Matrix(ad0) @ Matrix(a_u)
        algebra = AlmostAbelianAlgebra(7, ad)
        stem = self.workdir / f"report-{index}"
        alg_path, form_path = Path(f"{stem}-algebra.json"), Path(f"{stem}-form.json")
        alg_path.write_text(algebra.to_json())
        form_path.write_text(phi.to_json())
        argv = ["report", "--input", str(alg_path), "--form", str(form_path),
                "--format", "json"]
        expect = {"eps": eps, "base": base, "a": a, "det_a": det_a}
        describe = json.dumps({"algebra": algebra.to_json_dict(),
                               "form": phi.to_json_dict(), "base": base})
        return Item(index, kind, argv, expect, describe)

    @staticmethod
    def _change_of_basis(rng, kind):
        """A_u = M S Q, its inverse Q^T S^-1 M^-1, and det A = det S det Q."""
        scale = rng.choice((UNIT, UNIT_INV)) if kind == "sqrt2" else ONE
        perm = list(range(6))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(6)]
        ms = [[Scalar(x) * (scale if j == 0 else ONE) for j, x in enumerate(row)]
              for row in REPORT_FRAME]
        inv_scale = scale.inverse()
        s_inv_m_inv = [[Scalar(x) * (inv_scale if i == 0 else ONE) for x in row]
                       for i, row in enumerate(REPORT_FRAME_INV)]
        # Q e_j = signs[j] e_perm[j]: column j of M S Q is column perm[j] of
        # M S times signs[j], and row j of Q^T X is row perm[j] of X times signs[j]
        a_u = [[ms[i][perm[j]] * signs[j] for j in range(6)] for i in range(6)]
        a_inv = [[x * signs[j] for x in s_inv_m_inv[perm[j]]] for j in range(6)]
        inversions = sum(perm[i] > perm[j] for i in range(6) for j in range(i + 1, 6))
        det_q = (-1) ** inversions
        for sg in signs:
            det_q *= sg
        return a_u, a_inv, scale * det_q

    def install_taps(self, patches):
        self._tap(patches, cli, "certify_g2", "structure")
        self._tap(patches, cli, "analyze", "report")

    def call(self, item: Item) -> Outcome:
        before = g2._certify_cached.cache_info()
        outcome = super().call(item)
        after = g2._certify_cached.cache_info()
        outcome.taps["certify_hits"] = after.hits - before.hits
        outcome.taps["certify_misses"] = after.misses - before.misses
        return outcome

    def _base(self, base: int):
        """Geometry facts of the base pair, which every item of that base
        shares because its change of basis is an isometry of the pair."""
        if base not in self._base_facts:
            eps, ad0 = REPORT_BASES[base]
            rep = analyze(AlmostAbelianAlgebra(7, Matrix(ad0)), phi_model(eps),
                          adapted_metric(eps))
            vol = certify_g2(phi_model(eps)).vol.coefficient(*range(1, 8))
            self._base_facts[base] = (rep.hol_dim, rep.is_flat, rep.is_ricci_flat,
                                      rep.is_locally_symmetric, vol)
        return self._base_facts[base]

    def check(self, item: Item, outcome: Outcome) -> str | None:
        s = outcome.taps.get("structure")
        if s is None:
            return f"certification failed: exit {outcome.value}: {outcome.stderr.strip()}"
        if outcome.taps.get("certify_hits"):
            return "certification hit its cache on a new form"
        if item.kind == "float":
            if outcome.value != cli.EXIT_DOMAIN:
                return f"float-fallback form exited {outcome.value}, expected 2"
            if s.is_exact:
                return "float-fallback form was certified with an exact metric"
            return None
        if outcome.value != cli.EXIT_OK:
            return f"exit {outcome.value}, expected 0: {outcome.stderr.strip()}"
        eps = item.expect["eps"]
        a = item.expect["a"]
        hol_dim, flat, ricci_flat, loc_sym, vol0 = self._base(item.expect["base"])
        errors = []
        # certification is equivariant under the change of basis
        g = a.transpose() @ adapted_metric(eps) @ a
        if s.metric != g:
            errors.append("metric != A^T g_eps A")
        if s.vol.coefficient(*range(1, 8)) != item.expect["det_a"] * vol0:
            errors.append("vol coefficient != det A * c")
        branch = "rational" if item.kind == "rational" else "general"
        got_branch = ninth_root_branch(s)
        if got_branch != branch:
            errors.append(f"ninth root took the {got_branch} branch, expected {branch}")
        if s.star_phi() != pullback(a, star_phi_closed_form(eps)):
            errors.append("star phi' != A*(star phi_eps)")
        # geometry invariants, read from the JSON output and the analysis
        out = json.loads(outcome.stdout)
        for key, rows in out["curvature"].items():
            r = Matrix(rows)
            gr = g @ r
            if gr.transpose() != -gr:
                errors.append(f"R({key}) is not g-skew")
                break
        ricci = Matrix(out["ricci"])
        if not ricci.is_symmetric():
            errors.append("Ricci is not symmetric")
        hol = outcome.taps["report"].hol_basis
        if any((g @ h).transpose() != -(g @ h) for h in hol):
            errors.append("a holonomy basis element is not g-skew")
        if not out["hol_dim"] <= 21:
            errors.append(f"hol_dim {out['hol_dim']} > 21")
        facts = {"hol_dim": hol_dim, "flat": flat, "ricci_flat": ricci_flat,
                 "locally_symmetric": loc_sym}
        for key, want in facts.items():
            if out[key] != want:
                errors.append(f"{key} {out[key]!r} differs from the isometric base's {want!r}")
        return "; ".join(errors) or None

    def observe(self, item, outcome):
        super().observe(item, outcome)
        self.certify[0] += outcome.taps.get("certify_hits", 0)
        self.certify[1] += outcome.taps.get("certify_misses", 0)
        if outcome.value == cli.EXIT_OK and outcome.stdout:
            d = json.loads(outcome.stdout)["hol_dim"]
            self.hol_dims[d] = self.hol_dims.get(d, 0) + 1

    def properties(self):
        hits, misses = self.certify
        return {
            "branch_share": super().properties()["kind_share"],
            "certify_hit_ratio": hits / max(1, hits + misses),
            "hol_dim_histogram": {str(k): v for k, v in sorted(self.hol_dims.items())},
        }


# -- decide --------------------------------------------------------------------

# Nilpotent inputs are the cheapest kind (about two thirds of the others'
# time): at a third of the cycle they keep the median inside the dearer
# group rather than on the edge between the two.
DECIDE_CYCLE = ("nilpotent", "eigen", "nilpotent", "eigen", "undecidable", "eigen")
DECIDE_STEPS = 6
CALIBRATED = ("g2", "g2star_24", "g2star_33", "g2star_deg")
PARALLEL = ("g2", "g2star_24", "g2star_33")


def _jordan(parts) -> list[list[int]]:
    rows = [[0] * 6 for _ in range(6)]
    pos = 0
    for size in parts:
        for k in range(size - 1):
            rows[pos + k][pos + k + 1] = 1
        pos += size
    return rows


def _eigenvalues(rng) -> list[int]:
    """Six real eigenvalues; most patterns are built so that some mode
    answers yes, so the eigenvalue rules are exercised both ways."""
    while True:
        pattern = rng.randrange(4)
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if pattern == 0:        # pairs summing to zero: compact and (2,4)
            vals = [a, a, b, b, -(a + b), -(a + b)]
        elif pattern == 1:      # two zero-sum triples: (3,3)
            vals = [a, b, -(a + b), c, d, -(c + d)]
        elif pattern == 2:      # mu and mu - sum(mu): degenerate
            t = a + b + c
            vals = [a, b, c, a - t, b - t, c - t]
        else:
            vals = [rng.randint(-2, 2) for _ in range(6)]
        if any(vals):
            rng.shuffle(vals)
            return vals


class Decide(Workload):
    name = "decide"
    tail_pct = 99.0

    def item(self, index: int) -> Item:
        rng = self._rng(index)
        kind = "nilpotent" if index < 0 else DECIDE_CYCLE[index % len(DECIDE_CYCLE)]
        p, p_inv = _unimodular(rng, 6, DECIDE_STEPS)
        expect: dict = {}
        eigen = None
        if kind == "nilpotent":
            # the catalog partitions in turn, over the nilpotent slots
            cycle, pos = divmod(index, len(DECIDE_CYCLE))
            turn = (cycle * DECIDE_CYCLE.count("nilpotent")
                    + DECIDE_CYCLE[:pos].count("nilpotent"))
            entry = NILPOTENT_CATALOG[turn % len(NILPOTENT_CATALOG)]
            core = _jordan(entry.partition.parts)
            expect["parts"] = entry.partition.parts
            decide_kind = rng.choice(("calibrated", "parallel"))
        elif kind == "eigen":
            vals = _eigenvalues(rng)
            core = [[vals[i] if i == j else 0 for j in range(6)] for i in range(6)]
            eigen = ",".join(str(x) for x in vals)
            expect["eigen"] = vals
            decide_kind = "calibrated"
        else:
            lam = rng.choice((-2, -1, 1, 2))
            core = [[rng.randint(-2, 2) if i == j else 0 for j in range(6)] for i in range(6)]
            core[0][0] = core[1][1] = lam
            core[0][1] = 1
            decide_kind = rng.choice(("calibrated", "parallel"))
        mode = rng.choice(CALIBRATED if decide_kind == "calibrated" else PARALLEL)
        ad = _matmul_int(_matmul_int(p, core), p_inv)
        expect.update(core=core, decide_kind=decide_kind, mode=mode)
        algebra = {"n": 7, "ad": [[str(x) for x in row] for row in ad]}
        path = self.workdir / f"decide-{index}.json"
        path.write_text(json.dumps(algebra))
        argv = ["decide", "--input", str(path), "--mode", mode, "--kind", decide_kind,
                "--format", "json"]
        if eigen is not None:
            argv.append(f"--eigen={eigen}")  # the list may start with '-'
        describe = json.dumps({"algebra": algebra, "argv": argv[4:]})
        return Item(index, kind, argv, expect, describe)

    def install_taps(self, patches):
        self._tap(patches, classify, "segre_partition", "partition")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._reference: dict[tuple, Decision] = {}

    def _decision_on_core(self, item: Item) -> Decision:
        """The decision on the unconjugated matrix: N, J, or D with its
        eigenvalues in ascending order (conjugate to the input by P and a
        permutation; sorting lets inputs with one spectrum share the answer)."""
        e = item.expect
        core, eigen = e["core"], e.get("eigen")
        if eigen is not None:
            eigen = sorted(eigen)
            core = [[eigen[i] if i == j else 0 for j in range(6)] for i in range(6)]
        key = (item.kind, repr(core), e["decide_kind"], e["mode"])
        if key not in self._reference:
            algebra = AlmostAbelianAlgebra(7, Matrix(core))
            if e["decide_kind"] == "parallel":
                got = parallel_nondeg_decision(algebra, e["mode"])
            else:
                got = calibrated_decision(algebra, e["mode"], eigen_data=eigen)
            self._reference[key] = got
        return self._reference[key]

    def _certified(self, item: Item) -> bool:
        """Does the conjugated matrix itself annihilate the model forms?"""
        ad = Matrix(json.loads(Path(item.call[2]).read_text())["ad"])
        mode = item.expect["mode"]
        if item.expect["decide_kind"] == "parallel":
            eps = 1 if mode == "g2star_33" else -1
            om = half_omega_squared(1 if mode == "g2star_24" else -1)
            return gl_action(ad, rho_model(eps)).is_zero() and gl_action(ad, om).is_zero()
        model = {"g2": rho_model(-1), "g2star_24": rho_model(-1),
                 "g2star_33": rho_model(1)}.get(mode) or rho_null_model()
        return gl_action(ad, model).is_zero()

    def check(self, item: Item, outcome: Outcome) -> str | None:
        tap = outcome.taps.get("partition")
        if item.kind == "nilpotent":
            if isinstance(tap, Exception) or tap is None or tap.parts != item.expect["parts"]:
                return f"segre_partition gave {tap!r}, built with {item.expect['parts']}"
        elif not isinstance(tap, NonNilpotentError):
            return f"segre_partition of a non-nilpotent matrix gave {tap!r}"
        if item.kind == "undecidable":
            want = Decision.YES if self._certified(item) else Decision.UNDECIDABLE
        else:
            want = self._decision_on_core(item)
        want_code = cli.EXIT_DOMAIN if want is Decision.UNDECIDABLE else cli.EXIT_OK
        if outcome.value != want_code:
            return f"exit {outcome.value}, expected {want_code}: {outcome.stderr.strip()}"
        got = json.loads(outcome.stdout)["decision"]
        if got != want.value:
            return f"decision {got!r} on P.M.P^-1 != {want.value!r} on M"
        return None


TABLE1_ARGV = ["reproduce", "table1"]


def check_table1(outcome: Outcome) -> str | None:
    if outcome.value != cli.EXIT_OK or "PASS table1" not in outcome.stdout:
        return f"reproduce table1 exited {outcome.value}: {outcome.stdout.strip()}"
    return None


WORKLOADS = {w.name: w for w in (Sweep, Report, Decide)}
