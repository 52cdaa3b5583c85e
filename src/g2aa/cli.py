"""Command-line front end.

Subcommands:
  certify    -- certify a three-form (file or model-tensor name)
  report     -- curvature/holonomy report for an algebra + three-form
  decide     -- calibrated/parallel existence decisions (--mode, --eigen)
  reproduce  -- golden checks: table1, example_a, example_b, stabilizers,
                witt, sweep

Exit codes: 0 success, 1 internal error, 2 domain rejection
(not a G2 structure / undecidable), 3 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .exterior import KForm
from .g2 import (
    MODEL_TENSORS,
    NotG2Error,
    certify_g2,
    stabilizer_dimension,
    witt_frame_from_adapted,
    witt_phi,
    witt_star_phi,
    phi_model,
    adapted_metric,
)
from .geometry import analyze
from .liealg import AlmostAbelianAlgebra, differential
from .linalg import Matrix
from .classify import (
    Decision,
    nilpotent_parallel_report,
    pipeline_report,
    sweep_parameter_grid,
    table1_diff,
)
from .scalars import Scalar

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3


class DomainError(ValueError):
    """Input outside the paper's domain; reported with exit code 2."""


def _load_form(source: str) -> KForm:
    if source in MODEL_TENSORS:
        return MODEL_TENSORS[source]()
    if source == "witt_phi":
        return witt_phi()
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such form file or model tensor name: {source}")
    return KForm.from_json(path.read_text())


def _load_algebra(source: str) -> AlmostAbelianAlgebra:
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such algebra file: {source}")
    algebra = _parsed(AlmostAbelianAlgebra.from_json_dict, json.loads(path.read_text()))
    if algebra.n != 7:
        raise DomainError(f"algebra has dimension {algebra.n}, not 7")
    return algebra


def _parsed(parse, value):
    """parse(value), with a malformed value reported as a DomainError."""
    try:
        return parse(value)
    except (ValueError, TypeError) as exc:
        raise DomainError(str(exc)) from exc


def _signature_text(s) -> str:
    if s.metric is not None:
        p, q, z = s.metric.signature()
    else:
        p, q, z = (7, 0, 0) if s.eps == -1 else (3, 4, 0)
    if q == 0:
        return "definite"
    return f"({p},{q})"


def cmd_certify(args) -> int:
    if args.tol <= 0:
        print("error: tolerance must be positive", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        phi = _load_form(args.form)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        s = certify_g2(phi, tol=args.tol)
    except NotG2Error as exc:
        if args.format == "json":
            print(json.dumps({"certified": False, "reason": str(exc)}))
        else:
            print(f"NotG2: {exc}")
        return EXIT_DOMAIN
    stab = stabilizer_dimension(phi)
    kind = "G2" if s.eps == -1 else "G2*"
    if args.format == "json":
        out = {
            "certified": True,
            "eps": s.eps,
            "kind": kind,
            "signature": list(s.metric.signature()) if s.metric is not None
            else [7, 0, 0] if s.eps == -1 else [3, 4, 0],
            "frame": s.frame_kind,
            "stabilizer_dim": stab,
            "exact_metric": s.is_exact,
        }
        if s.is_exact:
            out["metric"] = [[str(x) for x in s.metric.row(i)] for i in range(7)]
            out["vol_coefficient"] = str(s.vol.coefficient(1, 2, 3, 4, 5, 6, 7))
        else:
            out["metric_float"] = [list(r) for r in s.metric_float]
            out["tolerance"] = args.tol
        print(json.dumps(out))
    else:
        print(f"{kind}, {_signature_text(s)}, {s.frame_kind}, stab dim {stab}")
        if not s.is_exact:
            print(f"metric: float fallback (relation verified to {args.tol:g})")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        algebra = _load_algebra(args.input)
        phi = _load_form(args.form)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        s = certify_g2(phi)
    except NotG2Error as exc:
        print(f"NotG2: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if not s.is_exact:
        print("error: float metric rejected for the exact pipeline", file=sys.stderr)
        return EXIT_DOMAIN
    report = analyze(algebra, phi, s.metric)
    star = s.star_phi()
    d_phi = differential(algebra, phi)
    d_star = differential(algebra, star)
    payload = {
        "eps": s.eps,
        "calibrated": d_phi.is_zero(),
        "coclosed": d_star.is_zero(),
        "parallel": d_phi.is_zero() and d_star.is_zero(),
        "flat": report.is_flat,
        "ricci_flat": report.is_ricci_flat,
        "locally_symmetric": report.is_locally_symmetric,
        "hol_dim": report.hol_dim,
        "hol_annihilates_phi": report.hol_annihilates_phi,
        "curvature": {
            f"{i + 1},{j + 1}": [[str(x) for x in m.row(r)] for r in range(7)]
            for (i, j), m in sorted(report.r.items())
            if not m.is_zero()
        },
        "ricci": [[str(x) for x in report.ricci.row(i)] for i in range(7)],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key in ("eps", "calibrated", "coclosed", "parallel", "flat",
                    "ricci_flat", "locally_symmetric", "hol_dim",
                    "hol_annihilates_phi"):
            print(f"{key}: {payload[key]}")
        nz = sorted(payload["curvature"])
        print(f"nonzero R(f_i,f_j) pairs: {nz if nz else 'none'}")
    return EXIT_OK


def cmd_decide(args) -> int:
    try:
        algebra = _load_algebra(args.input)
        eigen = ([_parsed(Scalar.from_string, x) for x in args.eigen.split(",")]
                 if args.eigen else None)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    from .classify import calibrated_decision, parallel_nondeg_decision

    if args.kind == "calibrated":
        got = calibrated_decision(algebra, args.mode, eigen_data=eigen)
    else:
        if args.mode == "g2star_deg":
            print("error: parallel decisions cover the non-degenerate modes only",
                  file=sys.stderr)
            return EXIT_INTERNAL
        got = parallel_nondeg_decision(algebra, args.mode)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "mode": args.mode, "decision": got.value}))
    else:
        print(got.value)
    return EXIT_DOMAIN if got is Decision.UNDECIDABLE else EXIT_OK


class _Checks:
    """Prints one line per reproduction check: ``PASS name`` / ``FAIL name``,
    or with ``json`` a record {"name", "ok", "seconds"}, where seconds run
    from the end of the previous check."""

    def __init__(self, fmt: str):
        self.as_json = fmt == "json"
        self.failures: list[str] = []
        self._since = time.perf_counter()

    def __call__(self, name: str, ok: bool):
        now = time.perf_counter()
        if self.as_json:
            print(json.dumps({"name": name, "ok": ok, "seconds": round(now - self._since, 6)}))
        else:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        self._since = now
        if not ok:
            self.failures.append(name)


def _reproduce_stabilizers(check: _Checks):
    from .g2 import (
        half_omega_squared,
        joint_stabilizer_algebra,
        omega_null_model,
        rho_model,
        rho_null_model,
        stabilizer_algebra,
    )

    singles = [
        ("rho_minus", rho_model(-1), 16),
        ("rho_plus", rho_model(1), 16),
        ("rho_0", rho_null_model(), 17),
        ("Omega_0", omega_null_model(), 22),
    ]
    for name, form, expect in singles:
        got = len(stabilizer_algebra(form))
        check(f"stabilizer dim {name} = {expect}", got == expect)
    joints = [
        ("(rho_minus, om_minus^2/2)", rho_model(-1), half_omega_squared(-1), 8),
        ("(rho_minus, om_plus^2/2)", rho_model(-1), half_omega_squared(1), 8),
        ("(rho_plus, om_minus^2/2)", rho_model(1), half_omega_squared(-1), 8),
    ]
    for name, a, b, expect in joints:
        got = len(joint_stabilizer_algebra(a, b))
        check(f"joint stabilizer dim {name} = {expect}", got == expect)
    for eps in (-1, 1):
        got = len(stabilizer_algebra(phi_model(eps)))
        check(f"stabilizer dim phi_eps(eps={eps:+d}) = 14", got == 14)


def _reproduce_witt(check: _Checks):
    from .exterior import hodge_star

    frame = witt_frame_from_adapted()
    phi1 = phi_model(1)
    star1 = hodge_star(phi1, adapted_metric(1), KForm.basis(7, 1, 2, 3, 4, 5, 6, 7))
    check("witt image of phi", frame.to_witt(phi1) == witt_phi())
    check("witt image of star phi", frame.to_witt(star1) == witt_star_phi())
    from .g2 import WITT_GRAM

    check("witt Gram matrix", frame.gram_in_witt(adapted_metric(1)) == WITT_GRAM)
    s = certify_g2(witt_phi())
    check("witt certification: split with (3,4)", s.eps == 1 and s.frame_kind == "witt")
    check("witt star from certified metric", s.star_phi() == witt_star_phi())


def _example_a_algebra() -> AlmostAbelianAlgebra:
    # entry (i, j) = -1: ad(f7) f_{j+1} = -f_{i+1}
    return AlmostAbelianAlgebra(
        7, Matrix.sparse(6, 6, dict.fromkeys([(0, 2), (2, 3), (1, 4), (4, 5)], -1)))


def _example_b_algebra() -> AlmostAbelianAlgebra:
    return AlmostAbelianAlgebra(7, Matrix.diagonal([2, -1, 2, 2, -1, -1]))


def _reproduce_example_a(check: _Checks):
    algebra = _example_a_algebra()
    phi = witt_phi()
    s = certify_g2(phi)
    star = s.star_phi()
    check("example A: d phi = 0", differential(algebra, phi).is_zero())
    d_star = differential(algebra, star)
    expected = KForm.build(7, 5, [(-1, 2, 3, 5, 6, 7)])
    check("example A: d star phi = -f^23567", d_star == expected)
    report = analyze(algebra, phi, s.metric)
    check("example A: Ricci flat", report.is_ricci_flat)
    check("example A: holonomy dim 3", report.hol_dim == 3)
    check("example A: not parallel (structure not annihilated)",
           report.hol_annihilates_phi is False)


def _reproduce_example_b(check: _Checks):
    algebra = _example_b_algebra()
    phi = witt_phi()
    s = certify_g2(phi)
    star = s.star_phi()
    check("example B: d phi = 0", differential(algebra, phi).is_zero())
    d_star = differential(algebra, star)
    expected = KForm.build(7, 5, [(1, 1, 2, 5, 6, 7), (-2, 3, 4, 5, 6, 7)])
    check("example B: d star phi = f^12567 - 2 f^34567", d_star == expected)
    report = analyze(algebra, phi, s.metric)
    check("example B: Ricci flat", report.is_ricci_flat)
    check("example B: holonomy dim 5", report.hol_dim == 5)


def _reproduce_table1(check: _Checks):
    diff = table1_diff(bound=1)
    for line in diff:
        print(f"  {line}", file=sys.stderr)
    check("table1: regenerated rows match (11 rows)", not diff)


def _reproduce_sweep(check: _Checks, bound: int, limit: int):
    count = 0
    bad = 0
    for p in sweep_parameter_grid(bound):
        if count >= limit:
            break
        count += 1
        closed = nilpotent_parallel_report(p)
        direct = pipeline_report(p)
        if (closed.algebra_name, closed.hol_dim, closed.locally_symmetric, closed.flat) != (
            direct.algebra_name, direct.hol_dim, direct.locally_symmetric, direct.flat
        ):
            bad += 1
    check(f"sweep: closed-form report matches pipeline on {count} points",
           bad == 0)


def cmd_reproduce(args) -> int:
    check = _Checks(args.format)
    which = args.which
    try:
        if which in ("stabilizers", "all"):
            _reproduce_stabilizers(check)
        if which in ("witt", "all"):
            _reproduce_witt(check)
        if which in ("example_a", "all"):
            _reproduce_example_a(check)
        if which in ("example_b", "all"):
            _reproduce_example_b(check)
        if which in ("table1", "all"):
            _reproduce_table1(check)
        if which in ("sweep", "all"):
            _reproduce_sweep(check, args.sweep_bound, args.sweep_limit)
    except BrokenPipeError:
        raise  # a closed stdout is not an internal error; main handles it
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if check.failures:
        print(f"first failing check: {check.failures[0]}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2aa",
        description="Exact G2/G2* structures on almost abelian Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify a three-form")
    p_cert.add_argument("--form", required=True,
                        help="JSON form file or a model tensor name "
                             f"({', '.join(sorted(MODEL_TENSORS))}, witt_phi)")
    p_cert.add_argument("--format", choices=("text", "json"), default="text")
    p_cert.add_argument("--tol", type=float, default=1e-9,
                        help="relative tolerance of the float fallback")
    p_cert.set_defaults(func=cmd_certify)

    p_rep = sub.add_parser("report", help="curvature/holonomy report")
    p_rep.add_argument("--input", required=True, help="algebra JSON file")
    p_rep.add_argument("--form", required=True, help="form JSON file or model name")
    p_rep.add_argument("--format", choices=("text", "json"), default="text")
    p_rep.set_defaults(func=cmd_report)

    p_dec = sub.add_parser("decide", help="calibrated/parallel existence decisions")
    p_dec.add_argument("--input", required=True, help="algebra JSON file")
    p_dec.add_argument("--mode", required=True,
                       choices=("g2", "g2star_24", "g2star_33", "g2star_deg"))
    p_dec.add_argument("--kind", choices=("calibrated", "parallel"), default="calibrated")
    p_dec.add_argument("--eigen", default=None,
                       help="comma-separated real eigenvalues of the ad matrix "
                            "(certificate for diagonalizable non-nilpotent input)")
    p_dec.add_argument("--format", choices=("text", "json"), default="text")
    p_dec.set_defaults(func=cmd_decide)

    p_repr = sub.add_parser("reproduce", help="golden reproduction checks")
    p_repr.add_argument("which", choices=("table1", "example_a", "example_b",
                                          "stabilizers", "witt", "sweep", "all"))
    p_repr.add_argument("--sweep-bound", type=int, default=1, dest="sweep_bound")
    p_repr.add_argument("--sweep-limit", type=int, default=120, dest="sweep_limit")
    p_repr.add_argument("--format", choices=("text", "json"), default="text")
    p_repr.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
