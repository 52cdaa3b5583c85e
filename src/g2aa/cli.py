"""Command-line front end.

Subcommands:
  certify    -- certify a three-form (file or model-tensor name)
  report     -- curvature/holonomy report for an algebra + three-form
  decide     -- calibrated/parallel existence decisions (--mode, --eigen)
  reproduce  -- golden checks: table1, example_a, example_b, stabilizers,
                witt, sweep

Exit codes: 0 success; 1 a missing or unreadable file, or an internal
error; 2 domain rejection (malformed input, not a G2 structure,
undecidable), reported by ``main`` alone; 3 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .exterior import KForm, hodge_star
from .g2 import (
    MODEL_TENSORS,
    WITT_GRAM,
    NotG2Error,
    adapted_metric,
    certify_g2,
    half_omega_squared,
    omega_null_model,
    phi_model,
    rho_model,
    rho_null_model,
    stabilizer_algebra,
    witt_frame_from_adapted,
    witt_phi,
    witt_star_phi,
)
from .geometry import analyze
from .liealg import AlmostAbelianAlgebra, differential
from .linalg import Matrix
from .classify import (
    CALIBRATED_MODES,
    Decision,
    _partition_of,
    calibrated_decision,
    nilpotent_parallel_report,
    parallel_nondeg_decision,
    pipeline_report,
    sweep_sample,
    table1_diff,
)
from .scalars import DomainError, Scalar

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3


def _read_json(source: str, what: str, parse):
    """parse(the JSON document in file source); a malformed file is a
    DomainError, a missing one a FileNotFoundError."""
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such {what}: {source}")
    try:
        return parse(json.loads(path.read_text()))
    except json.JSONDecodeError as exc:
        raise DomainError(f"{source} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"{source} nests JSON too deeply") from exc
    except KeyError as exc:
        raise DomainError(f"{source} has no key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(str(exc)) from exc


def _load_form(source: str) -> KForm:
    if source in MODEL_TENSORS:
        return MODEL_TENSORS[source]()
    if source == "witt_phi":
        return witt_phi()
    return _read_json(source, "form file or model tensor name", KForm.from_json_dict)


def _load_algebra(source: str) -> AlmostAbelianAlgebra:
    algebra = _read_json(source, "algebra file", AlmostAbelianAlgebra.from_json_dict)
    if algebra.n != 7:
        raise DomainError(f"algebra has dimension {algebra.n}, not 7")
    return algebra


def cmd_certify(args) -> int:
    phi = _load_form(args.form)
    try:
        s = certify_g2(phi)
    except NotG2Error as exc:
        if args.format == "json":
            print(json.dumps({"certified": False, "reason": str(exc)}))
        else:
            print(f"NotG2: {exc}")
        return EXIT_DOMAIN
    # a certified form has a non-degenerate B, hence stabilizer g2 or g2*
    # (Hitchin; Bryant), as the test_stability_criterion_* tests in
    # tests/test_g2.py pin
    stab = 14
    # certify_g2 fixes the signature of the metric by eps
    kind, sig = ("G2", [7, 0, 0]) if s.eps == -1 else ("G2*", [3, 4, 0])
    if args.format == "json":
        out = {
            "certified": True,
            "eps": s.eps,
            "kind": kind,
            "signature": sig,
            "frame": s.frame_kind,
            "stabilizer_dim": stab,
            "exact_metric": s.is_exact,
        }
        if s.is_exact:
            out["metric"] = [[str(x) for x in s.metric.row(i)] for i in range(7)]
            out["vol_coefficient"] = str(s.vol.coefficient(1, 2, 3, 4, 5, 6, 7))
        else:
            out["scaled_metric"] = [[str(x) for x in s.scaled_metric.row(i)] for i in range(7)]
            out["det_b"] = str(s.det_b)
        print(json.dumps(out))
    else:
        sig_text = "definite" if s.eps == -1 else "(3,4)"
        print(f"{kind}, {sig_text}, {s.frame_kind}, stab dim {stab}")
        if not s.is_exact:
            print(f"metric: g = g~/|c|, c^9 = det B = {s.det_b}, c not in Q(sqrt2)")
    return EXIT_OK


def cmd_report(args) -> int:
    algebra = _load_algebra(args.input)
    phi = _load_form(args.form)
    s = certify_g2(phi)  # main reports a NotG2Error
    if not s.is_exact:
        raise DomainError("the ninth root of det B leaves Q(sqrt2): no exact metric to report on")
    # a metric entry too large to print (Scalar.__str__ raises DomainError)
    # is refused here, before an analysis that can take minutes on it
    for _, x in s.metric.items():
        str(x)
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
    if args.eigen is not None and args.kind != "calibrated":
        raise DomainError("eigen data applies to calibrated decisions only")
    algebra = _load_algebra(args.input)
    eigen = None if args.eigen is None else [Scalar.from_string(x) for x in args.eigen.split(",")]
    if args.kind == "calibrated":
        got = calibrated_decision(algebra, args.mode, eigen_data=eigen)
    else:
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
    for name, forms, expect in [
        ("rho_minus", (rho_model(-1),), 16),
        ("rho_plus", (rho_model(1),), 16),
        ("rho_0", (rho_null_model(),), 17),
        ("Omega_0", (omega_null_model(),), 22),
        ("(rho_minus, om_minus^2/2)", (rho_model(-1), half_omega_squared(-1)), 8),
        ("(rho_minus, om_plus^2/2)", (rho_model(-1), half_omega_squared(1)), 8),
        ("(rho_plus, om_minus^2/2)", (rho_model(1), half_omega_squared(-1)), 8),
        ("phi_eps(eps=-1)", (phi_model(-1),), 14),
        ("phi_eps(eps=+1)", (phi_model(1),), 14),
    ]:
        joint = "joint " if len(forms) > 1 else ""
        got = len(stabilizer_algebra(*forms))
        check(f"{joint}stabilizer dim {name} = {expect}", got == expect)


def _reproduce_witt(check: _Checks):
    frame = witt_frame_from_adapted()
    phi1 = phi_model(1)
    star1 = hodge_star(phi1, adapted_metric(1), KForm.basis(7, 1, 2, 3, 4, 5, 6, 7))
    check("witt image of phi", frame.to_witt(phi1) == witt_phi())
    check("witt image of star phi", frame.to_witt(star1) == witt_star_phi())
    check("witt Gram matrix", frame.gram_in_witt(adapted_metric(1)) == WITT_GRAM)
    s = certify_g2(witt_phi())
    check("witt certification: split with (3,4)", s.eps == 1 and s.frame_kind == "witt")
    check("witt star from certified metric", s.star_phi() == witt_star_phi())


def _example_a_algebra() -> AlmostAbelianAlgebra:
    # entry (i, j) = -1: ad(f7) f_{j+1} = -f_{i+1}
    return AlmostAbelianAlgebra(
        7, Matrix.sparse(6, 6, dict.fromkeys([(0, 2), (2, 3), (1, 4), (4, 5)], -1)))


def _reproduce_example(check: _Checks, label: str, algebra: AlmostAbelianAlgebra,
                       d_star: list, d_star_text: str, hol_dim: int, not_parallel: bool):
    """Checks a Ricci-flat calibrated G2* example of the paper on witt_phi:
    d phi = 0, d star phi against the terms ``d_star`` (named by
    ``d_star_text``), Ricci flatness and the holonomy dimension; with
    ``not_parallel`` also that the holonomy does not annihilate phi."""
    phi = witt_phi()
    s = certify_g2(phi)
    name = f"example {label}"
    check(f"{name}: d phi = 0", differential(algebra, phi).is_zero())
    check(f"{name}: d star phi = {d_star_text}",
          differential(algebra, s.star_phi()) == KForm.build(7, 5, d_star))
    report = analyze(algebra, phi, s.metric)
    check(f"{name}: Ricci flat", report.is_ricci_flat)
    check(f"{name}: holonomy dim {hol_dim}", report.hol_dim == hol_dim)
    if not_parallel:
        check(f"{name}: not parallel (structure not annihilated)",
              report.hol_annihilates_phi is False)


def _reproduce_example_a(check: _Checks):
    algebra = _example_a_algebra()
    _reproduce_example(check, "A", algebra, [(-1, 2, 3, 5, 6, 7)], "-f^23567", 3, True)
    # Malcev: rational structure constants give a lattice, a compact nilmanifold
    check("example A: nilpotent with integer structure constants (compact quotient)",
          _partition_of(algebra) is not None
          and all(x.is_rational() and x.a.denominator == 1 for _, x in algebra.ad_matrix.items()))


def _reproduce_table1(check: _Checks):
    diff = table1_diff()
    for line in diff:
        print(f"  {line}", file=sys.stderr)
    check("table1: regenerated rows match (11 rows)", not diff)


def _reproduce_sweep(check: _Checks, sample):
    count = 0
    ok = True
    for p in sample:
        count += 1
        closed = nilpotent_parallel_report(p)
        direct = pipeline_report(p)
        if ok and closed != direct:
            ok = False
            print(f"sweep: first mismatch at {json.dumps(closed.to_json_dict(p)['params'])}: "
                  f"closed form {closed} != pipeline {direct}", file=sys.stderr)
    check(f"sweep: closed-form report matches pipeline on {count} points", ok)


# The reproduction sections in the order ``reproduce all`` runs them; the
# sweep, which needs its sample, comes last.
_SECTIONS = (
    ("stabilizers", _reproduce_stabilizers),
    ("witt", _reproduce_witt),
    ("example_a", _reproduce_example_a),
    ("example_b", lambda check: _reproduce_example(
        check, "B", AlmostAbelianAlgebra(7, Matrix.diagonal([2, -1, 2, 2, -1, -1])),
        [(1, 1, 2, 5, 6, 7), (-2, 3, 4, 5, 6, 7)], "f^12567 - 2 f^34567", 5, False)),
    ("table1", _reproduce_table1),
)


def cmd_reproduce(args) -> int:
    sections = dict(_SECTIONS)
    if args.which in ("sweep", "all"):
        # an empty sweep is refused before any check runs
        sample = sweep_sample(args.sweep_bound, args.sweep_limit)
        sections["sweep"] = lambda check: _reproduce_sweep(check, sample)
    check = _Checks(args.format)
    for name, run in sections.items():
        if args.which in (name, "all"):
            run(check)
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
    p_cert.set_defaults(func=cmd_certify)

    p_rep = sub.add_parser("report", help="curvature/holonomy report")
    p_rep.add_argument("--input", required=True, help="algebra JSON file")
    p_rep.add_argument("--form", required=True, help="form JSON file or model name")
    p_rep.add_argument("--format", choices=("text", "json"), default="text")
    p_rep.set_defaults(func=cmd_report)

    p_dec = sub.add_parser("decide", help="calibrated/parallel existence decisions")
    p_dec.add_argument("--input", required=True, help="algebra JSON file")
    p_dec.add_argument("--mode", required=True, choices=CALIBRATED_MODES)
    p_dec.add_argument("--kind", choices=("calibrated", "parallel"), default="calibrated")
    p_dec.add_argument("--eigen", default=None,
                       help="comma-separated real eigenvalues of the ad matrix "
                            "(certificate for diagonalizable non-nilpotent input; "
                            "calibrated decisions only)")
    p_dec.add_argument("--format", choices=("text", "json"), default="text")
    p_dec.set_defaults(func=cmd_decide)

    p_repr = sub.add_parser("reproduce", help="golden reproduction checks")
    p_repr.add_argument("which", choices=("table1", "example_a", "example_b",
                                          "stabilizers", "witt", "sweep", "all"))
    p_repr.add_argument("--sweep-bound", type=int, default=1, dest="sweep_bound")
    p_repr.add_argument("--sweep-limit", type=int, default=120, dest="sweep_limit",
                        help="number of evenly spaced grid points to check")
    p_repr.add_argument("--format", choices=("text", "json"), default="text")
    p_repr.set_defaults(func=cmd_reproduce)
    return parser


_PARSER = build_parser()  # parse_args does not mutate it


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except NotG2Error as exc:
        print(f"NotG2: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:  # pragma: no cover
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
