"""Spans and counters for the traced passes of the benchmark.

Nothing here lives inside the package: every span is recorded by a wrapper
that this module installs around a public function, at each place where a
caller looks that function up (``from ... import`` bindings in other
modules, and class attributes for methods).  ``Patches.restore`` puts the
original objects back.

Scalar arithmetic is counted in a pass of its own (``count_scalars``),
because a wrapper around every ``Scalar`` operation would swamp the spans of
the layers above it.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path) of every traced function, in report order.  The
# metric prefix is the module name plus the attribute path.
TRACED = (
    ("geometry", "levi_civita"),
    ("geometry", "curvature"),
    ("geometry", "is_locally_symmetric"),
    ("geometry", "holonomy_algebra"),
    ("geometry", "annihilates"),
    ("geometry", "analyze"),
    ("g2", "certify_g2"),
    ("g2", "G2EpsStructure.star_phi"),
    ("g2", "stabilizer_algebra"),
    ("exterior", "hodge_star"),
    ("exterior", "pullback"),
    ("exterior", "gl_action"),
    ("exterior", "wedge"),
    ("exterior", "interior"),
    ("linalg", "Matrix.det"),
    ("linalg", "Matrix.rank"),
    ("linalg", "Matrix.kernel"),
    ("linalg", "Matrix.inverse"),
    ("linalg", "Matrix.signature"),
    ("liealg", "differential"),
    ("liealg", "segre_partition"),
    ("liealg", "identify_nilpotent"),
    ("classify", "pipeline_report"),
    ("classify", "build_instance"),
    ("classify", "nilpotent_parallel_report"),
    ("classify", "calibrated_decision"),
    ("classify", "parallel_nondeg_decision"),
    ("classify", "regenerate_table1"),
    ("cli", "main"),
)


def span_name(module: str, path: str) -> str:
    """Metric prefix of a traced function; ``G2EpsStructure.star_phi`` is
    reported as ``g2.star_phi``, the name its callers know it by."""
    if path.startswith("G2EpsStructure."):
        path = path.split(".", 1)[1]
    return f"{module}.{path}"


SPAN_NAMES = tuple(span_name(m, p) for m, p in TRACED)

# Extra counters filled by the result hooks below.
EXTRA_COUNTERS = (
    "geometry.hol_dim.sum",
    "geometry.is_locally_symmetric.calls_early",
    "g2.ninth_root.rational",
    "g2.ninth_root.sqrt2",
    "g2.ninth_root.general",
    "g2.ninth_root.float",
    "linalg.entries_eliminated",
)

SCALAR_OPS = ("add", "sub", "mul", "inverse")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "g2aa" or name.startswith("g2aa."))]


def replace_everywhere(patches: Patches, module: str, path: str, make_wrapper):
    """Replace one function wherever the package binds it.

    ``path`` is ``name`` for a module-level function, which is replaced in
    every package module whose global of any name is that same object, or
    ``Class.method`` for a method, which is replaced on the class.
    """
    mod = sys.modules[f"g2aa.{module}"]
    if "." in path:
        cls_name, meth = path.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        patches.set(cls, meth, make_wrapper(original))
        return
    original = getattr(mod, path)
    wrapper = make_wrapper(original)
    for m in _package_modules():
        for attr, value in list(vars(m).items()):
            if value is original:
                patches.set(m, attr, wrapper)


def ninth_root_branch(structure) -> str:
    """Which ninth-root branch certified a structure, read from its volume
    coefficient: rational, sqrt2 (pure sqrt2 multiple), general, or float."""
    if not structure.is_exact:
        return "float"
    c = structure.vol.coefficient(1, 2, 3, 4, 5, 6, 7)
    if c.is_rational():
        return "rational"
    return "sqrt2" if not c.a else "general"


def _hooks(counters: dict):
    """Result hooks: name -> f(args, result) that updates the counters."""

    def hol(args, result):
        counters["geometry.hol_dim.sum"] += len(result)

    def locsym(args, result):
        # early: a nonzero nabla R was found, or R = 0 so nothing is scanned
        if result is False or args[1].is_flat:
            counters["geometry.is_locally_symmetric.calls_early"] += 1

    def certify(args, result):
        counters[f"g2.ninth_root.{ninth_root_branch(result)}"] += 1

    def eliminated(args, result):
        m = args[0]
        counters["linalg.entries_eliminated"] += m.rows * m.cols

    hooks = {
        "geometry.holonomy_algebra": hol,
        "geometry.is_locally_symmetric": locsym,
        "g2.certify_g2": certify,
    }
    for meth in ("det", "rank", "kernel", "inverse", "signature"):
        hooks[f"linalg.Matrix.{meth}"] = eliminated
    return hooks


class Tracer:
    """In-memory spans ``[name, parent, start, end]`` with parent links.

    ``install`` wraps every function in ``TRACED``; ``root`` opens a span
    that the benchmark itself owns (one per item), so that the part of an
    item not covered by any traced function shows up as the root's self
    time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.counters = {name: 0 for name in EXTRA_COUNTERS}
        self.patches = Patches()

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        hooks = _hooks(self.counters)
        for module, path in TRACED:
            name = span_name(module, path)
            replace_everywhere(self.patches, module, path,
                               lambda fn, n=name: self._wrap(n, fn, hooks.get(n)))

    def restore(self):
        self.patches.restore()

    def root(self, name: str, fn, *args):
        return self._wrap(name, fn, None)(*args)

    def write(self, path):
        """One JSON array per line: [id, parent, name, start_s, end_s]."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, round(t0, 9), round(t1, 9)]))
                fh.write("\n")

    def summary(self) -> dict:
        """calls, busy_s and self_s per span name, and the root totals.

        busy_s sums the spans of a name that are not nested in a span of the
        same name; self_s is a span's duration minus its direct children's.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, parent, t0, t1) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                row["busy_s"] += t1 - t0
        return out


def count_scalars(patches: Patches) -> dict:
    """Wrap the Scalar operations with call and zero-operand counters.

    Returns the live counter dict; ``zero`` counts the add/sub/mul calls
    with a zero operand.
    """
    from g2aa.scalars import Scalar

    counts = {op: 0 for op in SCALAR_OPS}
    counts["zero"] = 0

    def binary(op: str, fn):
        def counted(self, other):
            counts[op] += 1
            if (not self.a and not self.b) or (
                type(other) is Scalar and not other.a and not other.b
            ) or (type(other) is int and other == 0):
                counts["zero"] += 1
            return fn(self, other)

        return counted

    for op, attrs in (("add", ("__add__", "__radd__")),
                      ("sub", ("__sub__", "__rsub__")),
                      ("mul", ("__mul__", "__rmul__"))):
        for attr in attrs:
            patches.set(Scalar, attr, binary(op, Scalar.__dict__[attr]))

    inverse = Scalar.__dict__["inverse"]

    def counted_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    patches.set(Scalar, "inverse", counted_inverse)
    return counts
