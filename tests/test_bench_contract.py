"""What the benchmark in perfbench/ reads of the package still works.

Each workload runs its warm-up item and the first cycle of items through
its own ``call`` and ``check``, with its taps installed, and every traced
function of ``spans.TRACED`` is wrapped and restored.  A change that
breaks a name, a tap or an oracle of the benchmark fails here.  Counts of
the Scalar operations that the sweep spends on its witness points, and that
decide and report spend on one cycle of items, guard their per-item work;
counts of the matrices that the sweep builds on its witness points, of
the scalars and forms it builds through their checking constructors, and of
the denominators it clears, guard against intermediates, checks and
re-clearing coming back.  Nothing in perfbench/ is changed.
"""

import sys
from pathlib import Path

import pytest

from g2aa import linalg, scalars
from g2aa.classify import pipeline_report
from g2aa.exterior import KForm
from g2aa.g2 import witt_phi
from g2aa.scalars import Scalar

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

ITEMS = 18  # one cycle of the report workload, three of decide
# Scalar add + sub + mul calls of pipeline_report over the witness points
# of the sweep, with the certify cache and the metric's inverse warm
SWEEP_WITNESS_SCALAR_OPS = 110
# Matrix objects (``linalg._of`` calls) that pipeline_report builds over the
# witness points of the sweep, with the same caches warm
SWEEP_WITNESS_MATRICES = 357
# Calls of the checking constructors Scalar.__init__ and KForm.__init__ that
# pipeline_report makes over the same points with the same caches warm:
# arithmetic and the exterior kernels build through scalars._new and
# exterior._form, and witt_phi() is one form built at import
SWEEP_WITNESS_CHECKED_BUILDS = 0
# scalars._clear_denominators calls of pipeline_report over the same points
# with the same caches warm: each point clears its ad-matrix once, and the
# rest are rows entering an Echelon; the shared metric, its inverse, the
# Witt form and its Hodge dual keep their pairs
SWEEP_WITNESS_CLEARINGS = 91
# Scalar add + sub + mul calls of one cycle of items (0..17 at seed 7),
# after one warm pass over the same items
CYCLE_SCALAR_OPS = {"decide": 2238, "report": 15216}


def scalar_ops(run) -> dict:
    """The Scalar operation counts of ``run()``, called once to warm the
    caches and once counted."""
    run()
    patches = spans.Patches()
    counts = spans.count_scalars(patches)
    try:
        run()
    finally:
        patches.restore()
    return counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_items_pass_their_oracle(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    patches = spans.Patches()
    wl.install_taps(patches)
    try:
        for item in [wl.warm_item()] + [wl.item(i) for i in range(ITEMS)]:
            outcome = wl.call(item)
            assert wl.check(item, outcome) is None, (item.index, item.kind, item.describe)
            wl.observe(item, outcome)
    finally:
        patches.restore()
    assert sum(wl.kinds.values()) == ITEMS + 1


def test_every_traced_function_is_wrapped_and_restored():
    originals = {}
    for module, path in spans.TRACED:
        owner = sys.modules[f"g2aa.{module}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        originals[module, path] = (owner, attr, getattr(owner, attr))
        assert callable(originals[module, path][2]), (module, path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, path), (owner, attr, fn) in originals.items():
            assert getattr(owner, attr).__wrapped__ is fn, (module, path)
    finally:
        tracer.restore()
    for (module, path), (owner, attr, fn) in originals.items():
        assert getattr(owner, attr) is fn, (module, path)
    patches = spans.Patches()
    spans.count_scalars(patches)
    patches.restore()


def witness_points(tmp_path) -> list:
    """The parameters of the sweep's witness points, its first items."""
    sweep = workloads.Sweep(7, tmp_path)
    return [sweep.item(i).call for i in range(len(workloads.SWEEP_WITNESSES))]


def test_sweep_witness_scalar_ops_stay_within_their_count(tmp_path):
    """Scalar operation counts repeat exactly from run to run, unlike
    times, so they guard the sweep's per-point work against regressions."""
    points = witness_points(tmp_path)
    counts = scalar_ops(lambda: [pipeline_report(p) for p in points])
    assert counts["add"] + counts["sub"] + counts["mul"] <= SWEEP_WITNESS_SCALAR_OPS, counts


def witness_calls(tmp_path, monkeypatch, home, name: str) -> int:
    """The calls of ``home.name`` that pipeline_report makes over the
    witness points with caches warm, counted in every g2aa module that
    binds the function."""
    points = witness_points(tmp_path)
    for p in points:
        pipeline_report(p)
    original = getattr(home, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    owners = [m for key, m in sorted(sys.modules.items())
              if key.startswith("g2aa") and getattr(m, name, None) is original]
    assert home in owners
    for m in owners:
        monkeypatch.setattr(m, name, counted)
    for p in points:
        pipeline_report(p)
    return calls


def test_sweep_witness_matrix_builds_stay_within_their_count(tmp_path, monkeypatch):
    """Every Matrix but the parsed ones is made by ``linalg._of``; its calls
    count the matrices a sweep point builds, so that a removed intermediate
    product cannot come back."""
    built = witness_calls(tmp_path, monkeypatch, linalg, "_of")
    assert built <= SWEEP_WITNESS_MATRICES, built


def test_sweep_witness_clearings_stay_within_their_count(tmp_path, monkeypatch):
    """Matrices and forms keep their pair image, so a sweep point clears
    only what is new to it; the count cannot grow back to a re-clearing of
    the shared metric, inverse and forms at every point."""
    cleared = witness_calls(tmp_path, monkeypatch, scalars, "_clear_denominators")
    assert cleared <= SWEEP_WITNESS_CLEARINGS, cleared


def test_sweep_witness_checked_builds_stay_within_their_count(tmp_path, monkeypatch):
    """Every sweep point certifies the one shared Witt form, and builds
    its scalars and forms without checking them again."""
    assert witt_phi() is witt_phi()
    points = witness_points(tmp_path)
    for p in points:
        pipeline_report(p)
    built = {}
    for cls in (Scalar, KForm):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] = built.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    for p in points:
        pipeline_report(p)
    assert sum(built.values()) <= SWEEP_WITNESS_CHECKED_BUILDS, built


@pytest.mark.parametrize("name", sorted(CYCLE_SCALAR_OPS))
def test_cycle_scalar_ops_stay_within_their_count(name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    items = [wl.item(i) for i in range(ITEMS)]
    counts = scalar_ops(lambda: [wl.call(item) for item in items])
    assert counts["add"] + counts["sub"] + counts["mul"] <= CYCLE_SCALAR_OPS[name], counts
