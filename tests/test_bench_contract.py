"""What the benchmark in perfbench/ reads of the package still works.

Each workload runs its warm-up item and the first cycle of items through
its own ``call`` and ``check``, with its taps installed, and every traced
function of ``spans.TRACED`` is wrapped and restored.  A change that
breaks a name, a tap or an oracle of the benchmark fails here.  Nothing in
perfbench/ is changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

ITEMS = 18  # one cycle of the report workload, three of decide


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
