"""Benchmark of the g2aa package: the sweep, report and decide workloads.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` runs one workload as a closed loop for ``--seconds`` of
measured time and prints the end-to-end metrics, with every time scaled to
a fixed host speed by the readings of ``gauge``; ``--workload all`` runs the
three in turn and prints them under per-workload names.  ``--trace 1``
prints the per-layer metrics instead: it runs the same fixed list of items
three times, each in a fresh process -- without instrumentation
(``plain``), with spans around every traced function (``spans``), and with
Scalar operations counted (``counts``) -- so the spans pass can be compared
with the plain one for the tracing overhead and the scalar counters do not
inflate the spans.

Every item's output is checked against an oracle outside the timed region;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("sweep", "report", "decide")
SETUP_PROBES = 7
# Seconds of timed calls after which the gauge is read.
SLICE_S = 0.1

# Items of each traced pass per second of --seconds, sized so that the
# three passes of a --trace 1 run take about as long as a --trace 0 run
# (20-35 s at --seconds 30 on the machine the benchmark was built on).
TRACE_ITEMS_PER_S = {"sweep": 3.0, "report": 0.8, "decide": 20.0}

# Per-workload names of the end-to-end metrics, for --workload all.
ALL_NAMES = {
    "sweep": ("points_per_s", "point_ms_p50", "point_ms_tail"),
    "report": ("reports_per_s", "report_ms_p50", "report_ms_tail"),
    "decide": ("decisions_per_s", "decision_ms_p50", "decision_ms_tail"),
}


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no package to import)."""


def load_package():
    """Import g2aa from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "g2aa" / "__init__.py").is_file():
        raise BenchError(f"no package at {src / 'g2aa'}")
    sys.path.insert(0, str(src))
    import g2aa

    if Path(g2aa.__file__).resolve().parent != (src / "g2aa").resolve():
        raise BenchError(f"imported g2aa from {g2aa.__file__}, not from {src}")
    import workloads

    return workloads


def stamp(workload: str, seed: int, items: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "items": items,
    }


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _safe_call(wl, item):
    from workloads import Outcome

    try:
        return wl.call(item)
    except Exception:  # the oracle counts it as a failed item
        return Outcome(error=traceback.format_exc(limit=3))


def _check(wl, item, outcome) -> str | None:
    if outcome.error is not None:
        return f"raised: {outcome.error.strip()}"
    try:
        return wl.check(item, outcome)
    except Exception:
        return f"oracle raised: {traceback.format_exc(limit=3).strip()}"


def _warm_up(wl):
    """Run the workload's warm-up item; returns what ``_check_warm_up`` needs."""
    from spans import Patches

    patches = Patches()
    wl.install_taps(patches)
    try:
        item = wl.warm_item()
        return wl, item, _safe_call(wl, item)
    finally:
        patches.restore()


def _check_warm_up(wl, item, outcome):
    problem = _check(wl, item, outcome)
    if problem:
        raise BenchError(f"warm-up item of {wl.name} failed: {problem}")


def _report_failures(wl, failures):
    if failures:
        item, why = failures[0]
        print(f"FAIL {wl.name} seed={wl.seed} item={item.index} kind={item.kind}: {why}\n"
              f"  input: {item.describe}", file=sys.stderr)


def _table1(wl_module):
    from workloads import Outcome, call_cli, check_table1

    t0 = time.perf_counter()
    code, out, err = call_cli(wl_module.TABLE1_ARGV)
    elapsed = time.perf_counter() - t0
    return elapsed, check_table1(Outcome(code, out, err))


def timed_run(wl_module, name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One workload as a closed loop until ``seconds`` of calls are timed.

    The calls are timed in slices of at least ``SLICE_S`` seconds (one or
    two calls of sweep or report) with a gauge reading between slices, and
    each call's time is scaled by the nominal reading over the mean of the
    readings before and after its slice (see ``gauge``)."""
    import gauge
    from spans import Patches

    wl = wl_module.WORKLOADS[name](seed, workdir)
    _check_warm_up(*_warm_up(wl))
    raw, times, failures = [], [], []
    patches = Patches()
    wl.install_taps(patches)
    clock = time.perf_counter
    gauge.read()  # not counted: the first reading runs cold code
    readings = [gauge.read()]
    try:
        total = spent = 0.0
        while total < seconds:
            item = wl.item(len(raw))
            t0 = clock()
            outcome = _safe_call(wl, item)
            elapsed = clock() - t0
            total += elapsed
            spent += elapsed
            raw.append(elapsed)
            # checked at once, so that memory does not grow with the item count
            why = _check(wl, item, outcome)
            if why is not None:
                failures.append((item, why))
            wl.observe(item, outcome)
            if spent >= SLICE_S or total >= seconds:
                readings.append(gauge.read())
                scale = gauge.factor(readings[-2:])
                times.extend(t * scale for t in raw[len(times):])
                spent = 0.0
    finally:
        patches.restore()
    _report_failures(wl, failures)
    tail, beyond = percentile(times, wl.tail_pct)
    run = {
        "items": len(times),
        "attempted": len(times),
        "failed": len(failures),
        "items_per_s": len(times) / sum(times),
        "item_ms_p50": statistics.median(times) * 1000,
        "item_ms_tail": tail * 1000,
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond": beyond,
        "raw": {"items_per_s": len(raw) / sum(raw),
                "item_ms_p50": statistics.median(raw) * 1000,
                "item_ms_tail": percentile(raw, wl.tail_pct)[0] * 1000,
                "gauge_ms_mean": statistics.fmean(readings) * 1000,
                "gauge_readings": len(readings)},
        "properties": wl.properties(),
    }
    if name == "decide":
        # one catalog-table regeneration per run, timed apart from the items
        run["table1_s"], problem = _table1(wl_module)
        run["attempted"] += 1
        if problem:
            print(f"FAIL table1: {problem}", file=sys.stderr)
            run["failed"] += 1
    return run


def setup_seconds(workload: str, seed: int) -> tuple[float, list[float], list[float]]:
    """Median over fresh processes of: import g2aa, then one warm-up item of
    the workload, or of each for ``all`` (which pays the lazy mpmath import
    and fills the certification cache); scaled by gauge readings taken in
    the same process right after.  Returns the median, the scaled samples
    and the raw ones."""
    samples, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        raw.append(probe["raw_s"])
    return statistics.median(samples), samples, raw


def setup_probe(workload: str, seed: int):
    t0 = time.perf_counter()
    wl_module = load_package()
    with _workdir(f"probe-{seed}") as workdir:
        warmed = [_warm_up(wl_module.WORKLOADS[name](seed, workdir))
                  for name in (WORKLOAD_NAMES if workload == "all" else (workload,))]
        elapsed = time.perf_counter() - t0
        for args in warmed:
            _check_warm_up(*args)
    import gauge

    scale = gauge.factor([gauge.read() for _ in range(5)])
    print(json.dumps({"setup_s": elapsed * scale, "raw_s": elapsed}))


@contextlib.contextmanager
def _workdir(tag: str):
    """A private scratch directory under the checkout for input files."""
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(name: str, seed: int, seconds: float):
    wl_module = load_package()
    with _workdir(f"{name}-{seed}") as workdir:
        run = timed_run(wl_module, name, seed, seconds, workdir)
    rss = peak_rss_mb()
    setup, samples, raw_samples = setup_seconds(name, seed)
    attempted = run["attempted"]
    failed = run["failed"]
    metrics = {
        "items_per_s": _metric(run["items_per_s"], "1/s"),
        "item_ms_p50": _metric(run["item_ms_p50"], "ms"),
        "item_ms_tail": _metric(run["item_ms_tail"], "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
        "setup_s": _metric(setup, "s"),
    }
    detail = {
        "stamp": stamp(name, seed, run["items"]),
        "tail": {"pct": run["tail_pct"], "samples_beyond": run["tail_samples_beyond"]},
        "failed_ratio": failed / attempted,
        "setup_samples_s": samples,
        "raw": {**run["raw"], "setup_s": statistics.median(raw_samples)},
        "inputs": run["properties"],
    }
    print(f"# {name}, seed {seed}: {run['items']} items in {seconds:g} s measured")
    raw = detail["raw"]
    for key, m in metrics.items():
        unscaled = f"  (unscaled {raw[key]:.4f})" if key in raw else ""
        print(f"{key:<16} {m['value']:>12.4f} {m['unit']}{unscaled}")
    if "table1_s" in run:
        detail["table1_s"] = run["table1_s"]
        print(f"{'table1_s':<16} {run['table1_s']:>12.4f} s (not gated)")
    print(f"{'failed_ratio':<16} {failed / attempted:>12.4f} ({failed}/{attempted})")
    print("detail " + json.dumps(detail))
    _print_result(failed == 0, attempted, failed, metrics)


def all_workloads(seed: int, seconds: float):
    """All three workloads for one seed, under the names of each."""
    wl_module = load_package()
    metrics, details = {}, {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        with _workdir(f"{name}-{seed}") as workdir:
            run = timed_run(wl_module, name, seed, seconds, workdir)
        rate, p50, tail = ALL_NAMES[name]
        metrics[f"{name}.{rate}"] = _metric(run["items_per_s"], "1/s")
        metrics[f"{name}.{p50}"] = _metric(run["item_ms_p50"], "ms")
        metrics[f"{name}.{tail}"] = _metric(run["item_ms_tail"], "ms")
        details[name] = {"items": run["items"], "tail_pct": run["tail_pct"],
                         "tail_samples_beyond": run["tail_samples_beyond"],
                         "inputs": run["properties"]}
        attempted += run["attempted"]
        failed += run["failed"]
        if "table1_s" in run:
            metrics["decide.table1_s"] = _metric(run["table1_s"], "s")
    metrics["failed_ratio"] = _metric(failed / attempted, "ratio")
    metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MB")
    metrics["setup_s"] = _metric(setup_seconds("all", seed)[0], "s")
    for key, m in metrics.items():
        print(f"{key:<24} {m['value']:>12.4f} {m['unit']}")
    print("detail " + json.dumps({"stamp": stamp("all", seed, attempted), **details}))
    _print_result(failed == 0, attempted, failed, metrics)


# -- traced runs ------------------------------------------------------------------


def run_pass(name: str, seed: int, count: int, mode: str):
    """One pass over items 0..count-1 in this process; prints its record.

    mode is ``plain`` (no instrumentation), ``spans`` or ``counts``.  Items
    are generated and the warm-up item run before any wrapper is installed.
    """
    wl_module = load_package()
    import gauge
    from g2aa import g2
    from spans import Patches, Tracer, count_scalars

    table1 = name == "decide"
    with _workdir(f"{name}-{seed}-{mode}") as workdir:
        wl = wl_module.WORKLOADS[name](seed, workdir)
        _check_warm_up(*_warm_up(wl))
        items = [wl.item(i) for i in range(count)]
        tracer = Tracer()
        patches = Patches()
        scalars = None
        if mode == "spans":
            tracer.install()
        elif mode == "counts":
            scalars = count_scalars(patches)
        wl.install_taps(patches)
        outcomes, times = [], []
        table1_problem = None
        clock = time.perf_counter
        gauge.read()  # not counted: the first reading runs cold code
        readings, spent = [gauge.read()], 0.0
        cache_before = g2._certify_cached.cache_info()
        try:
            for item in items:
                t0 = clock()
                outcomes.append(tracer.root("bench.item", _safe_call, wl, item))
                times.append(clock() - t0)
                spent += times[-1]
                if spent >= SLICE_S:
                    readings.append(gauge.read())
                    spent = 0.0
            if table1:
                t0 = clock()
                _, table1_problem = tracer.root("bench.table1", _table1, wl_module)
                times.append(clock() - t0)
            readings.append(gauge.read())
        finally:
            patches.restore()
            tracer.restore()
        cache_after = g2._certify_cached.cache_info()
        failures = []
        for item, outcome in zip(items, outcomes):
            why = _check(wl, item, outcome)
            if why is not None:
                failures.append((item, why))
            wl.observe(item, outcome)
        _report_failures(wl, failures)
        if table1_problem:
            print(f"FAIL table1: {table1_problem}", file=sys.stderr)
        record = {
            "mode": mode,
            "attempted": len(items) + table1,
            "failed": len(failures) + (table1_problem is not None),
            "wall_s": sum(times),
            "gauge_s": statistics.fmean(readings),
            "certify": (cache_after.hits - cache_before.hits,
                        cache_after.misses - cache_before.misses),
            "properties": wl.properties(),
        }
        if mode == "spans":
            WORK.mkdir(parents=True, exist_ok=True)
            spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path)
            record.update(summary=tracer.summary(), counters=tracer.counters,
                          spans_file=str(spans_path.relative_to(ROOT)),
                          spans=len(tracer.spans))
        if scalars is not None:
            record["scalars"] = scalars
    print(json.dumps(record))


def _child_pass(name: str, seed: int, count: int, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--pass", mode, "--workload", name,
         "--seed", str(seed), "--items", str(count)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer_metrics(plain: dict, traced: dict, counted: dict) -> dict:
    from spans import SCALAR_OPS, SPAN_NAMES

    summary = traced["summary"]
    counters = traced["counters"]
    metrics = {}
    for span in SPAN_NAMES:
        row = summary.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{span}.calls"] = _metric(row["calls"], "count")
        metrics[f"{span}.busy_s"] = _metric(row["busy_s"], "s")
        metrics[f"{span}.self_s"] = _metric(row["self_s"], "s")
    locsym = summary.get("geometry.is_locally_symmetric", {}).get("calls", 0)
    metrics["geometry.hol_dim.sum"] = _metric(counters["geometry.hol_dim.sum"], "count")
    metrics["geometry.is_locally_symmetric.early_exit_ratio"] = _metric(
        counters["geometry.is_locally_symmetric.calls_early"] / locsym if locsym else 0.0,
        "ratio")
    hits, misses = traced["certify"]
    metrics["g2.certify.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio")
    for branch in ("rational", "sqrt2", "general", "float"):
        metrics[f"g2.ninth_root.{branch}"] = _metric(counters[f"g2.ninth_root.{branch}"],
                                                    "count")
    metrics["linalg.entries_eliminated"] = _metric(counters["linalg.entries_eliminated"],
                                                   "count")
    scalars = counted["scalars"]
    for op in SCALAR_OPS:
        metrics[f"scalars.{op}.calls"] = _metric(scalars[op], "count")
    binary = scalars["add"] + scalars["sub"] + scalars["mul"]
    metrics["scalars.zero_operand_ratio"] = _metric(
        scalars["zero"] / binary if binary else 0.0, "ratio")
    # wall times over the passes' mean gauge readings, so that a change of
    # host speed between the two passes does not read as overhead
    metrics["trace.overhead_ratio"] = _metric(
        (traced["wall_s"] / traced["gauge_s"]) / (plain["wall_s"] / plain["gauge_s"]) - 1,
        "ratio")
    uncovered = sum(row["self_s"] for span, row in summary.items() if span.startswith("bench."))
    metrics["trace.uncovered_s"] = _metric(uncovered, "s")
    return metrics


def traced(name: str, seed: int, seconds: float):
    count = max(3, round(seconds * TRACE_ITEMS_PER_S[name]))
    plain = _child_pass(name, seed, count, "plain")
    spans_rec = _child_pass(name, seed, count, "spans")
    counted = _child_pass(name, seed, count, "counts")
    metrics = per_layer_metrics(plain, spans_rec, counted)
    wall = spans_rec["wall_s"]
    rows = sorted(((span, row) for span, row in spans_rec["summary"].items()),
                  key=lambda kv: -kv[1]["self_s"])
    print(f"# {name}, seed {seed}: {count} items per pass; traced wall {wall:.3f} s, "
          f"plain {plain['wall_s']:.3f} s, overhead "
          f"{metrics['trace.overhead_ratio']['value']:.1%}; "
          f"{spans_rec['spans']} spans in {spans_rec['spans_file']}")
    print(f"{'span':<40} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self %':>7}")
    for span, row in rows:
        print(f"{span:<40} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{100 * row['self_s'] / wall:>6.1f}%")
    print(f"{'(self times sum)':<40} {'':>8} {'':>10} "
          f"{sum(r['self_s'] for _, r in rows):>10.4f} of wall {wall:.4f}; uncovered "
          f"(bench.* self) {metrics['trace.uncovered_s']['value']:.4f} s")
    print("detail " + json.dumps({"stamp": stamp(name, seed, count),
                                  "inputs": spans_rec["properties"]}))
    attempted = plain["attempted"] + spans_rec["attempted"] + counted["attempted"]
    failed = plain["failed"] + spans_rec["failed"] + counted["failed"]
    _print_result(failed == 0, attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="sweep, report, decide, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass", dest="pass_mode", choices=("plain", "spans", "counts"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--items", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOAD_NAMES + ("all",):
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
        elif args.pass_mode:
            run_pass(args.workload, args.seed, args.items, args.pass_mode)
        elif args.workload == "all":
            all_workloads(args.seed, args.seconds)
        elif args.trace:
            traced(args.workload, args.seed, args.seconds)
        else:
            end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
