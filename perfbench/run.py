"""The repository benchmark: three workloads from the HTTP gateway down
to the patterned medium.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gateway_small --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it
repeats episodes (fresh set-up + the seed's fixed op list) until
``--seconds`` have passed and at least :data:`MIN_EPISODES` ran.
``--trace 1`` runs one untraced episode, then one with every public
``repro`` callable wrapped, and reports the per-layer ledger
(``perfbench/ledger.py``); the spans go to ``.perfbench_trace/``.

Every output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when every check passed, 1 when one failed and 2 when
the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
TRACE_DIR = ROOT / ".perfbench_trace"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import ledger  # noqa: E402  (needs ROOT on the path)
from perfbench.stats import best_per_op, median, tail  # noqa: E402
from perfbench.tracer import Tracer, import_all  # noqa: E402

MIN_EPISODES = 3
#: No new episode starts after this many seconds, whatever the floor.
MAX_RUN_S = 120.0

#: End-to-end metrics every workload reports, in BENCHMARK.json order.
#: The per-op p50s and the p95 tails are printed but not listed there:
#: on the CPU-bound workloads they follow the host's speed, which moves
#: them by more than any bound from one set of runs to the next.
END_TO_END = ("setup_s", "ops_per_s", "sim_device_ms_per_op",
              "space_amp")
OPS = ("put", "seal", "verify", "get", "search", "audit")
WRITE_OPS = ("put", "seal")
READ_OPS = ("get", "verify", "search")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("gateway_small", "store_large",
                                 "fleet_audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, rec, episodes, per_episode, timelines
               ) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric the workload's op mix produced.

    With one caller, every episode issues the same ops in the same
    order, so ``ops_per_s`` is the op count over the sum of each op's
    fastest time in the run's episodes (:func:`best_per_op`): a slow
    stretch of the host counts only where it covered every episode.
    Two concurrent callers interleave differently each episode, so
    there it is the median of the episodes' rates.  A p50 is the
    median over episodes of each episode's median, so one slow stretch
    moves it by one episode at most; a tail pools the samples of every
    episode, since it needs many."""
    out: Dict[str, Tuple[float, str]] = {
        "setup_s": (median([e.setup_s for e in episodes]), "s"),
    }
    if workload.ONE_CALLER:
        best = best_per_op(timelines)
        rec.check(best is not None,
                  "episodes did not issue the same op list")
        rate = len(best) / sum(t for _, t in best) if best else 0.0
    else:
        rate = median([e.ops / e.loop_s for e in episodes])
    out["ops_per_s"] = (rate, "ops/s")
    for op in OPS:
        if rec.samples.get(op):
            out[f"{op}_p50_ms"] = (median(
                [median(s[op]) for s in per_episode if s.get(op)]) * 1e3,
                "ms")
    for name, ops in (("write_p95_ms", WRITE_OPS),
                      ("read_p95_ms", READ_OPS)):
        found = tail([s for op in ops for s in rec.samples.get(op, ())])
        if found is not None:
            out[name] = (found.value * 1e3, "ms")
            out[name.replace("_ms", "_samples")] = (found.samples, "count")
    out["error_rate"] = (rec.failed / rec.attempted, "ratio")
    for key, unit in (("sim_device_ms_per_op", "ms"), ("space_amp", "ratio")):
        out[key] = (median([e.counts[key] for e in episodes]), unit)
    return out


def check_determinism(workload, rec, episodes, what="episodes") -> str:
    """Episodes of one seed must agree on every count the program
    alone decides; returns the report line (with a digest that two
    runs of the same seed must share)."""
    keys = sorted(k for k in episodes[0].counts
                  if not k.startswith(workload.ORDER_DEPENDENT))
    first = {k: episodes[0].counts[k] for k in keys}
    for i, episode in enumerate(episodes[1:], 2):
        differ = [k for k in keys if episode.counts[k] != first[k]]
        rec.check(not differ, f"determinism: episode {i} differs from "
                              f"episode 1 on {differ}")
    digest = hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]
    line = (f"determinism: {len(episodes)} {what} of seed "
            f"{workload.seed} agree on {len(keys)} counts "
            f"(sim_device_ms_per_op, space_amp, fs.*, device.*); "
            f"digest {digest}")
    if workload.ORDER_DEPENDENT:
        line += ("; not compared (set by how concurrent clients "
                 f"interleave): {', '.join(workload.ORDER_DEPENDENT)}")
    return line


def measured_run(workload, seconds: float):
    from perfbench.workloads import Recorder

    rec = Recorder()
    episodes = []
    per_episode: List[Dict[str, List[float]]] = []
    timelines: List[List[Tuple[str, float]]] = []
    t0 = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - t0
        if rec.failed or elapsed >= MAX_RUN_S:
            return False
        enough_tail = tail([s for op in READ_OPS
                            for s in rec.samples.get(op, ())]) is not None
        return (len(episodes) < MIN_EPISODES or elapsed < seconds
                or not enough_tail)

    while not episodes or more():
        marks = {op: len(v) for op, v in rec.samples.items()}
        mark = len(rec.timeline)
        # the last episode's garbage is not the next set-up's cost
        gc.collect()
        episodes.append(workload.episode(rec))
        per_episode.append({op: v[marks.get(op, 0):]
                            for op, v in rec.samples.items()})
        timelines.append(rec.timeline[mark:])
    notes = [check_determinism(workload, rec, episodes)]
    metrics = end_to_end(workload, rec, episodes, per_episode, timelines)
    missing = [m for m in END_TO_END if m not in metrics]
    rec.check(not missing, f"no value for {missing}")
    rows = [(name, value, unit,
             "" if name in END_TO_END else "  (not in BENCHMARK.json)")
            for name, (value, unit) in metrics.items()]
    gated = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
             for name in END_TO_END if name in metrics}
    return rec.attempted, rec.failed, rec.notes + notes, rows, gated


def traced_run(workload):
    from perfbench.workloads import Recorder

    modules = import_all()
    rec = Recorder()
    plain = workload.episode(rec)
    tracer = Tracer(extra=ledger.EXTRA_BOUNDARIES, values=ledger.SPAN_VALUES,
                    publish=ledger.PUBLISH, adopt=ledger.ADOPT)
    traced_rec = Recorder(tracer)
    try:
        traced = workload.episode(
            traced_rec, before_loop=lambda: tracer.install(modules),
            after_loop=tracer.uninstall)
    finally:
        tracer.uninstall()
    notes = [check_determinism(workload, traced_rec, [plain, traced],
                               "episodes (untraced, traced)")]
    view = ledger.TraceView(tracer.spans, tracer.modules, traced.counts)
    values = ledger.read_ledger(view)
    missing = ledger.missing_boundaries(view, workload.name, tracer.wrapped)
    traced_rec.check(not missing,
                     f"boundaries never hit on {workload.name}: {missing}")
    attempted = rec.attempted + traced_rec.attempted
    failed = rec.failed + traced_rec.failed
    values["trace.coverage"] = view.coverage()
    values["trace.overhead"] = ((traced.ops / traced.loop_s)
                                / (plain.ops / plain.loop_s))
    values["error_rate"] = failed / attempted
    units = {m.name: m.unit for m in ledger.METRICS}
    units.update({name: unit for name, unit, _ in ledger.RUN_METRICS})
    moves = {m.name: f"  -> {m.moves} on {', '.join(m.on)}"
             for m in ledger.METRICS if m.on}
    rows = [(name, value, units[name], moves.get(name, ""))
            for name, value in values.items()]
    path = write_spans(tracer.spans, workload)
    notes.append(f"trace: {len(tracer.spans)} spans, "
                 f"{len(tracer.wrapped)} wrapped callables, written to "
                 f"{path.relative_to(ROOT)}")
    per_layer = {name: {"value": value, "unit": units[name]}
                 for name, value in values.items()}
    return (attempted, failed, rec.notes + traced_rec.notes + notes, rows,
            per_layer)


def write_spans(spans, workload) -> Path:
    """One tab-separated line per span: id, name, start ns, end ns,
    parent id, request id, value."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload.name}-seed{workload.seed}.tsv"
    with path.open("w") as out:
        out.write("sid\tname\tstart_ns\tend_ns\tparent\trid\tvalue\n")
        for span in sorted(spans):
            out.write("\t".join("" if f is None else str(f) for f in span)
                      + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        attempted, failed, notes, rows, metrics = traced_run(workload)
    else:
        attempted, failed, notes, rows, metrics = measured_run(
            workload, args.seconds)
    for name, value, unit, comment in rows:
        print(f"  {name:<24} {value:>14.6g} {unit:<9}{comment}")
    for note in notes:
        print(f"  {note}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
