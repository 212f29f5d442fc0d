"""Layered solve benchmark for winset.

    python3 perfbench/run.py --workload follow-sat --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE NEW

A run builds its workload's games from the seed (the set-up, timed several
times), then solves every cell of the workload, pass after pass, for about
`--seconds` (see `run` for the exact rule).  Each learned DFA is
checked (see checks.py) outside the timed region.  With `--trace 0` every
pass is untraced and the run reports the end-to-end metrics; with `--trace 1`
untraced and traced passes alternate and the run reports the per-layer
metrics, the per-n SAT table and the tracing overhead.  The last line of
stdout is one JSON object; the full record of the run, and in a traced run
its spans, go to perfbench/out/ (or --out-dir).  `compare` reads two such
sets of records: see compare.py.

winset is imported from the checkout's own src/, never from anywhere else.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-up is repeated until both floors are met, then again between passes;
# the median of all its samples is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_BETWEEN_S = 0.2
CELL_TIMEOUT = 120.0
# No pass starts that should end later than this, so a run ends within 180 s.
RUN_LIMIT_S = 150.0


def import_winset():
    """Import winset from <checkout>/src; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "winset", "__init__.py")):
        print(f"perfbench: no winset sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import winset

    if os.path.dirname(os.path.abspath(winset.__file__)) != os.path.join(SRC, "winset"):
        print(f"perfbench: winset imported from {winset.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _learner(name):
    from winset import rpni, satlearn

    return satlearn.learn if name == "sat" else rpni.learn_rpni


def _reset_caches():
    """Start every pass cold, as a fresh `winset solve` would."""
    from winset import sample

    clear = getattr(getattr(sample, "finite_words", None), "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()


def run_pass(cells, games, tracer=None):
    """Solve every cell once; returns (rows, learner results)."""
    from winset.learning import LearnOptions
    from winset.prop import solve_internal

    _reset_caches()
    rows, results = [], []
    if tracer is not None:
        tracer.install()
    try:
        for cell, game in zip(cells, games):
            learn = _learner(cell.learner)
            solver = tracer.solver(solve_internal) if tracer is not None else None
            opts = LearnOptions(timeout=CELL_TIMEOUT, solver=solver)
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is not None:
                res = tracer.run_cell(cell.name, learn, game, opts)
            else:
                res = learn(game, opts)
            t1, c1 = time.perf_counter(), time.process_time()
            results.append(res)
            rows.append({
                "cell": cell.name,
                "learner": cell.learner,
                "outcome": res.outcome,
                "states": res.dfa.state_count if res.dfa is not None else 0,
                "iterations": res.iterations,
                "sample_items": sum(res.sample_sizes),
                "wall_s": t1 - t0,
                "cpu_s": c1 - c0,
            })
    finally:
        if tracer is not None:
            tracer.restore()
    return rows, results


def _time_setup(workloads, cells, seed, samples, min_reps, min_s):
    """Build the games at least `min_reps` times and for `min_s` seconds,
    appending each build's seconds to `samples`; returns the last games."""
    gc.collect()
    spent, reps = 0.0, 0
    while reps < min_reps or spent < min_s:
        t0 = time.perf_counter()
        games = workloads.build_games(cells, seed)
        took = time.perf_counter() - t0
        samples.append(took)
        spent += took
        reps += 1
    return games


def run(args):
    import checks
    import tracing
    import workloads

    cells = workloads.WORKLOADS[args.workload]
    setup = []
    games = _time_setup(workloads, cells, args.seed, setup, SETUP_MIN_REPS, SETUP_MIN_S)

    verified = {}
    passes, problems = [], []
    tracers = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        if passes:
            # A run makes two passes when the first took under --seconds (a
            # traced run always makes two: one untraced, one traced), then
            # starts another only if it should end within --seconds.
            first = passes[0]["wall_s"]
            ahead = elapsed + statistics.median(p["wall_s"] for p in passes)
            floor = 2 if (args.trace or first < args.seconds) else 1
            if (len(passes) >= floor and ahead > args.seconds) or ahead > RUN_LIMIT_S:
                break
        leftover = tracing.wrappers_bound()
        if not traced and leftover:
            problems.append(f"tracing wrappers bound in an untraced pass: {leftover}")
        if passes:
            # More set-up samples between passes spread them over the run.
            _time_setup(workloads, cells, args.seed, setup, 1, SETUP_BETWEEN_S)
        tracer = tracing.Tracer() if traced else None
        try:
            rows, results = run_pass(cells, games, tracer)
        except RuntimeError as e:  # Tracer.restore found a wrapper left behind
            problems.append(str(e))
            break
        for cell, game, row, res in zip(cells, games, rows, results):
            key = (cell.name, res.outcome, res.dfa)
            if key not in verified:
                verified[key] = checks.check_cell(cell, game, res)
            row["error"] = verified[key]
        passes.append({"traced": traced, "cells": rows,
                       "wall_s": sum(r["wall_s"] for r in rows),
                       "cpu_s": sum(r["cpu_s"] for r in rows)})
        if tracer is not None:
            tracers.append((tracer, results))

    all_rows = [r for p in passes for r in p["cells"]]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r["error"] is not None)
    plain = [p for p in passes if not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup": {"samples": len(setup), "median_s": statistics.median(setup),
                  "min_s": min(setup), "max_s": max(setup)},
        "passes": passes,
    }
    if args.trace and not tracers:
        problems.append("no traced pass completed")
        metrics = {}
    elif args.trace:
        metrics, extra = _traced_metrics(tracing, tracers, passes, problems)
        record.update(extra)
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
            "solved_frac": ((attempted - failed) / attempted, "ratio"),
            "dfa_states": (statistics.median_low(sum(r["states"] for r in p["cells"]) for p in plain), "count"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["problems"] = problems
    _report(record, all_rows)
    _write_record(args, record, tracers)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def _traced_metrics(tracing, tracers, passes, problems):
    """Per-layer metrics: the low median over traced passes of each number."""
    per_pass = [tracing.layer_metrics(t, results) for t, results in tracers]
    traced_wall = statistics.median(p["wall_s"] for p in passes if p["traced"])
    plain_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = (statistics.median_low(m[name] for m in per_pass), tracing.METRICS[name][0])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    cover = metrics["trace.coverage"][0]
    if cover < 0.9:
        problems.append(f"layer spans cover {cover:.1%} of the traced wall time, below 90%")
    first = tracers[0][0]
    extra = {
        "layers": tracing.layer_times(first.spans),
        "sat_table": tracing.sat_table(first.sat_rows),
        "sat_calls": [r._asdict() for r in first.sat_rows],
        "missing_layers": first.missing,
        "traced_wall_s": traced_wall,
    }
    return metrics, extra


def _report(record, rows):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['passes'])}")
    for r in rows:
        status = "ok" if r["error"] is None else f"FAIL: {r['error']}"
        print(f"  {r['cell']:<34} {r['outcome']:<9} states={r['states']:<3} "
              f"iter={r['iterations']:<4} wall={r['wall_s']:.3f}s  {status}")
    if "layers" in record:
        wall = record["layers"]["cell"]["total_s"]
        print(f"  layer times over the first traced pass ({wall:.3f} s traced wall):")
        print(f"    {'layer':<34} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>7}")
        for name, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<34} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
                  f"{100 * row['self_s'] / wall:>6.1f}%")
        print("  SAT calls per (cell, kind, n):")
        print(f"    {'cell':<34} {'kind':<10} {'n':>3} {'calls':>6} {'sat':>4} {'unsat':>5} "
              f"{'seconds':>9} {'max_s':>8} {'vars':>7} {'clauses':>8}")
        for t in record["sat_table"]:
            print(f"    {t['cell']:<34} {t['kind']:<10} {t['n'] if t['n'] is not None else '-':>3} "
                  f"{t['calls']:>6} {t['sat']:>4} {t['unsat']:>5} {t['seconds']:>9.4f} "
                  f"{t['max_s']:>8.4f} {t['max_vars']:>7} {t['max_clauses']:>8}")
        if record["missing_layers"]:
            print(f"  layers not found in winset: {', '.join(record['missing_layers'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")


def _write_record(args, record, tracers):
    out_dir = args.out_dir or os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracers:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracers[0][0].spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    import workloads

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", help="where the run record goes (default perfbench/out)")
    args = parser.parse_args(argv)
    import_winset()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
