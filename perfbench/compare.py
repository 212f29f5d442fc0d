"""Compare two sets of run records written by run.py.

    python3 perfbench/run.py compare BASE NEW

BASE and NEW are each a run-record file or a directory of them.  The
comparison fails (exit 1) when a cell that both sides ran ends in another
outcome, or, for the sat learner, with another DFA size.  It prints each
workload's end-to-end medians and quartiles side by side, marking a median
that got worse by more than BENCHMARK.json's bound, and the per-layer
self-time deltas of the traced runs, each with its base.
"""

import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.json")))
    else:
        files = [path]
    records = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"compare: no run records in {path}")
    return records


def cell_answers(records):
    """(workload, cell) -> set of (outcome, states); states only for sat."""
    out = {}
    for rec in records:
        for p in rec["passes"]:
            for c in p["cells"]:
                states = c["states"] if c["learner"] == "sat" else None
                out.setdefault((rec["workload"], c["cell"]), set()).add((c["outcome"], states))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(records):
    """workload -> metric -> (values, unit), from untraced runs."""
    out = {}
    for rec in records:
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            vals, _unit = out.setdefault(rec["workload"], {}).setdefault(name, ([], m["unit"]))
            vals.append(m["value"])
    return out


def self_times(records):
    """workload -> layer -> median self seconds over traced runs."""
    acc = {}
    for rec in records:
        for name, row in rec.get("layers", {}).items():
            acc.setdefault(rec["workload"], {}).setdefault(name, []).append(row["self_s"])
    return {w: {k: statistics.median(v) for k, v in layers.items()} for w, layers in acc.items()}


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: perfbench/run.py compare BASE NEW")
    base, new = load(argv[0]), load(argv[1])
    spec = _spec()
    failures = []

    print("cells (outcome, sat DFA size):")
    answers_b, answers_n = cell_answers(base), cell_answers(new)
    for key in sorted(set(answers_b) | set(answers_n)):
        b, n = answers_b.get(key), answers_n.get(key)
        if b is None or n is None:
            mark = "only in " + ("NEW" if b is None else "BASE")
        elif b != n:
            mark = "MISMATCH"
            failures.append(f"{key[0]} {key[1]}: {sorted(b, key=str)} -> {sorted(n, key=str)}")
        else:
            mark = "same"
        print(f"  {key[0]:<14} {key[1]:<34} {mark}")

    print("end-to-end, untraced runs: median [q1, q3] (runs)")
    e2e_b, e2e_n = end_to_end(base), end_to_end(new)
    for workload in sorted(set(e2e_b) & set(e2e_n)):
        print(f"  {workload}")
        for name, (vals_b, unit) in e2e_b[workload].items():
            if name not in e2e_n[workload]:
                continue
            vals_n = e2e_n[workload][name][0]
            q1b, mb, q3b = quartiles(vals_b)
            q1n, mn, q3n = quartiles(vals_n)
            delta = (mn - mb) / mb if mb else 0.0
            mark = ""
            if name in spec:
                worse = delta if spec[name]["better"] == "lower" else -delta
                if worse > spec[name]["bound"]:
                    mark = f"  WORSE than bound {spec[name]['bound']:.0%}"
            side_b = f"{mb:.5g} [{q1b:.5g}, {q3b:.5g}] ({len(vals_b)})"
            side_n = f"{mn:.5g} [{q1n:.5g}, {q3n:.5g}] ({len(vals_n)})"
            print(f"    {name:<12} {side_b:<38} {side_n:<38} {unit:<6} {delta:+.1%}{mark}")

    print("per-layer self time, traced runs: base s -> new s (delta, share of base)")
    st_b, st_n = self_times(base), self_times(new)
    for workload in sorted(set(st_b) & set(st_n)):
        print(f"  {workload}")
        layers_b, layers_n = st_b[workload], st_n[workload]
        for name in sorted(set(layers_b) | set(layers_n), key=lambda k: -layers_b.get(k, 0.0)):
            b, n = layers_b.get(name, 0.0), layers_n.get(name, 0.0)
            share = f"{(n - b) / b:+.1%} of {b:.4g} s" if b else "no base"
            print(f"    {name:<34} {b:>10.4f} -> {n:>10.4f}  {n - b:+.4f} s ({share})")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0
