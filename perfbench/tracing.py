"""Layer spans timed from outside the program.

A traced pass replaces the public functions of winset's modules with timing
wrappers for the length of the pass, and hands the learner a timed solver
through `LearnOptions.solver`.  Every module that imported a wrapped function
by name gets the wrapper too, because the wrapper replaces the attribute
wherever the original object is bound.  `Tracer.restore` puts every original
back and checks that no wrapper is left, so untraced passes never pay for
tracing.

Spans stay in memory as lists [name, start, end, parent, cell] and are
written out when the run ends.
"""

import sys
import time
from collections import defaultdict, namedtuple

# (module, attribute) -> span name.  Order matters only for readability.
LAYERS = (
    ("winset.sample", "check_contradiction", "sample.check_contradiction"),
    ("winset.sample", "is_consistent", "sample.is_consistent"),
    ("winset.satlearn", "minimal_consistent_dfa", "satlearn.minimal_consistent_dfa"),
    ("winset.satlearn", "build_formula", "satlearn.build_formula"),
    ("winset.prop", "to_cnf", "prop.to_cnf"),
    ("winset.rpni", "merge_learn", "rpni.merge_learn"),
    ("winset.rpni", "choose_positive_closure", "rpni.choose_positive_closure"),
    ("winset.teacher", "query", "teacher.query"),
    ("winset.teacher", "check_initial", "teacher.check_initial"),
    ("winset.teacher", "check_safe", "teacher.check_safe"),
    ("winset.teacher", "check_existential", "teacher.check_existential"),
    ("winset.teacher", "check_universal", "teacher.check_universal"),
    ("winset.automata", "difference", "automata.difference"),
    ("winset.automata", "shortest_word", "automata.shortest_word"),
    ("winset.relations", "image", "relations.image"),
)

# Per-layer metric -> (unit, which way is better).
METRICS = {
    "prop.solve_s": ("s", "lower"),
    "prop.solve_calls": ("count", "lower"),
    "prop.solve_sat_s": ("s", "lower"),
    "prop.solve_unsat_s": ("s", "lower"),
    "prop.solve_max_s": ("s", "lower"),
    "prop.chi_solve_s": ("s", "lower"),
    "prop.chi_calls": ("count", "lower"),
    "prop.to_cnf_s": ("s", "lower"),
    "prop.cnf_vars": ("count", "lower"),
    "prop.cnf_clauses": ("count", "lower"),
    "satlearn.build_formula_s": ("s", "lower"),
    "satlearn.encodings": ("count", "lower"),
    "sample.check_contradiction_s": ("s", "lower"),
    "sample.is_consistent_s": ("s", "lower"),
    "sample.is_consistent_calls": ("count", "lower"),
    "rpni.merge_learn_s": ("s", "lower"),
    "rpni.merge_self_s": ("s", "lower"),
    "rpni.merge_attempts": ("count", "lower"),
    "rpni.merge_accept_ratio": ("ratio", "higher"),
    "teacher.query_s": ("s", "lower"),
    "teacher.queries": ("count", "lower"),
    "teacher.check_initial_s": ("s", "lower"),
    "teacher.check_safe_s": ("s", "lower"),
    "teacher.check_existential_s": ("s", "lower"),
    "teacher.check_universal_s": ("s", "lower"),
    "automata.difference_s": ("s", "lower"),
    "automata.shortest_word_s": ("s", "lower"),
    "automata.product_states": ("count", "lower"),
    "relations.image_s": ("s", "lower"),
    "learning.iterations": ("count", "lower"),
    "learning.sample_items": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

# One solver call; kind is "chi" (contradiction check or rpni's positive
# closure) or "conjecture" (a sat-learner encoding of size n).
SatCall = namedtuple("SatCall", "cell iteration kind n vars clauses sat seconds")

SOLVE = "prop.solve"
CELL = "cell"
_CHI_CALLERS = ("sample.check_contradiction", "rpni.choose_positive_closure")


def _winset_modules():
    return [m for name, m in sys.modules.items() if name == "winset" or name.startswith("winset.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.cell = None
        self.iteration = 0
        self.n = None
        self.product_states = 0
        self.merges_tried = 0
        self.merges_kept = 0
        self.sat_rows = []  # SatCall per solver call
        self.missing = []
        self._saved = []

    # ----------------------------------------------------------- spans

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.cell])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _inside(self, names):
        return any(self.spans[i][0] in names for i in self.stack)

    def wrap(self, name, fn):
        """`fn` timed as span `name`; the counter hooks named after the span
        (`_before_<name>(args)`, `_after_<name>(result)`) run around it."""
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out

        wrapper.perfbench_original = fn
        return wrapper

    def run_cell(self, cell_name, fn, *args):
        """One learner call as the root span of its cell."""
        self.cell = cell_name
        self.iteration = 0
        self.n = None
        try:
            return self.wrap(CELL, fn)(*args)
        finally:
            self.cell = None

    # ------------------------------------------------------- counters

    def _before_sample_check_contradiction(self, args):
        self.iteration += 1  # run_cegis checks the sample once per iteration
        self.n = None

    def _before_satlearn_build_formula(self, args):
        self.n = args[1]

    def _before_automata_shortest_word(self, args):
        if self._inside(("teacher.query",)):
            self.product_states += args[0].state_count

    def _after_sample_is_consistent(self, out):
        if self._inside(("rpni.merge_learn",)):
            self.merges_tried += 1
            self.merges_kept += bool(out[0])  # merge_learn keeps every passing merge

    def solver(self, inner):
        """A (cnf, deadline) -> model backend that times and tags each call."""

        def solve(cnf, deadline=None):
            kind = "chi" if self._inside(_CHI_CALLERS) else "conjecture"
            idx = self._open(SOLVE)
            try:
                model = inner(cnf, deadline)
            finally:
                self._close(idx)
            start, end = self.spans[idx][1:3]
            self.sat_rows.append(SatCall(
                self.cell, self.iteration, kind, self.n if kind == "conjecture" else None,
                cnf.var_count, len(cnf.clauses), model is not None, end - start,
            ))
            return model

        return solve

    # ------------------------------------------------------ patching

    def install(self):
        modules = _winset_modules()
        for modname, attr, span in LAYERS:
            home = sys.modules.get(modname)
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(span, orig)
            for m in modules:
                if vars(m).get(attr) is orig:
                    self._saved.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def restore(self):
        """Put every original back; raise if any wrapper is still bound."""
        while self._saved:
            m, attr, orig = self._saved.pop()
            setattr(m, attr, orig)
        leftover = wrappers_bound()
        if leftover:
            raise RuntimeError(f"tracing wrappers left in place: {leftover}")


def wrappers_bound():
    """Names of winset module attributes that are still tracing wrappers."""
    return sorted(
        f"{m.__name__}.{attr}"
        for m in _winset_modules()
        for attr, value in vars(m).items()
        if hasattr(value, "perfbench_original")
    )


# ------------------------------------------------------------ aggregation

def layer_times(spans):
    """name -> {calls, total_s, self_s}; self time excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _cell in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _parent, _cell) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return dict(out)


def coverage(spans):
    """Share of the cell spans' time covered by their direct child spans."""
    cells = {i for i, s in enumerate(spans) if s[0] == CELL}
    total = sum(spans[i][2] - spans[i][1] for i in cells)
    covered = sum(s[2] - s[1] for s in spans if s[3] in cells)
    return covered / total if total else 0.0


def layer_metrics(tracer, results):
    """The per-layer metrics of one traced pass."""
    times = layer_times(tracer.spans)

    def total(name):
        return times.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    rows = tracer.sat_rows
    chi = [r for r in rows if r.kind == "chi"]
    return {
        "prop.solve_s": total(SOLVE),
        "prop.solve_calls": calls(SOLVE),
        "prop.solve_sat_s": sum(r.seconds for r in rows if r.sat),
        "prop.solve_unsat_s": sum(r.seconds for r in rows if not r.sat),
        "prop.solve_max_s": max((r.seconds for r in rows), default=0.0),
        "prop.chi_solve_s": sum(r.seconds for r in chi),
        "prop.chi_calls": len(chi),
        "prop.to_cnf_s": total("prop.to_cnf"),
        "prop.cnf_vars": sum(r.vars for r in rows),
        "prop.cnf_clauses": sum(r.clauses for r in rows),
        "satlearn.build_formula_s": total("satlearn.build_formula"),
        "satlearn.encodings": calls("satlearn.build_formula"),
        "sample.check_contradiction_s": total("sample.check_contradiction"),
        "sample.is_consistent_s": total("sample.is_consistent"),
        "sample.is_consistent_calls": calls("sample.is_consistent"),
        "rpni.merge_learn_s": total("rpni.merge_learn"),
        "rpni.merge_self_s": times.get("rpni.merge_learn", {}).get("self_s", 0.0),
        "rpni.merge_attempts": tracer.merges_tried,
        "rpni.merge_accept_ratio": tracer.merges_kept / tracer.merges_tried if tracer.merges_tried else 0.0,
        "teacher.query_s": total("teacher.query"),
        "teacher.queries": calls("teacher.query"),
        "teacher.check_initial_s": total("teacher.check_initial"),
        "teacher.check_safe_s": total("teacher.check_safe"),
        "teacher.check_existential_s": total("teacher.check_existential"),
        "teacher.check_universal_s": total("teacher.check_universal"),
        "automata.difference_s": total("automata.difference"),
        "automata.shortest_word_s": total("automata.shortest_word"),
        "automata.product_states": tracer.product_states,
        "relations.image_s": total("relations.image"),
        "learning.iterations": sum(r.iterations for r in results),
        "learning.sample_items": sum(sum(r.sample_sizes) for r in results),
        "trace.coverage": coverage(tracer.spans),
    }


def sat_table(rows):
    """Per (cell, kind, n): calls, SAT and UNSAT answers, seconds, largest CNF."""
    table = {}
    for r in rows:
        row = table.setdefault((r.cell, r.kind, r.n), {"calls": 0, "sat": 0, "unsat": 0, "seconds": 0.0,
                                                       "max_s": 0.0, "max_vars": 0, "max_clauses": 0})
        row["calls"] += 1
        row["sat" if r.sat else "unsat"] += 1
        row["seconds"] += r.seconds
        row["max_s"] = max(row["max_s"], r.seconds)
        row["max_vars"] = max(row["max_vars"], r.vars)
        row["max_clauses"] = max(row["max_clauses"], r.clauses)
    return [
        {"cell": cell, "kind": kind, "n": n, **row}
        for (cell, kind, n), row in sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] or 0))
    ]
