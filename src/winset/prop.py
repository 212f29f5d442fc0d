"""CNF instances and satisfiability backends.

A CNF is a variable count and a list of clauses, each a list of nonzero ints
(a negative int is a negated variable).  The encoders in `satlearn` and
`sample` emit their clauses directly, auxiliary gate variables included, so
nothing here rewrites formulas.  A backend is a callable
`(cnf, deadline) -> model | None`, where a model maps every variable
1..var_count to a bool.

The default backend is a small CDCL solver (two-watched literals, VSIDS,
first-UIP learning, phase saving, Luby restarts); it is fully deterministic
and takes clauses as they come: repeated literals, tautologies and duplicate
clauses cost time but never change the answer.  An external solver can be
plugged in through the DIMACS text format; every model it returns is checked
against the clauses, while its UNSAT verdict is taken on trust here
(`sample.check_contradiction` re-proves the one that would end a run as a
contradiction).

A CNF may carry an optional `symmetry` block: clauses over further
variables that are satisfiable together with the main clauses whenever the
main clauses are satisfiable alone, so UNSAT with the block proves UNSAT
without it.  The internal backend runs the plain search on the main clauses
first; a call that ends before its first restart never looks at the block.
After a restart the plain search alternates, one restart interval each,
with a second search on the main clauses plus the block, and the call ends
as soon as either search proves UNSAT.  A model always comes from the plain search, so the answers are
exactly those of the plain search alone.  The external backend ignores the
block.
"""

import heapq
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field

from .errors import ExternalSolverError, SolveTimeout


@dataclass
class CnfInstance:
    var_count: int
    clauses: list = field(default_factory=list)
    # Optional extra clauses (symmetry breaking) over further variables,
    # satisfiable together with `clauses` whenever `clauses` alone are; a
    # CnfInstance whose var_count also counts the further variables.
    symmetry: "CnfInstance | None" = None


def falsified_clause(cnf, model):
    """The first clause of `cnf` that `model` (var -> bool) leaves false, or None."""
    for clause in cnf.clauses:
        if not any(model.get(abs(l), False) == (l > 0) for l in clause):
            return clause
    return None


# ------------------------------------------------------------ CDCL solver

def _luby(i):
    """The reluctant-doubling sequence 1 1 2 1 1 2 4 ... at 0-based index i."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class _Cdcl:
    def __init__(self, cnf, deadline):
        self.nv = cnf.var_count
        self.deadline = deadline
        self.assign = [None] * (self.nv + 1)
        self.phase = [False] * (self.nv + 1)
        self.level = [0] * (self.nv + 1)
        self.reason = [None] * (self.nv + 1)
        self.activity = [0.0] * (self.nv + 1)
        self.act_inc = 1.0
        self.clauses = []
        self.watches = {}
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.heap = [(0.0, v) for v in range(1, self.nv + 1)]
        self.units = []
        self.ok = True
        for raw in cnf.clauses:
            if len(raw) > 1:
                self._attach(list(raw))  # a copy: watching reorders it
            elif raw:
                self.units.append(raw[0])
            else:
                self.ok = False
                return

    def _attach(self, lits):
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(ci)
        self.watches.setdefault(lits[1], []).append(ci)
        return ci

    def _value(self, lit):
        va = self.assign[abs(lit)]
        if va is None:
            return None
        return va if lit > 0 else not va

    def _enqueue(self, lit, reason):
        v = abs(lit)
        self.assign[v] = lit > 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        # hot loop: literal values computed inline on a locally-bound array
        trail = self.trail
        watches = self.watches
        clauses = self.clauses
        assign = self.assign
        level = self.level
        reason = self.reason
        level_now = len(self.trail_lim)
        while self.qhead < len(trail):
            falsified = -trail[self.qhead]
            self.qhead += 1
            wl = watches.get(falsified)
            if not wl:
                continue
            i = 0
            end = len(wl)
            while i < end:
                ci = wl[i]
                cl = clauses[ci]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                lit0 = cl[0]
                va = assign[lit0] if lit0 > 0 else assign[-lit0]
                first = va if (va is None or lit0 > 0) else not va
                if first is True:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    lj = cl[j]
                    vj = assign[lj] if lj > 0 else assign[-lj]
                    if vj is None or (vj if lj > 0 else not vj):
                        cl[1], cl[j] = cl[j], cl[1]
                        watches.setdefault(cl[1], []).append(ci)
                        end -= 1
                        wl[i] = wl[end]
                        wl.pop()
                        break
                else:
                    if first is False:
                        return ci
                    v = lit0 if lit0 > 0 else -lit0
                    assign[v] = lit0 > 0
                    level[v] = level_now
                    reason[v] = ci
                    trail.append(lit0)
                    i += 1
        return None

    def _bump(self, v):
        self.activity[v] += self.act_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nv + 1):
                self.activity[u] *= 1e-100
            self.act_inc *= 1e-100
            self.heap = [(-self.activity[u], u) for u in range(1, self.nv + 1)
                         if self.assign[u] is None]
            heapq.heapify(self.heap)
            return
        heapq.heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, ci):
        learned = []
        seen = [False] * (self.nv + 1)
        counter = 0
        confl = self.clauses[ci]
        p = None
        trail = self.trail
        level = self.level
        idx = len(trail) - 1
        cur = len(self.trail_lim)
        while True:
            for lit in confl:
                if p is not None and lit == p:
                    continue
                v = lit if lit > 0 else -lit
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] == cur:
                        counter += 1
                    else:
                        learned.append(lit)
            while True:
                p = trail[idx]
                idx -= 1
                pv = p if p > 0 else -p
                if seen[pv]:
                    break
            seen[pv] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.clauses[self.reason[pv]]
        learned.append(-p)
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[abs(l)] for l in learned[:-1])
        return learned, back

    def _backtrack(self, blevel):
        target = self.trail_lim[blevel]
        trail = self.trail
        phase = self.phase
        assign = self.assign
        activity = self.activity
        heap = self.heap
        push = heapq.heappush
        while len(trail) > target:
            lit = trail.pop()
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            assign[v] = None
            push(heap, (-activity[v], v))
        del self.trail_lim[blevel:]
        self.qhead = target

    def _pick(self):
        while self.heap:
            _act, v = heapq.heappop(self.heap)
            if self.assign[v] is None:
                return v
        for v in range(1, self.nv + 1):
            if self.assign[v] is None:
                return v
        return None

    def search(self):
        """The CDCL loop as a generator: it yields after each Luby restart and
        returns the model (var -> bool), or None when unsatisfiable."""
        if not self.ok:
            return None
        for lit in self.units:
            if self._value(lit) is False:
                return None
            if self._value(lit) is None:
                self._enqueue(lit, None)
        conflicts = 0
        restart_round = 0
        ceiling = 64 * _luby(restart_round)
        steps = 0
        while True:
            steps += 1
            if self.deadline is not None and steps % 256 == 0:
                if time.monotonic() > self.deadline:
                    raise SolveTimeout("satisfiability check hit the deadline")
            ci = self._propagate()
            if ci is not None:
                if not self.trail_lim:
                    return None
                learned, back = self._analyze(ci)
                self._backtrack(back)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    lits = [learned[-1]] + learned[:-1]
                    self._enqueue(lits[0], self._attach(lits))
                conflicts += 1
                self.act_inc *= 1.0 / 0.95
                if conflicts >= ceiling:
                    conflicts = 0
                    restart_round += 1
                    ceiling = 64 * _luby(restart_round)
                    if self.trail_lim:
                        self._backtrack(0)
                    yield
            else:
                v = self._pick()
                if v is None:
                    return {u: self.assign[u] for u in range(1, self.nv + 1)}
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, None)


_RESTART = object()


def _advance(search):
    """Run a `_Cdcl.search` up to its next restart: _RESTART, or its answer."""
    try:
        next(search)
    except StopIteration as done:
        return done.value
    return _RESTART


def solve_internal(cnf, deadline=None):
    """Model as dict var -> bool, or None when unsatisfiable.

    The model is always the plain search's on `cnf.clauses`.  Once that
    search restarts, a second search on the clauses plus `cnf.symmetry`
    takes turns with it, one restart interval each; its UNSAT ends the call.
    """
    plain = _Cdcl(cnf, deadline).search()
    answer = _advance(plain)
    helper = None
    if answer is _RESTART and cnf.symmetry is not None:
        both = CnfInstance(cnf.symmetry.var_count, cnf.clauses + cnf.symmetry.clauses)
        helper = _Cdcl(both, deadline).search()
    while answer is _RESTART:
        if helper is not None:
            verdict = _advance(helper)
            if verdict is None:
                return None
            if verdict is not _RESTART:
                helper = None  # satisfiable: the plain search finds its own model
        answer = _advance(plain)
    return answer


# ---------------------------------------------------------------- DIMACS

def to_dimacs(cnf):
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text):
    var_count = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header {line!r}")
            var_count = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if var_count is None:
        var_count = max((abs(l) for cl in clauses for l in cl), default=0)
    return CnfInstance(var_count, clauses)


def _parse_solver_output(text, var_count):
    # a line whose first token is `c` is a comment, whatever else it says
    lines = (line.split() for line in text.splitlines())
    tokens = [tok for toks in lines if toks[:1] != ["c"] for tok in toks]
    ints = []
    for tok in tokens:
        upper = tok.upper()
        if upper in ("UNSAT", "UNSATISFIABLE", "S", "V", "C"):
            if upper.startswith("UNSAT"):
                return None
            continue
        if upper in ("SAT", "SATISFIABLE"):
            continue
        try:
            lit = int(tok)
        except ValueError:
            raise ExternalSolverError(f"unexpected token {tok!r} in solver output") from None
        if lit == 0:
            break
        ints.append(lit)
    if not ints:
        raise ExternalSolverError("solver output contained no model and no UNSAT verdict")
    model = {v: False for v in range(1, var_count + 1)}
    for lit in ints:
        if abs(lit) <= var_count:
            model[abs(lit)] = lit > 0
    return model


def external_solver(command):
    """Backend that shells out: `command <file.cnf>`, DIMACS in, model out."""

    def run(cnf, deadline=None):
        budget = None
        if deadline is not None:
            budget = max(0.1, deadline - time.monotonic())
        fh = tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False)
        try:
            with fh:
                fh.write(to_dimacs(cnf))
            proc = subprocess.run(
                [command, fh.name], capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            raise SolveTimeout(f"external solver exceeded {budget:.1f}s") from None
        except OSError as e:
            raise ExternalSolverError(f"cannot run {command!r}: {e}") from None
        finally:
            os.unlink(fh.name)
        # exit codes follow no convention worth trusting; parse the output
        model = _parse_solver_output(proc.stdout, cnf.var_count)
        if model is not None:
            bad = falsified_clause(cnf, model)
            if bad is not None:
                raise ExternalSolverError(f"solver model falsifies the clause {bad}")
        return model

    return run


def make_solver(name):
    """ "internal" or "exec:<path>" -> callable (cnf, deadline) -> model | None."""
    if name == "internal":
        return solve_internal
    if name.startswith("exec:"):
        return external_solver(name[len("exec:"):])
    raise ValueError(f"unknown solver backend {name!r} (use internal or exec:<path>)")
