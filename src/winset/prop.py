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
against the clauses, while its UNSAT verdict is taken on trust here (its
callers in `sample` and `satlearn` re-prove the ones they act on).

The internal solver is incremental.  It stays on the instance it solved,
and a later call on the same instance, after clauses were appended and
var_count raised, only loads what was appended.  It loads at level 0: the
solver backtracks there first, drops a new clause that a level-0 value
satisfies and leaves out its literals that one falsifies.  Learned
clauses, activities and saved phases carry over, and an instance once
proved UNSAT answers None at once.

Inside the CDCL solver, per-literal state lives in lists indexed by the
literal itself: `value[lit]` and `watches[lit]` have 2*var_count+1 slots,
and a negative literal -v falls in the upper half, so `value[-v]` is the
value of -v (an assignment writes both polarities; new variables are
slotted in between the halves).  A watch list holds the clause lists
themselves, and a clause that forces a literal is that literal's `reason`.
The decision heap keeps one live entry (-activity[v], v) for each
unassigned variable, plus stale entries of lower activity that are dropped
when popped; `queued[v]` says that v's live entry is in the heap, so
backtracking pushes only the variables whose live entry was popped.  A
decision therefore takes the unassigned variable with the highest
activity, ties going to the lowest index.
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
    # the internal solver left on these clauses by `solve_internal`
    solver: "_Cdcl | None" = field(default=None, init=False, repr=False, compare=False)


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
    def __init__(self):
        self.nv = self.loaded = 0  # variables, and clauses of the instance, taken in
        # indexed by literal: value[-v] (in the upper half) is the value of -v
        self.value = [None]
        self.watches = [[]]
        self.phase = [False]
        self.level = [0]
        self.reason = [None]  # the clause that forced v, or None
        self.activity = [0.0]
        self.act_inc = 1.0
        self.seen = [False]  # scratch for _analyze, all False between calls
        self.trail, self.trail_lim, self.qhead = [], [], 0
        # one live entry (-activity[v], v) per queued v, plus stale ones
        self.heap = []
        self.queued = [False]
        self.ok = True

    def _grow(self, nv):
        """Add variables up to nv, unassigned, each with a live heap entry."""
        old, extra = self.nv, nv - self.nv
        self.value[old + 1:old + 1] = [None] * (2 * extra)
        self.watches[old + 1:old + 1] = [[] for _ in range(2 * extra)]
        self.phase += [False] * extra
        self.level += [0] * extra
        self.reason += [None] * extra
        self.activity += [0.0] * extra
        self.seen += [False] * extra
        self.queued += [True] * extra
        # every entry there sorts below (0.0, v), so these keep it a heap
        self.heap += [(0.0, v) for v in range(old + 1, nv + 1)]
        self.nv = nv

    def _load(self, clauses):
        """Add clauses at level 0, simplified against its values."""
        value = self.value
        watches = self.watches
        for lits in clauses:
            if any(value[lit] is not None for lit in lits):
                if any(value[lit] for lit in lits):  # one is true
                    continue
                lits = [lit for lit in lits if value[lit] is None]
            else:
                lits = lits[:]  # the search reorders its own copy
            if len(lits) > 1:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif lits:
                self._enqueue(lits[0], None)
            else:
                self.ok = False
                return

    def solve(self, cnf, deadline):
        """Load the clauses appended to `cnf` since the last call and search
        on; the model (var -> bool), or None when unsatisfiable."""
        self.deadline = deadline
        if self.trail_lim:
            self._backtrack(0)
        if cnf.var_count > self.nv:
            self._grow(cnf.var_count)
        if self.ok:
            self._load(cnf.clauses[self.loaded:])
        self.loaded = len(cnf.clauses)
        return self._search() if self.ok else None

    def _enqueue(self, lit, reason):
        v = abs(lit)
        self.value[lit] = True
        self.value[-lit] = False
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        """The clause falsified by unit propagation, or None."""
        trail = self.trail
        watches = self.watches
        value = self.value
        level = self.level
        reason = self.reason
        level_now = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            wl = watches[falsified]
            i = 0
            end = len(wl)
            while i < end:
                cl = wl[i]
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                lit0 = cl[0]
                first = value[lit0]
                if first is True:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    lj = cl[j]
                    if value[lj] is not False:
                        cl[1], cl[j] = lj, cl[1]
                        watches[lj].append(cl)
                        end -= 1
                        wl[i] = wl[end]
                        wl.pop()
                        break
                else:
                    if first is False:
                        self.qhead = qhead
                        return cl
                    value[lit0] = True
                    value[-lit0] = False
                    v = lit0 if lit0 > 0 else -lit0
                    level[v] = level_now
                    reason[v] = cl
                    trail.append(lit0)
                    i += 1
        self.qhead = qhead
        return None

    def _bump(self, v):
        act = self.activity[v] = self.activity[v] + self.act_inc
        if act > 1e100:
            for u in range(1, self.nv + 1):
                self.activity[u] *= 1e-100
            self.act_inc *= 1e-100
            value = self.value
            self.queued = [False] + [value[u] is None for u in range(1, self.nv + 1)]
            self.heap = [(-self.activity[u], u) for u in range(1, self.nv + 1)
                         if value[u] is None]
            heapq.heapify(self.heap)
            return
        heapq.heappush(self.heap, (-act, v))
        self.queued[v] = True

    def _analyze(self, confl):
        learned = []
        seen = self.seen
        counter = 0
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
            confl = self.reason[pv]
        for lit in learned:
            seen[lit if lit > 0 else -lit] = False
        learned.append(-p)
        if len(learned) == 1:
            return learned, 0
        back = max(level[abs(l)] for l in learned[:-1])
        return learned, back

    def _backtrack(self, blevel):
        target = self.trail_lim[blevel]
        trail = self.trail
        phase = self.phase
        value = self.value
        activity = self.activity
        queued = self.queued
        heap = self.heap
        push = heapq.heappush
        for lit in trail[target:]:
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            value[lit] = value[-lit] = None
            if not queued[v]:
                push(heap, (-activity[v], v))
                queued[v] = True
        del trail[target:]
        del self.trail_lim[blevel:]
        self.qhead = target

    def _pick(self):
        """The unassigned variable of highest activity, ties to the lowest
        index, or None.  Every unassigned v has its live entry in the heap,
        which sorts before v's stale ones."""
        heap = self.heap
        activity = self.activity
        queued = self.queued
        value = self.value
        pop = heapq.heappop
        while heap:
            act, v = pop(heap)
            if act == -activity[v]:
                queued[v] = False
                if value[v] is None:
                    return v
        return None

    def _search(self):
        value = self.value
        watches = self.watches
        conflicts = 0
        restart_round = 0
        ceiling = 64 * _luby(restart_round)
        steps = 0
        while True:
            steps += 1
            if self.deadline is not None and steps % 256 == 0:
                if time.monotonic() > self.deadline:
                    raise SolveTimeout("satisfiability check hit the deadline")
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    self.ok = False
                    return None
                learned, back = self._analyze(confl)
                self._backtrack(back)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    lits = [learned[-1]] + learned[:-1]
                    watches[lits[0]].append(lits)
                    watches[lits[1]].append(lits)
                    self._enqueue(lits[0], lits)
                conflicts += 1
                self.act_inc *= 1.0 / 0.95
                if conflicts >= ceiling:
                    conflicts = 0
                    restart_round += 1
                    ceiling = 64 * _luby(restart_round)
                    if self.trail_lim:
                        self._backtrack(0)
            else:
                v = self._pick()
                if v is None:
                    return {u: value[u] for u in range(1, self.nv + 1)}
                self.trail_lim.append(len(self.trail))
                self._enqueue(v if self.phase[v] else -v, None)


def solve_internal(cnf, deadline=None):
    """Model as dict var -> bool, or None when unsatisfiable.

    The solver stays on `cnf`.  Called again after clauses were appended to
    `cnf.clauses` (and var_count raised to cover their variables), it adds
    only those and keeps what it learned; an instance that shrank gets a
    fresh solver.
    """
    solver = cnf.solver
    if solver is None or solver.loaded > len(cnf.clauses) or solver.nv > cnf.var_count:
        solver = cnf.solver = _Cdcl()
    return solver.solve(cnf, deadline)


# ---------------------------------------------------------------- DIMACS

def to_dimacs(cnf):
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for cl in cnf.clauses:
        lines.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(lines) + "\n"


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
