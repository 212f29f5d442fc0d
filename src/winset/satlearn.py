"""Exact learner: encode "an n-state DFA consistent with the sample exists"
as CNF clauses, solve for the sizes n of one schedule (see `learn`),
extract the model DFA.  The final DFA is minimal: every size below it is
refuted by an UNSAT φ_n.

Variable families (all housed in a VarBook, one per size n):

    d_{p,a,q}       transition p --a--> q is chosen
    f_q             state q is accepting
    t, p, m         the BFS symmetry-breaking predicates (below)
    x_{u,q}         the run on prefix u can sit in q (u in Pref(W), where
                    W = Pos ∪ Neg ∪ antecedents)
    y^i_{q,q'}      joint reachability with the i-th universal consequent
                    automaton (one-directional: reachable implies set)
    z^i_{q,q',l}    exact joint reachability in l steps with the i-th
                    existential consequent A, l ≤ k, where k = n·|Q_A| − 1,
                    or for a finite L(A) the least of that and the length
                    of its longest word (0 when L(A) is empty).  Any word
                    in L(B) ∩ L(A) is witnessed by one of length ≤ k: a
                    shortest one has at most n·|Q_A| − 1 letters (pigeonhole
                    on the product), and every word of a finite L(A) is at
                    most its longest, whether or not A is trimmed

All four constraint families share the one x-universe, so a word's run is
encoded once no matter how many sample items mention it.  Each constraint
is the clause it stands for (Heule & Verwer, ICGI 2010; Neider, ATVA 2012),
with gate variables only where a clause would otherwise need a conjunction:

    acc_u           one per antecedent u, shared by its universal and
                    existential items: one clause [acc_u, -x_{u,q}, -f_q]
                    per state q; a universal item then adds [-acc_u, -y, f]
                    per (state, accepting consequent state) pair
    pair gates      one per pair (a, b), implying a ∧ b, memoized: a support
                    clause lists z_{q,q',l}'s predecessor pairs (d, z_{l-1}),
                    a witness clause lists acc_u's accepting pairs (z, f)

The x-blocks also carry what `sample.distinct_pairs` settles from the
sample alone: pairs of prefixes u, v that every consistent DFA runs to
different states (Heule & Verwer's conflict edges, found through the
implications too).  Each pair gets the clause [-x_{u,q}, -x_{v,q}] for
every state q.  These clauses hold in every model, so they break no
symmetry; they hand the solver the pigeonhole core that it would otherwise
derive through the transitions once per numbering of the states.

A book lives as long as its sample grows, and its numbering only appends.
The d-, f-, t-, p- and m-blocks and the empty prefix's x-block are
numbered when the book is made, with the clauses over them alone.  Then
`VarBook.extend` encodes the sample's items, each once: it numbers the
x-block of each prefix the item brings in (with its at-most-one clauses and
its one run step from its parent), then the item's y- or z-block and its
gates, and appends the item's clauses; last come the clauses of the
distinct pairs not encoded yet (a grown sample keeps every pair of the one
it grew from).  The learner keeps one live book, at the size it is
solving, so each iteration's φ_n is the last one plus the new items'
clauses, solved on by the same live solver (see `prop`).

The BFS symmetry-breaking predicates of Ulyantsev, Zakirzyanov & Shalyto
(LATA 2015) are ordinary clauses of φ_n, over the d-variables and three
families of their own:

    t_{i,j}         (i < j) some transition i -> j is chosen
    p_{j,i}         (i < j) i is j's BFS parent, the least state with a
                    transition into j
    m_{a,i,j}       (i < j) a is the least symbol on the transitions i -> j

They hold for exactly one numbering of each DFA whose states are all
reachable: breadth-first from state 0, each state's symbols in alphabet
order.  They keep φ_n's satisfiability for every n, not only the minimal
one.  Take a consistent DFA with at most n states and cut it to its
reachable part, which accepts the same language.  While that part has
k < n states, some transition lies off its BFS tree (a non-empty alphabet
gives k·|Σ| ≥ k transitions against k − 1 tree edges); pointing it at a
fresh copy of its target adds a reachable state and keeps the language.
The BFS relabelling of the padded n-state DFA satisfies the predicates,
so φ_n is satisfiable with them exactly when it is without them.  Every
predicate clause mentions a t, p or m variable (`VarBook.symmetry_vars`),
so the plain φ_n is the clause list without those.
"""

import itertools
import time
from dataclasses import replace
from functools import partial

from . import teacher
from .automata import Dfa
from .errors import (
    CapExceededError,
    InfiniteBranchingError,
    InternalConsistencyError,
    check_deadline,
)
from .learning import LearnOptions, run_cegis
from .prop import CnfInstance, solve_checked
from .rpni import learn_rpni
from .sample import check_contradiction, distinct_pairs, finite_words


class VarBook:
    """Dense, append-only variable numbering of one φ_n and its CnfInstance
    `cnf`; ids start at 1.  See the module docstring for the order."""

    def __init__(self, alphabet, n):
        self.alphabet = alphabet
        self.n = n
        self.nsym = len(alphabet)
        self._f0 = n * self.nsym * n
        self.cnf = CnfInstance(self._f0 + n)
        self.dt = [[[self.d(p, a, q) for q in range(n)] for a in range(self.nsym)]
                   for p in range(n)]  # [p][a][q] -> d(p, a, q)
        # the negated d literals, made once: the clauses over -d share these
        # int objects instead of holding one each
        self.not_dt = [[[-d for d in ds] for ds in row] for row in self.dt]
        self._pref = {}  # prefix -> offset of its x-block, in numbering order
        self._y = []  # per universal item: (offset, |Q_A|)
        self._z = []  # per existential item: (offset, |Q_A|, k)
        self.gates = {}  # gate key -> its variable
        self.done = {kind: () for kind in _ENCODERS}  # the items encoded
        self.apart = set()  # the distinct pairs encoded
        clauses = self.cnf.clauses
        clauses += build_dfa_constraints(self)
        top = self.var_count
        clauses += build_symmetry(self)
        self.symmetry_vars = range(top + 1, self.var_count + 1)
        clauses += build_run_constraints(self, ())

    @property
    def var_count(self):
        return self.cnf.var_count

    @property
    def prefixes(self):
        return list(self._pref)

    def _block(self, size):
        """Number `size` fresh variables; the offset of the first."""
        offset = self.cnf.var_count
        self.cnf.var_count += size
        return offset

    def new_var(self):
        return self._block(1) + 1

    def d(self, p, a, q):
        return 1 + (p * self.nsym + a) * self.n + q

    def f(self, q):
        return 1 + self._f0 + q

    def x(self, u, q):
        return 1 + self._pref[u] + q

    def y(self, i, q, qa):
        offset, na = self._y[i]
        return 1 + offset + q * na + qa

    def z(self, i, q, qa, l):
        offset, na, _k = self._z[i]
        return 1 + offset + (l * self.n + q) * na + qa

    def k(self, i):
        return self._z[i][2]

    def z_table(self, i):
        """[l][q][qa] -> z(i, q, qa, l)."""
        _offset, na, k = self._z[i]
        return [[[self.z(i, q, qa, l) for qa in range(na)] for q in range(self.n)]
                for l in range(k + 1)]

    def extend(self, sample, deadline=None):
        """Append to `cnf` the clauses of the items of `sample` that the book
        has not encoded yet, then those of its distinct pairs not encoded
        yet.  Each of the sample's item lists must extend the one of the
        last call, as a learner's growing sample does.  The deadline is
        read before each item: past it, SolveTimeout, and the next call
        goes on from that item."""
        clauses = self.cnf.clauses
        for kind, encode in _ENCODERS.items():
            items, done = getattr(sample, kind), self.done[kind]
            if items[:len(done)] != done:
                raise ValueError(f"the sample's {kind} items do not extend the encoded ones")
            for i in range(len(done), len(items)):
                check_deadline(deadline, "encoding")
                clauses += encode(self, items[i])
                self.done[kind] = items[:i + 1]
        new = distinct_pairs(sample) - self.apart
        for u, v in sorted(new):
            xu, xv = self._pref[u], self._pref[v]
            clauses += [[-1 - xu - q, -1 - xv - q] for q in range(self.n)]
        self.apart |= new


def build_dfa_constraints(book):
    """Determinism (pairwise exclusion) and totality of the d-variables."""
    clauses = []
    for row in book.dt:
        for ds in row:
            clauses += _at_most_one(ds)
            clauses.append(ds[:])  # a copy: the solver may reorder a clause in place
    return clauses


def _at_most_one(lits):
    """Pairwise exclusion, once per unordered pair."""
    neg = [-a for a in lits]
    return [[a, b] for i, a in enumerate(neg) for b in neg[i + 1:]]


def build_run_constraints(book, u):
    """Number the x-blocks of u's prefixes that have none yet, each with
    its at-most-one clauses and its run step from its parent along a chosen
    transition (for the empty prefix, the root x_{ε,0}); their clauses."""
    n, pref = book.n, book._pref
    known = len(u)
    while known >= 0 and u[:known] not in pref:
        known -= 1
    out = []
    for i in range(known + 1, len(u) + 1):
        offset = book._block(n)
        xs = list(range(offset + 1, offset + n + 1))
        if i == 0:
            out.append([xs[0]])
        else:
            parent = pref[u[:i - 1]]
            for p in range(n):
                not_x, not_d = -(parent + 1 + p), book.not_dt[p][u[i - 1]]
                for q in range(n):
                    out.append([not_x, not_d[q], xs[q]])
        out += _at_most_one(xs)
        pref[u[:i]] = offset
    return out


def build_word(book, u, sign):
    """u's run, ending in a state q with f_q (sign 1, a positive word) or
    with -f_q (sign -1, a negative one)."""
    out = build_run_constraints(book, u)
    out += [[-book.x(u, q), sign * book.f(q)] for q in range(book.n)]
    return out


def _accept_gate(book, u, out):
    """acc_u: implied by "the DFA accepts u"; defined in `out` on first use."""
    key = ("acc", u)
    g = book.gates.get(key)
    if g is None:
        g = book.gates[key] = book.new_var()
        out += [[g, -book.x(u, q), -book.f(q)] for q in range(book.n)]
    return g


def _pair_gates(book, pairs, out):
    """One memoized gate per pair (a, b), implying a ∧ b."""
    gates = book.gates
    lits = []
    for pair in pairs:
        h = gates.get(pair)
        if h is None:
            h = gates[pair] = book.new_var()
            not_h = -h
            out += [[not_h, pair[0]], [not_h, pair[1]]]
        lits.append(h)
    return lits


def build_uni(book, item):
    """A universal implication: if u is accepted, every word of the
    consequent automaton must be accepted; y over-approximates joint
    reachability."""
    u, a = item
    n = book.n
    out = build_run_constraints(book, u)
    i = len(book._y)
    book._y.append((book._block(n * a.state_count), a.state_count))
    y = [[book.y(i, q, qa) for qa in range(a.state_count)] for q in range(n)]
    out.append([y[0][a.initial]])
    for (pa, sym, qa) in a.transitions:
        for p in range(n):
            not_y, not_d = -y[p][pa], book.not_dt[p][sym]
            for q in range(n):
                if p == q and pa == qa:
                    continue  # y → y: a tautology
                out.append([not_y, not_d[q], y[q][qa]])
    if a.accepting:
        acc = _accept_gate(book, u, out)
        out += [[-acc, -y[q][qa], book.f(q)] for q in range(n) for qa in sorted(a.accepting)]
    return out


def build_ex(book, item):
    """An existential implication: if u is accepted, the DFA must accept
    some consequent word; z is exact layered joint reachability up to
    length k."""
    u, a = item
    n = book.n
    out = build_run_constraints(book, u)
    na = a.state_count
    k = n * na - 1
    words = finite_words(a)
    if words is not None:
        k = min(k, max(map(len, words), default=0))
    i = len(book._z)
    book._z.append((book._block(n * na * (k + 1)), na, k))
    dt = book.dt
    z = book.z_table(i)
    for q in range(n):
        for qa in range(na):
            lit = z[0][q][qa]
            out.append([lit if (q == 0 and qa == a.initial) else -lit])
    for zl, znext in zip(z, z[1:]):
        for (pa, sym, qa) in a.transitions:
            for p in range(n):
                not_z, not_d = -zl[p][pa], book.not_dt[p][sym]
                for q in range(n):
                    out.append([not_z, not_d[q], znext[q][qa]])
    into = {}
    for (pa, sym, qa) in a.transitions:
        into.setdefault(qa, []).append((pa, sym))
    for zprev, zl in zip(z, z[1:]):
        for q in range(n):
            for qa in range(na):
                support = [
                    (dt[p][sym][q], zprev[p][pa]) for (pa, sym) in into.get(qa, ()) for p in range(n)
                ]
                out.append([-zl[q][qa]] + _pair_gates(book, support, out))
    witness = [
        (zl[q][qa], book.f(q)) for zl in z for q in range(n) for qa in sorted(a.accepting)
    ]
    acc = _accept_gate(book, u, out)
    out.append([-acc] + _pair_gates(book, witness, out))
    return out


# Sample item lists in the order `VarBook.extend` encodes them.
_ENCODERS = {"pos": partial(build_word, sign=1), "neg": partial(build_word, sign=-1),
             "uni": build_uni, "ex": build_ex}


def build_symmetry(book):
    """The BFS predicates over the d-variables, rooted at state 0: they hold
    exactly when every state is reachable and the numbering is
    breadth-first.  Numbers the t, p and m variables (see the module
    docstring) in the book, in that order; returns the clauses."""
    n, nsym = book.n, book.nsym
    dt = book.dt
    ids = itertools.count(book.var_count + 1)
    t = {(i, j): next(ids) for i in range(n) for j in range(i + 1, n)}
    p = {(j, i): next(ids) for j in range(1, n) for i in range(j)}
    m = {(a, i, j): next(ids) for (i, j) in t for a in range(nsym)}
    book._block(len(t) + len(p) + len(m))
    out = []
    for (i, j), tij in t.items():
        ds = [dt[i][a][j] for a in range(nsym)]
        out.append([-tij] + ds)
        out += [[-d, tij] for d in ds]
    for (j, i), pji in p.items():
        earlier = [t[k, j] for k in range(i)]
        out.append([-pji, t[i, j]])
        out += [[-pji, -tk] for tk in earlier]
        out.append([pji, -t[i, j]] + earlier)
    for j in range(1, n):
        out.append([p[j, i] for i in range(j)])
    # parents never decrease along the numbering
    for j in range(1, n - 1):
        for i in range(j):
            out += [[-p[j, i], -p[j + 1, k]] for k in range(i)]
    for (a, i, j), maij in m.items():
        earlier = [dt[i][b][j] for b in range(a)]
        out.append([-maij, dt[i][a][j]])
        out += [[-maij, -d] for d in earlier]
        out.append([maij, -dt[i][a][j]] + earlier)
    # siblings are numbered in the order of their least symbols
    for j in range(1, n - 1):
        for i in range(j):
            for a in range(nsym):
                for b in range(a + 1, nsym):
                    out.append([-p[j, i], -p[j + 1, i], -m[a, i, j + 1], -m[b, i, j]])
    return out


def extract_dfa(model, book):
    """Definition-5 readout: delta from d-variables, accepting from f."""
    n = book.n
    delta = []
    for p in range(n):
        row = []
        for a in range(book.nsym):
            hits = [q for q in range(n) if model.get(book.d(p, a, q))]
            if len(hits) != 1:
                raise InternalConsistencyError(
                    f"model picks {len(hits)} targets for delta({p},{a})"
                )
            row.append(hits[0])
        delta.append(tuple(row))
    accepting = frozenset(q for q in range(n) if model.get(book.f(q)))
    return Dfa(book.alphabet, n, tuple(delta), accepting)


def minimal_consistent_dfa(sample, n_cap=LearnOptions.max_states, solver=None, deadline=None,
                           books=None):
    """Smallest consistent DFA of at least the least size in `books` (1
    when there is none) and at most `n_cap` states, by solving φ_n for
    n = that size, that size + 1, ... until satisfiable; CapExceededError
    when φ_{n_cap} is UNSAT too.  It is the smallest of all only when every
    size below the first is refuted.

    `books` (n -> VarBook, kept by the caller) carries the one live φ_n,
    with its solver, from one call to the next while the sample only
    grows.  The scan then starts at its size, and φ_n gets only the new
    items' clauses.  A size found UNSAT is dropped, since more items keep
    it UNSAT, before the next size is encoded: `books` is a dict that this
    call empties, not a book it returns, so the old φ_n is freed first.  A
    plugged-in solver's UNSAT is re-proved first (`prop.solve_checked`); a
    model there raises ExternalSolverError.
    """
    books = {} if books is None else books
    n = min(books, default=1)
    while n <= n_cap:
        book = books.get(n)
        if book is None:
            book = books[n] = VarBook(sample.alphabet, n)
        book.extend(sample, deadline)
        model = solve_checked(solver, book.cnf, deadline, f"size-{n}")
        if model is not None:
            return extract_dfa(model, book)
        del books[n]
        n += 1
    raise CapExceededError(n_cap)


# The share of the timeout that the rpni phase of `learn` may take.
RPNI_SHARE = 0.25


def learn(game, opts=None):
    """CEGIS with the exact learner; the final DFA is minimal, the
    conjectures before it need not be.

    `learn_rpni` runs first, on the same compiled game, for RPNI_SHARE of
    the timeout.  A winning set W that it finds bounds the minimal size
    from above by hi = |W|, and its sample is the first one here: every
    item holds for every winning set, so none refutes the minimal size.
    Then one size schedule runs, with lo the least size not refuted.  While
    hi is known, each conjecture solves φ_n at n = hi − 1 alone (at the cap
    when that is lower); otherwise it scans up from n = lo.  A model the
    teacher accepts becomes W, and hi its size.  An UNSAT φ_n refutes every
    size up to n, so lo = n + 1.  The run ends with W once lo ≥ hi, and as
    `cap-exceeded` once lo passes `opts.max_states`.  When rpni runs out of
    its share, hi stays unknown and the scan starts at 1 on rpni's sample;
    after InfiniteBranchingError it starts on an empty sample.
    """
    opts = opts or LearnOptions()
    cap = opts.max_states
    start = time.monotonic()
    game = teacher.compile_game(game)  # once, for both learners
    try:
        res = learn_rpni(game, replace(opts, timeout=opts.timeout * RPNI_SHARE))
    except InfiniteBranchingError:
        res = None
    winning = res.dfa if res is not None and res.outcome == "solved" else None
    lo = 1
    books = {}  # the one live φ_n, at the size being solved, W known or not

    def conjecture(s, solver, deadline):
        nonlocal lo
        check_contradiction(s, solver, deadline)  # raises on a contradictory sample
        if winning is None:
            top = cap
        else:
            top = min(winning.state_count - 1, cap)
            if top not in books:
                books.clear()
                books[top] = VarBook(s.alphabet, top)
        try:
            d = minimal_consistent_dfa(s, n_cap=top, solver=solver, deadline=deadline, books=books)
        except CapExceededError:
            lo = top + 1
            raise
        if winning is None:
            lo = d.state_count  # the scan refuted every size below it
        return d

    while lo <= cap and (winning is None or lo < winning.state_count):
        res = run_cegis(game, conjecture, "sat", opts, prior=res, start=start)
        if res.outcome == "solved":
            winning = res.dfa
        elif res.outcome != "cap-exceeded":
            return res
    done = lo <= cap
    return replace(res, learner="sat", outcome="solved" if done else "cap-exceeded",
                   dfa=winning if done else None, wall_time=time.monotonic() - start)
