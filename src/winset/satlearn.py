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
    r_{q,s}         joint reachability with F, the safe set, in DFA state q
                    and F state s (one-directional, as y)

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

Every winning set lies inside F, so φ_n states that the DFA does too,
once, in F's reachability block (after Neider's implication encoding and
the one-way annotations of Finkbeiner & Schewe's bounded synthesis, STTT
2013): the unit r_{0,0}, [-r_{p,s}, -d_{p,a,q}, r_{q,δF(s,a)}] for every
p, s, a and q (but the tautologies p = q, s = δF(s,a)), and [-r_{q,s},
-f_q] for every s that F rejects.  F is the game's `CompiledGame.safe`,
the subset construction filled on demand; the book fills all its rows
and numbers r after them.  Sound: a DFA that accepts only words of F,
every winning set among them, satisfies the block with r set to its true
reachability, so no size that a winning set has is refuted.  And every
model stays inside F: r holds on every reachable pair, so no accepted
word ends in a state F rejects, and the teacher's check 2 passes it.  The
block has n²·|F|·|Σ| clauses; a book whose block would have more than
SAFE_BLOCK_BUDGET gets none (any subset of the block is sound), and then
check 2's counterexamples keep the DFA inside F as they did before.

The x-blocks also carry what `sample.distinct_pairs` settles from the
sample alone: pairs of prefixes u, v that every consistent DFA runs to
different states (Heule & Verwer's conflict edges, found through the
implications too).  Each pair gets the clause [-x_{u,q}, -x_{v,q}] for
every state q.  These clauses hold in every model, so they break no
symmetry; they hand the solver the pigeonhole core that it would otherwise
derive through the transitions once per numbering of the states.

A book lives as long as its sample grows, and its numbering only appends.
The d-, f-, t-, p- and m-blocks, the empty prefix's x-block and F's
r-block are numbered when the book is made, with the clauses over them
alone.  Then `VarBook.extend` encodes the sample's items, each once: it
numbers the x-block of each prefix the item brings in (with its
at-most-one clauses and its one run step from its parent), then the
item's y- or z-block and its gates, and appends the item's clauses;
last come the clauses of the distinct pairs not encoded yet (a grown
sample keeps every pair of the one it grew from).  The learner keeps one
live book, at the size it is solving, so each iteration's φ_n is the
last one plus the new items' clauses, solved on by the same live solver
(see `prop`).

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
so φ_n is satisfiable with them exactly when it is without them.
Padding keeps the language, so the padded DFA stays inside F when the
one it pads does.  Every predicate clause mentions a t, p or m variable
(`VarBook.symmetry_vars`), so the plain φ_n is the clause list without
those.
"""

import itertools
import time
from dataclasses import replace
from functools import partial

from . import teacher
from .automata import Dfa, accepts
from .errors import (
    CapExceededError,
    InfiniteBranchingError,
    InternalConsistencyError,
    check_deadline,
)
from .learning import LearnOptions, run_cegis
from .prop import CnfInstance, solve_checked
from .rpni import learn_rpni
from .sample import Sample, check_contradiction, distinct_pairs, extends, finite_words, since


class VarBook:
    """Dense, append-only variable numbering of one φ_n and its CnfInstance
    `cnf`; ids start at 1.  See the module docstring for the order.  With
    `safe` (F as a `Subsets`) the book carries F's reachability block when
    it fits SAFE_BLOCK_BUDGET; filling F's rows reads `deadline`."""

    def __init__(self, alphabet, n, safe=None, deadline=None):
        rows = None if safe is None else _safe_rows(safe, n * n * len(alphabet), deadline)
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
        self.done = Sample(alphabet)  # the items encoded
        self.apart = set()  # the distinct pairs encoded
        clauses = self.cnf.clauses
        clauses += build_dfa_constraints(self)
        top = self.var_count
        clauses += build_symmetry(self)
        self.symmetry_vars = range(top + 1, self.var_count + 1)
        clauses += build_run_constraints(self, ())
        if rows is not None:
            clauses += build_safe(self, rows, safe.rejecting)

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
        if not extends(sample, self.done):
            raise ValueError("the sample's items do not extend the encoded ones")
        clauses = self.cnf.clauses
        todo = since(sample, self.done)
        for kind, encode in _ENCODERS.items():
            for item in getattr(todo, kind):
                check_deadline(deadline, "encoding")
                clauses += encode(self, item)
                self.done = replace(self.done, **{kind: getattr(self.done, kind) + (item,)})
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


# The most clauses, n²·|F|·|Σ|, that F's reachability block of one VarBook
# may have; a book whose block would have more gets none, and check 2's
# counterexamples keep its DFAs inside F as before.  interval(1,5000) and
# interval(1,8000) at n = 6 fit (540k and 864k clauses); on a shared
# 2-vCPU machine the block took interval(1,8000) from 44 s to 9.6 s and
# its peak RSS from 1.11 to 1.29 GB.
SAFE_BLOCK_BUDGET = 1_000_000


def _safe_rows(safe, per_state, deadline):
    """Every row of F (a `Subsets`), filled in the order F's states were
    reached, each of which is reached from state 0; None as soon as F has
    more states than SAFE_BLOCK_BUDGET allows at `per_state` clauses each.
    The deadline is read every 256 rows."""
    delta, subsets = safe.delta, safe.subsets
    rows = []
    while len(rows) < len(subsets):
        if not len(rows) & 255:
            check_deadline(deadline, "encoding")
        if (len(rows) + 1) * per_state > SAFE_BLOCK_BUDGET:
            return None
        rows.append(delta[len(rows)])
    return rows


def build_safe(book, rows, rejecting):
    """F's reachability block over F's rows (F state s -> its successor per
    symbol): numbers r_{q,s}, returns the clauses r_{0,0}, r_{p,s} ∧
    d_{p,a,q} → r_{q,δF(s,a)} and ¬r_{q,s} ∨ ¬f_q for each s in
    `rejecting`, so every model accepts only words of F."""
    n, nf = book.n, len(rows)
    offset = book._block(n * nf)
    # lists, so the clauses share one int object per variable
    r = [list(range(offset + 1 + q * nf, offset + 1 + (q + 1) * nf)) for q in range(n)]
    out = [[r[0][0]]]
    for p in range(n):
        for s, row in enumerate(rows):
            not_r, not_dp = -r[p][s], book.not_dt[p]
            for a, t in enumerate(row):
                not_d = not_dp[a]
                for q in range(n):
                    if p == q and s == t:
                        continue  # r → r: a tautology
                    out.append([not_r, not_d[q], r[q][t]])
    out += [[-r[q][s], -book.f(q)] for s in range(nf) if s in rejecting for q in range(n)]
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
                           books=None, safe=None, n_min=1):
    """Smallest DFA consistent with `sample`, and accepting only words of
    F when `safe` (F as a `Subsets`) is given and its block fits
    SAFE_BLOCK_BUDGET, of at least the least size in `books` (`n_min` when
    there is none) and at most `n_cap` states, by solving φ_n for
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
    n = min(books, default=n_min)
    while n <= n_cap:
        book = books.get(n)
        if book is None:
            book = books[n] = VarBook(sample.alphabet, n, safe, deadline)
        book.extend(sample, deadline)
        model = solve_checked(solver, book.cnf, deadline, f"size-{n}")
        if model is not None:
            return extract_dfa(model, book)
        del books[n]
        n += 1
    raise CapExceededError(n_cap)


def _with_unsafe_words(s, safe):
    """`s` with the words of its word universe (positive words,
    antecedents and the words of finite consequents) that F rejects added
    to its negative ones: every winning set lies inside F."""
    words = set(s.pos)
    for u, a in s.ex + s.uni:
        words.add(u)
        words.update(finite_words(a) or ())
    unsafe = sorted(w for w in words.difference(s.neg) if not accepts(safe, w))
    return replace(s, neg=s.neg + tuple(unsafe))


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

    Every φ_n carries F's block, so check 2 finds no counterexample and the
    sample gains no unsafe word.  While hi is unknown, the contradiction
    check therefore counts the sample's words outside F as negative ones:
    without them, a game that Player 1 wins would scan every size up to
    the cap, each refuted by its F block alone.
    """
    opts = opts or LearnOptions()
    cap = opts.max_states
    start = time.monotonic()
    game = teacher.compile_game(game)  # once, for both learners
    try:
        res = learn_rpni(game, replace(opts, timeout=opts.timeout * RPNI_SHARE), inside_safe=False)
    except InfiniteBranchingError:
        res = None
    winning = res.dfa if res is not None and res.outcome == "solved" else None
    lo = 1
    books = {}  # the one live φ_n, at the size being solved, W known or not

    def conjecture(s, solver, deadline):
        nonlocal lo
        # raises on a contradictory sample; without a winning set, also on a
        # sample that no language inside F fits, which every φ_n refutes
        check_contradiction(s if winning is not None else _with_unsafe_words(s, game.safe),
                            solver, deadline)
        if winning is None:
            top = cap
        else:
            top = min(winning.state_count - 1, cap)
            if top not in books:
                books.clear()
        try:
            d = minimal_consistent_dfa(s, n_cap=top, solver=solver, deadline=deadline, books=books,
                                       safe=game.safe, n_min=1 if winning is None else top)
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
