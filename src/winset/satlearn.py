"""Exact learner: encode "an n-state DFA consistent with the sample exists"
as CNF clauses, solve for increasing n, extract the model DFA.

Variable families (all housed in a VarBook, one per (sample, n) build):

    d_{p,a,q}       transition p --a--> q is chosen
    f_q             state q is accepting
    x_{u,q}         the run on prefix u can sit in q (u in Pref(W), where
                    W = Pos ∪ Neg ∪ antecedents)
    y^i_{q,q'}      joint reachability with the i-th universal consequent
                    automaton (one-directional: reachable implies set)
    z^i_{q,q',l}    exact joint reachability in l steps with the i-th
                    existential consequent, l ≤ k = n·|Q_A| − 1; any word in
                    the intersection is witnessed by one of length ≤ k

All four constraint families share the one x-universe, so a word's run is
encoded once no matter how many sample items mention it.  Almost every
constraint is a clause as it stands (Heule & Verwer, ICGI 2010; Neider,
ATVA 2012).  The rest go through gate variables, numbered after the blocks
in order of first use, each implied by (or implying) what it stands for:

    acc_u           one per antecedent u, implied by "the DFA accepts u",
                    shared by the universal and existential items on u
    support gates   z_{q,q',l} implies some predecessor pair (d, z_{l-1});
                    one gate per pair, one per disjunction, both memoized
    witness gates   acc_u implies some accepting z: the same gate shapes
    universal gates acc_u implies a gate that implies every y → f clause

The clause order and gate numbering are fixed, so the solver's search, and
with it every model, is reproducible.

`build_formula` also attaches, as the CNF's optional symmetry block, the
BFS symmetry-breaking predicates of Ulyantsev, Zakirzyanov & Shalyto (LATA
2015) over the d-variables, in variables numbered above all of the above:

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
so φ_n plus the block is UNSAT only when φ_n is.  `prop.solve_internal`
uses the block only to refute: the model always comes from the plain
search on φ_n, so conjectures do not depend on it.
"""

import itertools

from .automata import Dfa, shortlex_key
from .errors import CapExceededError, InternalConsistencyError
from .learning import LearnOptions, run_cegis
from .prop import CnfInstance, solve_internal


class VarBook:
    """Dense, stable variable numbering for one encoding; ids start at 1.

    Block layout: d-block, f-block, x-block, then per-implication y/z blocks.
    Gate variables are appended above the blocks by `new_var` as the
    encoders first use them, so `var_count` grows while clauses are emitted.
    """

    def __init__(self, sample, n):
        self.sample = sample
        self.n = n
        self.alphabet = sample.alphabet
        self.nsym = len(sample.alphabet)
        words = set(sample.pos) | set(sample.neg)
        words.update(u for (u, _a) in sample.ex)
        words.update(u for (u, _a) in sample.uni)
        prefixes = {()}
        for w in words:
            for i in range(len(w) + 1):
                prefixes.add(w[:i])
        self.prefixes = tuple(sorted(prefixes, key=shortlex_key))
        self._pref = {u: i for i, u in enumerate(self.prefixes)}
        self._d0 = 0
        self._f0 = self._d0 + n * self.nsym * n
        self._x0 = self._f0 + n
        cursor = self._x0 + len(self.prefixes) * n
        self._y0 = []
        for (_u, a) in sample.uni:
            self._y0.append(cursor)
            cursor += n * a.state_count
        self._z0 = []
        self._zk = []
        for (_u, a) in sample.ex:
            k = n * a.state_count - 1
            self._z0.append(cursor)
            self._zk.append(k)
            cursor += n * a.state_count * (k + 1)
        self.var_count = cursor
        self.gates = {}  # gate key -> its variable

    def d(self, p, a, q):
        return 1 + self._d0 + (p * self.nsym + a) * self.n + q

    def f(self, q):
        return 1 + self._f0 + q

    def x(self, u, q):
        return 1 + self._x0 + self._pref[u] * self.n + q

    def y(self, i, q, qa):
        na = self.sample.uni[i][1].state_count
        return 1 + self._y0[i] + q * na + qa

    def z(self, i, q, qa, l):
        a = self.sample.ex[i][1]
        na = a.state_count
        return 1 + self._z0[i] + (l * self.n + q) * na + qa

    def k(self, i):
        return self._zk[i]

    def d_table(self):
        """[p][a][q] -> d(p, a, q), for the encoders' inner loops."""
        r = range(self.n)
        return [[[self.d(p, a, q) for q in r] for a in range(self.nsym)] for p in r]

    def z_table(self, i):
        """[l][q][qa] -> z(i, q, qa, l)."""
        na = self.sample.ex[i][1].state_count
        return [[[self.z(i, q, qa, l) for qa in range(na)] for q in range(self.n)]
                for l in range(self.k(i) + 1)]

    def new_var(self):
        self.var_count += 1
        return self.var_count


def build_dfa_constraints(book):
    """Determinism (pairwise exclusion) and totality of the d-variables."""
    clauses = []
    for row in book.d_table():
        for ds in row:
            clauses += _at_most_one(ds)
            clauses.append(ds)
    return clauses


def _at_most_one(lits):
    """Pairwise exclusion, once per ordered pair."""
    return [[-a, -b] for a in lits for b in lits if a != b]


def build_run_constraints(book):
    """x-variables track the run: rooted at (ε, q0), at most one state per
    prefix, and propagated along chosen transitions."""
    n = book.n
    xs = [[book.x(u, q) for q in range(n)] for u in book.prefixes]
    clauses = [[xs[0][0]]]
    for xu in xs:
        clauses += _at_most_one(xu)
    dt = book.d_table()
    for u, xu in zip(book.prefixes, xs):
        for a in range(book.nsym):
            ua = book._pref.get(u + (a,))
            if ua is None:
                continue
            xua = xs[ua]
            for p in range(n):
                dpa = dt[p][a]
                for q in range(n):
                    clauses.append([-xu[p], -dpa[q], xua[q]])
    return clauses


def build_pos(book):
    return [[-book.x(u, q), book.f(q)] for u in book.sample.pos for q in range(book.n)]


def build_neg(book):
    return [[-book.x(u, q), -book.f(q)] for u in book.sample.neg for q in range(book.n)]


def _accept_gate(book, u, out):
    """acc_u: implied by "the DFA accepts u"; defined in `out` on first use."""
    key = ("acc", u)
    g = book.gates.get(key)
    if g is None:
        g = book.gates[key] = book.new_var()
        if book.n == 1:
            out.append([g, -book.x(u, 0), -book.f(0)])
        else:
            for q in range(book.n):
                h = book.new_var()  # implied by "the run on u ends in accepting q"
                out.append([h, -book.x(u, q), -book.f(q)])
                out.append([g, -h])
    return g


def _some_pair(book, pairs, out):
    """[] when `pairs` is empty, else [g] with g implying a ∧ b for some
    (a, b) in `pairs`: the pair's own gate, or for two or more pairs a
    disjunction gate over theirs.  Every gate is memoized."""
    if len(pairs) < 2:
        return _pair_gates(book, pairs, out)
    key = tuple(pairs)
    g = book.gates.get(key)
    if g is None:
        g = book.gates[key] = book.new_var()  # numbered before its pair gates
        out.append([-g] + _pair_gates(book, pairs, out))
    return [g]


def _pair_gates(book, pairs, out):
    """One memoized gate per pair (a, b), implying a ∧ b."""
    gates = book.gates
    lits = []
    for pair in pairs:
        h = gates.get(pair)
        if h is None:
            h = gates[pair] = book.new_var()
            out.append([-h, pair[0]])
            out.append([-h, pair[1]])
        lits.append(h)
    return lits


def build_uni(book):
    """Universal implications: if u is accepted, every word of the consequent
    automaton must be accepted; y over-approximates joint reachability."""
    n = book.n
    out = []
    dt = book.d_table()
    for i, (u, a) in enumerate(book.sample.uni):
        y = [[book.y(i, q, qa) for qa in range(a.state_count)] for q in range(n)]
        out.append([y[0][a.initial]])
        for (pa, sym, qa) in a.transitions:
            for p in range(n):
                yp, dps = y[p][pa], dt[p][sym]
                for q in range(n):
                    if p == q and pa == qa:
                        continue  # y → y: a tautology
                    out.append([-yp, -dps[q], y[q][qa]])
        rhs = [(y[q][qa], book.f(q)) for q in range(n) for qa in sorted(a.accepting)]
        if not rhs:
            continue  # nothing to accept
        acc = _accept_gate(book, u, out)
        g = book.new_var()  # implies y → f for every pair
        if len(rhs) == 1:
            out.append([-g, -rhs[0][0], rhs[0][1]])
        else:
            for (yq, fq) in rhs:
                h = book.new_var()
                out.append([-h, -yq, fq])
                out.append([-g, h])
        out.append([-acc, g])
    return out


def build_ex(book):
    """Existential implications: if u is accepted, the DFA must accept some
    consequent word; z is exact layered joint reachability up to length k."""
    n = book.n
    out = []
    dt = book.d_table()
    for i, (u, a) in enumerate(book.sample.ex):
        na = a.state_count
        z = book.z_table(i)
        for q in range(n):
            for qa in range(na):
                lit = z[0][q][qa]
                out.append([lit if (q == 0 and qa == a.initial) else -lit])
        for zl, znext in zip(z, z[1:]):
            for (pa, sym, qa) in a.transitions:
                for p in range(n):
                    zp, dps = zl[p][pa], dt[p][sym]
                    for q in range(n):
                        out.append([-zp, -dps[q], znext[q][qa]])
        into = {}
        for (pa, sym, qa) in a.transitions:
            into.setdefault(qa, []).append((pa, sym))
        for zprev, zl in zip(z, z[1:]):
            for q in range(n):
                for qa in range(na):
                    support = [
                        (dt[p][sym][q], zprev[p][pa]) for (pa, sym) in into.get(qa, ()) for p in range(n)
                    ]
                    out.append([-zl[q][qa]] + _some_pair(book, support, out))
        witness = [
            (zl[q][qa], book.f(q)) for zl in z for q in range(n) for qa in sorted(a.accepting)
        ]
        acc = _accept_gate(book, u, out)
        out.append([-acc] + _some_pair(book, witness, out))
    return out


def build_symmetry(book):
    """The BFS predicates over the d-variables, rooted at state 0, as a
    CnfInstance: they hold exactly when every state is reachable and the
    numbering is breadth-first.  The t, p and m variables (see the module
    docstring) are numbered from book.var_count + 1 on, in that order; the
    book itself is left as it is."""
    n, nsym = book.n, book.nsym
    dt = book.d_table()
    ids = itertools.count(book.var_count + 1)
    t = {(i, j): next(ids) for i in range(n) for j in range(i + 1, n)}
    p = {(j, i): next(ids) for j in range(1, n) for i in range(j)}
    m = {(a, i, j): next(ids) for (i, j) in t for a in range(nsym)}
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
    return CnfInstance(next(ids) - 1, out)


def build_formula(sample, n):
    """The CNF for φ_n over the sample, with the BFS predicates attached as
    its symmetry block; returns (CnfInstance, VarBook)."""
    book = VarBook(sample, n)
    clauses = build_dfa_constraints(book)
    for build in (build_run_constraints, build_pos, build_neg, build_uni, build_ex):
        clauses += build(book)
    return CnfInstance(book.var_count, clauses, build_symmetry(book)), book


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


def minimal_consistent_dfa(sample, n_cap=32, solver=None, deadline=None, n_start=1):
    """Smallest consistent DFA, by solving φ_1, φ_2, ... until satisfiable."""
    solver = solver or solve_internal
    for n in range(n_start, n_cap + 1):
        cnf, book = build_formula(sample, n)
        model = solver(cnf, deadline)
        if model is not None:
            return extract_dfa(model, book)
    raise CapExceededError(n_cap)


def learn(game, opts=None):
    """CEGIS with the exact learner; conjectures are minimal at every step."""
    opts = opts or LearnOptions()
    # A growing sample only adds constraints, so the least satisfiable size
    # never shrinks; resuming the scan there skips settled unsat checks.
    floor = [1]

    def conjecture(s, solver, deadline):
        d = minimal_consistent_dfa(
            s, n_cap=opts.max_states, solver=solver, deadline=deadline,
            n_start=floor[0],
        )
        floor[0] = d.state_count
        return d

    return run_cegis(game, conjecture, "sat", opts)
