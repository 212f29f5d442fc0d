"""Brute-force reference implementations the test suite checks against.

Everything here trades speed for obviousness: direct path exploration,
explicit fixpoints, exhaustive enumeration over small bounds.  None of it
calls the library code it is used to judge.
"""

import itertools

from winset.automata import Alphabet, Dfa, Nfa, check_word, from_words
from winset import rpni
from winset.game import RationalSafetyGame, validate_game
from winset.relations import Transducer
from winset.sample import Sample, is_consistent


def all_words(symbol_count, max_len):
    """Every index word of length <= max_len, shortlex order."""
    out = []
    for n in range(max_len + 1):
        out.extend(itertools.product(range(symbol_count), repeat=n))
    return out


def shortlex_min(words):
    return min(words, key=lambda w: (len(w), w), default=None)


def nfa_accepts_brute(a, word):
    """Membership by trying every nondeterministic path."""

    def go(state, i):
        if i == len(word):
            return state in a.accepting
        return any(
            go(dst, i + 1)
            for (src, sym, dst) in a.transitions
            if src == state and sym == word[i]
        )

    return go(a.initial, 0)


def dfa_accepts_brute(d, word):
    q = 0
    for sym in word:
        q = d.delta[q][sym]
    return q in d.accepting


def language_upto(a, max_len):
    member = dfa_accepts_brute if isinstance(a, Dfa) else nfa_accepts_brute
    return {w for w in all_words(len(a.alphabet.symbols), max_len) if member(a, w)}


def pair_accepted_brute(t, u, v):
    """Transducer membership by worklist over (state, consumed, produced)."""
    start = (t.initial, 0, 0)
    seen = {start}
    work = [start]
    while work:
        state, i, j = work.pop()
        if state in t.accepting and i == len(u) and j == len(v):
            return True
        for (src, a, b, dst) in t.transitions:
            if src != state:
                continue
            if a is not None and (i == len(u) or u[i] != a):
                continue
            if b is not None and (j == len(v) or v[j] != b):
                continue
            step = (dst, i + (a is not None), j + (b is not None))
            if step not in seen:
                seen.add(step)
                work.append(step)
    return False


def accepts_pair(t, u, v):
    """True iff some run consumes u on in-labels and v on out-labels; the
    reference for `image` and `invert`."""
    check_word(t.alphabet, u)
    check_word(t.alphabet, v)
    edges = {}
    for (p, a, b, q) in t.transitions:
        edges.setdefault(p, []).append((a, b, q))
    start = (t.initial, 0, 0)
    seen = {start}
    stack = [start]
    while stack:
        (q, i, j) = stack.pop()
        if i == len(u) and j == len(v) and q in t.accepting:
            return True
        for (a, b, q2) in edges.get(q, ()):
            if a is None:
                i2 = i
            elif i < len(u) and u[i] == a:
                i2 = i + 1
            else:
                continue
            if b is None:
                j2 = j
            elif j < len(v) and v[j] == b:
                j2 = j + 1
            else:
                continue
            nxt = (q2, i2, j2)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def relation_upto(t, max_len):
    words = all_words(len(t.alphabet.symbols), max_len)
    return {(u, v) for u in words for v in words if pair_accepted_brute(t, u, v)}


# ------------------------------------------------------------------ formulas


def clause_satisfied(clause, model):
    return any((lit > 0) == model[abs(lit)] for lit in clause)


def cnf_satisfied(clauses, model):
    return all(clause_satisfied(c, model) for c in clauses)


def cnf_models_brute(var_count, clauses):
    """All satisfying assignments, as var -> bool dicts."""
    out = []
    for bits in itertools.product((False, True), repeat=var_count):
        model = dict(enumerate(bits, start=1))
        if cnf_satisfied(clauses, model):
            out.append(model)
    return out


def cnf_model_brute(var_count, clauses):
    """The first satisfying assignment in counting order, or None."""
    for bits in itertools.product((False, True), repeat=var_count):
        model = dict(enumerate(bits, start=1))
        if cnf_satisfied(clauses, model):
            return model
    return None


def grow_random_cnf(rng, cnf, units, new_vars):
    """Append one chunk to the CnfInstance `cnf`, as a growing encoding
    would: `new_vars` fresh variables, then a few clauses.  Each clause is
    a random one, a unit, one that a unit given so far satisfies, one that
    some of them make shorter, or (rarely) one that they falsify outright;
    about one chunk in twenty-five also gets the empty clause.  `units`,
    the literals of the units given so far, grows with the chunk."""
    cnf.var_count += new_vars
    nv = cnf.var_count

    def lit():
        return rng.choice((1, -1)) * rng.randint(1, nv)

    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.2:
            clause = [lit()]
            units.append(clause[0])
        elif kind < 0.35 and units:
            clause = [rng.choice(units)] + [lit() for _ in range(rng.randint(0, 2))]
        elif kind < 0.55 and units:
            clause = [-rng.choice(units)] + [lit() for _ in range(rng.randint(1, 2))]
        elif kind < 0.6 and units:
            clause = [-u for u in rng.sample(units, min(len(units), rng.randint(1, 2)))]
        else:
            clause = [lit() for _ in range(rng.randint(2, 3))]
        rng.shuffle(clause)
        cnf.clauses.append(clause)
    if rng.random() < 0.04:
        cnf.clauses.append([])


# ------------------------------------------------------- samples and DFAs


def sample_holds_brute(delta, acc, pos, neg, ex, uni):
    """Does the explicit DFA (delta rows, accepting set) satisfy the sample?

    Consequents are plain word lists here, not automata.
    """

    def run(w):
        q = 0
        for sym in w:
            q = delta[q][sym]
        return q

    if any(run(w) not in acc for w in pos):
        return False
    if any(run(w) in acc for w in neg):
        return False
    for u, vs in ex:
        if run(u) in acc and not any(run(v) in acc for v in vs):
            return False
    for u, vs in uni:
        if run(u) in acc and not all(run(v) in acc for v in vs):
            return False
    return True


def exists_consistent_dfa(symbol_count, n, pos, neg, ex, uni):
    """Is some total n-state DFA consistent with the sample?  Tries them all."""
    for flat in itertools.product(range(n), repeat=n * symbol_count):
        delta = [flat[q * symbol_count:(q + 1) * symbol_count] for q in range(n)]
        for bits in itertools.product((False, True), repeat=n):
            acc = {q for q in range(n) if bits[q]}
            if sample_holds_brute(delta, acc, pos, neg, ex, uni):
                return True
    return False


def bfs_order(delta):
    """The states reachable from 0, in breadth-first order, each state's
    symbols taken in alphabet order."""
    order, seen = [0], {0}
    for q in order:
        for r in delta[q]:
            if r not in seen:
                seen.add(r)
                order.append(r)
    return order


def labelled_words(rng, delta, acc, draws, max_len):
    """The words of `draws` random samples, split into those the DFA
    (delta, acc) accepts and those it rejects: a sample it fits."""
    pos, neg = [], []
    for _ in range(draws):
        p, n, _ex, _uni = random_sample_parts(rng, max_len=max_len)
        for w in p + n:
            (pos if sample_holds_brute(delta, acc, [w], [], [], []) else neg).append(w)
    return pos, neg


def make_sample(alphabet, pos, neg, ex, uni):
    """Sample object from plain word tuples and word-list consequents."""
    return Sample(
        alphabet=alphabet,
        pos=tuple(pos),
        neg=tuple(neg),
        ex=tuple((u, from_words(alphabet, vs)) for u, vs in ex),
        uni=tuple((u, from_words(alphabet, vs)) for u, vs in uni),
    )


def random_word(rng, symbol_count, max_len):
    n = rng.randint(0, max_len)
    return tuple(rng.randrange(symbol_count) for _ in range(n))


def random_transducer(rng, alphabet, max_states=3):
    """Random little transducer; ε labels (None) and silent moves included."""
    n = rng.randint(1, max_states)
    labels = [None] + list(range(len(alphabet.symbols)))
    transitions = set()
    for _ in range(rng.randint(0, 3 * n)):
        transitions.add((rng.randrange(n), rng.choice(labels),
                         rng.choice(labels), rng.randrange(n)))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Transducer(
        alphabet=alphabet,
        state_count=n,
        initial=0,
        transitions=frozenset(transitions),
        accepting=accepting,
    )


def random_nfa(rng, alphabet, max_states=4):
    """Random little NFA; every state/symbol pair gets 0-2 targets."""
    from winset.automata import Nfa

    n = rng.randint(1, max_states)
    transitions = set()
    for src in range(n):
        for sym in range(len(alphabet.symbols)):
            for _ in range(rng.randint(0, 2)):
                transitions.add((src, sym, rng.randrange(n)))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(
        alphabet=alphabet,
        state_count=n,
        initial=0,
        transitions=frozenset(transitions),
        accepting=accepting,
    )


def random_sparse_nfa(rng, alphabet, max_states=5):
    """Random NFA with one accepting state, so that its least words run
    longer than random_nfa's and more of them pass through states that
    share an access word."""
    n = rng.randint(1, max_states)
    transitions = {(src, sym, rng.randrange(n))
                   for src in range(n) for sym in range(len(alphabet.symbols))
                   for _ in range(rng.randint(0, 2))}
    return Nfa(alphabet, n, 0, frozenset(transitions), frozenset({rng.randrange(n)}))


def random_partial_nfa(rng, alphabet, max_states=5):
    """Random deterministic NFA: each move has one target, or none about a
    quarter of the time."""
    n = rng.randint(1, max_states)
    transitions = {(src, sym, rng.randrange(n))
                   for src in range(n) for sym in range(len(alphabet.symbols))
                   if rng.random() < 0.75}
    accepting = frozenset(q for q in range(n) if rng.random() < 0.3)
    return Nfa(alphabet, n, 0, frozenset(transitions), accepting)


def random_dfa(rng, alphabet, max_states=3):
    """Random little total DFA."""
    n = rng.randint(1, max_states)
    delta = tuple(tuple(rng.randrange(n) for _ in alphabet.symbols) for _ in range(n))
    return Dfa(alphabet, n, delta, frozenset(q for q in range(n) if rng.random() < 0.5))


def with_dead_states(rng, a):
    """`a`, a Dfa or a deterministic Nfa, with one or two dead states added:
    they accept nothing, move only among themselves, and about a third of
    `a`'s moves are sent to them instead."""
    n = a.state_count
    k = rng.randint(1, 2)
    symbols = range(len(a.alphabet.symbols))

    def target(q):
        return rng.randrange(n, n + k) if rng.random() < 0.35 else q

    if isinstance(a, Dfa):
        delta = [tuple(map(target, row)) for row in a.delta]
        delta += [tuple(rng.randrange(n, n + k) for _ in symbols) for _ in range(k)]
        return Dfa(a.alphabet, n + k, tuple(delta), a.accepting)
    transitions = {(p, sym, target(q)) for (p, sym, q) in a.transitions}
    transitions |= {(p, sym, rng.randrange(n, n + k))
                    for p in range(n, n + k) for sym in symbols if rng.random() < 0.75}
    return Nfa(a.alphabet, n + k, a.initial, frozenset(transitions), a.accepting)


def product_word_brute(positive, negative, max_len):
    """The shortlex-least word of length <= max_len that every positive
    automaton accepts and no negative one does, by trying every word in
    shortlex order; None when no word that short qualifies."""

    def member(a, w):
        return dfa_accepts_brute(a, w) if isinstance(a, Dfa) else nfa_accepts_brute(a, w)

    for w in all_words(len(positive[0].alphabet.symbols), max_len):
        if all(member(a, w) for a in positive) and not any(member(b, w) for b in negative):
            return w
    return None


def audit_merges(monkeypatch):
    """Judge every rpni merge verdict again, for as long as `monkeypatch`
    holds: `rpni._consistent` is wrapped so that each verdict, taken on the
    partition, is recorded next to `is_consistent`'s (verdict, witness) on
    the trial quotient DFA.  Returns the list the pairs go to."""
    audits = []
    consistent = rpni._consistent

    def audited(s, anchors, parent, succ, accs):
        ok = consistent(s, anchors, parent, succ, accs)
        trial = rpni._quotient_dfa(s.alphabet, parent, succ, accs)
        audits.append((ok, is_consistent(trial, s)))
        return ok

    monkeypatch.setattr(rpni, "_consistent", audited)
    return audits


def random_sample_parts(rng, symbol_count=2, max_len=3, max_consequent=2):
    """Random implication sample as plain tuples (pos, neg, ex, uni)."""

    def some_words(lo, hi):
        return [random_word(rng, symbol_count, max_len)
                for _ in range(rng.randint(lo, hi))]

    pos = some_words(0, 3)
    neg = some_words(0, 3)
    ex = [(random_word(rng, symbol_count, max_len),
           some_words(0, max_consequent)) for _ in range(rng.randint(0, 2))]
    uni = [(random_word(rng, symbol_count, max_len),
            some_words(0, max_consequent)) for _ in range(rng.randint(0, 2))]
    return pos, neg, ex, uni


# ------------------------------------------------------------ finite games


def safety_region(vertices, v0, edges, safe):
    """Largest X with: safe everywhere, player-0 states keep one move into X,
    player-1 states keep every move into X.  Plain fixpoint."""
    succ = {v: [] for v in vertices}
    for u, w in edges:
        succ[u].append(w)
    region = set(safe)
    changed = True
    while changed:
        changed = False
        for v in sorted(region):
            if v in v0:
                keep = any(w in region for w in succ[v])
            else:
                keep = all(w in region for w in succ[v])
            if not keep:
                region.discard(v)
                changed = True
    return region


def pairs_transducer(alphabet, pairs):
    """Transducer accepting exactly the given word pairs, one chain each."""
    transitions = set()
    accepting = set()
    count = 1
    for u, v in sorted(pairs, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1])):
        prev = 0
        for i in range(max(len(u), len(v))):
            a = u[i] if i < len(u) else None
            b = v[i] if i < len(v) else None
            transitions.add((prev, a, b, count))
            prev = count
            count += 1
        accepting.add(prev)
    return Transducer(
        alphabet=alphabet,
        state_count=count,
        initial=0,
        transitions=frozenset(transitions),
        accepting=frozenset(accepting),
    )


def random_finite_game(rng, alphabet, max_vertices=12):
    """Explicit random game, returned as (encoded game, explicit pieces)."""
    universe = [w for w in all_words(len(alphabet.symbols), 4) if w]
    count = rng.randint(2, max_vertices)
    vertices = sorted(rng.sample(universe, count), key=lambda w: (len(w), w))
    split = rng.randint(1, count - 1)
    shuffled = list(vertices)
    rng.shuffle(shuffled)
    v0 = set(shuffled[:split])
    v1 = set(shuffled[split:])
    edges = {(u, v) for u in vertices for v in vertices
             if rng.random() < 0.25}
    safe = {v for v in vertices if rng.random() < 0.75}
    initial = {v for v in sorted(safe) if rng.random() < 0.3}
    game = RationalSafetyGame(
        alphabet=alphabet,
        v0=from_words(alphabet, sorted(v0)),
        v1=from_words(alphabet, sorted(v1)),
        edges=pairs_transducer(alphabet, edges),
        safe=from_words(alphabet, sorted(safe)),
        initial=from_words(alphabet, sorted(initial)),
    )
    validate_game(game)
    return game, (vertices, v0, edges, safe, initial)


def infinitely_branching_game():
    """One Player-0 vertex, s, whose successor set is the infinite language
    e l* (every successor a Player-1 vertex without moves)."""
    sel = Alphabet(("s", "e", "l"))
    s, e, l = (sel.index(c) for c in "sel")
    s_only = Nfa(sel, 2, 0, frozenset({(0, s, 1)}), frozenset({1}))
    e_tail = Nfa(sel, 2, 0, frozenset({(0, e, 1), (1, l, 1)}), frozenset({1}))
    return validate_game(RationalSafetyGame(
        sel, v0=s_only, v1=e_tail,
        edges=Transducer(sel, 2, 0, frozenset({(0, s, e, 1), (1, None, l, 1)}), frozenset({1})),
        safe=Nfa(sel, 2, 0, frozenset({(0, s, 1), (0, e, 1), (1, l, 1)}), frozenset({1})),
        initial=s_only,
    ))


# numeric tokens a mutant puts in place of a number: signs, other bases,
# expressions, and counts far past any file's size
ODD_NUMBERS = ("-1", "0", "0x1", "1e3", "10**20", "100000000", "99999999999999999999")


def mutate_text(rng, text, edits=3):
    """`text` after one to `edits` seeded line edits: a line deleted,
    duplicated, truncated or re-tokenized (tokens shuffled, split or
    joined), or a numeric token replaced by a neighbour or an ODD_NUMBERS
    entry."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, edits)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        toks = lines[i].split()
        kind = rng.randrange(5)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif kind == 3 and toks:
            how = rng.randrange(3)
            if how == 0:
                rng.shuffle(toks)
            elif how == 1:
                j = rng.randrange(len(toks))
                toks[j:j + 1] = [toks[j][:1], toks[j][1:]]
            else:
                toks = ["".join(toks)]
            lines[i] = " ".join(toks)
        else:
            spots = [j for j, tok in enumerate(toks) if tok.isdigit()]
            if spots:
                j = rng.choice(spots)
                toks[j] = rng.choice(ODD_NUMBERS + (str(int(toks[j]) + rng.choice((-1, 1))),))
                lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def nth_last_is_a(alphabet, n):
    """Nfa for (a|b)* a (a|b)^n over `alphabet`'s first two symbols, with
    n + 2 states: its subset construction has about 2^(n+1) subsets, and
    the least of its words is a^(n+1)."""
    a, b = 0, 1
    trans = {(0, a, 0), (0, b, 0), (0, a, 1)}
    trans |= {(i, sym, i + 1) for i in range(1, n + 1) for sym in (a, b)}
    return Nfa(alphabet, n + 2, 0, frozenset(trans), frozenset({n + 1}))
