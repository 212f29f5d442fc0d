"""Brute-force reference implementations the test suite checks against.

Everything here trades speed for obviousness: direct path exploration,
explicit fixpoints, exhaustive enumeration over small bounds.  None of it
calls the library code it is used to judge.
"""

import itertools

from winset.automata import Alphabet, Dfa, Nfa, from_words
from winset.game import RationalSafetyGame, validate_game
from winset.relations import Transducer
from winset.sample import Sample


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
