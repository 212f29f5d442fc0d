"""Rational relations as transducers: inversion, images, successor sets.

A transducer transition carries an input label and an output label, each a
symbol index or None (epsilon).  Both-epsilon transitions are silent moves.
"""

from dataclasses import dataclass

from .automata import Alphabet, Nfa, as_nfa, check_word, word_automaton, _moves, _trim_reachable
from .errors import AlphabetMismatchError


@dataclass(frozen=True)
class Transducer:
    """NFA over pairs (Sigma ∪ {eps}) x (Sigma ∪ {eps})."""

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: frozenset  # of (src, in_label, out_label, dst); labels int | None
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        n = self.state_count
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        nsym = len(self.alphabet)
        for (p, a, b, q) in self.transitions:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition endpoint out of range: {(p, a, b, q)}")
            if a is not None and not (0 <= a < nsym):
                raise ValueError(f"bad in-label in {(p, a, b, q)}")
            if b is not None and not (0 <= b < nsym):
                raise ValueError(f"bad out-label in {(p, a, b, q)}")
        for q in self.accepting:
            if not (0 <= q < n):
                raise ValueError(f"accepting state out of range: {q}")


def _out_edges(t):
    table = {}
    for (p, a, b, q) in t.transitions:
        table.setdefault(p, []).append((a, b, q))
    return table


def accepts_pair(t, u, v):
    """True iff some run consumes u on in-labels and v on out-labels."""
    check_word(t.alphabet, u)
    check_word(t.alphabet, v)
    edges = _out_edges(t)
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


def invert(t):
    """Swap in/out labels; realizes the inverse relation."""
    trans = frozenset((p, b, a, q) for (p, a, b, q) in t.transitions)
    return Transducer(t.alphabet, t.state_count, t.initial, trans, t.accepting)


def image(t, x):
    """Nfa for { v | exists u in L(x) with (u, v) in R(t) }.

    Product of x with the input track (eps in-labels let x stand still),
    projected to out-labels; out-eps moves are eliminated eagerly so the
    result is an ordinary eps-free Nfa, trimmed to reachable states.
    """
    x = as_nfa(x)
    if x.alphabet != t.alphabet:
        raise AlphabetMismatchError(
            f"mixed alphabets: {t.alphabet.symbols} vs {x.alphabet.symbols}"
        )
    xmoves = _moves(x)
    edges = _out_edges(t)
    start = (x.initial, t.initial)
    index = {start: 0}
    order = [start]
    labeled = []  # (src_id, out_label_or_None, dst_id)
    i = 0
    while i < len(order):
        (p, q) = order[i]
        for (a, b, q2) in edges.get(q, ()):
            if a is None:
                targets = (p,)
            else:
                targets = xmoves.get((p, a), ())
            for p2 in targets:
                key = (p2, q2)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                labeled.append((i, b, index[key]))
        i += 1
    n = len(order)
    accepting = {
        i for i, (p, q) in enumerate(order) if p in x.accepting and q in t.accepting
    }

    # eliminate silent moves (out-label None) by forward closure
    eps_adj = {}
    for (s, b, s2) in labeled:
        if b is None:
            eps_adj.setdefault(s, set()).add(s2)
    closure = {}

    def close(s):
        if s in closure:
            return closure[s]
        group = {s}
        stack = [s]
        while stack:
            cur = stack.pop()
            for nxt in eps_adj.get(cur, ()):
                if nxt not in group:
                    group.add(nxt)
                    stack.append(nxt)
        closure[s] = group
        return group

    real = {}
    for (s, b, s2) in labeled:
        if b is not None:
            real.setdefault(s, []).append((b, s2))
    trans = set()
    acc2 = set()
    for s in range(n):
        grp = close(s)
        if grp & accepting:
            acc2.add(s)
        for member in grp:
            for (b, s2) in real.get(member, ()):
                trans.add((s, b, s2))
    out = Nfa(t.alphabet, n, index[start], frozenset(trans), frozenset(acc2))
    return _trim_reachable(out)


def successors(t, u):
    """Nfa for E({u}) = { v | (u, v) in R(t) }."""
    return image(t, word_automaton(t.alphabet, u))
