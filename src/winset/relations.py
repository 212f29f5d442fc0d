"""Rational relations as transducers: inversion, images, successor sets.

A transducer transition carries an input label and an output label, each a
symbol index or None (epsilon).  Both-epsilon transitions are silent moves.

The image of a language under a transducer is an `Image`, walked on demand
like `automata.Product`: the teacher's checks 3 and 4 search it directly,
so it is explored only as far as their search goes.  `image` and
`successors` build it out as an Nfa.
"""

from dataclasses import dataclass

from .automata import Alphabet, _reachable, _Rows, from_words
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


def transition_key(tr):
    """Sort key for transducer transitions, ε (None) labels as -1: a
    frozenset of tuples holding None iterates in an order that changes
    from one interpreter run to the next, since hash(None) does."""
    p, a, b, q = tr
    return (p, -1 if a is None else a, -1 if b is None else b, q)


def _out_edges(t):
    """state -> its (in, out, target) moves, in `transition_key` order, so
    that an Image's rows, and the states `image` numbers from them, come
    out the same in every run."""
    table = {}
    for (p, a, b, q) in sorted(t.transitions, key=transition_key):
        table.setdefault(p, []).append((a, b, q))
    return table


def invert(t):
    """Swap in/out labels; realizes the inverse relation."""
    trans = frozenset((p, b, a, q) for (p, a, b, q) in t.transitions)
    return Transducer(t.alphabet, t.state_count, t.initial, trans, t.accepting)


class Image:
    """{ v | exists u in L(x) with (u, v) in R(t) }, as an automaton that is
    walked, never built, like `automata.Product`.

    Its states are pairs (x state, t state).  A state's row is filled the
    first time it is read: the fill follows at once the transducer moves
    that output ε (an ε in-label leaves x where it is), so the rows carry
    only output symbols, and the same closure settles whether the state
    accepts.  `moves[s][sym]` is the tuple of targets; `accepting` answers
    membership only.  `x` is an Nfa, a Dfa, a Subsets or a Product, read
    through its move table, so a product is walked only where the
    transducer takes it.
    """

    def __init__(self, t, x):
        if x.alphabet != t.alphabet:
            raise AlphabetMismatchError(
                f"mixed alphabets: {t.alphabet.symbols} vs {x.alphabet.symbols}"
            )
        self.alphabet = t.alphabet
        self.initial = (x.initial, t.initial)
        xmoves, xfinal, tfinal = x.moves, x.accepting, t.accepting
        edges = _out_edges(t)
        symbols = range(len(t.alphabet))
        final = set()

        def row(s):
            closure = {s}
            stack = [s]
            out = [{} for _ in symbols]  # dicts as insertion-ordered sets
            while stack:
                p, q = stack.pop()
                xrow = xmoves[p]  # read once: a product computes its rows on every read
                for (a, b, q2) in edges.get(q, ()):
                    for p2 in (p,) if a is None else xrow[a]:
                        if b is not None:
                            out[b][p2, q2] = None
                        elif (p2, q2) not in closure:
                            closure.add((p2, q2))
                            stack.append((p2, q2))
            if any(p in xfinal and q in tfinal for (p, q) in closure):
                final.add(s)
            return tuple(map(tuple, out))

        # closures over locals, as in Subsets: no reference cycle through self
        self.moves = moves = _Rows(row)
        self.accepting = _Settled(moves, final)


class _Settled:
    """An Image's accepting states: filling a state's row settles it."""

    def __init__(self, moves, final):
        self.moves = moves
        self.final = final

    def __contains__(self, s):
        self.moves[s]
        return s in self.final


def image(t, x):
    """Nfa for { v | exists u in L(x) with (u, v) in R(t) }: the Image,
    built out and renumbered breadth first."""
    return _reachable(Image(t, x))


def successors(t, u):
    """Nfa for E({u}) = { v | (u, v) in R(t) }."""
    return image(t, from_words(t.alphabet, [u]))
