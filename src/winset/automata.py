"""Finite-automata algebra: NFAs, DFAs, Boolean and closure operations.

Conventions used throughout the package:
  - a Word is a tuple of symbol indices into an Alphabet;
  - the shortlex order compares by length first, then by declared symbol order,
    which makes every "pick an arbitrary element" deterministic;
  - NFAs are epsilon-free (only transducer labels carry epsilon);
  - DFAs are total and have initial state 0;
  - algorithms read an automaton through its move table,
    `moves[state][symbol]`, the tuple of targets, which an Nfa or a Dfa
    builds once, on first use.

Witness and emptiness questions about intersections and differences are
answered by one grouped breadth-first search (`shortest_word`,
`product_word`) that walks a `Product` on the fly.  A product's operands
are of three kinds: a Dfa, read through `delta` (or its move table, next
to an Nfa); an Nfa, read through its move table; and the complement of an
Nfa, determinized on demand by a `Subsets` whose rows are filled only when
the search reaches them.
`intersect`, `difference` and `determinize` build the same objects out in
full.
"""

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import contains, getitem

from .errors import AlphabetMismatchError, InvalidWordError, SolveTimeout

Word = tuple

EPSILON_MARK = "_"  # reserved token for epsilon in file formats and dumps


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct printable symbol tokens.

    The declared order is semantic: it defines the symbol order used by
    shortlex, hence by every deterministic witness pick.
    """

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for tok in self.symbols:
            if not isinstance(tok, str) or not tok or not tok.isprintable():
                raise ValueError(f"bad alphabet token {tok!r}")
            if any(c.isspace() for c in tok) or "/" in tok or "#" in tok:
                raise ValueError(f"alphabet token {tok!r} clashes with the file syntax")
            if tok == EPSILON_MARK:
                raise ValueError(f"token {EPSILON_MARK!r} is reserved for epsilon")
            if tok in seen:
                raise ValueError(f"duplicate alphabet token {tok!r}")
            seen.add(tok)
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.symbols)})

    def __len__(self):
        return len(self.symbols)

    def index(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise InvalidWordError(f"unknown symbol {token!r}") from None

    def word(self, text):
        """Parse a whitespace-separated token string into a Word ('_' = ε)."""
        if text.strip() == EPSILON_MARK:
            return ()
        return tuple(self.index(tok) for tok in text.split())

    def text(self, word):
        """Render a Word as space-separated tokens ('_' for the empty word)."""
        if not word:
            return EPSILON_MARK
        return " ".join(self.symbols[i] for i in word)


def check_word(alphabet, u):
    size = len(alphabet.symbols)
    for i in u:
        if not (0 <= i < size):
            raise InvalidWordError(f"symbol index {i} out of range for {alphabet.symbols}")


def shortlex_key(u):
    return (len(u), u)


@dataclass(frozen=True)
class Nfa:
    """Epsilon-free NFA with a single initial state."""

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: frozenset  # of (src, symbol, dst)
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        n = self.state_count
        nsym = len(self.alphabet)
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        for (p, a, q) in self.transitions:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition endpoint out of range: {(p, a, q)}")
            if not (0 <= a < nsym):
                raise ValueError(f"transition symbol out of range: {(p, a, q)}")
        for q in self.accepting:
            if not (0 <= q < n):
                raise ValueError(f"accepting state out of range: {q}")

    @cached_property
    def moves(self):
        """Move table, built on first use: moves[state][symbol] is the
        sorted tuple of targets."""
        table = [[()] * len(self.alphabet) for _ in range(self.state_count)]
        for (p, a, q) in sorted(self.transitions):
            table[p][a] += (q,)
        return tuple(map(tuple, table))


@dataclass(frozen=True)
class Dfa:
    """Total DFA; the initial state is 0 by convention."""

    alphabet: Alphabet
    state_count: int
    delta: tuple  # delta[state][symbol] -> state
    accepting: frozenset

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        n = self.state_count
        nsym = len(self.alphabet)
        if n <= 0:
            raise ValueError("state_count must be positive")
        if len(self.delta) != n:
            raise ValueError("delta must have one row per state")
        for row in self.delta:
            if len(row) != nsym:
                raise ValueError("delta row must cover the whole alphabet")
            for q in row:
                if not (0 <= q < n):
                    raise ValueError(f"delta target out of range: {q}")
        for q in self.accepting:
            if not (0 <= q < n):
                raise ValueError(f"accepting state out of range: {q}")

    @property
    def initial(self):
        return 0

    @cached_property
    def moves(self):
        """The move table as an Nfa has it: moves[state][symbol] is the
        1-tuple (delta[state][symbol],)."""
        return tuple(tuple((q,) for q in row) for row in self.delta)

    def to_nfa(self):
        trans = frozenset(
            (p, a, row[a]) for p, row in enumerate(self.delta) for a in range(len(self.alphabet))
        )
        return Nfa(self.alphabet, self.state_count, 0, trans, self.accepting)


def as_nfa(a):
    return a.to_nfa() if isinstance(a, Dfa) else a


def _check_same_alphabet(*autos):
    base = autos[0].alphabet
    for a in autos[1:]:
        if a.alphabet != base:
            raise AlphabetMismatchError(
                f"mixed alphabets: {base.symbols} vs {a.alphabet.symbols}"
            )


class _Rows(dict):
    """state -> row, each row computed by `fill(state)` when first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, state):
        row = self[state] = self.fill(state)
        return row


class Subsets:
    """The subset construction of an automaton, filled one row at a time.

    State i is the i-th subset reached, kept as a sorted tuple; state 0 is
    (initial,) and the empty subset is the dead sink.  `delta[i]` (one
    successor per symbol, as in a Dfa) is computed the first time it is
    read, so a search pays only for the subsets it reaches and later
    searches over the same Subsets reuse them; `moves[i]` is the same row
    as an Nfa's move table has it.  Of the subsets reached so far,
    `accepting` holds those that meet the automaton's accepting states and
    `rejecting` the others.
    """

    def __init__(self, a):
        self.alphabet = a.alphabet
        self.initial = 0
        self.subsets = subsets = []
        self.accepting = accepting = set()
        self.rejecting = rejecting = set()
        index = {}
        moves, final, symbols = a.moves, a.accepting, range(len(a.alphabet))

        def reach(subset):
            i = index.get(subset)
            if i is None:
                i = index[subset] = len(subsets)
                subsets.append(subset)
                (rejecting if final.isdisjoint(subset) else accepting).add(i)
            return i

        def row(i):
            subset = subsets[i]
            return tuple(reach(tuple(sorted({q for p in subset for q in moves[p][sym]})))
                         for sym in symbols)

        reach((a.initial,))
        # closures over locals, not methods: no reference cycle runs through
        # self, so the rows are freed as soon as the last reader lets go
        self.delta = delta = _Rows(row)
        self.moves = _Rows(lambda i: tuple(zip(delta[i])))


class _Final:
    """Membership test for a Product's accepting states: each component
    lies in its operand's set, the accepting states of a positive operand
    and the rejecting ones of a negative operand."""

    def __init__(self, sets):
        self.sets = sets

    def __contains__(self, t):
        return all(map(contains, self.sets, t))


class _ProductRows:
    """A Product's move table, computed on every read and kept nowhere: a
    search reads each row once.  Deterministic operands come as `delta`
    tables, which zip into the product's one successor per symbol."""

    def __init__(self, tables, deterministic):
        self.tables = tables
        self.deterministic = deterministic

    def __getitem__(self, t):
        rows = map(getitem, self.tables, t)
        if self.deterministic:
            return tuple(zip(zip(*rows)))
        return tuple(map(tuple, map(product, *rows)))


class Product:
    """The words every `positive` automaton accepts and no `negative` one
    does, as an automaton that is walked, never built.

    Its states are tuples of operand states, one per operand, positives
    first.  Operands are Nfa, Dfa or Subsets.  A negative Nfa is
    determinized on demand as a fresh Subsets; a negative Dfa or Subsets,
    total and deterministic, is complemented by flipping acceptance, so a
    Subsets shared between products (the teacher's F) keeps the rows
    earlier searches filled.  `moves[t]` is computed when read: per
    symbol, the tuple of successors in lexicographic order.
    """

    def __init__(self, positive, negative=()):
        negative = [Subsets(b) if isinstance(b, Nfa) else b for b in negative]
        operands = [*positive, *negative]
        _check_same_alphabet(*operands)
        self.alphabet = operands[0].alphabet
        self.initial = tuple(a.initial for a in operands)
        self.accepting = _Final(
            [a.accepting for a in positive]
            + [b.rejecting if isinstance(b, Subsets)
               else frozenset(range(b.state_count)) - b.accepting for b in negative]
        )
        if all(isinstance(a, (Dfa, Subsets)) for a in operands):
            self.moves = _ProductRows([a.delta for a in operands], True)
        else:
            self.moves = _ProductRows([a.moves for a in operands], False)


def accepts(a, u):
    """True iff some run of `a` on `u` ends in an accepting state."""
    check_word(a.alphabet, u)
    if isinstance(a, Dfa):
        q = 0
        for sym in u:
            q = a.delta[q][sym]
        return q in a.accepting
    moves = a.moves
    frontier = {a.initial}
    for sym in u:
        frontier = {q for p in frontier for q in moves[p][sym]}
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def determinize(a):
    """Subset construction; adds a dead sink so the result is total.

    Every row of `Subsets(a)`, filled in order, so subsets are numbered
    breadth first.
    """
    d = Subsets(a)
    i = 0
    while i < len(d.subsets):  # filling row i may reach new subsets
        d.delta[i]
        i += 1
    return Dfa(a.alphabet, i, tuple(d.delta[j] for j in range(i)), frozenset(d.accepting))


def _reachable(a):
    """`a` cut to the states reachable from its initial state and renumbered
    breadth first, each state's targets taken symbol by symbol in move-table
    order: a Dfa for a Dfa, an Nfa for any other automaton (a Product
    included, which this builds)."""
    moves = a.moves
    index = {a.initial: 0}
    order = [a.initial]
    for p in order:  # grows while it is walked
        for targets in moves[p]:
            for q in targets:
                if q not in index:
                    index[q] = len(order)
                    order.append(q)
    accepting = frozenset(i for i, p in enumerate(order) if p in a.accepting)
    if isinstance(a, Dfa):
        delta = tuple(tuple(index[q] for (q,) in moves[p]) for p in order)
        return Dfa(a.alphabet, len(order), delta, accepting)
    trans = frozenset(
        (i, sym, index[q])
        for i, p in enumerate(order)
        for sym, targets in enumerate(moves[p])
        for q in targets
    )
    return Nfa(a.alphabet, len(order), 0, trans, accepting)


def complement(d):
    """Complement of a total DFA (flip accepting); output trimmed to reachable states."""
    if not isinstance(d, Dfa):
        raise TypeError("complement requires a (total) Dfa; determinize first")
    flipped = Dfa(d.alphabet, d.state_count, d.delta, frozenset(range(d.state_count)) - d.accepting)
    return _reachable(flipped)


def intersect(a, b):
    """Product automaton, restricted to reachable pairs."""
    return _reachable(Product([a, b]))


def union(a, b):
    """Disjoint sum behind a fresh initial state (no epsilon moves needed)."""
    _check_same_alphabet(a, b)
    a, b = as_nfa(a), as_nfa(b)
    off_a, off_b = 1, 1 + a.state_count
    trans = set()
    for (p, sym, q) in a.transitions:
        trans.add((p + off_a, sym, q + off_a))
        if p == a.initial:
            trans.add((0, sym, q + off_a))
    for (p, sym, q) in b.transitions:
        trans.add((p + off_b, sym, q + off_b))
        if p == b.initial:
            trans.add((0, sym, q + off_b))
    accepting = set()
    if a.initial in a.accepting or b.initial in b.accepting:
        accepting.add(0)
    accepting |= {q + off_a for q in a.accepting}
    accepting |= {q + off_b for q in b.accepting}
    out = Nfa(a.alphabet, 1 + a.state_count + b.state_count, 0, frozenset(trans), frozenset(accepting))
    return _reachable(out)


def difference(a, b):
    """L(a) \\ L(b): the product of a with the complement of b, built."""
    return _reachable(Product([a], [b]))


def shortest_word(a):
    """Shortlex-least accepted word, or None for the empty language.

    `a` is an Nfa, a Dfa or a Subsets.  The search reads only its initial
    state, its move table (`moves[state][symbol]`, the targets, built once
    per automaton) and membership in its accepting states, so a Subsets is
    filled only as far as the search reaches.  Products go through
    `product_word`, which runs the same search.
    """
    return _least_word(a, None)


def product_word(positive, negative=(), deadline=None):
    """Shortlex-least word that every `positive` automaton accepts and no
    `negative` one does, or None.

    The search of `shortest_word` over `Product(positive, negative)`, which
    is walked as far as the search reaches and never built.  Past
    `deadline` (a time.monotonic() value, read every 256 groups) it raises
    SolveTimeout.
    """
    return _least_word(Product(positive, negative), deadline)


def _least_word(a, deadline):
    """The search behind shortest_word and product_word.

    One forward breadth-first pass over groups of states.  A group holds the
    states whose shortlex-least access word is the group's word.  Groups are
    expanded in queue order, and each symbol in declared order; the next
    group is the set of successors not seen in an earlier group.  A state's
    least access word is some predecessor's least word plus one symbol, so
    the groups are reached in shortlex order of their words, and the first
    group that holds an accepting state gives the answer.  Each state joins
    one group, so the search follows each transition at most once; it needs
    no predecessor map and stops at the first accepting group.

    The grouping matters on NFAs.  With 0 -b-> 2, 0 -b-> 3, 2 -b-> 4,
    3 -a-> 4 and 4 accepting, the states 2 and 3 share the word b; a search
    over single states would expand 2 before 3 and answer b b, not b a.
    """
    moves, accepting = a.moves, a.accepting
    if a.initial in accepting:
        return ()
    seen = {a.initial}
    groups = [(a.initial,)]
    parent = [None]  # parent[i] = (group index, symbol) that reached group i
    i = 0
    while i < len(groups):
        if deadline is not None and i % 256 == 0 and time.monotonic() > deadline:
            raise SolveTimeout("the shortest-word search hit the deadline")
        group = groups[i]
        if len(group) == 1:  # the rule below, without copying the one row
            reached = moves[group[0]]
        else:
            reached = [set().union(*col) for col in zip(*[moves[p] for p in group])]
        for sym, targets in enumerate(reached):
            if not targets:
                continue
            nxt = set(targets) - seen
            if not nxt:
                continue
            if any(map(accepting.__contains__, nxt)):
                word = [sym]
                while parent[i] is not None:
                    i, sym = parent[i]
                    word.append(sym)
                return tuple(reversed(word))
            seen |= nxt
            groups.append(tuple(nxt))
            parent.append((i, sym))
        i += 1
    return None


def _coreachable(a):
    """States with a path to an accepting state."""
    pre = {}
    for (p, _sym, q) in a.transitions:
        pre.setdefault(q, []).append(p)
    coreach = set(a.accepting)
    stack = list(a.accepting)
    while stack:
        q = stack.pop()
        for p in pre.get(q, ()):
            if p not in coreach:
                coreach.add(p)
                stack.append(p)
    return coreach


def finite_words(a):
    """All accepted words, shortlex-sorted, or None for an infinite language.

    One depth-first pass from the initial state over the co-reachable
    states, which visits exactly the useful ones: reaching a state that is
    still on the stack closes a cycle on an initial-to-accepting path;
    otherwise each state's suffix set is built once its successors' are.
    The stack is explicit, since one word's automaton is as deep as the
    word is long.
    """
    a = as_nfa(a)
    live = _coreachable(a)
    if a.initial not in live:
        return ()
    adj = {}
    for (p, sym, q) in a.transitions:
        if p in live and q in live:
            adj.setdefault(p, []).append((sym, q))
    suffixes = {}
    on_stack = {a.initial}
    stack = [(a.initial, iter(adj.get(a.initial, ())))]
    while stack:
        p, succ = stack[-1]
        for (_sym, q) in succ:
            if q in on_stack:
                return None
            if q not in suffixes:
                on_stack.add(q)
                stack.append((q, iter(adj.get(q, ()))))
                break
        else:
            stack.pop()
            on_stack.discard(p)
            out = {()} if p in a.accepting else set()
            for (sym, q) in adj.get(p, ()):
                out.update((sym,) + w for w in suffixes[q])
            suffixes[p] = out
    return tuple(sorted(suffixes[a.initial], key=shortlex_key))


def minimize(d):
    """Minimum-state total DFA, states renumbered by BFS so output is canonical."""
    d = _reachable(d)
    n = d.state_count
    nsym = len(d.alphabet)
    block = [1 if q in d.accepting else 0 for q in range(n)]
    while True:
        sigs = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q],) + tuple(block[d.delta[q][sym]] for sym in range(nsym))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if new_block == block:
            break
        block = new_block
    # block 0 holds state 0, so the reachable trim of the quotient numbers
    # its blocks breadth-first from the initial one
    rep = {block[q]: q for q in range(n)}
    delta = tuple(
        tuple(block[d.delta[rep[b]][sym]] for sym in range(nsym)) for b in range(len(rep))
    )
    accepting = frozenset(block[q] for q in d.accepting)
    return _reachable(Dfa(d.alphabet, len(rep), delta, accepting))


def trim(a):
    """Drop states not on an accepting path; the initial state is always kept."""
    a = as_nfa(a)
    live = _coreachable(a) | {a.initial}  # _reachable drops the rest
    kept = Nfa(
        a.alphabet,
        a.state_count,
        a.initial,
        frozenset((p, s, q) for (p, s, q) in a.transitions if p in live and q in live),
        frozenset(q for q in a.accepting if q in live),
    )
    return _reachable(kept)


def from_words(alphabet, words):
    """Trie NFA accepting exactly the given finite set of words.

    States are the words' prefixes, numbered in shortlex order (breadth
    first, children in symbol order), so the empty prefix is state 0 and
    one word gives its line automaton.  Time is linear in the total word
    length.
    """
    children = [{}]
    ends = set()
    for w in words:
        check_word(alphabet, w)
        node = 0
        for sym in w:
            nxt = children[node].get(sym)
            if nxt is None:
                nxt = children[node][sym] = len(children)
                children.append({})
            node = nxt
        ends.add(node)
    order = [0]  # trie nodes, breadth first: position i is state i
    trans = set()
    for i, p in enumerate(order):
        for sym in sorted(children[p]):
            trans.add((i, sym, len(order)))
            order.append(children[p][sym])
    index = {p: i for i, p in enumerate(order)}
    return Nfa(alphabet, len(order), 0, frozenset(trans), frozenset(index[p] for p in ends))


def to_dot(a, name="automaton"):
    """GraphViz DOT rendering (doubled circle = accepting)."""
    a_view = a if isinstance(a, Dfa) else as_nfa(a)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    for q in range(a_view.state_count):
        shape = "doublecircle" if q in a_view.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    init = a_view.initial if isinstance(a_view, Nfa) else 0
    lines.append(f"  hidden -> q{init};")
    grouped = {}
    if isinstance(a_view, Dfa):
        for p, row in enumerate(a_view.delta):
            for sym, q in enumerate(row):
                grouped.setdefault((p, q), []).append(a_view.alphabet.symbols[sym])
    else:
        for (p, sym, q) in sorted(a_view.transitions):
            grouped.setdefault((p, q), []).append(a_view.alphabet.symbols[sym])
    for (p, q), syms in sorted(grouped.items()):
        label = ",".join(syms)
        lines.append(f'  q{p} -> q{q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
