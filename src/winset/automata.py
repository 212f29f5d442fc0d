"""Finite automata: NFAs, DFAs, products walked on demand, union and the
subset construction.

Conventions used throughout the package:
  - a Word is a tuple of symbol indices into an Alphabet;
  - the shortlex order compares by length first, then by declared symbol order,
    which makes every "pick an arbitrary element" deterministic;
  - NFAs are epsilon-free (only transducer labels carry epsilon);
  - DFAs are total and have initial state 0;
  - code reads an automaton, an Nfa or a Dfa alike, through its move
    table, `moves[state][symbol]`, the tuple of targets, which each builds
    once, on first use; `arcs(a)` lists the same moves as (p, sym, q)
    triples in sorted order.  Membership (`accepts`), `union`,
    `finite_words`, `to_dot`, the automaton file reader and writer and
    rpni's prefix tree take no other path, so no function keeps a Dfa
    branch or converts a Dfa to an Nfa.

Three hot paths read something else, where the move table costs more or
would change a result:
  - `product_word` walks a product of deterministic operands as single
    state tuples, zipping the operands' successor tables: a negative
    Dfa's or a Subsets' `delta`, and a positive Dfa's or Nfa's
    `live_delta`, one target per move with every missing move and every
    move into a dead state cut (the dead states are found on that table,
    so no move table is built).  Through the grouped search over move
    tables, `interval-rpni` took 0.11-0.14 s a pass, not 0.05-0.07 s;
    without the cut, which stops the teacher's check 2 where a finite
    conjecture can no longer accept instead of walking all of F, it took
    0.05-0.08 s, not 0.03-0.04 s;
  - `satlearn.build_uni`/`build_ex` loop over an Nfa's `transitions`: the
    solver sees the clauses in that order, so another order changes its
    models;
  - `rpni._consistent` walks the negative words inline: through
    `accepts`, rpni on evasion(start=24) took 0.87-0.98 s, not 0.67-0.80 s.

Witness and emptiness questions about one automaton, intersections and
differences are answered by one breadth-first search (`product_word`)
that walks a `Product` on the fly.  `_view` reads each operand once: a
Dfa, a Subsets or a positive Nfa as it is, and a negative Nfa or
on-demand automaton (such as `relations.Image`) through a fresh
`Subsets`, its subset construction, whose rows are filled only when the
search reaches them.  A Product has one move table, the product of its
operands' move tables, computed when read.  When every positive operand
is deterministic (a Dfa, a Subsets, an Nfa with at most one target per
move), so is the product, and the search walks single state tuples: it
zips the operands' successor tables instead, a positive Dfa's or Nfa's
`live_delta`, which cuts the moves into dead states.  A positive operand
that is not deterministic (an Nfa with two targets on a move, an Image,
a Product) is never determinized, since its subset construction can
reach exponentially many subsets before the least word; the search then
walks groups of states that share a least access word over the move
table (`_group_word`), which visit each product state once.  Acceptance
is only ever tested by membership (`in`).  `_reachable` builds a product
out in full, and `determinize` is `_reachable` over a fresh Subsets.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import contains, getitem

from .errors import AlphabetMismatchError, InvalidWordError, check_deadline

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

    @cached_property
    def live_delta(self):
        """The successor table of a deterministic Nfa, built on first use:
        live_delta[state][symbol] is the one target, or None where the move
        is missing or leads to a dead state (see `_live`).  None as a whole
        when some move has two targets."""
        table = [[None] * len(self.alphabet) for _ in range(self.state_count)]
        for (p, a, q) in self.transitions:
            if table[p][a] is not None:
                return None
            table[p][a] = q
        return _live(self, tuple(map(tuple, table)))


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

    @cached_property
    def live_delta(self):
        """`delta` with every move into a dead state made None (see
        `_live`), built on first use."""
        return _live(self, self.delta)


def arcs(a):
    """Every move (p, sym, q) of `a`, an Nfa or a Dfa, read off its move
    table in sorted order."""
    for p, row in enumerate(a.moves):
        for sym, targets in enumerate(row):
            for q in targets:
                yield p, sym, q


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
    `rejecting` the others; the automaton's own `accepting` is only asked
    for membership, so it may be an on-demand one such as an Image.
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
                (accepting if any(map(final.__contains__, subset)) else rejecting).add(i)
            return i

        def row(i):
            subset = subsets[i]
            # one state's targets are distinct already, so its row needs no
            # set: without this path `interval-rpni`, where F's rows are
            # one-state subsets, took 0.026 s a pass, not 0.022 s
            if len(subset) == 1:
                return tuple(reach(tuple(sorted(targets))) for targets in moves[subset[0]])
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
    """A Product's move table, read off the operands' move tables and kept
    nowhere: per symbol, the tuple of successor tuples in lexicographic
    order, computed on every read.  The operands' tables are taken on the
    first read, so a search that zips successor tables builds none."""

    def __init__(self, operands):
        self.operands = operands

    @cached_property
    def moves(self):
        return [b.moves for b in self.operands]

    def __getitem__(self, t):
        return tuple(map(tuple, map(product, *map(getitem, self.moves, t))))


class Product:
    """The words every `positive` automaton accepts and no `negative` one
    does, as an automaton that is walked, never built.

    Its states are tuples of operand states, one per operand, positives
    first.  An operand is any automaton with `initial`, `moves` and
    membership in `accepting` (an Nfa, a Dfa, a Subsets, an Image, a
    Product); `_view` reads each one once, a negative one that is not
    total and deterministic through a fresh Subsets, so a Subsets shared
    between products (the teacher's F) keeps the rows earlier searches
    filled.  `moves[t][sym]`, computed when read, lists the successor
    tuples of the operands' move-table rows in lexicographic order; it
    cuts nothing, so a move into a dead state is there too.  `tables`
    lists the operands' successor tables in the same order, None for a
    positive operand that is not deterministic: `product_word` zips them
    when none is None.
    """

    def __init__(self, positive, negative=()):
        _check_same_alphabet(*positive, *negative)
        self.alphabet = positive[0].alphabet
        read, self.tables, finals = zip(
            *[_view(a, True) for a in positive], *[_view(b, False) for b in negative])
        self.initial = tuple(b.initial for b in read)
        self.accepting = _Final(finals)
        self.moves = _ProductRows(read)


def _view(a, positive):
    """(`b`, table, accepting set): `a` read as the automaton `b`, `a`
    itself or its subset construction, with `b`'s successor table and
    with acceptance flipped when `a` is not `positive`.  A Subsets' table
    is its `delta`; a Dfa's is its `live_delta` when positive and its
    `delta` when negative; a positive Nfa's is its `live_delta`, None when
    some move has two targets; any other positive operand (an Image, a
    Product) has None, and the search reads its move table.  Any other
    negative operand (an Nfa, an Image, a Product) is read as a fresh
    Subsets over it.  A table holds one target per state and symbol, None
    where a search need not go: a missing move or a move into a dead state
    (see `_live`)."""
    if isinstance(a, Subsets):
        return a, a.delta, a.accepting if positive else a.rejecting
    if isinstance(a, Dfa):
        if positive:
            return a, a.live_delta, a.accepting
        return a, a.delta, frozenset(range(a.state_count)) - a.accepting
    if positive:
        return a, a.live_delta if isinstance(a, Nfa) else None, a.accepting
    return _view(Subsets(a), positive)


def _live(a, table):
    """`table`, a successor table of `a`, with every target that is dead (a
    state with no path to an accepting state) made None; `table` itself
    when no state is dead."""
    live = _coreachable(a, table)
    if len(live) == a.state_count:
        return table
    target = dict(zip(live, live)).get  # None for a dead state and for None
    return tuple(tuple(map(target, row)) for row in table)


def accepts(a, u):
    """True iff some run of `a` on `u` ends in an accepting state."""
    check_word(a.alphabet, u)
    moves = a.moves
    frontier = {a.initial}
    for sym in u:
        frontier = {q for p in frontier for q in moves[p][sym]}
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def determinize(a):
    """Subset construction; adds a dead sink so the result is total.
    `Subsets(a)` built out by `_reachable`, so subsets are numbered breadth
    first."""
    return _reachable(Subsets(a))


def _reachable(a, deadline=None):
    """`a` cut to the states reachable from its initial state and renumbered
    breadth first, each state's targets taken symbol by symbol in move-table
    order: a Dfa for a Dfa or a Subsets, an Nfa for any other automaton (a
    Product included, which this builds).  Past `deadline` (a time.monotonic()
    value, read every 256 states) it raises SolveTimeout."""
    moves = a.moves
    index = {a.initial: 0}
    order = [a.initial]
    for i, p in enumerate(order):  # grows while it is walked
        if deadline is not None and i % 256 == 0:
            check_deadline(deadline, "building an automaton")
        for targets in moves[p]:
            for q in targets:
                if q not in index:
                    index[q] = len(order)
                    order.append(q)
    accepting = frozenset(i for i, p in enumerate(order) if p in a.accepting)
    if isinstance(a, (Dfa, Subsets)):
        delta = tuple(tuple(index[q] for (q,) in moves[p]) for p in order)
        return Dfa(a.alphabet, len(order), delta, accepting)
    trans = frozenset(
        (i, sym, index[q])
        for i, p in enumerate(order)
        for sym, targets in enumerate(moves[p])
        for q in targets
    )
    return Nfa(a.alphabet, len(order), 0, trans, accepting)


def union(a, b):
    """Disjoint sum behind a fresh initial state (no epsilon moves needed)."""
    _check_same_alphabet(a, b)
    trans = set()
    accepting = {0} if a.initial in a.accepting or b.initial in b.accepting else set()
    for x, off in ((a, 1), (b, 1 + a.state_count)):
        for (p, sym, q) in arcs(x):
            trans.add((p + off, sym, q + off))
            if p == x.initial:
                trans.add((0, sym, q + off))
        accepting |= {q + off for q in x.accepting}
    out = Nfa(a.alphabet, 1 + a.state_count + b.state_count, 0, frozenset(trans), frozenset(accepting))
    return _reachable(out)


def product_word(positive, negative=(), deadline=None):
    """Shortlex-least word that every `positive` automaton accepts and no
    `negative` one does, or None; `product_word([a])` is the least word of
    `a`.  Past `deadline` (a time.monotonic() value, read every 256 states
    or groups) it raises SolveTimeout.

    One forward breadth-first pass over `Product(positive, negative)`,
    which is walked as far as the search reaches and never built.  States
    are expanded in queue order, and each symbol in declared order, so
    they are reached in shortlex order of their least access words, and
    the first accepting state reached gives the answer.  Each state is
    reached once, so the search follows each transition at most once.

    When the product is deterministic (every positive operand is: a Dfa,
    a Subsets, or an Nfa with at most one target per move), each word
    leads to one state tuple, and the search zips the operands' successor
    tables.  It prunes a positive Nfa's missing move, and a positive Dfa's
    or Nfa's move into a dead state, one with no path to an accepting
    state (`live_delta`): no tuple that holds one leads to an accepting
    tuple.  The answer stays the same, since dead states are closed under
    successors: a live tuple's predecessors are live, so live tuples are
    reached in the same order from the same parents.  Negative operands
    and Subsets are not pruned.  Otherwise it walks groups of states (see
    `_group_word`).
    """
    a = Product(positive, negative)
    if a.initial in a.accepting:
        return ()
    if None in a.tables:
        return _group_word(a, deadline)
    tables, final = a.tables, a.accepting.sets
    parent = {a.initial: None}  # state -> (state, symbol) that reached it
    order = [a.initial]
    for i, t in enumerate(order):  # grows while it is walked
        if deadline is not None and i % 256 == 0:
            check_deadline(deadline, "the shortest-word search")
        for sym, s in enumerate(zip(*map(getitem, tables, t))):
            if s in parent or None in s:
                continue
            parent[s] = t, sym
            if all(map(contains, final, s)):
                word = []
                while parent[s] is not None:
                    s, sym = parent[s]
                    word.append(sym)
                return tuple(reversed(word))
            order.append(s)
    return None


def _group_word(a, deadline):
    """`product_word` over a nondeterministic product `a`.

    The search walks groups of states: a group holds the states whose
    shortlex-least access word is the group's word.  Groups are expanded
    in queue order, and each symbol in declared order; the next group is
    the set of successors not seen in an earlier group.  A state's least
    access word is some predecessor's least word plus one symbol, so the
    groups are reached in shortlex order of their words, and the first
    group that holds an accepting state gives the answer.  The groups are
    disjoint, so the search expands each product state once, where the
    subset construction of a nondeterministic operand could reach
    exponentially many subsets first: for (a|b)* a (a|b)^n, about 2^n
    before the least word a^(n+1).

    The grouping matters on NFAs.  With 0 -b-> 2, 0 -b-> 3, 2 -b-> 4,
    3 -a-> 4 and 4 accepting, the states 2 and 3 share the word b; a search
    over single states would expand 2 before 3 and answer b b, not b a.
    """
    moves, accepting = a.moves, a.accepting
    seen = {a.initial}
    groups = [(a.initial,)]
    parent = [None]  # parent[i] = (group index, symbol) that reached group i
    i = 0
    while i < len(groups):
        if deadline is not None and i % 256 == 0:
            check_deadline(deadline, "the shortest-word search")
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


def _coreachable(a, rows=None):
    """States with a path to an accepting state.  `rows[p]` lists the
    targets of p's moves, None standing for a missing move; by default they
    are read off the move table."""
    if rows is None:
        rows = map(chain.from_iterable, a.moves)
    pre = [[] for _ in range(a.state_count)]
    for p, targets in enumerate(rows):
        for q in targets:
            if q is not None:
                pre[q].append(p)
    coreach = set(a.accepting)
    stack = list(coreach)
    while stack:
        for p in pre[stack.pop()]:
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
    live = _coreachable(a)
    if a.initial not in live:
        return ()
    adj = {}
    for (p, sym, q) in arcs(a):
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


def to_dot(a):
    """GraphViz DOT rendering (doubled circle = accepting)."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    for q in range(a.state_count):
        shape = "doublecircle" if q in a.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  hidden -> q{a.initial};")
    grouped = {}
    for (p, sym, q) in arcs(a):
        grouped.setdefault((p, q), []).append(a.alphabet.symbols[sym])
    for (p, q), syms in sorted(grouped.items()):
        label = ",".join(syms)
        lines.append(f'  q{p} -> q{q} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
