"""Finite-automata algebra: NFAs, DFAs, Boolean and closure operations.

Conventions used throughout the package:
  - a Word is a tuple of symbol indices into an Alphabet;
  - the shortlex order compares by length first, then by declared symbol order,
    which makes every "pick an arbitrary element" deterministic;
  - NFAs are epsilon-free (only transducer labels carry epsilon);
  - DFAs are total and have initial state 0.
"""

from dataclasses import dataclass

from .errors import AlphabetMismatchError, InvalidWordError

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
        if n <= 0:
            raise ValueError("state_count must be positive")
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        for (p, a, q) in self.transitions:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition endpoint out of range: {(p, a, q)}")
            if not (0 <= a < len(self.alphabet)):
                raise ValueError(f"transition symbol out of range: {(p, a, q)}")
        for q in self.accepting:
            if not (0 <= q < n):
                raise ValueError(f"accepting state out of range: {q}")


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
        if n <= 0:
            raise ValueError("state_count must be positive")
        if len(self.delta) != n:
            raise ValueError("delta must have one row per state")
        for row in self.delta:
            if len(row) != len(self.alphabet):
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


def _moves(nfa):
    """Transition lookup (state, symbol) -> sorted tuple of targets."""
    table = {}
    for (p, a, q) in nfa.transitions:
        table.setdefault((p, a), []).append(q)
    return {k: tuple(sorted(v)) for k, v in table.items()}


def accepts(a, u):
    """True iff some run of `a` on `u` ends in an accepting state."""
    check_word(a.alphabet, u)
    if isinstance(a, Dfa):
        q = 0
        for sym in u:
            q = a.delta[q][sym]
        return q in a.accepting
    moves = _moves(a)
    frontier = {a.initial}
    for sym in u:
        frontier = {q for p in frontier for q in moves.get((p, sym), ())}
        if not frontier:
            return False
    return bool(frontier & a.accepting)


def determinize(a):
    """Subset construction; adds a dead sink so the result is total."""
    a = as_nfa(a)
    moves = _moves(a)
    nsym = len(a.alphabet)
    start = frozenset({a.initial})
    index = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        subset = order[i]
        row = []
        for sym in range(nsym):
            nxt = frozenset(q for p in subset for q in moves.get((p, sym), ()))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        i += 1
    accepting = frozenset(i for i, subset in enumerate(order) if subset & a.accepting)
    return Dfa(a.alphabet, len(order), tuple(tuple(r) for r in delta), accepting)


def _trim_reachable(a):
    """Drop states unreachable from the initial state; renumber in BFS order."""
    moves = _moves(a)
    nsym = len(a.alphabet)
    renum = {a.initial: 0}
    order = [a.initial]
    i = 0
    while i < len(order):
        p = order[i]
        for sym in range(nsym):
            for q in moves.get((p, sym), ()):
                if q not in renum:
                    renum[q] = len(order)
                    order.append(q)
        i += 1
    trans = frozenset(
        (renum[p], sym, renum[q]) for (p, sym, q) in a.transitions if p in renum and q in renum
    )
    accepting = frozenset(renum[q] for q in a.accepting if q in renum)
    return Nfa(a.alphabet, len(order), 0, trans, accepting)


def complement(d):
    """Complement of a total DFA (flip accepting); output trimmed to reachable states."""
    if not isinstance(d, Dfa):
        raise TypeError("complement requires a (total) Dfa; determinize first")
    flipped = Dfa(d.alphabet, d.state_count, d.delta, frozenset(range(d.state_count)) - d.accepting)
    return _reach_trim_dfa(flipped)


def _reach_trim_dfa(d):
    renum = {0: 0}
    order = [0]
    i = 0
    while i < len(order):
        p = order[i]
        for sym in range(len(d.alphabet)):
            q = d.delta[p][sym]
            if q not in renum:
                renum[q] = len(order)
                order.append(q)
        i += 1
    delta = tuple(tuple(renum[d.delta[p][sym]] for sym in range(len(d.alphabet))) for p in order)
    accepting = frozenset(renum[q] for q in d.accepting if q in renum)
    return Dfa(d.alphabet, len(order), delta, accepting)


def intersect(a, b):
    """Product automaton, restricted to reachable pairs."""
    _check_same_alphabet(a, b)
    a, b = as_nfa(a), as_nfa(b)
    ma, mb = _moves(a), _moves(b)
    nsym = len(a.alphabet)
    start = (a.initial, b.initial)
    index = {start: 0}
    order = [start]
    trans = set()
    i = 0
    while i < len(order):
        (p1, p2) = order[i]
        for sym in range(nsym):
            for q1 in ma.get((p1, sym), ()):
                for q2 in mb.get((p2, sym), ()):
                    tgt = (q1, q2)
                    if tgt not in index:
                        index[tgt] = len(order)
                        order.append(tgt)
                    trans.add((i, sym, index[tgt]))
        i += 1
    accepting = frozenset(
        i for i, (p1, p2) in enumerate(order) if p1 in a.accepting and p2 in b.accepting
    )
    return Nfa(a.alphabet, len(order), 0, frozenset(trans), accepting)


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
    return _trim_reachable(out)


def difference(a, b):
    """L(a) \\ L(b), via intersect(a, complement(determinize(b)))."""
    _check_same_alphabet(a, b)
    bd = b if isinstance(b, Dfa) else determinize(b)
    return intersect(a, complement(bd))


def shortest_word(a):
    """Shortlex-least accepted word, or None for the empty language.

    Forward BFS finds the minimal accepted length d; exact-length backward
    layers then let a greedy pass pick the least symbol at every position.
    """
    a = as_nfa(a)
    if not a.accepting:
        return None
    moves = _moves(a)
    nsym = len(a.alphabet)
    pre = {}
    for (p, sym, q) in a.transitions:
        pre.setdefault(q, []).append((p, sym))
    # Backward layers: layer[i] = states with a path of length exactly i to accepting.
    layer = [frozenset(a.accepting)]
    dstar = None
    if a.initial in layer[0]:
        dstar = 0
    bound = a.state_count  # a shortest accepted word is witnessed by a simple path
    while dstar is None and len(layer) <= bound:
        prev = layer[-1]
        cur = frozenset(p for q in prev for (p, _sym) in pre.get(q, ()))
        layer.append(cur)
        if a.initial in cur:
            dstar = len(layer) - 1
    if dstar is None:
        return None
    word = []
    frontier = {a.initial}
    for rem in range(dstar, 0, -1):
        for sym in range(nsym):
            nxt = {q for p in frontier for q in moves.get((p, sym), ())} & layer[rem - 1]
            if nxt:
                word.append(sym)
                frontier = nxt
                break
    return tuple(word)


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
    d = _reach_trim_dfa(d)
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
    return _reach_trim_dfa(Dfa(d.alphabet, len(rep), delta, accepting))


def trim(a):
    """Drop states not on an accepting path; the initial state is always kept."""
    a = as_nfa(a)
    live = _coreachable(a) | {a.initial}  # _trim_reachable drops the rest
    kept = Nfa(
        a.alphabet,
        a.state_count,
        a.initial,
        frozenset((p, s, q) for (p, s, q) in a.transitions if p in live and q in live),
        frozenset(q for q in a.accepting if q in live),
    )
    return _trim_reachable(kept)


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
