"""Heuristic learner: prefix tree of a chi-chosen positive closure, then
greedy state merging guarded by the full sample-consistency test.

Merging follows the classic shortlex schedule: states are numbered by the
shortlex order of their prefixes; state i tries to merge into each earlier
class representative j < i, folding the pair into the smallest congruence
and keeping the first merge whose quotient stays consistent with the sample.
No minimality guarantee and no termination guarantee across CEGIS
iterations — timeouts are a normal outcome for this learner.
"""

import time
from dataclasses import dataclass

from .automata import Dfa, _reach_trim_dfa, shortlex_key
from .errors import InfiniteBranchingError, SolveTimeout
from .learning import run_cegis
from .sample import check_contradiction, finite_words, is_consistent


@dataclass(frozen=True)
class PartialDfa:
    """Deterministic automaton whose missing transitions reject."""

    alphabet: object
    state_count: int
    delta: tuple  # rows of (state | None)
    accepting: frozenset


def prefix_tree_acceptor(alphabet, words):
    """Tree-shaped partial DFA for exactly `words`; states in shortlex order
    of their prefixes, the root (empty prefix) being state 0."""
    words = sorted(set(words), key=shortlex_key)
    prefixes = {()}
    for w in words:
        for i in range(1, len(w) + 1):
            prefixes.add(w[:i])
    ordered = sorted(prefixes, key=shortlex_key)
    index = {u: i for i, u in enumerate(ordered)}
    nsym = len(alphabet)
    rows = [[None] * nsym for _ in ordered]
    for u in ordered:
        if u:
            rows[index[u[:-1]]][u[-1]] = index[u]
    accepting = frozenset(index[w] for w in words)
    return PartialDfa(alphabet, len(ordered), tuple(tuple(r) for r in rows), accepting)


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _fold(parent, succ, accs, a, b):
    """Smallest congruence containing the current one plus (a, b).

    Returns fresh (parent, succ, accs); the class representative is always
    the least member, so quotient state names stay shortlex-canonical.
    """
    parent = parent[:]
    succ = {r: dict(m) for r, m in succ.items()}
    accs = set(accs)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        lo, hi = (rx, ry) if rx < ry else (ry, rx)
        parent[hi] = lo
        high_map = succ.pop(hi, {})
        low_map = succ.setdefault(lo, {})
        for sym, tgt in high_map.items():
            if sym in low_map:
                stack.append((tgt, low_map[sym]))  # determinism forces this pair
            else:
                low_map[sym] = tgt
        if hi in accs:
            accs.discard(hi)
            accs.add(lo)
    return parent, succ, accs


def _quotient_dfa(alphabet, parent, succ, accs):
    """Total DFA of the current partition; missing moves go to a fresh sink."""
    n = len(parent)
    roots = sorted({_find(parent, x) for x in range(n)})
    index = {r: i for i, r in enumerate(roots)}
    nsym = len(alphabet)
    rows = []
    sink = None
    for r in roots:
        row = []
        moves = succ.get(r, {})
        for sym in range(nsym):
            if sym in moves:
                row.append(index[_find(parent, moves[sym])])
            else:
                if sink is None:
                    sink = len(roots)
                row.append(sink)
        rows.append(row)
    if sink is not None:
        rows.append([sink] * nsym)
    accepting = frozenset(index[r] for r in roots if r in accs)
    d = Dfa(alphabet, len(rows), tuple(tuple(r) for r in rows), accepting)
    return _reach_trim_dfa(d)


def merge_learn(s, solver=None, deadline=None, on_merge=None):
    """One conjecture: PTA of the chi closure, folded greedily.

    The closure is `check_contradiction`'s, so a contradictory sample raises
    ContradictionError; an implication whose consequent is infinite raises
    InfiniteBranchingError naming its vertex.  `on_merge(dfa, ok)` is
    invoked after every attempted merge with the trial quotient and the
    consistency verdict; the first passing merge is kept.
    """
    closure = check_contradiction(s, solver, deadline)
    if closure is None:
        u = next(u for (u, a) in s.ex + s.uni if finite_words(a) is None)
        raise InfiniteBranchingError(s.alphabet.text(u))
    pta = prefix_tree_acceptor(s.alphabet, closure)
    n = pta.state_count
    parent = list(range(n))
    succ = {
        q: {sym: tgt for sym, tgt in enumerate(row) if tgt is not None}
        for q, row in enumerate(pta.delta)
    }
    accs = set(pta.accepting)
    for i in range(1, n):
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("state merging hit the deadline")
        if _find(parent, i) != i:
            continue  # already folded into an earlier class
        for j in range(i):
            if _find(parent, j) != j:
                continue  # only representatives; merging with a member is the same merge
            trial = _fold(parent, succ, accs, i, j)
            d = _quotient_dfa(s.alphabet, *trial)
            ok, _witness = is_consistent(d, s)
            if on_merge is not None:
                on_merge(d, ok)
            if ok:
                parent, succ, accs = trial
                break
    return _quotient_dfa(s.alphabet, parent, succ, accs)


def learn_rpni(game, opts=None):
    """CEGIS with the merging learner; infinite branching is reported as an
    error naming the offending vertex."""
    return run_cegis(game, merge_learn, "rpni", opts)
