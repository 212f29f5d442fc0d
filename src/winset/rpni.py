"""Heuristic learner: prefix tree of a chi-chosen positive closure, then
greedy state merging guarded by a sample-consistency test.

Merging follows the classic shortlex schedule: states are numbered by the
shortlex order of their prefixes; state i tries to merge into each earlier
class representative j < i, folding the pair into the smallest congruence
and keeping the first merge whose quotient stays consistent with the sample.
No minimality guarantee and no termination guarantee across CEGIS
iterations — timeouts are a normal outcome for this learner.

A trial merge builds no automaton.  It folds the union-find partition in
place, logging each change, and walks each sample word through the classes
from its anchor, its longest prefix in the tree (`_consistent`); closure
words are accepted by every quotient and are not walked.  A rejected merge
is undone from the log.  The quotient DFA is built once per conjecture, for
the kept partition.
"""

import time

from .automata import Dfa, _reachable, from_words
from .errors import InfiniteBranchingError, SolveTimeout
from .learning import run_cegis
from .sample import check_contradiction, finite_words


def _singletons(pta):
    """The prefix tree's trivial partition as (parent, succ, accs).

    `succ[r]` maps a symbol to a state, `accs[r]` tells whether the class
    accepts; both are read only for a class representative r.
    """
    n = pta.state_count
    succ = [{} for _ in range(n)]
    for (p, sym, q) in sorted(pta.transitions):
        succ[p][sym] = q
    return list(range(n)), succ, [q in pta.accepting for q in range(n)]


def _find(parent, x):
    # no path compression: an undone merge must leave no path through it
    while parent[x] != x:
        x = parent[x]
    return x


def _fold(parent, succ, accs, a, b):
    """Fold the partition, in place, into the smallest congruence that also
    holds (a, b).

    The class representative is always the least member, so quotient state
    names stay shortlex-canonical.  Returns the undo log: one (hi, lo,
    raised, added) per class merge, where hi joined lo, `raised` tells
    whether lo became accepting, and `added` lists the symbols of the moves
    lo took over.
    """
    log = []
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        lo, hi = (rx, ry) if rx < ry else (ry, rx)
        parent[hi] = lo
        low_map = succ[lo]
        added = []
        for sym, tgt in succ[hi].items():
            if sym in low_map:
                stack.append((tgt, low_map[sym]))  # determinism forces this pair
            else:
                low_map[sym] = tgt
                added.append(sym)
        raised = accs[hi] and not accs[lo]
        if raised:
            accs[lo] = True
        log.append((hi, lo, raised, added))
    return log


def _undo(parent, succ, accs, log):
    """Reverse the folds recorded in `log`."""
    for hi, lo, raised, added in reversed(log):
        parent[hi] = hi
        if raised:
            accs[lo] = False
        low_map = succ[lo]
        for sym in added:
            del low_map[sym]


def _anchors(s, closure, succ):
    """The sample's words as `_consistent` walks them: the negative words'
    anchors, and per implication its antecedent's and consequents' anchors.
    A word's anchor is (the tree node of its longest prefix in the tree, the
    rest of the word); `succ` must still be the plain tree.  Closure words
    end on accepting nodes and folds only raise acceptance, so every
    quotient accepts them: positive words, existential items with a
    consequent in the closure, and universal consequents in it are left out.
    """

    def anchor(w):
        node = 0
        for i, sym in enumerate(w):
            if sym not in succ[node]:
                return node, w[i:]
            node = succ[node][sym]
        return node, ()

    ex = [(anchor(u), list(map(anchor, finite_words(a)))) for (u, a) in s.ex
          if closure.isdisjoint(finite_words(a))]
    uni = [(anchor(u), vs) for (u, a) in s.uni
           if (vs := [anchor(v) for v in finite_words(a) if v not in closure])]
    return list(map(anchor, s.neg)), ex, uni


def _consistent(s, anchors, parent, succ, accs):
    """`is_consistent`'s verdict (not its witness) on the sample `s` for the
    partition's total quotient, read from `anchors = _anchors(s, ...)` alone.

    A word's run starts at its anchor node's class and walks the rest; a
    missing move is the quotient's sink, which rejects.  This is exact:
    after a fold the moves out of each class are deterministic, so for a
    tree edge u -> ua the class of ua is the one u's class reaches on a.
    """

    def accepted(anchor):
        r, rest = anchor
        while parent[r] != r:
            r = parent[r]
        for sym in rest:
            r = succ[r].get(sym)
            if r is None:
                return False
            while parent[r] != r:
                r = parent[r]
        return accs[r]

    for r, rest in anchors[0]:  # accepted(), inlined for the negative words
        while parent[r] != r:
            r = parent[r]
        for sym in rest:
            r = succ[r].get(sym)
            if r is None:
                break
            while parent[r] != r:
                r = parent[r]
        if r is not None and accs[r]:
            return False
    return (not any(accepted(u) and not any(map(accepted, vs)) for u, vs in anchors[1])
            and not any(accepted(u) and not all(map(accepted, vs)) for u, vs in anchors[2]))


def _quotient_dfa(alphabet, parent, succ, accs):
    """Total DFA of the current partition; missing moves go to a fresh sink."""
    roots = [x for x in range(len(parent)) if parent[x] == x]
    index = {r: i for i, r in enumerate(roots)}
    nsym = len(alphabet)
    sink = len(roots)
    rows = []
    for r in roots:
        moves = succ[r]
        rows.append(tuple(index[_find(parent, moves[sym])] if sym in moves else sink
                          for sym in range(nsym)))
    rows.append((sink,) * nsym)  # unreachable when every move is there; trimmed
    accepting = frozenset(index[r] for r in roots if accs[r])
    return _reachable(Dfa(alphabet, len(rows), tuple(rows), accepting))


def merge_learn(s, solver=None, deadline=None):
    """One conjecture: PTA of the chi closure, folded greedily.

    The closure is `check_contradiction`'s, so a contradictory sample raises
    ContradictionError; an implication whose consequent is infinite raises
    InfiniteBranchingError naming its vertex.  Each trial merge is judged
    on the partition, from anchors taken once on the plain tree, and undone
    when rejected; the first passing merge is kept.  The quotient DFA is
    built once, for the kept partition.
    """
    closure = check_contradiction(s, solver, deadline)
    if closure is None:
        u = next(u for (u, a) in s.ex + s.uni if finite_words(a) is None)
        raise InfiniteBranchingError(s.alphabet.text(u))
    parent, succ, accs = _singletons(from_words(s.alphabet, closure))
    anchors = _anchors(s, closure, succ)
    for i in range(1, len(parent)):
        if deadline is not None and time.monotonic() > deadline:
            raise SolveTimeout("state merging hit the deadline")
        if parent[i] != i:
            continue  # already folded into an earlier class
        for j in range(i):
            if parent[j] != j:
                continue  # only representatives; merging with a member is the same merge
            log = _fold(parent, succ, accs, i, j)
            if _consistent(s, anchors, parent, succ, accs):
                break
            _undo(parent, succ, accs, log)
    return _quotient_dfa(s.alphabet, parent, succ, accs)


def learn_rpni(game, opts=None):
    """CEGIS with the merging learner; infinite branching is reported as an
    error naming the offending vertex."""
    return run_cegis(game, merge_learn, "rpni", opts)
