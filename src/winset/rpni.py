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

Every winning set lies inside the game's safe set F, so `learn_rpni` also
refuses a merge whose quotient accepts a word outside F, after the typing
bias of Coste, Fredouille, Kermorvant & de la Higuera (ICGI 2004), where a
known automaton constrains the merges.  A trial that fits the sample is
walked together with F's subset construction, the teacher's own
(`CompiledGame.safe`), and is rejected where an accepting class meets a
state outside F (`_inside`).  The teacher still judges every conjecture;
only the choice among merges changes.  Merging only adds words, so check
2 fails only where the prefix tree itself leaves F: evasion(start=12)
takes 26 iterations, not 94, and ends with no negative word.
`satlearn.learn`'s rpni phase merges without the walk, since its sample
is the sat phase's first one and the sat phase learns faster from those
unsafe words.

Across CEGIS iterations the learner replays the last conjecture's trial
verdicts, after Dupont's incremental RPNI2 (ICGI 1996).  The sample only
grows, and chi's closure mostly stays the same, so the tree and the
schedule do too.  A verdict is a conjunction over the sample's items, so
more items never turn a rejection into an acceptance, and an acceptance
needs checking on the new items only.  Replaying stops at the first
acceptance that the new items overturn (see `merge_learn`).  F is the same
for the whole run, so a recorded acceptance has passed the walk through F
on the same partition, and a recorded rejection by that walk still holds:
the replay walks nothing and stays exact.
"""

from . import teacher
from .automata import Dfa, _reachable, from_words
from .errors import InfiniteBranchingError, check_deadline
from .learning import run_cegis
from .sample import check_contradiction, extends, finite_words, since


def _singletons(pta):
    """The prefix tree's trivial partition as (parent, succ, accs).

    `succ[r]` maps a symbol to a state, `accs[r]` tells whether the class
    accepts; both are read only for a class representative r.
    """
    n = pta.state_count
    succ = [{sym: q for sym, targets in enumerate(row) for q in targets} for row in pta.moves]
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

    # accepted(), inlined for the negative words, the most numerous: through
    # `any(map(accepted, ...))` `evasion-rpni` took 0.094 s a pass, not
    # 0.091 s (medians of 3 alternating runs, slower in each pair)
    for r, rest in anchors[0]:
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


def _inside(safe, parent, succ, accs, deadline):
    """Whether the partition's quotient accepts only words of F: its
    classes walked together with `safe`, F's subset construction, from
    (root class, 0), meet no pair of an accepting class and a state in
    `safe.rejecting`.  A missing move goes to the quotient's sink, which
    rejects, so it is not followed.  `safe`'s rows are filled as the walk
    reaches them, and every later walk and the teacher's check 2 reuse
    them; the deadline is read every 256 pairs.
    """
    delta, rejecting = safe.delta, safe.rejecting
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        r, q = stack.pop()
        if accs[r] and q in rejecting:
            return False
        row = delta[q]
        for sym, t in succ[r].items():
            pair = _find(parent, t), row[sym]
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
                if deadline is not None and not len(seen) & 255:
                    check_deadline(deadline, "state merging")
    return True


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


def merge_learn(s, solver=None, deadline=None, last=None, safe=None):
    """One conjecture: PTA of the chi closure, folded greedily.

    The closure is `check_contradiction`'s, so a contradictory sample raises
    ContradictionError; an implication whose consequent is infinite raises
    InfiniteBranchingError naming its vertex.  Each trial merge is judged
    on the partition, from anchors taken once on the plain tree, and undone
    when rejected; the first passing merge is kept.  The quotient DFA is
    built once, for the kept partition.

    `last` (a dict kept by the caller) carries the previous conjecture's
    closure, `safe`, sample, anchors and ordered trial verdicts.  When the
    closure and `safe` are the same and `s` extends that sample, the tree
    is the same, and the verdicts are replayed while they hold: the
    partition at each trial is then the recorded one.  A trial recorded as rejected is rejected
    without a fold, since `s` still holds every item that rejected it.  A
    trial recorded as accepted is folded and checked on the new items'
    anchors only, since the old ones passed it.  The first such trial that
    a new item rejects ends the replay, and every later trial is judged on
    all anchors.  So each verdict is the one the full check gives, and the
    output is that of a call without `last`.  Otherwise the schedule starts
    fresh.  `last` is rewritten only once the merge loop is done.

    `safe`, when given, is F as a `Subsets` (`CompiledGame.safe`): a trial
    that passes the sample is kept only if its quotient stays inside F
    (`_inside`).  A replay walks nothing, since a recorded acceptance
    already passed the walk on the same partition.
    """
    closure = check_contradiction(s, solver, deadline)
    if closure is None:
        u = next(u for (u, a) in s.ex + s.uni if finite_words(a) is None)
        raise InfiniteBranchingError(s.alphabet.text(u))
    parent, succ, accs = _singletons(from_words(s.alphabet, closure))
    replay = ()
    if (last and last["closure"] == closure and last["safe"] is safe
            and extends(s, last["sample"])):
        fresh = _anchors(since(s, last["sample"]), closure, succ)
        anchors = tuple(was + new for was, new in zip(last["anchors"], fresh))
        replay = last["verdicts"]
    else:
        anchors = _anchors(s, closure, succ)
    verdicts = []
    for i in range(1, len(parent)):
        check_deadline(deadline, "state merging")
        if parent[i] != i:
            continue  # already folded into an earlier class
        for j in range(i):
            if parent[j] != j:
                continue  # only representatives; merging with a member is the same merge
            k = len(verdicts)
            replaying = k < len(replay)
            if replaying and not replay[k]:
                verdicts.append(False)
                continue
            log = _fold(parent, succ, accs, i, j)
            ok = _consistent(s, fresh if replaying else anchors, parent, succ, accs)
            if replaying and not ok:
                replay = ()  # the partition leaves the recorded one here
            elif ok and not replaying and safe is not None:
                ok = _inside(safe, parent, succ, accs, deadline)
            verdicts.append(ok)
            if ok:
                break
            _undo(parent, succ, accs, log)
    if last is not None:
        last.update(closure=closure, safe=safe, sample=s, anchors=anchors, verdicts=verdicts)
    return _quotient_dfa(s.alphabet, parent, succ, accs)


def learn_rpni(game, opts=None, inside_safe=True):
    """CEGIS with the merging learner; infinite branching is reported as an
    error naming the offending vertex.  With `inside_safe` every kept merge
    keeps the conjecture inside the game's F (`merge_learn`'s `safe`);
    `satlearn.learn` turns it off, since its sample gains from the unsafe
    words the teacher returns."""
    game = teacher.compile_game(game)  # once: run_cegis takes it as it is
    safe = game.safe if inside_safe else None
    last = {}  # the previous conjecture's merge verdicts, replayed by the next

    def conjecture(s, solver, deadline):
        return merge_learn(s, solver, deadline, last, safe)

    return run_cegis(game, conjecture, "rpni", opts)
