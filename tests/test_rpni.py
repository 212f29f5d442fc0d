"""Merging-learner tests: merge behavior on small frozen cases and the CEGIS
wrapper."""

import random
import time

import pytest

from winset import rpni
from winset.automata import Alphabet, accepts, from_words
from winset.benchmarks import BenchmarkSpec, generate_benchmark, halfline_game
from winset.errors import ContradictionError, ExternalSolverError, InfiniteBranchingError, SolveTimeout
from winset.game import serialize_dfa
from winset.learning import LearnOptions
from winset.prop import solve_internal
from winset.rpni import (
    _anchors,
    _consistent,
    _find,
    _fold,
    _quotient_dfa,
    _singletons,
    _undo,
    learn_rpni,
    merge_learn,
)
from winset.sample import is_consistent
from winset.teacher import compile_game, query

from oracles import (
    audit_merges,
    dfa_accepts_brute,
    infinitely_branching_game,
    make_sample,
    random_sample_parts,
    random_word,
    unsafe_words,
)

AB = Alphabet(("a", "b"))
SEL = Alphabet(("s", "e", "l"))
UNARY = Alphabet(("a",))


def live_states(d):
    """States from which an accepting state is reachable; the completion
    sink (and only it) is dead by construction."""
    rev = {}
    for p in range(d.state_count):
        for a in range(len(d.alphabet)):
            rev.setdefault(d.delta[p][a], set()).add(p)
    alive = set(d.accepting)
    stack = list(alive)
    while stack:
        q = stack.pop()
        for p in rev.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    return len(alive)


def test_merge_learn_collapses_unary_positives():
    s = make_sample(UNARY, [(), (0,), (0, 0)], [], [], [])
    d = merge_learn(s)
    assert d.state_count == 1
    assert d.accepting == frozenset({0})
    assert d.delta[0][0] == 0


def test_merge_learn_keeps_neg_apart():
    a = AB.word("a")
    s = make_sample(AB, [a], [()], [], [])
    d = merge_learn(s)
    # language is exactly {a}: two live states plus the sink making it total
    assert d.state_count == 3
    assert live_states(d) == 2
    for w in ([], [0], [1], [0, 0], [0, 1], [0, 0, 0]):
        assert dfa_accepts_brute(d, tuple(w)) == (tuple(w) == a)


def test_merge_learn_bound_has_exceptions():
    # a lone long positive word with a blocking negative cannot compress:
    # the merged automaton keeps a 3-cycle although only 2 words were given
    aaa, a = AB.word("a a a"), AB.word("a")
    s = make_sample(AB, [aaa], [a], [], [])
    d = merge_learn(s)
    ok, _ = is_consistent(d, s)
    assert ok
    assert live_states(d) == 3           # > |{aaa, a}|
    assert dfa_accepts_brute(d, aaa) and not dfa_accepts_brute(d, a)


def test_merge_learn_consistency_and_size_bound():
    rng = random.Random(1009)
    checked = 0
    while checked < 40:
        pos, neg, ex, uni = random_sample_parts(rng)
        if set(pos) & set(neg):
            continue
        checked += 1
        s = make_sample(AB, pos, neg, [], [])
        d = merge_learn(s)
        ok, item = is_consistent(d, s)
        assert ok, item
        universe = set(pos) | set(neg)
        if universe:
            assert live_states(d) <= len(universe), (pos, neg)


def test_merge_learn_with_implications_is_consistent():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        parts = random_sample_parts(rng)
        s = make_sample(AB, *parts)
        try:
            d = merge_learn(s)
        except ContradictionError:
            continue
        checked += 1
        ok, item = is_consistent(d, s)
        assert ok, item


def test_merge_verdicts_are_the_trial_quotients_verdicts(monkeypatch):
    a = AB.word("a")
    s = make_sample(AB, [a, AB.word("a a a")], [()], [], [])
    audits = audit_merges(monkeypatch)
    d = merge_learn(s)
    for ok, (real, _) in audits:
        assert ok == real
    verdicts = [ok for ok, _ in audits]
    assert any(verdicts) and not all(verdicts)
    ok, _ = is_consistent(d, s)
    assert ok


def test_merge_verdicts_with_implications(monkeypatch):
    # every verdict, taken on the partition, must be is_consistent's on the
    # trial quotient; and auditing must not change what is learned
    rng = random.Random(2024)
    checked = attempts_total = by_implication = 0
    while checked < 100:
        pos, neg, ex, uni = random_sample_parts(rng, max_len=4)
        if not ex and not uni:
            continue
        s = make_sample(AB, pos, neg, ex, uni)
        with monkeypatch.context() as m:
            audits = audit_merges(m)
            try:
                d = merge_learn(s)
            except ContradictionError:
                continue
        checked += 1
        for ok, (real, witness) in audits:
            assert ok == real, (s, witness)
            by_implication += witness is not None and witness[0] in ("ex", "uni")
        attempts_total += len(audits)
        assert merge_learn(s) == d
    assert attempts_total > 150 and by_implication > 20


def test_undo_restores_the_partition():
    rng = random.Random(4242)
    cascades = 0
    for _ in range(200):
        words = [random_word(rng, 2, 5) for _ in range(rng.randint(1, 6))]
        parent, succ, accs = _singletons(from_words(AB, words))
        for _ in range(rng.randint(0, 2)):  # some merges kept, as merging goes
            roots = [x for x in range(len(parent)) if parent[x] == x]
            if len(roots) > 1:
                _fold(parent, succ, accs, *rng.sample(roots, 2))
        roots = [x for x in range(len(parent)) if parent[x] == x]
        if len(roots) < 2:
            continue
        before = (parent[:], [list(m.items()) for m in succ], accs[:])
        log = _fold(parent, succ, accs, *rng.sample(roots, 2))
        assert log
        cascades += len(log) > 1
        _undo(parent, succ, accs, log)
        assert (parent, [list(m.items()) for m in succ], accs) == before
    assert cascades > 20


def test_a_run_from_the_anchor_is_the_run_from_the_root():
    # a word is walked from the class of its longest prefix in the tree: for
    # words in and off the tree that is the trial quotient's verdict
    rng = random.Random(5151)
    off_tree = 0
    for _ in range(200):
        words = [random_word(rng, 2, 5) for _ in range(rng.randint(1, 6))]
        pta = from_words(AB, words)
        parent, succ, accs = _singletons(pta)
        probes = words + [random_word(rng, 2, 7) for _ in range(8)]
        s = make_sample(AB, [], probes, [], [])
        neg, _, _ = _anchors(s, frozenset(), succ)
        off_tree += sum(rest != () for _, rest in neg)
        for _ in range(rng.randint(0, 2)):  # some merges kept, as merging goes
            roots = [x for x in range(len(parent)) if parent[x] == x]
            if len(roots) > 1:
                _fold(parent, succ, accs, *rng.sample(roots, 2))
        roots = [x for x in range(len(parent)) if parent[x] == x]
        if len(roots) > 1:
            _fold(parent, succ, accs, *rng.sample(roots, 2))  # the trial
        q = _quotient_dfa(AB, parent, succ, accs)
        for w, a in zip(probes, neg):
            assert _consistent(s, ([a], [], []), parent, succ, accs) != accepts(q, w), w
        for node in pta.accepting:
            assert accs[_find(parent, node)]
    assert off_tree > 500


def count_checks(monkeypatch):
    """Count `rpni._consistent` calls, for as long as `monkeypatch` holds."""
    calls = [0]
    consistent = rpni._consistent

    def counted(*args):
        calls[0] += 1
        return consistent(*args)

    monkeypatch.setattr(rpni, "_consistent", counted)
    return calls


# evasion from the paper's start up to the benchmark's, and the other paper games
REPLAY_GAMES = [("evasion", {"start": start}) for start in range(2, 13)] + [
    ("halfline", {"k": 2}), ("interval", {"k": 2, "kprime": 9}),
    ("diagonal", {}), ("box", {}), ("solitary-box", {}), ("follow", {}), ("program-repair", {}),
]


def test_replayed_verdicts_give_the_memoryless_conjectures(monkeypatch):
    # every conjecture of learn_rpni, which replays the last one's verdicts,
    # is the one merge_learn gives on the same sample without them
    calls = count_checks(monkeypatch)
    remembering = rpni.merge_learn
    checks = {"replaying": 0, "memoryless": 0}
    fresh_starts = replayed = 0

    def compared(s, solver=None, deadline=None, last=None, safe=None):
        nonlocal fresh_starts, replayed
        before = last.get("closure")
        start = calls[0]
        d = remembering(s, solver, deadline, last, safe)
        mid = calls[0]
        assert serialize_dfa(remembering(s, solver, safe=safe)) == serialize_dfa(d)
        checks["replaying"] += mid - start
        checks["memoryless"] += calls[0] - mid
        fresh_starts += before is not None and before != last["closure"]
        replayed += len(last["verdicts"]) - (mid - start)  # trials judged without a check
        return d

    monkeypatch.setattr(rpni, "merge_learn", compared)
    for name, params in REPLAY_GAMES:
        res = learn_rpni(generate_benchmark(BenchmarkSpec(name, params)), LearnOptions(timeout=60))
        assert res.outcome == "solved", name
    assert fresh_starts > 0 and replayed > 0
    assert checks["replaying"] < checks["memoryless"], checks


def recorded_conjectures(monkeypatch):
    """Record every (sample, DFA) of `rpni.merge_learn`, for as long as
    `monkeypatch` holds."""
    made = []
    real = rpni.merge_learn

    def recorded(s, *args):
        made.append((s, real(s, *args)))
        return made[-1][1]

    monkeypatch.setattr(rpni, "merge_learn", recorded)
    return made


def test_every_conjecture_stays_inside_f(monkeypatch):
    # merges that take a conjecture out of F are refused, so the teacher's
    # check 2 never fails and no negative word is added
    rng = random.Random(2929)
    made = recorded_conjectures(monkeypatch)
    for name, params in REPLAY_GAMES:
        g = generate_benchmark(BenchmarkSpec(name, params))
        made.clear()
        res = learn_rpni(g, LearnOptions(timeout=60))
        assert res.outcome == "solved" and res.sample_sizes[1] == 0, name
        assert len(made) == res.iterations
        for _, d in made:
            assert unsafe_words(rng, d, g.safe) == [], (name, serialize_dfa(d))


def test_without_the_walk_through_f_conjectures_leave_f(monkeypatch):
    # the oracle above fails once the walk accepts every merge
    monkeypatch.setattr(rpni, "_inside", lambda *args: True)
    rng = random.Random(2929)
    made = recorded_conjectures(monkeypatch)
    g = generate_benchmark(BenchmarkSpec("evasion", {"start": 4}))
    res = learn_rpni(g, LearnOptions(timeout=60))
    assert res.outcome == "solved" and res.sample_sizes[1] > 0
    assert any(unsafe_words(rng, d, g.safe) for _, d in made)


def test_the_remembered_verdicts_are_dropped_off_their_sample_or_closure(monkeypatch):
    calls = count_checks(monkeypatch)
    w = AB.word
    last = {}
    merge_learn(make_sample(AB, [w("b")], [w("a"), w("b a"), w("b b")], [], []), last=last)
    assert last["verdicts"] == [False]
    # one negative word fewer: the same closure, but no extension of the
    # sample, and its rejection of the first trial no longer holds
    # then one positive word more: an extension, but another closure
    for s in (make_sample(AB, [w("b")], [w("a"), w("b a")], [], []),
              make_sample(AB, [w("b"), w("b b a")], [w("a"), w("b a")], [], [])):
        start = calls[0]
        d = merge_learn(s, last=last)
        assert calls[0] - start == len(last["verdicts"])  # each trial checked
        assert last["sample"] is s
        assert serialize_dfa(d) == serialize_dfa(merge_learn(s))


def test_a_timeout_inside_merging_leaves_the_remembered_verdicts(monkeypatch):
    w = AB.word
    s = make_sample(AB, [w("b")], [w("a"), w("b a")], [], [])
    last = {}
    merge_learn(s, last=last)
    kept = dict(last)

    def timed_out(*args):
        raise SolveTimeout("state merging hit the deadline")

    monkeypatch.setattr(rpni, "_consistent", timed_out)
    grown = make_sample(AB, [w("b"), w("b b a")], [w("a"), w("b a")], [], [])
    with pytest.raises(SolveTimeout):
        merge_learn(grown, last=last)
    assert all(last[key] is kept[key] for key in kept) and last.keys() == kept.keys()


def test_a_timeout_inside_the_walk_through_f_leaves_the_remembered_verdicts(monkeypatch):
    # on interval(1,20000) a walk through F over a quotient that loops
    # meets ~20000 pairs, so a deadline that passes as each walk starts
    # stops such a walk partway, with most of F's rows still unfilled
    g = compile_game(generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": 20000})))
    with monkeypatch.context() as m:
        made = recorded_conjectures(m)
        assert learn_rpni(g, LearnOptions(timeout=60)).outcome == "solved"
    (first, _), (final, _) = made[0], made[-1]
    last = {}
    merge_learn(first, last=last, safe=g.safe)
    kept = dict(last)
    walk, walks = rpni._inside, []

    def late(safe, parent, succ, accs, deadline):
        walks.append(None)
        verdict = walk(safe, parent, succ, accs, time.monotonic())
        walks[-1] = verdict
        return verdict

    monkeypatch.setattr(rpni, "_inside", late)
    safe = compile_game(g.game).safe  # no row filled yet
    with pytest.raises(SolveTimeout):
        merge_learn(final, deadline=time.monotonic() + 60, last=last, safe=safe)
    assert walks[-1] is None and len(safe.subsets) < 1000  # raised inside the walk
    assert all(last[key] is kept[key] for key in kept) and last.keys() == kept.keys()


# Reference outputs, taken when every trial merge was judged on a built
# quotient DFA: a rollback that leaves a stray move or link behind can still
# return a consistent DFA, but not these.  The DFAs are those of the merging
# without the check against F too; that check leaves no negative word to add.
PINNED = [
    ("evasion", {"start": 4}, 10, (1, 0, 4, 4),
     ((1, 2, 3, 3), (3, 3, 4, 3), (3, 3, 1, 3), (3, 3, 3, 3), (3, 3, 4, 5), (3, 3, 5, 3)),
     {5}),
    ("interval", {"k": 2, "kprime": 10}, 6, (1, 0, 1, 3),
     ((1, 2, 3), (3, 3, 4), (3, 3, 5), (3, 3, 3), (3, 3, 6), (3, 3, 7), (3, 3, 8),
      (3, 3, 8), (3, 3, 3)),
     {6, 8}),
    ("evasion", {"start": 12}, 26, (1, 0, 12, 12),
     ((1, 2, 3, 3), (3, 3, 4, 3), (3, 3, 1, 3), (3, 3, 3, 3), (3, 3, 4, 5), (3, 3, 5, 3)),
     {5}),
]


@pytest.mark.parametrize("name, params, iterations, sizes, delta, accepting", PINNED,
                         ids=["evasion(4)", "interval(2,10)", "evasion(12)"])
def test_learn_rpni_pinned_outputs(name, params, iterations, sizes, delta, accepting):
    res = learn_rpni(generate_benchmark(BenchmarkSpec(name, params)), LearnOptions(timeout=60))
    assert res.outcome == "solved"
    assert (res.iterations, res.sample_sizes) == (iterations, sizes)
    assert res.dfa.delta == delta and res.dfa.accepting == accepting


def test_classical_behavior_on_plain_words():
    rng = random.Random(31)
    for _ in range(25):
        pos = {tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
               for _ in range(rng.randint(0, 3))}
        neg = {tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
               for _ in range(rng.randint(0, 3))} - pos
        d = merge_learn(make_sample(AB, sorted(pos), sorted(neg), [], []))
        for w in pos:
            assert dfa_accepts_brute(d, w)
        for w in neg:
            assert not dfa_accepts_brute(d, w)


def test_learn_rpni_on_halfline():
    g = halfline_game(2)
    res = learn_rpni(g)
    assert res.outcome == "solved"
    assert query(g, res.dfa) is None
    assert res.iterations >= 2
    assert res.learner == "rpni"


def test_learn_rpni_rejects_infinite_branching():
    with pytest.raises(InfiniteBranchingError) as err:
        learn_rpni(infinitely_branching_game())
    assert "s" in str(err.value)


def test_a_wrong_unsat_in_the_closure_is_not_a_contradiction():
    # iteration 1's chi call answers truly; iteration 2's, its only one, lies
    calls = []

    def second_call_lies(cnf, deadline=None):
        calls.append(cnf)
        return None if len(calls) == 2 else solve_internal(cnf, deadline)

    with pytest.raises(ExternalSolverError):
        learn_rpni(halfline_game(2), LearnOptions(solver=second_call_lies))
    assert len(calls) == 2


def test_learn_rpni_solves_chi_once_per_iteration():
    calls = []

    def counting(cnf, deadline=None):
        calls.append(cnf)
        return solve_internal(cnf, deadline)

    res = learn_rpni(halfline_game(2), LearnOptions(solver=counting))
    assert res.outcome == "solved"
    assert len(calls) == res.iterations


def test_learn_rpni_timeout_is_an_outcome():
    res = learn_rpni(halfline_game(2), LearnOptions(timeout=0.0))
    assert res.outcome == "timeout"
    assert res.dfa is None
