"""Merging-learner tests: merge behavior on small frozen cases and the CEGIS
wrapper."""

import random

import pytest

from winset.automata import Alphabet, from_words
from winset.benchmarks import BenchmarkSpec, generate_benchmark, halfline_game
from winset.errors import ContradictionError, ExternalSolverError, InfiniteBranchingError
from winset.learning import LearnOptions
from winset.prop import solve_internal
from winset.rpni import _fold, _singletons, _undo, learn_rpni, merge_learn
from winset.sample import is_consistent
from winset.teacher import query

from oracles import (
    audit_merges,
    dfa_accepts_brute,
    infinitely_branching_game,
    make_sample,
    random_sample_parts,
    random_word,
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


# Reference outputs, taken when every trial merge was judged on a built
# quotient DFA: a rollback that leaves a stray move or link behind can still
# return a consistent DFA, but not these.
PINNED = [
    ("evasion", {"start": 4}, 38, (1, 28, 4, 4),
     ((1, 2, 3, 3), (3, 3, 4, 3), (3, 3, 1, 3), (3, 3, 3, 3), (3, 3, 4, 5), (3, 3, 5, 3)),
     {5}),
    ("interval", {"k": 2, "kprime": 10}, 15, (1, 9, 1, 3),
     ((1, 2, 3), (3, 3, 4), (3, 3, 5), (3, 3, 3), (3, 3, 6), (3, 3, 7), (3, 3, 8),
      (3, 3, 8), (3, 3, 3)),
     {6, 8}),
]


@pytest.mark.parametrize("name, params, iterations, sizes, delta, accepting", PINNED)
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
