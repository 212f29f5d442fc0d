"""Merging-learner tests: prefix tree shape, merge behavior on small frozen
cases, and the CEGIS wrapper."""

import random

import pytest

from winset.automata import Alphabet
from winset.benchmarks import halfline_game
from winset.errors import ContradictionError, ExternalSolverError, InfiniteBranchingError
from winset.learning import LearnOptions
from winset.prop import solve_internal
from winset.rpni import learn_rpni, merge_learn, prefix_tree_acceptor
from winset.sample import is_consistent
from winset.teacher import query

from oracles import dfa_accepts_brute, infinitely_branching_game, make_sample, random_sample_parts

AB = Alphabet(("a", "b"))
SEL = Alphabet(("s", "e", "l"))
UNARY = Alphabet(("a",))


def pta_accepts(pta, w):
    q = 0
    for sym in w:
        q = pta.delta[q][sym]
        if q is None:
            return False
    return q in pta.accepting


def test_prefix_tree_acceptor_shapes():
    pta = prefix_tree_acceptor(SEL, [SEL.word("s"), SEL.word("s l l")])
    assert pta.state_count == 4          # eps, s, sl, sll in shortlex order
    assert pta.accepting == frozenset({1, 3})
    assert pta.delta[0][SEL.index("s")] == 1
    assert pta.delta[1][SEL.index("l")] == 2
    assert pta.delta[0][SEL.index("l")] is None
    empty = prefix_tree_acceptor(SEL, [])
    assert empty.state_count == 1 and empty.accepting == frozenset()
    eps = prefix_tree_acceptor(SEL, [()])
    assert eps.state_count == 1 and eps.accepting == frozenset({0})


def test_prefix_tree_accepts_exactly_its_words():
    rng = random.Random(5)
    for _ in range(20):
        words = {tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
                 for _ in range(rng.randint(0, 5))}
        pta = prefix_tree_acceptor(AB, words)
        for probe in {tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))
                      for _ in range(30)} | words:
            assert pta_accepts(pta, probe) == (probe in words)


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


def test_on_merge_reports_the_real_consistency_verdict():
    a = AB.word("a")
    s = make_sample(AB, [a, AB.word("a a a")], [()], [], [])
    attempts = []

    def on_merge(d, ok):
        real, _ = is_consistent(d, s)
        assert ok == real
        attempts.append(ok)

    d = merge_learn(s, on_merge=on_merge)
    assert attempts and any(attempts) and not all(attempts)
    ok, _ = is_consistent(d, s)
    assert ok


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
