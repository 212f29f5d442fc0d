"""Sample store tests: adding counterexamples, consistency checking against
a brute-force re-check, and the contradiction test."""

import itertools
import random

import pytest

from winset.automata import Alphabet, Dfa, Nfa, determinize, from_words, union
from winset.errors import ContradictionError
from winset.prop import solve_internal
from winset.sample import (
    Sample,
    add,
    check_contradiction,
    chi,
    distinct_pairs,
    dump_sample,
    empty_sample,
    is_consistent,
)
from winset.teacher import Existential, Negative, Positive

from oracles import exists_consistent_dfa, make_sample, random_sample_parts, sample_holds_brute

AB = Alphabet(("a", "b"))
SEL = Alphabet(("s", "e", "l"))
W = SEL.word


def tag_tail(tag, k):
    t = SEL.index(tag)
    l = SEL.index("l")
    trans = {(0, t, 1)} | {(i, l, i + 1) for i in range(1, k + 1)}
    trans.add((k + 1, l, k + 1))
    return Nfa(SEL, k + 2, 0, frozenset(trans), frozenset({k + 1}))


def example_trace_sample():
    """pos = {s l l}, ex = {(s l l, {e l l, e l l l})}: what the teacher
    hands out on the half-line game before the final conjecture."""
    conseq = from_words(SEL, [W("e l l"), W("e l l l")])
    s = add(empty_sample(SEL), Positive(W("s l l")))
    return add(s, Existential(W("s l l"), conseq))


def test_add_and_dedup():
    s = add(empty_sample(SEL), Positive(W("s l l")))
    assert s.pos == (W("s l l"),)
    s2 = add(add(s, Negative(W("s"))), Negative(W("s")))
    assert s2.neg == (W("s"),)
    conseq = from_words(SEL, [W("e l l")])
    s3 = add(s2, Existential(W("s l l"), conseq))
    assert len(s3.ex) == 1
    assert add(s3, Existential(W("s l l"), conseq)) is s3
    assert s3.size() == 3


def test_is_consistent_on_the_halfline_trace():
    s = example_trace_sample()
    winning = determinize(union(tag_tail("s", 2), tag_tail("e", 3)))
    half = determinize(tag_tail("s", 2))
    ok, _ = is_consistent(winning, s)
    assert ok
    ok, item = is_consistent(half, s)
    assert not ok
    assert item[0] == "ex"
    ok, _ = is_consistent(half, empty_sample(SEL))
    assert ok


def all_dfas(symbol_count, n):
    import itertools
    alphabet = AB
    for flat in itertools.product(range(n), repeat=n * symbol_count):
        delta = [flat[q * symbol_count:(q + 1) * symbol_count] for q in range(n)]
        for bits in itertools.product((False, True), repeat=n):
            acc = frozenset(q for q in range(n) if bits[q])
            yield Dfa(alphabet, n, delta, acc), delta, acc


def test_is_consistent_matches_brute_force():
    rng = random.Random(20240817)
    for _ in range(40):
        pos, neg, ex, uni = random_sample_parts(rng)
        s = make_sample(AB, pos, neg, ex, uni)
        for d, delta, acc in all_dfas(2, 2):
            got, _ = is_consistent(d, s)
            assert got == sample_holds_brute(delta, acc, pos, neg, ex, uni)


def contradictory(s):
    """Whether chi is UNSAT; for samples whose consequents are all finite."""
    try:
        closure = check_contradiction(s)
    except ContradictionError:
        return True
    assert closure is not None
    return False


def test_check_contradiction_examples():
    a, b = AB.word("a"), AB.word("b")
    with pytest.raises(ContradictionError):
        check_contradiction(make_sample(AB, [a], [a], [], []))
    with pytest.raises(ContradictionError):
        check_contradiction(make_sample(AB, [a], [b], [], [(a, [b])]))
    assert check_contradiction(example_trace_sample()) >= {W("s l l")}
    assert check_contradiction(empty_sample(AB)) == frozenset()


def test_check_contradiction_returns_the_closure():
    a, b, aa = AB.word("a"), AB.word("b"), AB.word("a a")
    assert check_contradiction(make_sample(AB, [a], [], [], [(a, [b])])) >= {a, b}
    closure = check_contradiction(make_sample(AB, [a], [b], [(a, [b, aa])], []))
    assert closure == {a, aa}            # the only model of the constraints
    assert check_contradiction(make_sample(AB, [], [], [], [])) == frozenset()
    with pytest.raises(ContradictionError):
        check_contradiction(make_sample(AB, [a], [a], [], []))
    a_star = Nfa(AB, 1, 0, frozenset({(0, 0, 0)}), frozenset({0}))
    assert check_contradiction(Sample(AB, (a,), (), (), ((a, a_star),))) is None


def test_infinite_consequent_is_unknown():
    loop = Nfa(SEL, 2, 0, frozenset({(0, 0, 1), (1, 2, 1)}), frozenset({1}))  # s l*
    s = add(empty_sample(SEL), Existential(W("s"), loop))
    assert check_contradiction(s) is None


def test_contradictory_really_means_no_small_dfa():
    a, b = AB.word("a"), AB.word("b")
    cases = [
        ([a], [a], [], []),
        ([a], [b], [], [(a, [b])]),
        ([], [b], [((), [a])], [((), [a, b])]),  # ε free, but uni forces b
    ]
    for pos, neg, ex, uni in cases:
        s = make_sample(AB, pos, neg, ex, uni)
        if not contradictory(s):
            continue
        for n in (1, 2, 3):
            assert not exists_consistent_dfa(2, n, pos, neg, ex, uni)


def test_contradiction_brute_agreement_small():
    # randomized cross-check: contradictory => no 3-state DFA fits
    rng = random.Random(7)
    seen_contradictory = 0
    for _ in range(60):
        pos, neg, ex, uni = random_sample_parts(rng, max_len=2, max_consequent=2)
        s = make_sample(AB, pos, neg, ex, uni)
        if contradictory(s):
            seen_contradictory += 1
            assert not exists_consistent_dfa(2, 2, pos, neg, ex, uni)
    assert seen_contradictory >= 1


def test_dump_sample_format():
    s = example_trace_sample()
    s = add(s, Negative(W("s l")))
    assert dump_sample(s).splitlines() == [
        "+ s l l",
        "- s l",
        "E s l l -> e l l, e l l l",
    ]


def test_chi_variable_order_and_model():
    a, aa = AB.word("a"), AB.word("a a")
    s = make_sample(AB, [a], [aa], [], [])
    cnf, var = chi(s)
    assert var == {a: 1, aa: 2}  # shortlex, ids from 1
    assert cnf.var_count == 2 and cnf.clauses == [[1], [-2]]
    model = solve_internal(cnf)
    assert model[1] is True and model[2] is False


def test_chi_clauses_gates_and_count():
    a, b, aa = AB.word("a"), AB.word("b"), AB.word("a a")
    # a universal item with nothing to accept mentions no word
    cnf, var = chi(make_sample(AB, [a], [], [], [(aa, [])]))
    assert var == {a: 1, aa: 2}
    assert cnf.var_count == 1 and cnf.clauses == [[1]]
    # one gate per consequent word set; tautologies and repeats are left out
    s = make_sample(AB, [], [], [(a, [a, b]), (a, [b])], [((), [a, b]), (a, [a, b]), (a, [b])])
    cnf, var = chi(s)
    assert var == {(): 1, a: 2, b: 3}
    assert cnf.var_count == 4
    assert cnf.clauses == [[-2, 3], [-4, 2], [-4, 3], [-1, 4], [-2, 4]]
    assert solve_internal(cnf) is not None


def runs_of(delta):
    def run(w):
        q = 0
        for sym in w:
            q = delta[q][sym]
        return q
    return run


def implication_samples(rng, count):
    """Random samples as plain parts, most of them with an existential item
    whose antecedent is positive, so that it is split into cases."""
    for _ in range(count):
        pos, neg, ex, uni = random_sample_parts(rng, max_len=3, max_consequent=3)
        if ex and rng.random() < 0.7:
            pos = pos + [ex[0][0]]
        yield pos, neg, ex, uni


def test_distinct_pairs_hold_in_every_consistent_dfa():
    """Every DFA of up to three states that fits a random sample runs each
    distinct pair to two states."""
    rng = random.Random(2024)
    checked = 0
    for pos, neg, ex, uni in implication_samples(rng, 40):
        pairs = distinct_pairs(make_sample(AB, pos, neg, ex, uni))
        for n in (1, 2, 3):
            for flat in itertools.product(range(n), repeat=2 * n):
                delta = [flat[2 * q:2 * q + 2] for q in range(n)]
                run = runs_of(delta)
                for acc in map(set, itertools.chain.from_iterable(
                        itertools.combinations(range(n), k) for k in range(n + 1))):
                    if not sample_holds_brute(delta, acc, pos, neg, ex, uni):
                        continue
                    for u, v in pairs:
                        assert run(u) != run(v), (pos, neg, ex, uni, u, v)
                        checked += 1
    assert checked >= 500


def test_distinct_pairs_grow_with_the_sample():
    """Item by item, a growing sample keeps every pair it had: the encoder
    only appends their clauses."""
    rng = random.Random(99)
    grown = 0
    for pos, neg, ex, uni in implication_samples(rng, 60):
        order = [("pos", w) for w in pos] + [("neg", w) for w in neg]
        order += [("ex", item) for item in ex] + [("uni", item) for item in uni]
        rng.shuffle(order)
        parts = {"pos": [], "neg": [], "ex": [], "uni": []}
        last = set()
        for kind, item in order:
            if item in parts[kind]:
                continue
            parts[kind].append(item)
            pairs = distinct_pairs(
                make_sample(AB, parts["pos"], parts["neg"], parts["ex"], parts["uni"]))
            assert last <= pairs
            grown += len(pairs) > len(last)
            last = pairs
    assert grown >= 50
