"""Sample store tests: adding counterexamples, consistency checking against
a brute-force re-check, and the contradiction test."""

import random

from winset.automata import Alphabet, Dfa, Nfa, determinize, from_words, minimize, union
from winset.prop import solve_internal
from winset.sample import add, check_contradiction, chi, dump_sample, empty_sample, is_consistent
from winset.teacher import Existential, Negative, Positive, normalize_consequent

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


def dfa_of(nfa):
    return minimize(determinize(nfa))


def example_trace_sample():
    """pos = {s l l}, ex = {(s l l, {e l l, e l l l})}: what the teacher
    hands out on the half-line game before the final conjecture."""
    conseq = normalize_consequent(from_words(SEL, [W("e l l"), W("e l l l")]))
    s = add(empty_sample(SEL), Positive(W("s l l")))
    return add(s, Existential(W("s l l"), conseq))


def test_add_and_dedup():
    s = add(empty_sample(SEL), Positive(W("s l l")))
    assert s.pos == (W("s l l"),)
    s2 = add(add(s, Negative(W("s"))), Negative(W("s")))
    assert s2.neg == (W("s"),)
    conseq = normalize_consequent(from_words(SEL, [W("e l l")]))
    s3 = add(s2, Existential(W("s l l"), conseq))
    assert len(s3.ex) == 1
    assert add(s3, Existential(W("s l l"), conseq)) is s3
    assert s3.size() == 3


def test_is_consistent_on_the_halfline_trace():
    s = example_trace_sample()
    winning = dfa_of(union(tag_tail("s", 2), tag_tail("e", 3)))
    half = dfa_of(tag_tail("s", 2))
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


def test_check_contradiction_examples():
    a, b = AB.word("a"), AB.word("b")
    assert check_contradiction(make_sample(AB, [a], [a], [], [])) == "contradictory"
    assert check_contradiction(
        make_sample(AB, [a], [b], [], [(a, [b])])
    ) == "contradictory"
    assert check_contradiction(example_trace_sample()) == "consistent"
    assert check_contradiction(empty_sample(AB)) == "consistent"


def test_infinite_consequent_is_unknown():
    loop = Nfa(SEL, 2, 0, frozenset({(0, 0, 1), (1, 2, 1)}), frozenset({1}))  # s l*
    s = add(empty_sample(SEL), Existential(W("s"), loop))
    assert check_contradiction(s) == "unknown"


def test_contradictory_really_means_no_small_dfa():
    a, b = AB.word("a"), AB.word("b")
    cases = [
        ([a], [a], [], []),
        ([a], [b], [], [(a, [b])]),
        ([], [b], [((), [a])], [((), [a, b])]),  # ε free, but uni forces b
    ]
    for pos, neg, ex, uni in cases:
        s = make_sample(AB, pos, neg, ex, uni)
        if check_contradiction(s) != "contradictory":
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
        verdict = check_contradiction(s)
        assert verdict in ("consistent", "contradictory")
        if verdict == "contradictory":
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
