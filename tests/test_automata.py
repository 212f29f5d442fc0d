"""Tests for the automata layer, mostly against brute-force oracles."""

import random

import pytest

from winset.automata import (
    Alphabet,
    Dfa,
    Nfa,
    Product,
    _reachable,
    accepts,
    determinize,
    finite_words,
    from_words,
    product_word,
    to_dot,
    union,
)
from winset.errors import InvalidWordError

from oracles import (
    all_words,
    language_upto,
    nfa_accepts_brute,
    product_word_brute,
    random_dfa,
    random_nfa,
    random_sparse_nfa,
)

AB = Alphabet(("a", "b"))
SEL = Alphabet(("s", "e", "l"))


def v0_nfa():
    # s followed by any number of l
    return Nfa(SEL, 2, 0, frozenset({(0, 0, 1), (1, 2, 1)}), frozenset({1}))


def initial_nfa_k2():
    # s l l l*
    return Nfa(
        SEL, 4, 0,
        frozenset({(0, 0, 1), (1, 2, 2), (2, 2, 3), (3, 2, 3)}),
        frozenset({3}),
    )


# --------------------------------------------------------------- alphabet


def test_alphabet_roundtrip():
    assert SEL.index("e") == 1
    assert SEL.word("s l l") == (0, 2, 2)
    assert SEL.text((0, 2, 2)) == "s l l"
    assert SEL.text(()) == "_"
    assert SEL.word("_") == ()


def test_alphabet_rejects_bad_tokens():
    for bad in [(), ("a", "a"), ("a b",), ("#",), ("x/y",), ("_",)]:
        with pytest.raises(Exception):
            Alphabet(bad)


# ---------------------------------------------------------------- accepts


def test_accepts_v0():
    a = v0_nfa()
    assert accepts(a, SEL.word("s l l"))
    assert not accepts(a, SEL.word("e"))


def test_accepts_no_accepting_state():
    a = Nfa(AB, 1, 0, frozenset(), frozenset())
    assert not accepts(a, ())


def test_accepts_rejects_foreign_symbols():
    with pytest.raises(InvalidWordError):
        accepts(v0_nfa(), (7,))


# ------------------------------------------------------------ determinize


def test_determinize_epsilon_only():
    a = Nfa(AB, 1, 0, frozenset(), frozenset({0}))
    d = determinize(a)
    assert d.state_count == 2  # the language state plus the dead sink
    assert language_upto(d, 3) == {()}


def test_determinize_v0_language():
    d = determinize(v0_nfa())
    want = {(0,) + (2,) * n for n in range(6)}
    assert language_upto(d, 6) == want


def test_determinize_matches_brute_membership():
    rng = random.Random(7)
    for _ in range(40):
        a = random_nfa(rng, AB)
        d = determinize(a)
        for w in all_words(2, 6):
            assert accepts(d, w) == nfa_accepts_brute(a, w), (a, w)


# ---------------------------------------------- union and built products
# `_reachable(Product(positive, negative))` builds out the product the
# teacher's searches walk: with no negative operand, the words all the
# positive ones accept; with Σ* as the one positive operand, the words the
# negative one rejects.


def ab_star():
    return Nfa(AB, 1, 0, frozenset({(0, 0, 0), (0, 1, 0)}), frozenset({0}))


def test_difference_initial_minus_empty():
    empty = Nfa(SEL, 1, 0, frozenset(), frozenset())
    got = _reachable(Product([initial_nfa_k2()], [empty]))
    assert language_upto(got, 5) == {(0, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2, 2)}


def test_intersect_with_own_complement_is_empty():
    rng = random.Random(11)
    for _ in range(20):
        a = random_nfa(rng, AB)
        others = _reachable(Product([ab_star()], [determinize(a)]))
        assert product_word([_reachable(Product([a, others]))]) is None


def test_boolean_ops_match_set_algebra():
    rng = random.Random(13)
    words = all_words(2, 5)
    for _ in range(30):
        a = random_nfa(rng, AB, max_states=3)
        b = random_nfa(rng, AB, max_states=3)
        la = {w for w in words if nfa_accepts_brute(a, w)}
        lb = {w for w in words if nfa_accepts_brute(b, w)}
        assert {w for w in words if accepts(union(a, b), w)} == la | lb
        assert {w for w in words if accepts(_reachable(Product([a, b])), w)} == la & lb
        assert {w for w in words if accepts(_reachable(Product([a], [b])), w)} == la - lb


def test_complement_flips_membership():
    rng = random.Random(17)
    for _ in range(20):
        d = determinize(random_nfa(rng, AB))
        c = _reachable(Product([ab_star()], [d]))
        for w in all_words(2, 5):
            assert accepts(c, w) != accepts(d, w)


# ---------------------------------------------------------- shortest word


def test_shortest_word_examples():
    assert product_word([initial_nfa_k2()]) == SEL.word("s l l")
    assert product_word([Nfa(SEL, 1, 0, frozenset(), frozenset())]) is None
    two = from_words(SEL, [SEL.word("e l l"), SEL.word("e l l l")])
    assert product_word([two]) == SEL.word("e l l")


def test_shortest_word_agrees_with_brute_force():
    rng = random.Random(19)
    for _ in range(60):
        a = random_nfa(rng, AB)
        bound = determinize(a).state_count
        brute = [w for w in all_words(2, bound) if nfa_accepts_brute(a, w)]
        got = product_word([a])
        if not brute:
            assert got is None
        else:
            assert got == brute[0]  # all_words is shortlex-ordered


def test_shortest_word_breaks_ties_between_states_with_one_access_word():
    # 2 and 3 are both reached by b; the least accepted word goes on from 3
    a = Nfa(AB, 5, 0, frozenset({(0, 1, 2), (0, 1, 3), (2, 1, 4), (3, 0, 4)}), frozenset({4}))
    assert product_word([a]) == AB.word("b a")


def test_shortest_word_is_the_first_accepted_word_in_shortlex_order():
    # a shortest accepted word follows a simple path, so it is at most
    # state_count - 1 letters long
    rng = random.Random(23)
    for alphabet in (AB, SEL):
        for _ in range(3000):
            a = random_nfa(rng, alphabet, max_states=6)
            words = all_words(len(alphabet.symbols), a.state_count)
            brute = next((w for w in words if nfa_accepts_brute(a, w)), None)
            assert product_word([a]) == brute, a


# ------------------------------------------------------- finiteness


def test_finite_consequent_enumeration():
    a = from_words(SEL, [SEL.word("e l l"), SEL.word("e l l l")])
    assert finite_words(a) == (SEL.word("e l l"), SEL.word("e l l l"))


def test_v0_is_infinite():
    assert finite_words(v0_nfa()) is None


def test_finite_words_of_the_empty_language():
    a = Nfa(SEL, 2, 0, frozenset({(0, 0, 1)}), frozenset())
    assert finite_words(a) == ()


def test_finite_words_ignores_a_cycle_off_every_accepting_path():
    # 0 -s-> 1 accepts; 0 -e-> 2 -l-> 2 loops but never reaches acceptance
    a = Nfa(SEL, 3, 0, frozenset({(0, 0, 1), (0, 1, 2), (2, 2, 2)}), frozenset({1}))
    assert finite_words(a) == (SEL.word("s"),)
    # 2 -l-> 2 -s-> 1 reaches acceptance, but no path from 0 reaches 2
    a = Nfa(SEL, 3, 0, frozenset({(0, 0, 1), (2, 2, 2), (2, 0, 1)}), frozenset({1}))
    assert finite_words(a) == (SEL.word("s"),)


def test_finite_words_takes_a_1500_symbol_word():
    # one state per symbol: a recursive walk would pass the recursion limit
    w = SEL.word("s " + " ".join(["l"] * 1500))
    assert finite_words(from_words(SEL, [w])) == (w,)
    assert finite_words(from_words(SEL, [w, w[:3], ()])) == ((), w[:3], w)


def test_finite_words_is_shortlex_sorted_and_complete():
    rng = random.Random(23)
    done = 0
    while done < 25:
        a = random_nfa(rng, AB)
        words = finite_words(a)
        if words is None:
            # an n-state NFA has an infinite language iff it accepts a word
            # whose length is in [n, 2n)
            n = a.state_count
            assert any(nfa_accepts_brute(a, w) for w in all_words(2, 2 * n - 1) if len(w) >= n)
            continue
        done += 1
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)
        if words:
            longest = len(words[-1])
            assert set(words) == {w for w in all_words(2, longest)
                                  if nfa_accepts_brute(a, w)}


# ------------------------------------------------------------- builders


def test_from_words_single_word():
    # one word gives its line automaton
    a = from_words(SEL, [SEL.word("s l")])
    assert a == Nfa(SEL, 3, 0, frozenset({(0, 0, 1), (1, 2, 2)}), frozenset({2}))
    assert language_upto(a, 4) == {SEL.word("s l")}


def test_from_words_trie():
    ws = [(), (0,), (0, 1)]
    a = from_words(AB, ws)
    assert language_upto(a, 4) == set(ws)


def test_from_words_shapes():
    s, l = SEL.index("s"), SEL.index("l")
    t = from_words(SEL, [SEL.word("s"), SEL.word("s l l")])
    assert t.state_count == 4          # eps, s, sl, sll in shortlex order
    assert t.accepting == frozenset({1, 3})
    assert t.transitions == frozenset({(0, s, 1), (1, l, 2), (2, l, 3)})
    empty = from_words(SEL, [])
    assert empty.state_count == 1 and empty.accepting == frozenset()
    eps = from_words(SEL, [()])
    assert eps.state_count == 1 and eps.accepting == frozenset({0})
    # states follow the shortlex order of their prefixes, not the order the
    # words are first met in: for {b, ab} the prefix a is state 1
    a, b = AB.index("a"), AB.index("b")
    t = from_words(AB, [(b,), (a, b)])
    assert t.transitions == frozenset({(0, a, 1), (0, b, 2), (1, b, 3)})
    assert t.accepting == frozenset({2, 3})


def test_from_words_accepts_exactly_its_words():
    rng = random.Random(5)
    for _ in range(20):
        words = {tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
                 for _ in range(rng.randint(0, 5))}
        t = from_words(AB, words)
        for probe in {tuple(rng.randrange(2) for _ in range(rng.randint(0, 5)))
                      for _ in range(30)} | words:
            assert accepts(t, probe) == (probe in words)


def test_to_dot_mentions_states():
    text = to_dot(determinize(v0_nfa()))
    assert "digraph" in text
    assert "doublecircle" in text


# --------------------------------------------------------- product search


def test_product_word_breaks_ties_between_product_states_with_one_access_word():
    # the one-automaton tie case, inside products: 2 and 3 share the word b,
    # and so do the product states they form with the other operands
    tie = Nfa(AB, 5, 0, frozenset({(0, 1, 2), (0, 1, 3), (2, 1, 4), (3, 0, 4)}), frozenset({4}))
    anything = Nfa(AB, 2, 0, frozenset((p, s, q) for p in (0, 1) for s in (0, 1) for q in (0, 1)),
                   frozenset({0, 1}))
    one_state = Dfa(AB, 1, ((0, 0),), frozenset({0}))
    assert product_word([tie, anything]) == AB.word("b a")
    assert product_word([anything, tie, one_state]) == AB.word("b a")
    assert product_word([tie], [from_words(AB, [AB.word("b b")])]) == AB.word("b a")
    assert product_word([tie, anything], [from_words(AB, [AB.word("b a")])]) == AB.word("b b")
    assert product_word([anything], [tie]) == ()


def test_product_word_matches_built_products_and_brute_force():
    # Random products of two or three operands (NFAs and DFAs, negated
    # NFAs determinized on demand) over one to three symbols, against the
    # built product and against trying every word up to a length cap.
    rng = random.Random(41)
    alphabets = (Alphabet(("a",)), AB, Alphabet(("a", "b", "c")))
    caps = (12, 7, 4)  # longest brute-force word per alphabet size
    exact = 0
    for trial in range(1500):
        alphabet, cap = alphabets[trial % 3], caps[trial % 3]
        count = 2 + trial % 2
        operands = [random_sparse_nfa(rng, alphabet) if rng.random() < 0.7
                    else random_dfa(rng, alphabet) for _ in range(count)]
        cut = rng.randint(1, count)
        positive, negative = operands[:cut], operands[cut:]
        got = product_word(positive, negative)
        built = positive[0]
        for a in positive[1:]:
            built = _reachable(Product([built, a]))
        for b in negative:
            built = _reachable(Product([built], [b]))
        assert got == product_word([built]), (positive, negative)
        brute = product_word_brute(positive, negative, cap)
        # a least word walks a simple path of the product of the positive
        # operands with the subset constructions of the negative ones
        bound = 1
        for a in positive:
            bound *= a.state_count
        for b in negative:
            bound *= b.state_count if isinstance(b, Dfa) else 2 ** b.state_count
        if brute is not None or bound <= cap:
            exact += 1
            assert got == brute, (positive, negative)
        else:
            assert got is None or len(got) > cap, (positive, negative)
    assert exact > 900
