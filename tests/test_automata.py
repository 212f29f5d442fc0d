"""Tests for the automata layer, mostly against brute-force oracles."""

import gc
import random
import time
import tracemalloc
import weakref
from functools import cached_property

import pytest

from winset import automata
from winset.automata import (
    Alphabet,
    Dfa,
    Nfa,
    Product,
    Subsets,
    _reachable,
    accepts,
    determinize,
    finite_words,
    from_words,
    product_word,
    to_dot,
    union,
)
from winset.errors import InvalidWordError, SolveTimeout
from winset.relations import Transducer

from oracles import (
    all_words,
    language_upto,
    nfa_accepts_brute,
    nth_last_is_a,
    product_word_brute,
    random_dfa,
    random_nfa,
    random_partial_nfa,
    random_sparse_nfa,
    with_dead_states,
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


# an out-of-range part of each record, with the message that names it
BAD_RECORDS = [
    (lambda: Nfa(AB, 0, 0, (), ()), "state_count must be positive"),
    (lambda: Nfa(AB, -1, 0, (), ()), "state_count must be positive"),
    (lambda: Nfa(AB, 2, 2, (), ()), "initial state out of range"),
    (lambda: Nfa(AB, 2, -1, (), ()), "initial state out of range"),
    (lambda: Nfa(AB, 2, 0, (), {2}), "accepting state out of range"),
    (lambda: Nfa(AB, 2, 0, {(0, 0, 2)}, ()), "endpoint out of range"),
    (lambda: Nfa(AB, 2, 0, {(-1, 0, 1)}, ()), "endpoint out of range"),
    (lambda: Nfa(AB, 2, 0, {(0, 2, 1)}, ()), "symbol out of range"),
    (lambda: Nfa(AB, 2, 0, {(0, -1, 1)}, ()), "symbol out of range"),
    (lambda: Dfa(AB, 0, (), ()), "state_count must be positive"),
    (lambda: Dfa(AB, 2, ((0, 0),), ()), "one row per state"),
    (lambda: Dfa(AB, 1, ((0,),), ()), "cover the whole alphabet"),
    (lambda: Dfa(AB, 1, ((0, 0, 0),), ()), "cover the whole alphabet"),
    (lambda: Dfa(AB, 1, ((0, 1),), ()), "target out of range"),
    (lambda: Dfa(AB, 1, ((0, -1),), ()), "target out of range"),
    (lambda: Dfa(AB, 1, ((0, 0),), {1}), "accepting state out of range"),
    (lambda: Transducer(AB, 0, 0, (), ()), "state_count must be positive"),
    (lambda: Transducer(AB, 2, 2, (), ()), "initial state out of range"),
    (lambda: Transducer(AB, 2, 0, (), {-1}), "accepting state out of range"),
    (lambda: Transducer(AB, 2, 0, {(0, 0, None, 2)}, ()), "endpoint out of range"),
    (lambda: Transducer(AB, 2, 0, {(2, None, 0, 0)}, ()), "endpoint out of range"),
    (lambda: Transducer(AB, 2, 0, {(0, 2, 0, 1)}, ()), "bad in-label"),
    (lambda: Transducer(AB, 2, 0, {(0, None, -1, 1)}, ()), "bad out-label"),
]


@pytest.mark.parametrize("build, message", BAD_RECORDS)
def test_records_reject_parts_out_of_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    dfas = random.Random(14)  # apart, so the NFAs drawn stay the same
    words = all_words(2, 5)
    determinized = 0
    for _ in range(30):
        a = random_nfa(rng, AB, max_states=3)
        b = random_nfa(rng, AB, max_states=3)
        d = random_dfa(dfas, AB)
        # deterministic products over a nondeterministic negative operand
        determinized += a.live_delta is None
        la = {w for w in words if nfa_accepts_brute(a, w)}
        lb = {w for w in words if nfa_accepts_brute(b, w)}
        ld = language_upto(d, 5)
        assert {w for w in words if accepts(union(a, b), w)} == la | lb
        # a Dfa operand on either side
        assert {w for w in words if accepts(union(d, a), w)} == ld | la
        assert {w for w in words if accepts(union(b, d), w)} == lb | ld
        for positive, negative, language in (([a, b], [], la & lb), ([a], [b], la - lb),
                                             ([d], [a], ld - la)):
            built = _reachable(Product(positive, negative))
            assert {w for w in words if accepts(built, w)} == language
            # a product is deterministic when its positive operands are:
            # a negative one is determinized on demand
            if all(x.live_delta is not None for x in positive):
                assert all(len(targets) <= 1 for row in built.moves for targets in row)
    assert determinized > 10


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
    def check(a):
        """True iff `a`'s language is finite, after checking its words."""
        words = finite_words(a)
        if words is None:
            # an n-state automaton has an infinite language iff it accepts
            # a word whose length is in [n, 2n)
            n = a.state_count
            assert any(len(w) >= n for w in language_upto(a, 2 * n - 1))
            return False
        keys = [(len(w), w) for w in words]
        assert keys == sorted(keys)
        if words:
            assert set(words) == language_upto(a, len(words[-1]))
        return True

    rng = random.Random(23)
    dfas = random.Random(24)  # apart, so the NFAs drawn stay the same
    done = 0
    while done < 25:
        done += check(random_nfa(rng, AB))
        check(random_dfa(dfas, AB, max_states=4))


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
    # the exact text: two symbols on one edge share its label, and a
    # Dfa reads as the Nfa with the same moves
    nfa = Nfa(AB, 3, 1, frozenset({(1, 0, 0), (1, 1, 0), (0, 1, 2), (2, 0, 2)}),
              frozenset({0, 2}))
    assert to_dot(nfa) == (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        "  hidden [shape=point, style=invis];\n"
        '  q0 [shape=doublecircle, label="0"];\n'
        '  q1 [shape=circle, label="1"];\n'
        '  q2 [shape=doublecircle, label="2"];\n'
        "  hidden -> q1;\n"
        '  q0 -> q2 [label="b"];\n'
        '  q1 -> q0 [label="a,b"];\n'
        '  q2 -> q2 [label="a"];\n'
        "}\n"
    )
    dfa = Dfa(AB, 2, ((1, 0), (1, 1)), frozenset({1}))
    assert to_dot(dfa) == (
        "digraph automaton {\n"
        "  rankdir=LR;\n"
        "  hidden [shape=point, style=invis];\n"
        '  q0 [shape=circle, label="0"];\n'
        '  q1 [shape=doublecircle, label="1"];\n'
        "  hidden -> q0;\n"
        '  q0 -> q0 [label="b"];\n'
        '  q0 -> q1 [label="a"];\n'
        '  q1 -> q1 [label="a,b"];\n'
        "}\n"
    )


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


def test_product_word_over_a_nondeterministic_operand_reads_each_state_once():
    # The subset construction of (a|b)* a (a|b)^30 reaches about 2^30
    # subsets before its least word a^31; the grouped search expands each
    # state of a product over it once.  Each read of a row of its move table
    # is counted, and a read past a few per state fails, so a search that
    # would blow up stops at once.
    reads = []

    class Rows(tuple):
        def __getitem__(self, state):
            reads.append(state)
            assert len(reads) <= 4 * len(self), "rows read past a few per state"
            return tuple.__getitem__(self, state)

    class Counted(Nfa):
        @cached_property
        def moves(self):
            return Rows(Nfa.moves.func(self))

    v = nth_last_is_a(AB, 30)
    v = Counted(AB, v.state_count, v.initial, v.transitions, v.accepting)
    has_b = Dfa(AB, 2, ((0, 1), (1, 1)), frozenset({1}))
    for positive, negative, word in (([v], [], "a " * 31), ([v], [has_b], "a " * 31),
                                     ([v, has_b], [], "a " * 30 + "b")):
        reads.clear()
        assert product_word(positive, negative) == AB.word(word)
        assert reads


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


def test_product_word_over_deterministic_operands_matches_built_products_and_brute_force(
        monkeypatch):
    # Random products of one to three deterministic operands: positive Dfas
    # and Nfas with at most one target per move, some moves missing, and
    # negative Dfas and NFAs (determinized on demand, so deterministic too).
    # Each is searched over state tuples; a row of a positive Nfa's table,
    # as the search walks it, that holds None (a missing move or a dead
    # target), once read, is a move the search prunes.
    grouped, pruned = [], set()

    class Rows(tuple):
        def __getitem__(self, state):
            row = tuple.__getitem__(self, state)
            if None in row:
                pruned.add(trial)
            return row

    view_of = automata._view

    def view(a, positive):
        read, table, final = view_of(a, positive)
        if positive and isinstance(a, Nfa) and table is a.live_delta:
            table = Rows(table)
        return read, table, final

    monkeypatch.setattr(automata, "_view", view)
    monkeypatch.setattr(automata, "_group_word", lambda a, deadline: grouped.append(a))

    rng = random.Random(43)
    alphabets = (Alphabet(("a",)), AB, Alphabet(("a", "b", "c")))
    caps = (12, 7, 4)  # longest brute-force word per alphabet size
    exact = 0
    for trial in range(1500):
        alphabet, cap = alphabets[trial % 3], caps[trial % 3]
        count = 1 + trial % 3
        cut = rng.randint(1, count)
        positive = [random_partial_nfa(rng, alphabet) if rng.random() < 0.7
                    else random_dfa(rng, alphabet) for _ in range(cut)]
        negative = [random_sparse_nfa(rng, alphabet) if rng.random() < 0.7
                    else random_dfa(rng, alphabet) for _ in range(count - cut)]
        got = product_word(positive, negative)
        built = positive[0]
        for a in positive[1:]:
            built = _reachable(Product([built, a]))
        for b in negative:
            built = _reachable(Product([built], [b]))
        assert got == product_word([built]), (positive, negative)
        brute = product_word_brute(positive, negative, cap)
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
    # the one-operand searches over `built` take the same path
    assert grouped == []
    assert exact > 950
    assert len(pruned) > 600

    # an expired deadline stops the search over state tuples
    line = from_words(AB, [AB.word("a b a b")])
    with pytest.raises(SolveTimeout):
        product_word([line], [ab_star()], deadline=time.monotonic() - 1)
    with pytest.raises(SolveTimeout):
        product_word([line, Dfa(AB, 1, ((0, 0),), frozenset({0}))], deadline=time.monotonic() - 1)
    assert grouped == []


def test_product_word_prunes_dead_states_of_positive_operands(monkeypatch):
    # Random products whose positive Dfas and partial Nfas have dead states
    # (no path to an accepting state).  The search walks their `live_delta`,
    # where a move into a dead state is None; its answer must be the search
    # over their subset constructions, which prunes nothing, and brute
    # force's.  A read row whose None stands for a move the operand has
    # counts the trial as one where a dead state, not a missing move,
    # removed a successor; trials whose initial tuple is dead, where every
    # move is cut, count apart as empty.
    cut = set()

    class Rows(tuple):
        def __getitem__(self, state):
            row = tuple.__getitem__(self, state)
            if any(q is None and targets for q, targets in zip(row, self.moves[state])):
                cut.add(trial)
            return row

    view_of = automata._view

    def view(a, positive):
        read, table, final = view_of(a, positive)
        if positive and isinstance(a, (Dfa, Nfa)) and table is a.live_delta:
            table = Rows(table)
            table.moves = a.moves
        return read, table, final

    monkeypatch.setattr(automata, "_view", view)

    rng = random.Random(47)

    def live_operand(alphabet):
        # mostly one whose initial state is live, so the search goes on
        while True:
            a = with_dead_states(rng, random_partial_nfa(rng, alphabet) if rng.random() < 0.6
                                 else random_dfa(rng, alphabet))
            if a.initial in automata._coreachable(a) or rng.random() < 0.1:
                return a

    alphabets = (Alphabet(("a",)), AB, Alphabet(("a", "b", "c")))
    caps = (12, 7, 4)  # longest brute-force word per alphabet size
    exact = empty = 0
    for trial in range(1000):
        alphabet, cap = alphabets[trial % 3], caps[trial % 3]
        count = 1 + trial % 3
        split = rng.randint(1, count)
        positive = [live_operand(alphabet) for _ in range(split)]
        negative = [random_sparse_nfa(rng, alphabet) if rng.random() < 0.7
                    else random_dfa(rng, alphabet) for _ in range(count - split)]
        got = product_word(positive, negative)
        # a Subsets is never pruned
        unpruned = product_word([Subsets(a) for a in positive], negative)
        assert got == unpruned, (positive, negative)
        if any(a.initial not in automata._coreachable(a) for a in positive):
            empty += 1
            cut.discard(trial)  # every move from the initial tuple is cut
            assert got is None, (positive, negative)
        brute = product_word_brute(positive, negative, cap)
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
    assert exact > 650
    assert len(cut) > 250
    assert empty > 90

    # an empty positive language gives None, however the dead states loop
    sink = Dfa(AB, 2, ((1, 0), (1, 1)), frozenset())
    assert sink.live_delta == ((None, None), (None, None))
    assert product_word([sink]) is None
    assert product_word([sink], [ab_star()]) is None
    cut_off = Nfa(AB, 3, 0, frozenset({(0, 0, 1), (1, 1, 0)}), frozenset({2}))
    assert product_word([cut_off, ab_star()]) is None


def test_product_word_keeps_no_reference_to_its_operands():
    # The pruned tables are cached on the automata, so they go with them: a
    # chain to one accepting state with a dead sink beside it, as a Dfa and
    # as an Nfa, each with a pruned table of n rows (~n * 64 bytes).  Once
    # both are deleted, neither is alive and none of what the searches
    # allocated is left.
    n = 4000
    chain = tuple((i + 1, n - 1) for i in range(n - 2)) + ((n - 1, n - 1),) * 2
    operands = [Dfa(AB, n, chain, frozenset({n - 2})),
                Nfa(AB, n, 0, frozenset((p, sym, q) for p, row in enumerate(chain)
                                        for sym, q in enumerate(row)), frozenset({n - 2}))]
    refs = [weakref.ref(a) for a in operands]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a in operands:
            assert product_word([a], [ab_star()]) is None
            assert product_word([a]) == (0,) * (n - 2)
            assert a.live_delta[0] == (1, None)
        del a, operands
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [r() for r in refs] == [None, None]
    assert left < 150_000
