"""Transducer tests: pair acceptance, inversion, images, successor sets."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import winset

from winset.automata import Alphabet, Nfa, Product, accepts, from_words, product_word, union
from winset.benchmarks import BenchmarkSpec, generate_benchmark
from winset.errors import AlphabetMismatchError, SolveTimeout
from winset.relations import Image, Transducer, image, invert, successors

from oracles import (
    accepts_pair,
    all_words,
    language_upto,
    pair_accepted_brute,
    random_dfa,
    random_nfa,
    random_transducer,
)

SEL = Alphabet(("s", "e", "l"))
AB = Alphabet(("a", "b"))
S, E, L = 0, 1, 2


def edge_transducer():
    """Turn handoff with an optional unary increment (player 0) or
    decrement (player 1); the mid-loop states accept, giving stay moves."""
    return Transducer(
        SEL, 5, 0,
        frozenset({
            (0, S, E, 1), (1, L, L, 1), (1, None, L, 2),
            (0, E, S, 3), (3, L, L, 3), (3, L, None, 4),
        }),
        frozenset({1, 2, 3, 4}),
    )


def test_accepts_pair_examples():
    t = edge_transducer()
    assert accepts_pair(t, SEL.word("s l l"), SEL.word("e l l l"))
    assert accepts_pair(t, SEL.word("s l l"), SEL.word("e l l"))  # stay move
    assert not accepts_pair(t, SEL.word("s l l"), SEL.word("s l l"))


def test_relation_up_to_length_three():
    t = edge_transducer()
    got = {(SEL.text(u), SEL.text(v))
           for u in all_words(3, 3) for v in all_words(3, 3)
           if accepts_pair(t, u, v)}
    assert got == {
        ("e", "s"), ("e l", "s"), ("e l", "s l"), ("e l l", "s l"),
        ("e l l", "s l l"), ("s", "e"), ("s", "e l"), ("s l", "e l"),
        ("s l", "e l l"), ("s l l", "e l l"),
    }


def test_invert_is_involution():
    t = edge_transducer()
    assert invert(invert(t)) == t


def test_invert_swaps_pairs():
    t = invert(edge_transducer())
    assert accepts_pair(t, SEL.word("e l l l"), SEL.word("s l l"))
    rng = random.Random(3)
    for _ in range(20):
        r = random_transducer(rng, AB)
        ri = invert(r)
        for u in all_words(2, 3):
            for v in all_words(2, 3):
                assert accepts_pair(ri, v, u) == accepts_pair(r, u, v)


def test_invert_empty_relation():
    t = Transducer(AB, 1, 0, frozenset(), frozenset())
    ti = invert(t)
    assert not any(accepts_pair(ti, u, v)
                   for u in all_words(2, 2) for v in all_words(2, 2))


def test_image_example():
    t = edge_transducer()
    img = image(t, from_words(SEL, [SEL.word("s l l")]))
    assert language_upto(img, 6) == {SEL.word("e l l"), SEL.word("e l l l")}


def test_image_of_empty_language():
    t = edge_transducer()
    empty = Nfa(SEL, 1, 0, frozenset(), frozenset())
    assert language_upto(image(t, empty), 4) == set()


def test_image_of_inverse_gives_predecessors():
    t = edge_transducer()
    pre = image(invert(t), from_words(SEL, [SEL.word("e l l l")]))
    assert language_upto(pre, 6) == {SEL.word("s l l"), SEL.word("s l l l")}


def test_image_agrees_with_pair_acceptance():
    rng = random.Random(5)
    for _ in range(25):
        t = random_transducer(rng, AB)
        for u in all_words(2, 3):
            img = image(t, from_words(AB, [u]))
            for v in all_words(2, 4):
                assert accepts(img, v) == pair_accepted_brute(t, u, v), (t, u, v)


def test_image_distributes_over_union():
    rng = random.Random(9)
    for _ in range(15):
        t = random_transducer(rng, AB)
        a = from_words(AB, [w for w in all_words(2, 2) if rng.random() < 0.4])
        b = from_words(AB, [w for w in all_words(2, 2) if rng.random() < 0.4])
        lhs = image(t, union(a, b))
        rhs = union(image(t, a), image(t, b))
        assert language_upto(lhs, 4) == language_upto(rhs, 4)


def test_successors_examples():
    t = edge_transducer()
    assert language_upto(successors(t, SEL.word("s l l")), 5) == {
        SEL.word("e l l"), SEL.word("e l l l")}
    assert language_upto(successors(t, SEL.word("e")), 4) == {SEL.word("s")}
    none = Transducer(SEL, 1, 0, frozenset(), frozenset())
    assert language_upto(successors(none, SEL.word("s")), 4) == set()


def test_a_deadline_stops_successors_while_it_builds_the_image():
    # the successors of one long vertex form an automaton twice the word's
    # length; building it reads the deadline as it goes
    g = generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": 100}))
    u = g.alphabet.word("s" + " l" * 30000)
    t0 = time.monotonic()
    full = successors(g.edges, u)
    full_s = time.monotonic() - t0
    assert full.state_count == 60003
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        successors(g.edges, u, deadline=t0 + 0.05)
    assert time.monotonic() - t0 < min(0.05 + 0.2, full_s / 2)
    assert successors(g.edges, u, deadline=time.monotonic() + 3600) == full


SUCCESSORS_OF_ONE_WORD = """
from winset.benchmarks import BenchmarkSpec, generate_benchmark
from winset.relations import successors
g = generate_benchmark(BenchmarkSpec("evasion"))
a = successors(g.edges, g.alphabet.word("s l l . l"))
print(a.state_count, a.initial, sorted(a.transitions), sorted(a.accepting))
"""


def test_successors_are_numbered_alike_in_every_process():
    # an ε label is None, whose hash, and with it a transition set's
    # iteration order, can change from one interpreter run to the next
    src = str(Path(winset.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    runs = {subprocess.run([sys.executable, "-c", SUCCESSORS_OF_ONE_WORD], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(3)}
    assert len(runs) == 1, runs
    assert runs.pop().startswith("16 0 ")


def test_image_rejects_alphabet_mismatch():
    t = edge_transducer()
    with pytest.raises(AlphabetMismatchError):
        image(t, Nfa(AB, 1, 0, frozenset(), frozenset({0})))


def test_product_word_over_an_image_matches_the_built_image():
    # Image(t, x), walked on demand, as a positive and as a negative operand
    # of a product search, against the same search over image(t, x); x is
    # an Nfa, a Dfa or a Product, as in the teacher's checks 3 and 4
    rng = random.Random(37)
    found = 0
    for trial in range(600):
        t = random_transducer(rng, AB)
        x = (random_nfa(rng, AB), random_dfa(rng, AB),
             Product([random_nfa(rng, AB)], [random_dfa(rng, AB)]))[trial % 3]
        other = random_nfa(rng, AB)
        built = image(t, x)
        want = [product_word([built]), product_word([other, built]),
                product_word([other], [built])]
        got = [product_word([Image(t, x)]), product_word([other, Image(t, x)]),
               product_word([other], [Image(t, x)])]
        assert got == want, (t, x, other)
        found += sum(w is not None for w in got)
    assert found > 450
