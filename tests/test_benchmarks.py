"""Benchmark generator tests: every family builds a valid game, interval
scales in k', and the diagonal game's finite cut is checked against a
brute-force safety-region computation."""

import pytest

from winset.benchmarks import BenchmarkSpec, FAMILIES, game_size, generate_benchmark
from winset.automata import accepts

from oracles import language_upto, pair_accepted_brute, safety_region


def make(name, **params):
    return generate_benchmark(BenchmarkSpec(name, params))


def test_every_family_builds_and_validates():
    for name in FAMILIES:
        params = {"k": 1, "kprime": 4} if name == "interval" else {}
        g = make(name, **params)
        # validate_game ran inside generate_benchmark; sanity-check the shape
        assert g.alphabet.symbols[0] == "s"
        assert game_size(g) >= 5


def test_interval_safe_membership():
    k, kprime = 2, 6
    g = make("interval", k=k, kprime=kprime)
    for p in range(kprime + 3):
        for tag in ("s", "e"):
            w = g.alphabet.word(tag + " l" * p)
            assert accepts(g.safe, w) == (k <= p <= kprime), (tag, p)
    # I is the single word at the left end of the safe strip
    assert accepts(g.initial, g.alphabet.word("s" + " l" * k))
    assert not accepts(g.initial, g.alphabet.word("s" + " l" * (k + 1)))


def test_interval_grows_with_kprime():
    small = make("interval", k=1, kprime=4)
    big = make("interval", k=1, kprime=8)
    assert game_size(big) > game_size(small)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        make("interval", k=5, kprime=3)
    with pytest.raises(ValueError):
        make("interval", k=3, kprime=3)
    with pytest.raises(ValueError):
        make("interval", k=2)  # kprime missing, no unbounded version
    with pytest.raises(ValueError):
        BenchmarkSpec("nonsense")
    with pytest.raises(ValueError):
        make("diagonal", bogus=3)
    with pytest.raises(ValueError):
        BenchmarkSpec("diagonal", {"width": "wide"})


def test_diagonal_truncation_winning_region():
    g = make("diagonal")
    # the cut: vertex words of length <= 7 and the moves between them
    v0 = language_upto(g.v0, 7)
    vertices = v0 | language_upto(g.v1, 7)
    edges = {(u, v) for u in vertices for v in vertices if pair_accepted_brute(g.edges, u, v)}
    assert (len(vertices), len(edges)) == (14, 24)
    safe = {w for w in vertices if accepts(g.safe, w)}
    region = safety_region(vertices, v0, edges, safe)
    A = g.alphabet
    # every on-diagonal cell (distance counter 0) is winning ...
    assert {A.word("s"), A.word("e")} <= region
    # ... and the full region is the strip the truncation can sustain
    assert region == {A.word(t) for t in ("s", "e", "s l", "e l", "s l l")}


def test_game_size_counts_all_components():
    g = make("halfline", k=2)
    assert game_size(g) == (
        g.v0.state_count + g.v1.state_count + g.edges.state_count
        + g.safe.state_count + g.initial.state_count
    )
