"""Benchmark generator tests: every family builds a valid game, interval
scales in k', and the diagonal game's finite cut is checked against a
brute-force safety-region computation."""

import hashlib

import pytest

from winset.benchmarks import BenchmarkSpec, FAMILIES, game_size, generate_benchmark
from winset.automata import accepts
from winset.game import serialize_game

from oracles import language_upto, pair_accepted_brute, safety_region


def make(name, **params):
    return generate_benchmark(BenchmarkSpec(name, params))


# SHA-256 of serialize_game per cell: the bytes of the games every result is
# measured on
PINNED_GAMES = [
    ("diagonal", {},
     "3655292a3e9b175ea81dd37ffd415609466b67a7c437461e63ebef1c9e9dec88"),
    ("box", {},
     "84c8349ed706e761e112a0b9ba55982e6630ca5ef4630a141415bfb9a06edda6"),
    ("solitary-box", {},
     "9e9bd1de53e5f90acc06f8ec8386c5c25f4daa110ddd3bc8aaf189c04a2f6e2e"),
    ("evasion", {},
     "b65aa0ba3eeed985a8dfbf956d41704e0db5a7247564a060d5d56dbb79e5df8d"),
    ("follow", {},
     "23cd7f773c0aa43fea743c68bf7e90d9c0c7745383ce123979f83fc4893d788f"),
    ("program-repair", {},
     "0ddbfc2cd133faec5eac7fc2f055fca82fbc9a0eadeb16365d1652f81a088429"),
    ("halfline", {},
     "28d30347945d13d0a1f7c7034d6ce39a0a4e40c572c7c2707aff80a936ba7d3c"),
    ("interval", {"k": 1, "kprime": 100},
     "423c99d38785bde2c90723bf37b89b9a7bffa1bca7ac0d6c9caa56b64a1e8c13"),
    ("interval", {"k": 1, "kprime": 500},
     "6f3f74ab0d40a6765e0afa841ee68a8c0a3482621a0b6eb0b2399edae9c6e5f8"),
    ("interval", {"k": 1, "kprime": 1000},
     "79a562507a0baf5f31eddae2e5e3e2157d01c5934754d47be30be087a8f69c06"),
    ("interval", {"k": 1, "kprime": 2000},
     "14c24b53525dacaf4a6a1ffe32651648fd4573af9c17e47f147742faa9e7c895"),
    ("interval", {"k": 1, "kprime": 8000},
     "e0005c2eb439e13b02616564696a22e415ffcc4aa7b8bc1841fe63e82005805b"),
    ("interval", {"k": 3, "kprime": 50},
     "66538aa07c6e2741f123f807e31e1c2fb0dc9516ac0a57c05026a5be0e37b999"),
    ("interval", {"k": 4, "kprime": 50},
     "4232fb5fca5a7e57049732e6c94fc4340bb38a1bcc2ebb6044781d2416749416"),
    ("evasion", {"start": 12},
     "5d7a2571a75b347bf09212b2478737a1bbb479aa56f7b8149a13421e7e995b36"),
    ("evasion", {"start": 36},
     "65aef62e20ea37155c140dccbadff63843ae3066a9b3be0158da935ba60e9265"),
    ("follow", {"bound": 3},
     "c88f873cac175e8beee6ff5523d32925bbba598e94ff5113d3f6125cc4d10cc3"),
]


@pytest.mark.parametrize("name, params, sha256", PINNED_GAMES,
                         ids=[f"{n}({','.join(f'{k}={v}' for k, v in p.items())})"
                              for n, p, _ in PINNED_GAMES])
def test_pinned_game_bytes(name, params, sha256):
    text = serialize_game(make(name, **params))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256

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
