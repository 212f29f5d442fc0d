"""Game file format, validation, DFA files."""

import pytest

from winset.automata import Alphabet, Dfa, accepts, determinize
from winset.benchmarks import BenchmarkSpec, generate_benchmark
from winset.errors import GameFormatError, InvariantViolation
from winset.game import (
    RationalSafetyGame,
    parse_dfa,
    parse_game,
    serialize_dfa,
    serialize_game,
)

from oracles import language_upto, pair_accepted_brute

BAD_OVERLAP = """\
[alphabet]
s e l
[v0]
states: 1
initial: 0
accepting: 0
[v1]
states: 1
initial: 0
accepting: 0
[edges]
states: 1
initial: 0
accepting:
[safe]
states: 1
initial: 0
accepting: 0
[initial]
states: 1
initial: 0
accepting:
"""


def halfline(k=2):
    return generate_benchmark(BenchmarkSpec("halfline", {"k": k}))


def test_serialize_parse_roundtrip():
    g = halfline(2)
    h = parse_game(serialize_game(g))
    assert accepts(h.initial, h.alphabet.word("s l l"))
    assert not accepts(h.initial, h.alphabet.word("s l"))
    for name in ("v0", "v1", "safe", "initial"):
        assert language_upto(getattr(h, name), 5) == language_upto(getattr(g, name), 5)
    for u in language_upto(g.v0, 3) | language_upto(g.v1, 3):
        for v in language_upto(g.v0, 4) | language_upto(g.v1, 4):
            assert pair_accepted_brute(h.edges, u, v) == pair_accepted_brute(g.edges, u, v)


def test_comments_and_blank_lines_ignored():
    text = serialize_game(halfline(1))
    noisy = "# header comment\n" + text.replace("[v0]", "[v0]  # players\n")
    g = parse_game(noisy)
    assert accepts(g.v0, g.alphabet.word("s"))


def test_overlapping_v0_v1_rejected_with_witness():
    # both sides accept the empty word in this broken file
    with pytest.raises(InvariantViolation) as err:
        parse_game(BAD_OVERLAP)
    assert "disjoint" in str(err.value)


def test_initial_outside_safe_rejected():
    g = halfline(2)
    bad = RationalSafetyGame(
        alphabet=g.alphabet, v0=g.v0, v1=g.v1, edges=g.edges,
        safe=g.safe, initial=g.v0,  # s l* is not inside (s|e) l l l*
    )
    with pytest.raises(InvariantViolation) as err:
        parse_game(serialize_game(bad))
    assert "included" in str(err.value)


def test_syntax_errors_carry_line_numbers():
    text = serialize_game(halfline(1))
    lines = text.splitlines()
    # corrupt the state count of the first automaton section
    target = next(i for i, ln in enumerate(lines) if ln.startswith("states:"))
    lines[target] = "states: x"
    with pytest.raises(GameFormatError) as err:
        parse_game("\n".join(lines))
    assert err.value.line == target + 1
    assert "x" in str(err.value)
    with pytest.raises(GameFormatError):
        parse_game("[alphabet]\ns e l\n[nonsense]\n")
    with pytest.raises(GameFormatError):
        parse_game("[alphabet]\ns e l\n")  # missing sections
    duplicated = text + "\n[safe]\nstates: 1\ninitial: 0\naccepting:\n"
    with pytest.raises(GameFormatError):
        parse_game(duplicated)


def test_dfa_file_roundtrip():
    g = halfline(2)
    d = determinize(g.safe)
    text = serialize_dfa(d)
    back = parse_dfa(text)
    assert back == d


def test_parse_dfa_rejects_partial_and_nondeterministic():
    A = Alphabet(("a", "b"))
    partial = """\
[alphabet]
a b
[dfa]
states: 2
initial: 0
accepting: 1
0 a 1
"""
    with pytest.raises(GameFormatError):
        parse_dfa(partial)
    doubled = """\
[alphabet]
a b
[dfa]
states: 2
initial: 0
accepting: 1
0 a 1
0 a 0
0 b 0
1 a 0
1 b 0
"""
    with pytest.raises(GameFormatError):
        parse_dfa(doubled)
    ok = parse_dfa(serialize_dfa(Dfa(A, 1, ((0, 0),), frozenset({0}))))
    assert ok.state_count == 1
