"""Game file format, validation, DFA files."""

import pytest

from winset import automata
from winset.automata import Alphabet, Dfa, Nfa, accepts, determinize, product_word
from winset.benchmarks import BenchmarkSpec, generate_benchmark
from winset.errors import GameFormatError, InvariantViolation
from winset.game import (
    RationalSafetyGame,
    parse_dfa,
    parse_game,
    serialize_dfa,
    serialize_game,
)
from winset.relations import Transducer
from winset.teacher import query

from oracles import language_upto, nth_last_is_a, pair_accepted_brute

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


def test_every_game_written_reads_back():
    # States that appear in no line: every state number multiplied by k,
    # so the numbers between are unused.  Written as they are while the
    # reader takes the count (k = 2 here); past that (k = 100) the writer
    # leaves the unused states out and numbers the rest down, which gives
    # the text of the game as it was.
    g = halfline(2)

    def spread(k):
        def nfa(a):
            return Nfa(a.alphabet, k * a.state_count, k * a.initial,
                       frozenset((k * p, sym, k * q) for (p, sym, q) in a.transitions),
                       frozenset(k * q for q in a.accepting))

        e = g.edges
        edges = Transducer(g.alphabet, k * e.state_count, k * e.initial,
                           frozenset((k * p, x, y, k * q) for (p, x, y, q) in e.transitions),
                           frozenset(k * q for q in e.accepting))
        return RationalSafetyGame(g.alphabet, nfa(g.v0), nfa(g.v1), edges, nfa(g.safe), nfa(g.initial))

    two = serialize_game(spread(2))
    assert "states: 8" in two and two != serialize_game(g)
    h = parse_game(two)
    for name in ("v0", "v1", "safe", "initial"):
        assert language_upto(getattr(h, name), 5) == language_upto(getattr(g, name), 5)
    assert serialize_game(spread(100)) == serialize_game(g)
    # an automaton with no moves and no accepting state is one state
    empty = Nfa(g.alphabet, 3, 0, frozenset(), frozenset())
    text = serialize_game(RationalSafetyGame(g.alphabet, g.v0, g.v1, g.edges, g.safe, empty))
    assert text.endswith("[initial]\nstates: 1\ninitial: 0\naccepting: \n")
    assert product_word([parse_game(text).initial]) is None


def test_a_nondeterministic_v0_is_searched_without_its_subset_construction(monkeypatch):
    # v0 = (a|b)* a (a|b)^30.  Reading the game checks that v0 is not
    # empty, and the teacher searches products over v0 and V0 ∪ V1; the
    # subset construction of v0 would reach about 2^30 subsets before the
    # least word a^31.  Every subset construction is capped at 1000 rows
    # here, so a search that built v0's stops at once.
    class Capped(automata._Rows):
        def __missing__(self, state):
            assert len(self) < 1000, "a subset construction grew past 1000 rows"
            return super().__missing__(state)

    monkeypatch.setattr(automata, "_Rows", Capped)
    A = Alphabet(("a", "b"))
    eps = Nfa(A, 1, 0, frozenset(), frozenset({0}))
    everything = Nfa(A, 1, 0, frozenset({(0, 0, 0), (0, 1, 0)}), frozenset({0}))
    no_edges = Transducer(A, 1, 0, frozenset(), frozenset())
    g = RationalSafetyGame(A, nth_last_is_a(A, 30), eps, no_edges, everything, eps)
    h = parse_game(serialize_game(g))
    assert product_word([h.v0]) == A.word("a " * 31)
    # {ε} is a winning set: it holds I, and its one vertex, of Player 1,
    # has no successor; checks 3 and 4 search products over v0 and V0 ∪ V1
    only_eps = Dfa(A, 2, ((1, 1), (1, 1)), frozenset({0}))
    assert query(h, only_eps) is None
    # a^31 ∪ {ε} holds a vertex of Player 0 with no successor: check 3
    # answers with it
    a31 = Dfa(A, 33, tuple((min(i + 1, 32), 32) for i in range(33)), frozenset({0, 31}))
    hit = query(h, a31)
    assert hit is not None and hit.word == A.word("a " * 31)


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


# (section, bad move line, the token its message must name); halfline's
# alphabet is s e l
BAD_MOVE_LINES = [
    *((section, line, token) for section in ("v0", "dfa") for line, token in (
        ("0 s", "0 s"),  # a wrong token count
        ("0 s 1 1", "0 s 1 1"),
        ("x s 1", "x"),  # a state that is not a number
        ("0 s y", "y"),
        ("0 q 1", "q"),  # an unknown symbol
        ("0 _ 1", "_"),  # epsilon is a transducer label only
        ("0 s/e 1", "s/e"),
    )),
    ("edges", "0 s/e", "0 s/e"),
    ("edges", "0 s/e 1 1", "0 s/e 1 1"),
    ("edges", "x s/e 1", "x"),
    ("edges", "0 s/e y", "y"),
    ("edges", "0 q/e 1", "q"),
    ("edges", "0 s/q 1", "q"),
    ("edges", "0 se 1", "se"),  # a label without exactly one /
    ("edges", "0 s/e/l 1", "s/e/l"),
    # a state out of range, on a move line of a 2-state [v0], a [dfa] and
    # a 5-state [edges], and on the `initial:` and `accepting:` lines; no
    # state at all
    ("v0", "0 s -1", "-1"),
    ("v0", "5 s 1", "5"),
    ("dfa", "0 s 9", "9"),
    ("edges", "0 s/e 9", "9"),
    ("v0", "initial: 3", "3"),
    ("v0", "accepting: 1 7", "7"),
    ("edges", "accepting: 1 -2", "-2"),
    ("v0", "states: 0", "'states:'"),
]


@pytest.mark.parametrize("section, bad, token", BAD_MOVE_LINES)
def test_a_bad_move_line_is_named_by_its_line_and_token(section, bad, token):
    g = halfline(2)
    text = serialize_dfa(determinize(g.safe)) if section == "dfa" else serialize_game(g)
    lines = text.splitlines()
    # a move line goes past states:, initial: and accepting:
    offset = {"states": 1, "initial": 2, "accepting": 3}.get(bad.split(":")[0], 4)
    i = lines.index(f"[{section}]") + offset
    lines[i] = bad
    with pytest.raises(GameFormatError) as err:
        (parse_dfa if section == "dfa" else parse_game)("\n".join(lines))
    assert err.value.line == i + 1
    assert token in str(err.value)


def test_dfa_file_roundtrip():
    g = halfline(2)
    d = determinize(g.safe)
    text = serialize_dfa(d)
    back = parse_dfa(text)
    assert back == d
    # the exact text, with no newline after the last move
    two = Dfa(Alphabet(("a", "b")), 2, ((1, 0), (1, 1)), frozenset({1}))
    assert serialize_dfa(two) == (
        "[alphabet]\na b\n\n[dfa]\nstates: 2\ninitial: 0\naccepting: 1\n"
        "0 a 1\n0 b 0\n1 a 1\n1 b 1"
    )
    assert parse_dfa(serialize_dfa(two)) == two


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
    # a count its lines can name, but not cover: the first gap is named
    with pytest.raises(GameFormatError) as err:
        parse_dfa(partial.replace("states: 2", "states: 3"))
    assert "missing the transition from state 0 on 'b'" in str(err.value)
    with pytest.raises(GameFormatError) as err:
        parse_dfa(doubled)
    assert "nondeterministic at state 0 on 'a'" in str(err.value)


def test_a_state_count_past_what_the_lines_name_is_rejected():
    # one accepting state and one move line name at most 1 + 1 + 2 states
    section = "states: {}\ninitial: 0\naccepting: 1\n0 a 1\n"
    dfa = "[alphabet]\na\n[dfa]\n" + section
    with pytest.raises(GameFormatError) as err:
        parse_dfa(dfa.format(4))
    assert "missing the transition from state 1" in str(err.value)  # 4 passes the count
    for count in (5, 100000000, 99999999999999999999):
        with pytest.raises(GameFormatError) as err:
            parse_dfa(dfa.format(count))
        assert err.value.line == 4 and "at most 4" in str(err.value)
    # in a game section, and in the transducer section too
    lines = serialize_game(halfline(1)).splitlines()
    for name in ("safe", "edges"):
        text = list(lines)
        i = text.index(f"[{name}]") + 1
        text[i] = "states: 100000000"
        with pytest.raises(GameFormatError) as err:
            parse_game("\n".join(text))
        assert err.value.line == i + 1
