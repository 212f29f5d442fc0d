"""Teacher tests on the half-line game with k = 2.

The conjectures mirror the hand-run of the learning loop on that game:
the empty set, the Player-0 half {s l^n | n >= 2}, and the actual winning
set {s l^n | n >= 2} + {e l^m | m >= 3}.  The compiled-game tests also
query seeded random conjectures on the paper games.
"""

import random
import time
from dataclasses import replace

import pytest

from winset import learning, teacher
from winset.automata import (
    Nfa,
    Product,
    _reachable,
    determinize,
    finite_words,
    from_words,
    product_word,
    union,
)
from winset.benchmarks import BenchmarkSpec, generate_benchmark, halfline_game
from winset.errors import SolveTimeout
from winset.learning import LearnOptions, run_cegis
from winset.rpni import learn_rpni
from winset.satlearn import learn
from winset.teacher import (
    Existential,
    Negative,
    Positive,
    Universal,
    check_existential,
    check_initial,
    check_safe,
    check_universal,
    compile_game,
    query,
)

from oracles import (
    all_words,
    dfa_accepts_brute,
    language_upto,
    pair_accepted_brute,
    product_word_brute,
    random_dfa,
    random_nfa,
)

G = halfline_game(2)
CG = compile_game(G)
A = G.alphabet
W = A.word


def tag_tail(tag, k):
    """NFA for {tag l^n | n >= k}."""
    t = A.index(tag)
    l = A.index("l")
    trans = {(0, t, 1)} | {(i, l, i + 1) for i in range(1, k + 1)}
    trans.add((k + 1, l, k + 1))
    return Nfa(A, k + 2, 0, frozenset(trans), frozenset({k + 1}))


EMPTY = determinize(from_words(A, []))
HALF = determinize(tag_tail("s", 2))                       # {s l^n | n >= 2}
WINNING = determinize(union(tag_tail("s", 2), tag_tail("e", 3)))
SIGMA_STAR = determinize(Nfa(A, 1, 0, frozenset((0, a, 0) for a in range(3)), frozenset({0})))


def words(*texts):
    return tuple(map(W, texts))


def test_check_initial():
    assert check_initial(CG, EMPTY) == W("s l l")
    assert check_initial(CG, determinize(G.initial)) is None
    assert check_initial(CG, SIGMA_STAR) is None


def test_check_safe():
    only_sl = determinize(from_words(A, [W("s l")]))
    assert check_safe(CG, only_sl) == W("s l")
    assert check_safe(CG, WINNING) is None      # L(c) inside F
    assert check_safe(CG, determinize(G.safe)) is None


def test_check_safe_stops_once_a_finite_conjecture_can_no_longer_accept():
    # On interval(1,20000) F is a chain of ~20 000 subsets.  A conjecture
    # with a finite language inside F, no word longer than four letters, is
    # in a dead state after at most five, so the search stops there and
    # fills only the few rows of F it reached; searching on through the
    # rest of the chain fills ~20 000.
    g = compile_game(generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": 20000})))
    w = g.game.alphabet.word
    c = determinize(from_words(g.game.alphabet, [w("s l"), w("e l l l")]))
    assert check_safe(g, c) is None
    assert len(g.safe.subsets) < 50
    outside = determinize(from_words(g.game.alphabet, [w("e l"), w("s")]))
    assert check_safe(g, outside) == w("s")
    assert len(g.safe.subsets) < 50


def test_check_existential():
    hit = check_existential(CG, HALF)
    assert hit is not None
    u, conseq = hit
    assert u == W("s l l")
    assert finite_words(conseq) == words("e l l", "e l l l")
    assert check_existential(CG, EMPTY) is None   # vacuous
    assert check_existential(CG, WINNING) is None


def test_check_universal():
    c = determinize(union(tag_tail("s", 2), from_words(A, [W("e l l")])))
    hit = check_universal(CG, c)
    assert hit is not None
    u, conseq = hit
    assert u == W("e l l")
    assert finite_words(conseq) == words("s l", "s l l")   # s l escapes L(c)
    assert check_universal(CG, HALF) is None         # no Player-1 word kept
    assert check_universal(CG, WINNING) is None


def test_check_universal_where_the_vertices_have_dead_states():
    """Check 4 on halfline(2) with a dead branch in V0 (l from the start)
    and one in V1 (s after e): V0 ∪ V1 stays deterministic and has dead
    states.  Each answer is the least u in L(c) ∩ V1 with a successor in V
    outside L(c), found by brute force over words up to length 4; a move
    changes a word's length by at most 1, so words up to length 5 hold
    every successor of such a u."""
    s, e, l = (A.index(x) for x in "sel")
    v0 = Nfa(A, 3, 0, G.v0.transitions | {(0, l, 2)} | {(2, x, 2) for x in (s, e, l)},
             G.v0.accepting)
    v1 = Nfa(A, 3, 0, G.v1.transitions | {(1, s, 2), (2, l, 2)}, G.v1.accepting)
    g = replace(G, v0=v0, v1=v1)
    cg = compile_game(g)
    vertices = cg.vertices
    assert all(len(targets) <= 1 for row in vertices.moves for targets in row)
    dead = [q for q in range(vertices.state_count)
            if product_word([replace(vertices, initial=q)]) is None]
    assert len(dead) == 2
    cap = 4
    words = language_upto(vertices, cap + 1)
    succ = {u: {v for v in words if pair_accepted_brute(g.edges, u, v)}
            for u in sorted(language_upto(v1, cap), key=lambda u: (len(u), u))}
    rng = random.Random(7)
    found = 0
    for i in range(200):
        c = random_dfa(rng, A, max_states=4) if i % 2 else determinize(random_nfa(rng, A))
        brute = next((u for u, vs in succ.items() if dfa_accepts_brute(c, u)
                      and not all(dfa_accepts_brute(c, v) for v in vs)), None)
        hit = check_universal(cg, c)
        if brute is not None:
            assert hit is not None and hit[0] == brute, i
            found += 1
        else:
            assert hit is None or len(hit[0]) > cap, i
    assert 20 <= found <= 180, found

def test_query_trace():
    assert query(G, EMPTY) == Positive(W("s l l"))
    cex = query(G, HALF)
    assert isinstance(cex, Existential)
    assert cex.word == W("s l l")
    assert finite_words(cex.consequent) == words("e l l", "e l l l")
    assert query(G, WINNING) is None


def brute_successors(u):
    """All v with (u, v) in the edge relation; the half-line moves grow a
    word by at most one symbol, so length len(u)+1 bounds the search."""
    out = set()
    for v in all_words(len(A.symbols), len(u) + 1):
        if pair_accepted_brute(G.edges, u, v):
            out.add(v)
    return out


def test_counterexample_validity_clauses():
    for c in (EMPTY, HALF, WINNING, determinize(union(tag_tail("s", 2), from_words(A, [W("e l l")])))):
        cex = query(G, c)
        if cex is None:
            continue
        u = cex.word
        if isinstance(cex, Positive):
            assert dfa_accepts_brute(determinize(G.initial), u)
            assert not dfa_accepts_brute(c, u)
        elif isinstance(cex, Negative):
            assert dfa_accepts_brute(c, u)
            assert not dfa_accepts_brute(determinize(G.safe), u)
        else:
            conseq_words = set(finite_words(cex.consequent))
            assert conseq_words == brute_successors(u)
            assert dfa_accepts_brute(c, u)
            if isinstance(cex, Existential):
                assert dfa_accepts_brute(determinize(G.v0), u)
                assert not any(dfa_accepts_brute(c, v) for v in conseq_words)
            else:
                assert isinstance(cex, Universal)
                assert dfa_accepts_brute(determinize(G.v1), u)
                assert not all(dfa_accepts_brute(c, v) for v in conseq_words)


def test_yes_means_winning_on_finite_cuts():
    # query said yes for WINNING; re-check the definition vertex by vertex
    assert query(G, WINNING) is None
    v0 = determinize(G.v0)
    v1 = determinize(G.v1)
    initial = determinize(G.initial)
    safe = determinize(G.safe)
    for max_len in range(7):
        vertices = [w for w in all_words(len(A.symbols), max_len)
                    if dfa_accepts_brute(v0, w) or dfa_accepts_brute(v1, w)]
        for u in vertices:
            in_w = dfa_accepts_brute(WINNING, u)
            if dfa_accepts_brute(initial, u):
                assert in_w
            if not in_w:
                continue
            assert dfa_accepts_brute(safe, u)
            succ = brute_successors(u)
            if dfa_accepts_brute(v0, u):
                assert any(dfa_accepts_brute(WINNING, v) for v in succ)
            else:
                assert all(dfa_accepts_brute(WINNING, v) for v in succ)


def test_query_is_deterministic():
    for c in (EMPTY, HALF, WINNING):
        assert query(G, c) == query(G, c)


PAPER_GAMES = ("diagonal", "box", "solitary-box", "evasion", "follow", "program-repair")


def test_compile_game_is_idempotent():
    assert compile_game(CG) is CG
    assert CG.game is G


def test_compiled_game_gives_the_same_counterexamples():
    """Seeded random conjectures on the paper games: the compiled game
    answers as the plain one does, check 2 as brute force does, and each
    consequent is exactly E({u}), a finite language.  No paper game's move
    changes a word's length by more than 2, so words up to len(u) + 2 hold
    every successor of u."""
    for c in (EMPTY, HALF, WINNING, SIGMA_STAR):
        assert query(CG, c) == query(G, c)
    rng = random.Random(31)
    kinds = set()
    cap = 4  # longest word the brute-force check 2 tries
    for name in PAPER_GAMES:
        g = generate_benchmark(BenchmarkSpec(name))
        cg = compile_game(g)
        k = len(g.alphabet)
        succ = {}
        for i in range(50):
            # two conjectures in three cover I and one of those stays in F,
            # so that all four checks get to answer
            c = random_nfa(rng, g.alphabet)
            if i % 3:
                c = union(c, g.initial)
            if i % 3 == 2:
                c = _reachable(Product([c, g.safe]))
            c = determinize(c)
            cex = query(cg, c)
            assert cex == query(g, c), (name, i)
            unsafe = check_safe(cg, c)
            brute = product_word_brute([c], [g.safe], cap)
            if brute is not None:
                assert unsafe == brute, (name, i)
            else:
                assert unsafe is None or len(unsafe) > cap, (name, i)
            if isinstance(cex, (Existential, Universal)):
                u = cex.word
                if u not in succ:
                    succ[u] = {v for v in all_words(k, len(u) + 2)
                               if pair_accepted_brute(g.edges, u, v)}
                got = finite_words(cex.consequent)
                assert got is not None, (name, i)
                assert set(got) == succ[u], (name, i)
            kinds.add(type(cex))
    assert kinds == {Positive, Negative, Existential, Universal, type(None)}


def test_run_cegis_compiles_the_game_once(monkeypatch):
    compiled = []

    def counting(g):
        if not isinstance(g, teacher.CompiledGame):
            compiled.append(g)
        return compile_game(g)

    monkeypatch.setattr(teacher, "compile_game", counting)
    monkeypatch.setattr(learning, "compile_game", counting)
    for run in (learn, learn_rpni):
        compiled.clear()
        res = run(G)
        assert res.outcome == "solved" and res.iterations > 1
        assert compiled == [G]


def test_a_deadline_stops_the_teacher_inside_a_check():
    # check_safe walks s l^n up to n = k'+1 before it meets the unsafe word
    # s l^(k'+1), so with a conjecture that costs nothing the teacher is the
    # slow layer
    kprime = 20000
    g = generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": kprime}))
    c = determinize(tag_tail("s", 1))
    res = run_cegis(g, lambda s, solver, deadline: c, "fixed", LearnOptions(timeout=0.01))
    assert res.outcome == "timeout" and res.iterations == 1
    t0 = time.monotonic()
    cex = query(g, c)
    full = time.monotonic() - t0
    assert cex == Negative(W("s" + " l" * (kprime + 1)))
    assert res.wall_time < min(0.01 + 0.25, full / 2)
    assert query(g, c, deadline=time.monotonic() + 3600) == cex


def test_a_layer_the_deadline_interrupts_keeps_its_time():
    # a timed-out run's layer times still cover its wall time, apart from
    # the glue between the layers, whichever layer the deadline stops

    def until_the_deadline(s, solver, deadline):
        while time.monotonic() <= deadline:
            pass
        raise SolveTimeout("conjecture hit the deadline")

    res = run_cegis(G, until_the_deadline, "spin", LearnOptions(timeout=0.2))
    assert res.outcome == "timeout" and res.iterations == 1
    assert res.solve_time > 0.15
    assert res.wall_time - res.solve_time - res.teacher_time < 0.05

    # check_safe on interval(1,20000) runs past a 0.05 s deadline
    g = generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": 20000}))
    c = determinize(tag_tail("s", 1))
    res = run_cegis(g, lambda s, solver, deadline: c, "fixed", LearnOptions(timeout=0.05))
    assert res.outcome == "timeout" and res.iterations == 1
    assert res.teacher_time > 0.04
    assert res.wall_time - res.solve_time - res.teacher_time < 0.05

    # the sat learner's conjectures, from size 11 up, take seconds each here
    g = generate_benchmark(BenchmarkSpec("interval", {"k": 3, "kprime": 50}))
    res = learn(g, LearnOptions(timeout=0.5))
    assert res.outcome == "timeout"
    assert res.wall_time - res.solve_time - res.teacher_time < 0.05


def test_a_deadline_stops_the_existential_check_inside_its_image():
    # with F itself as the conjecture (20 003 states), check 3 searches the
    # pre-image of the conjecture to its end and finds nothing; the
    # pre-image is walked by that search, so the search's deadline covers it
    g = compile_game(generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": 20000})))
    c = determinize(g.game.safe)
    t0 = time.monotonic()
    assert check_existential(g, c) is None
    full = time.monotonic() - t0
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        check_existential(g, c, deadline=t0 + 0.02)
    assert time.monotonic() - t0 < min(0.02 + 0.2, full / 2)
