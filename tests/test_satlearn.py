"""SAT learner tests: the encoding's shape, its variable semantics, frozen
sat/unsat decisions cross-checked by exhaustive DFA enumeration, the
learning loop on the half-line game, and the size schedule below the
winning set the rpni phase finds."""

import contextlib
import gc
import io
import itertools
import random
import runpy
import time
from dataclasses import replace
from pathlib import Path

import pytest

from winset import rpni, satlearn
from winset.automata import Alphabet, Nfa, from_words, product_word
from winset.benchmarks import BenchmarkSpec, generate_benchmark, halfline_game
from winset.errors import (
    CapExceededError,
    ExternalSolverError,
    InternalConsistencyError,
    SolveTimeout,
)
from winset.learning import LearnOptions
from winset.prop import CnfInstance, solve_internal
from winset.rpni import learn_rpni
from winset.sample import Sample, add, chi, dump_sample, empty_sample, extends, is_consistent
from winset.satlearn import (
    VarBook,
    build_dfa_constraints,
    build_run_constraints,
    extract_dfa,
    learn,
    minimal_consistent_dfa,
)
from winset.game import serialize_dfa
from winset.teacher import check_safe, compile_game, query

from oracles import (
    bfs_order,
    exists_consistent_dfa,
    labelled_words,
    language_upto,
    make_sample,
    random_nfa,
    random_sample_parts,
    random_word,
)

AB = Alphabet(("a", "b"))
UNARY = Alphabet(("l",))


def encoded(s, n):
    """A fresh book for size n, extended by all of s."""
    book = VarBook(s.alphabet, n)
    book.extend(s)
    return book


def solve_sample(s, n):
    book = encoded(s, n)
    return solve_internal(book.cnf), book


def test_dfa_constraint_clause_counts():
    book = VarBook(AB, 2)
    clauses = build_dfa_constraints(book)
    pairwise = [c for c in clauses if all(lit < 0 for lit in c)]
    totality = [c for c in clauses if all(lit > 0 for lit in c)]
    assert len(pairwise) == 2 * 2 * 1  # states x symbols x unordered pairs
    assert all(len(c) == 2 for c in pairwise)
    assert len(totality) == 2 * 2
    assert all(len(c) == 2 for c in totality)
    assert len(clauses) == len(pairwise) + len(totality)


def test_reordering_clauses_leaves_the_book_alone():
    # a solver may reorder a clause's literals in place; no clause list may
    # be a row of the book's d-table
    s = make_sample(AB, [AB.word("a"), AB.word("a b")], [AB.word("b")], [], [])
    book = encoded(s, 2)
    cnf = book.cnf
    model = solve_internal(cnf)
    dfa = extract_dfa(model, book)
    dt = [[ds[:] for ds in row] for row in book.dt]
    for clause in cnf.clauses:
        clause.reverse()
    assert book.dt == dt
    assert extract_dfa(model, book) == dfa


def test_z_layer_bound():
    a, b = AB.index("a"), AB.index("b")
    one_word = from_words(AB, [AB.word("a")])  # two states: eps, a
    a_bstar = Nfa(AB, 2, 0, frozenset({(0, a, 1), (1, b, 1)}), frozenset({1}))
    empty = Nfa(AB, 2, 0, frozenset({(0, a, 1), (1, a, 1)}), frozenset())
    n = 3
    cases = [
        (one_word, 1),  # its longest word, not n·|Q_A| − 1 = 5
        (a_bstar, n * 2 - 1),  # a cycle on an accepting path: the pigeonhole bound
        (empty, 0),  # nothing to witness
    ]
    for conseq, k in cases:
        assert conseq.state_count == 2
        s = Sample(AB, (), (), (((), conseq),), ())
        book = encoded(s, n)
        assert book.k(0) == k
        # z ids cover exactly layers 0..k, right after the empty prefix's
        # x-block, and the item's gates come after them
        first, top = book.z(0, 0, 0, 0), book.z(0, n - 1, 1, book.k(0))
        assert first == book.x((), n - 1) + 1
        assert top - first + 1 == n * 2 * (k + 1)
        assert min(book.gates.values()) == top + 1


def test_run_constraints_on_empty_universe():
    book = VarBook(AB, 1)
    assert book.prefixes == [()]
    x = book.x((), 0)
    assert [c for c in book.cnf.clauses if x in c or -x in c] == [[x]]
    # a numbered prefix is never numbered again
    assert build_run_constraints(book, ()) == []
    assert book.var_count == x


def test_gate_vars_are_appended_above_the_blocks():
    """Every gate is numbered after the fixed blocks and after the x-, y-
    and z-blocks of the item that first needs it, and is used."""
    a, b = AB.word("a"), AB.word("b")
    s = make_sample(AB, [()], [a], [((), [a, b])], [((), [b])])
    fixed = VarBook(AB, 2).var_count
    book = encoded(s, 2)
    cnf = book.cnf
    assert cnf.var_count == book.var_count > fixed
    used = {abs(lit) for clause in cnf.clauses for lit in clause}
    gates = sorted(book.gates.values())
    assert set(gates) <= used and len(set(gates)) == len(gates)
    # the universal item comes first and makes the acceptance gate of eps
    assert gates[0] == book.y(0, 1, 1) + 1 < book.z(0, 0, 0, 0)
    # both implications share the one acceptance gate of the word eps
    assert sum(1 for key in book.gates if key[0] == "acc") == 1
    assert gates[-1] == cnf.var_count > book.z(0, 1, 2, book.k(0))
    again = encoded(s, 2).cnf
    assert again == cnf  # the emission order is fixed


def test_emitted_clauses_are_clean():
    """Over acceptance check 4's random samples, every clause the encoders
    emit mentions each variable once, and only variables 1..var_count; and
    no two clauses of one encoding have the same set of literals.  Repeated
    items are merged first, as `add` merges them in a learned sample."""
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        s = make_sample(AB, *random_sample_parts(rng))
        s = Sample(AB, *(tuple(dict.fromkeys(items)) for items in (s.pos, s.neg, s.ex, s.uni)))
        cnfs = [encoded(s, n).cnf for n in (1, 2, 3)]
        cnfs.append(chi(s)[0])
        for cnf in cnfs:
            for clause in cnf.clauses:
                vs = [abs(lit) for lit in clause]
                assert clause and len(set(vs)) == len(vs), clause
                assert 1 <= min(vs) and max(vs) <= cnf.var_count, (clause, cnf.var_count)
            distinct = {frozenset(clause) for clause in cnf.clauses}
            assert len(distinct) == len(cnf.clauses), cnf.var_count
            checked += 1
    assert checked == 800


def symmetry_clauses(book):
    """The BFS predicates among the book's clauses."""
    sym = book.symmetry_vars
    return [c for c in book.cnf.clauses if any(abs(lit) in sym for lit in c)]


def test_symmetry_predicates_pick_the_bfs_numbering():
    """With the d-variables fixed to a total DFA, the predicates hold exactly
    when every state is reachable from 0 and numbered breadth-first: one
    labelling per reachable DFA.  Every DFA up to 3 states over 2 symbols
    and up to 4 states over 1 symbol."""
    for alphabet, n_max in ((AB, 3), (UNARY, 4)):
        nsym = len(alphabet.symbols)
        for n in range(1, n_max + 1):
            book = VarBook(alphabet, n)
            block = symmetry_clauses(book)
            # t, p and m: n(n-1)/2 each, m once per symbol, right after f;
            # every one used, next to d-variables only
            top = book.f(n - 1)
            assert book.symmetry_vars == range(top + 1, top + 1 + n * (n - 1) // 2 * (2 + nsym))
            used = {abs(lit) for clause in block for lit in clause}
            assert set(book.symmetry_vars) <= used <= set(book.symmetry_vars) | set(range(1, book.f(0)))
            labelled, shapes = 0, set()
            for flat in itertools.product(range(n), repeat=n * nsym):
                delta = [flat[p * nsym:(p + 1) * nsym] for p in range(n)]
                fixed = [[book.d(p, a, q) if delta[p][a] == q else -book.d(p, a, q)]
                         for p in range(n) for a in range(nsym) for q in range(n)]
                model = solve_internal(CnfInstance(book.var_count, fixed + block))
                order = bfs_order(delta)
                assert (model is not None) == (order == list(range(n))), delta
                labelled += model is not None
                if len(order) == n:  # reachable: keep its breadth-first relabelling
                    where = {q: i for i, q in enumerate(order)}
                    shapes.add(tuple(tuple(where[r] for r in delta[q]) for q in order))
            assert labelled == len(shapes)


def test_symmetry_block_keeps_every_answer():
    """φ_n has the same SAT/UNSAT answer with and without its BFS
    predicates, at and above the least satisfiable size: acceptance check
    4's samples (sizes 1-4), and samples that a hidden 3-6 state DFA fits
    (sizes 1-5), whose searches run into restarts."""
    rng = random.Random(4)
    cases = [(make_sample(AB, *random_sample_parts(rng)), (1, 2, 3, 4)) for _ in range(200)]
    for _ in range(100):
        k = rng.randint(3, 6)
        delta = [[rng.randrange(k) for _ in AB.symbols] for _ in range(k)]
        acc = {q for q in range(k) if rng.random() < 0.5}
        pos, neg = labelled_words(rng, delta, acc, 8, 7)
        cases.append((make_sample(AB, pos, neg, [], []), (1, 2, 3, 4, 5)))
    counts = {"sat": 0, "unsat": 0, "sat above the minimum": 0, "unsat above 2": 0}
    for s, sizes in cases:
        least = None
        for n in sizes:
            book = encoded(s, n)
            cnf = book.cnf
            sym = set(book.symmetry_vars)
            plain = [c for c in cnf.clauses if not any(abs(lit) in sym for lit in c)]
            assert len(plain) < len(cnf.clauses) or n == 1
            model = solve_internal(cnf)
            assert (model is None) == (solve_internal(CnfInstance(cnf.var_count, plain)) is None)
            if model is not None and least is None:
                least = n
            counts["unsat" if model is None else "sat"] += 1
            counts["sat above the minimum"] += model is not None and n > least
            counts["unsat above 2"] += model is None and n > 2
    assert min(counts.values()) >= 100, counts


def test_growing_samples_match_exhaustive_dfa_search():
    """One book per size n = 1..3, extended item by item as a learner's
    sample grows and solved on by its one live solver: after every item the
    answer matches exhaustive DFA search, every model's DFA fits the sample
    so far, and an UNSAT size stays UNSAT."""
    rng = random.Random(1414)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        pos, neg, ex, uni = random_sample_parts(rng, max_len=3, max_consequent=2)
        order = [("pos", w) for w in pos] + [("neg", w) for w in neg]
        order += [("ex", item) for item in ex] + [("uni", item) for item in uni]
        rng.shuffle(order)
        books = {n: VarBook(AB, n) for n in (1, 2, 3)}
        parts = {"pos": [], "neg": [], "ex": [], "uni": []}
        was_sat = {n: True for n in books}
        for kind, item in order:
            if item in parts[kind]:
                continue  # `add` keeps a sample's items distinct
            parts[kind].append(item)
            s = make_sample(AB, parts["pos"], parts["neg"], parts["ex"], parts["uni"])
            for n, book in books.items():
                book.extend(s)
                model = solve_internal(book.cnf)
                want = exists_consistent_dfa(2, n, parts["pos"], parts["neg"], parts["ex"], parts["uni"])
                assert (model is not None) == want, (parts, n)
                assert want <= was_sat[n]
                was_sat[n] = want
                verdicts[want] += 1
                if model is not None:
                    ok, bad = is_consistent(extract_dfa(model, book), s)
                    assert ok, bad
        # the one-shot encoding numbers as many variables and emits as many
        # clauses, in another order when the kinds interleave
        for n, book in books.items():
            once = encoded(s, n).cnf
            assert (once.var_count, len(once.clauses)) == (book.var_count, len(book.cnf.clauses))
    assert min(verdicts.values()) >= 150, verdicts


def test_a_book_refuses_a_sample_that_does_not_extend_it():
    a, b = AB.word("a"), AB.word("b")
    book = encoded(make_sample(AB, [a, b], [], [], []), 2)
    with pytest.raises(ValueError):
        book.extend(make_sample(AB, [b, a], [], [], []))
    book.extend(make_sample(AB, [a, b, ()], [], [], []))
    assert book.done.pos == (a, b, ())


def cycle_consequent(alphabet, states):
    """An automaton with an infinite language: a on a cycle through every
    state, b jumping ahead, the last state accepting."""
    trans = {(q, 0, (q + 1) % states) for q in range(states)}
    trans |= {(q, 1, (5 * q + 1) % states) for q in range(states)}
    return Nfa(alphabet, states, 0, frozenset(trans), frozenset({states - 1}))


def test_the_encoder_reads_the_deadline_between_items():
    """Twenty existential items with a 10-state consequent take a while to
    encode at n = 3.  A tight deadline stops the encoding with SolveTimeout
    after a small share of that time, whether `extend` is called directly
    or by the learner's scan, and the next call encodes from where it
    stopped."""
    conseq = cycle_consequent(AB, 10)
    antecedents = list(itertools.product((0, 1), repeat=5))[:20]
    s = Sample(AB, ((),), ((0,),), tuple((u, conseq) for u in antecedents), ())
    t0 = time.monotonic()
    full = encoded(s, 3).cnf
    full_s = time.monotonic() - t0
    book = VarBook(AB, 3)
    # a full collection walking the CNFs built here would otherwise land in
    # a timed window now and then; start each window with a fresh count
    gc.collect()
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        book.extend(s, deadline=t0 + 0.02)
    assert time.monotonic() - t0 < full_s / 3, full_s
    assert 0 < len(book.done.ex) < len(s.ex)
    book.extend(s)
    assert book.cnf == full
    # the learner's scan, resumed at n = 3 as after two refuted sizes
    books = {3: VarBook(AB, 3)}
    gc.collect()
    t0 = time.monotonic()
    with pytest.raises(SolveTimeout):
        minimal_consistent_dfa(s, deadline=t0 + 0.02, books=books)
    assert time.monotonic() - t0 < full_s / 3, full_s
    assert list(books) == [3]


def test_a_plugged_in_solver_that_lies_unsat_is_caught():
    """A plugged-in solver's UNSAT on φ_n is re-proved before the scan moves
    past n: a lie at one size raises ExternalSolverError and keeps the book;
    an honest UNSAT at n = 1 passes."""
    a = AB.word("a")
    s = make_sample(AB, [a], [()], [], [])  # needs two states
    books = {}

    def liar(cnf, deadline=None):
        if 2 in books and cnf is books[2].cnf:
            return None
        return solve_internal(cnf, deadline)

    with pytest.raises(ExternalSolverError):
        minimal_consistent_dfa(s, solver=liar, books=books)
    assert list(books) == [2]
    honest = lambda cnf, deadline=None: solve_internal(cnf, deadline)
    books = {}
    assert minimal_consistent_dfa(s, solver=honest, books=books).state_count == 2
    assert list(books) == [2]


def test_learning_is_deterministic():
    """Two runs learn byte-identical DFAs from the same samples in as many
    iterations, through the rpni phase and the sat schedule."""
    for spec in (BenchmarkSpec("evasion", {}), BenchmarkSpec("follow", {"bound": 2})):
        g = generate_benchmark(spec)
        runs = [learn(g) for _ in range(2)]
        assert runs[0].outcome == runs[1].outcome == "solved"
        assert serialize_dfa(runs[0].dfa) == serialize_dfa(runs[1].dfa)
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].sample == runs[1].sample
        assert dump_sample(runs[0].sample) == dump_sample(runs[1].sample)


def paper_game(family, **params):
    return generate_benchmark(BenchmarkSpec(family, params))


# (family, parameters, minimal size); the sat learner must return these
PAPER_SIZES = (
    ("diagonal", {"width": 2}, 5),
    ("box", {"height": 2}, 5),
    ("solitary-box", {"height": 2}, 4),
    ("evasion", {"start": 2}, 6),
    ("follow", {"bound": 2}, 7),
    ("program-repair", {}, 6),
)


def recorded_books(monkeypatch):
    """Every VarBook the learner makes from now on, in order."""
    made = []

    class Recorded(VarBook):
        def __init__(self, alphabet, n, safe=None, deadline=None):
            super().__init__(alphabet, n, safe, deadline)
            made.append(self)

    monkeypatch.setattr(satlearn, "VarBook", Recorded)
    return made


def test_the_schedule_descends_from_the_rpni_winning_set(monkeypatch):
    """rpni's winning set bounds the size from above, and the sat phase
    goes on from rpni's sample.  Below a winning set of size hi it solves
    φ_{hi-1} alone, in one live book, and one UNSAT ends the run.  box(2):
    rpni finds 7 states and the minimum is 5; follow(2): rpni's 7 states
    are the minimum."""
    for g, rpni_size, sizes in ((paper_game("box", height=2), 7, [6, 5, 4]),
                                (paper_game("follow", bound=2), 7, [6])):
        first = learn_rpni(g, LearnOptions(timeout=300 * satlearn.RPNI_SHARE), inside_safe=False)
        assert first.outcome == "solved" and first.dfa.state_count == rpni_size
        made = recorded_books(monkeypatch)
        res = learn(g)
        assert res.outcome == "solved" and res.dfa.state_count == sizes[-1] + 1
        assert query(g, res.dfa) is None
        assert [book.n for book in made] == sizes
        assert res.iterations > first.iterations
        assert extends(res.sample, first.sample)


def test_the_rpni_phase_merges_without_the_walk_through_f(monkeypatch):
    """`learn`'s rpni phase keeps the merges that leave F, so the sat phase
    starts from the unsafe words the teacher returned for them.  Pinned
    (iterations, sample sizes).  With the walk the rpni phase adds no
    negative word, and the sample keeps fewer pairs of prefixes apart:
    interval(5,50) took 22.9 s instead of 13.5-15.7 s, and acceptance
    check 2's re-proof, which fixes a clique of such pairs, took 3.98 s
    against 0.24 s of learning (one run each, 2-vCPU machine)."""
    walks = []
    monkeypatch.setattr(rpni, "_inside", lambda *args: walks.append(args))
    for g, iterations, sizes in ((paper_game("follow", bound=2), 19, (1, 12, 1, 3)),
                                 (paper_game("box", height=2), 22, (1, 11, 3, 3))):
        res = learn(g)
        assert res.outcome == "solved"
        assert (res.iterations, res.sample_sizes) == (iterations, sizes)
    assert walks == []


def test_the_sat_phase_adds_no_negative_word(monkeypatch):
    """F's block keeps every φ_n model inside F, so teacher check 2 passes
    every conjecture of the sat phase and its sample gains no negative
    word over the rpni phase's."""
    conjectures = []
    real = satlearn.minimal_consistent_dfa

    def recorded(*args, **kwargs):
        conjectures.append(real(*args, **kwargs))
        return conjectures[-1]

    monkeypatch.setattr(satlearn, "minimal_consistent_dfa", recorded)
    checked = 0
    for family, params, size in PAPER_SIZES:
        g = paper_game(family, **params)
        first = learn_rpni(g, LearnOptions(timeout=300 * satlearn.RPNI_SHARE), inside_safe=False)
        del conjectures[:]
        res = learn(g)
        assert (res.outcome, res.dfa.state_count) == ("solved", size), family
        assert all(check_safe(g, c) is None for c in conjectures), family
        assert res.sample.neg == first.sample.neg, family
        checked += len(conjectures)
    assert checked > 0


def test_without_the_block_the_teacher_keeps_the_dfa_inside_f(monkeypatch):
    """Above SAFE_BLOCK_BUDGET a book has no F block, and the run is the
    one check 2's counterexamples drive: follow(2) still learns its
    7 states, in 50 iterations."""
    g = compile_game(paper_game("follow", bound=2))
    assert VarBook(g.game.alphabet, 6, g.safe).var_count > VarBook(g.game.alphabet, 6).var_count
    monkeypatch.setattr(satlearn, "SAFE_BLOCK_BUDGET", 0)
    assert VarBook(g.game.alphabet, 6, g.safe).var_count == VarBook(g.game.alphabet, 6).var_count
    res = learn(g)
    assert (res.outcome, res.dfa.state_count, res.iterations) == ("solved", 7, 50)


def test_a_deadline_stops_the_block_while_it_walks_f():
    """The F block of a book over interval(1,20000)'s F reads the deadline
    while it fills F's rows: a past deadline ends the book as SolveTimeout
    before F is filled, and the scan leaves no book behind."""
    g = compile_game(paper_game("interval", k=1, kprime=20000))
    past = time.monotonic() - 1
    with pytest.raises(SolveTimeout, match="encoding"):
        VarBook(g.game.alphabet, 2, g.safe, past)
    books = {}
    with pytest.raises(SolveTimeout, match="encoding"):
        minimal_consistent_dfa(empty_sample(g.game.alphabet), deadline=past, books=books,
                               safe=g.safe)
    assert books == {}
    assert len(g.safe.delta) < 1000


def test_max_states_on_the_schedule(monkeypatch):
    """`cap-exceeded` exactly when the minimal size exceeds the cap.  When
    hi − 1 exceeds the cap, the schedule starts at the cap."""
    box, follow = paper_game("box", height=2), paper_game("follow", bound=2)
    cases = [
        (box, 5, "solved", [5, 4]),  # rpni: 7 states, so hi − 1 = 6 > 5
        (box, 4, "cap-exceeded", [4]),
        (follow, 7, "solved", [6]),
        (follow, 6, "cap-exceeded", [6]),  # φ_6 is UNSAT: the minimum, 7, exceeds the cap
    ]
    for g, cap, outcome, sizes in cases:
        made = recorded_books(monkeypatch)
        res = learn(g, LearnOptions(max_states=cap))
        assert (res.outcome, [book.n for book in made]) == (outcome, sizes), cap
        if outcome == "solved":
            assert res.dfa.state_count == cap and query(g, res.dfa) is None
        else:
            assert res.dfa is None


def rpni_runs_out_after(monkeypatch, conjectures):
    """The rpni phase makes `conjectures` conjectures and then runs out of
    its share of the timeout, as merging does when it passes its deadline."""
    real, calls = rpni.merge_learn, []

    def merge_learn(s, solver=None, deadline=None, last=None, safe=None):
        calls.append(s)
        if len(calls) > conjectures:
            raise SolveTimeout("state merging hit the deadline")
        return real(s, solver, deadline, last, safe)

    monkeypatch.setattr(rpni, "merge_learn", merge_learn)
    return calls


def test_without_an_rpni_bound_the_schedule_ascends(monkeypatch):
    """When the rpni phase runs out of its share, the same loop scans up
    from one state on rpni's sample, and every paper game ends `solved` at
    its minimal size.  Past the cap, the outcome is `cap-exceeded`, and an
    unwinnable game still ends as a contradiction."""
    for family, params, size in PAPER_SIZES:
        g = paper_game(family, **params)
        with monkeypatch.context() as patch:
            calls = rpni_runs_out_after(patch, 2)
            made = recorded_books(patch)
            res = learn(g)
        assert (res.outcome, res.dfa.state_count) == ("solved", size), family
        assert query(g, res.dfa) is None
        assert [book.n for book in made] == list(range(1, size + 1)), family
        assert len(calls) == 3 and res.sample.size() > calls[-1].size(), family
        assert extends(res.sample, calls[-1])
    g = paper_game("follow", bound=2)
    rpni_runs_out_after(monkeypatch, 0)
    made = recorded_books(monkeypatch)
    assert learn(g, LearnOptions(max_states=6)).outcome == "cap-exceeded"
    assert [book.n for book in made] == [1, 2, 3, 4, 5, 6]
    demo = Path(__file__).resolve().parent.parent / "demos" / "unwinnable.py"
    with contextlib.redirect_stdout(io.StringIO()):
        unwinnable = runpy.run_path(str(demo))["game"]
    assert learn(unwinnable).outcome == "contradiction"


def test_a_plugged_in_solver_that_lies_below_the_bound_is_caught(monkeypatch):
    """On box(2), rpni's winning set has 7 states and φ_6 is satisfiable.
    A solver that answers UNSAT on φ_6 raises ExternalSolverError, so the
    7-state set is never returned as minimal; an honest plugged-in solver
    learns the internal solver's size."""
    g = paper_game("box", height=2)
    made = recorded_books(monkeypatch)

    def liar(cnf, deadline=None):
        if any(book.n == 6 and cnf is book.cnf for book in made):
            return None
        return solve_internal(cnf, deadline)

    with pytest.raises(ExternalSolverError, match="size-6"):
        learn(g, LearnOptions(solver=liar))
    honest = lambda cnf, deadline=None: solve_internal(cnf, deadline)
    res = learn(g, LearnOptions(solver=honest))
    assert res.outcome == "solved" and res.dfa.state_count == 5


def test_pos_forces_accepting_initial():
    s = make_sample(AB, [()], [], [], [])
    model, book = solve_sample(s, 1)
    assert model is not None
    assert model[book.f(0)] is True
    d = extract_dfa(model, book)
    assert d.accepting == frozenset({0})


def test_frozen_small_decisions():
    a, b, aa = AB.word("a"), AB.word("b"), AB.word("a a")
    cases = [
        # (pos, neg, ex, uni, expected sat per n=1,2,3)
        (([()], [()], [], []), (False, False, False)),
        (([a], [aa], [], []), (False, True, True)),
        (([()], [b], [], [((), [b])]), (False, False, False)),
        (([()], [a], [((), [a, b])], []), (False, True, True)),
    ]
    for parts, expect in cases:
        s = make_sample(AB, *parts)
        for n, want in zip((1, 2, 3), expect):
            model, book = solve_sample(s, n)
            assert (model is not None) == want, (parts, n)
            assert exists_consistent_dfa(2, n, *parts) == want, (parts, n)


def test_gates_force_consequent_words():
    a, b = AB.word("a"), AB.word("b")
    # universal: accepting eps forces accepting b
    s = make_sample(AB, [()], [], [], [((), [b])])
    model, book = solve_sample(s, 2)
    d = extract_dfa(model, book)
    assert d.delta[0][1] in d.accepting  # run on b ends accepting
    # existential with a ruled out: accepting eps forces accepting b
    s = make_sample(AB, [()], [a], [((), [a, b])], [])
    model, book = solve_sample(s, 2)
    d = extract_dfa(model, book)
    assert d.delta[0][1] in d.accepting
    assert d.delta[0][0] not in d.accepting


def run_to(d, w):
    q = 0
    for sym in w:
        q = d.delta[q][sym]
    return q


def test_x_y_z_semantics():
    rng = random.Random(314)
    checked = 0
    for _ in range(25):
        parts = random_sample_parts(rng)
        s = make_sample(AB, *parts)
        for n in (1, 2, 3):
            model, book = solve_sample(s, n)
            if model is None:
                continue
            d = extract_dfa(model, book)
            checked += 1
            # x: the run is tracked exactly on every prefix
            for u in book.prefixes:
                q = run_to(d, u)
                assert model[book.x(u, q)] is True
                assert not any(model[book.x(u, p)] for p in range(n) if p != q)
            # y: joint reachability implies y (one direction only)
            for i, (_u, aut) in enumerate(s.uni):
                reach = {(0, aut.initial)}
                frontier = list(reach)
                while frontier:
                    p, pa = frontier.pop()
                    for (ta, sym, qa) in aut.transitions:
                        if ta != pa:
                            continue
                        nxt = (d.delta[p][sym], qa)
                        if nxt not in reach:
                            reach.add(nxt)
                            frontier.append(nxt)
                for (q, qa) in reach:
                    assert model[book.y(i, q, qa)] is True
            # z: exact layered reachability, both directions
            for i, (_u, aut) in enumerate(s.ex):
                layer = {(0, aut.initial)}
                for l in range(book.k(i) + 1):
                    for q in range(n):
                        for qa in range(aut.state_count):
                            assert bool(model[book.z(i, q, qa, l)]) == ((q, qa) in layer), (l, q, qa)
                    layer = {
                        (d.delta[p][sym], qa)
                        for (p, pa) in layer
                        for (ta, sym, qa) in aut.transitions
                        if ta == pa
                    }
            break  # first satisfiable n per sample is enough
    assert checked >= 15


def test_minimal_consistent_dfa_examples():
    assert minimal_consistent_dfa(empty_sample(AB)).state_count == 1
    a = AB.word("a")
    d = minimal_consistent_dfa(make_sample(AB, [a], [()], [], []))
    assert d.state_count == 2
    l1, l2 = UNARY.word("l"), UNARY.word("l l")
    d = minimal_consistent_dfa(make_sample(UNARY, [l1], [l2], [], []))
    assert d.state_count == 2
    assert d.delta[0][0] != 0  # the two states flip on l
    ok, _ = is_consistent(d, make_sample(UNARY, [l1], [l2], [], []))
    assert ok


def test_cap_exceeded():
    s = make_sample(AB, [()], [()], [], [])
    with pytest.raises(CapExceededError) as err:
        minimal_consistent_dfa(s, n_cap=3)
    assert "3" in str(err.value)


def test_extract_dfa_rejects_broken_models():
    book = VarBook(AB, 2)
    model = {v: False for v in range(1, book.var_count + 1)}
    model[book.d(0, 0, 0)] = True
    model[book.d(0, 0, 1)] = True  # two targets
    with pytest.raises(InternalConsistencyError):
        extract_dfa(model, book)
    model[book.d(0, 0, 1)] = False
    with pytest.raises(InternalConsistencyError):  # delta(0,1) has no target
        extract_dfa(model, book)


def test_formula_sat_iff_exhaustive_dfa_search():
    rng = random.Random(2718)
    for _ in range(40):
        parts = random_sample_parts(rng, max_len=2, max_consequent=2)
        s = make_sample(AB, *parts)
        for n in (1, 2):
            model, book = solve_sample(s, n)
            assert (model is not None) == exists_consistent_dfa(2, n, *parts)
            if model is not None:
                ok, item = is_consistent(extract_dfa(model, book), s)
                assert ok, item


def test_formula_sat_iff_exhaustive_search_over_automaton_consequents():
    """Existential consequents as random automata, half of them cut to their
    forward edges (a finite language), so both z-layer bounds are checked:
    the pigeonhole one and the longest word.  The search decides
    L(D) ∩ L(A) ≠ ∅ from A's words up to n·|Q_A| − 1 letters, enough for a
    shortest word of the product with an n-state DFA."""
    rng = random.Random(1618)
    kinds = {"infinite": 0, "finite": 0, "empty": 0}
    verdicts = set()
    for draw in range(300):
        pos, neg, _ex, uni = random_sample_parts(rng, max_len=2, max_consequent=2)
        ex = []
        for _ in range(rng.randint(1, 2)):
            a = random_nfa(rng, AB, max_states=4)
            if draw % 2:
                forward = frozenset(t for t in a.transitions if t[0] < t[2])
                a = replace(a, transitions=forward)
            ex.append((random_word(rng, 2, 2), a))
            na = a.state_count
            if any(len(w) >= na for w in language_upto(a, 2 * na - 1)):
                kinds["infinite"] += 1
            else:
                kinds["finite" if language_upto(a, na) else "empty"] += 1
        s = make_sample(AB, pos, neg, [], uni)
        s = replace(s, ex=tuple(ex))
        for n in (1, 2):
            model, book = solve_sample(s, n)
            witnesses = [(u, sorted(language_upto(a, n * a.state_count - 1))) for u, a in ex]
            want = exists_consistent_dfa(2, n, pos, neg, witnesses, uni)
            assert (model is not None) == want, (pos, neg, ex, uni, n)
            verdicts.add(want)
            if model is not None:
                ok, item = is_consistent(extract_dfa(model, book), s)
                assert ok, item
    assert min(kinds.values()) >= 5, kinds
    assert verdicts == {False, True}


def test_progress_and_monotone_sizes_on_halfline():
    g = halfline_game(2)
    s = empty_sample(g.alphabet)
    conjectures = []
    for _ in range(50):
        d = minimal_consistent_dfa(s)
        conjectures.append(d)
        cex = query(g, d)
        if cex is None:
            break
        s = add(s, cex)
    else:
        pytest.fail("did not converge in 50 iterations")
    assert len(conjectures) >= 2
    sizes = [d.state_count for d in conjectures]
    assert sizes == sorted(sizes)
    for i, ci in enumerate(conjectures):
        for cj in conjectures[i + 1:]:
            differ = product_word([ci], [cj]) is not None or product_word([cj], [ci]) is not None
            assert differ, (ci, cj)


def test_learn_end_to_end():
    g = halfline_game(2)
    res = learn(g)
    assert res.outcome == "solved"
    assert query(g, res.dfa) is None
    assert res.iterations >= 2
    assert res.sample_sizes[0] >= 1  # at least the first positive word
    assert res.wall_time >= res.solve_time >= 0.0


def test_unwinnable_demo_ends_in_contradiction():
    """The contradiction outcome, with both learners on the demo's game that
    player 0 cannot win; a plugged-in solver's UNSAT survives its internal
    re-check."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "unwinnable.py"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        game = runpy.run_path(str(demo))["game"]
    assert "contradiction" in out.getvalue()
    assert learn_rpni(game).outcome == "contradiction"
    plugged = LearnOptions(solver=lambda cnf, deadline=None: solve_internal(cnf, deadline))
    assert learn_rpni(game, plugged).outcome == "contradiction"


def test_boundary_game_demo_runs():
    """The worked-example demo still runs against the public names it uses."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "boundary_game.py"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runpy.run_path(str(demo))
    assert "outcome=solved" in out.getvalue()
    assert "Teacher's verdict on the result: None" in out.getvalue()
