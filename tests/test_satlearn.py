"""SAT learner tests: the encoding's shape, its variable semantics, frozen
sat/unsat decisions cross-checked by exhaustive DFA enumeration, and the
learning loop on the half-line game."""

import itertools
import random
from dataclasses import replace

import pytest

from winset import prop
from winset.automata import Alphabet, from_words
from winset.benchmarks import halfline_game
from winset.errors import CapExceededError, InternalConsistencyError
from winset.prop import CnfInstance, solve_internal
from winset.sample import Sample, add, chi, empty_sample, is_consistent
from winset.satlearn import (
    VarBook,
    build_dfa_constraints,
    build_formula,
    build_run_constraints,
    build_symmetry,
    extract_dfa,
    learn,
    minimal_consistent_dfa,
)
from winset.teacher import query

from oracles import (
    bfs_order,
    exists_consistent_dfa,
    labelled_words,
    make_sample,
    random_sample_parts,
)

AB = Alphabet(("a", "b"))
UNARY = Alphabet(("l",))


def solve_sample(s, n):
    cnf, book = build_formula(s, n)
    model = solve_internal(cnf)
    return model, book


def test_dfa_constraint_clause_counts():
    book = VarBook(empty_sample(AB), 2)
    clauses = build_dfa_constraints(book)
    pairwise = [c for c in clauses if all(lit < 0 for lit in c)]
    totality = [c for c in clauses if all(lit > 0 for lit in c)]
    assert len(pairwise) == 2 * 2 * 2 * 1  # states x symbols x ordered pairs
    assert all(len(c) == 2 for c in pairwise)
    assert len(totality) == 2 * 2
    assert all(len(c) == 2 for c in totality)
    assert len(clauses) == len(pairwise) + len(totality)


def test_z_layer_bound():
    conseq = from_words(AB, [AB.word("a")])  # two states: eps, a
    assert conseq.state_count == 2
    s = Sample(AB, (), (), (((), conseq),), ())
    book = VarBook(s, 3)
    assert book.k(0) == 3 * 2 - 1
    # z ids cover exactly layers 0..k without overlap into var_count
    top = book.z(0, 2, 1, book.k(0))
    assert top == book.var_count


def test_run_constraints_on_empty_universe():
    book = VarBook(empty_sample(AB), 1)
    assert build_run_constraints(book) == [[book.x((), 0)]]


def test_gate_vars_are_appended_above_the_blocks():
    a, b = AB.word("a"), AB.word("b")
    s = make_sample(AB, [()], [a], [((), [a, b])], [((), [b])])
    blocks = VarBook(s, 2).var_count
    cnf, book = build_formula(s, 2)
    assert cnf.var_count == book.var_count > blocks
    used = {abs(lit) for clause in cnf.clauses for lit in clause}
    # every gate variable is used, and numbered densely after the blocks
    assert set(range(blocks + 1, cnf.var_count + 1)) <= used
    # both implications share the one acceptance gate of the word eps
    assert sum(1 for key in book.gates if key[0] == "acc") == 1
    again, _ = build_formula(s, 2)
    assert again == cnf  # the emission order is fixed


def test_emitted_clauses_are_clean():
    """Over acceptance check 4's random samples, every clause the encoders
    emit mentions each variable once, and only variables 1..var_count."""
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        s = make_sample(AB, *random_sample_parts(rng))
        cnfs = [build_formula(s, n)[0] for n in (1, 2, 3)]
        cnfs.append(chi(s)[0])
        for cnf in cnfs:
            for clause in cnf.clauses:
                vs = [abs(lit) for lit in clause]
                assert clause and len(set(vs)) == len(vs), clause
                assert 1 <= min(vs) and max(vs) <= cnf.var_count, (clause, cnf.var_count)
            checked += 1
    assert checked == 800


def test_symmetry_predicates_pick_the_bfs_numbering():
    """With the d-variables fixed to a total DFA, the predicates hold exactly
    when every state is reachable from 0 and numbered breadth-first: one
    labelling per reachable DFA.  Every DFA up to 3 states over 2 symbols
    and up to 4 states over 1 symbol."""
    for alphabet, n_max in ((AB, 3), (UNARY, 4)):
        nsym = len(alphabet.symbols)
        for n in range(1, n_max + 1):
            book = VarBook(empty_sample(alphabet), n)
            top = book.var_count
            block = build_symmetry(book)
            assert book.var_count == top  # the book is left as it was
            # t, p and m: n(n-1)/2 each, m once per symbol; all used, above the book
            assert block.var_count == top + n * (n - 1) // 2 * (2 + nsym)
            used = {abs(lit) for clause in block.clauses for lit in clause}
            assert set(range(top + 1, block.var_count + 1)) <= used <= set(range(1, block.var_count + 1))
            labelled, shapes = 0, set()
            for flat in itertools.product(range(n), repeat=n * nsym):
                delta = [flat[p * nsym:(p + 1) * nsym] for p in range(n)]
                fixed = [[book.d(p, a, q) if delta[p][a] == q else -book.d(p, a, q)]
                         for p in range(n) for a in range(nsym) for q in range(n)]
                model = solve_internal(CnfInstance(block.var_count, fixed + block.clauses))
                order = bfs_order(delta)
                assert (model is not None) == (order == list(range(n))), delta
                labelled += model is not None
                if len(order) == n:  # reachable: keep its breadth-first relabelling
                    where = {q: i for i, q in enumerate(order)}
                    shapes.add(tuple(tuple(where[r] for r in delta[q]) for q in order))
            assert labelled == len(shapes)


def test_symmetry_block_keeps_every_answer(monkeypatch):
    """solve_internal returns the same model, or None, with and without the
    BFS block, and appending the block's clauses keeps the SAT/UNSAT answer.
    Acceptance check 4's samples (sizes 1-4) all end before the first
    restart, so samples that a hidden 3-6 state DFA fits (sizes 1-5) are
    added to reach the interleaved search, with both answers."""
    solvers = []
    real_init = prop._Cdcl.__init__

    def init(self, cnf, deadline):
        solvers.append(cnf)
        real_init(self, cnf, deadline)

    monkeypatch.setattr(prop._Cdcl, "__init__", init)
    rng = random.Random(4)
    cases = [(make_sample(AB, *random_sample_parts(rng)), (1, 2, 3, 4)) for _ in range(200)]
    for _ in range(100):
        k = rng.randint(3, 6)
        delta = [[rng.randrange(k) for _ in AB.symbols] for _ in range(k)]
        acc = {q for q in range(k) if rng.random() < 0.5}
        pos, neg = labelled_words(rng, delta, acc, 8, 7)
        cases.append((make_sample(AB, pos, neg, [], []), (1, 2, 3, 4, 5)))
    interleaved = {"sat": 0, "unsat": 0, "sat above the minimum": 0}
    for s, sizes in cases:
        least = None
        for n in sizes:
            cnf, _book = build_formula(s, n)
            del solvers[:]
            model = solve_internal(cnf)
            if model is not None and least is None:
                least = n
            if len(solvers) == 2:
                interleaved["unsat" if model is None else "sat"] += 1
                interleaved["sat above the minimum"] += model is not None and n > least
            assert model == solve_internal(replace(cnf, symmetry=None))
            both = CnfInstance(cnf.symmetry.var_count, cnf.clauses + cnf.symmetry.clauses)
            assert (solve_internal(both) is None) == (model is None)
    assert min(interleaved.values()) >= 5, interleaved


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
    book = VarBook(empty_sample(AB), 2)
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
    from winset.automata import minimize
    canon = [minimize(d) for d in conjectures]
    for i in range(len(canon)):
        for j in range(i + 1, len(canon)):
            assert canon[i] != canon[j], (i, j)


def test_learn_end_to_end():
    g = halfline_game(2)
    res = learn(g)
    assert res.outcome == "solved"
    assert query(g, res.dfa) is None
    assert res.iterations >= 2
    assert res.sample_sizes[0] >= 1  # at least the first positive word
    assert res.wall_time >= res.solve_time >= 0.0
