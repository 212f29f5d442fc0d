"""Whole-package acceptance checks, one verdict line per check.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
check ties the learners, the teacher, and the CLI to an independent
oracle: brute-force membership, an explicit fixed-point game solver, or
exhaustive DFA enumeration.  Everything here is deterministic.
"""

import random
import time

import pytest

from winset.automata import (
    Alphabet,
    Nfa,
    Product,
    Subsets,
    _reachable,
    accepts,
    determinize,
    from_words,
    union,
)
from winset.benchmarks import BenchmarkSpec, game_size, generate_benchmark, halfline_game
from winset.cli import main
from winset.game import serialize_dfa, serialize_game
from winset.learning import LearnOptions
from winset.prop import CnfInstance, solve_internal
from winset.relations import image, invert
from winset.rpni import learn_rpni, merge_learn
from winset.sample import distinct_pairs, is_consistent
from winset.satlearn import VarBook, extract_dfa
from winset.satlearn import learn as learn_sat
from winset.teacher import Positive, query

from oracles import (
    accepts_pair,
    apart_clique,
    audit_merges,
    all_words,
    exists_consistent_dfa,
    language_upto,
    make_sample,
    pair_accepted_brute,
    random_finite_game,
    random_nfa,
    random_sample_parts,
    random_transducer,
    safe_block,
    safety_region,
    stays_inside,
    subset_dfa,
)

SUITE_NAMES = ("diagonal", "box", "solitary-box", "evasion", "follow", "program-repair")
INTERVAL_KPRIMES = (10, 50, 100)


def report(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\ncheck {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"check {num} [{label}] failed{tail}"


def timed_sat(g, timeout=300.0):
    t0 = time.monotonic()
    res = learn_sat(g, LearnOptions(timeout=timeout))
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def sat_runs():
    """Every SAT-learner run the later checks lean on, keyed by game name."""
    runs = {}
    g = halfline_game(2)
    runs["halfline(2)"] = (g,) + timed_sat(g)
    for name in SUITE_NAMES:
        g = generate_benchmark(BenchmarkSpec(name, {}))
        runs[name] = (g,) + timed_sat(g)
    for kp in INTERVAL_KPRIMES:
        g = generate_benchmark(BenchmarkSpec("interval", {"k": 1, "kprime": kp}))
        runs[f"interval(1,{kp})"] = (g,) + timed_sat(g)
    return runs


def cli_verify(tmp_path, tag, g, d):
    game_path = tmp_path / f"{tag}.game"
    dfa_path = tmp_path / f"{tag}.dfa"
    game_path.write_text(serialize_game(g), encoding="utf-8")
    dfa_path.write_text(serialize_dfa(d), encoding="utf-8")
    return main(["verify", str(game_path), str(dfa_path)]) == 0


def test_1_worked_example_boundary_game(sat_runs, tmp_path):
    g, res, elapsed = sat_runs["halfline(2)"]
    A = g.alphabet
    conds = [res.outcome == "solved", elapsed < 10.0]

    # the empty conjecture draws the initial vertex as the first response
    empty = determinize(from_words(A, []))
    conds.append(query(g, empty) == Positive(A.word("s l l")))

    d = res.dfa
    conds.append(accepts(d, A.word("s l l")))
    conds.append(accepts(d, A.word("e l l l")))
    conds.append(not accepts(d, A.word("s l")))
    conds.append(cli_verify(tmp_path, "half", g, d))

    # exact membership up to length 6: all of I in, nothing unsafe in
    won = language_upto(d, 6)
    conds.append(language_upto(g.initial, 6) <= won)
    conds.append(won <= language_upto(g.safe, 6))
    report(1, "worked example", all(conds),
           f"{elapsed:.2f}s, {d.state_count}-state winning set")


def test_2_returned_sizes_are_minimal(sat_runs):
    """The learner's claim for a returned size n: no (n−1)-state DFA both
    fits the final sample and accepts only words of F.  Re-proved from the
    plain clause list with an F block built here (`oracles.safe_block`),
    so a learner's block that says more than F finds a model here.

    The re-proof also fixes a clique u_0 = ε, u_1, ... of prefixes that
    the plain clauses keep pairwise apart to the states 0, 1, ... (Heule &
    Verwer's symmetry break).  Sound: the plain clauses and the F block
    name no state but 0 (the roots x_{ε,0}, y_{0,·}, r_{0,0} and the z
    layer 0), so a permutation of the states 1..n−2 maps a model to a
    model.  In a model the clique's prefixes sit in distinct states, ε in
    0; the permutation that moves u_i to i gives a model of the units."""
    solve_total = sum(elapsed for _, _, elapsed in sat_runs.values())
    t0 = time.monotonic()
    ok = True
    rechecked = bigger = 0
    for name, (g, res, elapsed) in sat_runs.items():
        n = res.dfa.state_count
        if n == 1:
            continue  # nothing below one state
        bigger += 1
        book = VarBook(g.alphabet, n - 1)
        book.extend(res.sample)
        cnf = book.cnf
        # the plain clause list alone: the proof must not lean on the BFS
        # predicates the learner used, and each of them mentions t, p or m
        sym = set(book.symmetry_vars)
        plain = [c for c in cnf.clauses if not any(abs(lit) in sym for lit in c)]
        block, var_count = safe_block(book, subset_dfa(g.safe))
        present = {frozenset(c) for c in plain}
        clique = apart_clique(book.prefixes, distinct_pairs(res.sample), n - 1)
        apart = all(frozenset((-book.x(u, q), -book.x(v, q))) in present
                 for i, u in enumerate(clique) for v in clique[:i] for q in range(n - 1))
        units = [[book.x(u, i)] for i, u in enumerate(clique)]
        if not apart or solve_internal(CnfInstance(var_count, plain + block + units)) is not None:
            ok = False
            break
        rechecked += 1
    check_total = time.monotonic() - t0
    ok = ok and rechecked == bigger and check_total < 2 * solve_total
    report(2, "minimal sizes", ok,
           f"{rechecked} of {bigger} runs rechecked in {check_total:.2f}s "
           f"vs {solve_total:.2f}s solving")


def test_3_finite_game_oracle_equivalence():
    AB = Alphabet(("a", "b"))
    rng = random.Random(1)
    t0 = time.monotonic()
    ok = True
    solved = refuted = 0
    for _ in range(20):
        g, (vertices, v0, edges, safe, initial) = random_finite_game(rng, AB, max_vertices=8)
        wstar = safety_region(vertices, v0, edges, safe)
        winnable = set(initial) <= wstar
        res, _ = timed_sat(g, timeout=20.0)
        if winnable:
            ok = ok and res.outcome == "solved"
            if res.dfa is not None:
                won = language_upto(res.dfa, 6)
                ok = ok and set(initial) <= won <= wstar
            solved += 1
        else:
            ok = ok and res.outcome in ("contradiction", "timeout")
            refuted += 1
        if not ok:
            break
    total = time.monotonic() - t0
    ok = ok and total < 60.0
    report(3, "finite-game oracle", ok,
           f"{solved} winnable + {refuted} unwinnable games in {total:.2f}s")


def test_4_sat_encoding_matches_enumeration():
    """φ_n is SAT exactly when some n-state DFA fits the sample, and, with
    a random 1-3-state F given to the book, exactly when some n-state DFA
    fits it and accepts only words of F."""
    AB = Alphabet(("a", "b"))
    rng = random.Random(4)
    frng = random.Random(5)  # its own stream, so the samples are those without F
    t0 = time.monotonic()
    ok = True
    sat_hits = safe_hits = safe_refuted = 0
    for _ in range(200):
        pos, neg, ex, uni = random_sample_parts(rng)
        s = make_sample(AB, pos, neg, ex, uni)
        f = random_nfa(frng, AB, max_states=3)
        safe = subset_dfa(f)
        for n in (1, 2, 3):
            book = VarBook(AB, n)
            book.extend(s)
            cnf = book.cnf
            model = solve_internal(cnf)
            ok = ok and (model is not None) == exists_consistent_dfa(2, n, pos, neg, ex, uni)
            if model is not None:
                sat_hits += 1
                ok = ok and is_consistent(extract_dfa(model, book), s)[0]
            book = VarBook(AB, n, Subsets(f))
            book.extend(s)
            inside = solve_internal(book.cnf)
            ok = ok and (inside is not None) == exists_consistent_dfa(2, n, pos, neg, ex, uni, safe)
            if inside is not None:
                safe_hits += 1
                d = extract_dfa(inside, book)
                ok = ok and is_consistent(d, s)[0] and stays_inside(d.delta, d.accepting, safe)
            elif model is not None:
                safe_refuted += 1
        if not ok:
            break
    total = time.monotonic() - t0
    ok = ok and total < 120.0
    report(4, "sat encoding", ok,
           f"200 samples x sizes 1-3, {sat_hits} models extracted; with F "
           f"{safe_hits} models, {safe_refuted} refuted by F alone; {total:.2f}s")


def test_5_benchmark_suite(sat_runs, tmp_path):
    ok = True
    details = []
    for name in SUITE_NAMES:
        g, res, elapsed = sat_runs[name]
        good = (res.outcome == "solved" and elapsed < 300.0
                and res.dfa.state_count <= 10
                and cli_verify(tmp_path, name, g, res.dfa))
        ok = ok and good
        size = res.dfa.state_count if res.dfa is not None else "-"
        details.append(f"{name}:{size}st/{elapsed:.1f}s")
    report(5, "benchmark suite", ok, " ".join(details))


def test_6_scalability_trend(sat_runs):
    ok = True
    sizes = []
    sat_at_100 = rpni_at_100 = None
    for kp in INTERVAL_KPRIMES:
        g, res, elapsed = sat_runs[f"interval(1,{kp})"]
        sizes.append(game_size(g))
        ok = ok and res.outcome == "solved" and query(g, res.dfa) is None
        t0 = time.monotonic()
        rp = learn_rpni(g, LearnOptions(timeout=300.0))
        rp_elapsed = time.monotonic() - t0
        ok = ok and rp.outcome == "solved" and query(g, rp.dfa) is None
        if kp == 100:
            sat_at_100, rpni_at_100 = elapsed, rp_elapsed
    ok = ok and rpni_at_100 <= sat_at_100
    ok = ok and sizes == sorted(sizes)
    report(6, "scalability", ok,
           f"game sizes {sizes}, at k'=100 rpni {rpni_at_100:.2f}s "
           f"vs sat {sat_at_100:.2f}s")


def live_states(d):
    """States that can still reach an accepting state; the completion sink
    that merging adds to make the result total is the only dead one."""
    back = {}
    for p, row in enumerate(d.delta):
        for q in row:
            back.setdefault(q, set()).add(p)
    alive = set(d.accepting)
    stack = list(alive)
    while stack:
        q = stack.pop()
        for p in back.get(q, ()):
            if p not in alive:
                alive.add(p)
                stack.append(p)
    return len(alive)


def test_7_state_merging_structure(monkeypatch):
    AB = Alphabet(("a", "b"))
    rng = random.Random(0)
    ok = True
    done = 0
    attempts_total = 0
    while done < 100:
        pos, neg, _ex, _uni = random_sample_parts(rng)
        if set(pos) & set(neg):
            continue  # no automaton of any size fits those
        s = make_sample(AB, pos, neg, (), ())
        universe = set(pos) | set(neg)
        with monkeypatch.context() as m:
            audits = audit_merges(m)
            d = merge_learn(s)
        ok = ok and is_consistent(d, s)[0]
        ok = ok and live_states(d) <= len(universe)
        for kept, (real, _) in audits:
            ok = ok and kept == real
        attempts_total += len(audits)
        done += 1
        if not ok:
            break
    report(7, "state merging", ok,
           f"{done} implication-free samples, {attempts_total} merge attempts audited")


def test_8_micro_oracles():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(8)

    # union and the products the teacher walks, built out, against set
    # algebra on brute-force membership
    for alphabet, max_len, rounds in ((Alphabet(("a", "b")), 5, 12),
                                      (Alphabet(("a", "b", "c")), 4, 8)):
        k = len(alphabet.symbols)
        every = set(all_words(k, max_len))
        sigma_star = Nfa(alphabet, 1, 0, frozenset((0, x, 0) for x in range(k)), frozenset({0}))
        for _ in range(rounds):
            a = random_nfa(rng, alphabet)
            b = random_nfa(rng, alphabet)
            la, lb = language_upto(a, max_len), language_upto(b, max_len)
            ok = ok and language_upto(union(a, b), max_len) == la | lb
            ok = ok and language_upto(_reachable(Product([a, b])), max_len) == la & lb
            ok = ok and language_upto(_reachable(Product([a], [b])), max_len) == la - lb
            ok = ok and language_upto(_reachable(Product([sigma_star], [a])), max_len) == every - la

    # images and pair acceptance against the worklist oracle
    AB = Alphabet(("a", "b"))
    for _ in range(20):
        t = random_transducer(rng, AB)
        for u in all_words(2, 3):
            img = image(t, from_words(AB, [u]))
            expected = {v for v in all_words(2, 4) if pair_accepted_brute(t, u, v)}
            ok = ok and language_upto(img, 4) == expected
        for u in all_words(2, 4):
            for v in all_words(2, 4):
                ok = ok and accepts_pair(t, u, v) == pair_accepted_brute(t, u, v)

    # inversion: an involution that swaps every pair
    for _ in range(20):
        t = random_transducer(rng, AB)
        ok = ok and invert(invert(t)) == t
        ti = invert(t)
        for u in all_words(2, 3):
            for v in all_words(2, 3):
                ok = ok and accepts_pair(ti, v, u) == accepts_pair(t, u, v)

    total = time.monotonic() - t0
    ok = ok and total < 30.0
    report(8, "micro-oracles", ok, f"exhaustive agreement in {total:.2f}s")
