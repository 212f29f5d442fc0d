"""CNF backends: the internal solver and external ones, checked against
brute-force model enumeration."""

import copy
import os
import random
import tempfile
import time

import pytest

from winset import prop
from winset.errors import ExternalSolverError, SolveTimeout
from winset.prop import (
    CnfInstance,
    external_solver,
    falsified_clause,
    make_solver,
    solve_internal,
    to_dimacs,
)

from oracles import cnf_model_brute, cnf_models_brute, cnf_satisfied, grow_random_cnf


def random_3cnf(rng, var_count, clause_count):
    clauses = []
    for _ in range(clause_count):
        vs = rng.sample(range(1, var_count + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CnfInstance(var_count, clauses)


def test_solver_agrees_with_brute_force():
    rng = random.Random(4)
    sat = unsat = 0
    for _ in range(50):
        nv = rng.randint(4, 10)
        cnf = random_3cnf(rng, nv, rng.randint(nv, 5 * nv))
        brute = cnf_models_brute(nv, cnf.clauses)
        model = solve_internal(cnf)
        assert (model is not None) == bool(brute)
        if model is None:
            unsat += 1
        else:
            sat += 1
            assert cnf_satisfied(cnf.clauses, model)
    assert sat >= 5 and unsat >= 5  # the mix actually exercises both answers


def test_pick_is_the_most_active_unassigned_variable():
    """Every decision takes the unassigned variable with the highest activity,
    ties going to the lowest index, whatever stale entries the heap holds."""
    rng = random.Random(8)
    picks = ranked = 0
    for _ in range(50):
        nv = rng.randint(15, 40)
        cnf = random_3cnf(rng, nv, int(nv * rng.uniform(3.5, 4.8)))
        solver = prop._Cdcl()
        real_pick = solver._pick

        def pick():
            nonlocal picks, ranked
            assigned = {abs(lit) for lit in solver.trail}
            free = [v for v in range(1, nv + 1) if v not in assigned]
            want = min(free, key=lambda v: (-solver.activity[v], v), default=None)
            got = real_pick()
            assert got == want
            picks += 1
            ranked += any(solver.activity[v] > 0 for v in free)
            return got

        solver._pick = pick
        model = solver.solve(cnf, None)
        if model is not None:
            assert cnf_satisfied(cnf.clauses, model)
    assert picks >= 900 and ranked >= 500  # activities, not indices, decide most picks


def test_activity_rescale_keeps_every_answer():
    """A bump past 1e100 scales every activity down and rebuilds the heap.
    Started at 5e99, a variable's second or third bump gets there (1e98 does
    not on these small instances), so the rescale runs mid-search."""
    rng = random.Random(4)
    rescaled = 0
    for _ in range(50):  # the instances of test_solver_agrees_with_brute_force
        nv = rng.randint(4, 10)
        cnf = random_3cnf(rng, nv, rng.randint(nv, 5 * nv))
        solver = prop._Cdcl()
        solver.act_inc = 5e99
        model = solver.solve(cnf, None)
        assert (model is not None) == bool(cnf_models_brute(nv, cnf.clauses))
        if model is not None:
            assert cnf_satisfied(cnf.clauses, model)
        rescaled += solver.act_inc < 5e99
    assert rescaled >= 10


def messy_cnf(rng, var_count, clause_count):
    """Raw clauses as a careless encoder might emit them: repeated literals,
    tautologies, duplicate clauses and units, over vars 1..var_count."""
    clauses = []
    for _ in range(clause_count):
        kind = rng.random()
        if kind < 0.15 and clauses:
            clauses.append(list(rng.choice(clauses)))  # duplicate clause
            continue
        width = 1 if kind < 0.3 else rng.randint(2, 4)
        clause = [rng.choice((1, -1)) * rng.randint(1, var_count) for _ in range(width)]
        if kind > 0.85:
            clause.append(-clause[0])  # tautology
        elif kind > 0.7:
            clause.append(clause[-1])  # repeated literal
        clauses.append(clause)
    return CnfInstance(var_count, clauses)


def test_solver_takes_raw_clauses_as_they_come():
    rng = random.Random(17)
    answers = {True: 0, False: 0}
    for trial in range(150):
        nv = rng.randint(1, 8)
        cnf = messy_cnf(rng, nv, rng.randint(1, 3 * nv + 2))
        if trial % 25 == 0:
            cnf.clauses.insert(rng.randint(0, len(cnf.clauses)), [])
        before = [list(c) for c in cnf.clauses]
        brute = cnf_models_brute(nv, cnf.clauses)
        model = solve_internal(cnf)
        assert (model is not None) == bool(brute), cnf
        assert cnf.clauses == before  # the input is left as it was
        if model is not None:
            assert set(model) == set(range(1, nv + 1))
            assert cnf_satisfied(cnf.clauses, model)
            assert falsified_clause(cnf, model) is None
        answers[model is not None] += 1
    assert min(answers.values()) >= 20  # both answers exercised
    # the hand-picked corner cases
    assert solve_internal(CnfInstance(1, [[1, 1]])) == {1: True}
    assert solve_internal(CnfInstance(1, [[1, -1]])) is not None
    assert solve_internal(CnfInstance(1, [[1, 1], [-1, -1]])) is None
    assert solve_internal(CnfInstance(2, [[2], [2], [-2, 1, -2]])) == {1: True, 2: True}
    assert solve_internal(CnfInstance(2, [[1, 2], []])) is None


def test_dimacs_round_trip():
    cnf = CnfInstance(3, [[1, -2], [2, 3], [-1]])
    assert to_dimacs(cnf) == "p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n"
    assert to_dimacs(CnfInstance(2, [])) == "p cnf 2 0\n"


def test_solver_is_deterministic():
    rng = random.Random(11)
    cnf = random_3cnf(rng, 12, 40)
    a = solve_internal(cnf)
    b = solve_internal(copy.deepcopy(cnf))
    assert a == b


def pigeonhole(pigeons, holes):
    """PHP(p, p-1): unsatisfiable and genuinely laborious for CDCL."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return CnfInstance(pigeons * holes, clauses)


def test_deadline_raises_timeout():
    cnf = pigeonhole(7, 6)
    with pytest.raises(SolveTimeout):
        solve_internal(cnf, deadline=time.monotonic() - 1.0)
    # and with room it still finishes with the right answer
    assert solve_internal(cnf, deadline=time.monotonic() + 60.0) is None


def test_incremental_solves_agree_with_brute_force():
    """One live solver per instance, grown chunk by chunk (new variables,
    units, clauses already true or false at level 0, now and then the
    empty clause): after every chunk its answer matches brute force, and a
    model satisfies every clause so far."""
    rng = random.Random(13)
    answers = {True: 0, False: 0}
    kinds = {"new vars": 0, "empty clause": 0, "false at level 0": 0}
    for _ in range(80):
        cnf, units = CnfInstance(rng.randint(2, 4)), []
        live = None
        for _chunk in range(5):
            before = cnf.var_count
            grow_random_cnf(rng, cnf, units, new_vars=rng.randint(0, 2))
            kinds["new vars"] += cnf.var_count > before
            model = solve_internal(cnf)
            live = live or cnf.solver
            assert cnf.solver is live  # every chunk went to the one solver
            want = cnf_model_brute(cnf.var_count, cnf.clauses)
            assert (model is not None) == (want is not None), cnf
            if model is not None:
                assert set(model) == set(range(1, cnf.var_count + 1))
                assert cnf_satisfied(cnf.clauses, model)
            answers[model is not None] += 1
        kinds["empty clause"] += [] in cnf.clauses
        falsified = {-lit for lit in units}
        kinds["false at level 0"] += any(c and set(c) <= falsified for c in cnf.clauses)
    assert min(answers.values()) >= 100, answers
    assert min(kinds.values()) >= 10, kinds


def test_a_timeout_mid_search_leaves_the_instance_solvable():
    """A search cut by its deadline leaves its solver mid-trail; the next
    call on the same instance, grown or not, still answers right."""
    rng = random.Random(29)
    timeouts = 0
    answers = {True: 0, False: 0}
    for _ in range(10):
        cnf = random_3cnf(rng, 100, 426)
        for _chunk in range(3):
            try:
                solve_internal(cnf, deadline=time.monotonic() - 1.0)
            except SolveTimeout:
                timeouts += 1
            model = solve_internal(cnf)
            cold = solve_internal(CnfInstance(cnf.var_count, list(cnf.clauses)))
            assert (model is None) == (cold is None)
            if model is not None:
                assert cnf_satisfied(cnf.clauses, model)
            answers[model is not None] += 1
            more = random_3cnf(rng, cnf.var_count + 4, 12)
            cnf.var_count, cnf.clauses = more.var_count, cnf.clauses + more.clauses
    assert timeouts >= 10 and min(answers.values()) >= 5, (timeouts, answers)
    php = pigeonhole(7, 6)
    with pytest.raises(SolveTimeout):
        solve_internal(php, deadline=time.monotonic() - 1.0)
    assert php.solver.trail_lim  # cut above level 0
    assert solve_internal(php) is None


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    os.chmod(path, 0o755)
    return str(path)


def test_external_solver_stubs(tmp_path):
    cnf = CnfInstance(2, [[1, -2]])
    sat = external_solver(write_script(tmp_path, "sat.sh", 'echo "s SATISFIABLE"\necho "v 1 -2 0"\n'))
    assert sat(cnf) == {1: True, 2: False}
    uns = external_solver(write_script(tmp_path, "unsat.sh", 'echo "s UNSATISFIABLE"\n'))
    assert uns(cnf) is None
    bad = external_solver(write_script(tmp_path, "bad.sh", 'echo "flaming garbage"\n'))
    with pytest.raises(ExternalSolverError):
        bad(cnf)
    missing = external_solver(str(tmp_path / "no-such-binary"))
    with pytest.raises(ExternalSolverError):
        missing(cnf)


def test_external_solver_skips_comment_lines(tmp_path):
    cnf = CnfInstance(2, [[1, -2]])
    chatty = external_solver(write_script(tmp_path, "chatty.sh", (
        'echo "c CaDiCaL 1.9"\n'                       # was an unexpected token
        'echo "c 12 conflicts"\n'                      # was read as the literal 12
        'echo "c no UNSAT core: the formula is SAT"\n'  # was an UNSAT verdict
        'echo "s SATISFIABLE"\necho "v 1 -2 0"\n'
    )))
    assert chatty(cnf) == {1: True, 2: False}
    uns = external_solver(write_script(tmp_path, "uns.sh", 'echo "c 3 conflicts"\necho "s UNSATISFIABLE"\n'))
    assert uns(cnf) is None


def test_external_solver_leaves_no_temp_files(tmp_path, monkeypatch):
    bin_dir, temp_dir = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    temp_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    cnf = CnfInstance(2, [[1, -2]])
    sat = external_solver(write_script(bin_dir, "sat.sh", 'echo "s SATISFIABLE"\necho "v 1 -2 0"\n'))
    assert sat(cnf) == {1: True, 2: False}
    assert list(temp_dir.iterdir()) == []
    uns = external_solver(write_script(bin_dir, "unsat.sh", 'echo "s UNSATISFIABLE"\n'))
    assert uns(cnf) is None
    assert list(temp_dir.iterdir()) == []
    bad = external_solver(write_script(bin_dir, "bad.sh", 'echo "flaming garbage"\n'))
    with pytest.raises(ExternalSolverError):
        bad(cnf)
    assert list(temp_dir.iterdir()) == []


def test_external_solver_rejects_falsifying_model(tmp_path):
    cnf = CnfInstance(3, [[1, -2], [2, 3]])
    liar = external_solver(write_script(tmp_path, "liar.sh", 'echo "s SATISFIABLE"\necho "v -1 2 -3 0"\n'))
    with pytest.raises(ExternalSolverError) as err:
        liar(cnf)
    assert "[1, -2]" in str(err.value)
    # variables the solver leaves out count as false, as in the parsed model
    terse = external_solver(write_script(tmp_path, "terse.sh", 'echo "SAT"\necho "1 0"\n'))
    with pytest.raises(ExternalSolverError):
        terse(cnf)
    assert falsified_clause(cnf, {1: True, 2: False, 3: True}) is None


def test_external_solver_real_backend(tmp_path):
    # a tiny real solver: brute-force the DIMACS file it is handed
    script = tmp_path / "brute.py"
    script.write_text(
        "import itertools, sys\n"
        "clauses, nv = [], 0\n"
        "for line in open(sys.argv[1]):\n"
        "    t = line.split()\n"
        "    if not t or t[0] in ('c',): continue\n"
        "    if t[0] == 'p': nv = int(t[2]); continue\n"
        "    clauses.append([int(x) for x in t if x != '0'])\n"
        "for bits in itertools.product([False, True], repeat=nv):\n"
        "    m = dict(enumerate(bits, start=1))\n"
        "    if all(any((l > 0) == m[abs(l)] for l in c) for c in clauses):\n"
        "        print('SAT'); print(' '.join(str(v if m[v] else -v) for v in m), '0'); break\n"
        "else:\n"
        "    print('UNSAT')\n"
    )
    runner = write_script(tmp_path, "brute.sh", f'exec python3 {script} "$1"\n')
    solver = make_solver(f"exec:{runner}")
    rng = random.Random(21)
    for _ in range(6):
        cnf = random_3cnf(rng, 6, rng.randint(6, 26))
        got = solver(cnf)
        want = solve_internal(cnf)
        assert (got is None) == (want is None)
        if got is not None:
            assert cnf_satisfied(cnf.clauses, got)


def test_make_solver_names():
    assert make_solver("internal") is solve_internal
    with pytest.raises(ValueError):
        make_solver("quantum")
    with pytest.raises(ValueError):
        make_solver("exec:/nonexistent")
