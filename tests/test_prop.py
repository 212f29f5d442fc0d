"""CNF backends: the internal solver and external ones, checked against
brute-force model enumeration."""

import os
import random
import tempfile
import time
from types import SimpleNamespace

import pytest

from winset import prop
from winset.errors import ExternalSolverError, SolveTimeout
from winset.prop import (
    CnfInstance,
    external_solver,
    falsified_clause,
    make_solver,
    parse_dimacs,
    solve_internal,
    to_dimacs,
)

from oracles import cnf_models_brute, cnf_satisfied


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
    back = parse_dimacs(to_dimacs(cnf))
    assert back.var_count == 3
    assert [list(c) for c in back.clauses] == [[1, -2], [2, 3], [-1]]
    assert solve_internal(parse_dimacs("p cnf 1 1\n1 0\n")) == {1: True}
    assert solve_internal(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")) is None
    with pytest.raises(ValueError):
        parse_dimacs("p cnf x\n")


def test_solver_is_deterministic():
    rng = random.Random(11)
    cnf = random_3cnf(rng, 12, 40)
    a = solve_internal(cnf)
    b = solve_internal(parse_dimacs(to_dimacs(cnf)))
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


def watch_searches(monkeypatch):
    """Record every `_Cdcl.search` that runs: whether it is running right
    now, its restarts, and whether it timed out."""
    runs = []
    real = prop._Cdcl.search

    def search(self):
        run = SimpleNamespace(active=False, restarts=0, timed_out=False)
        runs.append(run)
        inner = real(self)
        while True:
            run.active = True
            try:
                next(inner)
            except StopIteration as done:
                return done.value
            except SolveTimeout:
                run.timed_out = True
                raise
            finally:
                run.active = False
            run.restarts += 1
            yield

    monkeypatch.setattr(prop._Cdcl, "search", search)
    return runs


def with_block(cnf, block_clauses):
    """`cnf` with a symmetry block of `block_clauses` over its own variables."""
    return CnfInstance(cnf.var_count, cnf.clauses, CnfInstance(cnf.var_count, block_clauses))


def test_symmetry_block_waits_for_the_first_restart(monkeypatch):
    runs = watch_searches(monkeypatch)
    # an answer before the first restart never looks at the block (here one
    # that breaks the block's promise, to show it is not read)
    cnf = with_block(CnfInstance(2, [[1, 2], [-1, 2]]), [[2], [-2]])
    assert solve_internal(cnf) == {1: False, 2: True}
    assert len(runs) == 1
    # after it, the block's search takes turns and its UNSAT ends the call
    del runs[:]
    assert solve_internal(with_block(pigeonhole(7, 6), [[1], [-1]])) is None
    assert [run.restarts for run in runs] == [1, 0]


def test_deadline_reaches_the_second_search(monkeypatch):
    runs = watch_searches(monkeypatch)
    # a clock that is past the deadline exactly while the block's search runs
    second_running = lambda: len(runs) == 2 and runs[1].active
    monkeypatch.setattr(prop, "time", SimpleNamespace(
        monotonic=lambda: 10.0 if second_running() else 0.0))
    with pytest.raises(SolveTimeout):
        solve_internal(with_block(pigeonhole(7, 6), [[1, 2]]), deadline=5.0)
    assert [run.timed_out for run in runs] == [False, True]


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
