"""End-to-end CLI tests.

Everything drives main() in-process with temp files; no subprocesses, so
the exit codes come back as plain return values.
"""

import csv
import os
import random

import pytest

from winset import cli, satlearn
from winset.automata import Alphabet, Dfa, Nfa, determinize, from_words, union
from winset.benchmarks import BenchmarkSpec, generate_benchmark, halfline_game
from winset.cli import CSV_COLUMNS, STATS_COLUMNS, main
from winset.game import RationalSafetyGame, parse_game, serialize_dfa, serialize_game
from winset.learning import LearnOptions
from winset.prop import solve_internal
from winset.rpni import learn_rpni

from oracles import infinitely_branching_game, mutate_text


def write_halfline(tmp_path, k=2):
    path = tmp_path / "half.game"
    path.write_text(serialize_game(halfline_game(k)) + "\n", encoding="utf-8")
    return str(path)


def tag_tail(alphabet, tag, k):
    """NFA for {tag l^n | n >= k}."""
    t = alphabet.index(tag)
    l = alphabet.index("l")
    trans = {(0, t, 1)} | {(i, l, i + 1) for i in range(1, k + 1)}
    trans.add((k + 1, l, k + 1))
    return Nfa(alphabet, k + 2, 0, frozenset(trans), frozenset({k + 1}))


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_solve_rpni_writes_stats(tmp_path, capsys):
    game = write_halfline(tmp_path)
    stats = tmp_path / "stats.csv"
    rc = main(["solve", game, "--learner", "rpni", "--stats", str(stats)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solved: learner=rpni" in out
    assert "winning-set DFA:" in out

    rows = read_rows(stats)
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row) == STATS_COLUMNS == CSV_COLUMNS + ("solve_s", "teacher_s")
    assert row["game"] == "half.game"
    assert row["outcome"] == "solved"
    assert int(row["pos"]) >= 1
    assert int(row["dfa_size"]) >= 1
    # the learner's and the teacher's shares of the wall time (each rounded)
    solve_s, teacher_s = float(row["solve_s"]), float(row["teacher_s"])
    assert solve_s >= 0.0 and teacher_s >= 0.0
    assert solve_s + teacher_s <= float(row["time_s"]) + 0.02

    # a second run appends a row without repeating the header, and the run
    # itself is deterministic apart from the wall-clock column
    assert main(["solve", game, "--learner", "rpni", "--stats", str(stats)]) == 0
    capsys.readouterr()
    rows = read_rows(stats)
    assert len(rows) == 2
    timing = ("time_s", "solve_s", "teacher_s")
    strip = lambda r: {k: v for k, v in r.items() if k not in timing}
    assert strip(rows[0]) == strip(rows[1])


def test_solve_stats_refuses_a_file_with_other_columns(tmp_path, capsys):
    game = write_halfline(tmp_path)
    stats = tmp_path / "old.csv"
    stats.write_text(",".join(CSV_COLUMNS) + "\n", encoding="utf-8")
    rc = main(["solve", game, "--learner", "rpni", "--stats", str(stats)])
    assert rc == 3
    assert "other columns" in capsys.readouterr().err
    assert stats.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"


def test_solve_checks_the_stats_header_before_learning(tmp_path, capsys):
    game = write_halfline(tmp_path)
    stats = tmp_path / "other.csv"
    stats.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    rc = main(["solve", game, "--learner", "rpni", "--stats", str(stats)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""  # refused before learning
    assert "other columns" in captured.err
    assert stats.read_text(encoding="utf-8") == "x,y,z\n1,2,3\n"


def test_solve_out_then_verify_roundtrip(tmp_path, capsys):
    game = write_halfline(tmp_path)
    dfa_path = tmp_path / "w.aut"
    rc = main(["solve", game, "--learner", "rpni", "--out", str(dfa_path)])
    assert rc == 0
    assert f"wrote {dfa_path}" in capsys.readouterr().out

    rc = main(["verify", game, str(dfa_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok:" in out


def test_solve_emit_dot(tmp_path, capsys):
    game = write_halfline(tmp_path)
    dot = tmp_path / "w.dot"
    rc = main(["solve", game, "--learner", "rpni", "--out", str(dot), "--emit", "dot"])
    assert rc == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph")


def test_solve_rejects_a_falsifying_external_model(tmp_path, capsys):
    game = write_halfline(tmp_path)
    liar = tmp_path / "liar.sh"
    liar.write_text('#!/bin/sh\necho "s SATISFIABLE"\necho "v 1 0"\n')
    os.chmod(liar, 0o755)
    rc = main(["solve", game, "--solver", f"exec:{liar}"])
    assert rc == 4
    assert "falsifies" in capsys.readouterr().err


@pytest.mark.parametrize("learner", ["sat", "rpni"])
def test_solve_rejects_an_external_unsat_on_a_satisfiable_sample(tmp_path, capsys, learner):
    game = write_halfline(tmp_path)
    liar = tmp_path / "unsat.sh"
    liar.write_text('#!/bin/sh\necho "s UNSATISFIABLE"\n')
    os.chmod(liar, 0o755)
    rc = main(["solve", game, "--learner", learner, "--solver", f"exec:{liar}"])
    assert rc == 4
    assert "UNSAT on a satisfiable" in capsys.readouterr().err


def test_solve_rejects_an_unsat_lie_below_the_rpni_bound(tmp_path, capsys, monkeypatch):
    # box(2): rpni's winning set has 7 states and the minimum is 5, so φ_6
    # is satisfiable; a solver that answers UNSAT there is an internal
    # error, and the 7-state set is not reported as minimal
    path = tmp_path / "box.game"
    path.write_text(serialize_game(generate_benchmark(BenchmarkSpec("box", {"height": 2}))),
                    encoding="utf-8")
    size_six = []

    class Book(satlearn.VarBook):
        def __init__(self, alphabet, n):
            super().__init__(alphabet, n)
            if n == 6:
                size_six.append(self.cnf)

    def liar(cnf, deadline=None):
        if any(cnf is six for six in size_six):
            return None
        return solve_internal(cnf, deadline)

    monkeypatch.setattr(satlearn, "VarBook", Book)
    monkeypatch.setattr(cli, "_solver", lambda text: liar)
    assert main(["solve", str(path), "--solver", "exec:liar"]) == 4
    captured = capsys.readouterr()
    assert "UNSAT on a satisfiable size-6 CNF" in captured.err
    assert "winning-set DFA" not in captured.out


@pytest.mark.parametrize("kind", ["missing", "not-executable"])
def test_a_solver_command_that_cannot_run_is_a_usage_error(tmp_path, capsys, kind):
    game = write_halfline(tmp_path)
    command = tmp_path / "solver.sh"
    if kind == "not-executable":
        command.write_text('#!/bin/sh\necho "s UNSATISFIABLE"\n')
        os.chmod(command, 0o644)
    with pytest.raises(SystemExit) as exc:
        main(["solve", game, "--solver", f"exec:{command}"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was solved
    assert "argument --solver" in captured.err


def test_solve_infinite_branching_is_an_input_error_for_rpni_only(tmp_path, capsys):
    path = tmp_path / "branching.game"
    path.write_text(serialize_game(infinitely_branching_game()), encoding="utf-8")
    assert main(["solve", str(path), "--learner", "rpni"]) == 3
    assert "infinitely many successors" in capsys.readouterr().err
    assert main(["solve", str(path), "--learner", "sat"]) == 0
    assert "solved: learner=sat" in capsys.readouterr().out


def test_solve_has_no_seed_flag():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "x.game", "--seed", "1"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["solve", "GAME", "--timeout", "nan"],
    ["solve", "GAME", "--timeout", "inf"],
    ["solve", "GAME", "--timeout", "-1"],
    ["solve", "GAME", "--timeout", "soon"],
    ["solve", "GAME", "--max-states", "0"],
    ["bench", "--suite", "scalability", "--kprime-list", "3", "--timeout", "nan"],
], ids=" ".join)
def test_bad_timeout_or_state_cap_is_a_usage_error(tmp_path, capsys, argv):
    game = write_halfline(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([game if a == "GAME" else a for a in argv])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was solved
    assert f"argument {argv[-2]}" in captured.err


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(text):
        raise KeyError("no such state")

    monkeypatch.setattr("winset.cli.parse_game", broken)
    rc = main(["solve", write_halfline(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err == "internal error: KeyError: 'no such state'\n"


def test_a_closed_stdout_is_not_an_internal_error(tmp_path, monkeypatch, capsys):
    # the reader of a pipe went away: exit 141, as for SIGPIPE, and say nothing
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    rc = main(["gen", "halfline", "--k", "2"])
    err = capsys.readouterr().err
    assert rc == 141
    assert "internal error" not in err
    os.write(fd, b"late output")  # the descriptor now leads to devnull
    os.close(fd)
    assert target.read_bytes() == b""


def test_solve_missing_file(capsys):
    rc = main(["solve", "/nonexistent/x.game"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_invalid_game(tmp_path, capsys):
    # gut the safe set so the initial vertex s l l falls outside it
    g = halfline_game(2)
    bad = RationalSafetyGame(g.alphabet, g.v0, g.v1, g.edges,
                             from_words(g.alphabet, []), g.initial)
    path = tmp_path / "bad.game"
    path.write_text(serialize_game(bad), encoding="utf-8")
    rc = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "invariant" in err
    assert "s l l" in err


@pytest.mark.parametrize("check", ["initial", "safe", "existential", "universal"])
def test_verify_flags_a_losing_dfa(tmp_path, capsys, check):
    # halfline(2) is won on {s l^n | n >= 2} ∪ {e l^n | n >= 3}
    a = halfline_game(2).alphabet
    losing, message = {
        "initial": (from_words(a, []), "initial vertex 's l l' is missing"),
        "safe": (union(union(tag_tail(a, "s", 2), tag_tail(a, "e", 3)),
                       from_words(a, [a.word("e l")])),
                 "unsafe vertex 'e l' is included"),
        # keeps Player-0 words but none of their e-successors
        "existential": (tag_tail(a, "s", 2), "Player-0 vertex 's l l' has no successor inside"),
        # e l l may step back to s l
        "universal": (union(tag_tail(a, "s", 2), tag_tail(a, "e", 2)),
                      "Player-1 vertex 'e l l' can escape"),
    }[check]
    game = write_halfline(tmp_path)
    p = tmp_path / "losing.dfa"
    p.write_text(serialize_dfa(determinize(losing)), encoding="utf-8")
    rc = main(["verify", game, str(p)])
    assert rc == 1
    assert capsys.readouterr().out == f"not a winning set: {message}\n"


def test_verify_rejects_partial_dfa(tmp_path, capsys):
    g = halfline_game(2)
    game = write_halfline(tmp_path)
    half = determinize(tag_tail(g.alphabet, "s", 2))
    text = serialize_dfa(half)
    p = tmp_path / "cut.dfa"
    p.write_text("\n".join(text.splitlines()[:-1]), encoding="utf-8")
    rc = main(["verify", game, str(p)])
    assert rc == 3
    assert "missing the transition" in capsys.readouterr().err


def test_a_huge_state_count_is_an_input_error(tmp_path, capsys):
    # a count far past the states a section's lines name is refused before
    # any table is sized by it, through solve and through verify alike
    g = generate_benchmark(BenchmarkSpec("diagonal", {}))
    lines = serialize_game(g).splitlines()
    at = lines.index("[safe]") + 1
    lines[at] = "states: 100000000"
    game = tmp_path / "huge.game"
    game.write_text("\n".join(lines), encoding="utf-8")
    assert main(["solve", str(game)]) == 3
    assert f"(line {at + 1})" in capsys.readouterr().err
    dfa = tmp_path / "huge.dfa"
    text = serialize_dfa(determinize(g.safe))
    dfa.write_text(text.replace("states: 5", "states: 99999999999999999999"), encoding="utf-8")
    game.write_text(serialize_game(g), encoding="utf-8")
    assert main(["verify", str(game), str(dfa)]) == 3
    assert "(line 5)" in capsys.readouterr().err


PAPER_GAMES = ("diagonal", "box", "solitary-box", "evasion", "follow", "program-repair")


def test_mutated_game_and_dfa_files_end_in_a_named_outcome(tmp_path, capsys):
    # Seeded mutants (`mutate_text`) of the paper games' texts, through
    # solve with both learners, and of those texts and the DFA files rpni
    # learns on them, through verify: every run ends in exit 0-3, never in
    # an internal error (exit 4).  Which of 0-3 a solve run ends in may
    # turn on its timeout; a verify run's does not, so verify's codes alone
    # are asked to cover the outcomes it has.
    texts = []
    for name in PAPER_GAMES:
        g = generate_benchmark(BenchmarkSpec(name, {}))
        texts.append((serialize_game(g), serialize_dfa(learn_rpni(g, LearnOptions(timeout=60)).dfa)))
    game, dfa = tmp_path / "m.game", tmp_path / "m.dfa"
    rng = random.Random(0)
    verify_codes = set()
    for trial, command in enumerate(["verify"] * 400 + ["rpni"] * 200 + ["sat"] * 60):
        game_text, dfa_text = rng.choice(texts)
        if command != "verify" or rng.random() < 0.5:
            game_text = mutate_text(rng, game_text)
        else:
            dfa_text = mutate_text(rng, dfa_text)
        game.write_text(game_text, encoding="utf-8")
        dfa.write_text(dfa_text, encoding="utf-8")
        argv = (["verify", str(game), str(dfa)] if command == "verify"
                else ["solve", str(game), "--learner", command, "--timeout", "0.5"])
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2, 3), (trial, argv, err, game_text, dfa_text)
        if command == "verify":
            verify_codes.add(rc)
    assert verify_codes == {0, 1, 3}


def test_verify_dfa_over_another_alphabet_is_an_input_error(tmp_path, capsys):
    game = write_halfline(tmp_path)
    p = tmp_path / "ab.dfa"
    p.write_text(serialize_dfa(Dfa(Alphabet(("a", "b")), 1, ((0, 0),), frozenset({0}))),
                 encoding="utf-8")
    rc = main(["verify", game, str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "(a b)" in err and "(s e l)" in err


@pytest.mark.parametrize("command", [
    ["gen", "halfline", "--out"],
    ["solve", "GAME", "--learner", "rpni", "--out"],
    ["solve", "GAME", "--learner", "rpni", "--stats"],
    ["bench", "--suite", "scalability", "--kprime-list", "", "--out"],
])
@pytest.mark.parametrize("where", ["a directory", "under a missing directory"])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, command, where):
    game = write_halfline(tmp_path)
    target = tmp_path if where == "a directory" else tmp_path / "missing" / "out.txt"
    argv = [game if a == "GAME" else a for a in command] + [str(target)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith(f"error: cannot write {target}: ")
    if command[0] == "solve":
        assert captured.out == ""  # refused before learning


def test_bench_checks_out_before_any_solve(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc = main(["bench", "--suite", "scalability", "--kprime-list", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""  # no cell was solved
    assert captured.err.startswith(f"error: cannot write {target}: ")


def test_solve_keeps_an_existing_out_file_until_it_has_a_dfa(tmp_path, capsys):
    game = write_halfline(tmp_path)
    out = tmp_path / "w.dfa"
    out.write_text("old\n", encoding="utf-8")
    rc = main(["solve", game, "--learner", "rpni", "--timeout", "0", "--out", str(out)])
    assert rc == 1 and capsys.readouterr().out.startswith("timeout:")
    assert out.read_text(encoding="utf-8") == "old\n"
    missing = tmp_path / "new.dfa"
    assert main(["solve", game, "--timeout", "0", "--out", str(missing)]) == 1
    assert not missing.exists()


@pytest.mark.parametrize("kprimes", ["3,x", "3,1", "0", "2.5"])
def test_bad_kprime_list_is_a_usage_error(capsys, kprimes):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", "scalability", "--kprime-list", kprimes])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was solved
    assert "argument --kprime-list" in captured.err


def test_gen_prints_parseable_games(capsys):
    for argv in (["gen", "interval", "--k", "1", "--kprime", "10"],
                 ["gen", "diagonal"],
                 ["gen", "halfline"]):
        assert main(argv) == 0
        g = parse_game(capsys.readouterr().out)
        assert g.alphabet.symbols[0] == "s"


def test_gen_out_file(tmp_path, capsys):
    out = tmp_path / "g.game"
    rc = main(["gen", "interval", "--k", "1", "--kprime", "4", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    parse_game(out.read_text(encoding="utf-8"))


def test_gen_bad_range_exit_3(capsys):
    rc = main(["gen", "interval", "--k", "5", "--kprime", "3"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_gen_unknown_family_is_a_usage_error():
    # argparse rejects names outside its choices list before dispatch
    with pytest.raises(SystemExit) as exc:
        main(["gen", "nonsense"])
    assert exc.value.code == 3


def test_bench_empty_suite_header_only(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--suite", "scalability", "--kprime-list", "", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = [ln for ln in out.read_text(encoding="utf-8").splitlines() if ln.strip()]
    assert lines == [",".join(CSV_COLUMNS)]


def test_bench_paper_suite_to_stdout(capsys):
    assert main(["bench", "--suite", "paper"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out[out.index(",".join(CSV_COLUMNS)):].splitlines()))
    assert len(rows) == 12  # six games, each with sat and rpni
    assert {row["outcome"] for row in rows} == {"solved"}
    sat_sizes = [int(row["dfa_size"]) for row in rows if row["learner"] == "sat"]
    assert sat_sizes == [5, 5, 4, 6, 7, 6]  # minimal, in suite order


def test_bench_rerun_identical_except_time(tmp_path, capsys):
    argv = ["bench", "--suite", "scalability", "--kprime-list", "3", "--timeout", "60"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()

    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    ra, rb = rows(a), rows(b)
    assert len(ra) == len(rb) == 3      # header + sat row + rpni row
    assert ra[0] == list(CSV_COLUMNS)
    t = CSV_COLUMNS.index("time_s")
    for x, y in zip(ra, rb):
        assert x[:t] + x[t + 1:] == y[:t] + y[t + 1:]
