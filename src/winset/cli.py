"""Command-line interface: solve, verify, gen, bench.

Exit codes: 0 solved/ok, 1 timeout or state-cap exhausted, 2 contradiction
(no winning set covers I), 3 input or usage error (an unwritable output
path included), 4 internal error.
"""

import argparse
import csv
import io
import math
import os
import sys

from .automata import to_dot
from .benchmarks import FAMILIES, BenchmarkSpec, game_size, generate_benchmark
from .errors import (
    ContradictionError,
    ExternalSolverError,
    GameFormatError,
    InfiniteBranchingError,
    InternalConsistencyError,
    InvariantViolation,
    WinsetError,
)
from .game import parse_dfa, parse_game, serialize_dfa, serialize_game
from .learning import LearnOptions
from .prop import make_solver
from .rpni import learn_rpni
from .satlearn import learn as learn_sat
from .teacher import Existential, Negative, Positive, Universal, query

CSV_COLUMNS = (
    "game",
    "game_size",
    "learner",
    "time_s",
    "iterations",
    "dfa_size",
    "pos",
    "neg",
    "ex",
    "uni",
    "outcome",
)
# `solve --stats` rows also split the time between the learner and the teacher.
STATS_COLUMNS = CSV_COLUMNS + ("solve_s", "teacher_s")

EXIT_BY_OUTCOME = {"solved": 0, "timeout": 1, "cap-exceeded": 1, "contradiction": 2}


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise GameFormatError(f"cannot read {path}: {e}") from None


def _open_out(path, mode):
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as e:
        raise GameFormatError(f"cannot write {path}: {e}") from None


def _check_writable(path):
    """Report an unwritable output path now, not after a long solve; an
    existing file keeps its contents."""
    existed = os.path.exists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def _write(path, text):
    with _open_out(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _stats_row(game_name, g, res):
    return {
        "game": game_name,
        "game_size": game_size(g),
        "learner": res.learner,
        "time_s": f"{res.wall_time:.2f}",
        "iterations": res.iterations,
        "dfa_size": res.dfa.state_count if res.dfa is not None else "",
        "pos": res.sample_sizes[0],
        "neg": res.sample_sizes[1],
        "ex": res.sample_sizes[2],
        "uni": res.sample_sizes[3],
        "outcome": res.outcome,
    }


def _stats_header(path):
    """The header line of an existing --stats file, or "" for none."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
    except OSError:
        header = ""
    if header and header != ",".join(STATS_COLUMNS):
        # rows under another header would land in the wrong columns
        raise GameFormatError(f"{path} has other columns than --stats writes: {header}")
    return header


def _append_csv(path, rows):
    header = _stats_header(path)
    with _open_out(path, "a") as fh:
        writer = csv.DictWriter(fh, fieldnames=STATS_COLUMNS)
        if not header:
            writer.writeheader()
        writer.writerows(rows)


def _run_learner(g, args):
    opts = LearnOptions(
        timeout=args.timeout,
        max_states=args.max_states,
        solver=make_solver(args.solver),
    )
    run = learn_sat if args.learner == "sat" else learn_rpni
    return run(g, opts)


def cmd_solve(args):
    g = parse_game(_read(args.game))
    for path in (args.out, args.stats):
        if path:
            _check_writable(path)
    if args.stats:
        _stats_header(args.stats)
    res = _run_learner(g, args)
    pos, neg, ex, uni = res.sample_sizes
    print(
        f"{res.outcome}: learner={res.learner} iterations={res.iterations} "
        f"time={res.wall_time:.2f}s sample=+{pos}/-{neg}/E{ex}/U{uni}"
    )
    if res.dfa is not None:
        print(f"winning-set DFA: {res.dfa.state_count} states")
        if args.out:
            text = to_dot(res.dfa) if args.emit == "dot" else serialize_dfa(res.dfa)
            _write(args.out, text)
            print(f"wrote {args.out}")
    if args.stats:
        name = args.game.rsplit("/", 1)[-1]
        row = _stats_row(name, g, res)
        row["solve_s"] = f"{res.solve_time:.2f}"
        row["teacher_s"] = f"{res.teacher_time:.2f}"
        _append_csv(args.stats, [row])
    return EXIT_BY_OUTCOME[res.outcome]


def cmd_verify(args):
    g = parse_game(_read(args.game))
    d = parse_dfa(_read(args.dfa))
    if d.alphabet != g.alphabet:
        raise GameFormatError(
            f"the DFA's alphabet ({' '.join(d.alphabet.symbols)}) is not the game's "
            f"({' '.join(g.alphabet.symbols)})"
        )
    cex = query(g, d)
    if cex is None:
        print("ok: the DFA accepts a winning set")
        return 0
    text = g.alphabet.text(cex.word)
    if isinstance(cex, Positive):
        print(f"not a winning set: initial vertex {text!r} is missing")
    elif isinstance(cex, Negative):
        print(f"not a winning set: unsafe vertex {text!r} is included")
    elif isinstance(cex, Existential):
        print(f"not a winning set: Player-0 vertex {text!r} has no successor inside")
    elif isinstance(cex, Universal):
        print(f"not a winning set: Player-1 vertex {text!r} can escape")
    return 1


def _gen_parameters():
    """Every family parameter, each once, in table order."""
    return list(dict.fromkeys(key for _build, defaults in FAMILIES.values() for key in defaults))


def cmd_gen(args):
    params = {}
    for key in _gen_parameters():
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = generate_benchmark(BenchmarkSpec(args.family, params))
    text = serialize_game(g)
    if args.out:
        _write(args.out, text)
        print(f"wrote {args.out} (size {game_size(g)})")
    else:
        print(text)
    return 0


def _suite_games(args):
    if args.suite == "paper":
        for name in ("diagonal", "box", "solitary-box", "evasion", "follow", "program-repair"):
            yield name, generate_benchmark(BenchmarkSpec(name, {}))
    else:
        for kp in args.kprime_list:
            spec = BenchmarkSpec("interval", {"k": 1, "kprime": kp})
            yield f"interval(1,{kp})", generate_benchmark(spec)


def cmd_bench(args):
    if args.out:
        _check_writable(args.out)
    rows = []
    for name, g in _suite_games(args):
        for learner in ("sat", "rpni"):
            opts = LearnOptions(timeout=args.timeout, solver=make_solver(args.solver))
            res = (learn_sat if learner == "sat" else learn_rpni)(g, opts)
            row = _stats_row(name, g, res)
            rows.append(row)
            print(
                f"{name:>18} {learner:>4}: {row['outcome']} "
                f"time={row['time_s']}s iter={row['iterations']} size={row['dfa_size']}"
            )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        _write(args.out, buf.getvalue())
        print(f"wrote {args.out}")
    else:
        print(buf.getvalue(), end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the input-error code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _checked(parse, ok, expected):
    """An argparse `type`: `parse`, then reject what fails `ok`."""

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_timeout = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_state_cap = _checked(int, lambda v: v >= 1, "an integer >= 1")
# the scalability suite solves interval(1, k'), which needs k' >= 2
_kprime_list = _checked(
    lambda text: [int(part) for part in text.split(",") if part.strip()],
    lambda kps: min(kps, default=2) >= 2,
    "comma-separated integers >= 2",
)


def build_parser():
    parser = _Parser(
        prog="winset",
        description="Learn regular winning sets for safety games on "
        "automaton-represented infinite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="learn a winning set for a game file")
    p.add_argument("game")
    p.add_argument("--learner", choices=("sat", "rpni"), default="sat")
    p.add_argument("--timeout", type=_timeout, default=300.0)
    p.add_argument("--max-states", type=_state_cap, default=32, help="SAT learner size cap")
    p.add_argument("--solver", default="internal", help="internal or exec:<path>")
    p.add_argument("--out", help="write the learned DFA here")
    p.add_argument("--stats", help="append one CSV row here")
    p.add_argument("--emit", choices=("aut", "dot"), default="aut")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check a DFA file against a game file")
    p.add_argument("game")
    p.add_argument("dfa")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a benchmark game file")
    p.add_argument("family", choices=tuple(FAMILIES))
    for key in _gen_parameters():
        p.add_argument(f"--{key}", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="run a learner comparison suite, emit CSV")
    p.add_argument("--suite", choices=("paper", "scalability"), default="paper")
    p.add_argument("--kprime-list", type=_kprime_list, default="10,50,100")
    p.add_argument("--timeout", type=_timeout, default=300.0)
    p.add_argument("--solver", default="internal")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GameFormatError, InvariantViolation, InfiniteBranchingError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ContradictionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (InternalConsistencyError, ExternalSolverError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except WinsetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # a defect, not bad input: no traceback, exit 4
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
