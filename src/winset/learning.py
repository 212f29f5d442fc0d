"""The counterexample-guided loop shared by both learners.

One iteration: build a conjecture consistent with the sample, ask the
teacher, and either finish or grow the sample with the counterexample.
Each learner's conjecture starts with `sample.check_contradiction`, the one
solve of the sample's chi CNF per iteration; its ContradictionError ends
the run as `contradiction`.  Everything is wall-clock bounded; the solver
backends and the teacher check the same deadline cooperatively.
"""

import time
from dataclasses import dataclass

from .errors import CapExceededError, ContradictionError, InternalConsistencyError, SolveTimeout
from .prop import solve_internal
from .sample import add, empty_sample
from .teacher import compile_game, query

@dataclass
class LearnOptions:
    timeout: float = 300.0
    max_states: int = 32  # SAT learner size cap
    solver: object = None  # callable (cnf, deadline) -> model | None


@dataclass
class LearnResult:
    learner: str
    outcome: str
    dfa: object = None
    iterations: int = 0
    sample_sizes: tuple = (0, 0, 0, 0)
    wall_time: float = 0.0
    solve_time: float = 0.0
    teacher_time: float = 0.0
    sample: object = None


def run_cegis(game, conjecture, tag, opts=None, prior=None, start=None):
    """Drive Algorithm-1-style learning with `conjecture(sample, solver, deadline)`.

    Returns a LearnResult whose outcome is "solved", "timeout",
    "contradiction" or "cap-exceeded" (the keys of `cli.EXIT_BY_OUTCOME`);
    `solved` implies the returned DFA just passed the teacher's query, and
    `contradiction` that the conjecture raised ContradictionError (the
    sample's chi CNF is unsatisfiable).

    A run may come in parts, one call each, as the sat learner's size
    schedule makes it.  `prior`, the result of the part before, hands over
    its sample, its iteration count and its layer times, which this part
    goes on from.  `start`, the run's start on the monotonic clock, carries
    the deadline (`start` + `opts.timeout`) and the wall time over; it
    defaults to the call's own start.  `game` may be compiled already
    (`teacher.compile_game`), so that the parts share one compiled game.
    """
    opts = opts or LearnOptions()
    solver = opts.solver or solve_internal
    start = time.monotonic() if start is None else start
    deadline = start + opts.timeout
    iterations, solve_time, teacher_time = (
        (0, 0.0, 0.0) if prior is None
        else (prior.iterations, prior.solve_time, prior.teacher_time)
    )
    t0 = time.monotonic()
    compiled = compile_game(game)
    teacher_time += time.monotonic() - t0
    s = empty_sample(compiled.game.alphabet) if prior is None else prior.sample

    def result(outcome, dfa=None):
        return LearnResult(
            learner=tag,
            outcome=outcome,
            dfa=dfa,
            iterations=iterations,
            sample_sizes=(len(s.pos), len(s.neg), len(s.ex), len(s.uni)),
            wall_time=time.monotonic() - start,
            solve_time=solve_time,
            teacher_time=teacher_time,
            sample=s,
        )

    try:
        while True:
            if time.monotonic() > deadline:
                return result("timeout")
            iterations += 1
            # in a `finally`, so a call the deadline interrupts is counted too
            t0 = time.monotonic()
            try:
                d = conjecture(s, solver, deadline)
            finally:
                solve_time += time.monotonic() - t0
            t0 = time.monotonic()
            try:
                cex = query(compiled, d, deadline)
            finally:
                teacher_time += time.monotonic() - t0
            if cex is None:
                return result("solved", d)
            grown = add(s, cex)
            if grown is s:
                raise InternalConsistencyError(
                    f"teacher repeated a counterexample already in the sample: {cex!r}"
                )
            s = grown
    except SolveTimeout:
        return result("timeout")
    except CapExceededError:
        return result("cap-exceeded")
    except ContradictionError:
        return result("contradiction")
