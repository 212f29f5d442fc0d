"""The counterexample-guided loop shared by both learners.

One iteration: build a conjecture consistent with the sample, ask the
teacher, and either finish or grow the sample with the counterexample.
Each learner's conjecture starts with `sample.check_contradiction`, the one
solve of the sample's chi CNF per iteration; its ContradictionError ends
the run as `contradiction`.  Everything is wall-clock bounded; the solver
backends check the same deadline cooperatively.
"""

import time
from dataclasses import dataclass

from .errors import CapExceededError, ContradictionError, InternalConsistencyError, SolveTimeout
from .prop import solve_internal
from .sample import add, empty_sample
from .teacher import query

OUTCOMES = ("solved", "timeout", "contradiction", "cap-exceeded")


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


def run_cegis(game, conjecture, tag, opts=None):
    """Drive Algorithm-1-style learning with `conjecture(sample, solver, deadline)`.

    Returns a LearnResult whose outcome is one of OUTCOMES; `solved` implies
    the returned DFA just passed the teacher's query, and `contradiction`
    that the conjecture raised ContradictionError (the sample's chi CNF is
    unsatisfiable).
    """
    opts = opts or LearnOptions()
    solver = opts.solver or solve_internal
    start = time.monotonic()
    deadline = start + opts.timeout
    s = empty_sample(game.alphabet)
    iterations = 0
    solve_time = 0.0
    teacher_time = 0.0

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
            t0 = time.monotonic()
            d = conjecture(s, solver, deadline)
            solve_time += time.monotonic() - t0
            t0 = time.monotonic()
            cex = query(game, d)
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
