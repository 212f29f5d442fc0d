"""The counterexample-guided loop shared by both learners.

One iteration: check the sample is still satisfiable at all, build a
conjecture consistent with it, ask the teacher, and either finish or grow
the sample with the counterexample.  Everything is wall-clock bounded; the
solver backends check the same deadline cooperatively.
"""

import time
from dataclasses import dataclass, field

from .errors import CapExceededError, ContradictionError, InternalConsistencyError, SolveTimeout
from .errors import ExternalSolverError
from .prop import solve_internal
from .sample import add, check_contradiction, chi, empty_sample
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
    that the internal solver found the sample's chi CNF unsatisfiable too.
    A plugged-in solver's UNSAT that the internal one refutes raises
    ExternalSolverError.
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
            if check_contradiction(s, solver, deadline) == "contradictory":
                break
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
        pass
    # The sample's chi CNF was found unsatisfiable, by check_contradiction
    # or inside the conjecture; an UNSAT from a plugged-in solver is not
    # trusted until the internal solver proves it too.
    try:
        model = solve_internal(chi(s)[0], deadline)
    except SolveTimeout:
        return result("timeout")
    if model is not None:
        raise ExternalSolverError("the solver answered UNSAT on a satisfiable sample CNF")
    return result("contradiction")
