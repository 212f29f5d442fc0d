"""Exception hierarchy shared across the package, and the one deadline read."""

import time


class WinsetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidWordError(WinsetError):
    """A word contains a symbol index outside its alphabet."""


class AlphabetMismatchError(WinsetError):
    """Two automata/relations combined over different alphabets."""


class GameFormatError(WinsetError):
    """Syntax error in a game/automaton file."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


class InvariantViolation(WinsetError):
    """A game violates one of its structural invariants.

    Carries the invariant name and, where one exists, a witness word.
    """

    def __init__(self, invariant, witness=None):
        self.invariant = invariant
        self.witness = witness
        msg = f"invariant violated: {invariant}"
        if witness is not None:
            msg += f" (witness: {witness!r})"
        super().__init__(msg)


class ContradictionError(WinsetError):
    """The sample admits no consistent DFA (Player 1 may win from I)."""


class InfiniteBranchingError(WinsetError):
    """A vertex has infinitely many successors (state-merging learner precondition)."""

    def __init__(self, word_text):
        self.word_text = word_text
        super().__init__(f"vertex {word_text!r} has infinitely many successors")


class CapExceededError(WinsetError):
    """The SAT learner hit its state-count cap without finding a consistent DFA."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"no consistent DFA with at most {cap} states")


class SolveTimeout(WinsetError):
    """Cooperative wall-clock timeout raised inside a solver or learner."""


def check_deadline(deadline, what):
    """Raise SolveTimeout("<what> hit the deadline") once `deadline`, a
    time.monotonic() value, has passed; None is no deadline.  Every
    cooperative deadline read in the package goes through here; a hot loop
    calls it every 256 steps, behind its own `deadline is not None` test."""
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout(f"{what} hit the deadline")


class ExternalSolverError(WinsetError):
    """An external SAT backend failed or produced unreadable output."""


class InternalConsistencyError(WinsetError):
    """A model violated an invariant that satisfiable encodings guarantee."""
