"""ICE samples: positive/negative words plus implication counterexamples.

A sample is the learner's accumulated knowledge.  A DFA B is consistent with
it iff Pos ⊆ L(B), Neg ∩ L(B) = ∅, and for every implication (u, A):
existential — u ∈ L(B) implies L(B) ∩ L(A) ≠ ∅; universal — u ∈ L(B)
implies L(A) ⊆ L(B).
"""

from dataclasses import dataclass
from functools import lru_cache

from . import automata
from .automata import accepts, product_word, shortlex_key
from .errors import ContradictionError, ExternalSolverError, InternalConsistencyError
from .prop import CnfInstance, solve_internal
from .teacher import Existential, Negative, Positive, Universal


@dataclass(frozen=True)
class Sample:
    alphabet: object
    pos: tuple = ()
    neg: tuple = ()
    ex: tuple = ()  # of (word, consequent Nfa)
    uni: tuple = ()

    def size(self):
        return len(self.pos) + len(self.neg) + len(self.ex) + len(self.uni)


def empty_sample(alphabet):
    return Sample(alphabet)


def add(s, cex):
    """Append a counterexample to its set; duplicates leave s unchanged."""
    if isinstance(cex, Positive):
        if cex.word in s.pos:
            return s
        return Sample(s.alphabet, s.pos + (cex.word,), s.neg, s.ex, s.uni)
    if isinstance(cex, Negative):
        if cex.word in s.neg:
            return s
        return Sample(s.alphabet, s.pos, s.neg + (cex.word,), s.ex, s.uni)
    if isinstance(cex, Existential):
        item = (cex.word, cex.consequent)
        if item in s.ex:
            return s
        return Sample(s.alphabet, s.pos, s.neg, s.ex + (item,), s.uni)
    if isinstance(cex, Universal):
        item = (cex.word, cex.consequent)
        if item in s.uni:
            return s
        return Sample(s.alphabet, s.pos, s.neg, s.ex, s.uni + (item,))
    raise InternalConsistencyError(f"not a counterexample: {cex!r}")


# each consequent's words, cached: every conjecture asks for them again
finite_words = lru_cache(maxsize=None)(automata.finite_words)


def is_consistent(d, s):
    """(True, None) or (False, (kind, offending item))."""
    for u in s.pos:
        if not accepts(d, u):
            return False, ("pos", u)
    for u in s.neg:
        if accepts(d, u):
            return False, ("neg", u)
    for (u, a) in s.ex:
        if not accepts(d, u):
            continue
        words = finite_words(a)
        if words is not None:
            if not any(accepts(d, v) for v in words):
                return False, ("ex", (u, a))
        elif product_word([d, a]) is None:
            return False, ("ex", (u, a))
    for (u, a) in s.uni:
        if not accepts(d, u):
            continue
        words = finite_words(a)
        if words is not None:
            if not all(accepts(d, v) for v in words):
                return False, ("uni", (u, a))
        elif product_word([a], [d]) is not None:
            return False, ("uni", (u, a))
    return True, None


def chi(s):
    """The membership CNF over the sample's word universe, or None.

    One variable per word, numbered in shortlex order from 1; returns
    (CnfInstance, word -> variable).  A model is exactly a consistent
    assignment of "in the target language" to every word the sample
    mentions.  None when some consequent language is infinite (the universe
    would be too).  A universal item with two or more consequent words goes
    through one gate per word set, implying all of them; repeated clauses
    and tautologies are left out.
    """
    consequents = {}
    for (_u, a) in s.ex + s.uni:
        if a not in consequents:
            words = finite_words(a)
            if words is None:
                return None
            consequents[a] = words
    universe = set(s.pos) | set(s.neg)
    universe.update(u for (u, _a) in s.ex)
    universe.update(u for (u, _a) in s.uni)
    for words in consequents.values():
        universe.update(words)
    var = {w: i + 1 for i, w in enumerate(sorted(universe, key=shortlex_key))}
    tops = [(var[w],) for w in s.pos] + [(-var[w],) for w in s.neg]
    tops += [(-var[u],) + tuple(var[v] for v in consequents[a]) for (u, a) in s.ex]
    alls = [(var[u], tuple(var[v] for v in consequents[a])) for (u, a) in s.uni if consequents[a]]
    # The count covers the words some clause mentions: a universal item with
    # nothing to accept constrains nothing and mentions nothing.
    ids = [abs(l) for c in tops for l in c] + [v for (u, vs) in alls for v in (u, *vs)]
    cnf = CnfInstance(max(ids, default=0))
    seen, gates = set(), {}

    def emit(clause):
        if clause not in seen and -clause[0] not in clause:
            seen.add(clause)
            cnf.clauses.append(list(clause))

    for clause in tops:
        emit(clause)
    for (u, vs) in alls:
        if len(vs) == 1:
            emit((-u, vs[0]))
            continue
        if vs not in gates:
            cnf.var_count += 1
            gates[vs] = cnf.var_count
            cnf.clauses += [[-cnf.var_count, v] for v in vs]
        emit((-u, gates[vs]))
    return cnf, var


def check_contradiction(s, solver=None, deadline=None):
    """The words a model of chi puts in the language (a frozenset Pos' ⊇ Pos
    that settles every implication), or None when some consequent is
    infinite.  Raises ContradictionError when chi is unsatisfiable.

    A plugged-in solver's UNSAT is not trusted until the internal solver
    proves it too; a model there raises ExternalSolverError.
    """
    built = chi(s)
    if built is None:
        return None
    cnf, var = built
    model = (solver or solve_internal)(cnf, deadline)
    if model is None:
        if solver not in (None, solve_internal) and solve_internal(cnf, deadline) is not None:
            raise ExternalSolverError("the solver answered UNSAT on a satisfiable sample CNF")
        raise ContradictionError("sample is contradictory: Player 1 may win from I")
    return frozenset(w for w, v in var.items() if model.get(v, False))


def dump_sample(s):
    """One line per item: `+ w`, `- w`, `E w -> v1, v2`, `U w -> ...`."""
    text = s.alphabet.text
    lines = [f"+ {text(w)}" for w in s.pos]
    lines += [f"- {text(w)}" for w in s.neg]
    for tag, items in (("E", s.ex), ("U", s.uni)):
        for (u, a) in items:
            words = finite_words(a)
            if words is None:
                rhs = f"<automaton: {a.state_count} states>"
            else:
                rhs = ", ".join(text(v) for v in words)
            lines.append(f"{tag} {text(u)} -> {rhs}")
    return "\n".join(lines)
