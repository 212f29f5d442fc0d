"""ICE samples: positive/negative words plus implication counterexamples.

A sample is the learner's accumulated knowledge.  A DFA B is consistent with
it iff Pos ⊆ L(B), Neg ∩ L(B) = ∅, and for every implication (u, A):
existential — u ∈ L(B) implies L(B) ∩ L(A) ≠ ∅; universal — u ∈ L(B)
implies L(A) ⊆ L(B).
"""

from dataclasses import dataclass, replace
from functools import lru_cache

from . import automata
from .automata import accepts, product_word, shortlex_key
from .errors import ContradictionError, InternalConsistencyError
from .prop import CnfInstance, solve_checked
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


# the Sample field each kind of counterexample goes to
_FIELD = {Positive: "pos", Negative: "neg", Existential: "ex", Universal: "uni"}


def extends(s, old):
    """Whether the sample `s` holds `old`'s items first, in `old`'s order,
    in each of its item lists."""
    return all(getattr(s, f)[:len(getattr(old, f))] == getattr(old, f) for f in _FIELD.values())


def since(s, old):
    """The items of `s` past those of `old`, a sample it `extends`."""
    return Sample(s.alphabet, *(getattr(s, f)[len(getattr(old, f)):] for f in _FIELD.values()))


def add(s, cex):
    """Append a counterexample to its set; duplicates leave s unchanged."""
    field = _FIELD.get(type(cex))
    if field is None:
        raise InternalConsistencyError(f"not a counterexample: {cex!r}")
    item = (cex.word, cex.consequent) if field in ("ex", "uni") else cex.word
    items = getattr(s, field)
    if item in items:
        return s
    return replace(s, **{field: items + (item,)})


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


def _settle(items, acc, rej):
    """Grow, in place, the words every consistent DFA accepts (`acc`) and
    rejects (`rej`) by the implications `items`, (universal?, u, words)
    with finite consequents: a universal's accepted u puts its words in
    acc, and one rejected word puts u in rej; an existential whose words
    are all rejected puts u in rej, and with u accepted every word whose
    fellows are all rejected goes to acc.  Every rule only gets more
    chances to fire as facts are added, so more facts never settle fewer
    (on a contradictory sample too, where both sets may share words)."""
    changed = True
    while changed:
        changed = False
        for universal, u, words in items:
            if universal:
                if u in acc and not acc.issuperset(words):
                    acc.update(words)
                    changed = True
                if u not in rej and not rej.isdisjoint(words):
                    rej.add(u)
                    changed = True
                continue
            live = [w for w in words if w not in rej]
            if not live and u not in rej:
                rej.add(u)
                changed = True
            if u in acc and len(live) <= 1:
                for w in words:
                    if w not in acc and all(x in rej for x in words if x != w):
                        acc.add(w)
                        changed = True


def _split_pairs(acc, rej, prefixes):
    """Pairs of distinct `prefixes` u, v with a suffix t such that u·t is in
    acc and v·t in rej, each as (shortlex-smaller, larger)."""
    ends = {}  # suffix t -> the prefixes v with v·t in rej
    for r in rej:
        for i in range(len(r) + 1):
            if r[:i] in prefixes:
                ends.setdefault(r[i:], []).append(r[:i])
    pairs = set()
    for a in acc:
        for i in range(len(a) + 1):
            u = a[:i]
            if u in prefixes:
                for v in ends.get(a[i:], ()):
                    if v != u:
                        pairs.add((u, v) if (i, u) < (len(v), v) else (v, u))
    return pairs


# one entry: a hit is a fresh book, at the next size the schedule tries,
# encoding the sample that the book before it has just encoded
@lru_cache(maxsize=1)
def distinct_pairs(s):
    """Pairs (u, v) of prefixes of the sample's words (positive, negative
    and antecedents) that every DFA consistent with `s` runs to different
    states, each shortlex-smaller first.

    A pair is found when some suffix t has u·t accepted and v·t rejected by
    the words that the sample settles (`_settle` from Pos and Neg), or in
    every case of an existential item whose antecedent is settled accepted
    and whose consequent has finitely many words: one case per word w, the
    pairs found with w accepted too.  Every consistent DFA accepts one of
    the words, so it runs the pairs of that case apart.  A sample that
    extends another keeps every pair of it.
    """
    items = [(True, u, finite_words(a)) for (u, a) in s.uni]
    items += [(False, u, finite_words(a)) for (u, a) in s.ex]
    items = [item for item in items if item[2] is not None]
    heads = (*s.pos, *s.neg, *(u for (u, _a) in s.ex), *(u for (u, _a) in s.uni))
    prefixes = {w[:i] for w in heads for i in range(len(w) + 1)}
    acc, rej = set(s.pos), set(s.neg)
    _settle(items, acc, rej)
    pairs = _split_pairs(acc, rej, prefixes)
    for universal, u, words in items:
        if universal or u not in acc or len(words) < 2:
            continue
        cases = []
        for w in words:
            case_acc, case_rej = acc | {w}, set(rej)
            _settle(items, case_acc, case_rej)
            cases.append(_split_pairs(case_acc, case_rej, prefixes))
        pairs |= set.intersection(*cases)
    return pairs


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

    A plugged-in solver's UNSAT is re-proved first (`prop.solve_checked`);
    a model there raises ExternalSolverError.
    """
    built = chi(s)
    if built is None:
        return None
    cnf, var = built
    model = solve_checked(solver, cnf, deadline, "sample")
    if model is None:
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
