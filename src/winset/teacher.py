"""The teacher: answers whether a conjectured DFA is a winning set.

Four checks, run in a fixed order, each phrased as automata algebra:

  1. initial vertices covered:       I \\ L(C) empty
  2. only safe vertices:             L(C) \\ F empty
  3. existential closure (Player 0): no u in L(C) ∩ V0 without a successor
                                     in L(C)
  4. universal closure (Player 1):   no u in L(C) ∩ V1 with a successor
                                     outside L(C)

Every returned witness is the shortlex-least word of the violating language,
so identical inputs always produce identical counterexamples.

The checks take a compiled game (`compile_game`): the game together with
the parts of the checks that depend only on the game, built once per run
rather than once per query.  They are the complement of F as an NFA (one
determinization of `safe`, which can have thousands of states), the
inverted edge transducer, and V0 ∪ V1.  `query` accepts a plain game too
and compiles it itself; `run_cegis` compiles once before its loop.
"""

from dataclasses import dataclass

from .automata import (
    Nfa,
    as_nfa,
    complement,
    determinize,
    difference,
    intersect,
    minimize,
    shortest_word,
    trim,
    union,
)
from .game import RationalSafetyGame
from .relations import Transducer, image, invert, successors


@dataclass(frozen=True)
class CompiledGame:
    """A game with the game-only parts of the four checks built once."""

    game: RationalSafetyGame
    unsafe: Nfa  # complement of F
    back_edges: Transducer  # the inverse edge relation
    vertices: Nfa  # V0 ∪ V1


def compile_game(g):
    """The CompiledGame of `g`; `g` itself when it is compiled already."""
    if isinstance(g, CompiledGame):
        return g
    return CompiledGame(
        game=g,
        unsafe=as_nfa(complement(determinize(g.safe))),
        back_edges=invert(g.edges),
        vertices=union(g.v0, g.v1),
    )


@dataclass(frozen=True)
class Positive:
    word: tuple


@dataclass(frozen=True)
class Negative:
    word: tuple


@dataclass(frozen=True)
class Existential:
    """Antecedent word and its exact successor language: keeping `word` in the
    conjecture requires keeping at least one word of `consequent` too."""

    word: tuple
    consequent: Nfa


@dataclass(frozen=True)
class Universal:
    """Keeping `word` requires keeping all of `consequent`."""

    word: tuple
    consequent: Nfa


def normalize_consequent(a):
    """Canonical form for implication consequents: minimal DFA, dead sink cut.

    Language-equal consequents become structurally equal values, which makes
    sample deduplication exact and keeps SAT encodings small.
    """
    return trim(minimize(determinize(a)))


def check_initial(g, c):
    """Shortlex-least u in I \\ L(c), or None."""
    return shortest_word(difference(g.game.initial, c))


def check_safe(g, c):
    """Shortlex-least u in L(c) \\ F, or None."""
    return shortest_word(intersect(as_nfa(c), g.unsafe))


def check_existential(g, c):
    """Least u in L(c) ∩ V0 all of whose successors avoid L(c), with E({u})."""
    has_succ_in_c = image(g.back_edges, as_nfa(c))
    stuck = intersect(as_nfa(c), difference(g.game.v0, has_succ_in_c))
    u = shortest_word(stuck)
    if u is None:
        return None
    return u, normalize_consequent(successors(g.game.edges, u))


def check_universal(g, c):
    """Least u in L(c) ∩ V1 with some successor outside L(c), with E({u})."""
    outside = difference(g.vertices, c)
    can_escape = image(g.back_edges, outside)
    bad = intersect(intersect(g.game.v1, as_nfa(c)), can_escape)
    u = shortest_word(bad)
    if u is None:
        return None
    return u, normalize_consequent(successors(g.game.edges, u))


def query(g, c):
    """Run checks 1,2,3,4; return the first counterexample or None for "yes".

    None means L(c) really is a winning set: it covers I, stays within F, and
    is existentially/universally closed under the edge relation.  `g` is a
    game or a CompiledGame.
    """
    g = compile_game(g)
    u = check_initial(g, c)
    if u is not None:
        return Positive(u)
    u = check_safe(g, c)
    if u is not None:
        return Negative(u)
    hit = check_existential(g, c)
    if hit is not None:
        return Existential(*hit)
    hit = check_universal(g, c)
    if hit is not None:
        return Universal(*hit)
    return None
