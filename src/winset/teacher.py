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

Each check is one shortlex-least-word search over a product of the
conjecture with game automata (`automata.product_word`); the product is
walked as far as the search goes and never built.  Checks 3 and 4 take
pre-images under the edge relation as `relations.Image` operands, which are
walked the same way, so the whole of each check reads the deadline, and so
does building a counterexample's consequent (`relations.successors`).

Checks 1-3 search products of deterministic operands whenever V0 and I
are deterministic, as in every benchmark family: the conjecture, F as a
`Subsets`, V0 and I as Nfas with at most one target per move, and check
3's negated Image, determinized on demand as a `Subsets`.  `product_word`
walks those as single state tuples, and it cuts every tuple in which the
conjecture, V0 or I, the positive operands, is in a dead state (one that
reaches no accepting state): no accepting tuple lies beyond it, so the
answer is the same.  Check 2 over a conjecture with a finite language
thus stops where the conjecture can no longer accept, and it fills only
the rows of F it reached.  Check 4, whose Image is a positive operand,
and any check over a nondeterministic V0 or I take its grouped search,
which expands each product state once and cuts nothing.  That Image
reads V0 ∪ V1 minus the conjecture through the product's move table,
which cuts nothing either.

The checks take a compiled game (`compile_game`): the game together with
the parts of the checks that depend only on the game, made once per run
rather than once per query.  They are F as a `Subsets`, the subset
construction of `safe` filled on demand, whose rows check 2 reads
complemented and every later query reuses, as does `rpni`'s walk of each
trial merge through F; the inverted edge transducer; and V0 ∪ V1.
`query` accepts a plain game too and compiles it itself; `run_cegis`
compiles once before its loop and passes its deadline, which `query`
reads between the checks and inside their searches, and past which it
raises SolveTimeout.
"""

from dataclasses import dataclass

from .automata import Nfa, Product, Subsets, product_word, union
from .errors import check_deadline
from .game import RationalSafetyGame
from .relations import Image, Transducer, invert, successors


@dataclass(frozen=True)
class CompiledGame:
    """A game with the game-only parts of the four checks built once."""

    game: RationalSafetyGame
    safe: Subsets  # F, determinized on demand; its rows serve every query and rpni's walk
    back_edges: Transducer  # the inverse edge relation
    vertices: Nfa  # V0 ∪ V1


def compile_game(g):
    """The CompiledGame of `g`; `g` itself when it is compiled already."""
    if isinstance(g, CompiledGame):
        return g
    return CompiledGame(
        game=g,
        safe=Subsets(g.safe),
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
    """Antecedent word and its exact successor language, the Nfa that
    `relations.successors` builds: keeping `word` in the conjecture
    requires keeping at least one word of `consequent` too."""

    word: tuple
    consequent: Nfa


@dataclass(frozen=True)
class Universal:
    """Keeping `word` requires keeping all of `consequent`."""

    word: tuple
    consequent: Nfa


def check_initial(g, c, deadline=None):
    """Shortlex-least u in I \\ L(c), or None."""
    return product_word([g.game.initial], [c], deadline)


def check_safe(g, c, deadline=None):
    """Shortlex-least u in L(c) \\ F, or None."""
    return product_word([c], [g.safe], deadline)


def check_existential(g, c, deadline=None):
    """Least u in L(c) ∩ V0 all of whose successors avoid L(c), with E({u})."""
    has_succ_in_c = Image(g.back_edges, c)
    u = product_word([c, g.game.v0], [has_succ_in_c], deadline)
    if u is None:
        return None
    return u, successors(g.game.edges, u, deadline)


def check_universal(g, c, deadline=None):
    """Least u in L(c) ∩ V1 with some successor outside L(c), with E({u})."""
    can_escape = Image(g.back_edges, Product([g.vertices], [c]))
    u = product_word([g.game.v1, c, can_escape], deadline=deadline)
    if u is None:
        return None
    return u, successors(g.game.edges, u, deadline)


def query(g, c, deadline=None):
    """Run checks 1,2,3,4; return the first counterexample or None for "yes".

    None means L(c) really is a winning set: it covers I, stays within F, and
    is existentially/universally closed under the edge relation.  `g` is a
    game or a CompiledGame.  Past `deadline` (a time.monotonic() value,
    read between the checks and inside their searches) it raises
    SolveTimeout.
    """
    g = compile_game(g)
    check_deadline(deadline, "the teacher")
    u = check_initial(g, c, deadline)
    if u is not None:
        return Positive(u)
    check_deadline(deadline, "the teacher")
    u = check_safe(g, c, deadline)
    if u is not None:
        return Negative(u)
    check_deadline(deadline, "the teacher")
    hit = check_existential(g, c, deadline)
    if hit is not None:
        return Existential(*hit)
    check_deadline(deadline, "the teacher")
    hit = check_universal(g, c, deadline)
    if hit is not None:
        return Universal(*hit)
    return None
