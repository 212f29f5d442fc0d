"""A game player 0 cannot win, and how the solver notices.

Three vertices: p (player 0, initial, safe), q and r (player 1, only q
safe).  The only move from p goes to q, and from q the opponent can fall
to the unsafe r.  No winning set can contain p, so the accumulated
sample eventually contradicts itself and the solver reports that instead
of an automaton.
"""

from winset.automata import Alphabet, from_words
from winset.game import RationalSafetyGame, validate_game
from winset.learning import LearnOptions
from winset.relations import Transducer
from winset.sample import dump_sample
from winset.satlearn import learn

A = Alphabet(("p", "q", "r"))
P, Q, R = A.index("p"), A.index("q"), A.index("r")

edges = Transducer(A, 2, 0,
                   frozenset({(0, P, Q, 1), (0, Q, R, 1), (0, R, R, 1)}),
                   frozenset({1}))
game = validate_game(RationalSafetyGame(
    alphabet=A,
    v0=from_words(A, [(P,)]),
    v1=from_words(A, [(Q,), (R,)]),
    edges=edges,
    safe=from_words(A, [(P,), (Q,)]),
    initial=from_words(A, [(P,)]),
))

print("Moves: p -> q -> r -> r, with r unsafe and the play starting at p.")
res = learn(game, LearnOptions(timeout=30.0))
print(f"Outcome after {res.iterations} iterations: {res.outcome}")
assert res.outcome == "contradiction", f"expected a contradiction, got {res.outcome}"

print("\nThe sample that pinched the initial vertex:")
for line in dump_sample(res.sample).splitlines():
    print(f"  {line}")

print("\nReading it off: p must be in (+), r must stay out (-), the E line"
      "\nforces q in whenever p is, and the U line forces r in whenever q"
      "\nis.  No set of words satisfies all four, hence the verdict.")
