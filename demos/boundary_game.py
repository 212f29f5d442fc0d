"""Walk through the half-line boundary game, the worked example of the
whole library.

Player 0 sits on words s l^p, player 1 on e l^p; moving hands the turn
over and may shift the position p by one.  Everything below p = 2 is
unsafe, the play starts at s l l, so player 0 has to hug the boundary
forever.  The script interrogates the teacher by hand, then lets the SAT
learner find the winning set on its own.
"""

from winset.automata import determinize, finite_words, from_words, minimize, union, Nfa
from winset.benchmarks import halfline_game
from winset.learning import LearnOptions
from winset.satlearn import learn
from winset.sample import dump_sample
from winset.teacher import query

G = halfline_game(2)
A = G.alphabet


def dfa_of(nfa):
    return minimize(determinize(nfa))


def tag_tail(tag, k):
    """{tag l^n | n >= k} as an NFA chain with a final self-loop."""
    t, l = A.index(tag), A.index("l")
    trans = {(0, t, 1)} | {(i, l, i + 1) for i in range(1, k + 1)} | {(k + 1, l, k + 1)}
    return Nfa(A, k + 2, 0, frozenset(trans), frozenset({k + 1}))


def ask(label, conjecture):
    cex = query(G, conjecture)
    if cex is None:
        print(f"  {label:<28} -> accepted, this is a winning set")
    else:
        kind = type(cex).__name__
        extra = ""
        if hasattr(cex, "consequent"):
            succ = ", ".join(A.text(w) for w in finite_words(cex.consequent))
            extra = f" with successors {{{succ}}}"
        print(f"  {label:<28} -> {kind} counterexample '{A.text(cex.word)}'{extra}")
    return cex


def show_dfa(d):
    for p in range(d.state_count):
        row = ", ".join(f"{A.symbols[s]} -> {q}" for s, q in enumerate(d.delta[p]))
        mark = "accepting" if p in d.accepting else "rejecting"
        start = ", start" if p == 0 else ""
        print(f"  state {p} ({mark}{start}): {row}")


print("Conjecturing winning sets by hand:")
ask("the empty set", dfa_of(from_words(A, [])))
ask("{s l^n | n >= 2}", dfa_of(tag_tail("s", 2)))
ask("the true winning set", dfa_of(union(tag_tail("s", 2), tag_tail("e", 3))))

print("\nNow the SAT learner, from scratch:")
res = learn(G, LearnOptions(timeout=60.0))
pos, neg, ex, uni = res.sample_sizes
print(f"  outcome={res.outcome} after {res.iterations} iterations "
      f"({res.wall_time:.2f}s, sample +{pos}/-{neg}/E{ex}/U{uni})")

print("\nThe evidence the teacher handed over:")
lines = dump_sample(res.sample).splitlines()
if len(lines) > 12:
    lines = lines[:12] + [f"... and {len(lines) - 12} more"]
for line in lines:
    print(f"  {line}")

print(f"\nThe learned {res.dfa.state_count}-state winning set:")
show_dfa(res.dfa)
print(f"\nTeacher's verdict on the result: {query(G, res.dfa)}")
