"""Output checks for one learned cell, independent of the timed learner call.

Three checks, any failure names the cell and the reason:
  1. the outcome is `solved` and, for the sat learner, the DFA has the
     recorded minimal size;
  2. a fresh `teacher.query` on the learned DFA finds no counterexample;
  3. a brute-force pass over every word up to a small length, using only
     `accepts`: every initial word is accepted, and every accepted word is
     safe.
"""

import itertools

# Brute force stops at the longest length whose word count stays in budget.
_WORD_BUDGET = 20000


def check_cell(cell, game, result):
    """None when the cell's output is right, else the reason it is not."""
    from winset.automata import accepts
    from winset.teacher import query

    if result.outcome != "solved":
        return f"outcome {result.outcome}, expected solved"
    dfa = result.dfa
    if cell.expect_states is not None and dfa.state_count != cell.expect_states:
        return f"{dfa.state_count} states, expected {cell.expect_states}"
    cex = query(game, dfa)
    if cex is not None:
        return f"teacher refutes the learned DFA: {cex!r}"
    nsym = len(game.alphabet)
    length, count = 0, 1
    while count + nsym ** (length + 1) <= _WORD_BUDGET:
        length += 1
        count += nsym ** length
    for size in range(length + 1):
        for word in itertools.product(range(nsym), repeat=size):
            kept = accepts(dfa, word)
            if not kept and accepts(game.initial, word):
                return f"initial word {game.alphabet.text(word)!r} is not accepted"
            if kept and not accepts(game.safe, word):
                return f"accepted word {game.alphabet.text(word)!r} is unsafe"
    return None
