"""Safety games on automaton-represented graphs: model and file format.

File format (UTF-8, `#` starts a comment):

    [alphabet]
    s e l

    [v0] / [v1] / [safe] / [initial]   -- NFA sections:
    states: 2
    initial: 0
    accepting: 1
    0 s 1
    1 l 1

    [edges]                            -- transducer section, `_` is epsilon:
    states: 5
    initial: 0
    accepting: 1 2 3 4
    0 s/e 1
    1 l/l 1
    1 _/l 2
"""

from collections import Counter
from dataclasses import dataclass, replace

from .automata import Alphabet, Dfa, EPSILON_MARK, Nfa, arcs, product_word
from .errors import GameFormatError, InvalidWordError, InvariantViolation
from .relations import Transducer, transition_key

SECTIONS = ("alphabet", "v0", "v1", "edges", "safe", "initial")
DFA_SECTIONS = ("alphabet", "dfa")


@dataclass(frozen=True)
class RationalSafetyGame:
    alphabet: Alphabet
    v0: Nfa
    v1: Nfa
    edges: Transducer
    safe: Nfa
    initial: Nfa

    def __post_init__(self):
        for part in (self.v0, self.v1, self.edges, self.safe, self.initial):
            if part.alphabet != self.alphabet:
                raise ValueError("all game components must share one alphabet")


def validate_game(g):
    """Enforce the game invariants, naming the violated one with a witness word."""
    w = product_word([g.v0, g.v1])
    if w is not None:
        raise InvariantViolation("L(v0) and L(v1) disjoint", witness=g.alphabet.text(w))
    w = product_word([g.initial], [g.safe])
    if w is not None:
        raise InvariantViolation("I included in F", witness=g.alphabet.text(w))
    if product_word([g.v0]) is None:
        raise InvariantViolation("L(v0) non-empty")
    if product_word([g.v1]) is None:
        raise InvariantViolation("L(v1) non-empty")
    return g


# ---------------------------------------------------------------- parsing

def _format_error(msg, lineno=None):
    return GameFormatError(msg, line=lineno)


def _split_sections(text, wanted=SECTIONS):
    """Map section name -> list of (lineno, stripped payload line)."""
    found = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in wanted:
                raise _format_error(f"unknown section [{name}]", lineno)
            if name in found:
                raise _format_error(f"duplicate section [{name}]", lineno)
            found[name] = []
            current = name
            continue
        if current is None:
            raise _format_error("content before the first section header", lineno)
        found[current].append((lineno, line))
    for name in wanted:
        if name not in found:
            raise _format_error(f"missing section [{name}]")
    return found


def _parse_header(lines, key, pos):
    if pos >= len(lines):
        raise _format_error(f"expected '{key}:' line")
    lineno, line = lines[pos]
    if not line.startswith(key + ":"):
        raise _format_error(f"expected '{key}:' line, got {line!r}", lineno)
    return lineno, line[len(key) + 1 :].split()


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise _format_error(f"bad {what} {tok!r}", lineno) from None


def _parse_automaton_body(lines):
    states_lineno, toks = _parse_header(lines, "states", 0)
    if len(toks) != 1:
        raise _format_error("'states:' takes one number", states_lineno)
    n = _parse_int(toks[0], states_lineno, "state count")
    lineno, toks = _parse_header(lines, "initial", 1)
    if len(toks) != 1:
        raise _format_error("'initial:' takes one state", lineno)
    initial = _parse_int(toks[0], lineno, "initial state")
    lineno, toks = _parse_header(lines, "accepting", 2)
    accepting = frozenset(_parse_int(t, lineno, "accepting state") for t in toks)
    rest = lines[3:]
    # the initial state, the accepting ones and two per move line: a count
    # past that names states no line uses, and the tables sized by it
    # would outgrow the file without bound
    named = 1 + len(accepting) + 2 * len(rest)
    if n > named:
        raise _format_error(f"'states:' counts more states than the section names "
                            f"(at most {named})", states_lineno)
    return n, initial, accepting, rest


def _parse_nfa(lines, alphabet):
    n, initial, accepting, rest = _parse_automaton_body(lines)
    trans = set()
    for lineno, line in rest:
        toks = line.split()
        if len(toks) != 3:
            raise _format_error(f"transition needs 'src sym dst', got {line!r}", lineno)
        src = _parse_int(toks[0], lineno, "state")
        dst = _parse_int(toks[2], lineno, "state")
        try:
            sym = alphabet.index(toks[1])
        except InvalidWordError:
            raise _format_error(f"unknown symbol {toks[1]!r}", lineno) from None
        trans.add((src, sym, dst))
    try:
        return Nfa(alphabet, n, initial, frozenset(trans), accepting)
    except ValueError as e:
        raise _format_error(str(e)) from None


def _parse_label(tok, alphabet, lineno):
    if tok == EPSILON_MARK:
        return None
    try:
        return alphabet.index(tok)
    except InvalidWordError:
        raise _format_error(f"unknown symbol {tok!r}", lineno) from None


def _parse_transducer(lines, alphabet):
    n, initial, accepting, rest = _parse_automaton_body(lines)
    trans = set()
    for lineno, line in rest:
        toks = line.split()
        if len(toks) != 3 or toks[1].count("/") != 1:
            raise _format_error(f"edge needs 'src in/out dst', got {line!r}", lineno)
        src = _parse_int(toks[0], lineno, "state")
        dst = _parse_int(toks[2], lineno, "state")
        left, right = toks[1].split("/")
        a = _parse_label(left, alphabet, lineno)
        b = _parse_label(right, alphabet, lineno)
        trans.add((src, a, b, dst))
    try:
        return Transducer(alphabet, n, initial, frozenset(trans), accepting)
    except ValueError as e:
        raise _format_error(str(e)) from None


def parse_game(text):
    """Parse and validate a game file; raises GameFormatError / InvariantViolation."""
    sections = _split_sections(text)
    alphabet = _parse_alphabet_section(sections)
    v0 = _parse_nfa(sections["v0"], alphabet)
    v1 = _parse_nfa(sections["v1"], alphabet)
    edges = _parse_transducer(sections["edges"], alphabet)
    safe = _parse_nfa(sections["safe"], alphabet)
    initial = _parse_nfa(sections["initial"], alphabet)
    return validate_game(RationalSafetyGame(alphabet, v0, v1, edges, safe, initial))


# ------------------------------------------------------------- serializing

def _dump_section(out, name, a, moves):
    """Append a section for the automaton or transducer `a`: its header,
    the lines `moves`, and a blank line."""
    out.append(f"[{name}]")
    out.append(f"states: {a.state_count}")
    out.append(f"initial: {a.initial}")
    out.append("accepting: " + " ".join(str(q) for q in sorted(a.accepting)))
    out.extend(moves)
    out.append("")


def _readable(a):
    """`a`, an Nfa, a Dfa or a Transducer, or, when its state count is past
    what the reader takes (1 + |accepting| + 2 per move line, see
    `_parse_automaton_body`), `a` with the states that appear in no line
    left out and the others numbered down in order: the same language, in
    a section the reader takes back."""
    if isinstance(a, Dfa) or a.state_count <= 1 + len(a.accepting) + 2 * len(a.transitions):
        return a  # a Dfa is total: every state has a move line
    used = sorted({a.initial, *a.accepting}.union(*((t[0], t[-1]) for t in a.transitions)))
    number = dict(zip(used, range(len(used)))).__getitem__
    return replace(a, state_count=len(used), initial=number(a.initial),
                   transitions={(number(t[0]), *t[1:-1], number(t[-1])) for t in a.transitions},
                   accepting=map(number, a.accepting))


def _dump_nfa(out, name, a):
    """Append an automaton section, an Nfa's or a Dfa's."""
    a = _readable(a)
    symbols = a.alphabet.symbols
    _dump_section(out, name, a, (f"{p} {symbols[sym]} {q}" for (p, sym, q) in arcs(a)))


def _label_text(alphabet, x):
    return EPSILON_MARK if x is None else alphabet.symbols[x]


def serialize_game(g):
    out = ["[alphabet]", " ".join(g.alphabet.symbols), ""]
    _dump_nfa(out, "v0", g.v0)
    _dump_nfa(out, "v1", g.v1)
    edges = _readable(g.edges)
    _dump_section(out, "edges", edges, (
        f"{p} {_label_text(g.alphabet, a)}/{_label_text(g.alphabet, b)} {q}"
        for (p, a, b, q) in sorted(edges.transitions, key=transition_key)
    ))
    _dump_nfa(out, "safe", g.safe)
    _dump_nfa(out, "initial", g.initial)
    return "\n".join(out)


def _parse_alphabet_section(sections):
    tokens = [tok for _lineno, line in sections["alphabet"] for tok in line.split()]
    if not tokens:
        raise _format_error("[alphabet] section is empty")
    try:
        return Alphabet(tuple(tokens))
    except ValueError as e:
        raise _format_error(str(e), sections["alphabet"][0][0]) from None


def serialize_dfa(d):
    """DFA file: an [alphabet] section plus one [dfa] automaton section."""
    out = ["[alphabet]", " ".join(d.alphabet.symbols), ""]
    _dump_nfa(out, "dfa", d)
    return "\n".join(out[:-1])  # no trailing newline


def parse_dfa(text):
    """Read a [dfa] file back; the automaton must be deterministic and total."""
    sections = _split_sections(text, DFA_SECTIONS)
    alphabet = _parse_alphabet_section(sections)
    nfa = _parse_nfa(sections["dfa"], alphabet)
    if nfa.initial != 0:
        raise _format_error("[dfa] initial state must be 0")
    # (state, symbol) pairs in order, without a table of them: each pair
    # that passes uses up a line, so a bad file stops within one more step
    targets = Counter((p, sym) for (p, sym, _q) in nfa.transitions)
    for i in range(nfa.state_count * len(alphabet)):
        p, sym = divmod(i, len(alphabet))
        if targets[p, sym] != 1:
            what = "is nondeterministic at" if targets[p, sym] else "is missing the transition from"
            raise _format_error(f"[dfa] {what} state {p} on {alphabet.symbols[sym]!r}")
    delta = tuple(tuple(q for (q,) in row) for row in nfa.moves)
    return Dfa(alphabet, nfa.state_count, delta, nfa.accepting)
