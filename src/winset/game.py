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
from .errors import GameFormatError, InvariantViolation
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
                raise GameFormatError(f"unknown section [{name}]", lineno)
            if name in found:
                raise GameFormatError(f"duplicate section [{name}]", lineno)
            found[name] = []
            current = name
            continue
        if current is None:
            raise GameFormatError("content before the first section header", lineno)
        found[current].append((lineno, line))
    for name in wanted:
        if name not in found:
            raise GameFormatError(f"missing section [{name}]")
    return found


def _parse_header(lines, key, pos):
    if pos >= len(lines):
        raise GameFormatError(f"expected '{key}:' line")
    lineno, line = lines[pos]
    if not line.startswith(key + ":"):
        raise GameFormatError(f"expected '{key}:' line, got {line!r}", lineno)
    return lineno, line[len(key) + 1 :].split()


def _parse_int(tok, lineno, what):
    try:
        return int(tok)
    except ValueError:
        raise GameFormatError(f"bad {what} {tok!r}", lineno) from None


def _state_bound(accepting, moves):
    """The most states a section with these accepting states and move lines
    can name: the initial state, the accepting ones and two per line.  The
    reader refuses a count past it, whose tables would outgrow the file
    without bound, and the writer keeps to it (see `_readable`)."""
    return 1 + len(accepting) + 2 * len(moves)


def _labels(alphabet):
    """The label readers of move lines: a symbol token -> (its index,), and
    for [edges] `in/out` -> (in, out), each a symbol index or None for
    `_`.  Each raises KeyError naming an unknown token, and the pair
    reader ValueError without exactly one `/`."""
    index = {tok: i for i, tok in enumerate(alphabet.symbols)}
    symbol = {tok: (i,) for tok, i in index.items()}.__getitem__
    index[EPSILON_MARK] = None

    def pair(tok):
        left, right = tok.split("/")
        return index[left], index[right]

    return symbol, pair


# the form of a move line, as the error for a line of another form names it
_LINE_FORM = {Nfa: "transition needs 'src sym dst'", Transducer: "edge needs 'src in/out dst'"}


def _parse_section(lines, alphabet, record, label):
    """The automaton section `lines` as a `record`, an Nfa or a Transducer,
    with a move (src, *label(tok), dst) per line `src tok dst`.  A line
    that does not read is diagnosed only then (`_move_error`), so the
    lines that do take one `try` each."""
    states_lineno, toks = _parse_header(lines, "states", 0)
    if len(toks) != 1:
        raise GameFormatError("'states:' takes one number", states_lineno)
    n = _parse_int(toks[0], states_lineno, "state count")
    lineno, toks = _parse_header(lines, "initial", 1)
    if len(toks) != 1:
        raise GameFormatError("'initial:' takes one state", lineno)
    initial = _parse_int(toks[0], lineno, "initial state")
    lineno, toks = _parse_header(lines, "accepting", 2)
    accepting = frozenset(_parse_int(t, lineno, "accepting state") for t in toks)
    rest = lines[3:]
    named = _state_bound(accepting, rest)
    if n > named:
        raise GameFormatError(f"'states:' counts more states than the section names "
                              f"(at most {named})", states_lineno)
    trans = set()
    for lineno, line in rest:
        try:
            src, tok, dst = line.split()
            trans.add((int(src), *label(tok), int(dst)))
        except (ValueError, KeyError):
            raise _move_error(line, lineno, label, _LINE_FORM[record]) from None
    try:
        return record(alphabet, n, initial, frozenset(trans), accepting)
    except ValueError as e:
        raise _state_error(lines, n) or GameFormatError(str(e)) from None


def _state_error(lines, n):
    """The GameFormatError for a section of `n` states whose record refused
    a state: the first line, in file order, that names a state outside
    0..n-1 (the `states:` line when n is not positive); None when no line
    does.  Every line here reads already."""
    if n <= 0:
        return GameFormatError("'states:' must be positive", lines[0][0])
    for pos, (lineno, line) in enumerate(lines[1:], start=1):
        # `initial:` and `accepting:` name states after the colon; a move
        # line `src label dst` names its first and last tokens
        states = line.split(":", 1)[1].split() if pos < 3 else line.split()[::2]
        for tok in states:
            if not 0 <= int(tok) < n:
                return GameFormatError(f"state {tok} out of range for {n} states", lineno)
    return None


def _move_error(line, lineno, label, form):
    """The GameFormatError for a move line that does not read, naming its
    first fault: the line's form, a state that is not a number (raised
    here, by `_parse_int`), then the unknown symbol."""
    toks = line.split()
    try:
        if len(toks) != 3:
            raise ValueError
        label(toks[1])
    except ValueError:
        return GameFormatError(f"{form}, got {line!r}", lineno)
    except KeyError as e:
        (unknown,) = e.args
    _parse_int(toks[0], lineno, "state")
    _parse_int(toks[2], lineno, "state")
    return GameFormatError(f"unknown symbol {unknown!r}", lineno)


def parse_game(text):
    """Parse and validate a game file; raises GameFormatError / InvariantViolation."""
    sections = _split_sections(text)
    alphabet = _parse_alphabet_section(sections)
    symbol, pair = _labels(alphabet)
    v0 = _parse_section(sections["v0"], alphabet, Nfa, symbol)
    v1 = _parse_section(sections["v1"], alphabet, Nfa, symbol)
    edges = _parse_section(sections["edges"], alphabet, Transducer, pair)
    safe = _parse_section(sections["safe"], alphabet, Nfa, symbol)
    initial = _parse_section(sections["initial"], alphabet, Nfa, symbol)
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
    what the reader takes (`_state_bound`), `a` with the states that
    appear in no line left out and the others numbered down in order: the
    same language, in a section the reader takes back."""
    if isinstance(a, Dfa) or a.state_count <= _state_bound(a.accepting, a.transitions):
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
        raise GameFormatError("[alphabet] section is empty")
    try:
        return Alphabet(tuple(tokens))
    except ValueError as e:
        raise GameFormatError(str(e), sections["alphabet"][0][0]) from None


def serialize_dfa(d):
    """DFA file: an [alphabet] section plus one [dfa] automaton section."""
    out = ["[alphabet]", " ".join(d.alphabet.symbols), ""]
    _dump_nfa(out, "dfa", d)
    return "\n".join(out[:-1])  # no trailing newline


def parse_dfa(text):
    """Read a [dfa] file back; the automaton must be deterministic and total."""
    sections = _split_sections(text, DFA_SECTIONS)
    alphabet = _parse_alphabet_section(sections)
    nfa = _parse_section(sections["dfa"], alphabet, Nfa, _labels(alphabet)[0])
    if nfa.initial != 0:
        raise GameFormatError("[dfa] initial state must be 0")
    # (state, symbol) pairs in order, without a table of them: each pair
    # that passes uses up a line, so a bad file stops within one more step
    targets = Counter((p, sym) for (p, sym, _q) in nfa.transitions)
    for i in range(nfa.state_count * len(alphabet)):
        p, sym = divmod(i, len(alphabet))
        if targets[p, sym] != 1:
            what = "is nondeterministic at" if targets[p, sym] else "is missing the transition from"
            raise GameFormatError(f"[dfa] {what} state {p} on {alphabet.symbols[sym]!r}")
    delta = tuple(tuple(q for (q,) in row) for row in nfa.moves)
    return Dfa(alphabet, nfa.state_count, delta, nfa.accepting)
