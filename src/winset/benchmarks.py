"""Generators for the benchmark games.

All games follow the unary-counter style of the half-line game: a vertex is a
turn tag (`s` = Player 0 / system, `e` = Player 1 / environment) followed by
counters written in unary (`l`), two-counter games separating them with `.`.
Boundary behavior: moves that would leave the domain are simply absent.
"""

from dataclasses import dataclass, field

from .automata import Alphabet, Nfa, word_automaton
from .game import RationalSafetyGame, validate_game
from .relations import Transducer

FAMILIES = (
    "diagonal",
    "box",
    "solitary-box",
    "evasion",
    "follow",
    "program-repair",
    "interval",
)

ALPH3 = Alphabet(("s", "e", "l"))
ALPH4 = Alphabet(("s", "e", "l", "."))


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name != "halfline" and self.name not in FAMILIES:
            raise ValueError(f"unknown benchmark family {self.name!r}")
        for k, v in self.params.items():
            if not isinstance(v, int):
                raise ValueError(f"parameter {k}={v!r} must be an integer")


def game_size(g):
    """Total automaton size: states of v0, v1, edges, safe and initial."""
    return (
        g.v0.state_count
        + g.v1.state_count
        + g.edges.state_count
        + g.safe.state_count
        + g.initial.state_count
    )


# ------------------------------------------------------------ NFA helpers

def _tag_star(alphabet, tags, seps=0):
    """Words tag l* (seps=0) or tag l* . l* (seps=1)."""
    idx = [alphabet.index(t) for t in tags]
    l = alphabet.index("l")
    trans = {(0, t, 1) for t in idx} | {(1, l, 1)}
    if seps == 0:
        return Nfa(alphabet, 2, 0, frozenset(trans), frozenset({1}))
    dot = alphabet.index(".")
    trans |= {(1, dot, 2), (2, l, 2)}
    return Nfa(alphabet, 3, 0, frozenset(trans), frozenset({2}))


def _tag_counter(alphabet, tags, lo, hi=None):
    """Words tag l^j with lo <= j (and j <= hi when bounded)."""
    idx = [alphabet.index(t) for t in tags]
    l = alphabet.index("l")
    top = lo if hi is None else hi
    trans = {(0, t, 1) for t in idx}
    for j in range(top):
        trans.add((1 + j, l, 2 + j))
    if hi is None:
        trans.add((1 + top, l, 1 + top))
    accepting = frozenset(range(1 + lo, 2 + top))
    return Nfa(alphabet, 2 + top, 0, frozenset(trans), accepting)


class _Builder:
    """Mutable scratch space for wiring a transducer by hand."""

    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.n = 1  # state 0 is initial
        self.trans = set()
        self.acc = set()

    def fresh(self):
        self.n += 1
        return self.n - 1

    def edge(self, src, a, b, dst):
        conv = lambda x: None if x is None else self.alphabet.index(x)
        self.trans.add((src, conv(a), conv(b), dst))

    def done(self):
        return Transducer(self.alphabet, self.n, 0, frozenset(self.trans), frozenset(self.acc))


def _halfline_edges(alphabet):
    """Example-style half-line moves: right, left, or stay, flipping the turn."""
    b = _Builder(alphabet)
    right = b.fresh()
    right_done = b.fresh()
    left = b.fresh()
    left_done = b.fresh()
    b.edge(0, "s", "e", right)
    b.edge(right, "l", "l", right)
    b.edge(right, None, "l", right_done)
    b.edge(0, "e", "s", left)
    b.edge(left, "l", "l", left)
    b.edge(left, "l", None, left_done)
    b.acc |= {right, right_done, left, left_done}  # accepting mid-loop = stay move
    return b.done()


def _pm_branch(b, tag_in, tag_out):
    """Branch tag_in l^j -> tag_out l^(j±1); no stay, at 0 only +1 applies."""
    copy = b.fresh()
    up = b.fresh()
    down = b.fresh()
    b.edge(0, tag_in, tag_out, copy)
    b.edge(copy, "l", "l", copy)
    b.edge(copy, None, "l", up)
    b.edge(copy, "l", None, down)
    b.acc |= {up, down}


# -------------------------------------------------------------- families

def halfline_game(k):
    """Half-line robot game: F = both players at positions >= k, I = Player 0 there."""
    if k < 1:
        raise ValueError("halfline needs k >= 1")
    alphabet = ALPH3
    return validate_game(
        RationalSafetyGame(
            alphabet,
            v0=_tag_star(alphabet, "s"),
            v1=_tag_star(alphabet, "e"),
            edges=_halfline_edges(alphabet),
            safe=_tag_counter(alphabet, "se", k),
            initial=_tag_counter(alphabet, "s", k),
        )
    )


def _interval(k, kprime):
    if not (1 <= k < kprime):
        raise ValueError(f"interval needs 1 <= k < kprime, got k={k}, kprime={kprime}")
    alphabet = ALPH3
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s"),
        v1=_tag_star(alphabet, "e"),
        edges=_halfline_edges(alphabet),
        safe=_tag_counter(alphabet, "se", k, kprime),
        initial=word_automaton(alphabet, alphabet.word("s" + " l" * k)),
    )


def _diagonal(width):
    """Robot on a grid keeps its distance d to the diagonal at most `width`;
    both players shift d by one per move (at d = 0 the only move is up)."""
    if width < 1:
        raise ValueError("diagonal needs width >= 1")
    alphabet = ALPH3
    b = _Builder(alphabet)
    _pm_branch(b, "s", "e")
    _pm_branch(b, "e", "s")
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s"),
        v1=_tag_star(alphabet, "e"),
        edges=b.done(),
        safe=_tag_counter(alphabet, "se", 0, width),
        initial=word_automaton(alphabet, alphabet.word("s")),
    )


def _two_counter_safe_y(alphabet, height):
    """Words t l^x . l^y with y <= height, x unconstrained."""
    s, e, l, dot = (alphabet.index(t) for t in ("s", "e", "l", "."))
    trans = {(0, s, 1), (0, e, 1), (1, l, 1)}
    trans.add((1, dot, 2))
    for j in range(height):
        trans.add((2 + j, l, 3 + j))
    accepting = frozenset(range(2, 3 + height))
    return Nfa(alphabet, 3 + height, 0, frozenset(trans), accepting)


def _box(height, solitary):
    """Box game on a half-plane strip: keep the vertical coordinate y <= height.
    Player 0 moves y; the adversary drags x (solitary: Player 0 moves either
    coordinate and the environment merely hands the turn back)."""
    if height < 1:
        raise ValueError("box needs height >= 1")
    alphabet = ALPH4
    b = _Builder(alphabet)
    _pm_second_counter(b, "s", "e")  # Player 0 moves y
    if solitary:
        _pm_first_counter(b, "s", "e")  # ... or x; the environment just copies
        _copy_two_counter(b, "e", "s")
    else:
        _pm_first_counter(b, "e", "s")  # the environment drags x
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s", seps=1),
        v1=_tag_star(alphabet, "e", seps=1),
        edges=b.done(),
        safe=_two_counter_safe_y(alphabet, height),
        initial=word_automaton(alphabet, alphabet.word("s .")),
    )


def _two_counter_sum(alphabet, lo, hi):
    """Words t l^a . l^b with lo <= a+b (and a+b <= hi when bounded).

    Chain on the running total, saturated at lo when hi is None; words whose
    total exceeds a finite hi simply get stuck.
    """
    tags = [alphabet.index(t) for t in "se"]
    l, dot = alphabet.index("l"), alphabet.index(".")
    top = lo if hi is None else hi

    def pre(c):
        return 1 + c

    def post(c):
        return 2 + top + c

    trans = {(0, t, pre(0)) for t in tags}
    for c in range(top + 1):
        trans.add((pre(c), dot, post(c)))
        if c < top:
            trans.add((pre(c), l, pre(c + 1)))
            trans.add((post(c), l, post(c + 1)))
        elif hi is None:
            trans.add((pre(top), l, pre(top)))
            trans.add((post(top), l, post(top)))
    accepting = frozenset(post(c) for c in range(lo, top + 1))
    return Nfa(alphabet, 3 + 2 * top, 0, frozenset(trans), accepting)


def _evasion(start_dist):
    """Evasion game on displacement magnitudes (a, b): keep the evader away
    from the pursuer, i.e. a+b >= 1; each move shifts one magnitude by one."""
    if start_dist < 1:
        raise ValueError("evasion needs start >= 1")
    alphabet = ALPH4
    b = _Builder(alphabet)
    for (tin, tout) in (("s", "e"), ("e", "s")):
        _pm_first_counter(b, tin, tout)
        _pm_second_counter(b, tin, tout)
    word = alphabet.word("s" + " l" * start_dist + " .")
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s", seps=1),
        v1=_tag_star(alphabet, "e", seps=1),
        edges=b.done(),
        safe=_two_counter_sum(alphabet, 1, None),
        initial=word_automaton(alphabet, word),
    )


def _follow(bound):
    """Follow game: the follower must keep the displacement small, a+b <= bound."""
    if bound < 1:
        raise ValueError("follow needs bound >= 1")
    alphabet = ALPH4
    b = _Builder(alphabet)
    for (tin, tout) in (("s", "e"), ("e", "s")):
        _pm_first_counter(b, tin, tout)
        _pm_second_counter(b, tin, tout)
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s", seps=1),
        v1=_tag_star(alphabet, "e", seps=1),
        edges=b.done(),
        safe=_two_counter_sum(alphabet, 0, bound),
        initial=word_automaton(alphabet, alphabet.word("s .")),
    )


def _pm_first_counter(b, tag_in, tag_out):
    """tag l^a . l^b -> first counter shifted by ±1, second copied."""
    c1 = b.fresh()
    up = b.fresh()
    down = b.fresh()
    tail = b.fresh()
    b.edge(0, tag_in, tag_out, c1)
    b.edge(c1, "l", "l", c1)
    b.edge(c1, None, "l", up)
    b.edge(c1, "l", None, down)
    b.edge(up, ".", ".", tail)
    b.edge(down, ".", ".", tail)
    b.edge(tail, "l", "l", tail)
    b.acc.add(tail)


def _pm_second_counter(b, tag_in, tag_out):
    """tag l^a . l^b -> first counter copied, second shifted by ±1."""
    c1 = b.fresh()
    c2 = b.fresh()
    up = b.fresh()
    down = b.fresh()
    b.edge(0, tag_in, tag_out, c1)
    b.edge(c1, "l", "l", c1)
    b.edge(c1, ".", ".", c2)
    b.edge(c2, "l", "l", c2)
    b.edge(c2, None, "l", up)
    b.edge(c2, "l", None, down)
    b.acc |= {up, down}


def _copy_two_counter(b, tag_in, tag_out):
    """tag l^a . l^b -> both counters copied verbatim (turn flip only)."""
    c1 = b.fresh()
    c2 = b.fresh()
    b.edge(0, tag_in, tag_out, c1)
    b.edge(c1, "l", "l", c1)
    b.edge(c1, ".", ".", c2)
    b.edge(c2, "l", "l", c2)
    b.acc.add(c2)


def _program_repair():
    """Resource counter the environment drains by 1 or 2 per turn; the system
    tops it up by 2 or stays put; safety means never running empty."""
    alphabet = ALPH3
    b = _Builder(alphabet)
    stay = b.fresh()
    up1 = b.fresh()
    up2 = b.fresh()
    b.edge(0, "s", "e", stay)
    b.edge(stay, "l", "l", stay)
    b.edge(stay, None, "l", up1)
    b.edge(up1, None, "l", up2)
    b.acc |= {stay, up2}  # stay, or +2; +1 alone (up1) is not a move
    drain = b.fresh()
    down1 = b.fresh()
    down2 = b.fresh()
    b.edge(0, "e", "s", drain)
    b.edge(drain, "l", "l", drain)
    b.edge(drain, "l", None, down1)
    b.edge(down1, "l", None, down2)
    b.acc |= {down1, down2}
    return RationalSafetyGame(
        alphabet,
        v0=_tag_star(alphabet, "s"),
        v1=_tag_star(alphabet, "e"),
        edges=b.done(),
        safe=_tag_counter(alphabet, "se", 1),
        initial=word_automaton(alphabet, alphabet.word("s l")),
    )


_DEFAULTS = {
    "diagonal": {"width": 2},
    "box": {"height": 2},
    "solitary-box": {"height": 2},
    "evasion": {"start": 2},
    "follow": {"bound": 2},
    "program-repair": {},
    "interval": {},  # k, kprime are mandatory
    "halfline": {"k": 2},
}


def generate_benchmark(spec):
    """Build and validate the named benchmark game."""
    if spec.name not in _DEFAULTS:
        raise ValueError(f"unknown benchmark family {spec.name!r}")
    params = dict(_DEFAULTS[spec.name])
    for key, value in spec.params.items():
        if spec.name == "interval" and key in ("k", "kprime"):
            params[key] = value
        elif key in params:
            params[key] = value
        else:
            raise ValueError(f"{spec.name} does not take parameter {key!r}")
    if spec.name == "interval":
        if "k" not in params or "kprime" not in params:
            raise ValueError("interval needs both k and kprime")
        g = _interval(params["k"], params["kprime"])
    elif spec.name == "halfline":
        return halfline_game(params["k"])
    elif spec.name == "diagonal":
        g = _diagonal(params["width"])
    elif spec.name == "box":
        g = _box(params["height"], solitary=False)
    elif spec.name == "solitary-box":
        g = _box(params["height"], solitary=True)
    elif spec.name == "evasion":
        g = _evasion(params["start"])
    elif spec.name == "follow":
        g = _follow(params["bound"])
    else:
        g = _program_repair()
    return validate_game(g)
