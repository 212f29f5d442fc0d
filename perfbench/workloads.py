"""The benchmark's workloads: which games each one solves, with which learner,
and the answers every run must reproduce.

Each workload is a closed loop: one client in one single-threaded process
runs its cells one after another.  A cell is one (game, learner) solve.  The
game is generated here, serialized, relabelled by the seed and parsed back,
so the learner only ever sees game text.
"""

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Cell:
    family: str
    params: dict = field(default_factory=dict)
    learner: str = "sat"
    expect_states: int = None  # the minimal size; only the sat learner promises it

    @property
    def name(self):
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({args})/{self.learner}"


# Every cell must end `solved`.  Sizes are the minimal winning-set DFAs of
# the paper suite; a sat learner that returns another size is wrong,
# whatever the time.
WORKLOADS = {
    # The hardest cell of the paper suite; about half of it is one UNSAT
    # proof (no 6-state DFA), so it shows any change to UNSAT search.
    "follow-sat": (Cell("follow", {"bound": 2}, "sat", expect_states=7),),
    # The other five paper games: time goes to SAT answers, encoding and
    # CNF conversion; no UNSAT call takes much over 0.2 s.
    "paper-sat": (
        Cell("diagonal", {"width": 2}, "sat", expect_states=5),
        Cell("box", {"height": 2}, "sat", expect_states=5),
        Cell("solitary-box", {"height": 2}, "sat", expect_states=4),
        Cell("evasion", {"start": 2}, "sat", expect_states=6),
        Cell("program-repair", {}, "sat", expect_states=6),
    ),
    # rpni at the paper's start runs in 0.05 s; start 12 makes merging
    # (folding, quotients, consistency tests) dominate, over ~190 tiny chi
    # CNFs.  Larger starts add no layer, only seconds per pass, and fewer
    # passes per run make the run's median less steady.
    "evasion-rpni": (Cell("evasion", {"start": 12}, "rpni"),),
    # The paper's scaling family, sized until the teacher does the work
    # (the same reasoning as above bounds the largest k').
    "interval-rpni": tuple(
        Cell("interval", {"k": 1, "kprime": kp}, "rpni") for kp in (500, 1000, 2000)
    ),
}

_AUTOMATON_SECTIONS = ("v0", "v1", "edges", "safe", "initial")


def relabel(text, seed):
    """The game text under seed `seed`; seed 0 leaves it unchanged.

    Any other seed renames every symbol to a fresh token (keeping the
    declared symbol order, which defines shortlex and hence every
    counterexample), renumbers the states of every automaton, and shuffles
    the transition lines and the section order.  The game is the same up to
    isomorphism, so every outcome and learned size must be the same too, and
    the learners do the same work: only the names and orders a parser sees
    change.
    """
    if seed == 0:
        return text
    rng = random.Random(seed)
    sections = _split(text)
    symbols = sections["alphabet"][0].split()
    fresh = _fresh_tokens(rng, len(symbols))
    rename = dict(zip(symbols, fresh))
    rename["_"] = "_"
    out = {"alphabet": [" ".join(fresh)]}
    for name in _AUTOMATON_SECTIONS:
        out[name] = _renumber(sections[name], rename, rng)
    order = list(out)
    rng.shuffle(order)
    return "\n".join(f"[{name}]\n" + "\n".join(out[name]) + "\n" for name in order)


def _split(text):
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections[current] = []
        else:
            sections[current].append(line)
    return sections


def _fresh_tokens(rng, count):
    tokens = []
    while len(tokens) < count:
        tok = "".join(rng.choice("abcdefghijkmnpqrtuvwxyz") for _ in range(rng.randint(1, 3)))
        if tok not in tokens:
            tokens.append(tok)
    return tokens


def _renumber(lines, rename, rng):
    n = int(lines[0].split(":")[1])
    perm = list(range(n))
    rng.shuffle(perm)
    initial = perm[int(lines[1].split(":")[1])]
    accepting = sorted(perm[int(q)] for q in lines[2].split(":")[1].split())
    moves = []
    for line in lines[3:]:
        src, label, dst = line.split()
        label = "/".join(rename[part] for part in label.split("/"))
        moves.append(f"{perm[int(src)]} {label} {perm[int(dst)]}")
    rng.shuffle(moves)
    head = [f"states: {n}", f"initial: {initial}", "accepting: " + " ".join(map(str, accepting))]
    return head + moves


def build_games(cells, seed):
    """Generate, validate, serialize, relabel and parse every cell's game."""
    from winset.benchmarks import BenchmarkSpec, generate_benchmark
    from winset.game import parse_game, serialize_game

    games = []
    for cell in cells:
        g = generate_benchmark(BenchmarkSpec(cell.family, dict(cell.params)))
        games.append(parse_game(relabel(serialize_game(g), seed)))
    return games
