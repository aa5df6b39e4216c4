"""Exact Q-values for the fully observed game, by bottom-up expectimax.

For every reachable, non-terminal board with X to move, ``solve_q`` computes
Q(s, a) for all nine actions against a fixed opponent model:

* occupied cell: -1 (the environment ends the episode with reward -1),
* move that wins or fills the board: +1 / 0,
* otherwise: expectation over opponent replies of -1 (loss) or the
  max-action value of the next X-to-move board.

Rewards are undiscounted and purely terminal, so values always land in [-1, 1].
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import isnan

from .game import O_WINS, enumerate_reachable_states, transitions
from .opponents import OpponentModel, _pattern_replies, from_descriptor
from .opponents import reply_distribution  # not called here, but perfbench/tracer.py's CALL_SITES patches it

FORMAT_VERSION = 1


@dataclass
class QTable:
    """Finite map state-index -> nine action values, plus provenance header.

    Entries are read-only once episodes run on the table: the episode loop
    keeps its belief graph, one node per belief and role, with decisions
    computed from the entries, in the table's private cache (``env`` alone
    reads and writes it).  To change values, build a new ``QTable``.
    """

    opponent: OpponentModel  # the model the values were solved against; its header tag is opponent.descriptor
    entries: dict[int, list[float]] = field(default_factory=dict)
    # env's belief graph: (posterior?, *boards, *masses) -> env.Node
    _graph: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.opponent, OpponentModel):  # else episodes fail at the first reply
            raise ValueError(f"opponent must be an opponent model, got {self.opponent!r}")

    def state_value(self, state_index: int) -> float:
        return max(self.entries[state_index])


def solve_q(opponent: OpponentModel) -> QTable:
    """Solve Q(s, a) exactly for every X-to-move, non-terminal reachable board.

    Walks ``game.transitions()`` bottom-up: a row starts from the state's
    episode-ending rewards, and each after-X expectation is computed once,
    from the solved values of its after-O boards as one fold, ``total += p *
    value[after-O board]`` (a loss -1.0), bit for bit the sum over
    ``reply_distribution``; reply probabilities sum to at most 1, so it stays in [-1, 1].
    """
    by_board, probs = _pattern_replies(opponent.eps)
    entries: dict[int, list[float]] = {}
    values = {O_WINS: -1.0}  # and decision state -> max-action value
    expectations: dict[int, float] = {}  # after-X board -> expected value
    for index, (ends, after_xs) in transitions()[0].items():
        row = list(ends)
        for action, after_x in after_xs.items():
            total = expectations.get(after_x)
            if total is None:
                k, cells, succ = by_board[after_x]
                total = 0.0
                for cell, p in zip(cells, probs[k]):
                    total += p * values[succ[cell]]
                expectations[after_x] = total
            row[action] = total
        entries[index] = row
        values[index] = max(row)
    return QTable(opponent=opponent, entries=entries)


def save_qtable(q: QTable, path) -> None:
    """Write ``q`` as ``json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\\n"`` would.

    The keys are those of ``q.entries``, in the order ``sort_keys`` gives their decimal text.
    Each distinct value is formatted once per call (a ``solve_q`` table holds 5 to 85 among
    21,807).  The memo keys on value, and 0.0 == -0.0 and 1 == 1.0 although JSON writes them
    apart, so every value is written as ``json.dumps(float(v))`` (repr, which round-trips) and
    -0.0 as ``0.0``; NaN and the infinities as ``NaN``, ``Infinity`` and ``-Infinity``.
    """
    text = _Memo(lambda value: json.dumps(float(value)), {0.0: "0.0"}).__getitem__
    entries = q.entries
    keys = _entry_keys() if entries.keys() == transitions()[0].keys() else {str(i): i for i in sorted(entries, key=str)}
    body = ",".join([f'"{key}":[{",".join(map(text, entries[i]))}]' for key, i in keys.items()])
    # values are undiscounted; load_qtable accepts no other gamma
    header = json.dumps({"gamma": 1.0, "opponent": q.opponent.descriptor, "version": FORMAT_VERSION},
                        separators=(",", ":"), sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"entries":{{{body}}},{header[1:]}\n')  # "entries" sorts before the header's keys


class _Memo(dict):
    """key -> ``make(key)``, made on first lookup."""

    def __init__(self, make, *known):
        super().__init__(*known)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def load_qtable(path) -> QTable:
    """Read a Q-table as ``save_qtable`` writes it; a bad file fails with a one-line ``ValueError``.

    After the header and the keys, rows are checked for shape (a list of nine), then type (JSON
    numbers), then range ([-1, 1]), each check over all rows before the next; the error names the
    first row in file order that fails the first failing check.  JSON integers are read as floats.
    Each distinct number text is parsed once, to one float object, so the range check reads those
    few values and scans the rows only when the file holds an int in a row or an out-of-range float.
    """
    floats = _Memo(float)  # number text -> its float
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh, parse_float=floats.__getitem__, parse_constant=floats.__getitem__)
        except RecursionError:  # say, "[" * 200000
            raise ValueError("the JSON nests too deeply for a Q-table file") from None
    if not isinstance(payload, dict):
        raise ValueError(f"a Q-table file holds a JSON object, this one holds {_json_type(payload)}")
    version = payload.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:  # True == 1 in Python
        raise ValueError(f"expected version {FORMAT_VERSION}, file has {version!r}")
    if "opponent" not in payload:
        raise ValueError('the Q-table header has no "opponent"')
    try:
        opponent = from_descriptor(payload["opponent"])
    except ValueError as exc:
        raise ValueError(f'"opponent": {exc}') from None
    gamma = payload.get("gamma")
    if isinstance(gamma, bool) or gamma != 1:  # True == 1 in Python
        got = json.dumps(gamma) if "gamma" in payload else "nothing"
        raise ValueError(f'"gamma" must be 1.0 (values are undiscounted), got {got}')
    rows = payload.get("entries")
    if not isinstance(rows, dict):
        got = _json_type(rows) if "entries" in payload else "nothing"
        raise ValueError(f'"entries" must be a JSON object, got {got}')
    enumerate_reachable_states()  # only so that perfbench/tracer.py's span of it holds a fresh process's game pass
    states = _entry_keys()
    if rows.keys() != states.keys():
        raise _key_error(rows.keys())
    values = rows.values()
    if set(map(type, values)) != {list} or set(map(len, values)) != {9}:
        raise _first_bad_row(rows, lambda row: isinstance(row, list) and len(row) == 9, "expected 9 action values")
    types = set(map(type, chain.from_iterable(values)))
    if not types <= {float, int}:  # JSON numbers only; type(True) is bool
        raise _first_bad_row(rows, lambda row: set(map(type, row)) <= {float, int}, "action values must be numbers")
    ints = int in types
    # with no int in a row, every row value is one of the floats parsed
    if (ints or not _in_range(floats.values())) and not _in_range(list(chain.from_iterable(values))):
        raise _first_bad_row(rows, _in_range, "value outside [-1, 1]")
    entries = {states[key]: list(map(float, row)) if ints else row for key, row in rows.items()}
    return QTable(opponent=opponent, entries=entries)


@lru_cache(maxsize=None)
def _entry_keys() -> dict[str, int]:
    """Entry key -> decision state, for every reachable X-to-move board, in ``save_qtable``'s key order."""
    return {str(i): i for i in sorted(transitions()[0], key=str)}


def _key_error(keys) -> ValueError:
    states = _entry_keys()
    for key in keys:
        # int() also reads a sign, spaces, underscores and leading zeros
        if key not in states and not (key.isdecimal() and str(int(key)) == key):
            return ValueError(f"entry key {json.dumps(key)} is not a board index as save_qtable writes it")
    missing = sorted(states[key] for key in states.keys() - keys)
    extra = sorted(map(int, keys - states.keys()))
    return ValueError(
        f"Q-table entries must cover exactly the {len(states)} reachable X-to-move states: "
        f"missing {_listed(missing)}, extra {_listed(extra)}"
    )


def _in_range(values) -> bool:
    # an infinity fails a bound; a NaN fails neither but makes the sum NaN
    return min(values) >= -1.0 and max(values) <= 1.0 and not isnan(sum(values))


def _first_bad_row(rows: dict, ok, message: str) -> ValueError:
    """The error for the first row in file order that ``ok`` rejects."""
    key = next(key for key, row in rows.items() if not ok(row))
    return ValueError(f"state {key}: {message}")


def _json_type(value) -> str:
    """JSON name of a parsed value's type, for error messages."""
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "a number", float: "a number"}
    return names.get(type(value), "null")


def _listed(states: list[int]) -> str:
    if not states:
        return "none"
    more = ", ..." if len(states) > 5 else ""
    return f"{len(states)} ({', '.join(map(str, states[:5]))}{more})"


def qtable_digest(path) -> str:
    """SHA-256 of a Q-table file, recorded in run manifests."""
    with open(path, "rb") as fh:  # a table is under 200 KB, and load_qtable has already read it whole
        return hashlib.sha256(fh.read()).hexdigest()
