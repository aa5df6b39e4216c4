"""Independent brute-force oracles the library is checked against.

Everything here works from first principles on plain tuples of 0/1/2 (empty,
X, O), with its own win detection and no shared code with the library, so
agreement between the two is meaningful.  The expectimax oracle is naive
recursion without memoization; the posterior oracle enumerates whole
opponent-reply paths instead of filtering incrementally.
"""

import math
from functools import lru_cache

WIN_TRIPLES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)

EMPTY_BOARD = (0,) * 9


def winner(cells):
    for a, b, c in WIN_TRIPLES:
        if cells[a] != 0 and cells[a] == cells[b] == cells[c]:
            return cells[a]
    return 0


def is_full(cells):
    return all(cells)


def empties(cells):
    return [i for i, c in enumerate(cells) if c == 0]


def put(cells, i, mark):
    return cells[:i] + (mark,) + cells[i + 1:]


def board_index(cells):
    return sum(c * 3**i for i, c in enumerate(cells))


def cells_of(index):
    """The nine cell digits of a board index: the inverse of `board_index`."""
    return tuple(index // 3**i % 3 for i in range(9))


def window_seen(covered, contents):
    """A window read as bits: 1 << c for an X on covered cell c, 1 << c + 9 for an O."""
    return sum((0, 1 << c, 1 << c + 9)[m] for c, m in zip(covered, contents))


def place(index, i, mark):
    """The board index after `mark` goes on cell `i` of board `index`."""
    return board_index(put(cells_of(index), i, mark))


def all_reachable_boards():
    """Distinct boards reachable by alternating play from the empty board (X first)."""
    seen = set()

    def walk(cells, mover):
        if cells in seen:
            return
        seen.add(cells)
        if winner(cells) or is_full(cells):
            return
        for i in empties(cells):
            walk(put(cells, i, mover), 3 - mover)

    walk(EMPTY_BOARD, 1)
    return seen


@lru_cache(maxsize=None)
def minimax_value(cells):
    """Game-theoretic value from X's perspective with both sides optimal."""
    w = winner(cells)
    if w == 1:
        return 1
    if w == 2:
        return -1
    if is_full(cells):
        return 0
    mover = 1 if cells.count(1) == cells.count(2) else 2
    values = [minimax_value(put(cells, i, mover)) for i in empties(cells)]
    return max(values) if mover == 1 else min(values)


def reply_probs(cells, kind):
    """Opponent reply distribution on an O-to-move board.

    kind is "uniform", "minimax", or ("eps", p).
    """
    cells_open = empties(cells)
    if kind == "uniform":
        p = 1.0 / len(cells_open)
        return [(i, p) for i in cells_open]
    if kind == "minimax":
        values = [minimax_value(put(cells, i, 2)) for i in cells_open]
        best = min(values)
        picks = [i for i, v in zip(cells_open, values) if v == best]
        p = 1.0 / len(picks)
        return [(i, p) for i in picks]
    _, eps = kind
    base = eps / len(cells_open)
    probs = dict.fromkeys(cells_open, base)
    for i, p in reply_probs(cells, "minimax"):
        probs[i] += (1.0 - eps) * p
    return sorted(probs.items())


def eps_minimax_reply_tuple(cells, eps):
    """The eps-minimax (cell, p) tuple by the dict-then-sorted formula.

    Uniform shares eps / n go into a dict, each minimax reply adds
    (1 - eps) * p to its cell, and the cells come out sorted with zero shares
    dropped.  The float operations are those the library must perform, in
    the same order, so the comparison is exact.

    The last step is not independent: while the tuple's float sum, taken left
    to right, exceeds 1, its largest probability (the first, on a tie) steps
    down to the next float, and while it is below 1 - ulp(1), up to the next
    float: a copy of the library's correction loop.  What that loop must
    achieve is checked on its own by
    ``test_reply_probabilities_sum_to_one_within_an_ulp`` and by the pinned
    eps Q-table digests in ``test_golden.py``.
    """
    probs = [[i, p] for i, p in reply_probs(cells, ("eps", eps)) if p > 0.0]

    def left_to_right_sum():
        total = 0.0
        for _, p in probs:
            total += p
        return total

    while not 1.0 - math.ulp(1.0) <= left_to_right_sum() <= 1.0:
        largest = max(p for _, p in probs)
        first = next(pair for pair in probs if pair[1] == largest)
        first[1] = math.nextafter(largest, 0.0 if left_to_right_sum() > 1.0 else 2.0)
    return tuple((i, p) for i, p in probs)


def expectimax_q(cells, action, kind):
    """Naive (memoless) Q(s, a) for X on a non-terminal X-to-move board."""
    if cells[action] != 0:
        return -1.0
    after_x = put(cells, action, 1)
    if winner(after_x) == 1:
        return 1.0
    if is_full(after_x):
        return 0.0
    total = 0.0
    for reply, p in reply_probs(after_x, kind):
        after_o = put(after_x, reply, 2)
        if winner(after_o) == 2:
            total -= p
        elif not is_full(after_o):
            total += p * max(expectimax_q(after_o, a, kind) for a in empties(after_o))
    return total


def expectimax_value(cells, kind):
    return max(expectimax_q(cells, a, kind) for a in empties(cells))


def posterior(actions, observations, kind):
    """Posterior over boards after the last observation of a history.

    `actions` are the agent's moves a_0..a_{k-1}; `observations` are
    (covered_cells, contents) pairs o_0..o_k read before each decision.
    Enumerates every opponent-reply path, weighting by reply probabilities and
    dropping paths inconsistent with an observation or with the episode having
    continued (invalid move, win, loss, or draw along the way).
    """
    out = {}

    def walk(cells, step, weight):
        covered, contents = observations[step]
        if any(cells[c] != m for c, m in zip(covered, contents)):
            return
        if step == len(actions):
            out[cells] = out.get(cells, 0.0) + weight
            return
        a = actions[step]
        if cells[a] != 0:
            return
        after_x = put(cells, a, 1)
        if winner(after_x) or is_full(after_x):
            return
        for reply, p in reply_probs(after_x, kind):
            after_o = put(after_x, reply, 2)
            if winner(after_o) or is_full(after_o):
                continue
            walk(after_o, step + 1, weight * p)

    walk(EMPTY_BOARD, 0, 1.0)
    total = sum(out.values())
    return {board_index(cells): w / total for cells, w in out.items() if w > 0.0}


def textbook_mean_ci95(xs):
    """Mean and 1.96 * sqrt(sum((x-m)^2)/(n-1)) / sqrt(n), spelled out."""
    n = len(xs)
    m = sum(xs) / n
    var = sum((x - m) ** 2 for x in xs) / (n - 1)
    return m, 1.96 * var**0.5 / n**0.5


def exact_return(placements, decide, kind):
    """Exact expected return of a belief-greedy policy from the empty board.

    `placements` lists the cells covered by each window placement (drawn
    uniformly before every decision); `decide` maps a belief
    {board_index: probability} to the action set the policy draws from
    uniformly.  Each step averages over placements, then over the action
    set, then over opponent replies.  The belief is filtered by brute force
    on the same events as `posterior`: the window contents, the agent's move
    being valid, and neither move ending the episode.

    Beliefs are interned as integer ids so the memo tables hash small keys:
    values on (true board, belief before the observation), filtering on
    (belief, window contents), decisions on the belief.
    """
    beliefs, ids = [], {}
    values, observations, decisions, predictions = {}, {}, {}, {}

    def intern(belief):
        if belief not in ids:
            ids[belief] = len(beliefs)
            beliefs.append(belief)
        return ids[belief]

    def decided(belief):
        if belief not in decisions:
            decisions[belief] = decide({board_index(s): p for s, p in beliefs[belief]})
        return decisions[belief]

    def observe(prior, cells, covered):
        key = prior, tuple((c, cells[c]) for c in covered)
        if key not in observations:
            seen = [(s, p) for s, p in beliefs[prior] if all(s[c] == m for c, m in key[1])]
            total = sum(p for _, p in seen)
            observations[key] = intern(tuple((s, p / total) for s, p in seen))
        return observations[key]

    def predict(belief, action):
        key = belief, action
        if key not in predictions:
            mass = {}
            for s, p in beliefs[belief]:
                if s[action] != 0:
                    continue
                after_x = put(s, action, 1)
                if winner(after_x) or is_full(after_x):
                    continue
                for reply, rp in reply_probs(after_x, kind):
                    after_o = put(after_x, reply, 2)
                    if not (winner(after_o) or is_full(after_o)):
                        mass[after_o] = mass.get(after_o, 0.0) + p * rp
            total = sum(mass.values())
            predictions[key] = intern(tuple((s, w / total) for s, w in sorted(mass.items())))
        return predictions[key]

    def move_return(cells, action, belief):
        if cells[action] != 0:
            return -1.0
        after_x = put(cells, action, 1)
        if winner(after_x) == 1:
            return 1.0
        if is_full(after_x):
            return 0.0
        total = 0.0
        for reply, p in reply_probs(after_x, kind):
            after_o = put(after_x, reply, 2)
            if winner(after_o) == 2:
                total -= p
            elif not is_full(after_o):
                total += p * value(after_o, predict(belief, action))
        return total

    def value(cells, prior):
        key = cells, prior
        if key not in values:
            total = 0.0
            for covered in placements:
                belief = observe(prior, cells, covered)
                actions = decided(belief)
                total += sum(move_return(cells, a, belief) for a in actions) / len(actions)
            values[key] = total / len(placements)
        return values[key]

    return value(EMPTY_BOARD, intern(((EMPTY_BOARD, 1.0),)))
