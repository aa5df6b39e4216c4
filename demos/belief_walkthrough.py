"""One sensing/update cycle of the exact belief filter, by hand.

The agent opens at the center; the opponent replies unseen; a 2x2 window is
then revealed.  The belief is the exact posterior over full boards given the
agent's own move, the window contents, and the episode still running.
"""

from rbtbench import (
    Observation,
    UniformRandomOpponent,
    WindowPlacement,
    WindowShape,
    initial_belief,
    mixture_values,
    predict,
    solve_q,
    update,
)
from rbtbench.game import cell_mark

opponent = UniformRandomOpponent()
q = solve_q(opponent)


def show(belief, label):
    print(label)
    for state, p in sorted(belief.items(), key=lambda kv: -kv[1]):
        rows = ["".join(".XO"[cell_mark(state, r * 3 + c)] for c in range(3)) for r in range(3)]
        print(f"   {rows[0]}   p={p:.4f}")
        print(f"   {rows[1]}")
        print(f"   {rows[2]}\n")


belief = initial_belief()
print(f"t=0: {len(belief)} possible board (the empty one), p=1\n")

# the agent plays the center; the opponent's reply is not observed
belief = predict(belief, agent_action=4, opponent=opponent)
show(belief, f"after our center move + unseen reply: {len(belief)} boards")

# a 2x2 window at the top-left is revealed: our center X and nothing else,
# which rules out every board with the opponent's mark in cells 0, 1, or 3
placement = WindowPlacement(top=0, left=0, shape=WindowShape(2, 2))
seen = 1 << 4  # the window's marks: X on cell c sets bit c, O sets bit c + 9
belief = update(belief, Observation(placement=placement, seen=seen))
show(belief, f"after the top-left window shows only our own mark: {len(belief)} boards")

values = mixture_values(belief, q)
print("belief-weighted action values:")
print("  " + " ".join(f"{a}:{v:+.3f}" for a, v in enumerate(values)))
print("\nhow likely was each observation? (2x2 windows, before the reveal)")
# placements are uniform and independent of the board: each gets 1/4 of the predicted mass
predicted, placements = predict(initial_belief(), 4, opponent), WindowShape(2, 2).placements
dist = {}
for pl in placements:
    for state, p in predicted.items():
        obs = pl.observe(state)
        dist[obs] = dist.get(obs, 0.0) + p / len(placements)
top = sorted(dist.items(), key=lambda kv: -kv[1])[:3]
for o, p in top:
    marks = "".join(".XO"[c] for c in o.contents)
    print(f"  window at ({o.placement.top},{o.placement.left}) showing '{marks}': p={p:.4f}")
print(f"  ... {len(dist)} possible observations in total, summing to {sum(dist.values()):.6f}")
