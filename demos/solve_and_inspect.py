"""Solve the fully observed game and poke at the Q-tables.

The solver computes exact action values for all 2423 boards where the agent
is to move, against whichever opponent model the table is built for.
"""

from rbtbench import (
    EpsilonMinimaxOpponent,
    MinimaxOpponent,
    UniformRandomOpponent,
    solve_q,
)
from rbtbench.game import cell_mark, reachable_boards

CELL_NAMES = ["top-left", "top", "top-right", "left", "center", "right",
              "bottom-left", "bottom", "bottom-right"]

q_uniform = solve_q(UniformRandomOpponent())
q_minimax = solve_q(MinimaxOpponent())

print(f"solved {len(q_uniform.entries)} agent-to-move boards\n")

print("Opening values against a uniform-random opponent:")
for a, v in enumerate(q_uniform.entries[0]):
    print(f"  {CELL_NAMES[a]:>12}: {v:+.6f}")
print("Corners are the best opening: 0.994792 = 191/192 win probability.\n")

print(f"Against a perfect opponent the game is a draw: V = {q_minimax.state_value(0):+g}")
print("and every opening is equally (worth)less:")
print("  " + " ".join(f"{v:+.0f}" for v in q_minimax.entries[0]))
print()

print("Epsilon-minimax interpolates between the two:")
for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
    q = solve_q(EpsilonMinimaxOpponent(eps))
    print(f"  eps={eps:.2f}: V(empty) = {q.state_value(0):+.4f}")
print()

# a board mid-game: X at top-left and center, O at top and right
board_index = next(i for i in q_uniform.entries if len(reachable_boards()[i][2]) == 5)  # (status, mover, empty cells)
print(f"A 4-mark board (index {board_index}):")
for r in range(3):
    print("   " + "".join(".XO"[cell_mark(board_index, r * 3 + c)] for c in range(3)))
print("  Q row:", " ".join(f"{v:+.3f}" for v in q_uniform.entries[board_index]))
print("  (occupied cells are pinned at -1: playing them ends the episode)")
