"""Benchmark command line.

Four subcommands cover the full workflow:

* ``solve``  -- solve the fully observed game against an opponent model and
  cache the Q-table as versioned JSON.
* ``run``    -- run one (window, policy) benchmark cell, append its summary
  row to a CSV, optionally dump a per-step JSONL trace.
* ``sweep``  -- run both policies over a list of window sizes and emit
  ``returns.csv``, ``timestep_metrics.csv``, ``returns.svg`` and a manifest.
* ``replay`` -- play a single episode and pretty-print the observation
  window, the belief (every support state with its probability), both argmax
  action sets, the mixture values, and the chosen action at every step.

Every command is a deterministic function of its flags and input files, so
rerunning a command reproduces its outputs byte for byte.  ``RBT_QTABLE`` may
supply the default ``--q`` path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Iterable, Optional, Sequence, TextIO

from . import __version__
from .belief import Observation, WindowShape
from .env import (
    MAXBELIEF,
    MIXTURE,
    POLICIES,
    EpisodeConfig,
    EpisodeResult,
    Node,
    StepRecord,
    run_episodes,
)
from .game import cell_mark
from .metrics import SweepRow, aggregate_by_timestep, mean_ci95
from .opponents import OpponentModel, from_descriptor
from .policy import mixture_values
from .solver import QTable, load_qtable, qtable_digest, save_qtable, solve_q

DEFAULT_WINDOWS = "1x1,2x1,2x2,3x1,3x2"
RETURNS_HEADER = "window,policy,episodes,mean_return,ci95"
TIMESTEP_HEADER = "window,policy_pair,t,mean_iou,mean_margin,samples"
POLICY_PAIR = "mixture_vs_maxbelief"
SWEEP_FILES = ("returns.csv", "timestep_metrics.csv", "returns.svg", "manifest.json")  # in --out-dir

MARK_CHARS = ".XO"  # indexed by cell digit: empty, X, O


def parse_opponent(text: str) -> OpponentModel:
    try:
        return from_descriptor({"eps_minimax": float(text[4:])} if text.startswith("eps:") else text)
    except ValueError:
        raise ValueError(f"--opponent must be uniform, minimax or eps:<p> with p in [0, 1], got {text!r}") from None


def _fmt(value: float) -> str:
    return format(value, ".6g")


def sweep_row_line(row: SweepRow) -> str:
    return ",".join(
        (row.window, row.policy, str(row.episodes), _fmt(row.mean_return), _fmt(row.ci95))
    )


def write_csv(path: str, header: str, lines: Iterable[str], append: bool = False) -> None:
    """Write `header` and `lines`; with `append`, add `lines` to a file that exists and is not empty instead."""
    mode, lead = "w", header + "\n"
    if append and os.path.exists(path) and os.path.getsize(path):
        with open(path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            mode, lead = "a", "" if fh.read(1) == b"\n" else "\n"  # a row never joins an unfinished line
    with open(path, mode, encoding="utf-8") as fh:
        fh.write(lead)
        for line in lines:
            fh.write(line + "\n")


# --- step-trace JSONL -------------------------------------------------------

def step_to_json(episode: int, step: StepRecord) -> dict:
    return {
        "episode": episode,
        "t": step.t,
        "observation": {
            "top": step.observation.placement.top,
            "left": step.observation.placement.left,
            "height": step.observation.placement.shape.height,
            "width": step.observation.placement.shape.width,
            "contents": list(step.observation.contents),
        },
        "belief": {str(s): float(p) for s, p in step.belief.items()},
        "belief_support_size": step.belief_support_size,
        "a_mix": sorted(step.a_mix),
        "a_max": sorted(step.a_max),
        "iou": step.iou,
        "margin": step.margin,
        "chosen_action": step.chosen_action,
        "reward": step.reward,
    }


def _number(value) -> str:
    """`value` as ``json.dumps`` writes it: repr for an int or a finite float, else NaN, ±Infinity, true or false."""
    return repr(value) if type(value) is not bool and -math.inf < value < math.inf else json.dumps(value)


def trace_pieces(observation: Observation, posterior: Node) -> tuple[str, str]:
    """A step's trace line up to chosen_action's value and from iou to reward's, in sorted-key order."""
    decision, pl, belief = posterior.decision, observation.placement, posterior.belief
    masses = ", ".join([f'"{s}": {_number(float(p))}' for s, p in sorted([(str(s), p) for s, p in belief.items()])])
    # a list of ints formats as JSON writes it, "[0, 4]"
    return (f'{{"a_max": {sorted(decision.a_max)}, "a_mix": {sorted(decision.a_mix)}, "belief": {{{masses}}}, '
            f'"belief_support_size": {len(belief)}, "chosen_action": ',
            f', "iou": {_number(decision.iou)}, "margin": {_number(decision.margin)}, "observation": {{"contents": '
            f'{list(observation.contents)}, "height": {pl.shape.height}, "left": {pl.left}, "top": {pl.top}, '
            f'"width": {pl.shape.width}}}, "reward": ')


def write_trace(fh: TextIO, results: Sequence[EpisodeResult]) -> None:
    """One line per step, equal to ``json.dumps(step_to_json(episode, step), sort_keys=True)``.

    Sorted keys put a step's chosen_action, episode, reward and t around two pieces that its content fixes:
    each content's ``trace_pieces`` are formatted once, cached under its observation key and its posterior
    node's id (safe: `results` keeps every node alive), and every line is spliced from them.
    """
    pieces: dict[tuple, tuple[str, str]] = {}
    for episode, result in enumerate(results):
        for step in result.steps:
            key = (step.observation.key, id(step.posterior))
            cut = pieces.get(key)
            if cut is None:
                cut = pieces[key] = trace_pieces(step.observation, step.posterior)
            fh.write(f'{cut[0]}{step.chosen_action}, "episode": {episode}{cut[1]}{_number(step.reward)}, '
                     f'"t": {step.t}}}\n')


# --- SVG chart --------------------------------------------------------------

BAR_COLORS = {MIXTURE: "#4878a8", MAXBELIEF: "#e1812c"}


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, size: int, body, anchor: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}">{body}</text>'


def render_returns_svg(rows: Sequence[SweepRow]) -> str:
    """Grouped bar chart of mean returns with 95% CI whiskers, one group per window."""
    windows = list(dict.fromkeys(r.window for r in rows))
    policies = list(dict.fromkeys(r.policy for r in rows))
    by_cell = {(r.window, r.policy): r for r in rows}

    width, height = 640, 400
    left, right, top, bottom = 64, 20, 40, 52
    plot_w, plot_h = width - left - right, height - top - bottom
    y_min, y_max = -1.0, 1.0

    def y(v: float) -> float:
        return top + (y_max - v) / (y_max - y_min) * plot_h

    group_w = plot_w / len(windows)
    bar_w = group_w / (len(policies) + 1)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.2f}", 24, 15, "Average return by sensing window", "middle"),
    ]
    for tick in (-1.0, -0.5, 0.0, 0.5, 1.0):
        yy = f"{y(tick):.2f}"
        out.append(_line(left, yy, left + plot_w, yy, "#888888" if tick == 0.0 else "#dddddd", 1))
        out.append(_text(left - 8, f"{y(tick) + 4:.2f}", 12, f"{tick:g}", "end"))
    for wi, window in enumerate(windows):
        group_x = left + wi * group_w
        for pi, pol in enumerate(policies):
            row = by_cell[window, pol]  # sweep runs both policies on every window
            x = group_x + (pi + 0.5) * bar_w
            y0, y1 = y(0.0), y(row.mean_return)
            bar_top, bar_h = min(y0, y1), abs(y0 - y1)
            out.append(
                f'<rect x="{x:.2f}" y="{bar_top:.2f}" width="{bar_w:.2f}" height="{bar_h:.2f}" '
                f'fill="{BAR_COLORS[pol]}"><title>{window} {pol}: {_fmt(row.mean_return)} '
                f'&#177; {_fmt(row.ci95)}</title></rect>'
            )
            cx = x + bar_w / 2
            lo, hi = f"{y(row.mean_return - row.ci95):.2f}", f"{y(row.mean_return + row.ci95):.2f}"
            out.append(_line(f"{cx:.2f}", lo, f"{cx:.2f}", hi, "#333333", 1.5))
            for yy in (lo, hi):
                out.append(_line(f"{cx - 4:.2f}", yy, f"{cx + 4:.2f}", yy, "#333333", 1.5))
        out.append(_text(f"{group_x + group_w / 2:.2f}", height - bottom + 20, 13, window, "middle"))
    for pi, pol in enumerate(policies):
        lx, ly = left + plot_w - 130, top + 8 + pi * 18
        out.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{BAR_COLORS[pol]}"/>')
        out.append(_text(lx + 18, ly + 10, 12, pol))
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- replay rendering -------------------------------------------------------

def grid_rows(marks: dict[int, int]) -> list[str]:
    """3x3 grid of the cell digits in `marks`; a cell missing from it is blank."""
    glyphs = [MARK_CHARS[marks[c]] if c in marks else " " for c in range(9)]
    return ["".join(glyphs[r:r + 3]) for r in (0, 3, 6)]


def _columns(blocks: list[list[str]]) -> list[str]:
    """Blocks of text side by side, eight to a row, each padded to ten columns."""
    lines: list[str] = []
    for start in range(0, len(blocks), 8):
        chunk = blocks[start:start + 8]
        for line_i in range(max(len(b) for b in chunk)):
            lines.append("  " + "".join(b[line_i].ljust(10) for b in chunk).rstrip())
        lines.append("")
    return lines


def render_step(step: StepRecord, values: Sequence[float], true_state: Optional[int] = None) -> str:
    pl = step.observation.placement
    lines = [f"t={step.t}  window {pl.shape.label} at (row {pl.top}, col {pl.left})", "  observed:"]
    lines.extend("    |" + row + "|" for row in grid_rows(dict(zip(pl.cells, step.observation.contents))))
    n = step.belief_support_size
    lines.append(f"  belief ({n} state{'s' if n != 1 else ''}):")
    ranked = sorted(step.belief.items(), key=lambda kv: (-kv[1], kv[0]))
    blocks = []
    for state, p in ranked:
        tag = "*" if state == true_state else ""
        blocks.append(grid_rows({c: cell_mark(state, c) for c in range(9)}) + [f"p={p:.4f}{tag}"])
    lines.extend(_columns(blocks))
    lines.append("  Q~ per action: " + " ".join(f"{a}:{v:+.4f}" for a, v in enumerate(values)))
    lines.append(
        "  A_mix={" + ",".join(map(str, sorted(step.a_mix))) + "}"
        + "  A_max={" + ",".join(map(str, sorted(step.a_max))) + "}"
        + f"  iou={step.iou:.3f}  margin={step.margin:.4f}"
    )
    lines.append(f"  chosen action: {step.chosen_action} (row {step.chosen_action // 3}, col {step.chosen_action % 3})")
    return "\n".join(lines)


# --- subcommands ------------------------------------------------------------

def _check_out_path(flag: str, path: Optional[str]) -> None:
    """An output path must name a file in an existing directory; checked before any work."""
    if path == "":
        raise ValueError(f"{flag}: {path!r} is empty")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{flag}: the directory of {path!r} does not exist")
    if path and os.path.isdir(path):
        raise ValueError(f"{flag}: {path!r} is a directory")


def cmd_solve(args: argparse.Namespace) -> int:
    opponent = parse_opponent(args.opponent)
    _check_out_path("--out", args.out)
    q = solve_q(opponent)
    with _naming("--out", args.out):  # say, a full disk
        save_qtable(q, args.out)
    print(f"solved {len(q.entries)} states against opponent {args.opponent}")
    print(f"empty-board value: {_fmt(q.state_value(0))}")
    print(f"wrote {args.out}")
    return 0


@contextmanager
def _naming(flag: str, path: str, errors: tuple = (OSError,)):
    """An error of a type in `errors` raised in the block fails in one line: `flag`, `path` and the reason."""
    try:
        yield
    except errors as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ValueError(f"{flag}: {path!r}: {reason}") from None


def _load_q(args: argparse.Namespace, *outputs: tuple[str, Optional[str]]) -> tuple[QTable, str]:
    """The table ``--q`` or ``RBT_QTABLE`` names, loaded once no (flag, path) in `outputs` is that file."""
    flag, path = ("--q", args.q) if args.q else ("RBT_QTABLE", os.environ.get("RBT_QTABLE"))
    if not path:
        raise ValueError("no Q-table: pass --q PATH or set RBT_QTABLE")
    for out_flag, out in outputs:  # a command must not write over the table it reads
        if out and os.path.realpath(out) == os.path.realpath(path):
            raise ValueError(f"{out_flag}: {out!r} is the Q-table named by {flag}")
    with _naming(flag, path, (OSError, ValueError)):  # one line that names where the path came from
        return load_qtable(path), path


def _check_episodes(episodes: int) -> None:
    if episodes < 2:
        raise ValueError(f"--episodes must be at least 2 (the 95% CI needs two returns), got {episodes}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # Random(-s) seeds as Random(s) does, so a batch would repeat its episodes
        raise ValueError(f"--seed must be at least 0, got {seed}")


def _window_shape(flag: str, text: str) -> WindowShape:
    """The window an HxW flag value names; a bad one fails before any episode runs."""
    try:
        return WindowShape.from_label(text.strip().lower())
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _run_cell(
    q: QTable, shape: WindowShape, policy: str, episodes: int, seed: int
) -> tuple[SweepRow, list[EpisodeResult]]:
    config = EpisodeConfig(shape=shape, policy=policy, seed=seed)
    results = run_episodes(config, q, episodes)
    mean, ci = mean_ci95([r.total_return for r in results])
    return SweepRow(window=shape.label, policy=policy, episodes=episodes, mean_return=mean, ci95=ci), results


def cmd_run(args: argparse.Namespace) -> int:
    shape = _window_shape("--window", args.window)
    _check_episodes(args.episodes)
    _check_seed(args.seed)
    _check_out_path("--out", args.out)
    _check_out_path("--trace", args.trace)
    if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
        raise ValueError(f"--trace: {args.trace!r} is also --out")
    q, _ = _load_q(args, ("--out", args.out), ("--trace", args.trace))
    row, results = _run_cell(q, shape, args.policy, args.episodes, args.seed)
    print(RETURNS_HEADER)
    print(sweep_row_line(row))
    if args.out:
        with _naming("--out", args.out):
            write_csv(args.out, RETURNS_HEADER, [sweep_row_line(row)], append=True)
    if args.trace:
        with _naming("--trace", args.trace), open(args.trace, "w", encoding="utf-8") as fh:
            write_trace(fh, results)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    # one shape per window: both cells share its placements and their observations
    shapes = [_window_shape("--windows", w) for w in args.windows.split(",") if w.strip()]
    if not shapes:
        raise ValueError(f"--windows must list at least one HxW window, got {args.windows!r}")
    labels = [shape.label for shape in shapes]
    for label in labels:
        if labels.count(label) > 1:  # a repeated cell would write its rows twice
            raise ValueError(f"--windows lists the window {label} more than once, got {args.windows!r}")
    _check_episodes(args.episodes)
    _check_seed(args.seed)
    if not args.out_dir or os.path.exists(args.out_dir) and not os.path.isdir(args.out_dir):
        raise ValueError(f"--out-dir: {args.out_dir!r} is not a directory")
    ancestor = os.path.abspath(args.out_dir)
    while not os.path.exists(ancestor):  # "/" exists
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):  # checked before the table loads, created after: nothing is left behind
        raise ValueError(f"--out-dir: {args.out_dir!r}: Not a directory")
    outputs = [os.path.join(args.out_dir, name) for name in SWEEP_FILES]
    for path in outputs:
        if os.path.isdir(path):
            raise ValueError(f"--out-dir: {path!r} is a directory")
    q, q_path = _load_q(args, *(("--out-dir", path) for path in outputs))
    with _naming("--out-dir", args.out_dir):  # say, a parent that cannot be written
        os.makedirs(args.out_dir, exist_ok=True)
    rows: list[SweepRow] = []
    timestep_lines: list[str] = []
    for shape in shapes:
        for policy in (MIXTURE, MAXBELIEF):
            row, results = _run_cell(q, shape, policy, args.episodes, args.seed)
            rows.append(row)
            if policy == MIXTURE:
                timestep_lines += (f"{shape.label},{POLICY_PAIR},{agg.t},{_fmt(agg.mean_iou)},{_fmt(agg.mean_margin)},"
                                   f"{agg.samples}" for agg in aggregate_by_timestep(results))
            print(sweep_row_line(row))
    returns_path, timestep_path, svg_path, manifest_path = outputs
    write_csv(returns_path, RETURNS_HEADER, map(sweep_row_line, rows))
    write_csv(timestep_path, TIMESTEP_HEADER, timestep_lines)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_returns_svg(rows))
    manifest = {  # everything needed to reproduce the sweep bit for bit
        "tool": "rbt-bench", "version": 1, "tool_version": __version__,
        "qtable": q_path, "qtable_sha256": qtable_digest(q_path), "opponent": q.opponent.descriptor,
        "windows": labels, "policies": [MIXTURE, MAXBELIEF],
        "episodes": args.episodes, "seed": args.seed,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {', '.join(SWEEP_FILES)} to {args.out_dir}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    shape = _window_shape("--window", args.window)
    _check_seed(args.seed)
    q, _ = _load_q(args)
    config = EpisodeConfig(shape=shape, policy=MIXTURE, seed=args.seed)
    [result] = run_episodes(config, q, 1)
    for step, true_state in zip(result.steps, result.true_states):
        values = mixture_values(step.belief, q)
        print(render_step(step, values, true_state=true_state if args.verbose else None))
        print()
    print(f"outcome: {result.outcome.value}  return: {result.total_return:+g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbt-bench",
        description="Reconnaissance Blind TicTacToe benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table = argparse.ArgumentParser(add_help=False)  # the flags of every command that plays episodes
    table.add_argument("--q", default=None, help="Q-table path (default: $RBT_QTABLE)")
    table.add_argument("--seed", type=int, default=0)
    batch = argparse.ArgumentParser(add_help=False)  # and of those that play a batch
    batch.add_argument("--episodes", type=int, default=1000)

    p = sub.add_parser("solve", help="solve the fully observed game and cache the Q-table")
    p.add_argument("--opponent", default="uniform", help="uniform | minimax | eps:<p>")
    p.add_argument("--out", required=True, help="output Q-table JSON path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("run", parents=[table, batch], help="run one (window, policy) benchmark cell")
    p.add_argument("--window", required=True, help="window size HxW, e.g. 2x1")
    p.add_argument("--policy", choices=POLICIES, default=MIXTURE)
    p.add_argument("--trace", default=None, help="write per-step JSONL trace here")
    p.add_argument("--out", default=None, help="append the summary row to this CSV")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[table, batch], help="run both policies across window sizes")
    p.add_argument("--windows", default=DEFAULT_WINDOWS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", parents=[table], help="replay one episode with belief rendering")
    p.add_argument("--window", required=True, help="window size HxW")
    p.add_argument("--verbose", action="store_true", help="mark the true board with * in the belief")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
