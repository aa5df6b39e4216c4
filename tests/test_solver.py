import json
import math
import random
import re
from pathlib import Path

import pytest

from rbtbench.game import O_WINS, cell_mark, transitions
from rbtbench.cli import parse_opponent
from rbtbench.opponents import EpsilonMinimaxOpponent, reply_distribution
from rbtbench.solver import (
    CorruptEntryError,
    FormatVersionMismatchError,
    QTable,
    _entry_keys,
    load_qtable,
    save_qtable,
    solve_q,
)

import oracles


def x_to_move_states():
    """The oracle's in-progress boards with as many X as O marks."""
    return sorted(
        oracles.board_index(cells)
        for cells in oracles.all_reachable_boards()
        if not oracles.winner(cells) and not oracles.is_full(cells) and cells.count(1) == cells.count(2)
    )


def test_entries_cover_exactly_the_x_to_move_states(q_uniform):
    assert sorted(q_uniform.entries) == x_to_move_states()


def test_all_values_within_unit_interval(q_uniform, q_minimax):
    for q in (q_uniform, q_minimax):
        for row in q.entries.values():
            assert len(row) == 9
            assert all(-1.0 <= v <= 1.0 for v in row)


def test_invalid_actions_score_minus_one_and_wins_score_one(q_uniform):
    rng = random.Random(11)
    for index in rng.sample(list(q_uniform.entries), 300):
        row = q_uniform.entries[index]
        for a in range(9):
            if cell_mark(index, a) != 0:
                assert row[a] == -1.0
            elif oracles.winner(oracles.put(oracles.cells_of(index), a, 1)) == 1:
                assert row[a] == 1.0


def test_center_opening_matches_naive_expectimax(q_uniform):
    # independent single-purpose recursive oracle, no memoization
    expected = oracles.expectimax_q(oracles.EMPTY_BOARD, 4, "uniform")
    assert math.isclose(q_uniform.entries[0][4], expected, abs_tol=1e-12)


def test_sampled_states_match_naive_expectimax(q_uniform):
    rng = random.Random(7)
    samples = rng.sample([i for i in q_uniform.entries if oracles.cells_of(i).count(0) <= 5], 25)
    for index in samples:
        cells = oracles.cells_of(index)
        for a in range(9):
            assert math.isclose(
                q_uniform.entries[index][a],
                oracles.expectimax_q(cells, a, "uniform") if cells[a] == 0 else -1.0,
                abs_tol=1e-12,
            )


def test_eps_minimax_solution_matches_naive_expectimax():
    q = solve_q(EpsilonMinimaxOpponent(0.5))
    rng = random.Random(3)
    samples = rng.sample([i for i in q.entries if oracles.cells_of(i).count(0) <= 5], 10)
    for index in samples:
        cells = oracles.cells_of(index)
        for a in range(9):
            if cells[a] == 0:
                expected = oracles.expectimax_q(cells, a, ("eps", 0.5))
                assert math.isclose(q.entries[index][a], expected, abs_tol=1e-12)


def test_minimax_opponent_empty_board_is_a_draw(q_minimax):
    assert q_minimax.state_value(0) == 0.0


def test_uniform_opponent_empty_board_is_winning(q_uniform):
    assert q_uniform.state_value(0) > 0.0


def test_weaker_opponent_never_lowers_the_value(q_uniform, q_minimax):
    for index, row in q_minimax.entries.items():
        assert max(q_uniform.entries[index]) >= max(row) - 1e-12


@pytest.mark.parametrize("opponent", ["uniform", None, EpsilonMinimaxOpponent])
def test_a_table_refuses_an_opponent_that_is_not_a_model(q_uniform, opponent):
    # else a descriptor in place of the model fails only at an episode's first reply, on .eps
    with pytest.raises(ValueError, match=f"^opponent must be an opponent model, got {re.escape(repr(opponent))}$"):
        QTable(opponent=opponent, entries=q_uniform.entries)


def test_save_load_round_trip(q_uniform, tmp_path):
    path = tmp_path / "q.json"
    save_qtable(q_uniform, path)
    loaded = load_qtable(path)
    assert loaded.opponent == q_uniform.opponent
    assert json.loads(path.read_text())["gamma"] == 1.0  # undiscounted, always
    assert loaded.entries == q_uniform.entries  # exact float equality


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"version": 999, "opponent": "uniform", "gamma": 1.0, "entries": {}}))
    with pytest.raises(FormatVersionMismatchError):
        load_qtable(path)


def test_load_rejects_wrong_action_count(tmp_path):
    path = tmp_path / "q.json"
    payload = {"version": 1, "opponent": "uniform", "gamma": 1.0, "entries": {"0": [0.0] * 8}}
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError):
        load_qtable(path)


def test_load_rejects_out_of_range_value(tmp_path):
    path = tmp_path / "q.json"
    payload = {"version": 1, "opponent": "uniform", "gamma": 1.0, "entries": {"0": [0.0] * 8 + [1.5]}}
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError):
        load_qtable(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_rejects_non_finite_values(q_uniform_path, tmp_path, value):
    # json reads NaN, Infinity and -Infinity; NaN fails every comparison,
    # so the range check must reject it along with the infinities
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["0"][4] = value
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    assert json.dumps(value) in path.read_text()  # NaN, Infinity or -Infinity
    with pytest.raises(CorruptEntryError, match="state 0: value outside"):
        load_qtable(path)


@pytest.mark.parametrize("position", [0, 8])
def test_load_rejects_nan_first_and_last_in_a_row(q_uniform_path, tmp_path, position):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["45"][position] = math.nan
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError, match="state 45: value outside"):
        load_qtable(path)


@pytest.mark.parametrize("value", ["0.5", True, False, None, [0.5], {"v": 0.5}])
def test_load_accepts_only_json_numbers(q_uniform_path, tmp_path, value):
    # float() would read "0.5" as 0.5 and true as 1.0
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["45"][4] = value
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError, match="^state 45: action values must be numbers$"):
        load_qtable(path)


@pytest.mark.parametrize("row", [5, "012345678", None, {str(k): 0.0 for k in range(9)}, [0.0] * 8, [0.0] * 10])
def test_load_rejects_a_row_that_is_not_nine_values(q_uniform_path, tmp_path, row):
    # len() fails on the first and third; the string and the object have
    # nine items, so only the type check rejects them
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["45"] = row
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError, match="^state 45: expected 9 action values$"):
        load_qtable(path)


def test_load_reports_a_type_fault_before_a_range_fault_in_an_earlier_row(q_uniform_path, tmp_path):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    keys = list(payload["entries"])
    first, last = keys[0], keys[-1]
    payload["entries"][first][0] = 1.5
    payload["entries"][last][0] = "0.5"
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    # shape, then type, then range, each over every row: the later row's type fault is named
    with pytest.raises(CorruptEntryError, match=f"^state {last}: action values must be numbers$"):
        load_qtable(path)


def test_load_reads_json_integers_as_floats(q_uniform, tmp_path):
    payload = {"version": 1, "opponent": "uniform", "gamma": 1.0,
               "entries": {str(i): [int(v) if v.is_integer() else v for v in row]
                           for i, row in q_uniform.entries.items()}}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    assert '[-1,' in path.read_text().replace(" ", "")  # the file does hold integers
    loaded = load_qtable(path)
    assert loaded.entries == q_uniform.entries
    assert all(type(v) is float for row in loaded.entries.values() for v in row)


@pytest.mark.parametrize("key", ["00", "045", "+45", "-0", " 45", "45 ", "4_5", "\u0664\u0665", "None", "abc"])
def test_load_rejects_an_entry_key_that_save_qtable_never_writes(q_uniform_path, tmp_path, key):
    # int() reads all but the last two of these keys as a board index
    text = Path(q_uniform_path).read_text(encoding="utf-8")
    path = tmp_path / "q.json"
    path.write_text(text.replace('"45":', f'"{key}":', 1))
    assert '"45":' not in path.read_text()
    with pytest.raises(CorruptEntryError, match="^entry key .* is not a board index as save_qtable writes it$"):
        load_qtable(path)


def test_load_makes_one_float_object_per_distinct_value(q_uniform_path):
    values = [v for row in load_qtable(q_uniform_path).entries.values() for v in row]
    assert len(values) == 2423 * 9
    assert len({id(v) for v in values}) == len(set(values)) < 100


def test_load_ignores_an_out_of_range_float_in_a_header_key(q_uniform, q_uniform_path, tmp_path):
    # a float outside [-1, 1] that sits in no row makes the range check scan the rows, and they pass
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["note"] = 5.0
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    assert load_qtable(path).entries == q_uniform.entries


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_load_names_the_first_row_with_a_non_finite_value(q_uniform_path, tmp_path, value):
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    keys = list(payload["entries"])
    for key in (keys[-1], keys[100]):
        payload["entries"][key][2] = value
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptEntryError, match=rf"^state {keys[100]}: value outside \[-1, 1\]$"):
        load_qtable(path)


def test_load_rejects_an_int_outside_the_range(q_uniform_path, tmp_path):
    # every float in the file is in range, so only the int makes the range check fail
    payload = json.loads(Path(q_uniform_path).read_text(encoding="utf-8"))
    payload["entries"]["45"][4] = 2
    path = tmp_path / "q.json"
    path.write_text(json.dumps(payload))
    assert '"45": [' in path.read_text() and ", 2, " in path.read_text()
    with pytest.raises(CorruptEntryError, match=r"^state 45: value outside \[-1, 1\]$"):
        load_qtable(path)


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_load_fails_in_one_line_on_json_nested_too_deeply(tmp_path, opener):
    path = tmp_path / "q.json"
    path.write_text(opener * 200000)
    with pytest.raises(CorruptEntryError, match="^the JSON nests too deeply for a Q-table file$"):
        load_qtable(path)


def test_load_validates_opponent_tag(tmp_path):
    path = tmp_path / "q.json"
    payload = {"version": 1, "opponent": "alphabeta", "gamma": 1.0, "entries": {}}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_qtable(path)


def saved_text(q, path):
    save_qtable(q, path)
    return path.read_text(encoding="utf-8")


def dumped_text(q):
    entries = {str(i): row for i, row in q.entries.items()}
    payload = {"version": 1, "opponent": q.opponent.descriptor, "gamma": 1.0, "entries": entries}
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def test_save_writes_what_json_dumps_writes(q_minimax, tmp_path):
    assert saved_text(q_minimax, tmp_path / "full.json") == dumped_text(q_minimax)
    # three decision states, not in key order: their decimal keys sort "11" < "18912" < "5"
    rows = {5: [0.5] * 9, 18912: [-1.0, 0.25, 1 / 3, 0.0, 1.0, -0.125, 0.1, 0.2, 2 / 3], 11: [k / 7 for k in range(9)]}
    q = QTable(opponent=parse_opponent("eps:0.3"), entries=rows)
    text = saved_text(q, tmp_path / "partial.json")
    assert text == dumped_text(q)
    assert text.index('"11"') < text.index('"18912"') < text.index('"5"')


def test_save_writes_a_full_table_in_key_order_whatever_its_insertion_order(q_minimax, tmp_path):
    # a table of every decision state takes the order sorted once; any other key set is sorted per call
    shuffled = list(q_minimax.entries.items())
    random.Random(7).shuffle(shuffled)
    q = QTable(opponent=q_minimax.opponent, entries=dict(shuffled))
    assert saved_text(q, tmp_path / "shuffled.json") == dumped_text(q_minimax)
    extra = QTable(opponent=q_minimax.opponent, entries={**q.entries, 1: [0.5] * 9})  # inserted last
    text = saved_text(extra, tmp_path / "extra.json")
    assert text == dumped_text(extra)
    assert text.startswith('{"entries":{"0":[0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0],"1":[0.5,')


def test_equal_eps_models_save_equal_bytes(tmp_path):
    # -0.0 == 0.0 and the two models hash alike, so their tables must not differ in the header's sign
    negative, positive = EpsilonMinimaxOpponent(-0.0), EpsilonMinimaxOpponent(0.0)
    assert negative == positive and hash(negative) == hash(positive)
    assert saved_text(solve_q(negative), tmp_path / "neg.json") == saved_text(solve_q(positive), tmp_path / "pos.json")


def test_save_writes_nan_and_infinities_as_json_does(tmp_path):
    q = QTable(opponent=parse_opponent("uniform"), entries={
        0: [math.nan, math.inf, -math.inf, 0.5, math.nan, -math.inf, math.inf, 0.5, -1.0],
        5: [-math.inf] * 9,
    })
    text = saved_text(q, tmp_path / "q.json")
    assert text == dumped_text(q)
    assert text.startswith('{"entries":{"0":[NaN,Infinity,-Infinity,0.5,NaN,-Infinity,Infinity,0.5,-1.0],')


def test_save_writes_minus_zero_as_zero_and_an_int_as_its_float(tmp_path):
    # equal values share one memo entry, whichever spelling comes first
    q = QTable(opponent=parse_opponent("uniform"), entries={
        0: [-0.0, 1, -1, 0.5, 0, 1.0, -1.0, -0.0, 0.0],
        5: [1.0, 1, 0.0, -0.0, 0, -1.0, -1, 0.25, 0.25],
    })
    text = saved_text(q, tmp_path / "q.json")
    assert text.startswith('{"entries":{"0":[0.0,1.0,-1.0,0.5,0.0,1.0,-1.0,0.0,0.0],'
                           '"5":[1.0,1.0,0.0,0.0,0.0,-1.0,-1.0,0.25,0.25]},')
    assert all(type(v) is float for row in json.loads(text)["entries"].values() for v in row)


# uniform, minimax and eps:0.05 ... eps:0.95, the benchmark's solve-grid set
SOLVE_GRID = ("uniform", "minimax") + tuple(f"eps:0.{k:02d}" for k in range(5, 100, 5))


def test_every_solve_grid_table_saves_reloads_and_compares_equal(tmp_path):
    for spec in SOLVE_GRID:
        q = solve_q(parse_opponent(spec))
        assert all(-1.0 <= v <= 1.0 for row in q.entries.values() for v in row), spec
        path = tmp_path / f"q_{spec.replace(':', '_')}.json"
        save_qtable(q, path)
        loaded = load_qtable(path)
        assert loaded == q, spec  # opponent and every float
        # each number text parsed once gives the floats a plain json.load gives, bit for bit
        plain = json.loads(path.read_text(encoding="utf-8"))["entries"]
        assert [[v.hex() for v in row] for row in loaded.entries.values()] == \
            [[v.hex() for v in row] for row in plain.values()], spec


def test_a_table_solved_against_an_int_eps_saves_reloads_and_compares_equal(tmp_path):
    q = solve_q(EpsilonMinimaxOpponent(1))
    path = tmp_path / "q.json"
    save_qtable(q, path)
    assert path.read_text(encoding="utf-8").endswith(',"gamma":1.0,"opponent":{"eps_minimax":1.0},"version":1}\n')
    assert load_qtable(path) == q


def reference_solve(model) -> dict[int, list[float]]:
    """The Q-values as solve_q summed them over reply_distribution before it read the reply patterns."""
    moves, replies = transitions()
    entries, values, expectations = {}, {}, {}
    for index, (ends, after_xs) in moves.items():
        row = list(ends)
        for action, after_x in after_xs.items():
            if after_x not in expectations:
                total = 0.0
                for reply, p in reply_distribution(model, after_x):
                    after_o = replies[after_x][reply]
                    if after_o == O_WINS:
                        total -= p
                    else:
                        total += p * values[after_o]
                expectations[after_x] = total
            row[action] = expectations[after_x]
        entries[index] = row
        values[index] = max(row)
    return entries


# the solve-grid tables, the ends of the eps range, eps small enough for the reply rule's ulp correction to
# move a probability up, and eps between the grid points
FOLD_MODELS = [parse_opponent(spec) for spec in SOLVE_GRID] + [
    EpsilonMinimaxOpponent(eps) for eps in (0.0, 1.0, 2e-16, 3e-16, 1e-15, 1e-300, 0.1, 0.3, 0.45, 0.999999)
]


@pytest.mark.parametrize("model", FOLD_MODELS, ids=[repr(m) for m in FOLD_MODELS])
def test_solve_q_folds_the_patterns_into_the_sum_over_reply_distribution_bit_for_bit(model):
    # a loss adds p * -1.0 (== -p) and a cell O never plays 0.0 * value; the sum starts at
    # +0.0 and so is never -0.0, and adding +0.0 or -0.0 to it changes nothing
    got = solve_q(model).entries
    expected = reference_solve(model)
    assert list(got) == list(expected)
    assert {i: [v.hex() for v in row] for i, row in got.items()} == \
        {i: [v.hex() for v in row] for i, row in expected.items()}


def test_eps_045_expectations_stay_within_the_unit_interval():
    # its reply probabilities used to sum to 1 + ulp on 340 O-to-move boards
    q = solve_q(EpsilonMinimaxOpponent(0.45))
    assert q.entries[7][3] == q.entries[7][4] == q.entries[7][6] == 1.0


def test_entry_keys_are_the_2423_x_to_move_boards():
    assert sorted(_entry_keys().values()) == x_to_move_states()
    assert len(_entry_keys()) == 2423


def write_entries(path, q, drop=(), add=()):
    entries = {str(i): row for i, row in q.entries.items() if i not in drop}
    entries.update({str(i): [0.0] * 9 for i in add})
    path.write_text(json.dumps({"version": 1, "opponent": q.opponent.descriptor, "gamma": 1.0, "entries": entries}))


def test_load_rejects_a_table_missing_states(q_uniform, tmp_path):
    path = tmp_path / "q.json"
    write_entries(path, q_uniform, drop=(0, 45))
    with pytest.raises(CorruptEntryError, match=r"missing 2 \(0, 45\), extra none"):
        load_qtable(path)


def test_load_rejects_a_table_with_extra_states(q_uniform, tmp_path):
    path = tmp_path / "q.json"
    write_entries(path, q_uniform, add=(99999, 1))  # out of range; O to move
    with pytest.raises(CorruptEntryError, match=r"missing none, extra 2 \(1, 99999\)"):
        load_qtable(path)


def test_load_names_at_most_five_states_per_side(q_uniform, tmp_path):
    path = tmp_path / "q.json"
    write_entries(path, q_uniform, drop=sorted(q_uniform.entries)[:7])
    with pytest.raises(CorruptEntryError, match=r"missing 7 \((\d+, ){4}\d+, \.\.\.\), extra none"):
        load_qtable(path)
