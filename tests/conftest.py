import pytest
from hypothesis import settings

from rbtbench import EpsilonMinimaxOpponent, MinimaxOpponent, QTable, UniformRandomOpponent, save_qtable, solve_q

settings.register_profile("deterministic", derandomize=True, max_examples=200)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def q_uniform():
    return solve_q(UniformRandomOpponent())


@pytest.fixture(scope="session")
def q_minimax():
    return solve_q(MinimaxOpponent())


@pytest.fixture(scope="session")
def q_eps05():
    """The eps 0.5 table: uneven beliefs of up to 21 boards."""
    return solve_q(EpsilonMinimaxOpponent(0.5))


@pytest.fixture
def q_uniform_cold(q_uniform):
    """The uniform table's entries with an empty belief graph, so `decide` recomputes."""
    return QTable(opponent=q_uniform.opponent, entries=q_uniform.entries)


@pytest.fixture(scope="session")
def q_uniform_path(tmp_path_factory, q_uniform):
    path = tmp_path_factory.mktemp("qtables") / "uniform.json"
    save_qtable(q_uniform, path)
    return str(path)
