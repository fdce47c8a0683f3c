"""Engine-name validation and the checker constructor."""

from __future__ import annotations

import pytest

from repro.core.checker import ModelChecker
from repro.engines import ENGINES, checker_for, validate_engine
from repro.api import Scenario, build_model
from repro.protocols.sba import FloodSetStandardProtocol
from repro.systems.space import build_space


@pytest.fixture(scope="module")
def space():
    model = build_model(Scenario(exchange="floodset", num_agents=3, max_faulty=1))
    return build_space(model, FloodSetStandardProtocol(3, 1))


def test_validate_engine_accepts_known_names():
    assert ENGINES == ("bitset",)
    for engine in ENGINES:
        assert validate_engine(engine) == engine


@pytest.mark.parametrize("engine", ["cudd", "symbolic", "set"])
def test_validate_engine_rejects_unknown_and_removed_names(engine):
    with pytest.raises(ValueError, match=f"'{engine}' is not a satisfaction engine"):
        validate_engine(engine)


def test_checker_for_builds_the_bitset_checker(space):
    assert isinstance(checker_for(space, "bitset"), ModelChecker)
    assert isinstance(checker_for(space), ModelChecker)
    for engine in ("symbolic", "set", "sat"):
        with pytest.raises(ValueError):
            checker_for(space, engine)
