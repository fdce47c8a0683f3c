"""Unit tests for the :class:`repro.api.Scenario` value object."""

import json

import pytest

from repro.api import EBA_EXCHANGES, SBA_EXCHANGES, Scenario


class TestConstruction:
    def test_defaults_are_the_papers(self):
        sba = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        assert sba.family == "sba"
        assert sba.failures == "crash"
        assert sba.num_values == 2
        assert sba.engine == "bitset"
        eba = Scenario(exchange="emin", num_agents=3, max_faulty=1)
        assert eba.family == "eba"
        assert eba.failures == "sending"

    def test_is_frozen_and_hashable(self):
        scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        with pytest.raises(AttributeError):
            scenario.num_agents = 4
        same = Scenario(exchange="floodset", num_agents=3, max_faulty=1,
                        failures="crash", num_values=2)
        assert scenario == same
        assert len({scenario, same}) == 1

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(exchange="bogus", num_agents=3, max_faulty=1), "not a known exchange"),
            (dict(exchange="floodset", num_agents=0, max_faulty=1), "num_agents"),
            (dict(exchange="floodset", num_agents=3, max_faulty=-1), "max_faulty"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, num_values=1),
             "num_values"),
            (dict(exchange="emin", num_agents=3, max_faulty=1, num_values=3),
             "value domain"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1,
                  failures="byzantine"), "failure model"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, rounds=-1),
             "rounds"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, rounds=True),
             "rounds"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, max_states=0),
             "max_states"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1,
                  max_states=True), "max_states"),
            (dict(exchange="floodset", num_agents=True, max_faulty=1),
             "integer"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, engine="cudd"),
             "satisfaction engine"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1,
                  engine="symbolic"), "'symbolic' is not a satisfaction engine"),
            (dict(exchange="floodset", num_agents=3, max_faulty=1, engine="set"),
             "'set' is not a satisfaction engine"),
            (dict(exchange="floodset", num_agents="3", max_faulty=1), "integer"),
        ],
    )
    def test_validates_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Scenario(**kwargs)

    def test_every_exchange_has_a_family(self):
        for exchange in SBA_EXCHANGES:
            assert Scenario(exchange=exchange, num_agents=3, max_faulty=1).family == "sba"
        for exchange in EBA_EXCHANGES:
            assert Scenario(exchange=exchange, num_agents=3, max_faulty=1).family == "eba"


class TestCanonicalForm:
    def test_defaults_are_omitted_and_engine_is_explicit(self):
        scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1)
        params = json.loads(scenario.canonical_json())
        assert params == {"exchange": "floodset", "num_agents": 3,
                          "max_faulty": 1, "engine": "bitset"}

    def test_spelled_out_defaults_normalise_identically(self):
        terse = Scenario(exchange="emin", num_agents=2, max_faulty=1)
        spelled = Scenario(exchange="emin", num_agents=2, max_faulty=1,
                           failures="sending", num_values=2,
                           optimal_protocol=False, engine="bitset")
        assert terse.canonical_json() == spelled.canonical_json()

    def test_non_defaults_are_kept(self):
        scenario = Scenario(exchange="count", num_agents=4, max_faulty=2,
                            failures="sending", rounds=3, optimal_protocol=True,
                            max_states=1000)
        params = json.loads(scenario.canonical_json())
        assert params["failures"] == "sending"
        assert params["rounds"] == 3
        assert params["optimal_protocol"] is True
        assert params["max_states"] == 1000
        assert params["engine"] == "bitset"

    def test_cell_key_matches_the_legacy_store_key(self):
        # The exact key format pre-redesign journals used: canonical JSON of
        # [task, resolved-params] with defaults omitted.
        scenario = Scenario(exchange="floodset", num_agents=2, max_faulty=1,
                            max_states=2_000_000)
        expected = json.dumps(
            ["sba-model-check",
             {"engine": "bitset", "exchange": "floodset", "max_faulty": 1,
              "max_states": 2_000_000, "num_agents": 2}],
            sort_keys=True, separators=(",", ":"))
        assert scenario.cell_key("sba-model-check") == expected


class TestTaskParams:
    def test_round_trip_through_task_params(self):
        scenario = Scenario(exchange="diff", num_agents=4, max_faulty=2,
                            rounds=2, max_states=500)
        params = scenario.to_params("sba-model-check")
        assert Scenario.from_task_params("sba-model-check", params) == scenario

    def test_task_family_must_match(self):
        with pytest.raises(ValueError, match="not an SBA exchange"):
            Scenario.from_task_params(
                "sba-model-check",
                {"exchange": "emin", "num_agents": 2, "max_faulty": 1})
        with pytest.raises(ValueError, match="not an EBA exchange"):
            Scenario.from_task_params(
                "eba-synthesis",
                {"exchange": "floodset", "num_agents": 2, "max_faulty": 1})

    def test_unknown_task_and_params_are_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            Scenario.from_task_params("bogus-task", {"exchange": "floodset"})
        with pytest.raises(ValueError, match="does not take"):
            Scenario.from_task_params(
                "eba-synthesis",
                {"exchange": "emin", "num_agents": 2, "max_faulty": 1,
                 "optimal_protocol": True})

    def test_inapplicable_fields_refuse_to_render(self):
        scenario = Scenario(exchange="floodset", num_agents=3, max_faulty=1,
                            optimal_protocol=True)
        with pytest.raises(ValueError, match="does not take 'optimal_protocol'"):
            scenario.to_params("sba-synthesis")

    def test_json_round_trip(self):
        scenario = Scenario(exchange="ebasic", num_agents=3, max_faulty=1,
                            max_states=10_000)
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_json({"exchange": "floodset", "num_agents": 3,
                                "max_faulty": 1, "n": 3})
