"""Unit tests for the versioned result schema (satellite: round-trip + version)."""

import pytest

from repro.api import (
    SCHEMA_VERSION,
    CheckResult,
    SchemaVersionError,
    SynthesisResult,
    TableCell,
    result_from_json,
)

RESULTS = [
    CheckResult(
        task="sba-model-check", engine="bitset", exchange="floodset",
        failures="crash", num_agents=3, max_faulty=1, states=158,
        spec={"agreement": True, "validity": True}, rounds=3,
        protocol="floodset-standard", implementation_ok=False, optimal=False,
        sound=True, late_points=4,
    ),
    CheckResult(
        task="sba-temporal-only", engine="bitset", exchange="diff",
        failures="crash", num_agents=4, max_faulty=2, states=99,
        spec={"termination": True},
    ),
    CheckResult(
        task="eba-model-check", engine="bitset", exchange="emin",
        failures="sending", num_agents=2, max_faulty=1, states=56,
        spec={"eba_agreement": True}, protocol="emin-literature",
    ),
    SynthesisResult(
        task="sba-synthesis", engine="bitset", exchange="count",
        failures="crash", num_agents=3, max_faulty=2, states=200,
        earliest_condition_time=1,
    ),
    SynthesisResult(
        task="eba-synthesis", engine="bitset", exchange="ebasic",
        failures="sending", num_agents=3, max_faulty=1, states=400,
        iterations=3, converged=True,
    ),
    TableCell(column="floodset-mc", cell="0m01.250", seconds=1.25,
              timed_out=False, result={"n": 3}),
    TableCell(column="count-synth", cell="TO", timed_out=True),
    TableCell(column="diff-mc", cell="ERR", error="boom"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
    def test_to_json_from_json_round_trips(self, result):
        data = result.to_json()
        assert data["schema_version"] == SCHEMA_VERSION
        assert type(result).from_json(data) == result

    @pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
    def test_result_from_json_dispatches_on_the_type_tag(self, result):
        rebuilt = result_from_json(result.to_json())
        assert rebuilt == result
        assert type(rebuilt) is type(result)

    def test_json_payload_is_json_serialisable(self):
        import json

        for result in RESULTS:
            json.dumps(result.to_json())


class TestVersioning:
    def test_every_payload_carries_the_schema_version(self):
        for result in RESULTS:
            assert result.to_json()["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
    def test_missing_version_is_rejected(self, result):
        data = result.to_json()
        del data["schema_version"]
        with pytest.raises(SchemaVersionError, match="no 'schema_version'"):
            type(result).from_json(data)

    @pytest.mark.parametrize("version", [0, 2, "1", None])
    def test_unknown_version_is_rejected_with_a_clear_error(self, version):
        data = RESULTS[0].to_json()
        data["schema_version"] = version
        with pytest.raises(SchemaVersionError):
            CheckResult.from_json(data)

    def test_wrong_type_tag_is_rejected(self):
        data = RESULTS[0].to_json()
        data["type"] = "synthesis"
        with pytest.raises(ValueError, match="expected a 'check' result"):
            CheckResult.from_json(data)

    def test_unknown_type_tag_is_rejected_by_the_dispatcher(self):
        data = RESULTS[0].to_json()
        data["type"] = "surprise"
        with pytest.raises(ValueError, match="unknown result type"):
            result_from_json(data)


class TestLegacyPayloads:
    def test_sba_check_to_dict_matches_the_pre_redesign_shape(self):
        payload = RESULTS[0].to_dict()
        assert set(payload) == {
            "task", "engine", "exchange", "failures", "n", "t", "rounds",
            "protocol", "states", "spec", "implementation_ok", "optimal",
            "sound", "late_points",
        }
        assert payload["n"] == 3 and payload["t"] == 1

    def test_temporal_only_to_dict_has_no_protocol_fields(self):
        payload = RESULTS[1].to_dict()
        assert set(payload) == {"task", "engine", "exchange", "n", "t",
                                "states", "spec"}

    def test_eba_check_to_dict_matches_the_pre_redesign_shape(self):
        payload = RESULTS[2].to_dict()
        assert set(payload) == {"task", "engine", "exchange", "failures", "n",
                                "t", "protocol", "states", "spec"}

    def test_synthesis_to_dict_matches_the_pre_redesign_shapes(self):
        sba = RESULTS[3].to_dict()
        assert set(sba) == {"task", "engine", "exchange", "failures", "n", "t",
                            "states", "earliest_condition_time"}
        eba = RESULTS[4].to_dict()
        assert set(eba) == {"task", "engine", "exchange", "failures", "n", "t",
                            "states", "iterations", "converged"}

    def test_table_cell_from_outcome(self):
        from repro.harness.runner import CaseOutcome

        outcome = CaseOutcome(task="sba-synthesis", params={}, seconds=62.5,
                              timed_out=False, result={"states": 5})
        cell = TableCell.from_outcome("col", outcome)
        assert cell.cell == "1m02.500"
        assert cell.seconds == 62.5
        assert cell.result == {"states": 5}
