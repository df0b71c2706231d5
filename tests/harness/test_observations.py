"""Tests for the paper's three Observations (the boxed claims)."""

import pytest

from repro.harness.observations import all_observations


@pytest.fixture(scope="module")
def verdicts():
    """One reproduction of all three Observations, shared by every test
    (Observation 2 alone reruns the Table 5 sweep)."""
    return all_observations()


class TestObservations:
    def test_observation2_holds(self, verdicts):
        v = verdicts[1]
        assert v.holds, v.evidence
        assert v.evidence["SZp"] == pytest.approx(v.evidence["cuSZp"])

    def test_observation3_holds(self, verdicts):
        v = verdicts[2]
        assert v.holds, v.evidence
        assert v.evidence["reconstructions_identical"]
        assert v.evidence["ratio_cuszp"] > v.evidence["ratio_ceresz"]

    @pytest.mark.slow
    def test_all_observations_hold(self, verdicts):
        assert [v.observation for v in verdicts] == [1, 2, 3]
        for v in verdicts:
            assert v.holds, (v.observation, v.evidence)
        # Observation 1's headline numbers in the paper's territory.
        ev = verdicts[0].evidence
        assert ev["decompress_avg_gbs"] > ev["compress_avg_gbs"]
