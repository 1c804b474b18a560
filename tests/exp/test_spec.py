"""Specs: canonical hashing, grid expansion, deterministic seed derivation."""

from __future__ import annotations

import pytest

from repro.exp import ExperimentSpec, SweepSpec, canonical_json, derive_seed


class TestCanonicalJson:
    def test_key_order_is_normalized(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_tuples_and_lists_encode_identically(self):
        assert canonical_json({"r": (1, 2)}) == canonical_json({"r": [1, 2]})

    def test_nested_structures(self):
        text = canonical_json({"outer": {"z": (1,), "a": 2}})
        assert text == '{"outer":{"a":2,"z":[1]}}'


class TestSeedDerivation:
    def test_deterministic(self):
        params = {"workload": "sst2", "rates": (0.0, 1.0)}
        assert derive_seed(0, params) == derive_seed(0, params)

    def test_changes_with_base_seed(self):
        params = {"workload": "sst2"}
        assert derive_seed(0, params) != derive_seed(1, params)

    def test_changes_with_params(self):
        assert derive_seed(0, {"workload": "sst2"}) != derive_seed(0, {"workload": "mrpc"})

    def test_independent_of_param_order(self):
        assert derive_seed(7, {"a": 1, "b": 2}) == derive_seed(7, {"b": 2, "a": 1})


class TestExperimentSpec:
    def test_content_key_stable(self):
        spec = ExperimentSpec("fig12", params={"workload": "sst2"}, seed=3)
        again = ExperimentSpec("fig12", params={"workload": "sst2"}, seed=3)
        assert spec.content_key("v1") == again.content_key("v1")

    def test_content_key_varies_with_code_version(self):
        spec = ExperimentSpec("fig12", params={"workload": "sst2"})
        assert spec.content_key("v1") != spec.content_key("v2")

    def test_content_key_varies_with_params(self):
        a = ExperimentSpec("fig12", params={"workload": "sst2"})
        b = ExperimentSpec("fig12", params={"workload": "mrpc"})
        assert a.content_key() != b.content_key()

    def test_roundtrip_dict(self):
        spec = ExperimentSpec("fig13", params={"task": "cola"}, seed=9, tags=("ci",))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec


class TestSweepSpec:
    def test_points_cartesian_product(self):
        sweep = SweepSpec(
            experiment="selfcheck", grid={"n": (2, 3), "scale": (1.0, 2.0)}
        )
        assert len(sweep) == 4
        combos = {(p.params["n"], p.params["scale"]) for p in sweep.points()}
        assert combos == {(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)}

    def test_points_deterministic_order(self):
        sweep = SweepSpec(experiment="selfcheck", grid={"n": (4, 2, 3)})
        assert [p.params["n"] for p in sweep.points()] == [4, 2, 3]
        assert [p.params["n"] for p in sweep.points()] == [4, 2, 3]

    def test_base_params_applied_to_every_point(self):
        sweep = ExperimentSpec("selfcheck", params={"scale": 3.0}).sweep(n=[1, 2])
        assert all(p.params["scale"] == 3.0 for p in sweep.points())

    def test_grid_overrides_base(self):
        sweep = SweepSpec(
            experiment="selfcheck", grid={"n": (5,)}, base={"n": 1, "scale": 2.0}
        )
        (point,) = sweep.points()
        assert point.params == {"n": 5, "scale": 2.0}

    def test_each_point_gets_distinct_seed(self):
        sweep = SweepSpec(experiment="selfcheck", grid={"n": (1, 2, 3)}, seed=0)
        seeds = [p.point_seed() for p in sweep.points()]
        assert len(set(seeds)) == 3


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_point_seed_matches_derive_seed(seed):
    spec = ExperimentSpec("fig12", params={"workload": "vit"}, seed=seed)
    assert spec.point_seed() == derive_seed(seed, {"workload": "vit"})
