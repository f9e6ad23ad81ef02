"""Tests for the benchmark trajectory record schema."""

import json

from repro.bench import SCHEMA_VERSION, dump_record, params_digest, wrap_result


def make_record(data, params=None, name="fig2"):
    return wrap_result(name, data, seed=0, params=params or {"scale": 0.02})


class TestSchema:
    def test_wrap_result_carries_provenance(self):
        rec = wrap_result("fig2", {"x": 1}, seed=7,
                          params={"scale": 0.02, "requests": 800})
        assert rec["schema_version"] == SCHEMA_VERSION == 3
        assert rec["name"] == "fig2"
        assert rec["seed"] == 7
        assert rec["params_digest"] == params_digest(rec["params"])
        assert len(rec["params_digest"]) == 16
        assert rec["data"] == {"x": 1}
        assert set(rec) == {"schema_version", "name", "seed", "params",
                            "params_digest", "data"}

    def test_params_digest_is_order_independent(self):
        assert params_digest({"a": 1, "b": 2}) \
            == params_digest({"b": 2, "a": 1})
        assert params_digest({"a": 1}) != params_digest({"a": 2})

    def test_dump_load_round_trip_sorted(self, tmp_path):
        rec = make_record({"m": 1.0})
        path = tmp_path / "fig2.json"
        dump_record(rec, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == rec
        # sorted keys: "data" before "params" before "schema_version"
        assert text.index('"data"') < text.index('"params"') \
            < text.index('"schema_version"')

    def test_record_bytes_do_not_depend_on_the_commit(self, tmp_path,
                                                      monkeypatch):
        """A record is a function of the code, the seed and the knobs
        only, so the committed results can be gated with ``git diff``."""
        paths = []
        for sha in ("cafebabe", "deadbeef"):
            monkeypatch.setenv("REPRO_GIT_SHA", sha)
            paths.append(tmp_path / f"{sha}.json")
            dump_record(make_record({"m": [1.0, 2.5]}), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"git_sha" not in paths[0].read_bytes()
