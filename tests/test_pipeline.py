import json
import os

import pytest

from deltachain.errors import SchemaError
from deltachain.pipeline import (
    PipelineConfig,
    config_from_dict,
    density_demo,
    emit_report,
    load_config,
    report_to_dict,
    resolve_system,
    run_pipeline,
)


def small_config(**overrides):
    data = {
        "system": {"builtin": "circle-doubling", "n": 15},
        "n_max": 3,
        "period_cap": 2,
        "pi_radius": 6,
        "hausdorff_sample": 12,
    }
    data.update(overrides)
    return config_from_dict(data)


class TestConfig:
    def test_defaults_applied(self):
        cfg = config_from_dict({"system": {"builtin": "circle-doubling", "n": 4}})
        assert cfg.n_max == 4
        assert cfg.eps_list == (0.5,)
        assert cfg.hausdorff_sample == 40

    def test_unknown_field(self):
        with pytest.raises(SchemaError) as err:
            config_from_dict({"system": {"builtin": "circle-doubling", "n": 4}, "oops": 1})
        assert "/oops" in str(err.value)

    def test_missing_system(self):
        with pytest.raises(SchemaError):
            config_from_dict({"n_max": 2})

    def test_bad_type(self):
        with pytest.raises(SchemaError):
            config_from_dict({"system": {"builtin": "circle-doubling", "n": 4}, "n_max": "4"})

    def test_bad_eps(self):
        with pytest.raises(SchemaError):
            config_from_dict(
                {"system": {"builtin": "circle-doubling", "n": 4}, "eps_list": [2.0]}
            )

    def test_target_shape(self):
        with pytest.raises(SchemaError):
            config_from_dict(
                {
                    "system": {"builtin": "circle-doubling", "n": 4},
                    "target": [{"word": [0]}],
                }
            )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": {"builtin": "circle-doubling", "n": 4}}))
        cfg = load_config(path)
        assert isinstance(cfg, PipelineConfig)


class TestResolveSystem:
    def test_builtin(self):
        sys = resolve_system({"builtin": "circle-doubling", "n": 6})
        assert sys.n == 6

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            resolve_system({"builtin": "nope"})

    def test_inline_dict(self):
        sys = resolve_system(
            {"points": ["a", "b"], "metric": {"circle_grid": 2}, "map": [1, 0]}
        )
        assert sys.n == 2


class TestRunPipeline:
    def test_levels_and_cross_level(self):
        cfg = small_config()
        report = run_pipeline(cfg)
        assert [entry["n"] for entry in report.levels] == [1, 2, 3]
        assert report.levels[0]["delta"] == 1.0
        # level 1 is the complete graph
        assert report.levels[0]["edges"] == 15 * 15
        assert all(entry["strongly_connected"] for entry in report.levels)
        assert len(report.cross_level) == 3  # pairs (1,2), (1,3), (2,3)
        for row in report.cross_level:
            assert row["bound_holds"]
            assert row["pi_bar_hausdorff"] <= row["aligned_bound"] + 1e-9

    def test_density_section(self):
        cfg = small_config(
            n_max=5,
            density_level=5,
            target=[
                {"word": [0], "weight": 0.5},
                {"word": [5, 10], "weight": 0.5},
            ],
            block_scales=[8, 32, 128],
        )
        report = run_pipeline(cfg)
        assert report.density is not None
        rows = report.density["rows"]
        assert [r["block_scale"] for r in rows] == [8, 32, 128]
        assert rows[-1]["weakstar_proxy"] <= rows[0]["weakstar_proxy"] + 1e-9

    def test_sampled_flag_on_large_sets(self):
        cfg = small_config(period_cap=3, hausdorff_sample=5)
        report = run_pipeline(cfg)
        assert any(row["sampled"] for row in report.cross_level)

    def test_non_cycle_target_recorded_not_raised(self):
        cfg = small_config(
            n_max=5,
            target=[{"word": [0, 7], "weight": 1.0}],  # 0 -> 7 is no edge at 1/5
        )
        report = run_pipeline(cfg)
        assert len(report.levels) == 5 and len(report.cross_level) == 10
        assert report.density is None
        assert len(report.errors) == 1
        assert report.errors[0]["stage"] == "density_demo"
        assert "/target/0/word" in report.errors[0]["reason"]

    def test_provenance_hash_stable(self):
        a = run_pipeline(small_config()).provenance["config_hash"]
        b = run_pipeline(small_config()).provenance["config_hash"]
        assert a == b
        c = run_pipeline(small_config(pi_radius=7)).provenance["config_hash"]
        assert c != a


class TestDensityDemo:
    def test_rejects_non_cycle_target(self):
        cfg = small_config(
            n_max=5,
            target=[{"word": [0, 7], "weight": 1.0}],  # 0 -> 7 is no edge at 1/5
        )
        with pytest.raises(SchemaError):
            density_demo(cfg, 5)

    def test_requires_target(self):
        cfg = small_config()
        with pytest.raises(SchemaError):
            density_demo(cfg, 3)


class TestEmission:
    def test_report_files(self, tmp_path):
        cfg = small_config(
            n_max=5,
            density_level=5,
            target=[
                {"word": [0], "weight": 0.5},
                {"word": [5, 10], "weight": 0.5},
            ],
            block_scales=[8, 16],
        )
        report = run_pipeline(cfg)
        out = tmp_path / "out"
        emit_report(report, str(out))
        for name in ("report.json", "distances.csv", "density.csv", "plot_data.json"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert "generated_at" in doc
        assert doc["provenance"]["config_hash"] == report.provenance["config_hash"]
        lines = (out / "distances.csv").read_text().strip().split("\n")
        assert lines[0] == "coarse,fine,pi_bar_hausdorff,aligned_bound"
        assert len(lines) == 1 + len(report.cross_level)

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = small_config()
        doc_a = report_to_dict(run_pipeline(cfg), include_timestamp=False)
        doc_b = report_to_dict(run_pipeline(cfg), include_timestamp=False)
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
