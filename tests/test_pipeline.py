import itertools
import json
import typing
from dataclasses import fields

import pytest

from deltachain import measures, pipeline
from deltachain.chain import build_chain_graph
from deltachain.cli import main
from deltachain.errors import SchemaError
from deltachain.measures import (
    PeriodicOrbitMeasure,
    empirical_measure,
    ergodic_measures_of_graph,
    mixture_cylinders,
    sigmund_approximation,
    weakstar_proxy,
)
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

    def test_system_file_path_gives_the_builtin_report(self, tmp_path):
        path = tmp_path / "sys15.json"
        assert main(["generate", "circle-doubling", "--n", "15", "--out", str(path)]) == 0
        by_path = run_pipeline(small_config(system=str(path)))
        builtin = run_pipeline(small_config())
        assert by_path.levels == builtin.levels and by_path.cross_level == builtin.cross_level

    def test_non_primitive_density_level_recorded_not_raised(self):
        # below the grid step 1/5 the rotation's own edges are the whole graph: period 5
        cfg = small_config(
            system={"builtin": "circle-rotation", "n": 5},
            n_max=6,
            period_cap=5,
            target=[{"word": [0, 1, 2, 3, 4], "weight": 1.0}],
        )
        report = run_pipeline(cfg)
        assert report.levels[-1]["period"] == 5 and report.density is None
        reason = "level 6 graph is not primitive"
        assert report.errors == [{"stage": "density_demo", "reason": reason}]

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

    @pytest.mark.parametrize("word", [[-1, 0], [0, 99]])
    def test_out_of_range_target_ids_recorded(self, word):
        # -1 used to alias point 14 silently; 99 raised a bare IndexError
        cfg = small_config(n_max=2, target=[{"word": word, "weight": 1.0}])
        report = run_pipeline(cfg)
        assert len(report.levels) == 2 and len(report.cross_level) == 1
        assert report.density is None
        assert len(report.errors) == 1
        assert report.errors[0]["stage"] == "density_demo"
        assert "/target/0/word" in report.errors[0]["reason"]

    def test_counts_and_samples_match_measure_enumeration(self, monkeypatch):
        seen = []
        real = pipeline.pi_bar_matrices

        def recording(set_a, set_b, sys, radius):
            seen.append(([pm.word for pm in set_a], [pm.word for pm in set_b]))
            return real(set_a, set_b, sys, radius)

        monkeypatch.setattr(pipeline, "pi_bar_matrices", recording)
        cap, sample = 30, 7
        cfg = small_config(period_cap=3, enumeration_cap=cap, hausdorff_sample=sample)
        report = run_pipeline(cfg)
        sys = resolve_system(cfg.system)
        expected = {}
        for entry in report.levels:
            graph = build_chain_graph(sys, 1.0 / entry["n"])
            measures, truncated = ergodic_measures_of_graph(graph, 3, cap)
            assert (entry["ergodic_count"], entry["ergodic_truncated"]) == (
                len(measures),
                truncated,
            )
            if len(measures) > sample:
                step = (len(measures) - 1) / (sample - 1)
                measures = [measures[round(i * step)] for i in range(sample)]
            expected[entry["n"]] = [pm.word for pm in measures]
        # one call: the samples of levels 1 .. n-1 joined in order as rows, 2 .. n as columns
        assert seen == [(expected[1] + expected[2], expected[2] + expected[3])]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"n_max": 1},
            {"hausdorff_sample": 2},
            {"period_cap": 3, "enumeration_cap": 30, "hausdorff_sample": 7},
            # levels 8 and 9 have no cycles: 15 empty-set error rows
            {"system": {"builtin": "circle-rotation", "n": 7, "k": 1}, "period_cap": 3,
             "n_max": 9},
            {"system": {"builtin": "random-metric", "n": 12, "seed": 3}, "n_max": 4,
             "period_cap": 4},
        ],
    )
    def test_each_row_equals_its_own_pair_call(self, monkeypatch, overrides):
        samples = []
        real = pipeline._sampled_orbits

        def recording(words, cap):
            samples.append(real(words, cap))
            return samples[-1]

        monkeypatch.setattr(pipeline, "_sampled_orbits", recording)
        cfg = small_config(**overrides)
        report = run_pipeline(cfg)
        sys = resolve_system(cfg.system)
        rows, errors = iter(report.cross_level), []
        for n, m in itertools.combinations(range(1, cfg.n_max + 1), 2):
            if not samples[n - 1] or not samples[m - 1]:
                errors.append(
                    {"stage": "cross_level", "pair": [n, m], "reason": "empty ergodic set"}
                )
                continue
            best, _, aligned = measures.pi_bar_matrices(
                samples[n - 1], samples[m - 1], sys, cfg.pi_radius
            )
            row = next(rows)
            assert (row["coarse"], row["fine"]) == (n, m)
            assert row["pi_bar_hausdorff"] == measures._hausdorff(best)
            assert row["aligned_bound"] == measures._hausdorff(aligned)
        assert next(rows, None) is None
        assert report.errors == errors

    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_one_kernel_call_per_run(self, monkeypatch, n_max):
        calls = []
        real = pipeline.pi_bar_matrices

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(pipeline, "pi_bar_matrices", counting)
        report = run_pipeline(small_config(n_max=n_max))
        assert len(report.cross_level) == n_max * (n_max - 1) // 2
        assert len(calls) == 1

    def test_sampled_flag_at_the_sample_size(self):
        # ergodic counts [120, 120, 67, 29]: level 3 holds exactly 67 cycles
        for cap, last in ((67, False), (66, True)):
            report = run_pipeline(small_config(n_max=4, hausdorff_sample=cap))
            assert [e["ergodic_count"] for e in report.levels] == [120, 120, 67, 29]
            flags = {(row["coarse"], row["fine"]): row["sampled"] for row in report.cross_level}
            assert flags.pop((3, 4)) is last
            assert all(flags.values())

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

    def test_rejects_a_word_whose_closing_edge_is_missing(self):
        cfg = small_config(n_max=5, target=[{"word": [0, 3], "weight": 1.0}])  # 3 -> 0 is no edge
        with pytest.raises(SchemaError) as err:
            density_demo(cfg, 5)
        assert err.value.pointer == "/target/0/word"

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


CRASH_CONFIG = {
    "system": {"builtin": "circle-doubling", "n": 15},
    "n_max": 2,
    "period_cap": 2,
}


class TestConfigRanges:
    """Each value used to fail only after every level had been computed."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hausdorff_sample", 1),  # bare ZeroDivisionError in _stratified
            ("hausdorff_sample", 0),  # EmptySet from hausdorff_distance
            ("density_level", 0),  # bare ZeroDivisionError at 1 / level
            ("density_level", -1),  # bare ValueError from build_chain_graph
            ("pi_radius", -1),  # bare ValueError from an empty reduction
            ("enumeration_cap", -1),  # accepted; every level reported empty
            ("cylinder_depth", 0),  # density section lost after every level was computed
        ],
    )
    def test_rejected_at_pointer(self, field, value, tmp_path, capsys):
        data = dict(CRASH_CONFIG, **{field: value}, out_dir=str(tmp_path / "out"))
        with pytest.raises(SchemaError) as err:
            config_from_dict(data)
        assert err.value.pointer == f"/{field}"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--config", str(path)]) == 2
        assert f"/{field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_boundary_values_run(self, tmp_path):
        cfg = config_from_dict(
            dict(CRASH_CONFIG, hausdorff_sample=2, pi_radius=0, enumeration_cap=0, density_level=1)
        )
        report = run_pipeline(cfg)
        assert [entry["ergodic_count"] for entry in report.levels] == [0, 0]
        cfg = config_from_dict(dict(CRASH_CONFIG, hausdorff_sample=2, pi_radius=0))
        report = run_pipeline(cfg)
        assert report.errors == [] and len(report.cross_level) == 1

    @pytest.mark.parametrize("field", ["n_max", "pi_radius", "hausdorff_sample", "system"])
    def test_null_rejected_unless_nullable(self, field):
        # null n_max raised a bare TypeError; null pi_radius was accepted
        with pytest.raises(SchemaError) as err:
            config_from_dict(dict(CRASH_CONFIG, **{field: None}))
        assert err.value.pointer == f"/{field}"
        cfg = config_from_dict(dict(CRASH_CONFIG, target=None, density_level=None))
        assert cfg.target is None and cfg.density_level is None

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_density_demo_level_rejected(self, level, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(CRASH_CONFIG, target=[{"word": [0], "weight": 1.0}])))
        assert main(["density-demo", "--config", str(path), "--level", level]) == 2
        assert "/density_level" in capsys.readouterr().err
        cfg = load_config(str(path))
        with pytest.raises(SchemaError):
            density_demo(cfg, int(level))


class TestDensityTableLP:
    def target_config(self, **overrides):
        return small_config(
            n_max=5,
            target=[{"word": [0], "weight": 0.5}, {"word": [5, 10], "weight": 0.5}],
            **overrides,
        )

    def test_one_linprog_call_per_table(self, monkeypatch):
        calls = []
        real = measures._solve

        def counting(c, a_eq, b_eq, what, price=None):
            calls.append(1)
            return real(c, a_eq, b_eq, what, price)

        monkeypatch.setattr(measures, "_solve", counting)
        for scales in ([8], [8, 32, 128], [8, 16, 32, 64, 128, 256]):
            calls.clear()
            table = density_demo(self.target_config(block_scales=scales), 5)
            assert len(table["rows"]) == len(scales)
            assert len(calls) == 1
        calls.clear()
        assert density_demo(self.target_config(block_scales=[]), 5) == {"level": 5, "rows": []}
        assert calls == []

    def test_two_kernel_calls_per_analyze_op(self, monkeypatch, tmp_path):
        # the cross-level table and the density column; each density row was its own call
        calls = []
        real = measures.pi_bar_matrices

        def counting(*args):
            calls.append(1)
            return real(*args)

        for module in (measures, pipeline):
            monkeypatch.setattr(module, "pi_bar_matrices", counting)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(ACCEPTANCE_9_CONFIG, out_dir=str(tmp_path / "out"))))
        assert main(["analyze", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["density"]["rows"]) == 3 and len(report["cross_level"]) == 6
        assert len(calls) == 2

    def test_a_word_over_the_size_bound_is_recorded(self, tmp_path):
        # 10^12 letters: MemoryError after every level and the cross-level table
        data = dict(ACCEPTANCE_9_CONFIG, block_scales=[8, 10**12], out_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["levels"]) == 4 and len(report["cross_level"]) == 6
        assert report["density"] is None
        (error,) = report["errors"]
        assert error["stage"] == "density_demo" and "over 1048576" in error["reason"]

    def test_rows_match_per_scale_proxy(self):
        cfg = self.target_config(block_scales=[8, 32, 128], cylinder_depth=3)
        table = density_demo(cfg, 5)
        sys = resolve_system(cfg.system)
        graph = build_chain_graph(sys, 1.0 / 5)
        target = [(PeriodicOrbitMeasure(w), weight) for w, weight in cfg.target]
        target_cyl = mixture_cylinders(target, 3)
        for row in table["rows"]:
            approx = sigmund_approximation(target, graph, row["block_scale"])
            assert row["approx_period"] == approx.period
            proxy = weakstar_proxy(empirical_measure(approx, 3), target_cyl, 3, sys)
            assert row["weakstar_proxy"] == pytest.approx(proxy, abs=1e-12)


ACCEPTANCE_9_CONFIG = {
    "system": {"builtin": "circle-doubling", "n": 15},
    "n_max": 4,
    "period_cap": 3,
    "pi_radius": 6,
    "hausdorff_sample": 20,
    "target": [{"word": [0], "weight": 0.5}, {"word": [5, 10], "weight": 0.5}],
    "block_scales": [8, 32, 128],
    "density_level": 4,
    "seed": 0,
}


class TestConfigSchema:
    """The schema is the PipelineConfig fields; the hash bytes are the old ones."""

    def test_hash_of_the_acceptance_config_is_pinned(self):
        cfg = config_from_dict(ACCEPTANCE_9_CONFIG)
        digest = "52c24129e35b91f96face8a742e3c728f3ed0f59abf39f528b43979480b817b5"
        assert pipeline._config_hash(cfg) == digest
        moved = config_from_dict(dict(ACCEPTANCE_9_CONFIG, out_dir="elsewhere"))
        assert pipeline._config_hash(moved) == digest

    def test_empty_target_hashes_as_null(self):
        no_target = {k: v for k, v in ACCEPTANCE_9_CONFIG.items() if k != "target"}
        digest = "fd3cd90edc0f357fc4e934448acb8d6d77c9aee7020db263bd61e4525d6d01ac"
        assert pipeline._config_hash(config_from_dict(no_target)) == digest
        assert pipeline._config_hash(config_from_dict(dict(no_target, target=[]))) == digest

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = config_from_dict({"system": "x.json"})
        assert cfg == PipelineConfig(system="x.json")
        assert cfg.block_scales == (8, 16, 32, 64, 128, 256) and cfg.target is None
        digest = "a1a40c68c04ac0b25cedb687997e0eaf1e6393ea2ad06fe7fca324353e2fa6d0"
        assert pipeline._config_hash(cfg) == digest

    def test_entries_converted_as_before(self):
        cfg = config_from_dict(dict(ACCEPTANCE_9_CONFIG, eps_list=[1, 0.25], block_scales=[]))
        assert cfg.eps_list == (1.0, 0.25) and type(cfg.eps_list[0]) is float
        assert cfg.target == (((0,), 0.5), ((5, 10), 0.5))
        digest = "5fd38eea21ce5a7ff617f2221e9f8d57949fbd3aa79fcea9c5a5f718b9a930a0"
        assert pipeline._config_hash(cfg) == digest


    def test_schema_is_read_once_from_the_annotations(self, monkeypatch):
        schema = pipeline._CONFIG_SCHEMA
        assert list(schema) == [f.name for f in fields(PipelineConfig)]
        assert schema["system"] == ((dict, str), False)
        assert schema["eps_list"] == ((list,), False) and schema["n_max"] == ((int,), False)
        assert schema["target"] == ((list,), True) and schema["density_level"] == ((int,), True)

        def fail(*args, **kwargs):
            raise AssertionError("type hints read again")

        monkeypatch.setattr(typing, "get_type_hints", fail)
        cfg = config_from_dict(dict(ACCEPTANCE_9_CONFIG, density_level=None))
        assert cfg.density_level is None and cfg.target == (((0,), 0.5), ((5, 10), 0.5))
        with pytest.raises(SchemaError) as err:
            config_from_dict(dict(ACCEPTANCE_9_CONFIG, n_max=None))
        assert err.value.pointer == "/n_max"


class TestConfigEntries:
    """Bad list entries used to raise bare errors or run with a nonsense value."""

    @pytest.mark.parametrize(
        "field, value, pointer",
        [
            ("eps_list", ["x"], "/eps_list/0"),  # bare ValueError from float()
            ("eps_list", [0.5, True], "/eps_list/1"),
            ("eps_list", [0.5, 1.5], "/eps_list/1"),
            ("block_scales", ["x"], "/block_scales/0"),  # bare ValueError from int()
            ("block_scales", [8, -8], "/block_scales/1"),  # reported a row with scale -8
            ("block_scales", [0], "/block_scales/0"),  # DegenerateWeights after every level
            ("block_scales", [8.5], "/block_scales/0"),
            ("target", [{"word": ["a"], "weight": 1.0}], "/target/0/word"),  # bare TypeError late
            ("target", [{"word": 0, "weight": 1.0}], "/target/0/word"),  # bare TypeError
            ("target", [{"word": [0], "weight": "x"}], "/target/0/weight"),  # bare ValueError
            ("target", [{"word": [0], "weight": 0.5}, {"word": [5, 1.0], "weight": 0.5}],
             "/target/1/word"),
            # these four ran every level, then only recorded the failure in report.errors
            ("target", [{"word": [0], "weight": 0.3}, {"word": [5, 10], "weight": 0.3}],
             "/target"),
            ("target", [{"word": [0], "weight": -0.5}, {"word": [5, 10], "weight": 1.5}],
             "/target/0/weight"),
            ("target", [{"word": [5, 10], "weight": 1.0}, {"word": [0], "weight": 0}],
             "/target/1/weight"),
            ("target", [{"word": [], "weight": 1.0}], "/target/0/word"),  # pointer was /word
            ("eps_list", [0.5, 1e-320], "/eps_list/1"),  # OverflowError at ceil(1 / eps)
        ],
    )
    def test_rejected_at_pointer(self, field, value, pointer, tmp_path, capsys):
        data = dict(CRASH_CONFIG, **{field: value}, out_dir=str(tmp_path / "out"))
        with pytest.raises(SchemaError) as err:
            config_from_dict(data)
        assert err.value.pointer == pointer
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--config", str(path)]) == 2
        assert pointer in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_target_is_no_target(self, tmp_path):
        # target [] hashed as no target but added a "must be non-empty" error to the report
        no_target = {k: v for k, v in ACCEPTANCE_9_CONFIG.items() if k != "target"}
        outputs = []
        for data in (no_target, dict(no_target, target=[])):
            path, out = tmp_path / "cfg.json", tmp_path / f"out{len(outputs)}"
            path.write_text(json.dumps(data))
            assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
            lines = (out / "report.json").read_bytes().splitlines(keepends=True)
            report = b"".join(line for line in lines if b'"generated_at"' not in line)
            names = ("distances.csv", "density.csv", "plot_data.json")
            outputs.append([report] + [(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]
        assert b'"errors": []' in outputs[1][0]

    def test_valid_entries_run(self):
        target = [{"word": [0], "weight": 1}]
        cfg = config_from_dict(dict(CRASH_CONFIG, block_scales=[1, 8], eps_list=[1], target=target))
        report = run_pipeline(cfg)
        assert report.errors == []
        assert [row["block_scale"] for row in report.density["rows"]] == [1, 8]
