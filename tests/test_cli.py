import csv
import io
import json
import re
import shutil
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from echelonopt import cli
from echelonopt.cli import main
from echelonopt.config import STRATEGIES, merge_optimizer_settings
from echelonopt.harness import derive_strategy_seed
from echelonopt.model import DemandChoice, FacilitySpec, ScenarioConfig
from echelonopt.sampling import HistoryGenParams, SeriesParams

PRESET = (Path(__file__).resolve().parent.parent / "configs"
          / "five_facility.json")
TINY_OVERRIDES = ["--replications", "2", "--horizon", "60"]


@pytest.fixture(scope="module")
def config_path():
    return str(PRESET)


@pytest.fixture(scope="module")
def history_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("history")
    code = main(["generate-data", "--config", config_path,
                 "--out", str(out)])
    assert code == 0
    return str(out)


# Each model dataclass a config file holds, at one instance: the class,
# the instance's path in the file, the context its errors name, and how
# to get it from the loaded config.
SECTIONS = [
    (FacilitySpec, ("network", "facilities", 0), "facility 1",
     lambda cfg: cfg.network.facilities[0]),
    (ScenarioConfig, ("scenario",), "scenario", lambda cfg: cfg.scenario),
    (HistoryGenParams, ("generator",), "generator",
     lambda cfg: cfg.generator),
    *((SeriesParams, ("generator", series, "1"), f"generator.{series}[1]",
       lambda cfg, series=series: getattr(cfg.generator, series)["1"])
      for series in ("demand", "lead_delta")),
]


def model_fields(kind):
    """(path in the file, the context its error names, how to read the
    loaded value) for every field of SECTIONS annotated ``kind``."""
    return [pytest.param(
        (*path, field.name), rf"{re.escape(context)}\.{field.name}",
        lambda cfg, get=get, name=field.name: getattr(get(cfg), name),
        id=f"{context}.{field.name}")
        for cls, path, context, get in SECTIONS for field in fields(cls)
        if get_type_hints(cls)[field.name] is kind]


def out_dir_argv(command, config_path, history_dir, out):
    """A quick run of ``command`` that writes to ``out``."""
    argv = [command, "--config", config_path, "--out", str(out)]
    if command != "generate-data":
        argv += ["--history-dir", history_dir, "--replications", "1",
                 "--horizon", "10"]
    if command in ("optimize", "compare"):
        argv += ["--strategy", "rbf", "--max-evals", "3"]
    if command == "compare":
        argv += ["--choice", "both"]
    return argv


class TestGenerateData:
    def test_writes_expected_files(self, config_path, tmp_path):
        out = tmp_path / "h"
        assert main(["generate-data", "--config", config_path,
                     "--out", str(out)]) == 0
        demand_files = sorted(p.name for p in out.glob("demand_*.csv"))
        lead_files = sorted(p.name for p in out.glob("lead_delta_*.csv"))
        # facility 3 serves no customers: four demand files, five lead files
        assert demand_files == ["demand_1.csv", "demand_2.csv",
                                "demand_4.csv", "demand_5.csv"]
        assert len(lead_files) == 5
        assert (out / "manifest.json").exists()

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate-data", "--config", config_path, "--out", str(a),
              "--seed", "5"])
        main(["generate-data", "--config", config_path, "--out", str(b),
              "--seed", "5"])
        for pa in sorted(a.glob("*.csv")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["generate-data", "--config", "/nope/absent.json",
                     "--out", str(tmp_path / "x")]) == 1
        assert "absent.json" in capsys.readouterr().err


class TestUsageErrors:
    """Usage errors exit 1; 2 is kept for a policy that misses targets."""

    def test_missing_required_flag_exits_one(self, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "x")]) == 1
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_non_integer_flag_exits_one(self, config_path, history_dir,
                                        capsys):
        assert main(["evaluate", "--config", config_path,
                     "--history-dir", history_dir,
                     "--replications", "abc"]) == 1
        assert "--replications" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestSimulate:
    def test_prints_table_and_writes_trace(self, config_path, history_dir,
                                           tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["simulate", "--config", config_path,
                     "--history-dir", history_dir, "--horizon", "40",
                     "--trace-out", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_on_hand" in out and "beta" in out
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["day", "facility", "on_hand", "inv_position",
                           "backorders", "demand", "shipped"]
        assert len(rows) == 1 + 40 * 5

    def test_lead_time_beyond_int64_runs(self, history_dir, tmp_path,
                                         capsys):
        # Facility 1's orders from SOURCE are due after the horizon.
        raw = json.loads(PRESET.read_text())
        raw["network"]["facilities"][0]["base_lead_time"] = 10**30
        config = tmp_path / "far.json"
        config.write_text(json.dumps(raw))
        code = main(["simulate", "--config", str(config),
                     "--history-dir", history_dir, "--horizon", "30"])
        assert code == 0
        assert "avg_on_hand" in capsys.readouterr().out

    @pytest.mark.parametrize("replication", ["0", "-1"])
    def test_replication_below_one_exits_one(self, config_path, history_dir,
                                             replication, capsys):
        # Replication 0's stream keys are the ones the history was drawn
        # with, and negative indices wrap, so both are rejected.
        code = main(["simulate", "--config", config_path,
                     "--history-dir", history_dir, "--horizon", "10",
                     "--replication", replication])
        assert code == 1
        assert "replication_index must be >= 1" in capsys.readouterr().err

    def test_impossible_horizon_is_one_error_line(self, config_path,
                                                  history_dir, capsys):
        # numpy refuses 10**15 days of draws before touching memory
        code = main(["simulate", "--config", config_path,
                     "--history-dir", history_dir, "--horizon", str(10**15)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: MemoryError: ")


class TestEvaluate:
    def test_feasible_initial_guess_exits_zero(self, config_path,
                                               history_dir, tmp_path,
                                               capsys):
        out_dir = tmp_path / "report"
        code = main(["evaluate", "--config", config_path,
                     "--history-dir", history_dir,
                     "--replications", "3", "--out", str(out_dir)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed
        payload = json.loads((out_dir / "evaluation.json").read_text())
        assert payload["feasible"] is True
        assert payload["replications"] == 3

    def test_zero_policy_exits_two(self, config_path, history_dir,
                                   tmp_path, capsys):
        policy = tmp_path / "zero.json"
        policy.write_text(json.dumps({
            fid: {"reorder_point": 0, "base_stock": 0}
            for fid in ("1", "2", "3", "4", "5")}))
        code = main(["evaluate", "--config", config_path,
                     "--history-dir", history_dir, "--policy", str(policy),
                     *TINY_OVERRIDES])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_missing_history_file_exits_one(self, config_path, tmp_path,
                                            capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        code = main(["evaluate", "--config", config_path,
                     "--history-dir", str(partial), *TINY_OVERRIDES])
        assert code == 1
        assert "demand_1.csv" in capsys.readouterr().err


class TestPrintedTables:
    """generate-data, simulate and evaluate print one line of text, then
    a table whose columns are as wide as their widest cell."""

    LONG_IDS = {"1": "central-warehouse", "2": "east-region-depot",
                "3": "3", "4": "west-store", "5": "south-store-number-5"}

    @pytest.fixture
    def long_id_config(self, tmp_path):
        """The preset with facility ids of up to twenty characters."""
        raw = json.loads(PRESET.read_text())
        for facility in raw["network"]["facilities"]:
            facility["id"] = self.LONG_IDS[facility["id"]]
            facility["upstream"] = self.LONG_IDS.get(facility["upstream"],
                                                     facility["upstream"])
        for section, key in ((raw, "initial_policy"), (raw, "bounds"),
                             (raw["generator"], "demand"),
                             (raw["generator"], "lead_delta")):
            section[key] = {self.LONG_IDS[fid]: entry
                            for fid, entry in section[key].items()}
        config = tmp_path / "long_ids.json"
        config.write_text(json.dumps(raw))
        return str(config)

    def test_rows_align_with_long_facility_ids(self, long_id_config,
                                               tmp_path, capsys):
        history = str(tmp_path / "history")
        run = ["--config", long_id_config, "--history-dir", history,
               "--horizon", "60"]
        commands = {  # argv, table rows: 4 demand + 5 lead series, 5 ids
            "generate-data": (["generate-data", "--config", long_id_config,
                               "--out", history], 9),
            "simulate": (["simulate", *run], 5),
            "evaluate": (["evaluate", *run, "--replications", "2",
                          "--out", str(tmp_path / "report")], 5),
        }
        for name, (argv, rows) in commands.items():
            assert main(argv) in (0, 2), name
            table = capsys.readouterr().out.splitlines()[1:]
            assert len(table) == 2 + rows, name  # header, rule, rows
            assert set(table[1]) == {"-"}, name
            assert len({len(line) for line in table}) == 1, (name, table)
            assert any("south-store-number-5" in line
                       for line in table[2:]), name


class TestOptimize:
    def test_run_artifacts(self, config_path, history_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--strategy", "rbf",
                     "--out", str(out), "--max-evals", "30",
                     *TINY_OVERRIDES])
        assert code == 0
        log = out / "evaluations_rbf_backorder.csv"
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["evaluation", "point", "z", "best_so_far"]
        assert len(rows) == 1 + 30  # flushed one line per evaluation
        best = json.loads((out / "best_policy_rbf_backorder.json").read_text())
        assert set(best) == {"1", "2", "3", "4", "5"}
        summary = json.loads((out / "summary_rbf_backorder.json").read_text())
        assert summary["evaluations"] == 30
        assert summary["cpu_time_minutes"] > 0.0
        assert summary["best_z"] <= summary["initial_z"]
        configured = json.loads(PRESET.read_text())["optimizers"]["rbf"]
        assert summary["settings"]["max_evaluations"] == 30
        assert summary["settings"]["seed"] == configured["seed"]
        assert summary["settings"]["max_minutes"] == configured["max_minutes"]

    def test_single_eval_budget_reports_initial_point(self, config_path,
                                                      history_dir, tmp_path):
        out = tmp_path / "single"
        code = main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--strategy",
                     "nelder-mead", "--out", str(out), "--max-evals", "1",
                     *TINY_OVERRIDES])
        assert code == 0
        summary = json.loads(
            (out / "summary_nelder-mead_backorder.json").read_text())
        assert summary["evaluations"] == 1
        assert summary["reduction_pct"] == 0.0

    def test_log_writes_points_exactly(self, history_dir, tmp_path):
        raw = json.loads(PRESET.read_text())
        raw["initial_policy"]["1"] = {"reorder_point": 1_234_567,
                                      "base_stock": 3_000_000}
        raw["bounds"]["1"] = {"reorder_point": [0, 2_000_000],
                              "base_stock": [0, 6_000_000]}
        config = tmp_path / "big.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "run"
        code = main(["optimize", "--config", str(config),
                     "--history-dir", history_dir, "--strategy",
                     "nelder-mead", "--out", str(out), "--max-evals", "1",
                     *TINY_OVERRIDES])
        assert code == 0
        with open(out / "evaluations_nelder-mead_backorder.csv") as fh:
            rows = list(csv.reader(fh))
        point = [float(v) for v in rows[1][1].split()]
        ids = [str(i) for i in range(1, 6)]
        assert point == [
            *(raw["initial_policy"][f]["reorder_point"] for f in ids),
            *(raw["initial_policy"][f]["base_stock"] for f in ids)]

    def test_best_policy_evaluates_to_the_best_z(self, config_path,
                                                 history_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--strategy", "rbf",
                     "--out", str(out), "--max-evals", "20",
                     *TINY_OVERRIDES]) == 0
        summary = json.loads((out / "summary_rbf_backorder.json").read_text())
        code = main(["evaluate", "--config", config_path,
                     "--history-dir", history_dir, *TINY_OVERRIDES,
                     "--policy", str(out / "best_policy_rbf_backorder.json"),
                     "--out", str(tmp_path / "evaluate")])
        report = json.loads(
            (tmp_path / "evaluate" / "evaluation.json").read_text())
        assert report["z"] == summary["best_z"]
        assert code == (0 if report["feasible"] else 2)
        assert report["feasible"] == summary["feasible"]

    def test_impossible_horizon_is_one_error_line(self, config_path,
                                                  history_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "run"
        code = main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--strategy", "rbf",
                     "--out", str(out), "--max-evals", "3",
                     "--replications", "1", "--horizon", str(10**15)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: MemoryError: ")
        assert not out.exists()

    def test_gp_without_random_starts_exits_one(self, history_dir, tmp_path,
                                                capsys):
        raw = json.loads(PRESET.read_text())
        raw["optimizers"]["gp"]["n_random_starts"] = 0
        config = tmp_path / "no_starts.json"
        config.write_text(json.dumps(raw))
        code = main(["optimize", "--config", str(config),
                     "--history-dir", history_dir, "--strategy", "gp",
                     "--out", str(tmp_path / "run"), "--max-evals", "30",
                     *TINY_OVERRIDES])
        assert code == 1
        assert "n_random_starts" in capsys.readouterr().err


class TestZeroOverrides:
    """A flag given as 0 is rejected, not replaced by the config value."""

    @pytest.mark.parametrize("flag", ["--horizon", "--replications"])
    def test_zero_scenario_flag_exits_one(self, config_path, history_dir,
                                          flag, capsys):
        code = main(["evaluate", "--config", config_path,
                     "--history-dir", history_dir, flag, "0"])
        assert code == 1
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-evals", "--max-minutes"])
    def test_zero_budget_flag_exits_one(self, config_path, history_dir,
                                        tmp_path, flag, capsys):
        code = main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--strategy",
                     "nelder-mead", "--out", str(tmp_path / "zero"),
                     flag, "0", "--replications", "1", "--horizon", "30"])
        assert code == 1
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    @pytest.mark.parametrize("flag,named", [
        ("--max-evals", "--max-evals: max_evaluations must be positive"),
        ("--max-minutes", "--max-minutes: max_minutes must be positive"),
        ("--horizon", "horizon must be >= 1"),
        ("--replications", "replications must be >= 1"),
    ], ids=["--max-evals", "--max-minutes", "--horizon", "--replications"])
    def test_zero_flag_fails_before_any_file(self, config_path, history_dir,
                                             tmp_path, command, flag, named,
                                             capsys):
        out = tmp_path / "zero"
        strategy = ["--strategy", "nelder-mead"] if command == "optimize" \
            else []
        # the flag under test comes last, so it replaces the small default
        code = main([command, "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     *strategy, "--replications", "1", "--horizon", "30",
                     "--max-evals", "1", flag, "0"])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestBadFlagValues:
    """A flag value the run would choke on fails before any file, named."""

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    @pytest.mark.parametrize("flag,value,named", [
        ("--seed", "-5", "base_seed must be >= 0"),
        ("--max-minutes", "nan", "--max-minutes: max_minutes must be finite"),
        ("--max-minutes", "inf", "--max-minutes: max_minutes must be finite"),
        ("--max-evals", str(10**400),
         "max_evaluations: number too large for a float"),
    ], ids=["negative-seed", "nan-minutes", "inf-minutes", "huge-evals"])
    def test_fails_before_any_file(self, config_path, history_dir, tmp_path,
                                   command, flag, value, named, capsys):
        out = tmp_path / "bad"
        strategy = ["--strategy", "rbf"] if command == "optimize" else []
        code = main([command, "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     *strategy, "--replications", "1", "--horizon", "10",
                     "--max-evals", "2", flag, value])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_fails_in_generate_data(self, config_path,
                                                  tmp_path, capsys):
        out = tmp_path / "h"
        assert main(["generate-data", "--config", config_path,
                     "--out", str(out), "--seed", "-1"]) == 1
        assert "base_seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSearchErrors:
    """A search that fails on its own ends in one error line, exit 1."""

    def optimize(self, config_path, history_dir, tmp_path, *flags):
        return main(["optimize", "--config", config_path,
                     "--history-dir", history_dir, "--out",
                     str(tmp_path / "run"), "--replications", "1",
                     "--horizon", "10", *flags])

    def test_budget_exhausted_before_the_first_evaluation(
            self, config_path, history_dir, tmp_path, capsys):
        code = self.optimize(config_path, history_dir, tmp_path,
                             "--strategy", "rbf", "--max-minutes", "1e-12")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: BudgetExhaustedError: budget exhausted "
                       "before the first evaluation"]

    def test_singular_kernel(self, config_path, history_dir, tmp_path,
                             capsys, monkeypatch):
        from echelonopt.optim import gp

        monkeypatch.setattr(gp, "_lower_cholesky", lambda k: None)
        code = self.optimize(config_path, history_dir, tmp_path,
                             "--strategy", "gp", "--max-evals", "12")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: SingularKernelError: kernel not "
                                 "positive definite")

    @pytest.mark.parametrize("command", ["generate-data", "evaluate",
                                         "optimize", "compare"])
    @pytest.mark.parametrize("out_path,existing", [
        ("run", False), ("new/parents/run", False), ("run", True)],
        ids=["new-out", "nested-out", "empty-out"])
    def test_failed_run_leaves_no_partial_output(self, config_path,
                                                 history_dir, tmp_path,
                                                 command, out_path, existing,
                                                 capsys, monkeypatch):
        out = tmp_path / out_path
        if existing:
            out.mkdir()
        argv = out_dir_argv(command, config_path, history_dir, out)
        if command in ("optimize", "compare"):
            failing = [*argv, "--max-minutes", "1e-12"]
            error = "error: BudgetExhaustedError"
        else:  # the writer raises once it has written its file(s)
            writer = ("write_history" if command == "generate-data"
                      else "_write_json")
            real = getattr(cli, writer)

            def write_then_fail(*args):
                real(*args)
                raise OSError("No space left on device")
            monkeypatch.setattr(cli, writer, write_then_fail)
            failing, error = argv, "error: OSError: No space left"
        assert main(failing) == 1
        assert capsys.readouterr().err.startswith(error)
        assert sorted(tmp_path.rglob("*")) == ([out] if existing else [])
        monkeypatch.undo()
        assert main(argv) == 0
        assert (out / "manifest.json").exists()


class TestOutDir:
    """One run per output directory, whichever command writes it."""

    def run(self, command, config_path, history_dir, out):
        return main(out_dir_argv(command, config_path, history_dir, out))

    @pytest.mark.parametrize("first,command", [
        *((c, c) for c in ("generate-data", "evaluate", "optimize",
                           "compare")),
        ("optimize", "evaluate")],
        ids=["generate-data", "evaluate", "optimize", "compare",
             "evaluate-into-optimize"])
    def test_second_run_into_the_same_out_fails(self, config_path,
                                                history_dir, tmp_path,
                                                first, command, capsys):
        out = tmp_path / "run"
        assert self.run(first, config_path, history_dir, out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert self.run(command, config_path, history_dir, out) == 1
        printed = capsys.readouterr()
        err = printed.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"--out {out} exists and is not empty" in err[0]
        assert printed.out == ""  # no report from a refused run
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == first

    def test_empty_out_is_used(self, config_path, history_dir, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert self.run("optimize", config_path, history_dir, out) == 0
        assert (out / "summary_rbf_backorder.json").exists()


class TestCompare:
    def test_seed_sets_the_scenario_seed(self, config_path, history_dir,
                                         tmp_path, capsys):
        initial = {}
        for seed in ("1", "2"):
            code = main(["compare", "--config", config_path,
                         "--history-dir", history_dir,
                         "--out", str(tmp_path / seed), "--seed", seed,
                         "--strategy", "nelder-mead", "--max-evals", "1",
                         "--replications", "1", "--horizon", "30"])
            assert code == 0
            initial[seed] = [line for line in capsys.readouterr().out
                             .splitlines() if "initial Z" in line]
        assert initial["1"] and initial["1"] != initial["2"]

    def test_emits_table_in_expected_layout(self, config_path, history_dir,
                                            tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     "--choice", "backorder", "--max-evals", "25",
                     *TINY_OVERRIDES])
        assert code == 0
        with open(out / "comparison_backorder.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", "nelder-mead", "gp", "rbf"]
        labels = [r[0] for r in rows[1:]]
        assert labels[0] == "Optimal objective"
        assert labels[1] == "% reduction from the initial guess"
        assert sum(lbl.startswith("Optimal base stock") for lbl in labels) == 5
        assert sum(lbl.startswith("Optimal ROP") for lbl in labels) == 5
        assert "Total iterations" in labels
        assert "CPU time (minutes)" in labels
        assert (out / "comparison_backorder.txt").exists()
        summary = json.loads((out / "summary_gp_backorder.json").read_text())
        base_seed = json.loads(PRESET.read_text())["scenario"]["base_seed"]
        assert summary["settings"]["max_evaluations"] == 25
        assert summary["settings"]["seed"] == derive_strategy_seed(base_seed,
                                                                   "gp")

    def test_single_strategy_filter(self, config_path, history_dir,
                                    tmp_path):
        out = tmp_path / "one"
        code = main(["compare", "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     "--strategy", "rbf", "--choice", "backorder",
                     "--max-evals", "12", *TINY_OVERRIDES])
        assert code == 0
        with open(out / "comparison_backorder.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["", "rbf"]

    def test_bad_setting_fails_before_any_run(self, history_dir, tmp_path,
                                              capsys):
        raw = json.loads(PRESET.read_text())
        raw["optimizers"]["gp"]["n_random_starts"] = 0
        config = tmp_path / "no_starts.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(config),
                     "--history-dir", history_dir, "--out", str(out),
                     "--max-evals", "12", *TINY_OVERRIDES])
        assert code == 1
        assert "optimizers.gp.n_random_starts" in capsys.readouterr().err
        assert not out.exists()

    def test_both_choices_emit_two_tables(self, config_path, history_dir,
                                          tmp_path):
        out = tmp_path / "both"
        code = main(["compare", "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     "--choice", "both", "--strategy", "nelder-mead",
                     "--max-evals", "12", *TINY_OVERRIDES])
        assert code == 0
        assert (out / "comparison_backorder.csv").exists()
        assert (out / "comparison_lost-sales.csv").exists()

    def test_closed_stdout_keeps_the_finished_run(self, config_path,
                                                  history_dir, tmp_path,
                                                  monkeypatch, capsys):
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        out = tmp_path / "piped"
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["compare", "--config", config_path,
                     "--history-dir", history_dir, "--out", str(out),
                     "--choice", "both", "--max-evals", "4",
                     "--replications", "1", "--horizon", "20"])
        assert code == 1
        assert "error: BrokenPipeError" in capsys.readouterr().err
        # every file of the run is kept, the tables of both choices too
        runs = [f"{s}_{c.value}" for s in STRATEGIES for c in DemandChoice]
        assert {p.name for p in out.iterdir()} == {
            "manifest.json",
            *(f"comparison_{c.value}.{ext}" for c in DemandChoice
              for ext in ("csv", "txt")),
            *(f"evaluations_{run}.csv" for run in runs),
            *(f"{kind}_{run}.json" for kind in ("best_policy", "summary")
              for run in runs)}


class TestConfigValidation:
    def base(self):
        return json.loads(PRESET.read_text())

    def write(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        return path

    def test_base_stock_upper_below_rop_upper_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["bounds"]["4"]["base_stock"] = [0, 100]  # below ROP upper 300
        with pytest.raises(ConfigError, match="base_stock upper"):
            load_config(self.write(tmp_path, raw))

    def test_initial_policy_outside_box_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["initial_policy"]["4"]["base_stock"] = 10_000
        with pytest.raises(ConfigError, match="outside the bounds box"):
            load_config(self.write(tmp_path, raw))

    def test_unknown_optimizer_strategy_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["optimizers"]["tabu"] = {}
        with pytest.raises(ConfigError, match="unknown strategies"):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_optimizer_setting_rejected(self, tmp_path, strategy):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["optimizers"][strategy]["max_evals"] = 5
        with pytest.raises(ConfigError, match="max_evals"):
            load_config(self.write(tmp_path, raw))

    def test_optimizer_setting_of_wrong_type_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["optimizers"]["gp"]["kappa"] = "high"
        with pytest.raises(ConfigError, match="gp.kappa"):
            load_config(self.write(tmp_path, raw))

    def test_optimizers_keep_only_the_given_keys(self, tmp_path):
        from echelonopt.config import load_config
        raw = self.base()
        raw["optimizers"] = {"rbf": {"seed": 3}}
        cfg = load_config(self.write(tmp_path, raw))
        assert cfg.optimizers == {"rbf": {"seed": 3}}

    @pytest.mark.parametrize("value", [10.7, "12", True])
    def test_int_setting_takes_only_integers(self, tmp_path, value):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["optimizers"]["rbf"]["max_evaluations"] = value
        with pytest.raises(ConfigError, match="rbf.max_evaluations"):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("key", ["max_evaluations", "max_minutes"])
    def test_zero_budget_setting_rejected(self, tmp_path, key):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["optimizers"]["gp"][key] = 0
        with pytest.raises(ConfigError,
                           match=rf"optimizers\.gp\.{key} must be positive"):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("value", [10, 10.0])
    def test_integral_int_setting_loads(self, value):
        from echelonopt.config import merge_optimizer_settings
        merged = merge_optimizer_settings("rbf", {"max_evaluations": value})
        assert merged["max_evaluations"] == 10
        assert type(merged["max_evaluations"]) is int

    def test_unknown_scenario_key_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["scenario"]["horizn"] = 30
        with pytest.raises(ConfigError, match="horizn"):
            load_config(self.write(tmp_path, raw))

    def test_policy_facility_outside_network_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config, \
            load_policy_file
        raw = self.base()
        raw["initial_policy"]["6"] = {"reorder_point": 1, "base_stock": 2}
        with pytest.raises(ConfigError, match=r"initial_policy.*\['6'\]"):
            load_config(self.write(tmp_path, raw))
        network = load_config(PRESET).network
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(raw["initial_policy"]))
        with pytest.raises(ConfigError, match=r"policy.*\['6'\]"):
            load_policy_file(policy, network)

    # every integer field of a config or policy file: (path in the file,
    # the context its error names, how to read the loaded value)
    INTEGER_FIELDS = [
        *model_fields(int),
        pytest.param(("initial_policy", "1", "reorder_point"),
                     r"initial_policy\[1\]\.reorder_point",
                     lambda cfg: cfg.initial_policy.reorder_point["1"],
                     id="rop"),
        pytest.param(("initial_policy", "1", "base_stock"),
                     r"initial_policy\[1\]\.base_stock",
                     lambda cfg: cfg.initial_policy.base_stock["1"],
                     id="base"),
        pytest.param(("bounds", "1", "reorder_point", 1),
                     r"bounds\[1\]\.reorder_point",
                     lambda cfg: cfg.space.upper[0], id="rop_hi"),
        pytest.param(("bounds", "1", "base_stock", 0),
                     r"bounds\[1\]\.base_stock",
                     lambda cfg: cfg.space.lower[len(cfg.network.ids)],
                     id="base_lo"),
    ]

    @staticmethod
    def replace_field(raw, path, change):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])

    @pytest.mark.parametrize("path,context,read", INTEGER_FIELDS)
    @pytest.mark.parametrize("change", [lambda v: v + 0.7, str,
                                        lambda v: None, lambda v: True,
                                        lambda v: 10**400],
                             ids=["fraction", "string", "null", "bool",
                                  "beyond-float"])
    def test_integer_field_takes_only_integers(self, tmp_path, path,
                                               context, read, change):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        self.replace_field(raw, path, change)
        with pytest.raises(ConfigError, match=context):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("path,context,read", INTEGER_FIELDS)
    def test_integral_float_field_loads(self, tmp_path, path, context, read):
        from echelonopt.config import load_config
        raw = self.base()
        self.replace_field(raw, path, float)
        value = read(load_config(self.write(tmp_path, raw)))
        preset = read(load_config(PRESET))
        assert value == preset and type(value) is type(preset)

    # every float field of a config file, as INTEGER_FIELDS
    FLOAT_FIELDS = [
        *model_fields(float),
        *(pytest.param(("optimizers", strategy, key),
                       rf"optimizers\.{strategy}\.{key}",
                       lambda cfg, s=strategy, k=key:
                       merge_optimizer_settings(s, cfg.optimizers[s])[k],
                       id=f"{strategy}.{key}")
          for strategy, key in [("gp", "kappa"),
                                *((s, "max_minutes") for s in STRATEGIES)]),
    ]

    @pytest.mark.parametrize("path,context,read", FLOAT_FIELDS)
    @pytest.mark.parametrize("change", [lambda v: True, str,
                                        lambda v: None,
                                        lambda v: float("nan"),
                                        lambda v: float("inf"),
                                        lambda v: 10**400],
                             ids=["bool", "string", "null", "nan", "inf",
                                  "beyond-float"])
    def test_float_field_takes_only_finite_numbers(self, tmp_path, path,
                                                   context, read, change):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        self.replace_field(raw, path, change)
        with pytest.raises(ConfigError, match=context):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("path,context,read", FLOAT_FIELDS)
    def test_int_float_field_loads_as_float(self, tmp_path, path, context,
                                            read):
        from echelonopt.config import load_config
        raw = self.base()
        self.replace_field(raw, path, lambda v: 1)
        value = read(load_config(self.write(tmp_path, raw)))
        assert value == 1.0
        assert type(value) is float

    @pytest.mark.parametrize("path,context,read", model_fields(bool))
    @pytest.mark.parametrize("change", [lambda v: "false", lambda v: 0,
                                        lambda v: None],
                             ids=["string", "integer", "null"])
    def test_bool_field_takes_only_true_or_false(self, tmp_path, path,
                                                 context, read, change):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        self.replace_field(raw, path, change)
        with pytest.raises(ConfigError, match=rf"{context}: expected true "
                           "or false"):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("path,field", [
        pytest.param((*path, field.name), field, id=f"{context}.{field.name}")
        for cls, path, context, get in SECTIONS for field in fields(cls)])
    def test_absent_field_is_required_or_its_default(self, tmp_path, path,
                                                     field):
        # The preset with the field absent loads as it does with the
        # field's default given, or fails the same way.
        from echelonopt.config import ConfigError, load_config

        def outcome(change):
            raw = self.base()
            node = raw
            for key in path[:-1]:
                node = node[key]
            change(node)
            try:
                return repr(load_config(self.write(tmp_path, raw)))
            except ConfigError as exc:
                return str(exc)

        absent = outcome(lambda node: node.pop(field.name))
        if field.default is MISSING:
            assert absent.endswith(f": missing required key {field.name!r}")
        else:
            default = getattr(field.default, "value", field.default)
            assert absent == outcome(
                lambda node: node.update({field.name: default}))

    @pytest.mark.parametrize("path,key", [
        pytest.param((), "optimiser", id="top"),
        pytest.param(("network",), "facility", id="network"),
        pytest.param(("network", "facilities", 0), "target_bta",
                     id="facility"),
        pytest.param(("generator",), "lenght", id="generator"),
        pytest.param(("generator", "demand"), "3", id="generator.demand"),
        pytest.param(("bounds",), "6", id="bounds"),
    ])
    def test_unknown_key_rejected(self, tmp_path, path, key):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        node = raw
        for step in path:
            node = node[step]
        node[key] = 1
        with pytest.raises(ConfigError, match=rf"unknown \w+ \['{key}'\]"):
            load_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("path,entry,key", [
        pytest.param(("initial_policy", "1"), "initial_policy[1]",
                     "reorder_pont", id="initial_policy"),
        pytest.param(("bounds", "1"), "bounds[1]", "base_stok", id="bounds"),
        pytest.param(("generator", "demand", "1"), "generator.demand[1]",
                     "sprad", id="generator.demand"),
        pytest.param(("generator", "lead_delta", "3"),
                     "generator.lead_delta[3]", "meen",
                     id="generator.lead_delta"),
    ])
    def test_unknown_entry_key_rejected(self, tmp_path, path, entry, key):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        node = raw
        for step in path:
            node = node[step]
        node[key] = 7
        with pytest.raises(ConfigError, match=rf"^{re.escape(entry)}: "
                           rf"unknown keys \['{key}'\]"):
            load_config(self.write(tmp_path, raw))

    def test_unknown_policy_file_key_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config, \
            load_policy_file
        raw = self.base()["initial_policy"]
        raw["2"]["base_stok"] = 7
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=r"^policy\[2\]: unknown keys "
                           r"\['base_stok'\]"):
            load_policy_file(policy, load_config(PRESET).network)

    @pytest.mark.parametrize("path", [
        ("initial_policy", "1"), ("bounds",), ("generator", "lead_delta"),
        ("optimizers", "gp")], ids=lambda path: ".".join(path))
    def test_entry_that_is_not_an_object_rejected(self, tmp_path, path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        node = raw
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = 5
        with pytest.raises(ConfigError, match="expected an object, got 5"):
            load_config(self.write(tmp_path, raw))

    def test_null_bound_exits_one(self, tmp_path):
        raw = self.base()
        raw["bounds"]["1"]["reorder_point"] = [0, None]
        assert main(["evaluate", "--config", str(self.write(tmp_path, raw)),
                     "--history-dir", str(tmp_path)]) == 1

    # (command, config edit, history file to rewrite, error fragment); an
    # edit given as text replaces the whole config file
    BAD_INPUTS = [
        pytest.param("generate-data", lambda raw: raw.pop("generator"), None,
                     "config has no generator section", id="no-generator"),
        pytest.param("generate-data", lambda raw: raw["network"][
            "facilities"].__setitem__(0, 5), None,
            "network.facilities[0]: expected an object, got 5",
            id="facility-not-an-object"),
        pytest.param("generate-data", lambda raw: raw["network"].update(
            facilities=5), None,
            "network.facilities: expected a list, got 5",
            id="facilities-not-a-list"),
        pytest.param("generate-data", lambda raw: raw["network"].update(
            facilities={"1": {"id": "1"}}), None,
            "network.facilities: expected a list, got {",
            id="facilities-object"),
        pytest.param("generate-data", lambda raw: raw.update(
            network={"facilities": []}, bounds={}, initial_policy={}), None,
            "error: invalid network: the network has no facilities",
            id="empty-network"),
        pytest.param("generate-data", lambda raw: raw["network"][
            "facilities"][0].update(base_lead_time=-1), None,
            "error: invalid network: facility 1: base_lead_time -1 is "
            "negative", id="negative-lead-time"),
        *(pytest.param("generate-data", lambda raw, spread=spread: raw[
            "generator"]["demand"]["1"].update(mean=1e19, spread=spread),
            None, "error: InvalidParamsError: generator.demand[1]: a draw "
            "of 1e+19 is beyond the int64 range (2**63)",
            id=f"generator-beyond-int64-spread-{spread}")
          for spread in (0, 1)),
        pytest.param("optimize", lambda raw: raw["network"]["facilities"][0]
                     .pop("upstream"), None,
                     "facility 1: missing required key 'upstream'",
                     id="no-upstream"),
        pytest.param("optimize", lambda raw: raw["scenario"].update(
            demand_choice="lost"), None,
            "must be 'backorder' or 'lost-sales'", id="demand-choice"),
        pytest.param("optimize", lambda raw: raw["scenario"].update(
            penalty_rho=-1), None,
            "scenario: penalty_rho must be >= 0", id="penalty-rho"),
        pytest.param("optimize", lambda raw: raw["scenario"].update(
            base_seed=-1), None,
            "scenario: base_seed must be >= 0", id="negative-seed"),
        pytest.param("optimize", lambda raw: raw["optimizers"]["rbf"].update(
            seed=-1), None, "optimizers.rbf.seed must be >= 0, got -1",
            id="negative-optimizer-seed"),
        pytest.param("optimize", lambda raw: raw["initial_policy"].update(
            {"1": {"reorder_point": 10, "base_stock": 5}}), None,
            "need base_stock >= reorder_point", id="base-below-rop"),
        pytest.param("optimize", lambda raw: raw["bounds"]["1"].update(
            reorder_point=[5, 1]), None, "need [lo, hi]", id="reversed-bound"),
        pytest.param("optimize", lambda raw: raw["generator"]["demand"]["1"]
                     .update(spread=-1), None,
                     "generator.demand[1]: spread must be >= 0, got -1.0",
                     id="negative-spread"),
        pytest.param("optimize", lambda raw: raw["generator"].update(
            length=0), None, "generator: length must be >= 1, got 0",
            id="zero-length"),
        pytest.param("optimize", "{not json", None,
                     "is not valid JSON", id="not-json"),
        pytest.param("optimize", None, ("demand_1.csv", "lead_delta\n3\n"),
                     "expected single-column CSV", id="history-header"),
        pytest.param("optimize", None, ("demand_1.csv", "demand\n5,99\n7\n"),
                     "expected single-column CSV", id="history-extra-cell"),
        pytest.param("optimize", None, ("demand_1.csv", "demand\n1.5\n"),
                     "non-integer value in series", id="history-fraction"),
        pytest.param("optimize", None, ("demand_1.csv", "demand\nnan\n"),
                     "demand_1.csv: non-integer value in series",
                     id="history-nan"),
        pytest.param("optimize", None, ("demand_1.csv", "demand\n-3\n"),
                     "history samples must be nonnegative",
                     id="history-negative"),
        pytest.param("optimize", None, ("demand_1.csv", "demand\n"),
                     "facility 1: history must be a nonempty 1-D list",
                     id="history-header-only"),
        pytest.param("optimize", None,
                     ("demand_1.csv", "demand\n99999999999999999999\n"),
                     "demand_1.csv: value outside the int64 range",
                     id="history-beyond-int64"),
    ]

    @pytest.mark.parametrize("command,edit,history,fragment", BAD_INPUTS)
    def test_bad_input_exits_one_and_writes_nothing(self, history_dir,
                                                    tmp_path, capsys,
                                                    command, edit, history,
                                                    fragment):
        raw = self.base()
        if callable(edit):
            edit(raw)
        config = tmp_path / "bad.json"
        config.write_text(edit if isinstance(edit, str) else json.dumps(raw))
        hist = shutil.copytree(history_dir, tmp_path / "history")
        if history:
            (hist / history[0]).write_text(history[1])
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command == "optimize":
            argv += ["--history-dir", str(hist), "--strategy", "rbf",
                     "--max-evals", "2", *TINY_OVERRIDES]
        assert main(argv) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1, errors
        assert errors[0].startswith("error:") and fragment in errors[0]
        if fragment.startswith("error:"):  # the whole line is given
            assert errors[0] == fragment
        assert not out.exists()

    def test_whole_float_history_values_read_as_ints(self, history_dir,
                                                     tmp_path):
        # the whole-number rule of HistoryDataset, for text: 3.0 is 3
        from echelonopt.config import load_config, read_history
        network = load_config(self.write(tmp_path, self.base())).network
        hist = shutil.copytree(history_dir, tmp_path / "history")
        (hist / "demand_1.csv").write_text(
            "demand\n3.0\n7\n1e1\n9007199254740993\n")
        demand = read_history(hist, network).demand["1"]
        assert demand.tolist() == [3, 7, 10, 2**53 + 1]
        assert demand.dtype == np.int64

    def test_invalid_network_rejected(self, tmp_path):
        from echelonopt.config import ConfigError, load_config
        raw = self.base()
        raw["network"]["facilities"][0]["upstream"] = "2"  # 1 <-> 2 cycle
        with pytest.raises(ConfigError, match="invalid network"):
            load_config(self.write(tmp_path, raw))

