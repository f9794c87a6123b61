"""CLI tests: dispatch, exit codes, report formatting, determinism."""

import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest

from jsda import cases, cli
from jsda.cli import build_parser, dispatch, write_report
from jsda.scenarios import discretize, make_scenario, sample

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    assert dispatch(["scenario", "make", "--kind", "label-shift",
                     "--params", json.dumps({
                         "source_label_marginal": [0.5, 0.5],
                         "target_label_marginal": [0.8, 0.2]}),
                     "--out", str(path)]) == 0
    return path


class TestDispatch:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["definitely-not-a-command"])
        assert exc.value.code == 2

    def test_missing_file_is_runtime_error(self, capsys):
        assert dispatch(["label-shift", "--scenario", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scenario_actions_require_their_files(self, capsys):
        for argv in (["scenario", "sample"], ["scenario", "discretize"],
                     ["scenario", "make", "--kind", "conditional-shift"]):
            with pytest.raises(SystemExit) as exc:
                dispatch(argv)
            assert exc.value.code == 2
            assert "the following arguments are required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["verify-bounds", "--suite", "pinsker", "--trials", "2"], ["scenario", "make"],
        ["scenario", "sample", "--scenario"], ["label-shift", "--scenario"],
        ["train", "--scenario"], ["ablate", "--scenario"]],
        ids=["verify-bounds", "scenario", "scenario-sample", "label-shift", "train", "ablate"])
    def test_negative_seed_is_usage_error(self, scenario_file, tmp_path, command, capsys):
        if command[-1] == "--scenario":
            command = [*command, str(scenario_file)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            dispatch([*command, "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("--seed must be >= 0, not -1\n")
        assert not out.exists()

    def test_counterexamples_pass(self, capsys):
        assert dispatch(["counterexamples"]) == 0
        out = capsys.readouterr().out
        assert "disjoint_interleaving: PASS" in out
        assert "same_support_reweighting: PASS" in out

    def test_counterexamples_exit_one_when_a_case_fails(self, capsys, monkeypatch):
        missed = cases.CaseReport("same_support_reweighting", computed={"q": 0.5},
                                  expected={"q": (0.4, 0.05)})
        monkeypatch.setattr(cases, "counterexample2", lambda: missed)
        assert dispatch(["counterexamples"]) == 1
        assert "same_support_reweighting: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--tol", "0"], ["--seed", "1"]])
    def test_counterexamples_has_no_tol_or_seed(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["counterexamples", *flag])
        assert exc.value.code == 2

    @staticmethod
    def readme_commands() -> list[list[str]]:
        block = (ROOT / "README.md").read_text().split("## CLI")[1].split("```")[1]
        lines = block.replace("\\\n", " ").splitlines()[1:]  # drop the fence's "bash"
        commands = [shlex.split(line, comments=True) for line in lines]
        assert len(commands) >= 8 and all(argv[0] == "jsda" for argv in commands)
        return [argv[1:] for argv in commands]

    def test_readme_cli_lines_parse(self):
        for argv in self.readme_commands():
            build_parser().parse_args(argv)

    def test_one_parser_serves_every_call(self):
        # a value given to one call must not leak into the next, in either order
        assert build_parser() is build_parser()
        argvs = [*self.readme_commands(), ["verify-bounds", "--suite", "pinsker"],
                 ["verify-bounds"]]
        for argv in [*argvs, *reversed(argvs)]:
            fresh = build_parser.__wrapped__().parse_args(argv)
            assert vars(build_parser().parse_args(argv)) == vars(fresh), argv

    def test_counterexamples_base_prints_divergences(self, capsys):
        assert dispatch(["counterexamples", "--base", "e"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("{")]
        parsed = [json.loads(l) for l in lines]
        assert {p["kind"] for p in parsed} == {"KL", "JS"}
        assert all(p["base"] == "e" for p in parsed)


class TestVerifyBounds:
    def test_clean_suite_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = dispatch(["verify-bounds", "--suite", "js-triangle",
                         "--trials", "50", "--seed", "3", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "name,lhs,bound_lo,bound_hi,holds"

    def test_defective_bound_suite_exits_nonzero(self, tmp_path):
        # the printed zero-one band constants genuinely fail at this trial count
        out = tmp_path / "r.csv"
        code = dispatch(["verify-bounds", "--suite", "zero-one-band",
                         "--trials", "400", "--seed", "7", "--out", str(out)])
        assert code == 1
        body = out.read_text()
        assert ",false" in body

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            dispatch(["verify-bounds", "--suite", "sandwich", "--trials", "30",
                      "--seed", "11", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_all_suites_report_digest_pinned(self, tmp_path):
        out = tmp_path / "all.csv"
        assert dispatch(["verify-bounds", "--suite", "all", "--trials", "1000",
                         "--seed", "7", "--out", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e4249f1b519f1f10c3afc8a66ee02efc97bda6e286616c2a4505c17c1e5c00c7")


# (action, flag and value) pairs that the action's handler does not read
UNREAD_SCENARIO_FLAGS = [
    ("make", ["--format", "csv"]), ("make", ["--scenario", "sc.json"]),
    ("make", ["--domain", "target"]), ("make", ["--n", "5"]), ("make", ["--grid", "8"]),
    ("sample", ["--kind", "open-set"]), ("sample", ["--params", "{}"]),
    ("sample", ["--grid", "8"]),
    ("discretize", ["--seed", "1"]), ("discretize", ["--format", "csv"]),
    ("discretize", ["--kind", "open-set"]), ("discretize", ["--params", "{}"]),
    ("discretize", ["--n", "5"])]


class TestScenarioCommands:
    @pytest.mark.parametrize("action, flag", UNREAD_SCENARIO_FLAGS,
                             ids=[f"{a}{f[0]}" for a, f in UNREAD_SCENARIO_FLAGS])
    def test_flag_the_action_does_not_read_is_usage_error(self, scenario_file, tmp_path,
                                                          action, flag, capsys):
        source = [] if action == "make" else ["--scenario", str(scenario_file)]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            dispatch(["scenario", action, *source, *flag, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_actions_write_the_library_bytes(self, tmp_path, capsys):
        params = {"source_label_marginal": [0.5, 0.5], "target_label_marginal": [0.8, 0.2]}
        path, ref = tmp_path / "sc.json", tmp_path / "ref.json"
        assert dispatch(["scenario", "make", "--params", json.dumps(params), "--seed", "4",
                         "--out", str(path)]) == 0
        sc = make_scenario("label-shift", seed=4, **params)
        sc.save(ref)
        assert path.read_bytes() == ref.read_bytes()

        rows = tmp_path / "rows.csv"
        assert dispatch(["scenario", "sample", "--scenario", str(path), "--domain", "target",
                         "--n", "7", "--seed", "3", "--out", str(rows)]) == 0
        batch = sample(sc, "target", 7, stream=(3,))
        assert rows.read_text() == "x0,x1,y\n" + "".join(
            f"{x[0]:.6g},{x[1]:.6g},{y}\n" for x, y in zip(batch.xs, batch.ys))

        joint = tmp_path / "joint.json"
        assert dispatch(["scenario", "discretize", "--scenario", str(path), "--domain",
                         "target", "--grid", "8", "--out", str(joint)]) == 0
        capsys.readouterr()
        assert dispatch(["scenario", "discretize", "--scenario", str(path), "--domain",
                         "target", "--grid", "8"]) == 0
        expected = discretize(sc, "target", grid=8).to_json() + "\n"
        assert joint.read_text() == capsys.readouterr().out == expected

    def test_make_sample_discretize(self, scenario_file, tmp_path, capsys):
        assert dispatch(["scenario", "sample", "--scenario", str(scenario_file),
                         "--domain", "target", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "x0,x1,y"
        assert len(out.strip().splitlines()) == 6

        joint_path = tmp_path / "joint.json"
        assert dispatch(["scenario", "discretize", "--scenario", str(scenario_file),
                         "--domain", "source", "--grid", "8",
                         "--out", str(joint_path)]) == 0
        from jsda import JointPmf
        joint = JointPmf.from_json(joint_path.read_text())
        assert joint.shape == (64, 2)

    def test_label_shift_command(self, scenario_file, capsys):
        assert dispatch(["label-shift", "--scenario", str(scenario_file),
                         "--n", "4000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "true_alpha" in out and "sup error" in out


    def test_non_finite_scenario_is_runtime_error(self, scenario_file, tmp_path, capsys):
        d = json.loads(scenario_file.read_text())
        d["source_means"][0][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(d))
        assert dispatch(["scenario", "sample", "--scenario", str(bad), "--n", "5"]) == 1
        assert dispatch(["label-shift", "--scenario", str(bad), "--n", "400"]) == 1
        assert "source_means must be finite" in capsys.readouterr().err

    def test_non_integral_scenario_count_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        assert dispatch(["scenario", "make", "--kind", "open-set", "--params",
                         json.dumps({"n": 2.0, "alpha": 0.5}), "--out", str(path)]) == 1
        assert capsys.readouterr().err == "error: n must be an integer, not 2.0\n"
        assert not path.exists()

    @pytest.mark.parametrize("params, message", [
        ("[1]", "--params must hold a JSON object"),
        ('{"foo": 1}', "unknown --params keys ['foo']"),
        ('{"kind": "open-set"}', "unknown --params keys ['kind']")])
    def test_bad_params_is_one_line_error(self, tmp_path, params, message, capsys):
        path = tmp_path / "sc.json"
        assert dispatch(["scenario", "make", "--params", params, "--out", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    @pytest.mark.parametrize("kind, params, message", [
        ("label-shift", {"n_classes": 0}, "n_classes must be >= 2, not 0"),
        ("label-shift", {"n_classes": -1}, "n_classes must be >= 2, not -1"),
        ("label-shift", {"cov_scale": "a"}, "cov_scale must be a finite real number, not 'a'"),
        ("label-shift", {"cov_scale": 0}, "class covariances must be symmetric positive definite"),
        ("label-shift", {"cov_scale": -1}, "class covariances must be symmetric positive definite"),
        ("conditional-shift", {"rotation_deg": "x"},
         "rotation_deg must be a finite real number, not 'x'"),
        ("open-set", {"n": 4, "alpha": "a"}, "alpha must be a finite real number, not 'a'"),
        ("cofeature", {"feature_shift": [1]}, "feature_shift must hold 2 numbers, not [1]"),
        ("label-shift", {"seed": -1}, "seed must be >= 0, not -1"),
    ], ids=["n_classes-0", "n_classes-negative", "cov_scale-string", "cov_scale-0",
            "cov_scale-negative", "rotation_deg-string", "alpha-string", "feature_shift-short",
            "seed-negative"])
    def test_bad_generator_value_is_one_line_error(self, tmp_path, kind, params, message,
                                                   capsys):
        path = tmp_path / "sc.json"
        assert dispatch(["scenario", "make", "--kind", kind, "--params", json.dumps(params),
                         "--out", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_parameter_the_kind_does_not_read_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "sc.json"
        params = {"n": 4, "alpha": 0.5, "source_label_marginal": [0.9, 0.1], "rotation_deg": 80}
        assert dispatch(["scenario", "make", "--kind", "open-set", "--params",
                         json.dumps(params), "--out", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: open-set scenarios do not use source_label_marginal, rotation_deg\n")
        assert not path.exists()

    @pytest.mark.parametrize("edit", [
        lambda d: list(d), lambda d: {**d, "bogus": 3}, lambda d: {**d, "kind": "cofeatur"},
        lambda d: {k: v for k, v in d.items() if k != "kind"}],
        ids=["list", "unknown-key", "unknown-kind", "missing-key"])
    def test_bad_scenario_file_is_one_line_error(self, scenario_file, tmp_path, edit,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(scenario_file.read_text()))))
        assert dispatch(["label-shift", "--scenario", str(bad), "--n", "400"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha, message", [
        ("x", "must be a finite real number, not 'x'"),
        (math.inf, "must be a finite real number, not inf"),
        (math.nan, "must be a finite real number, not nan"),
        (True, "must be a finite real number, not True"),
        (0.0, "must lie in (0, 1], not 0.0"), (1.5, "must lie in (0, 1], not 1.5")],
        ids=["string", "inf", "nan", "true", "zero", "above-one"])
    def test_bad_overlap_alpha_is_one_line_error(self, tmp_path, alpha, message, capsys):
        d = make_scenario("open-set", n=4, alpha=0.5).to_json_dict()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**d, "overlap_alpha": alpha}))
        assert dispatch(["label-shift", "--scenario", str(bad), "--n", "400"]) == 1
        assert capsys.readouterr() == ("", f"error: overlap_alpha {message}\n")


class TestTrainCommands:
    def test_train_and_ablate(self, scenario_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "n_source": 150,
                                   "n_target": 150, "seed": 4}))
        trace = tmp_path / "trace.csv"
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg), "--out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("epoch,weighted_source_loss,conditional_loss")

        table = tmp_path / "abl.csv"
        assert dispatch(["ablate", "--scenario", str(scenario_file),
                         "--config", str(cfg), "--seeds", "2",
                         "--out", str(table)]) == 0
        rows = table.read_text().splitlines()
        assert rows[0] == "principles,mean_accuracy,std_accuracy,n_seeds"
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["III", "I+III", "I+II", "II+III", "I+II+III"]

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_ablate_without_seeds_is_one_line_error(self, scenario_file, seeds, capsys):
        assert dispatch(["ablate", "--scenario", str(scenario_file), "--seeds", seeds]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ablate needs at least one seed\n"

    def test_train_tracks_feature_shift(self, scenario_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, "n_source": 64, "n_target": 64,
                                   "feature_width": 2, "track_feature_shift": True}))
        trace = tmp_path / "trace.csv"
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg), "--out", str(trace)]) == 0
        header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
        assert header[-2:] == ["feature_js", "conditional_floor"] and len(rows) == 2
        for row in rows:
            assert all(math.isfinite(float(v)) for v in row[-2:])

    @pytest.mark.parametrize("fields", [{"n_source": 0}, {"learning_rate": float("nan")},
                                        {"hidden_width": 0}])
    def test_config_that_cannot_train_is_runtime_error(self, scenario_file, tmp_path,
                                                       fields, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **fields}))
        out = tmp_path / "trace.csv"
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"epochs": "3"}', '{"batch_size": 1.5}', "[]"])
    def test_config_of_wrong_type_is_one_line_error(self, scenario_file, tmp_path,
                                                    text, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("fields, message", [
        ({"seed": -1}, "seed must be >= 0, not -1"),
        ({"learning_rate": math.inf}, "learning_rate must be a finite real number, not inf"),
        ({"cond_multiplier": math.inf},
         "cond_multiplier must be a finite real number, not inf")],
        ids=["seed-negative", "learning_rate-inf", "cond_multiplier-inf"])
    def test_config_value_out_of_range_is_one_line_error(self, scenario_file, tmp_path,
                                                         fields, message, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "run_training", lambda *a: pytest.fail("training started"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **fields}))
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # the last four are module constants of jsda.training, not config fields
    @pytest.mark.parametrize("field, value", [
        ("optimizer", "adam"), ("k", -10.0), ("kappa", 0.05),
        ("centroid_momentum", 0.5), ("holdout_fraction", 0.2)])
    def test_unknown_config_field_is_runtime_error(self, scenario_file, tmp_path,
                                                   field, value, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 2, field: value}))
        assert dispatch(["train", "--scenario", str(scenario_file),
                         "--config", str(cfg)]) == 1
        assert f"unknown config keys ['{field}']" in capsys.readouterr().err


class TestWriteReport:
    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([{"x": 0.123456789, "y": 1e-12}], "csv", str(path))
        assert path.read_text().splitlines()[1] == "0.123457,1e-12"

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        rows = [{"name": "t", "value": 0.25, "holds": True}]
        write_report(rows, "json", str(path))
        back = json.loads(path.read_text())
        assert back == [{"name": "t", "value": 0.25, "holds": True}]

    def test_infinities_are_stable_tokens(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([{"lo": float("-inf"), "hi": float("inf")}], "csv", str(path))
        assert path.read_text().splitlines()[1] == "-inf,inf"
