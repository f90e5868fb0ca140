"""Command-line interface, exercised in process through main(argv)."""

import json

import numpy as np
import pytest

from randumb import cli, write_feature_file
from randumb.cli import main


@pytest.fixture
def feature_dir(tmp_path):
    """A small on-disk features dataset the CLI can load."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((4, 10)) * 3.0
    def draw(per_class):
        X = np.concatenate(
            [centers[i] + rng.standard_normal((per_class, 10)) for i in range(4)]
        )
        y = np.repeat(np.arange(4), per_class)
        perm = rng.permutation(len(y))
        return X[perm].astype(np.float32), y[perm]
    d = tmp_path / "features"
    d.mkdir()
    write_feature_file(d / "train.rdfb", *draw(25))
    write_feature_file(d / "test.rdfb", *draw(10))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--variant", "randumb", "--embed-dim", "64", "--gamma", "0.1", "--seed", "0"]


class TestRun:
    def test_json_line_on_stdout(self, capsys, feature_dir):
        code, out, err = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            *BASE,
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert len(lines) == 1
        result = json.loads(lines[0])
        assert result["config"]["variant"] == "randumb"
        assert result["config"]["state_dim"] == 64
        assert result["average_accuracy"] > 0.8
        assert result["observe_count"] == 100

    def test_out_file_appends(self, capsys, feature_dir, tmp_path):
        out_path = tmp_path / "runs.jsonl"
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "run", "--dataset", "features", "--data-dir",
                str(feature_dir), "--out", str(out_path), *BASE,
            )
            assert code == 0
            assert str(out_path) in out  # summary line names the file
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        first.pop("wall_time_seconds")
        second.pop("wall_time_seconds")
        assert first == second

    def test_lambda_flag_sets_ridge(self, capsys, feature_dir):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            "--lambda", "0.01", *BASE,
        )
        assert code == 0
        assert json.loads(out)["config"]["ridge"] == 0.01

    def test_eval_every_flag(self, capsys, feature_dir):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            "--eval-every-k", "50", *BASE,
        )
        assert code == 0
        result = json.loads(out)
        assert [e["step"] for e in result["intermediate"]] == [50, 100]

    def test_env_var_data_dir(self, capsys, feature_dir, monkeypatch):
        monkeypatch.setenv("RANDUMB_DATA_DIR", str(feature_dir))
        code, out, _ = run_cli(capsys, "run", "--dataset", "features", *BASE)
        assert code == 0
        assert json.loads(out)["average_accuracy"] > 0.8

    def test_flag_overrides_env_var(self, capsys, feature_dir, monkeypatch, tmp_path):
        monkeypatch.setenv("RANDUMB_DATA_DIR", str(tmp_path / "nowhere"))
        code, out, _ = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            *BASE,
        )
        assert code == 0


class TestConfigFile:
    def test_file_supplies_settings(self, capsys, feature_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": "features",
            "data-dir": str(feature_dir),
            "embed-dim": 32,
            "gamma": 0.1,
            "lambda": 0.001,
        }))
        code, out, _ = run_cli(capsys, "run", "--config", str(config), "--seed", "0")
        assert code == 0
        result = json.loads(out)
        assert result["config"]["state_dim"] == 32
        assert result["config"]["ridge"] == 0.001

    def test_flags_override_file(self, capsys, feature_dir, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": "features",
            "data-dir": str(feature_dir),
            "embed-dim": 32,
            "gamma": 0.1,
        }))
        code, out, _ = run_cli(
            capsys, "run", "--config", str(config), "--embed-dim", "64",
        )
        assert code == 0
        assert json.loads(out)["config"]["state_dim"] == 64

    def test_unknown_key_rejected(self, capsys, feature_dir, tmp_path):
        config = tmp_path / "run.json"
        # class_order is a run_on_dataset keyword, but no flag sets it.
        for key in ("learning_rate", "class_order"):
            config.write_text(json.dumps({"dataset": "features", key: 0.1}))
            code, _, err = run_cli(capsys, "run", "--config", str(config))
            assert code == 2
            assert f"unknown setting {key!r}" in err

    def test_only_set_settings_reach_run_on_dataset(
        self, capsys, feature_dir, tmp_path, monkeypatch
    ):
        """Unset run settings take run_on_dataset's own defaults."""
        seen = []
        real = cli.run_on_dataset

        def recording(data, **settings):
            seen.append(settings)
            return real(data, **settings)

        monkeypatch.setattr(cli, "run_on_dataset", recording)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": "features",
            "data-dir": str(feature_dir),
            "embed-dim": 32,
            "lambda": 0.001,
        }))
        code, _, err = run_cli(
            capsys, "run", "--config", str(config), "--gamma", "0.1", "--seed", "2"
        )
        assert code == 0, err
        assert seen == [{"embed_dim": 32, "ridge": 0.001, "gamma": 0.1, "seed": 2}]

    @pytest.mark.parametrize(
        "command,key",
        [
            ("run", "dims"), ("run", "csv"), ("run", "variants"),
            ("sweep", "embed_dim"), ("sweep", "variants"),
            ("ablate", "variant"), ("ablate", "dims"),
        ],
    )
    def test_setting_the_command_does_not_read_rejected(
        self, capsys, feature_dir, tmp_path, command, key
    ):
        """A config file may hold only settings the command has a flag
        for; the rest would be silently ignored."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset": "features", key: "64"}))
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert f"unknown setting {key!r}" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/does/not/exist.json")
        assert code == 2
        assert "config file not found" in err

    def test_invalid_json(self, capsys, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{oops")
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 2
        assert "not valid JSON" in err


class TestExitCodes:
    def test_missing_dataset_flag(self, capsys):
        code, _, err = run_cli(capsys, "run", *BASE)
        assert code == 2
        assert "--dataset is required" in err

    def test_odd_embed_dim(self, capsys, feature_dir):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            "--variant", "randumb", "--embed-dim", "63",
        )
        assert code == 2
        assert "even" in err

    def test_bad_variant_choice_is_argparse_error(self, feature_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "features", "--variant", "svm"])
        assert excinfo.value.code == 2

    def test_missing_data_files(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "mnist", "--data-dir", str(tmp_path), *BASE,
        )
        assert code == 3
        assert "train-images-idx3-ubyte" in err

    def test_memory_cap_exceeded(self, capsys, feature_dir):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            "--memory-cap-bytes", "1000", *BASE,
        )
        assert code == 2
        assert "cap" in err


class TestSweep:
    def test_two_sizes_with_csv(self, capsys, feature_dir, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--dataset", "features", "--data-dir", str(feature_dir),
            "--dims", "32,64", "--gamma", "0.1", "--csv", str(csv_path),
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["config"]["state_dim"] == 32
        assert json.loads(lines[1])["config"]["state_dim"] == 64
        csv_lines = csv_path.read_text().strip().split("\n")
        assert csv_lines[0].startswith("variant,state_dim")
        assert len(csv_lines) == 3

    def test_embed_dim_flag_rejected(self, capsys, feature_dir):
        """sweep sets the embedding size from --dims; --embed-dim was
        accepted and ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--dataset", "features", "--data-dir", str(feature_dir),
                  "--dims", "32,64", "--gamma", "0.1", "--embed-dim", "999"])
        assert excinfo.value.code == 2
        assert "--embed-dim" in capsys.readouterr().err

    def test_dims_required(self, capsys, feature_dir):
        code, _, err = run_cli(
            capsys, "sweep", "--dataset", "features", "--data-dir", str(feature_dir),
        )
        assert code == 2
        assert "--dims is required" in err

    def test_bad_dims_string(self, capsys, feature_dir):
        code, _, err = run_cli(
            capsys, "sweep", "--dataset", "features", "--data-dir", str(feature_dir),
            "--dims", "32,big",
        )
        assert code == 2
        assert "comma-separated integers" in err


class TestAblate:
    def test_subset_of_variants(self, capsys, feature_dir):
        code, out, _ = run_cli(
            capsys, "ablate", "--dataset", "features", "--data-dir", str(feature_dir),
            "--variants", "randumb,ncm", "--embed-dim", "64", "--gamma", "0.1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert [json.loads(l)["config"]["variant"] for l in lines] == ["randumb", "ncm"]

    def test_default_runs_all_five(self, capsys, feature_dir):
        code, out, _ = run_cli(
            capsys, "ablate", "--dataset", "features", "--data-dir", str(feature_dir),
            "--embed-dim", "64", "--gamma", "0.1",
        )
        assert code == 0
        variants = [json.loads(l)["config"]["variant"] for l in out.strip().split("\n")]
        assert variants == ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"]

    def test_variant_flag_rejected(self, capsys, feature_dir):
        """ablate sets the variant from --variants; --variant was accepted
        and ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "--dataset", "features", "--data-dir", str(feature_dir),
                  "--variants", "ncm", "--variant", "slda"])
        assert excinfo.value.code == 2
        assert "--variant slda" in capsys.readouterr().err

    def test_unknown_variant_in_list(self, capsys, feature_dir):
        code, _, err = run_cli(
            capsys, "ablate", "--dataset", "features", "--data-dir", str(feature_dir),
            "--variants", "randumb,svm",
        )
        assert code == 2
        assert "unknown variant 'svm'" in err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert len(reports) == 5
        for report in reports:
            assert report["passed"] is True, report
            assert report["max_error"] <= report["tolerance"]
        names = {r["check"] for r in reports}
        assert len(names) == 5

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "checks.jsonl"
        code, _, _ = run_cli(capsys, "verify", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 5
        assert all(json.loads(line)["passed"] for line in lines)
