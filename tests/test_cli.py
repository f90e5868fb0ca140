"""Command-line interface, exercised in process through main(argv)."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from randumb import RunResult, cli, write_feature_file
from randumb.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


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


@pytest.fixture
def cifar10_dir(tmp_path):
    """A tiny on-disk CIFAR-10 (20 random images per file), whose runs
    flip by default."""
    rng = np.random.default_rng(0)
    records = rng.integers(0, 256, size=(20, 1 + 3072), dtype=np.uint8)
    records[:, 0] = np.arange(20) % 10
    (tmp_path / "cifar10").mkdir()
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        (tmp_path / "cifar10" / name).write_bytes(records.tobytes())
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
        assert isinstance(result["peak_rss_bytes"], int) and result["peak_rss_bytes"] > 0

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
        # wall time and the process's RSS high-water mark are measured,
        # not derived from the run
        for key in ("wall_time_seconds", "peak_rss_bytes"):
            first.pop(key)
            second.pop(key)
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
        # class_order was a run_on_dataset keyword that no flag set; it is gone.
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

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("embed_dim", "64", "an integer"),
            ("gamma", "0.5", "a number"),
            ("eval_every_k", "10", "an integer"),
            ("memory_cap_bytes", "1e9", "an integer"),
            ("seed", 1.5, "an integer"),
            ("augment", "yes", "true or false"),
            ("classes_per_task", True, "an integer"),
            ("out", 1, "a string"),
            ("data-dir", 5, "a string"),
            ("dims", ["a"], "comma-separated integers or a list of integers"),
            ("dims", [64.7, 96], "comma-separated integers or a list of integers"),
            ("variants", ["randumb", "ncm"], "a string"),
        ],
    )
    def test_value_of_the_wrong_type_rejected(
        self, capsys, tmp_path, key, value, expected
    ):
        """A file value must be what the flag itself would parse; a string
        for a number used to fail deep in the run with a TypeError, and a
        number for a path with an OSError or a TypeError."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"dataset": "features", key: value}))
        command = {"dims": "sweep", "variants": "ablate"}.get(key, "run")
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == 2
        assert f"setting {key!r} must be {expected}, got {json.dumps(value)}" in err

    @pytest.mark.parametrize(
        "first,second,setting",
        [
            (("lambda", 0.5), ("ridge", 1e-4), "ridge"),
            (("eval_every", 8), ("eval-every-k", 16), "eval_every"),
            (("embed-dim", 32), ("embed_dim", 64), "embed_dim"),
        ],
    )
    def test_one_setting_under_two_spellings_rejected(
        self, capsys, feature_dir, tmp_path, first, second, setting
    ):
        """Which spelling won used to depend on the keys' order in the file."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dataset": "features", "data-dir": str(feature_dir), **dict([first, second]),
        }))
        code, _, err = run_cli(capsys, "run", "--config", str(config), *BASE)
        assert code == 2
        assert f"keys {first[0]!r} and {second[0]!r} both set {setting!r}" in err

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
            "--variant", "randumb", "--embed-dim", "63", "--gamma", "0.5",
        )
        assert code == 2
        assert "even" in err

    @pytest.mark.parametrize("variant,size", [("randumb", "66"), ("rp_relu", "65")])
    def test_embed_dim_the_flip_pairs_cannot_split(self, capsys, cifar10_dir, variant, size):
        """A flip run's map is mirror-paired: the fourier head needs
        E % 4 == 0 and the relu head an even E."""
        argv = ["run", "--dataset", "cifar10", "--data-dir", str(cifar10_dir),
                "--variant", variant, "--embed-dim", size]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"--embed-dim {size} cannot be split into mirror pairs" in err
        assert run_cli(capsys, *argv, "--no-augment")[0] == 0

    def test_odd_eval_every_on_a_flip_run(self, capsys, cifar10_dir):
        """A flip stream is cut only between an image and its mirror."""
        argv = ["run", "--dataset", "cifar10", "--data-dir", str(cifar10_dir),
                "--variant", "ncm", "--eval-every-k", "7"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "--eval-every-k 7 would cut an image from its mirror" in err
        assert run_cli(capsys, *argv, "--no-augment")[0] == 0

    def test_bad_variant_choice_is_argparse_error(self, feature_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "features", "--variant", "svm"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--estimator-mode", "global"], ["--pooled-unbiased"]],
        ids=["estimator-mode", "pooled-unbiased"],
    )
    def test_deleted_estimator_flags_are_argparse_errors(self, feature_dir, flags):
        """One covariance: the centering mode and the (n - C) normalizer
        are no longer settings."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--dataset", "features", "--data-dir", str(feature_dir), *flags])
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

    def test_negative_seed_refused(self, capsys, feature_dir):
        """slda has no embedding seed, and its stream seed is seed + 1 = 0,
        so --seed -1 used to run and exit 0."""
        code, out, err = run_cli(
            capsys, "run", "--dataset", "features", "--data-dir", str(feature_dir),
            "--variant", "slda", "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["run"], "--out"),
            (["sweep", "--dims", "8"], "--csv"),
            (["ablate", "--variants", "ncm"], "--out"),
            (["verify"], "--out"),
        ],
        ids=["run", "sweep", "ablate", "verify"],
    )
    def test_output_file_in_missing_directory(
        self, capsys, tmp_path, monkeypatch, command, flag
    ):
        """Refused (exit 2) naming the setting and the path before any data
        is loaded or check run, not with a FileNotFoundError after the
        whole pass.  The data directory is empty, so loading it would
        exit 3."""
        def not_reached(*args, **kwargs):
            raise AssertionError("verify ran before its --out path was checked")

        monkeypatch.setattr(cli, "run_verify", not_reached)
        missing = tmp_path / "nodir"
        path = str(missing / "results")
        argv = [*command, flag, path]
        if command[0] != "verify":
            argv += ["--dataset", "features", "--data-dir", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{flag} {path}: directory {missing} does not exist" in err
        assert not missing.exists()


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

    def test_config_file_dims_list(self, capsys, feature_dir, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"dims": [32, 64]}))
        code, out, err = run_cli(
            capsys, "sweep", "--dataset", "features", "--data-dir", str(feature_dir),
            "--gamma", "0.1", "--config", str(config),
        )
        assert code == 0, err
        lines = out.strip().split("\n")
        assert [json.loads(l)["config"]["state_dim"] for l in lines] == [32, 64]

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
        assert len(reports) == 6
        for report in reports:
            assert report["passed"] is True, report
            assert report["max_error"] <= report["tolerance"]
        names = {r["check"] for r in reports}
        assert len(names) == 6

    def test_negative_seed_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0, got -1" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "checks.jsonl"
        code, _, _ = run_cli(capsys, "verify", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 6
        assert all(json.loads(line)["passed"] for line in lines)


def test_readme_common_flags_match_the_run_command():
    """README's "Common flags:" list names exactly the options of `randumb
    run`, less --help and --config (documented in the next paragraph)."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("Common flags:", 1)[1].split(". ", 1)[0]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)`", listed))
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    options = {flag for action in run._actions for flag in action.option_strings}
    assert documented == options - {"-h", "--help", "--config"}


def test_readme_result_keys_match_run_result():
    """README's "Result keys:" list names RunResult's fields, in order."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("Result keys:", 1)[1].split(". ", 1)[0]
    documented = re.findall(r"`([a-z_]+)`", listed)
    assert documented == [f.name for f in fields(RunResult)]
