"""Command-line interface: workflows, determinism, and failure diagnostics."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import caransac
from caransac import formats, neural, training
from caransac.cli import main
from caransac.geometry import pose_error
from caransac.training import PairSpec, generate_synthetic


def run(*args) -> int:
    return main([str(a) for a in args])


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    """A fresh (untrained) bundle written to disk; enough for CLI plumbing."""
    path = tmp_path_factory.mktemp("weights") / "w.txt"
    path.write_bytes(neural.save_weights(neural.MlpBundle.initialize(0)))
    return path


class TestSynth:
    def test_deterministic_directories(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--pairs", 3, "--n", 60, "--seed", 7, "--out-dir", a) == 0
        assert run("synth", "--pairs", 3, "--n", 60, "--seed", 7, "--out-dir", b) == 0
        fa, fb = tree_bytes(a), tree_bytes(b)
        assert fa.keys() == fb.keys()
        for name in fa:
            assert fa[name] == fb[name], name

    def test_full_inliers_no_noise(self, tmp_path):
        out = tmp_path / "d"
        assert run(
            "synth", "--pairs", 1, "--n", 50, "--inlier-rate", 1.0,
            "--noise", 0.0, "--seed", 3, "--out-dir", out,
        ) == 0
        pairs = formats.read_dataset(out)
        assert pairs[0].matches.labels.all()

    def test_zero_pairs_fails(self, tmp_path, capsys):
        assert run("synth", "--pairs", 0, "--out-dir", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_lists_pairs(self, tmp_path):
        out = tmp_path / "d"
        run("synth", "--pairs", 2, "--n", 60, "--seed", 1, "--out-dir", out)
        assert formats.read_manifest(out / "manifest.txt") == ["pair_0000", "pair_0001"]


class TestTrain:
    def test_smoke_train_writes_loadable_weights(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--pairs", 6, "--n", 60, "--inlier-rate", 0.7,
            "--seed", 2, "--out-dir", data)
        weights = tmp_path / "w.txt"
        code = run(
            "train", "--data", data, "--epochs", 1, "--seed", 1,
            "--batches", 1, "--batch-size", 32, "--out-weights", weights,
        )
        assert code == 0
        bundle = neural.load_weights(weights.read_bytes())
        assert bundle.alpha > 0
        assert weights.with_suffix(".txt.log").exists()

    def test_same_seed_identical_weight_bytes(self, tmp_path):
        data = tmp_path / "data"
        run("synth", "--pairs", 5, "--n", 60, "--inlier-rate", 0.7,
            "--seed", 4, "--out-dir", data)
        w1, w2 = tmp_path / "w1.txt", tmp_path / "w2.txt"
        args = ["train", "--data", data, "--epochs", 1, "--seed", 9,
                "--batches", 1, "--batch-size", 32]
        assert run(*args, "--out-weights", w1) == 0
        assert run(*args, "--out-weights", w2) == 0
        assert w1.read_bytes() == w2.read_bytes()

    def test_corrupt_pair_file_names_location(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 2, "--n", 60, "--seed", 5, "--out-dir", data)
        target = data / "pair_0001.matches.txt"
        lines = target.read_text().splitlines()
        lines[3] = "1 2 3"
        target.write_text("\n".join(lines) + "\n")
        assert run("train", "--data", data, "--epochs", 1,
                   "--out-weights", tmp_path / "w.txt") == 1
        err = capsys.readouterr().err
        assert "pair_0001.matches.txt" in err and "row 4" in err

    @pytest.mark.parametrize("unlabeled", ["--data", "--val-data"])
    def test_unlabeled_data_rejected(self, tmp_path, capsys, monkeypatch, unlabeled):
        from dataclasses import replace

        def no_training(*args, **kwargs):
            pytest.fail("train ran before the unlabeled set was rejected")

        monkeypatch.setattr(training, "train", no_training)
        for name in ("labeled", "unlabeled"):
            pair = generate_synthetic(PairSpec(n=40, inlier_rate=0.8, noise_sigma_px=0.5, seed=6))
            pair.name = "pair_0000"
            if name == "unlabeled":
                pair.matches = replace(pair.matches, labels=None)
            (tmp_path / name).mkdir()
            formats.write_pair(tmp_path / name, pair)
            formats.write_manifest(tmp_path / name / "manifest.txt", ["pair_0000"])
        dirs = {"--data": tmp_path / "labeled", "--val-data": tmp_path / "labeled"}
        dirs[unlabeled] = tmp_path / "unlabeled"
        assert run("train", *[x for item in dirs.items() for x in item], "--epochs", 1,
                   "--out-weights", tmp_path / "w.txt") == 1
        assert "train needs labeled data" in capsys.readouterr().err


class TestEstimate:
    def test_noise_free_pair_recovers_pose(self, tmp_path, tiny_weights):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--inlier-rate", 1.0, "--noise", 0.0,
            "--seed", 8, "--out-dir", data)
        report_path = tmp_path / "report.txt"
        code = run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--calib", data / "pair_0000.calib.txt",
            "--model-kind", "essential", "--weights", tiny_weights,
            "--seed", 3, "--report", report_path,
        )
        assert code == 0
        report = formats.read_report(report_path)
        gt = formats.read_pose(data / "pair_0000.pose.txt")
        assert report.pose is not None
        assert pose_error(report.pose, gt) < 1e-4

    def test_missing_weights_suggests_train(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 9, "--out-dir", data)
        assert run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--report", tmp_path / "r.txt",
        ) == 1
        assert "train" in capsys.readouterr().err

    def test_essential_requires_calib(self, tmp_path, tiny_weights, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 10, "--out-dir", data)
        assert run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--model-kind", "essential", "--weights", tiny_weights,
            "--report", tmp_path / "r.txt",
        ) == 1
        assert "--calib" in capsys.readouterr().err

    def test_report_deterministic(self, tmp_path, tiny_weights):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 80, "--inlier-rate", 0.6, "--seed", 11,
            "--out-dir", data)
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        args = ["estimate", "--matches", data / "pair_0000.matches.txt",
                "--calib", data / "pair_0000.calib.txt", "--weights", tiny_weights,
                "--batches", 2, "--batch-size", 64, "--seed", 5]
        assert run(*args, "--report", r1) == 0
        assert run(*args, "--report", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_config_file_defaults_and_flag_override(self, tmp_path, tiny_weights):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 80, "--inlier-rate", 0.6, "--seed", 12,
            "--out-dir", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batches = 2\nbatch_size = 64\nseed = 5\n")
        r1, r2, r3 = tmp_path / "r1.txt", tmp_path / "r2.txt", tmp_path / "r3.txt"
        base = ["estimate", "--matches", data / "pair_0000.matches.txt",
                "--weights", tiny_weights]
        assert run(*base, "--config", cfg, "--report", r1) == 0
        assert run(*base, "--batches", 2, "--batch-size", 64, "--seed", 5, "--report", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()
        # an explicit flag beats the config file, also when it repeats the default
        assert run(*base, "--config", cfg, "--seed", 6, "--report", r3) == 0
        assert r3.read_bytes() != r1.read_bytes()
        r4, r5 = tmp_path / "r4.txt", tmp_path / "r5.txt"
        assert run(*base, "--config", cfg, "--seed", 0, "--report", r4) == 0
        assert run(*base, "--batches", 2, "--batch-size", 64, "--seed", 0, "--report", r5) == 0
        assert r4.read_bytes() == r5.read_bytes()

    def test_bad_config_value_named(self, tmp_path, tiny_weights, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 13, "--out-dir", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batches = two\n")
        assert run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--weights", tiny_weights, "--config", cfg, "--report", tmp_path / "r.txt",
        ) == 1
        assert "'batches' is not a valid int" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, tiny_weights, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 13, "--out-dir", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        assert run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--weights", tiny_weights, "--config", cfg, "--report", tmp_path / "r.txt",
        ) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_keys_without_a_flag_rejected(self, tmp_path, tiny_weights, capsys):
        # no subcommand has a flag for the sampler and refinement settings,
        # so a config file may not set them
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 13, "--out-dir", data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("top_k = 1\n")
        assert run(
            "estimate", "--matches", data / "pair_0000.matches.txt",
            "--weights", tiny_weights, "--config", cfg, "--report", tmp_path / "r.txt",
        ) == 1
        assert "unknown key 'top_k'" in capsys.readouterr().err

    def test_config_model_kind_against_the_subcommand_default(self, tmp_path, tiny_weights, capsys):
        # estimate defaults to fundamental while train and bench default to
        # essential; a config value replaces estimate's own default
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 13, "--out-dir", data)
        cfg = tmp_path / "run.cfg"
        base = ["estimate", "--matches", data / "pair_0000.matches.txt",
                "--weights", tiny_weights, "--config", cfg, "--batches", 1, "--batch-size", 32]
        cfg.write_text("model_kind = essential\n")
        assert run(*base, "--report", tmp_path / "r1.txt") == 1
        assert "--calib" in capsys.readouterr().err
        # an explicit flag still beats the config file
        cfg.write_text("model_kind = fundamental\n")
        report = tmp_path / "r2.txt"
        assert run(*base, "--calib", data / "pair_0000.calib.txt", "--model-kind", "essential",
                   "--report", report) == 0
        assert formats.read_report(report).kind == "essential"


class TestBench:
    def test_unknown_method_lists_valid(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 14, "--out-dir", data)
        assert run("bench", "--data", data, "--methods", "sorcery") == 1
        err = capsys.readouterr().err
        assert "ca" in err and "msac" in err and "lmlo" in err

    def test_table_written_and_deterministic(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 2, "--n", 80, "--inlier-rate", 0.8, "--seed", 15,
            "--out-dir", data)
        out1, out2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        args = ["bench", "--data", data, "--methods", "msac,lmlo",
                "--budget", "1x64", "--seeds", "0"]
        assert run(*args, "--out", out1) == 0
        assert run(*args, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        table = out1.read_text()
        assert "AUC5" in table and "msac" in table and "lmlo" in table

    def test_bad_budget_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        run("synth", "--pairs", 1, "--n", 60, "--seed", 16, "--out-dir", data)
        assert run("bench", "--data", data, "--budget", "nope") == 1
        assert "budget" in capsys.readouterr().err


def test_module_entry_point_runs_without_runpy_warning():
    # the package must not import cli eagerly, or running the module finds
    # it already loaded and runpy warns
    src = str(Path(caransac.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "caransac.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "synth" in proc.stdout
