import json
import subprocess
import sys
from pathlib import Path

import pytest

from molfuse.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    TABLE_FOOTER,
    build_run_config,
    main,
    read_config_file,
)
from molfuse.synthdata import write_dataset


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.csv"
    write_dataset(path, "esol", 80, seed=21)
    return str(path)


TINY_FLAGS = [
    "--hidden-dim", "16", "--num-layers", "1", "--num-heads", "2",
    "--ffn-dim", "24", "--message-steps", "1", "--batch-size", "16",
    "--max-epochs", "2", "--patience", "3",
]

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParseCommand:
    def test_phenol_counts(self, capsys):
        assert main(["parse", "C1=CC=C(C=C1)O"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "7 atoms" in out and "7 bonds" in out and "14 tokens" in out

    def test_runs_from_a_source_checkout(self, tmp_path):
        """``PYTHONPATH=src python -m molfuse.cli`` works without an install;
        the cwd lies outside the tree, so only PYTHONPATH can find molfuse."""
        out = subprocess.run(
            [sys.executable, "-m", "molfuse.cli", "parse", "C1CC1"],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert out.returncode == EXIT_OK, out.stderr
        assert out.stdout == "C1CC1\t3 atoms\t3 bonds\t5 tokens\n"

    def test_unclosed_ring_exit_2(self, capsys):
        assert main(["parse", "C1CC"]) == EXIT_DATA
        assert "unclosed ring 1" in capsys.readouterr().out

    def test_file_mode_per_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("CCO\nC1CC1\nC.C\n")
        assert main(["parse", "--file", str(corpus)]) == EXIT_DATA
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert "ERROR" in lines[2]


class TestConfigFile:
    def test_round_trip_and_flag_override(self, tmp_path, tiny_csv):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "strategy = late-fusion\n"
            f"dataset = {tiny_csv}\n"
            "lr = 0.01  # comment\n"
            "seeds = 0 7\n"
            "ratios = 8:1:1\n"
        )
        import argparse

        args = argparse.Namespace(config=str(cfg_file), strategy=None, lr=0.5)
        config = build_run_config(args)
        assert config.strategy == "late-fusion"
        assert config.lr == 0.5  # flag beats file
        assert config.seeds == (0, 7)
        assert config.ratios == pytest.approx((0.8, 0.1, 0.1))

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("stratgy = lm-baseline\n")
        with pytest.raises(ValueError, match="valid keys"):
            read_config_file(cfg_file)

    def test_unknown_key_via_main_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_USAGE


class TestTrainCommand:
    def test_single_seed_fast_mode(self, tiny_csv, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(
            ["train", "--strategy", "lm-baseline", "--dataset", tiny_csv,
             "--task", "regression", "--seeds", "0", "--out", str(out_dir)]
            + TINY_FLAGS
        )
        assert code == EXIT_OK
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "report.jsonl").exists()
        assert (out_dir / "config.txt").exists()
        assert (out_dir / "checkpoint_seed0.bin").exists()
        records = [
            json.loads(line)
            for line in (out_dir / "report.jsonl").read_text().splitlines()
        ]
        assert records[0]["type"] == "seed" and records[-1]["type"] == "aggregate"
        out = capsys.readouterr().out
        assert "aggregate:" in out

    def test_concat_fusion_autoconfigures_head(self, tiny_csv, tmp_path):
        code = main(
            ["train", "--strategy", "late-fusion", "--fusion", "concat",
             "--dataset", tiny_csv, "--seeds", "0",
             "--out", str(tmp_path / "cc")] + TINY_FLAGS
        )
        assert code == EXIT_OK

    def test_missing_dataset_usage_error(self, tmp_path, capsys):
        code = main(
            ["train", "--dataset", str(tmp_path / "nope.csv"), "--seeds", "0",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_USAGE


class TestAblateCommand:
    def test_fusion_table_shape(self, tiny_csv, tmp_path, capsys):
        out_dir = tmp_path / "ab"
        code = main(
            ["ablate", "fusion", "--dataset", tiny_csv, "--seeds", "0",
             "--out", str(out_dir)] + TINY_FLAGS
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for op in ("sum", "max", "concat", "gate"):
            assert op in out
        assert "±" in out
        assert TABLE_FOOTER in out
        table = (out_dir / "ablation.txt").read_text()
        assert TABLE_FOOTER in table
        assert len((out_dir / "ablation.jsonl").read_text().splitlines()) == 4

    def test_gnn_table_rows(self, tiny_csv, tmp_path, capsys):
        code = main(
            ["ablate", "gnn", "--dataset", tiny_csv, "--seeds", "0",
             "--out", str(tmp_path / "gn")] + TINY_FLAGS
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mpnn" in out and "graphconv" in out
        assert "late-fusion" in out  # default strategy for this ablation

    def test_splits_table_rows(self, tiny_csv, tmp_path, capsys):
        code = main(
            ["ablate", "splits", "--dataset", tiny_csv, "--seeds", "0",
             "--out", str(tmp_path / "sp")] + TINY_FLAGS
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for ratio in ("9:0.5:0.5", "8:1:1", "7:2:1", "6:2:2"):
            assert ratio in out
        assert "contrast-node" in out  # default strategy for this ablation


class TestGradcheckCommand:
    def test_ops_only_passes(self, capsys):
        assert main(["gradcheck", "--ops-only", "--trials", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out and "FAIL" not in out


class TestProfileCommand:
    def test_synthetic_scaling_table(self, capsys):
        code = main(
            ["profile", "--synthetic-seq-scaling", "--base-len", "64",
             "--repeats", "5"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "64" in out and "128" in out and "ratio" in out

    def test_strategy_timing_table(self, tiny_csv, capsys):
        code = main(
            ["profile", "--dataset", tiny_csv, "--seeds", "0",
             "--profile-strategies", "lm-baseline,mpnn-baseline",
             "--epochs", "1", "--warmup", "0"] + TINY_FLAGS
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "lm-baseline" in out and "mpnn-baseline" in out
        assert "minor faults per epoch" in out
