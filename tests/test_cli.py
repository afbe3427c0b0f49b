import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from molfuse import autodiff
from molfuse.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUN,
    EXIT_USAGE,
    TABLE_FOOTER,
    _snapshot_config,
    build_run_config,
    format_field,
    main,
    make_parser,
    read_config_file,
)
from molfuse.synthdata import write_dataset
from molfuse.training import CHOICES, RunConfig


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

    def test_verbose_lists_the_parsed_tokens(self, capsys):
        assert main(["parse", "--verbose", "C[NH3+]"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "C[NH3+]\t2 atoms\t1 bonds\t2 tokens\n"
            "  token 'C' [atom]\n"
            "  token '[NH3+]' [atom]\n"
        )

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
        args = argparse.Namespace(config=str(cfg_file), strategy=None, lr=0.5)
        config = build_run_config(args)
        assert config.strategy == "late-fusion"
        assert config.lr == 0.5  # flag beats file
        assert config.seeds == (0, 7)
        assert config.ratios == pytest.approx((0.8, 0.1, 0.1))

    def test_start_values_give_way_to_file_and_flags(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("strategy = mpnn2lm\n")
        start = {"strategy": "late-fusion"}
        assert build_run_config(argparse.Namespace(), **start).strategy == "late-fusion"
        from_file = argparse.Namespace(config=str(cfg_file))
        assert build_run_config(from_file, **start).strategy == "mpnn2lm"
        flag = argparse.Namespace(config=str(cfg_file), strategy="lm2mpnn")
        assert build_run_config(flag, **start).strategy == "lm2mpnn"

    def test_every_field_is_one_flag_and_one_key(self, tmp_path):
        """A value of every field, none of them its default, set by flags
        and read back from the config.txt snapshot, comes back equal and of
        the field's type."""
        changed = {}
        for field in dataclasses.fields(RunConfig):
            default = field.default
            if field.name in CHOICES:
                changed[field.name] = CHOICES[field.name][-1]
            elif field.name == "ratios":
                changed[field.name] = (0.7, 0.2, 0.1)
            elif field.name == "seeds":
                changed[field.name] = (3, 5)
            elif isinstance(default, bool):
                changed[field.name] = True
            elif isinstance(default, (int, float)):
                changed[field.name] = default * 3
            else:
                changed[field.name] = field.name + ".x"
        target = RunConfig(**changed)

        dests = set(vars(make_parser().parse_args(["train"])))
        assert dests - {"command", "func", "config", "out"} == set(changed)

        argv = ["train"]
        for key, value in changed.items():
            argv.append("--" + key.replace("_", "-"))
            if not isinstance(value, bool):
                argv.append(format_field(key, value))
        from_flags = build_run_config(make_parser().parse_args(argv))
        _snapshot_config(tmp_path, from_flags)
        keys = read_config_file(tmp_path / "config.txt")
        assert list(keys) == list(changed)
        from_file = build_run_config(
            argparse.Namespace(config=str(tmp_path / "config.txt"))
        )
        for config in (from_flags, from_file):
            assert config == target
            for key, value in changed.items():
                assert type(getattr(config, key)) is type(value), key

    @pytest.mark.parametrize("config", [
        RunConfig(), RunConfig(dataset="runs/#1/data.csv"),
    ], ids=["defaults", "hash-in-path"])
    def test_snapshot_reads_back(self, tmp_path, config):
        _snapshot_config(tmp_path, config)
        args = argparse.Namespace(config=str(tmp_path / "config.txt"))
        assert build_run_config(args) == config

    @pytest.mark.parametrize("line, key", [
        ("lr = abc", "lr"),
        ("mlm_pretrain = 1", "mlm_pretrain"),
        ("hidden_dim = 64.0", "hidden_dim"),
        ("task = regresion", "task"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = ") and "Traceback" not in err

    def test_bad_flag_value_names_its_key(self, capsys):
        assert main(["train", "--max-epochs", "2.5"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: max_epochs = 2.5: ")

    @pytest.mark.parametrize("flags, key", [
        (["--num-heads", "0"], "num_heads"),
        (["--num-layers", "-2"], "num_layers"),
        (["--ffn-dim", "0"], "ffn_dim"),
        (["--edge-hidden", "0"], "edge_hidden"),
        (["--mlm-pretrain", "--mlm-epochs", "-1"], "mlm_epochs"),
        (["--max-len", "0"], "max_len"),
        (["--workers", "0"], "workers"),
        (["--hidden-dim", "30"], "hidden_dim"),
        (["--mlm-rate", "1.5"], "mlm_rate"),
        (["--margin", "0"], "margin"),
        (["--alpha", "-0.5"], "alpha"),
        (["--lr", "0"], "lr"),
        (["--patience", "0"], "patience"),
        (["--seeds", "-1"], "seeds"),
        (["--ratios", "1:0:0"], "ratios"),
    ])
    def test_out_of_range_flag_names_its_key(self, capsys, flags, key):
        assert main(["train", *flags]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} = ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "key", ["mlm_pretrain", "frozen_mpnn"])
    def test_bool_flag_beats_the_file_both_ways(self, tmp_path, key):
        flag = key.replace("_", "-")
        cfg_file = tmp_path / "run.cfg"
        for text, flags, want in (
            ("true", [], True),
            ("true", [f"--no-{flag}"], False),
            ("false", [f"--{flag}"], True),
        ):
            cfg_file.write_text(f"{key} = {text}\n")
            args = make_parser().parse_args(
                ["train", "--config", str(cfg_file), *flags])
            assert getattr(build_run_config(args), key) is want, (text, flags)

    def test_string_field_keeps_digits_as_text(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("label_column = 2024\n")
        config = build_run_config(argparse.Namespace(config=str(cfg_file)))
        assert config.label_column == "2024"

    def test_unknown_key_lists_valid_keys(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("stratgy = lm-baseline\n")
        with pytest.raises(ValueError, match="valid keys"):
            read_config_file(cfg_file)

    def test_unknown_key_via_main_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense = 1\n")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_USAGE

    # options of earlier versions, whose settings no longer exist
    REMOVED = [
        ("update_kind", "mlp"),
        ("cross_graph_negatives", "true"),
        ("alpha_graph", "0.2"),
        ("graphconv_layers", "3"),
    ]

    @pytest.mark.parametrize("key, value", REMOVED)
    def test_removed_flag_is_a_usage_error(self, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        argv = [flag] if value == "true" else [flag, value]
        assert main(["train", *argv]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED)
    def test_removed_key_in_a_file_is_a_usage_error(
            self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        valid = ", ".join(f.name for f in dataclasses.fields(RunConfig))
        assert f"unknown key '{key}'; valid keys: {valid}" in err


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

    def test_rerun_from_snapshot_gives_the_same_records(self, tiny_csv, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(
            ["train", "--strategy", "contrast-node", "--dataset", tiny_csv,
             "--seeds", "0", "--ratios", "7:2:1", "--out", str(first)]
            + TINY_FLAGS
        ) == EXIT_OK
        assert main(
            ["train", "--config", str(first / "config.txt"), "--out", str(second)]
        ) == EXIT_OK
        snapshot = (first / "config.txt").read_text()
        assert "ratios = 0.7:0.2:0.1\n" in snapshot
        assert (second / "config.txt").read_text() == snapshot

        def comparable_records(out_dir):
            records = [json.loads(line) for line in
                       (out_dir / "report.jsonl").read_text().splitlines()]
            for record in records:
                record.pop("timing", None)
            return records

        assert comparable_records(second) == comparable_records(first)

    def test_concat_fusion_autoconfigures_head(self, tiny_csv, tmp_path):
        code = main(
            ["train", "--strategy", "late-fusion", "--fusion", "concat",
             "--dataset", tiny_csv, "--seeds", "0",
             "--out", str(tmp_path / "cc")] + TINY_FLAGS
        )
        assert code == EXIT_OK

    def test_max_len_that_empties_a_split_names_the_field(
            self, tiny_csv, tmp_path, capsys):
        # every sequence is CLS plus at least one atom token
        code = main(
            ["train", "--strategy", "lm-baseline", "--dataset", tiny_csv,
             "--seeds", "0", "--out", str(tmp_path / "out")]
            + TINY_FLAGS + ["--max-len", "1"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: max_len = 1: drops all ")
        assert "molecules of the train split" in err and "Traceback" not in err

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
        snapshot = tmp_path / "gn" / "config.txt"
        config = build_run_config(argparse.Namespace(config=str(snapshot)))
        assert config.strategy == "late-fusion"
        _snapshot_config(tmp_path, config)
        assert (tmp_path / "config.txt").read_text() == snapshot.read_text()

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

    def test_non_finite_loss_fails_the_run_and_names_the_strategy(
            self, tiny_csv, monkeypatch, capsys):
        # the loss op returns inf from finite predictions: the replay finds
        # no bad input, so the loss itself is named
        real_op = autodiff._OPS["squared-error"]

        def inf_loss(inputs, kw):
            _, bwd = real_op(inputs, kw)
            return np.asarray(np.inf), bwd

        monkeypatch.setitem(autodiff._OPS, "squared-error", inf_loss)
        code = main(
            ["profile", "--dataset", tiny_csv, "--seeds", "0",
             "--profile-strategies", "mpnn-baseline",
             "--epochs", "1", "--warmup", "0"] + TINY_FLAGS
        )
        assert code == EXIT_RUN
        assert capsys.readouterr().err == (
            "run error: mpnn-baseline: non-finite loss\n")

    def test_max_len_that_empties_a_split_fails_as_train_does(
            self, tiny_csv, tmp_path, capsys):
        flags = ["--dataset", tiny_csv, "--seeds", "0"] + TINY_FLAGS + [
            "--max-len", "1"]
        errors = []
        for command in (["train", "--out", str(tmp_path / "out")],
                        ["profile", "--profile-strategies", "lm-baseline",
                         "--epochs", "1", "--warmup", "0"]):
            assert main(command + flags) == EXIT_USAGE
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: max_len = 1: drops all ")
        assert errors[1] == errors[0]
