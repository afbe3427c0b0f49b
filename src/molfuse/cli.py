"""Command-line entry point.

Subcommands: parse, train, ablate, gradcheck, profile. Options can come
from a flat ``key = value`` config file (--config); explicit flags beat
file values. Exit codes: 0 success, 1 usage error, 2 data-quality
warnings, 3 run failure.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .autodiff import Tape, backward, check_gradients, fd_gradients
from .data import TaskKind, parse_ratio_string
from .gnn import GnnConfig
from .integration import STRATEGIES, EncodedMolecule, IntegratedModel
from .lm import EncoderConfig
from .smiles import SmilesError, Vocabulary, parse, tokenize, tokenize_raw
from .training import (
    RunConfig,
    attention_scaling,
    profile_strategies,
    run_seeds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUN = 3

CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))

ABLATION_SPLITS = ("9:0.5:0.5", "8:1:1", "7:2:1", "6:2:2")
ABLATION_FUSIONS = ("sum", "max", "concat", "gate")
ABLATION_GNNS = ("mpnn", "graphconv")

TABLE_FOOTER = (
    "note: desk-scale reference runs; no numeric match to externally "
    "published results is expected."
)


def _parse_scalar(text):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_config_file(path):
    """Flat ``key = value`` file; '#' starts a comment; unknown keys are
    rejected with the list of valid keys."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key '{key}'; valid keys: "
                    f"{', '.join(CONFIG_KEYS)}"
                )
            values[key] = value.strip()
    return values


def _coerce(key, value):
    if key == "ratios":
        return parse_ratio_string(value) if isinstance(value, str) else value
    if key == "seeds":
        if isinstance(value, str):
            return tuple(int(s) for s in value.replace(",", " ").split())
        return value
    if isinstance(value, str):
        return _parse_scalar(value)
    return value


def build_run_config(args):
    """Config file values overridden by explicit command-line flags.

    Worker count falls back to the MOLFUSE_WORKERS environment variable
    when neither a flag nor the file sets it.
    """
    merged = {}
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    if "workers" not in merged and os.environ.get("MOLFUSE_WORKERS"):
        merged["workers"] = int(os.environ["MOLFUSE_WORKERS"])
    return RunConfig.from_dict(merged)


def _add_run_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--strategy", choices=STRATEGIES)
    sub.add_argument("--dataset")
    sub.add_argument("--task", choices=("regression", "binary-classification"))
    sub.add_argument("--smiles-column", dest="smiles_column")
    sub.add_argument("--label-column", dest="label_column")
    sub.add_argument("--ratios", help="e.g. 8:1:1")
    sub.add_argument("--seeds", help="e.g. '0 7 42 100 2024'")
    sub.add_argument("--lr", type=float)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--max-epochs", dest="max_epochs", type=int)
    sub.add_argument("--patience", type=int)
    sub.add_argument("--fusion", choices=ABLATION_FUSIONS)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--alpha-graph", dest="alpha_graph", type=float)
    sub.add_argument("--margin", type=float)
    sub.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    sub.add_argument("--num-layers", dest="num_layers", type=int)
    sub.add_argument("--num-heads", dest="num_heads", type=int)
    sub.add_argument("--ffn-dim", dest="ffn_dim", type=int)
    sub.add_argument("--max-len", dest="max_len", type=int)
    sub.add_argument("--gnn-variant", dest="gnn_variant", choices=ABLATION_GNNS)
    sub.add_argument("--message-steps", dest="message_steps", type=int)
    sub.add_argument("--update-kind", dest="update_kind", choices=("gru", "mlp"))
    sub.add_argument("--mlm-pretrain", dest="mlm_pretrain", action="store_const",
                     const=True)
    sub.add_argument("--mlm-epochs", dest="mlm_epochs", type=int)
    sub.add_argument("--frozen-mpnn", dest="frozen_mpnn", action="store_const",
                     const=True)
    sub.add_argument("--cross-graph-negatives", dest="cross_graph_negatives",
                     action="store_const", const=True)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out", default=None, help="output directory")


def _out_dir(args, default_name):
    out = args.out or os.path.join("runs", default_name)
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(out_dir, name, report):
    txt = os.path.join(out_dir, f"{name}.txt")
    with open(txt, "w") as fh:
        fh.write(report.text_table() + "\n")
    with open(os.path.join(out_dir, f"{name}.jsonl"), "w") as fh:
        fh.write(report.jsonl() + "\n")
    return txt


def _snapshot_config(out_dir, config):
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        for key, value in config.to_dict().items():
            if isinstance(value, (list, tuple)):
                value = " ".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_parse(args):
    lines = []
    if args.file:
        with open(args.file) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    else:
        lines = [args.smiles]
    failures = 0
    for smiles in lines:
        try:
            graph = parse(smiles)
            tokens = tokenize_raw(smiles)
            note = f" ({len(graph.warnings)} warnings)" if graph.warnings else ""
            print(
                f"{smiles}\t{graph.num_atoms} atoms\t{graph.num_bonds} bonds\t"
                f"{len(tokens)} tokens{note}"
            )
            if args.verbose:
                for tok, is_atom in tokens:
                    print(f"  token {tok!r}{' [atom]' if is_atom else ''}")
        except SmilesError as exc:
            failures += 1
            print(f"{smiles}\tERROR: {exc}")
    return EXIT_DATA if failures else EXIT_OK


def cmd_train(args):
    config = build_run_config(args)
    out_dir = _out_dir(args, f"{config.strategy}-{os.path.basename(config.dataset)}")
    _snapshot_config(out_dir, config)
    report = run_seeds(config, out_dir=out_dir)
    txt = _write_report(out_dir, "report", report)
    print(report.text_table())
    print(f"report written to {txt}")
    if all(r.failed for r in report.results):
        return EXIT_RUN
    if any(r.failed for r in report.results):
        return EXIT_DATA
    return EXIT_OK


def _ablation_cells(kind, config):
    if kind == "splits":
        return [
            (ratio, dataclasses.replace(config, ratios=parse_ratio_string(ratio)))
            for ratio in ABLATION_SPLITS
        ]
    if kind == "fusion":
        return [
            (op, dataclasses.replace(config, fusion=op)) for op in ABLATION_FUSIONS
        ]
    return [
        (variant, dataclasses.replace(config, gnn_variant=variant))
        for variant in ABLATION_GNNS
    ]


ABLATION_DEFAULT_STRATEGY = {
    "splits": "contrast-node",
    "fusion": "late-fusion",
    "gnn": "late-fusion",
}


def cmd_ablate(args):
    file_sets_strategy = bool(
        args.config and "strategy" in read_config_file(args.config)
    )
    config = build_run_config(args)
    if args.strategy is None and not file_sets_strategy:
        config = dataclasses.replace(
            config, strategy=ABLATION_DEFAULT_STRATEGY[args.kind]
        )
    out_dir = _out_dir(args, f"ablate-{args.kind}")
    _snapshot_config(out_dir, config)
    rows = []
    records = []
    failed = False
    for label, cell_config in _ablation_cells(args.kind, config):
        report = run_seeds(cell_config, out_dir=None)
        failed = failed or any(r.failed for r in report.results)
        rows.append((label, report.formatted_aggregate()))
        records.append({
            "cell": label,
            "aggregate": report.formatted_aggregate(),
            "seeds": [r.to_record() for r in report.results],
        })
    metric = TaskKind(config.task).metric_name
    width = max(len(label) for label, _ in rows)
    lines = [
        f"ablation: {args.kind}   strategy: {config.strategy}   "
        f"dataset: {config.dataset}   metric: {metric}",
    ]
    lines += [f"{label:<{width}}  {value}" for label, value in rows]
    lines.append(TABLE_FOOTER)
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(out_dir, "ablation.txt"), "w") as fh:
        fh.write(table + "\n")
    with open(os.path.join(out_dir, "ablation.jsonl"), "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_RUN if failed else EXIT_OK


def cmd_gradcheck(args):
    report = check_gradients(trials=args.trials, tolerance=args.tolerance)
    worst = {}
    for entry in report.entries:
        worst[entry.kind] = max(worst.get(entry.kind, 0.0), entry.max_rel_error)
    failed = False
    for kind in sorted(worst):
        status = "ok" if worst[kind] < args.tolerance else "FAIL"
        if status == "FAIL":
            failed = True
        print(f"{kind:<34} max rel error {worst[kind]:.3e}  {status}")

    if not args.ops_only:
        errors = strategy_gradient_errors(tolerance=args.tolerance)
        for strategy, err in errors.items():
            status = "ok" if err < args.tolerance else "FAIL"
            if status == "FAIL":
                failed = True
            print(f"strategy {strategy:<25} max rel error {err:.3e}  {status}")
    return EXIT_RUN if failed else EXIT_OK


def strategy_gradient_errors(tolerance=1e-4, seed=0):
    """Max FD relative error of each strategy's loss over all parameters,
    measured on a 2-molecule batch at reduced width."""
    corpus = ["CC(=O)O", "C1CC1"]
    vocab = Vocabulary.build(corpus)
    mols = [
        EncodedMolecule(parse(s), tokenize(s, vocab), y)
        for s, y in zip(corpus, (0.4, -0.6))
    ]
    errors = {}
    for strategy in STRATEGIES:
        model = IntegratedModel(
            strategy,
            vocab_size=len(vocab),
            seed=seed,
            encoder_config=EncoderConfig(
                vocab_size=len(vocab), hidden_dim=8, num_layers=1,
                num_heads=2, ffn_dim=12, max_len=32,
            ),
            gnn_config=GnnConfig(hidden_dim=8, message_steps=2, edge_hidden=6),
        )
        params = model.parameters()

        def run():
            tape = Tape()
            loss, _, _ = model.forward_batch(tape, mols, batch_seed=3)
            return loss, tape

        loss, tape = run()
        grads = backward(loss, tape)
        numeric = fd_gradients(lambda: run()[0].values, params)
        worst = 0.0
        for p, num in zip(params, numeric):
            ana = grads[p.node_id]
            denom = np.maximum(np.abs(ana), np.maximum(np.abs(num), 1e-3))
            worst = max(worst, float((np.abs(ana - num) / denom).max()))
        errors[strategy] = worst
    return errors


def cmd_profile(args):
    if args.synthetic_seq_scaling:
        out = attention_scaling(base_len=args.base_len, repeats=args.repeats)
        n = out["base_len"]
        print(f"{'seq len':>8}  {'median seconds':>15}")
        for length, seconds in out["seconds"].items():
            print(f"{length:>8}  {seconds:>15.6f}")
        print(f"doubling ratio: {out['ratio']:.2f} (quadratic cost predicts ~4)")
        return EXIT_OK
    config = build_run_config(args)
    strategies = (
        args.profile_strategies.split(",") if args.profile_strategies
        else list(STRATEGIES)
    )
    out = profile_strategies(
        config, strategies,
        measured_epochs=args.epochs, warmup_epochs=args.warmup,
    )
    print(f"{'strategy':<16} {'median epoch s':>15}  minor faults per epoch")
    for strategy, entry in out["timings"].items():
        faults = " ".join(str(n) for n in entry["minor_faults"])
        print(f"{strategy:<16} {entry['median']:>15.3f}  {faults}")
    for verdict in out["verdicts"]:
        status = "holds" if verdict["passed"] else "VIOLATED"
        print(
            f"ordering {verdict['check']}: {status} "
            f"({verdict['faster']:.3f}s vs {verdict['slower']:.3f}s)"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "profile.json"), "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="molfuse",
        description="train and probe combinations of a SMILES token encoder "
                    "and a molecular message-passing network",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="tokenize/parse SMILES and report counts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("smiles", nargs="?", help="one SMILES string")
    group.add_argument("--file", help="file with one SMILES per line")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("train", help="run the multi-seed training protocol")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("ablate", help="sweep splits, fusion ops, or gnn variants")
    p.add_argument("kind", choices=("splits", "fusion", "gnn"))
    _add_run_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("gradcheck", help="finite-difference gradient sweep")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--ops-only", action="store_true",
                   help="skip the end-to-end strategy checks")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("profile", help="per-epoch timing and scaling checks")
    _add_run_flags(p)
    p.add_argument("--profile-strategies", dest="profile_strategies",
                   help="comma-separated subset to time")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--synthetic-seq-scaling", action="store_true")
    p.add_argument("--base-len", dest="base_len", type=int, default=128)
    p.add_argument("--repeats", type=int, default=25)
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SmilesError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
