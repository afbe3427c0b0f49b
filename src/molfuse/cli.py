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
import re
import sys

from .autodiff import Tape, check_gradients, gradient_error
from .data import TaskKind, parse_ratio_string
from .integration import STRATEGIES, EncodedMolecule
from .smiles import SmilesError, Vocabulary, parse, tokenize
from .training import (
    CHOICES,
    RunConfig,
    attention_scaling,
    build_model,
    profile_strategies,
    run_seeds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUN = 3

RUN_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# per ablation: the RunConfig field it sweeps, its values, default strategy
ABLATIONS = {
    "splits": ("ratios", ("9:0.5:0.5", "8:1:1", "7:2:1", "6:2:2"), "contrast-node"),
    "fusion": ("fusion", CHOICES["fusion"], "late-fusion"),
    "gnn": ("gnn_variant", CHOICES["gnn_variant"], "late-fusion"),
}

TABLE_FOOTER = (
    "note: desk-scale reference runs; no numeric match to externally "
    "published results is expected."
)


def read_config_file(path):
    """Flat ``key = value`` file; '#' at the start of a line or after
    whitespace starts a comment; unknown keys are rejected with the list of
    valid keys."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in RUN_FIELDS:
                raise ValueError(
                    f"{path}:{lineno}: unknown key '{key}'; valid keys: "
                    f"{', '.join(RUN_FIELDS)}"
                )
            values[key] = value.strip()
    return values


def parse_field(key, text):
    """A flag or file value as the type of RunConfig's default for ``key``:
    ``ratios`` as 'a:b:c', ``seeds`` as integers separated by spaces or
    commas, a bool as 'true' or 'false'. Raises ValueError naming the key;
    RunConfig checks the value's range."""
    kind = type(RUN_FIELDS[key].default)
    try:
        if key == "ratios":
            return parse_ratio_string(text)
        if key == "seeds":
            return tuple(int(s) for s in text.replace(",", " ").split())
        if kind is bool and text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true" if kind is bool else kind(text)
    except ValueError as exc:
        raise ValueError(f"{key} = {text}: {exc}") from exc


def format_field(key, value):
    """The text ``parse_field`` reads back as ``value``."""
    if key == "ratios":
        return ":".join(repr(r) for r in value)
    if key == "seeds":
        return " ".join(str(s) for s in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def build_run_config(args, **start):
    """RunConfig from ``start``, then the config file, then explicit flags
    (each overriding the one before)."""
    merged = dict(start)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in RUN_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return RunConfig.from_dict({
        key: parse_field(key, value) if isinstance(value, str) else value
        for key, value in merged.items()
    })


def _add_run_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    for key, field in RUN_FIELDS.items():
        flag = "--" + key.replace("_", "-")
        hint = f"default: {format_field(key, field.default) or 'by task'}"
        if isinstance(field.default, bool):
            # --<flag> and --no-<flag> both beat a config file's value
            sub.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                             help=hint)
        else:
            sub.add_argument(flag, dest=key, choices=CHOICES.get(key), help=hint)
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
    """config.txt, which --config reads back into an equal RunConfig."""
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        for key in RUN_FIELDS:
            fh.write(f"{key} = {format_field(key, getattr(config, key))}\n")


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
            tokens = graph.tokens
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


def cmd_ablate(args):
    key, labels, strategy = ABLATIONS[args.kind]
    config = build_run_config(args, strategy=strategy)
    out_dir = _out_dir(args, f"ablate-{args.kind}")
    _snapshot_config(out_dir, config)
    rows = []
    records = []
    failed = False
    for label in labels:
        cell_config = dataclasses.replace(config, **{key: parse_field(key, label)})
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
    failed = not report.passed
    for kind in sorted({entry.kind for entry in report.entries}):
        err = report.max_error(kind)
        status = "ok" if err < args.tolerance else "FAIL"
        print(f"{kind:<34} max rel error {err:.3e}  {status}")

    if not args.ops_only:
        errors = strategy_gradient_errors()
        for strategy, err in errors.items():
            status = "ok" if err < args.tolerance else "FAIL"
            if status == "FAIL":
                failed = True
            print(f"strategy {strategy:<25} max rel error {err:.3e}  {status}")
    return EXIT_RUN if failed else EXIT_OK


def strategy_gradient_errors(seed=0):
    """Max FD relative error of each strategy's loss over all parameters,
    measured on a 2-molecule batch at reduced width."""
    corpus = ["CC(=O)O", "C1CC1"]
    vocab = Vocabulary.build(corpus)
    graphs = [parse(s) for s in corpus]
    mols = [
        EncodedMolecule(g, tokenize(g.tokens, vocab), y)
        for g, y in zip(graphs, (0.4, -0.6))
    ]
    errors = {}
    for strategy in STRATEGIES:
        config = RunConfig(
            strategy=strategy, hidden_dim=8, num_layers=1, num_heads=2,
            ffn_dim=12, max_len=32, message_steps=2, edge_hidden=6,
        )
        model = build_model(config, len(vocab), seed)

        def run():
            tape = Tape()
            loss, _, _ = model.forward_batch(tape, mols, batch_seed=3)
            return loss, tape

        errors[strategy] = gradient_error(run, model.parameters())
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
    p.add_argument("kind", choices=ABLATIONS)
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
    except FloatingPointError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
