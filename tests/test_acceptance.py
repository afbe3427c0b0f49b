"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines as they
appear; a summary lands in acceptance_report.txt at the repository root
either way. The training
criteria exercise the bundled full-size datasets and take tens of minutes
on a laptop-class CPU.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from molfuse.autodiff import Tape, check_gradients, constant
from molfuse.cli import main, strategy_gradient_errors
from molfuse.data import load_csv, REGRESSION
from molfuse.gnn import GraphBatch
from molfuse.integration import (
    IntegratedModel,
    STRATEGIES,
    TripleBatch,
    build_triples,
    triplet_loss,
)
from molfuse.smiles import (
    TokenSequence,
    Vocabulary,
    pack_batch,
    parse,
    tokenize,
    tokenize_raw,
)
from molfuse.training import (
    RunConfig,
    attention_scaling,
    profile_strategies,
    train_one,
)
from molfuse.synthdata import write_dataset

from tests.conftest import CURATED_CORPUS
from tests.test_integration import (
    brute_force_triplet_total,
    chunked_triplet_total,
    mols_for,
    tiny_model,
    zero_mpnn_input,
)

ROOT = Path(__file__).resolve().parent.parent
ESOL = str(ROOT / "data" / "esol.csv")
BBBP = str(ROOT / "data" / "bbbp.csv")

RESULTS = []


def record(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print("\n" + line)
    assert passed, line


@pytest.fixture(scope="module", autouse=True)
def summary_report():
    yield
    text = "\n".join(RESULTS) + "\n"
    (ROOT / "acceptance_report.txt").write_text(text)
    print("\n" + text)


def test_c1_gradient_oracle():
    """Every op kind and every strategy forward matches central finite
    differences (h = 1e-5) within relative error 1e-4, in under 2 min."""
    started = time.time()
    ops = check_gradients(trials=10, tolerance=1e-4, seed=2024)
    strategy_errors = strategy_gradient_errors()
    elapsed = time.time() - started
    worst_strategy = max(strategy_errors.values())
    passed = ops.passed and worst_strategy < 1e-4 and elapsed < 120
    record(
        "1 gradient-oracle", passed,
        f"op max err {ops.max_error():.2e}, strategy max err "
        f"{worst_strategy:.2e}, {elapsed:.0f}s",
    )


def test_c2_parser_corpus_and_alignment():
    """20-molecule corpus exact counts; alignment sound on every parsed
    row of the bundled regression set; coverage >= 95%."""
    assert len(CURATED_CORPUS) == 20
    assert ("C1=CC=C(C=C1)O", 7, 7, 14) in CURATED_CORPUS
    for smiles, atoms, bonds, tokens in CURATED_CORPUS:
        graph = parse(smiles)
        assert graph.num_atoms == atoms, smiles
        assert graph.num_bonds == bonds, smiles
        assert len(tokenize_raw(smiles)) == tokens, smiles

    data = load_csv(ESOL, "smiles", "log_solubility", REGRESSION)
    total_rows = len(data.records) + len(data.quarantined)
    coverage = len(data.records) / total_rows
    vocab = Vocabulary.build(r.smiles for r in data.records)
    aligned = sum(
        1
        for r in data.records
        if len(tokenize(r.smiles, vocab).atom_token_positions)
        == parse(r.smiles).num_atoms
    )
    reasons_ok = all(q.reason for q in data.quarantined)
    passed = (
        coverage >= 0.95
        and aligned == len(data.records)
        and reasons_ok
        and len(data.records) == 1128
    )
    record(
        "2 parser-corpus", passed,
        f"coverage {coverage:.3f}, alignment {aligned}/{len(data.records)}, "
        f"{len(data.quarantined)} quarantined",
    )


def test_c3_loss_oracles():
    """Triplet loss equals the brute-force loop exactly on 100 random
    batches; the chunked double sum is identical for chunk sizes 1, 2, N."""
    rng = np.random.default_rng(993)
    exact = 0
    for _ in range(100):
        sizes = rng.integers(2, 7, size=int(rng.integers(1, 5)))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        d = int(rng.integers(2, 9))
        lm = rng.normal(size=(int(offsets[-1]), d))
        mp = rng.normal(size=(int(offsets[-1]), d))
        tb = build_triples(lm, mp, offsets, seed=int(rng.integers(1 << 30)))
        got = float(
            triplet_loss(
                Tape(), constant(lm), constant(mp), tb, 1.0
            ).values
        )
        want = float(brute_force_triplet_total(tb.materialize(lm, mp), 1.0))
        if got == want:
            exact += 1
    mat_rng = np.random.default_rng(5)
    lm = mat_rng.normal(size=(10, 4))
    mp = mat_rng.normal(size=(10, 4))
    tb = build_triples(lm, mp, [0, 5, 10], seed=8)
    mat = tb.materialize(lm, mp)
    flat = chunked_triplet_total(mat, 1.0, chunk=len(mat))
    chunk_ok = all(
        chunked_triplet_total(mat, 1.0, chunk=k) == flat for k in (1, 2, len(mat))
    )
    record(
        "3 loss-oracles", exact == 100 and chunk_ok,
        f"{exact}/100 exact matches, chunk identity {'holds' if chunk_ok else 'broken'}",
    )


def test_c4_neutrality_identities():
    """Zero cross-embeddings reduce the joint fusions to their baselines
    bitwise (the encoder-injection variant pools the token mean by design,
    so its check compares the shared packed encoder output bitwise plus
    the prediction against a weight-sharing mean-pooled reference); zero
    contrast weights reduce both contrastive losses to baseline losses."""
    checks = []

    model = tiny_model("mpnn2lm", fusion="sum")
    zero_mpnn_input(model)
    mols = mols_for(["CC(=O)O", "C1CC1"])
    gb = GraphBatch.from_graphs([m.graph for m in mols])
    tape = Tape(grad_enabled=False)
    states = model.gnn.run(tape, gb)
    checks.append(not states.values.any())
    preds = model._forward_mpnn2lm(tape, mols, gb, states)
    packed = pack_batch([m.tokens for m in mols])
    ref_tape = Tape(grad_enabled=False)
    e_out_base = model.encoder.forward(ref_tape, packed)
    inj = Tape(grad_enabled=False)
    e_in = model.encoder.embed(inj, packed.token_ids, packed.positions)
    zeros = constant(np.zeros(e_in.shape))
    e_out_inj = model.encoder.encode(
        inj, inj.apply("add", e_in, zeros), packed.offsets
    )
    checks.append(np.array_equal(e_out_inj.values, e_out_base.values))
    pooled = ref_tape.apply("segment-mean", e_out_base, offsets=packed.offsets)
    ref = model.head.forward(ref_tape, pooled)
    checks.append(np.array_equal(preds.values, ref.values))

    model = tiny_model("lm2mpnn", fusion="sum")
    mols = mols_for(["CC(=O)O", "C1CC1"])
    gb = GraphBatch.from_graphs([m.graph for m in mols])
    tape = Tape(grad_enabled=False)
    preds = model._forward_lm2mpnn(
        tape, gb, constant(np.zeros((gb.num_nodes, 8)))
    )
    ref_tape = Tape(grad_enabled=False)
    pooled = model._mpnn_readout(ref_tape, gb)
    checks.append(
        np.array_equal(preds.values, model.head.forward(ref_tape, pooled).values)
    )

    node_model = tiny_model("contrast-node", alpha=0.0)
    mols = mols_for(["CCO", "C1CC1"], [0.3, -0.8])
    total, _, _ = node_model.forward_batch(Tape(), mols, batch_seed=5)
    ref_tape = Tape()
    _, lm_nodes = node_model._lm_outputs(ref_tape, mols, want_nodes=True)
    gb = GraphBatch.from_graphs([m.graph for m in mols])
    per_graph = ref_tape.apply("segment-mean", lm_nodes, offsets=gb.offsets)
    ref_loss = node_model._prediction_loss(
        ref_tape, node_model.head.forward(ref_tape, per_graph),
        np.array([0.3, -0.8]),
    )
    checks.append(float(total.values) == float(ref_loss.values))

    graph_model = tiny_model("contrast-graph", seed=3, alpha=0.0)
    baseline = tiny_model("lm-baseline", seed=3)
    mols = mols_for(["CCO", "CC(=O)O"], [0.1, 0.9])
    loss_g, _, _ = graph_model.forward_batch(Tape(), mols, batch_seed=1)
    loss_b, _, _ = baseline.forward_batch(Tape(), mols, batch_seed=1)
    checks.append(float(loss_g.values) == float(loss_b.values))

    record(
        "4 neutrality", all(checks),
        f"{sum(checks)}/{len(checks)} bitwise identities hold",
    )


def test_c5_structural_invariances():
    """Permutation invariance and batch independence of the message
    passer (< 1e-9), batch invariance of the packed encoder (< 1e-9),
    attention rows normalized (< 1e-12) and confined to their sequence."""
    from molfuse.gnn import Mpnn
    from molfuse.lm import SmilesEncoder

    config = RunConfig(hidden_dim=64, num_layers=3, num_heads=4, ffn_dim=256,
                       max_len=64, message_steps=3)
    rng = np.random.default_rng(17)
    mpnn = Mpnn(config, rng)
    graph = parse("N#Cc1ccccc1")
    perm = np.random.default_rng(3).permutation(graph.num_atoms)
    permuted = parse("N#Cc1ccccc1")
    inv = np.argsort(perm)
    permuted.atoms = [graph.atoms[i] for i in perm]
    for b_new, b_old in zip(permuted.bonds, graph.bonds):
        b_new.u, b_new.v = int(inv[b_old.u]), int(inv[b_old.v])
    permuted.node_features = graph.node_features[perm]
    permuted.bond_index = inv[graph.bond_index]

    def readout_of(graphs, pick):
        gb = GraphBatch.from_graphs(graphs)
        tape = Tape(grad_enabled=False)
        return mpnn.readout(tape, mpnn.run(tape, gb), gb).values[pick]

    perm_drift = np.abs(
        readout_of([graph], 0) - readout_of([permuted], 0)
    ).max()
    batch_drift = np.abs(
        readout_of([graph], 0)
        - readout_of([parse("CCO"), graph, parse("C")], 1)
    ).max()

    encoder = SmilesEncoder(config, 24, np.random.default_rng(0))

    def sequence(ids):
        return TokenSequence(
            token_ids=ids,
            atom_token_positions=list(range(1, len(ids))),
        )

    target = sequence([0, 5, 6, 7, 8, 9])
    tape = Tape(grad_enabled=False)
    base = encoder.forward(tape, pack_batch([target])).values
    packed = pack_batch([sequence([0, 9, 8]), target, sequence(list(range(16)))])
    attn = []
    batch = encoder.forward(tape, packed, collect_attention=attn).values
    batch_drift_lm = np.abs(batch[packed.offsets[1]:packed.offsets[2]] - base).max()
    attn_row_err = max(np.abs(probs.sum(axis=-1) - 1.0).max() for probs in attn)
    # one (heads x L x L) block per sequence: no row sees another sequence
    own_rows = [p.shape for p in attn] == [(4, 3, 3), (4, 6, 6), (4, 16, 16)] * 3

    passed = (
        perm_drift < 1e-9
        and batch_drift < 1e-9
        and batch_drift_lm < 1e-9
        and attn_row_err < 1e-12
        and own_rows
    )
    record(
        "5 invariances", passed,
        f"perm {perm_drift:.1e}, batch {batch_drift:.1e}, "
        f"encoder batch {batch_drift_lm:.1e}, attn {attn_row_err:.1e}",
    )


def test_c6_determinism(tmp_path):
    """Two identical single-seed runs produce identical reports (wall
    clock excluded; it is the one non-reproducible field)."""
    args = [
        "train", "--strategy", "contrast-node", "--dataset", ESOL,
        "--seeds", "0", "--max-epochs", "2", "--patience", "5",
    ]
    outs = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        assert main(args + ["--out", str(out_dir)]) == 0
        records = [
            json.loads(line)
            for line in (out_dir / "report.jsonl").read_text().splitlines()
        ]
        for rec in records:
            rec.pop("timing", None)
        outs.append(records)
    passed = outs[0] == outs[1]
    detail = "reports identical"
    if not passed:
        detail = "reports differ"
    record("6 determinism", passed, detail)


@pytest.mark.parametrize("dataset,task,label", [
    (ESOL, "regression", "esol"),
    (BBBP, "binary-classification", "bbbp"),
], ids=["esol", "bbbp"])
def test_c7_desk_scale_learning(dataset, task, label):
    """Every strategy beats the naive baseline on the full bundled
    datasets within 50 epochs, well under 30 min per seed."""
    details = []
    passed = True
    for strategy in STRATEGIES:
        config = RunConfig(
            strategy=strategy, dataset=dataset, task=task, seeds=(0,),
            max_epochs=5, patience=5,
        )
        started = time.time()
        _, result = train_one(config, 0)
        elapsed = time.time() - started
        if task == "regression":
            ok = result.test_metric < result.naive_metric
        else:
            ok = result.test_metric > result.naive_metric
        ok = ok and not result.failed and elapsed < 1800
        passed = passed and ok
        details.append(
            f"{strategy} {result.test_metric:.4f} vs naive "
            f"{result.naive_metric:.4f} in {elapsed:.0f}s"
        )
        print(f"  [{label}] {details[-1]} {'ok' if ok else 'FAIL'}")
    record(f"7 desk-scale-learning [{label}]", passed, "; ".join(details))


def test_c8_complexity_ordering():
    """Median per-epoch time: graph-level contrast <= node-level contrast
    over 5 measured epochs; doubling the sequence length scales the
    attention core by a factor in [2, 6] (quadratic cost predicts ~4)."""
    config = RunConfig(strategy="contrast-node", dataset=ESOL, seeds=(0,))
    profile = profile_strategies(
        config, ["contrast-graph", "contrast-node"],
        measured_epochs=5, warmup_epochs=1,
    )
    verdict = profile["verdicts"][0]
    scaling = attention_scaling(base_len=128, repeats=25)
    ratio_ok = 2.0 <= scaling["ratio"] <= 6.0
    passed = verdict["passed"] and ratio_ok
    record(
        "8 complexity-ordering", passed,
        f"graph {verdict['faster']:.3f}s vs node {verdict['slower']:.3f}s; "
        f"attention doubling ratio {scaling['ratio']:.2f}",
    )


def test_c9_ablation_tables(tmp_path, capsys):
    """The three ablation harnesses emit tables with the expected rows,
    mean +/- std cells over the five protocol seeds, and the footer
    disclaiming numeric comparability."""
    tiny = tmp_path / "tiny.csv"
    write_dataset(tiny, "esol", 80, seed=77)
    flags = [
        "--dataset", str(tiny), "--hidden-dim", "16", "--num-layers", "1",
        "--num-heads", "2", "--ffn-dim", "24", "--message-steps", "1",
        "--batch-size", "16", "--max-epochs", "2", "--patience", "3",
    ]
    expectations = {
        "splits": ["9:0.5:0.5", "8:1:1", "7:2:1", "6:2:2"],
        "fusion": ["sum", "max", "concat", "gate"],
        "gnn": ["mpnn", "graphconv"],
    }
    passed = True
    details = []
    for kind, rows in expectations.items():
        code = main(["ablate", kind, "--out", str(tmp_path / kind)] + flags)
        out = capsys.readouterr().out
        table = (tmp_path / kind / "ablation.txt").read_text()
        cells = [
            line for line in table.splitlines()
            if any(line.startswith(row) for row in rows) and "±" in line
        ]
        jsonl = (tmp_path / kind / "ablation.jsonl").read_text().splitlines()
        seeds_ok = all(
            [r["seed"] for r in json.loads(line)["seeds"]] == [0, 7, 42, 100, 2024]
            for line in jsonl
        )
        ok = (
            code == 0
            and len(cells) == len(rows)
            and "no numeric match" in table
            and seeds_ok
            and len(jsonl) == len(rows)
        )
        passed = passed and ok
        details.append(f"{kind} {len(cells)}/{len(rows)} rows")
    record("9 ablation-harness", passed, "; ".join(details))
