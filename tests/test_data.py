import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from molfuse.data import (
    CLASSIFICATION,
    REGRESSION,
    Lcg64,
    SplitSpec,
    batch_iter,
    load_csv,
    naive_baseline,
    parse_ratio_string,
    split,
)
from molfuse.gnn import GraphBatch
from molfuse.synthdata import generate_rows, random_molecule, write_smiles
from molfuse.smiles import Atom, Bond, MolecularGraph, parse, tokenize_raw

from tests.conftest import loaded_record

DATA = Path(__file__).resolve().parent.parent / "data"
# (file, label column, task) of the two bundled datasets
BUNDLED = {
    "esol": ("esol.csv", "log_solubility", REGRESSION),
    "bbbp": ("bbbp.csv", "p_np", CLASSIFICATION),
}


def make_records(n):
    return [loaded_record("C", float(i), i) for i in range(n)]


class TestSplit:
    def test_sizes_1128(self):
        train, valid, test = split(make_records(1128), SplitSpec((0.8, 0.1, 0.1), 0))
        assert (len(train), len(valid), len(test)) == (902, 112, 114)

    def test_sizes_10(self):
        train, valid, test = split(make_records(10), SplitSpec((0.8, 0.1, 0.1), 0))
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_deterministic(self):
        recs = make_records(200)
        a = split(recs, SplitSpec((0.8, 0.1, 0.1), 42))
        b = split(recs, SplitSpec((0.8, 0.1, 0.1), 42))
        for pa, pb in zip(a, b):
            assert [r.row_index for r in pa] == [r.row_index for r in pb]

    def test_seed_changes_membership(self):
        recs = make_records(200)
        a = split(recs, SplitSpec((0.8, 0.1, 0.1), 0))
        b = split(recs, SplitSpec((0.8, 0.1, 0.1), 7))
        assert [r.row_index for r in a[0]] != [r.row_index for r in b[0]]

    def test_partitions_disjoint_and_complete(self):
        recs = make_records(137)
        train, valid, test = split(recs, SplitSpec((0.7, 0.2, 0.1), 2024))
        ids = [r.row_index for part in (train, valid, test) for r in part]
        assert sorted(ids) == list(range(137))
        assert len(set(ids)) == 137

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(make_records(5), SplitSpec((0.8, 0.1, 0.1), 0))

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec((0.8, 0.2, 0.0), 0)
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.2, 0.2), 0)

    def test_parse_ratio_string(self):
        assert parse_ratio_string("8:1:1") == pytest.approx((0.8, 0.1, 0.1))
        assert parse_ratio_string("9:0.5:0.5") == pytest.approx((0.9, 0.05, 0.05))
        assert parse_ratio_string("6:2:2") == pytest.approx((0.6, 0.2, 0.2))


class TestLcg64:
    def test_documented_recurrence(self):
        gen = Lcg64(1)
        first = (6364136223846793005 * 1 + 1442695040888963407) % (1 << 64)
        assert gen.next_u64() == first

    def test_shuffle_is_permutation(self):
        items = list(range(50))
        out = Lcg64(9).shuffle(list(items))
        assert sorted(out) == items and out != items


class TestBatchIter:
    def test_partial_tail_kept(self):
        batches = list(batch_iter(make_records(10), 4, epoch_seed=0))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self):
        recs = make_records(30)
        a = [r.row_index for b in batch_iter(recs, 8, 5) for r in b]
        b = [r.row_index for b in batch_iter(recs, 8, 5) for r in b]
        assert a == b

    def test_different_seed_different_order(self):
        recs = make_records(120)
        a = [r.row_index for b in batch_iter(recs, 16, 1) for r in b]
        b = [r.row_index for b in batch_iter(recs, 16, 2) for r in b]
        assert a != b

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iter(make_records(4), 0, 0))


class TestNaiveBaseline:
    def test_regression_example(self):
        train = [loaded_record("C", y, i) for i, y in enumerate([0.0, 0.0, 4.0])]
        test = [loaded_record("C", 2.0, 9)]
        assert naive_baseline(train, test, REGRESSION) == pytest.approx(2.0 / 3.0)

    def test_all_same_class(self):
        train = [loaded_record("C", 1.0, i) for i in range(5)]
        test = [loaded_record("C", 1.0, i) for i in range(3)]
        assert naive_baseline(train, test, CLASSIFICATION) == 1.0

    def test_balanced_test_majority(self):
        train = [loaded_record("C", 1.0, i) for i in range(6)] + [
            loaded_record("C", 0.0, i) for i in range(6, 10)
        ]
        test = [loaded_record("C", float(i % 2), i) for i in range(10)]
        assert naive_baseline(train, test, CLASSIFICATION) == 0.5


class TestLoadCsv(object):
    def _write(self, path, rows, header="smiles,y"):
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

    def test_loads_in_order_and_quarantines(self, tmp_path):
        f = tmp_path / "d.csv"
        self._write(f, ["CCO,1.0", "C.C,2.0", "C1CC1,0.5", "CCC,"])
        res = load_csv(f, "smiles", "y", REGRESSION)
        assert [r.smiles for r in res.records] == ["CCO", "C1CC1"]
        assert [r.row_index for r in res.records] == [0, 2]
        assert len(res.quarantined) == 2
        reasons = [q.reason for q in res.quarantined]
        assert any("unsupported token" in r for r in reasons)
        assert any("missing label" in r for r in reasons)

    def test_quarantined_plus_loaded_equals_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        self._write(f, ["CCO,1.0", "[Zz]C,2.0", "CC,3.0", "CO,bad"])
        res = load_csv(f, "smiles", "y", REGRESSION)
        assert len(res.records) + len(res.quarantined) == 4

    def test_missing_column_names_available(self, tmp_path):
        f = tmp_path / "d.csv"
        self._write(f, ["CCO,1.0"])
        with pytest.raises(ValueError, match="smiles"):
            load_csv(f, "mol", "y", REGRESSION)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(f, "smiles", "y", REGRESSION)

    def test_non_binary_label_quarantined(self, tmp_path):
        f = tmp_path / "d.csv"
        self._write(f, ["CCO,0", "CC,0.7"])
        res = load_csv(f, "smiles", "y", CLASSIFICATION)
        assert len(res.records) == 1 and len(res.quarantined) == 1


def load_bundled(name):
    file, column, task = BUNDLED[name]
    return load_csv(DATA / file, "smiles", column, task)


def array_key(array):
    return array.dtype.str, array.shape, array.tobytes()


def atoms_and_bonds_alive():
    gc.collect()
    return sum(isinstance(o, (Atom, Bond)) for o in gc.get_objects())


class TestLoadedRecord:
    """A loaded record keeps its parse's arrays and tokens, not its atoms
    and bonds, and everything built from it is bitwise the parse's."""

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_holds_exactly_what_parse_gives(self, name):
        records = load_bundled(name).records
        assert len(records) > 1000
        for rec in records:
            kept, ref = rec.graph, parse(rec.smiles)
            assert type(kept) is MolecularGraph, rec.smiles
            assert kept.num_atoms == ref.num_atoms, rec.smiles
            for attr in ("node_features", "edge_features", "bond_index"):
                assert (array_key(getattr(kept, attr))
                        == array_key(getattr(ref, attr))), (rec.smiles, attr)
            assert kept.tokens == ref.tokens == tokenize_raw(rec.smiles)
            assert kept.warnings == ref.warnings, rec.smiles

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_batches_equal_those_of_parsed_graphs(self, name):
        records = load_bundled(name).records
        for lo in range(0, len(records), 32):
            chunk = records[lo:lo + 32]
            kept = GraphBatch.from_graphs([r.graph for r in chunk])
            ref = GraphBatch.from_graphs([parse(r.smiles) for r in chunk])
            for attr in ("node_features", "edge_src", "edge_dst",
                         "edge_features", "offsets"):
                assert (array_key(getattr(kept, attr))
                        == array_key(getattr(ref, attr))), (lo, attr)

    def test_no_atom_or_bond_outlives_the_load(self):
        before = atoms_and_bonds_alive()
        loaded = load_bundled("bbbp")
        assert atoms_and_bonds_alive() == before
        assert sum(r.graph.num_atoms for r in loaded.records) > 40000

    def test_bbbp_record_size(self):
        # tracemalloc's count of what a loaded bbbp record holds: 9.4 KB
        # with its atoms and bonds, 4.2 KB without them
        load_bundled("bbbp")  # a first load fills one-off caches
        tracemalloc.start()
        try:
            loaded = load_bundled("bbbp")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(loaded.records) <= 5.5 * 1024


class TestSynthData:
    def test_writer_round_trips_through_parser(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            atoms, bonds = random_molecule(rng, int(rng.integers(3, 40)))
            smiles = write_smiles(atoms, bonds)
            back = parse(smiles)
            assert back.num_atoms == len(atoms), smiles
            assert back.num_bonds == len(bonds), smiles

    def test_generated_rows_parse_and_have_labels(self):
        rows = generate_rows(30, seed=11, size_mean=13.3, size_std=4.5,
                             task="regression")
        assert len(rows) == 30
        for smiles, label in rows:
            parse(smiles)
            assert np.isfinite(label)

    def test_classification_rows_binary(self):
        rows = generate_rows(60, seed=5, size_mean=20, size_std=5,
                             task="classification")
        labels = {label for _, label in rows}
        assert labels == {0, 1}

    def test_generation_deterministic(self):
        a = generate_rows(10, seed=7, size_mean=10, size_std=3, task="regression")
        b = generate_rows(10, seed=7, size_mean=10, size_std=3, task="regression")
        assert a == b
