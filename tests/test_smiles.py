import csv
from pathlib import Path

import numpy as np
import pytest

from molfuse.smiles import (
    SmilesError,
    Vocabulary,
    pack_batch,
    parse,
    tokenize,
    tokenize_raw,
)
from molfuse.synthdata import write_dataset

DATA = Path(__file__).resolve().parent.parent / "data"
# feature columns: node rows [atomic number / 100, degree, charge, H count,
# aromatic, in-ring, ...], edge rows [order, conjugated, in-ring, aromatic]
NUMBER, CHARGE, AROMATIC, ATOM_IN_RING = 0, 2, 4, 5
ORDER, CONJUGATED, BOND_IN_RING = 0, 1, 2


@pytest.fixture(scope="module")
def vocab():
    from tests.conftest import CURATED_CORPUS

    return Vocabulary.build(s for s, *_ in CURATED_CORPUS)


class TestTokenize:
    def test_cco(self, vocab):
        seq = tokenize(tokenize_raw("CCO"), vocab)
        assert seq.token_ids == [Vocabulary.CLS] + [
            vocab.token_to_id[t] for t in ("C", "C", "O")
        ]
        assert seq.atom_token_positions == [1, 2, 3]
        assert seq.token_ids[0] == Vocabulary.CLS

    def test_phenol_tokens(self, vocab):
        seq = tokenize(tokenize_raw("C1=CC=C(C=C1)O"), vocab)
        expected = ["C", "1", "=", "C", "C", "=", "C", "(", "C", "=", "C", "1", ")", "O"]
        assert [t for t, _ in tokenize_raw("C1=CC=C(C=C1)O")] == expected
        assert seq.token_ids[1:] == [vocab.token_to_id[t] for t in expected]
        assert len(seq.atom_token_positions) == 7

    def test_bracket_atom_single_token(self, vocab):
        seq = tokenize(tokenize_raw("[NH4+]"), vocab)
        assert seq.token_ids[1:] == [vocab.token_to_id["[NH4+]"]]
        assert seq.unknown_tokens == 0
        assert seq.atom_token_positions == [1]

    def test_two_letter_elements(self, vocab):
        raw = tokenize_raw("ClCBr")
        assert [t for t, _ in raw] == ["Cl", "C", "Br"]
        assert all(is_atom for _, is_atom in raw)

    def test_percent_ring_token(self):
        raw = tokenize_raw("C%10CC%10")
        assert [t for t, _ in raw] == ["C", "%10", "C", "C", "%10"]

    def test_unmatched_bracket(self):
        with pytest.raises(SmilesError, match="unmatched"):
            tokenize_raw("C[NH4")

    def test_unknown_element_in_bracket_is_error(self):
        with pytest.raises(SmilesError, match="unknown element"):
            tokenize_raw("[Xx]")

    def test_unknown_non_atom_token_maps_to_unk(self, vocab):
        seq = tokenize(tokenize_raw("C~C"), vocab)
        assert seq.token_ids[2] == Vocabulary.UNK
        assert seq.unknown_tokens == 1
        assert seq.atom_token_positions == [1, 3]


class TestParse:
    def test_corpus_counts(self, corpus):
        for smiles, atoms, bonds, tokens in corpus:
            g = parse(smiles)
            assert g.num_atoms == atoms, smiles
            assert g.num_bonds == bonds, smiles
            assert len(tokenize_raw(smiles)) == tokens, smiles

    def test_phenol_structure(self):
        g = parse("C1=CC=C(C=C1)O")
        assert g.node_features[:, ATOM_IN_RING].sum() == 6
        assert g.edge_features[:, BOND_IN_RING].sum() == 6
        orders = sorted(g.edge_features[:, ORDER])
        assert orders == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_single_atom(self):
        g = parse("C")
        assert g.num_atoms == 1 and g.num_bonds == 0

    def test_cyclopropane_all_in_ring(self):
        g = parse("C1CC1")
        assert (g.node_features[:, ATOM_IN_RING] == 1.0).all()
        assert (g.edge_features[:, BOND_IN_RING] == 1.0).all()

    def test_aromatic_defaults(self):
        g = parse("c1ccccc1")
        assert (g.edge_features[:, ORDER] == 1.5).all()
        assert (g.edge_features[:, CONJUGATED] == 1.0).all()
        assert (g.node_features[:, AROMATIC] == 1.0).all()

    def test_atom_emission_order(self):
        g = parse("[NH3+]CC([O-])=O")
        numbers = np.rint(g.node_features[:, NUMBER] * 100).tolist()
        assert numbers == [7, 6, 6, 8, 8]  # N C C O O
        assert g.node_features[0, CHARGE] == 1
        assert g.node_features[3, CHARGE] == -1

    def test_unclosed_ring_names_digit(self):
        with pytest.raises(SmilesError, match="unclosed ring 1"):
            parse("C1CC")

    def test_unbalanced_parens(self):
        with pytest.raises(SmilesError, match="parentheses"):
            parse("C(C")
        with pytest.raises(SmilesError, match="parentheses"):
            parse("CC)C")

    def test_unknown_element(self):
        with pytest.raises(SmilesError):
            parse("[Zz]C")

    def test_dot_rejected(self):
        with pytest.raises(SmilesError, match="unsupported token"):
            parse("C.C")

    def test_stereo_tolerated_with_warning(self):
        g = parse("C/C=C/C")
        assert g.num_atoms == 4 and g.num_bonds == 3
        assert any("stereo" in w for w in g.warnings)


def connected_without(graph, removed):
    """Whether the ends of bond ``removed`` stay connected once it is gone."""
    adj = [[] for _ in range(graph.num_atoms)]
    for i, (u, v) in enumerate(graph.bond_index.tolist()):
        if i != removed:
            adj[u].append(v)
            adj[v].append(u)
    start, goal = graph.bond_index[removed].tolist()
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def bond_flags(graph):
    return [flag == 1.0 for flag in graph.edge_features[:, BOND_IN_RING]]


def atom_flags(graph):
    return [flag == 1.0 for flag in graph.node_features[:, ATOM_IN_RING]]


def assert_ring_flags_match_oracle(graph, smiles):
    """A bond is in a ring exactly when its ends stay connected without it;
    an atom is exactly when it ends a ring bond."""
    expected_bonds = [connected_without(graph, i)
                      for i in range(graph.num_bonds)]
    assert bond_flags(graph) == expected_bonds, smiles
    ring_atoms = {end for ends, ring in zip(graph.bond_index.tolist(),
                                            expected_bonds) if ring
                  for end in ends}
    assert atom_flags(graph) == [
        i in ring_atoms for i in range(graph.num_atoms)], smiles


def csv_smiles(path):
    with open(path, newline="") as fh:
        return [row["smiles"] for row in csv.DictReader(fh)]


# (SMILES, in-ring flag of each bond, in-ring flag of each atom)
RING_CASES = [
    # the bond joining the two rings is on no cycle
    ("C1CC1C1CC1", [1, 1, 1, 0, 1, 1, 1], [1] * 6),
    # a spiro atom closes both rings
    ("C1CC12CC2", [1] * 6, [1] * 5),
    # fused rings: the shared bond is on a cycle too
    ("c1ccc2ccccc2c1", [1] * 11, [1] * 10),
    ("C1CC%10CC1%10", [1] * 6, [1] * 5),
    # a closure back from inside a branch; the last C hangs off the ring
    ("C1C(C1)C", [1, 1, 1, 0], [1, 1, 1, 0]),
]

# (SMILES, the repeated atom pair its duplicate-bond error names)
DUPLICATE_CASES = [
    ("C1C1", (0, 1)),  # a closure repeating the tree bond after it
    ("C1(C1)", (0, 1)),  # ... or the tree bond into its branch
    ("C(C1)1", (0, 1)),  # ... or the tree bond back out of a branch
    ("C12CC12", (0, 2)),  # a closure repeating an earlier closure
]


class TestRingFlagsOracle:
    @pytest.mark.parametrize("name", ["esol.csv", "bbbp.csv"])
    def test_bundled_dataset(self, name):
        checked = 0
        for s in csv_smiles(DATA / name):
            try:
                graph = parse(s)
            except SmilesError:
                continue
            assert_ring_flags_match_oracle(graph, s)
            checked += 1
        assert checked > 1000

    def test_generated_bbbp_like_file(self, tmp_path):
        path = tmp_path / "bbbp.csv"
        write_dataset(path, "bbbp", 200, seed=41)
        for s in csv_smiles(path):
            assert_ring_flags_match_oracle(parse(s), s)

    @pytest.mark.parametrize("smiles, bonds_in_ring, atoms_in_ring",
                             RING_CASES, ids=[case[0] for case in RING_CASES])
    def test_named_cases(self, smiles, bonds_in_ring, atoms_in_ring):
        graph = parse(smiles)
        assert list(map(int, bond_flags(graph))) == bonds_in_ring
        assert list(map(int, atom_flags(graph))) == atoms_in_ring
        assert_ring_flags_match_oracle(graph, smiles)


class TestDuplicateBond:
    @pytest.mark.parametrize("smiles, pair", DUPLICATE_CASES,
                             ids=[case[0] for case in DUPLICATE_CASES])
    def test_message_names_the_atoms(self, smiles, pair):
        with pytest.raises(SmilesError) as err:
            parse(smiles)
        assert str(err.value) == (
            f"duplicate bond between atoms {pair[0]} and {pair[1]}")

    def test_end_of_string_checks_come_first(self):
        with pytest.raises(SmilesError) as err:
            parse("C12C12C1")
        assert str(err.value) == "unclosed ring 1"


class TestFeaturize:
    def test_methane_vector(self):
        g = parse("C")
        np.testing.assert_allclose(
            g.node_features[0], [0.06, 0, 0, 4, 0, 0, 2, 14, 0], atol=0
        )

    def test_phenol_oxygen(self):
        g = parse("C1=CC=C(C=C1)O")
        oxy = g.node_features[6]
        assert oxy[3] == 1.0  # one hydrogen
        assert oxy[4] == 0.0  # not aromatic
        assert oxy[1] == 1.0  # degree

    def test_shapes(self, corpus_smiles):
        for s in corpus_smiles:
            g = parse(s)
            assert g.node_features.shape == (g.num_atoms, 9)
            assert g.edge_features.shape == (g.num_bonds, 4)
            assert g.bond_index.shape == (g.num_bonds, 2)
            assert g.bond_index.dtype == np.int64
            # each array owns its data: no second array object as its base
            arrays = (g.node_features, g.edge_features, g.bond_index)
            assert all(a.base is None for a in arrays), s

    def test_benzene_carbon_hydrogens(self):
        g = parse("c1ccccc1")
        assert all(g.node_features[i, 3] == 1.0 for i in range(6))

    def test_pyridine_nitrogen_hydrogens(self):
        g = parse("c1ccncc1")
        n_row = g.node_features[3]
        assert n_row[3] == 0.0

    def test_permutation_covariance(self):
        fwd = parse("CCO")
        rev = parse("OCC")
        np.testing.assert_array_equal(fwd.node_features, rev.node_features[::-1])


class TestAlignment:
    def test_alignment_soundness_on_corpus(self, corpus_smiles, vocab):
        for s in corpus_smiles:
            seq = tokenize(tokenize_raw(s), vocab)
            g = parse(s)
            assert len(seq.atom_token_positions) == g.num_atoms, s
            assert seq.atom_token_positions == sorted(seq.atom_token_positions)
            assert all(p >= 1 for p in seq.atom_token_positions)

    def test_round_trip(self, corpus_smiles, vocab):
        for s in corpus_smiles:
            if "/" in s or "\\" in s:
                continue
            assert "".join(t for t, _ in tokenize_raw(s)) == s


class TestPackBatch:
    def test_offsets_positions_and_atom_rows(self, vocab):
        seqs = [tokenize(tokenize_raw(s), vocab) for s in ("CCO", "C")]
        packed = pack_batch(seqs)
        np.testing.assert_array_equal(packed.offsets, [0, 4, 6])
        np.testing.assert_array_equal(packed.positions, [0, 1, 2, 3, 0, 1])
        np.testing.assert_array_equal(
            packed.token_ids, seqs[0].token_ids + seqs[1].token_ids
        )
        np.testing.assert_array_equal(packed.atom_rows, [1, 2, 3, 5])

    def test_single_sequence_is_unchanged(self, vocab):
        seq = tokenize(tokenize_raw("CC(=O)O"), vocab)
        packed = pack_batch([seq])
        np.testing.assert_array_equal(packed.token_ids, seq.token_ids)
        np.testing.assert_array_equal(packed.positions, np.arange(len(seq)))
        np.testing.assert_array_equal(packed.atom_rows, seq.atom_token_positions)

    def test_identical_rows(self, vocab):
        seqs = [tokenize(tokenize_raw("CC(=O)O"), vocab) for _ in range(3)]
        packed = pack_batch(seqs)
        blocks = packed.token_ids.reshape(3, -1)
        assert (blocks[0] == blocks[1]).all() and (blocks[1] == blocks[2]).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pack_batch([])
