import numpy as np
import pytest

from molfuse.smiles import (
    SmilesError,
    Vocabulary,
    detokenize,
    pack_batch,
    parse,
    tokenize,
    tokenize_raw,
)


@pytest.fixture(scope="module")
def vocab():
    from tests.conftest import CURATED_CORPUS

    return Vocabulary.build(s for s, *_ in CURATED_CORPUS)


class TestTokenize:
    def test_cco(self, vocab):
        seq = tokenize("CCO", vocab)
        assert seq.raw_tokens == ["<cls>", "C", "C", "O"]
        assert seq.atom_token_positions == [1, 2, 3]
        assert seq.token_ids[0] == Vocabulary.CLS

    def test_phenol_tokens(self, vocab):
        seq = tokenize("C1=CC=C(C=C1)O", vocab)
        expected = ["C", "1", "=", "C", "C", "=", "C", "(", "C", "=", "C", "1", ")", "O"]
        assert seq.raw_tokens[1:] == expected
        assert len(seq.atom_token_positions) == 7

    def test_bracket_atom_single_token(self, vocab):
        seq = tokenize("[NH4+]", vocab)
        assert seq.raw_tokens[1:] == ["[NH4+]"]
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
        seq = tokenize("C~C", vocab)
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
        assert sum(a.in_ring for a in g.atoms) == 6
        assert sum(b.in_ring for b in g.bonds) == 6
        orders = sorted(b.order for b in g.bonds)
        assert orders == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_single_atom(self):
        g = parse("C")
        assert g.num_atoms == 1 and g.num_bonds == 0

    def test_cyclopropane_all_in_ring(self):
        g = parse("C1CC1")
        assert all(a.in_ring for a in g.atoms)
        assert all(b.in_ring for b in g.bonds)

    def test_aromatic_defaults(self):
        g = parse("c1ccccc1")
        assert all(b.order == 1.5 for b in g.bonds)
        assert all(b.conjugated for b in g.bonds)
        assert all(a.aromatic for a in g.atoms)

    def test_atom_emission_order(self):
        g = parse("[NH3+]CC([O-])=O")
        assert [a.symbol for a in g.atoms] == ["N", "C", "C", "O", "O"]
        assert g.atoms[0].formal_charge == 1
        assert g.atoms[3].formal_charge == -1

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
            seq = tokenize(s, vocab)
            g = parse(s)
            assert len(seq.atom_token_positions) == g.num_atoms, s
            assert seq.atom_token_positions == sorted(seq.atom_token_positions)
            assert all(p >= 1 for p in seq.atom_token_positions)

    def test_round_trip(self, corpus_smiles, vocab):
        for s in corpus_smiles:
            if "/" in s or "\\" in s:
                continue
            assert detokenize(tokenize(s, vocab)) == s


class TestPackBatch:
    def test_offsets_positions_and_atom_rows(self, vocab):
        seqs = [tokenize("CCO", vocab), tokenize("C", vocab)]
        packed = pack_batch(seqs)
        np.testing.assert_array_equal(packed.offsets, [0, 4, 6])
        np.testing.assert_array_equal(packed.positions, [0, 1, 2, 3, 0, 1])
        np.testing.assert_array_equal(
            packed.token_ids, seqs[0].token_ids + seqs[1].token_ids
        )
        np.testing.assert_array_equal(packed.atom_rows, [1, 2, 3, 5])

    def test_single_sequence_is_unchanged(self, vocab):
        seq = tokenize("CC(=O)O", vocab)
        packed = pack_batch([seq])
        np.testing.assert_array_equal(packed.token_ids, seq.token_ids)
        np.testing.assert_array_equal(packed.positions, np.arange(len(seq)))
        np.testing.assert_array_equal(packed.atom_rows, seq.atom_token_positions)

    def test_identical_rows(self, vocab):
        seqs = [tokenize("CC(=O)O", vocab) for _ in range(3)]
        packed = pack_batch(seqs)
        blocks = packed.token_ids.reshape(3, -1)
        assert (blocks[0] == blocks[1]).all() and (blocks[1] == blocks[2]).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pack_batch([])
