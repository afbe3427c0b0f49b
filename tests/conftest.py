import copy

import numpy as np
import pytest

from molfuse.autodiff import Tape, constant
from molfuse.data import DataRecord
from molfuse.smiles import parse

# hand-enumerated: (smiles, atoms, bonds, tokens excluding CLS)
CURATED_CORPUS = [
    ("C", 1, 0, 1),
    ("CCO", 3, 2, 3),
    ("C1=CC=C(C=C1)O", 7, 7, 14),
    ("C1CC1", 3, 3, 5),
    ("[NH4+]", 1, 0, 1),
    ("c1ccccc1", 6, 6, 8),
    ("CC(=O)O", 4, 3, 7),
    ("C#N", 2, 1, 3),
    ("ClCCl", 3, 2, 3),
    ("CBr", 2, 1, 2),
    ("C%10CC%10", 3, 3, 5),
    ("[NH3+]CC([O-])=O", 5, 4, 8),
    ("c1ccncc1", 6, 6, 8),
    ("O=C=O", 3, 2, 5),
    ("CN1CCC1", 5, 5, 7),
    ("C/C=C/C", 4, 3, 7),
    ("N#Cc1ccccc1", 8, 8, 11),
    ("[13CH4]", 1, 0, 1),
    ("CC(C)(C)O", 5, 4, 9),
    ("OCC(O)CO", 6, 5, 8),
]


@pytest.fixture(scope="session")
def corpus():
    return CURATED_CORPUS


@pytest.fixture(scope="session")
def corpus_smiles():
    return [row[0] for row in CURATED_CORPUS]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def loaded_record(smiles, label, row_index):
    """A DataRecord as ``load_csv`` keeps it: with its parse."""
    return DataRecord(smiles, label, row_index, parse(smiles))


def triples(batch, anchors, positives):
    """The (anchor, positive, negative) vectors of a TripleBatch's rows."""
    return [
        (anchors[i], positives[i], positives[j])
        for i, j in zip(batch.anchor_idx, batch.neg_idx)
    ]


def without_timing(records):
    """Report records without their "timing" key, the one key whose values
    differ between two runs of one seed."""
    return [{k: v for k, v in rec.items() if k != "timing"} for rec in records]


def attention_probabilities(qkv, offsets, num_heads):
    """Each sequence's (heads x L x L) probabilities in the packed-attention
    op, read from the op's own output.

    The value rows of every head are replaced by unit vectors, v[j] = e_j
    (the head width must be at least L), so context row i of a head is
    exactly probs[i, :L] followed by zeros.
    """
    qkv = np.array(qkv, dtype=np.float64)
    d = qkv.shape[1] // 3
    dk = d // num_heads
    spans = list(zip(offsets[:-1], offsets[1:]))
    for lo, hi in spans:
        length = hi - lo
        assert length <= dk, "head width below the sequence length"
        unit = np.zeros((length, num_heads, dk))
        unit[np.arange(length), :, np.arange(length)] = 1.0
        qkv[lo:hi, 2 * d:] = unit.reshape(length, d)
    out = Tape(grad_enabled=False).apply(
        "packed-attention", constant(qkv), offsets=offsets, num_heads=num_heads
    ).values
    probs = []
    for lo, hi in spans:
        context = out[lo:hi].reshape(hi - lo, num_heads, dk).transpose(1, 0, 2)
        assert not context[:, :, hi - lo:].any()
        probs.append(context[:, :, :hi - lo])
    return probs


def encoder_attention(encoder, packed):
    """Every layer's per-sequence attention probabilities in
    ``encoder.forward(tape, packed)``, layer by layer."""
    probs = []
    for n, layer in enumerate(encoder.layers):
        trunk = copy.copy(encoder)
        trunk.layers = encoder.layers[:n]  # its output is layer n's input
        tape = Tape(grad_enabled=False)
        qkv = tape.apply("matmul", trunk.forward(tape, packed), layer["wqkv"])
        probs += attention_probabilities(
            qkv.values, packed.offsets, encoder.config.num_heads)
    return probs
