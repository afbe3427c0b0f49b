"""SMILES tokenization, molecular-graph parsing, and featurization.

The same greedy longest-match grammar drives both pipelines, so atom
tokens and graph atoms always come out in the same (emission) order and
align 1:1. Supported subset: organic-subset atoms B C N O P S F Cl Br I,
aromatic lowercase b c n o p s, bracket atoms with isotope/H-count/charge,
bond symbols - = # :, branches, ring closures 1-9 and %nn. Stereo markers
(/ \\ and in-bracket @) are consumed and ignored, with a warning recorded.
No kekulization and no valence validation is attempted; aromatic bonds
carry order 1.5.
"""

from dataclasses import dataclass

import numpy as np

# symbol -> (atomic number, period, group, default valence)
ELEMENTS = {
    "B": (5, 2, 13, 3),
    "C": (6, 2, 14, 4),
    "N": (7, 2, 15, 3),
    "O": (8, 2, 16, 2),
    "F": (9, 2, 17, 1),
    "P": (15, 3, 15, 3),
    "S": (16, 3, 16, 2),
    "Cl": (17, 3, 17, 1),
    "Br": (35, 4, 17, 1),
    "I": (53, 5, 17, 1),
}
AROMATIC_SYMBOLS = {"b", "c", "n", "o", "p", "s"}
BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5, "/": 1.0, "\\": 1.0}

# the (token, is_atom) pair of every token with a fixed spelling, built
# once: the lists tokenize_raw returns share them, so a graph that keeps
# its list (MolecularGraph.tokens) holds one pointer per such token
_FIXED_TOKENS = {
    **{t: (t, True) for t in (*ELEMENTS, *AROMATIC_SYMBOLS)},
    **{t: (t, False) for t in (*"0123456789()", *BOND_ORDERS)},
}

# organic-subset atom token -> the Atom(symbol, aromatic) it makes
_ORGANIC_ATOMS = {
    **{t: (t, False) for t in ELEMENTS},
    **{t: (t.upper(), True) for t in AROMATIC_SYMBOLS},
}
# (order, conjugated) of a bond with no symbol between two aromatic atoms,
# or written ':', and of any other bond with no symbol
_AROMATIC_BOND = (1.5, True)
_SINGLE_BOND = (1.0, False)

NODE_FEATURE_DIM = 9
EDGE_FEATURE_DIM = 4


class SmilesError(ValueError):
    """Tokenization or parse failure; message names the offending piece."""


@dataclass(slots=True)
class Atom:
    symbol: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None  # None = implicit (non-bracket atom)
    isotope: int = 0
    in_ring: bool = False
    degree: int = 0


@dataclass(slots=True)
class Bond:
    u: int
    v: int
    order: float = 1.0
    conjugated: bool = False
    in_ring: bool = False


@dataclass(slots=True, eq=False)
class MolecularGraph:
    """One parsed molecule, as training reads it: the (atoms x 9) node and
    (bonds x 4) edge feature rows, ``bond_index``, the (bonds x 2) int64
    endpoints (u, v) of every bond in bond order, the :func:`tokenize_raw`
    list the SMILES was read from (kept so that set-up scans each SMILES
    once) and the parse's warnings. A dataset keeps one per record; the
    parse's ``Atom`` and ``Bond`` objects are freed with its walk.
    """

    node_features: np.ndarray
    edge_features: np.ndarray
    bond_index: np.ndarray
    tokens: list
    warnings: tuple

    @property
    def num_atoms(self):
        return self.node_features.shape[0]

    @property
    def num_bonds(self):
        return self.bond_index.shape[0]


@dataclass
class TokenSequence:
    token_ids: list
    atom_token_positions: list
    unknown_tokens: int = 0

    def __len__(self):
        return len(self.token_ids)


class Vocabulary:
    """Dense token -> id map; the four lowest ids are reserved."""

    CLS, PAD, MASK, UNK = 0, 1, 2, 3
    RESERVED = ("<cls>", "<pad>", "<mask>", "<unk>")

    def __init__(self, tokens=()):
        self.token_to_id = {t: i for i, t in enumerate(self.RESERVED)}
        for t in tokens:
            if t not in self.token_to_id:
                self.token_to_id[t] = len(self.token_to_id)

    def __len__(self):
        return len(self.token_to_id)

    @classmethod
    def build(cls, smiles_iter):
        """Vocabulary over every token occurring in the given strings."""
        return cls.from_token_lists(tokenize_raw(s) for s in smiles_iter)

    @classmethod
    def from_token_lists(cls, raw_lists):
        """Vocabulary over every token of the given :func:`tokenize_raw`
        lists, in order of first occurrence."""
        return cls(tok for raw in raw_lists for tok, _ in raw)


def _parse_bracket(token):
    """Split a bracket-atom token into (symbol, aromatic, charge, hcount, isotope)."""
    body = token[1:-1]
    i = 0
    isotope = 0
    while i < len(body) and body[i].isdigit():
        isotope = isotope * 10 + int(body[i])
        i += 1
    symbol = None
    aromatic = False
    if body[i:i + 2] in ELEMENTS:
        symbol = body[i:i + 2]
        i += 2
    elif body[i:i + 1] in ELEMENTS:
        symbol = body[i]
        i += 1
    elif body[i:i + 1] in AROMATIC_SYMBOLS:
        symbol = body[i].upper()
        aromatic = True
        i += 1
    else:
        raise SmilesError(f"unknown element in bracket atom '{token}'")
    hcount = 0
    charge = 0
    while i < len(body):
        ch = body[i]
        if ch == "@":  # chirality: tolerated and ignored
            i += 1
        elif ch == "H":
            i += 1
            digits = ""
            while i < len(body) and body[i].isdigit():
                digits += body[i]
                i += 1
            hcount = int(digits) if digits else 1
        elif ch in "+-":
            sign = 1 if ch == "+" else -1
            i += 1
            digits = ""
            while i < len(body) and body[i].isdigit():
                digits += body[i]
                i += 1
            if digits:
                charge += sign * int(digits)
            else:
                charge += sign
                while i < len(body) and body[i] == ch:
                    charge += sign
                    i += 1
        elif ch == ":":
            i += 1
            while i < len(body) and body[i].isdigit():
                i += 1
        else:
            raise SmilesError(f"cannot read bracket atom '{token}' at '{ch}'")
    return symbol, aromatic, charge, hcount, isotope


def tokenize_raw(smiles):
    """Greedy longest-match scan; returns [(token, is_atom), ...].

    Bracket atoms are single tokens; Cl/Br match before one-letter
    elements. Raises on unmatched '[' and on bracket atoms whose element
    is unsupported. Characters outside the grammar become one-character
    non-atom tokens (the parser rejects them; the tokenizer maps them to
    the unknown id).
    """
    if not smiles:
        raise SmilesError("empty SMILES string")
    out = []
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            j = smiles.find("]", i)
            if j < 0:
                raise SmilesError(f"unmatched '[' at position {i}")
            token = smiles[i:j + 1]
            _parse_bracket(token)  # validates the element now
            out.append((token, True))
            i = j + 1
        elif smiles[i:i + 2] in ("Cl", "Br"):
            out.append(_FIXED_TOKENS[smiles[i:i + 2]])
            i += 2
        elif ch in _FIXED_TOKENS:
            out.append(_FIXED_TOKENS[ch])
            i += 1
        elif ch == "%":
            if i + 2 >= n or not smiles[i + 1:i + 3].isdigit():
                raise SmilesError(f"'%' needs two digits at position {i}")
            out.append((smiles[i:i + 3], False))
            i += 3
        elif ch.isdigit() or (ch.isprintable() and not ch.isspace()):
            out.append((ch, False))
            i += 1
        else:
            raise SmilesError(f"unreadable character at position {i}")
    return out


def tokenize(raw, vocab):
    """TokenSequence of a :func:`tokenize_raw` list, with CLS prepended and
    atom positions collected.

    Tokens absent from the vocabulary map to the unknown id; atom tokens
    keep their position in the alignment either way.
    """
    lookup = vocab.token_to_id.get
    unk = Vocabulary.UNK
    token_ids = [Vocabulary.CLS]
    token_ids += [lookup(tok, unk) for tok, _ in raw]
    return TokenSequence(
        token_ids=token_ids,
        atom_token_positions=[
            pos for pos, (_, is_atom) in enumerate(raw, 1) if is_atom],
        unknown_tokens=token_ids.count(unk),
    )


def parse(smiles):
    """MolecularGraph of a SMILES string, atoms in emission order.

    Ring-closure bonds connect opener and closer; a bond between two
    aromatic atoms with no explicit symbol gets order 1.5 with the
    aromatic/conjugated flags, everything else defaults to a single bond.

    Every atom after the first bonds to ``prev`` (the atom before it or its
    branch point), so the bonds made that way form a spanning tree, and a
    ring closure is the only bond that can close a cycle or repeat a bond.
    A bond lies on a cycle exactly when it is a closure or lies on the tree
    path between a closure's two ends, and an atom does when it ends such
    a bond; each closure marks its path as it is made.
    """
    raw = tokenize_raw(smiles)
    atoms = []
    bonds = []
    warnings = []
    branch_stack = []
    ring_open = {}  # label -> (atom index, pending order at open)
    prev = None
    pending = None  # (order, explicit aromatic flag)
    # per atom: its parent in the tree, its depth and its bond to the parent
    parent = [-1]
    depth = [0]
    up = [None]
    closures = set()  # (low, high) atom pair of every closure bond made
    duplicate = None  # the first repeated (low, high) pair, reported last

    for tok, is_atom in raw:
        if is_atom:
            organic = _ORGANIC_ATOMS.get(tok)
            if organic is not None:
                atom = Atom(*organic)
            else:
                symbol, aromatic, charge, hcount, isotope = _parse_bracket(tok)
                atom = Atom(symbol, aromatic, charge, hcount, isotope)
                if "@" in tok:
                    warnings.append(f"ignored chirality in '{tok}'")
            idx = len(atoms)
            atoms.append(atom)
            if prev is not None:
                a = atoms[prev]
                order, arom = pending or (
                    _AROMATIC_BOND if a.aromatic and atom.aromatic
                    else _SINGLE_BOND)
                bond = Bond(prev, idx, order, arom)
                bonds.append(bond)
                a.degree += 1
                atom.degree = 1
                parent.append(prev)
                depth.append(depth[prev] + 1)
                up.append(bond)
            pending = None
            prev = idx
        elif tok == "(":
            if prev is None:
                raise SmilesError("branch opened before any atom")
            branch_stack.append(prev)
        elif tok == ")":
            if not branch_stack:
                raise SmilesError("unbalanced parentheses: ')' without '('")
            prev = branch_stack.pop()
        elif tok in BOND_ORDERS:
            if tok in ("/", "\\"):
                warnings.append(f"ignored stereo bond '{tok}'")
                pending = (1.0, False)
            elif tok == ":":
                pending = _AROMATIC_BOND
            else:
                pending = (BOND_ORDERS[tok], False)
        elif tok.isdigit() or tok.startswith("%"):
            label = tok[1:] if tok.startswith("%") else tok
            if prev is None:
                raise SmilesError(f"ring closure {label} before any atom")
            if label in ring_open:
                opener, open_pending = ring_open.pop(label)
                if opener == prev:
                    raise SmilesError(f"ring {label} closes on its opening atom")
                a, b = atoms[opener], atoms[prev]
                order, arom = pending or open_pending or (
                    _AROMATIC_BOND if a.aromatic and b.aromatic
                    else _SINGLE_BOND)
                bond = Bond(opener, prev, order, arom, in_ring=True)
                bonds.append(bond)
                a.degree += 1
                b.degree += 1
                a.in_ring = b.in_ring = True
                key = (opener, prev) if opener < prev else (prev, opener)
                if duplicate is None and (parent[opener] == prev
                                          or parent[prev] == opener
                                          or key in closures):
                    duplicate = key
                closures.add(key)
                # walk both ends up the tree to where they meet, flagging
                # the tree bonds and atoms on the way
                u, v = opener, prev
                while u != v:
                    if depth[u] < depth[v]:
                        u, v = v, u
                    up[u].in_ring = True
                    u = parent[u]
                    atoms[u].in_ring = True
            else:
                ring_open[label] = (prev, pending)
            pending = None
        else:
            raise SmilesError(f"unsupported token '{tok}'")

    if ring_open:
        labels = ", ".join(sorted(ring_open))
        raise SmilesError(f"unclosed ring {labels}")
    if branch_stack:
        raise SmilesError("unbalanced parentheses: '(' never closed")
    if not atoms:
        raise SmilesError("no atoms found")
    if duplicate is not None:
        raise SmilesError(
            f"duplicate bond between atoms {duplicate[0]} and {duplicate[1]}")

    return MolecularGraph(*featurize(atoms, bonds), raw, tuple(warnings))


def featurize(atoms, bonds):
    """The (atoms x 9) node and (bonds x 4) edge matrices and the
    (bonds x 2) ``bond_index`` of a parse's atoms and bonds.

    Node row: [atomic number / 100, degree, formal charge, H count,
    aromatic, in-ring, period, group, 0]. H count for non-bracket atoms is
    the default valence minus the bond-order sum, clamped at 0; bracket
    atoms use their explicit count. Edge row: [order, conjugated, in-ring,
    aromatic].
    """
    order_sum = [0.0] * len(atoms)
    edge_rows = []
    for b in bonds:
        order_sum[b.u] += b.order
        order_sum[b.v] += b.order
        edge_rows.append((
            b.order,
            1.0 if b.conjugated else 0.0,
            1.0 if b.in_ring else 0.0,
            1.0 if b.order == 1.5 else 0.0,
        ))
    node_rows = []
    for atom, bond_orders in zip(atoms, order_sum):
        number, period, group, valence = ELEMENTS[atom.symbol]
        if atom.explicit_h is not None:
            hydrogens = atom.explicit_h
        else:
            hydrogens = max(valence - bond_orders, 0.0)
        node_rows.append((
            number / 100.0,
            atom.degree,
            atom.formal_charge,
            hydrogens,
            1.0 if atom.aromatic else 0.0,
            1.0 if atom.in_ring else 0.0,
            period,
            group,
            0.0,
        ))
    return (_matrix(node_rows, NODE_FEATURE_DIM, np.float64),
            _matrix(edge_rows, EDGE_FEATURE_DIM, np.float64),
            _matrix([(b.u, b.v) for b in bonds], 2, np.int64))


def _matrix(rows, width, dtype):
    """(len(rows) x width) array of the given rows. It owns its data: a
    reshaped array would keep a second array object alive as its base."""
    return np.array(rows, dtype=dtype) if rows else np.empty((0, width), dtype)


@dataclass
class PackedBatch:
    """A batch of token sequences laid end to end, without padding.

    ``token_ids`` and ``positions`` hold one entry per packed row (the
    position restarts at 0 for every sequence); sequence ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``, and its CLS token is row ``offsets[i]``.
    ``atom_rows`` lists the packed row of every atom token, sequence by
    sequence, in the order the graph parser emits atoms.
    """

    token_ids: np.ndarray
    positions: np.ndarray
    offsets: np.ndarray
    atom_rows: np.ndarray


def pack_batch(sequences):
    """Concatenate sequences into one PackedBatch (see its docstring)."""
    if not sequences:
        raise ValueError("pack_batch: empty batch")
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    starts = np.repeat(offsets[:-1], lengths)
    atom_rows = np.concatenate([
        offsets[i] + np.asarray(seq.atom_token_positions, dtype=np.int64)
        for i, seq in enumerate(sequences)
    ])
    return PackedBatch(
        token_ids=np.concatenate(
            [np.asarray(seq.token_ids, dtype=np.int64) for seq in sequences]
        ),
        positions=np.arange(offsets[-1], dtype=np.int64) - starts,
        offsets=offsets,
        atom_rows=atom_rows,
    )
