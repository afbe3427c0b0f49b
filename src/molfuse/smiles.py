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

from dataclasses import dataclass, field

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

NODE_FEATURE_DIM = 9
EDGE_FEATURE_DIM = 4


class SmilesError(ValueError):
    """Tokenization or parse failure; message names the offending piece."""


@dataclass
class Atom:
    symbol: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int | None = None  # None = implicit (non-bracket atom)
    isotope: int = 0
    in_ring: bool = False
    degree: int = 0


@dataclass
class Bond:
    u: int
    v: int
    order: float = 1.0
    conjugated: bool = False
    in_ring: bool = False


@dataclass
class MolecularGraph:
    """Atoms and bonds, plus the arrays :func:`featurize` fills from them:
    node and edge feature rows and ``bond_index``, the (bonds x 2) int64
    endpoints (u, v) of every bond in bond order. ``tokens`` is the
    :func:`tokenize_raw` list a graph built by :func:`parse` was read from,
    kept so that set-up scans each SMILES string once.
    """

    atoms: list
    bonds: list
    node_features: np.ndarray = None
    edge_features: np.ndarray = None
    bond_index: np.ndarray = None
    warnings: list = field(default_factory=list)
    tokens: list = field(default=None, repr=False)

    @property
    def num_atoms(self):
        return len(self.atoms)

    @property
    def num_bonds(self):
        return len(self.bonds)


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

    def id_of(self, token):
        return self.token_to_id.get(token, self.UNK)

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


def tokenize(smiles, vocab, raw=None):
    """TokenSequence with CLS prepended and atom positions collected.

    Tokens absent from the vocabulary map to the unknown id; atom tokens
    keep their position in the alignment either way. ``raw``, when given,
    is the string's :func:`tokenize_raw` list, which is then not recomputed.
    """
    if raw is None:
        raw = tokenize_raw(smiles)
    token_ids = [Vocabulary.CLS]
    positions = []
    unk = 0
    for tok, is_atom in raw:
        pos = len(token_ids)
        tid = vocab.id_of(tok)
        if tid == Vocabulary.UNK:
            unk += 1
        token_ids.append(tid)
        if is_atom:
            positions.append(pos)
    return TokenSequence(
        token_ids=token_ids,
        atom_token_positions=positions,
        unknown_tokens=unk,
    )


def _mark_rings(atoms, bonds):
    """Flag atoms/bonds on any cycle: non-bridge edges via iterative DFS."""
    n = len(atoms)
    adj = [[] for _ in range(n)]
    for bi, b in enumerate(bonds):
        adj[b.u].append((b.v, bi))
        adj[b.v].append((b.u, bi))
    disc = [-1] * n
    low = [0] * n
    timer = 0
    is_bridge = [False] * len(bonds)
    for root in range(n):
        if disc[root] >= 0:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, in_edge, it = stack[-1]
            advanced = False
            for nxt, ei in it:
                if ei == in_edge:
                    continue
                if disc[nxt] < 0:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, ei, iter(adj[nxt])))
                    advanced = True
                    break
                low[node] = min(low[node], disc[nxt])
            if not advanced:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        is_bridge[in_edge] = True
    for bi, b in enumerate(bonds):
        if not is_bridge[bi]:
            b.in_ring = True
            atoms[b.u].in_ring = True
            atoms[b.v].in_ring = True


def parse(smiles):
    """MolecularGraph with atoms in SMILES emission order.

    Ring-closure bonds connect opener and closer; a bond between two
    aromatic atoms with no explicit symbol gets order 1.5 with the
    aromatic/conjugated flags, everything else defaults to a single bond.
    """
    raw = tokenize_raw(smiles)
    atoms = []
    bonds = []
    warnings = []
    branch_stack = []
    ring_open = {}  # label -> (atom index, pending order at open)
    prev = None
    pending = None  # (order, explicit aromatic flag)

    def make_bond(u, v, pend):
        a, b = atoms[u], atoms[v]
        if pend is not None:
            order, arom = pend
        elif a.aromatic and b.aromatic:
            order, arom = 1.5, True
        else:
            order, arom = 1.0, False
        bonds.append(Bond(u, v, order=order, conjugated=arom))

    for tok, is_atom in raw:
        if is_atom:
            if tok.startswith("["):
                symbol, aromatic, charge, hcount, isotope = _parse_bracket(tok)
                atom = Atom(symbol, aromatic, charge, hcount, isotope)
                if "@" in tok:
                    warnings.append(f"ignored chirality in '{tok}'")
            elif tok in ELEMENTS:
                atom = Atom(tok)
            else:  # aromatic organic-subset letter
                atom = Atom(tok.upper(), aromatic=True)
            atoms.append(atom)
            idx = len(atoms) - 1
            if prev is not None:
                make_bond(prev, idx, pending)
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
                pending = (1.5, True)
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
                make_bond(opener, prev, pending or open_pending)
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

    seen = set()
    for b in bonds:
        key = (min(b.u, b.v), max(b.u, b.v))
        if key in seen:
            raise SmilesError(f"duplicate bond between atoms {key[0]} and {key[1]}")
        seen.add(key)

    for b in bonds:
        atoms[b.u].degree += 1
        atoms[b.v].degree += 1
    _mark_rings(atoms, bonds)
    graph = MolecularGraph(atoms=atoms, bonds=bonds, warnings=warnings,
                           tokens=raw)
    featurize(graph)
    return graph


def featurize(graph):
    """Fill the (num_atoms x 9) node and (num_bonds x 4) edge matrices and
    the (num_bonds x 2) ``bond_index``.

    Node row: [atomic number / 100, degree, formal charge, H count,
    aromatic, in-ring, period, group, 0]. H count for non-bracket atoms is
    the default valence minus the bond-order sum, clamped at 0; bracket
    atoms use their explicit count. Edge row: [order, conjugated, in-ring,
    aromatic].
    """
    order_sum = [0.0] * graph.num_atoms
    for b in graph.bonds:
        order_sum[b.u] += b.order
        order_sum[b.v] += b.order
    node = np.zeros((graph.num_atoms, NODE_FEATURE_DIM), dtype=np.float64)
    for i, atom in enumerate(graph.atoms):
        number, period, group, valence = ELEMENTS[atom.symbol]
        if atom.explicit_h is not None:
            hydrogens = atom.explicit_h
        else:
            hydrogens = max(valence - order_sum[i], 0.0)
        node[i] = [
            number / 100.0,
            atom.degree,
            atom.formal_charge,
            hydrogens,
            1.0 if atom.aromatic else 0.0,
            1.0 if atom.in_ring else 0.0,
            period,
            group,
            0.0,
        ]
    edge = np.zeros((graph.num_bonds, EDGE_FEATURE_DIM), dtype=np.float64)
    for j, b in enumerate(graph.bonds):
        edge[j] = [
            b.order,
            1.0 if b.conjugated else 0.0,
            1.0 if b.in_ring else 0.0,
            1.0 if b.order == 1.5 else 0.0,
        ]
    graph.node_features = node
    graph.edge_features = edge
    graph.bond_index = np.array(
        [(b.u, b.v) for b in graph.bonds], dtype=np.int64
    ).reshape(-1, 2)
    return node, edge


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
