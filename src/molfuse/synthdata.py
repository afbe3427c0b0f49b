"""Seeded generators for molecule-like SMILES corpora and dataset files.

Used to build the bundled stand-in benchmark CSVs (offline environments
cannot fetch the public originals) and small fixtures for tests. Labels
are deterministic functions of graph structure plus small seeded noise,
so learning methods have honest signal while the naive baselines do not.
"""

import csv

import numpy as np

from .smiles import ELEMENTS, Atom, Bond, parse

_CHAIN_ELEMENTS = ["C", "C", "C", "C", "C", "C", "N", "O", "O", "S", "F", "Cl"]
_HALOGENS = {"F", "Cl", "Br", "I"}
_HALOGEN_NUMBERS = [ELEMENTS[s][0] for s in _HALOGENS]


def _add_atom(atoms, symbol, aromatic=False, charge=0, explicit_h=None, isotope=0):
    atoms.append(Atom(symbol, aromatic, charge, explicit_h, isotope))
    return len(atoms) - 1


def _random_fragment(rng, atoms, bonds):
    """Append one fragment; returns its entry atom index."""
    kind = rng.choice(["chain", "aromatic", "ring"], p=[0.5, 0.28, 0.22])
    if kind == "chain":
        length = int(rng.integers(2, 6))
        first = None
        prev = None
        for _ in range(length):
            sym = _CHAIN_ELEMENTS[rng.integers(0, len(_CHAIN_ELEMENTS))]
            idx = _add_atom(atoms, sym)
            if prev is not None:
                roll = rng.random()
                order = 3.0 if roll < 0.03 else 2.0 if roll < 0.18 else 1.0
                # halogens take single bonds only
                if atoms[idx].symbol in _HALOGENS or atoms[prev].symbol in _HALOGENS:
                    order = 1.0
                bonds.append(Bond(prev, idx, order=order))
            else:
                first = idx
            prev = idx
            if atoms[idx].symbol in _HALOGENS:
                break
        return first
    if kind == "aromatic":
        members = []
        for _ in range(6):
            sym = "N" if rng.random() < 0.15 else "C"
            members.append(_add_atom(atoms, sym, aromatic=True))
        for k in range(6):
            bonds.append(
                Bond(members[k], members[(k + 1) % 6], order=1.5, conjugated=True)
            )
        return members[0]
    size = int(rng.integers(3, 7))
    members = []
    for _ in range(size):
        sym = "O" if rng.random() < 0.1 else "C"
        members.append(_add_atom(atoms, sym))
    for k in range(size):
        bonds.append(Bond(members[k], members[(k + 1) % size], order=1.0))
    return members[0]


def random_molecule(rng, target_atoms):
    """(atoms, bonds) of a random connected molecular graph of roughly
    target_atoms heavy atoms."""
    atoms, bonds = [], []
    while len(atoms) < target_atoms:
        before = len(atoms)
        entry = _random_fragment(rng, atoms, bonds)
        if before > 0:
            degree = np.zeros(before, dtype=int)
            for b in bonds:
                if b.u < before:
                    degree[b.u] += 1
                if b.v < before:
                    degree[b.v] += 1
            open_sites = [i for i in range(before) if degree[i] < 3]
            anchor = int(rng.choice(open_sites)) if open_sites else before - 1
            bonds.append(Bond(anchor, entry, order=1.0))
    # occasional charged sites and isotopes exercise the bracket grammar
    for i, atom in enumerate(atoms):
        if atom.aromatic:
            continue
        roll = rng.random()
        order_sum = sum(b.order for b in bonds if i in (b.u, b.v))
        if atom.symbol == "N" and roll < 0.03:
            atom.formal_charge = 1
            atom.explicit_h = max(int(4 - order_sum), 0)
        elif atom.symbol == "O" and roll < 0.02 and order_sum <= 1:
            atom.formal_charge = -1
            atom.explicit_h = 0
        elif atom.symbol == "C" and roll > 0.995:
            atom.isotope = 13
            atom.explicit_h = max(int(4 - order_sum), 0)
    return atoms, bonds


def _atom_token(atom, order_sum):
    needs_bracket = atom.formal_charge != 0 or atom.isotope or atom.explicit_h is not None
    base = atom.symbol.lower() if atom.aromatic else atom.symbol
    if not needs_bracket:
        return base
    if atom.explicit_h is not None:
        hydrogens = atom.explicit_h
    else:
        hydrogens = max(int(ELEMENTS[atom.symbol][3] - order_sum), 0)
    parts = ["["]
    if atom.isotope:
        parts.append(str(atom.isotope))
    parts.append(base)
    if hydrogens == 1:
        parts.append("H")
    elif hydrogens > 1:
        parts.append(f"H{hydrogens}")
    if atom.formal_charge > 0:
        parts.append("+" if atom.formal_charge == 1 else f"+{atom.formal_charge}")
    elif atom.formal_charge < 0:
        parts.append("-" if atom.formal_charge == -1 else f"-{-atom.formal_charge}")
    parts.append("]")
    return "".join(parts)


def _bond_symbol(bond, a, b):
    if bond.order == 2.0:
        return "="
    if bond.order == 3.0:
        return "#"
    if bond.order == 1.5:
        return "" if (a.aromatic and b.aromatic) else ":"
    return "-" if (a.aromatic and b.aromatic) else ""


def write_smiles(atoms, bonds, stereo_rng=None, stereo_prob=0.0):
    """Serialize a connected molecular graph to SMILES (DFS order from
    atom 0, managed ring digits).

    With stereo_prob > 0, some plain single bonds between non-aromatic
    atoms are written as '/' so downstream parsing exercises the
    tolerated-and-warned stereo path.
    """
    n = len(atoms)
    adj = [[] for _ in range(n)]
    for bi, b in enumerate(bonds):
        adj[b.u].append((b.v, bi))
        adj[b.v].append((b.u, bi))
    order_sum = [0.0] * n
    for b in bonds:
        order_sum[b.u] += b.order
        order_sum[b.v] += b.order

    visited = [False] * n
    tree_children = [[] for _ in range(n)]  # (child, bond index)
    back_edges_at = [[] for _ in range(n)]  # bond indices opening/closing here
    used_bond = [False] * len(bonds)
    stack = [0]
    visited[0] = True
    while stack:
        u = stack.pop()
        for v, bi in adj[u]:
            if used_bond[bi]:
                continue
            used_bond[bi] = True
            if visited[v]:
                back_edges_at[u].append(bi)
                back_edges_at[v].append(bi)
            else:
                visited[v] = True
                tree_children[u].append((v, bi))
                stack.append(v)
    if not all(visited):
        raise ValueError("write_smiles requires a connected graph")

    digit_of = {}
    free_digits = list(range(1, 100))

    def digit_token(d):
        return str(d) if d < 10 else f"%{d:02d}"

    out = []

    def emit(u):
        out.append(_atom_token(atoms[u], order_sum[u]))
        for bi in back_edges_at[u]:
            b = bonds[bi]
            if bi not in digit_of:
                d = free_digits.pop(0)
                digit_of[bi] = d
                out.append(_bond_symbol(b, atoms[b.u], atoms[b.v]))
                out.append(digit_token(d))
            else:
                out.append(digit_token(digit_of.pop(bi)))
        children = tree_children[u]
        for k, (v, bi) in enumerate(children):
            b = bonds[bi]
            sym = _bond_symbol(b, atoms[u], atoms[v])
            if (
                sym == ""
                and b.order == 1.0
                and stereo_rng is not None
                and stereo_rng.random() < stereo_prob
            ):
                sym = "/"
            if k < len(children) - 1:
                out.append("(")
                out.append(sym)
                emit(v)
                out.append(")")
            else:
                out.append(sym)
                emit(v)

    emit(0)
    for bi in list(digit_of):
        free_digits.append(digit_of.pop(bi))
    return "".join(out)


def _graph_stats(graph):
    # node feature columns: atomic number / 100, charge, aromatic, in-ring
    node = graph.node_features
    n = graph.num_atoms
    number = np.rint(node[:, 0] * 100)
    hetero = int((number != ELEMENTS["C"][0]).sum())
    halogen = int(np.isin(number, _HALOGEN_NUMBERS).sum())
    aromatic = int(node[:, 4].sum())
    charged = int((node[:, 2] != 0).sum())
    in_ring = int(node[:, 5].sum())
    cyclomatic = graph.num_bonds - n + 1
    return {
        "atoms": n,
        "rings": max(cyclomatic, 0),
        "hetero": hetero,
        "halogen": halogen,
        "aromatic_frac": aromatic / n,
        "hetero_frac": hetero / n,
        "halogen_frac": halogen / n,
        "charged_frac": charged / n,
        "ring_frac": in_ring / n,
        "charged": charged,
    }


def _solubility_label(stats, rng):
    y = (
        2.0
        - 0.115 * stats["atoms"]
        - 0.40 * stats["rings"]
        - 0.45 * stats["halogen"]
        + 0.22 * stats["hetero"]
        - 1.1 * stats["aromatic_frac"]
        + rng.normal(0.0, 0.25)
    )
    return round(float(y), 5)


def _permeability_score(stats, rng):
    # fraction-dominated so both averaged-token and mean-pooled graph
    # views carry the signal
    return (
        1.6 * stats["aromatic_frac"]
        + 1.0 * stats["hetero_frac"]
        - 1.8 * stats["halogen_frac"]
        - 2.5 * stats["charged_frac"]
        + 0.7 * stats["ring_frac"]
        - 0.02 * (stats["atoms"] - 22.0)
        + rng.normal(0.0, 0.18)
    )


def generate_rows(n_rows, seed, size_mean, size_std, task):
    """(smiles, label) pairs whose SMILES all parse by construction."""
    rng = np.random.default_rng(seed)
    rows = []
    scores = []
    for _ in range(n_rows):
        target = int(np.clip(rng.normal(size_mean, size_std), 3, 60))
        smiles = write_smiles(*random_molecule(rng, target), stereo_rng=rng,
                              stereo_prob=0.01)
        stats = _graph_stats(parse(smiles))  # labels reflect the parsed view
        if task == "regression":
            rows.append((smiles, _solubility_label(stats, rng)))
        else:
            scores.append(_permeability_score(stats, rng))
            rows.append((smiles, None))
    if task != "regression":
        # threshold at the 35th percentile: ~65% positive class
        cut = float(np.quantile(scores, 0.35))
        rows = [(s, 1 if sc > cut else 0) for (s, _), sc in zip(rows, scores)]
    return rows


def _bad_rows(rng, clean_rows, n_dots, n_elements, n_missing, label_fmt):
    bad = []
    for _ in range(n_dots):
        a = clean_rows[rng.integers(0, len(clean_rows))][0]
        bad.append((f"{a}.Cl", label_fmt(rng)))
    for _ in range(n_elements):
        bad.append(("C[Si](C)(C)C" if rng.random() < 0.5 else "[Na+]", label_fmt(rng)))
    for _ in range(n_missing):
        a = clean_rows[rng.integers(0, len(clean_rows))][0]
        bad.append((a, ""))
    return bad


def write_dataset(path, kind, n_records, seed, bad_counts=(0, 0, 0)):
    """Emit a dataset CSV with n_records loadable rows plus injected bad rows.

    kind 'esol' -> regression columns (smiles, log_solubility);
    kind 'bbbp' -> classification columns (smiles, p_np).
    """
    if kind == "esol":
        rows = generate_rows(n_records, seed, 13.3, 4.5, "regression")
        label_col = "log_solubility"
        fmt = lambda rng: round(float(rng.normal(-2.0, 1.0)), 5)
    elif kind == "bbbp":
        rows = generate_rows(n_records, seed, 23.9, 6.5, "classification")
        label_col = "p_np"
        fmt = lambda rng: int(rng.random() < 0.65)
    else:
        raise ValueError(f"unknown dataset kind '{kind}'")
    rng = np.random.default_rng(seed + 1)
    bad = _bad_rows(rng, rows, *bad_counts, fmt)
    merged = list(rows)
    for k, row in enumerate(bad):
        merged.insert(int(rng.integers(0, len(merged))), row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", label_col])
        for smiles, label in merged:
            writer.writerow([smiles, "" if label == "" else label])
    return len(merged)
