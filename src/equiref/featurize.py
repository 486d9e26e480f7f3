"""Geometric graph construction and featurization for complex structures.

Builds k-NN graphs over all heavy atoms or over CA atoms only, fills the
node and edge feature blocks, computes the chain-local surface-proximity
approximation, and applies training-time Gaussian coordinate corruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GraphTooSmallError, SurfaceOverrideError
from .structio import ComplexStructure, build_residue_frames

# Heavy-atom PDB names across the 20 standard residues, plus a catch-all.
ATOM_TYPES = (
    "N", "CA", "C", "O", "OXT",
    "CB", "CG", "CG1", "CG2",
    "CD", "CD1", "CD2",
    "CE", "CE1", "CE2", "CE3",
    "CZ", "CZ2", "CZ3", "CH2",
    "ND1", "ND2", "NE", "NE1", "NE2", "NZ", "NH1", "NH2",
    "OD1", "OD2", "OE1", "OE2", "OG", "OG1", "OH",
    "SD", "SG",
    "UNK",
)
ATOM_TYPE_INDEX = {name: i for i, name in enumerate(ATOM_TYPES)}

RESIDUE_TYPES = (
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL",
    "UNK",
)
RESIDUE_TYPE_INDEX = {name: i for i, name in enumerate(RESIDUE_TYPES)}

SURFACE_RADIUS = 10.0
SURFACE_MAX_NEIGHBORS = 64
COVALENT_CUTOFF = 1.9
# Pairwise distances are computed for blocks of rows with about this many
# (row, column) pairs each, which bounds the working memory of the dense
# distance passes; every row is independent, so results do not depend on it.
PAIR_CHUNK = 2 ** 18
GRANULARITIES = ("all-atom", "c-alpha")


@dataclass
class ComplexGraph:
    """k-NN graph over atoms with node/edge features.

    ``coords`` is the working coordinate set the model refines;
    ``initial_coords`` is the anchor for the coordinate skip connection and
    equals the (possibly corrupted) input coordinates.
    Every center i has exactly k = min(k_neighbors, n-1) incoming edges:
    row i of ``neighbors`` lists its neighbors by ascending distance, and
    edge-feature row ``i*k + s`` describes the edge ``neighbors[i, s] -> i``.
    """

    coords: np.ndarray           # (n, 3)
    initial_coords: np.ndarray   # (n, 3)
    node_features: np.ndarray    # (n, d_f)
    neighbors: np.ndarray        # (n, k)
    edge_features: np.ndarray    # (n*k, d_e)
    ca_mask: np.ndarray          # (n,) bool
    residue_of_node: np.ndarray  # (n,) global residue ordinal
    chain_of_node: np.ndarray    # (n,) chain identifiers
    granularity: str
    node_atom_indices: np.ndarray | None = None  # (n,) structure atom index

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_edges(self) -> int:
        return self.neighbors.size


def feature_widths(
    granularity: str,
    include_surface: bool = True,
    include_geometric: bool = True,
) -> tuple[int, int]:
    """(node width, edge width) for a granularity and its ablation flags."""
    if granularity == "all-atom":
        d_f = len(ATOM_TYPES) + (1 if include_surface else 0)
        d_e = 2 + (12 if include_geometric else 0) + 1
    elif granularity == "c-alpha":
        d_f = len(RESIDUE_TYPES) + (1 if include_surface else 0) + 6
        d_e = 2 + (12 if include_geometric else 0)
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    return d_f, d_e


def knn_edges(coords: np.ndarray, k: int) -> np.ndarray:
    """(n, min(k, n-1)) table whose row i lists the nearest other nodes of i.

    Neighbors are ordered by ascending distance with ties broken by lower
    node index; chunking keeps memory bounded.
    """
    n = coords.shape[0]
    neighbors = np.empty((n, min(k, n - 1)), dtype=np.intp)
    chunk = max(1, PAIR_CHUNK // max(n, 1))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = coords[start:stop, None, :] - coords[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        rows = np.arange(start, stop)
        d2[rows - start, rows] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")
        neighbors[start:stop] = order[:, :neighbors.shape[1]]
    return neighbors


def surface_proximity(structure: ComplexStructure) -> np.ndarray:
    """Chain-local surface proximity in [0, 1] for every atom.

    An atom surrounded by many same-chain heavy atoms is buried; the value
    is the complement of the clamped neighbor count:
    1 - min(1, c / 64) with c the number of same-chain atoms within 10 A.
    """
    coords = structure.coords()
    chain_ids = np.array([a.chain_id for a in structure.atoms()])
    values = np.empty(structure.num_atoms, dtype=np.float64)
    for chain_id in dict.fromkeys(chain_ids):
        mask = chain_ids == chain_id
        pts = coords[mask]
        m = pts.shape[0]
        counts = np.zeros(m, dtype=np.int64)
        chunk = max(1, PAIR_CHUNK // max(m, 1))
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            diff = pts[start:stop, None, :] - pts[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            within = d2 <= SURFACE_RADIUS ** 2
            counts[start:stop] = within.sum(axis=1) - 1  # exclude self
        values[mask] = 1.0 - np.minimum(1.0, counts / SURFACE_MAX_NEIGHBORS)
    return values


def read_surface_file(path, expected_atoms: int) -> np.ndarray:
    """Per-atom surface proximity override: one value per line, atom order.

    Raises OSError when the file cannot be opened and SurfaceOverrideError
    when its content is not ``expected_atoms`` numbers in [0, 1].
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = [line.strip() for line in fh]
        except UnicodeDecodeError:
            raise SurfaceOverrideError("file is not ASCII text") from None
    values = []
    for number, line in enumerate(lines, start=1):
        if line:
            try:
                values.append(float(line))
            except ValueError:
                raise SurfaceOverrideError(
                    f"line {number}: {line!r} is not a number"
                ) from None
    arr = np.array(values, dtype=np.float64)
    if arr.shape[0] != expected_atoms:
        raise SurfaceOverrideError(
            f"override file has {arr.shape[0]} values for {expected_atoms} atoms"
        )
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise SurfaceOverrideError("override values must lie in [0, 1]")
    return arr


def _dihedral(p1, p2, p3, p4) -> tuple[float, float]:
    """(sin, cos) of the torsion angle of p1-p2-p3-p4.

    Sign follows the biochemical convention: looking from p2 toward p3, a
    clockwise rotation from the p2->p1 projection to the p3->p4 projection
    is positive.
    """
    axis = p3 - p2
    axis = axis / np.linalg.norm(axis)
    u = (p1 - p2) - ((p1 - p2) @ axis) * axis
    w = (p4 - p3) - ((p4 - p3) @ axis) * axis
    x = float(u @ w)
    y = float(np.cross(axis, u) @ w)
    angle = math.atan2(y, x)
    return math.sin(angle), math.cos(angle)


def backbone_dihedrals(structure: ComplexStructure) -> np.ndarray:
    """Per-residue (sin phi, cos phi, sin psi, cos psi, sin omega, cos omega).

    Angles needing a neighboring residue are defined only when that
    neighbor exists in the same chain with a contiguous residue index;
    undefined angles encode as (0, 1).
    """
    rows = []
    for ch in structure.chains:
        residues = ch.residues
        atoms = [{a.name: a.coord for a in r.atoms} for r in residues]
        for i, res in enumerate(residues):
            prev_ok = i > 0 and residues[i - 1].index == res.index - 1
            next_ok = (
                i + 1 < len(residues) and residues[i + 1].index == res.index + 1
            )
            cur = atoms[i]
            row = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
            if prev_ok and all(k in cur for k in ("N", "CA", "C")) and "C" in atoms[i - 1]:
                row[0:2] = _dihedral(atoms[i - 1]["C"], cur["N"], cur["CA"], cur["C"])
            if (
                next_ok
                and all(k in cur for k in ("N", "CA", "C"))
                and "N" in atoms[i + 1]
            ):
                row[2:4] = _dihedral(cur["N"], cur["CA"], cur["C"], atoms[i + 1]["N"])
            if (
                prev_ok
                and all(k in atoms[i - 1] for k in ("CA", "C"))
                and all(k in cur for k in ("N", "CA"))
            ):
                row[4:6] = _dihedral(
                    atoms[i - 1]["CA"], atoms[i - 1]["C"], cur["N"], cur["CA"]
                )
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def _rotation_to_quaternion(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, with w >= 0."""
    t = np.trace(r)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = np.array([
            0.25 * s,
            (r[2, 1] - r[1, 2]) / s,
            (r[0, 2] - r[2, 0]) / s,
            (r[1, 0] - r[0, 1]) / s,
        ])
    else:
        i = int(np.argmax(np.diag(r)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(max(1.0 + r[i, i] - r[j, j] - r[k, k], 0.0)) * 2
        q = np.empty(4)
        q[0] = (r[k, j] - r[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[j, i] + r[i, j]) / s
        q[1 + k] = (r[k, i] + r[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def node_features_allatom(
    structure: ComplexStructure,
    surface: np.ndarray | None = None,
    include_surface: bool = True,
) -> np.ndarray:
    """One-hot atom type (38) plus optional surface proximity column."""
    atoms = structure.atoms()
    n = len(atoms)
    one_hot = np.zeros((n, len(ATOM_TYPES)), dtype=np.float64)
    for i, a in enumerate(atoms):
        one_hot[i, ATOM_TYPE_INDEX.get(a.name, ATOM_TYPE_INDEX["UNK"])] = 1.0
    if not include_surface:
        return one_hot
    if surface is None:
        surface = surface_proximity(structure)
    return np.concatenate([one_hot, surface[:, None]], axis=1)


def node_features_ca(
    structure: ComplexStructure,
    ca_atom_indices: np.ndarray,
    surface: np.ndarray | None = None,
    include_surface: bool = True,
) -> np.ndarray:
    """Residue one-hot (21), optional surface column, dihedral descriptors."""
    res_names = [res.name for _, res in structure.residues()]
    one_hot = np.zeros((len(res_names), len(RESIDUE_TYPES)), dtype=np.float64)
    for i, name in enumerate(res_names):
        one_hot[i, RESIDUE_TYPE_INDEX.get(name, RESIDUE_TYPE_INDEX["UNK"])] = 1.0
    dihedrals = backbone_dihedrals(structure)

    # restrict residue-level rows to residues that actually have a CA node
    residue_of_atom = _residue_ordinals(structure)
    keep = residue_of_atom[ca_atom_indices]
    blocks = [one_hot[keep]]
    if include_surface:
        if surface is None:
            surface = surface_proximity(structure)
        blocks.append(surface[ca_atom_indices][:, None])
    blocks.append(dihedrals[keep])
    return np.concatenate(blocks, axis=1)


def _residue_ordinals(structure: ComplexStructure) -> np.ndarray:
    """Global residue ordinal for every atom, in atom order."""
    out = np.empty(structure.num_atoms, dtype=np.intp)
    i = 0
    ordinal = 0
    for ch in structure.chains:
        for res in ch.residues:
            for _ in res.atoms:
                out[i] = ordinal
                i += 1
            ordinal += 1
    return out


def edge_features(
    structure: ComplexStructure,
    coords: np.ndarray,
    neighbors: np.ndarray,
    node_residue: np.ndarray,
    node_chain: np.ndarray,
    node_residue_index: np.ndarray,
    granularity: str,
    include_geometric: bool = True,
) -> np.ndarray:
    """Per-edge features; row ``i*k + s`` is the edge ``neighbors[i, s] = j -> i``.

    Layout: [same-chain flag, sin(index difference), 12 relative geometric
    values when enabled, covalent-bond flag (all-atom only)]. The geometric
    block is [d/10, unit displacement j->i in i's residue frame (3), unit
    displacement i->j in j's residue frame (3), relative frame quaternion
    with non-negative scalar part (4), 1/(1+d)].
    """
    n, k = neighbors.shape
    src = neighbors.ravel()
    dst = np.repeat(np.arange(n), k)
    num_edges = src.shape[0]
    same_chain = (node_chain[src] == node_chain[dst]).astype(np.float64)
    sin_delta = np.sin((dst - src).astype(np.float64))
    blocks = [same_chain[:, None], sin_delta[:, None]]

    disp = coords[src] - coords[dst]  # x_j - x_i
    dist = np.sqrt((disp * disp).sum(axis=1))

    if include_geometric:
        _, rotations = build_residue_frames(structure)
        geo = np.zeros((num_edges, 12), dtype=np.float64)
        geo[:, 0] = dist / 10.0
        safe = np.where(dist > 0, dist, 1.0)
        unit = disp / safe[:, None]
        r_dst = rotations[node_residue[dst]]
        r_src = rotations[node_residue[src]]
        geo[:, 1:4] = np.einsum("eji,ej->ei", r_dst, unit)
        geo[:, 4:7] = np.einsum("eji,ej->ei", r_src, -unit)
        rel = np.einsum("eji,ejk->eik", r_dst, r_src)  # R_i^T R_j
        for e in range(num_edges):
            geo[e, 7:11] = _rotation_to_quaternion(rel[e])
        geo[:, 11] = 1.0 / (1.0 + dist)
        blocks.append(geo)

    if granularity == "all-atom":
        covalent = (
            (same_chain > 0)
            & (np.abs(node_residue_index[src] - node_residue_index[dst]) <= 1)
            & (dist <= COVALENT_CUTOFF)
        ).astype(np.float64)
        blocks.append(covalent[:, None])

    return np.concatenate(blocks, axis=1)


def build_knn_graph(
    structure: ComplexStructure,
    granularity: str = "all-atom",
    k: int = 20,
    surface_values: np.ndarray | None = None,
    include_surface: bool = True,
    include_geometric: bool = True,
) -> ComplexGraph:
    """Featurized k-NN graph over all atoms or CA atoms.

    ``surface_values`` optionally overrides the built-in surface-proximity
    approximation with externally computed per-atom values (full-structure
    atom order). Ablation flags drop the corresponding feature blocks and
    shrink the widths accordingly.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    atoms = structure.atoms()
    if surface_values is not None:
        surface_values = np.asarray(surface_values, dtype=np.float64)
        if surface_values.shape[0] != len(atoms):
            raise SurfaceOverrideError(
                f"{surface_values.shape[0]} surface values for {len(atoms)} atoms"
            )

    residue_of_atom = _residue_ordinals(structure)
    if granularity == "c-alpha":
        node_atom_indices = np.array(
            [i for i, a in enumerate(atoms) if a.name == "CA"], dtype=np.intp
        )
    else:
        node_atom_indices = np.arange(len(atoms), dtype=np.intp)
    n = node_atom_indices.shape[0]
    if n < 2:
        raise GraphTooSmallError(f"need at least 2 nodes, got {n}")

    all_coords = structure.coords()
    coords = all_coords[node_atom_indices]
    node_chain = np.array([atoms[i].chain_id for i in node_atom_indices])
    node_residue = residue_of_atom[node_atom_indices]
    node_residue_index = np.array(
        [atoms[i].residue_index for i in node_atom_indices], dtype=np.intp
    )

    neighbors = knn_edges(coords, k)

    if include_surface and surface_values is None:
        surface_values = surface_proximity(structure)
    if granularity == "all-atom":
        feats = node_features_allatom(
            structure, surface=surface_values, include_surface=include_surface
        )
        ca_mask = np.array([atoms[i].name == "CA" for i in node_atom_indices])
    else:
        feats = node_features_ca(
            structure,
            node_atom_indices,
            surface=surface_values,
            include_surface=include_surface,
        )
        ca_mask = np.ones(n, dtype=bool)

    edge_feats = edge_features(
        structure,
        coords,
        neighbors,
        node_residue,
        node_chain,
        node_residue_index,
        granularity,
        include_geometric=include_geometric,
    )

    return ComplexGraph(
        coords=coords,
        initial_coords=coords.copy(),
        node_features=feats,
        neighbors=neighbors,
        edge_features=edge_feats,
        ca_mask=ca_mask,
        residue_of_node=node_residue,
        chain_of_node=node_chain,
        granularity=granularity,
        node_atom_indices=node_atom_indices,
    )


def corrupt_coordinates(
    graph: ComplexGraph, sigma: float, rng: np.random.Generator
) -> ComplexGraph:
    """Add i.i.d. Gaussian noise to the coordinates and re-anchor X0.

    The refinement anchor ``initial_coords`` is set to the corrupted
    coordinates, so the model starts from (and skips back to) the noisy
    input; supervision targets are untouched.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return replace(graph, coords=graph.coords.copy(),
                       initial_coords=graph.coords.copy())
    noise = rng.normal(loc=0.0, scale=sigma, size=graph.coords.shape)
    corrupted = graph.coords + noise
    return replace(graph, coords=corrupted, initial_coords=corrupted.copy())
