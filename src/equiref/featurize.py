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

# Width of each feature block besides the two one-hot blocks, whose widths
# are the lengths of the type tables above. feature_widths adds the widths
# up; the builders below produce blocks of exactly these widths.
SURFACE_WIDTH = 1     # surface proximity
DIHEDRAL_WIDTH = 6    # (sin, cos) of phi, psi and omega
PAIR_WIDTH = 2        # same-chain flag, sin(index difference)
GEOMETRIC_WIDTH = 12  # relative geometry of the two residue frames
COVALENT_WIDTH = 1    # covalent-bond flag
UNDEFINED_ANGLE = (0.0, 1.0)  # (sin, cos) of an angle that is not defined

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
    surface = SURFACE_WIDTH if include_surface else 0
    geometric = GEOMETRIC_WIDTH if include_geometric else 0
    if granularity == "all-atom":
        d_f = len(ATOM_TYPES) + surface
        d_e = PAIR_WIDTH + geometric + COVALENT_WIDTH
    elif granularity == "c-alpha":
        d_f = len(RESIDUE_TYPES) + surface + DIHEDRAL_WIDTH
        d_e = PAIR_WIDTH + geometric
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
    values = np.empty(structure.num_atoms, dtype=np.float64)
    for _, rows in structure.chain_slices():
        pts = structure.coords[rows]
        m = pts.shape[0]
        counts = np.zeros(m, dtype=np.int64)
        chunk = max(1, PAIR_CHUNK // max(m, 1))
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            diff = pts[start:stop, None, :] - pts[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            within = d2 <= SURFACE_RADIUS ** 2
            counts[start:stop] = within.sum(axis=1) - 1  # exclude self
        values[rows] = 1.0 - np.minimum(1.0, counts / SURFACE_MAX_NEIGHBORS)
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
    is positive. A zero-length p2-p3 axis leaves the angle undefined.
    """
    axis = p3 - p2
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        return UNDEFINED_ANGLE
    axis = axis / norm
    u = (p1 - p2) - ((p1 - p2) @ axis) * axis
    w = (p4 - p3) - ((p4 - p3) @ axis) * axis
    x = float(u @ w)
    y = float(np.cross(axis, u) @ w)
    angle = math.atan2(y, x)
    return math.sin(angle), math.cos(angle)


def backbone_dihedrals(structure: ComplexStructure) -> np.ndarray:
    """Per-residue (sin phi, cos phi, sin psi, cos psi, sin omega, cos omega).

    Angles needing a neighboring residue are defined only when that
    neighbor exists in the same chain with a contiguous residue number;
    undefined angles encode as (0, 1).
    """
    xyz = structure.coords
    n, ca, c = (structure.residue_rows(name) for name in ("N", "CA", "C"))
    chain = structure.chain[structure.residue_starts]
    number = structure.resnum[structure.residue_starts]
    # linked[r]: residue r + 1 directly follows residue r in the same chain
    linked = (chain[1:] == chain[:-1]) & (number[1:] == number[:-1] + 1)
    num_res = structure.num_residues
    rows = np.tile(UNDEFINED_ANGLE, (num_res, DIHEDRAL_WIDTH // 2))
    for r in range(num_res):
        prev_ok = r > 0 and linked[r - 1]
        next_ok = r + 1 < num_res and linked[r]
        has_n_ca_c = n[r] >= 0 and ca[r] >= 0 and c[r] >= 0
        if prev_ok and has_n_ca_c and c[r - 1] >= 0:
            rows[r, 0:2] = _dihedral(xyz[c[r - 1]], xyz[n[r]], xyz[ca[r]], xyz[c[r]])
        if next_ok and has_n_ca_c and n[r + 1] >= 0:
            rows[r, 2:4] = _dihedral(xyz[n[r]], xyz[ca[r]], xyz[c[r]], xyz[n[r + 1]])
        if prev_ok and ca[r - 1] >= 0 and c[r - 1] >= 0 and n[r] >= 0 and ca[r] >= 0:
            rows[r, 4:6] = _dihedral(
                xyz[ca[r - 1]], xyz[c[r - 1]], xyz[n[r]], xyz[ca[r]]
            )
    return rows


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


def _one_hot(names: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """Rows of a one-hot table over ``index``; unknown names map to UNK."""
    columns = [index.get(name, index["UNK"]) for name in names.tolist()]
    out = np.zeros((len(columns), len(index)), dtype=np.float64)
    out[np.arange(len(columns)), columns] = 1.0
    return out


def node_features_allatom(
    structure: ComplexStructure, surface: np.ndarray | None
) -> np.ndarray:
    """One-hot atom type (38), plus the surface column unless it is None."""
    one_hot = _one_hot(structure.name, ATOM_TYPE_INDEX)
    if surface is None:
        return one_hot
    return np.concatenate([one_hot, surface.reshape(-1, SURFACE_WIDTH)], axis=1)


def node_features_ca(
    structure: ComplexStructure,
    ca_atom_indices: np.ndarray,
    surface: np.ndarray | None,
) -> np.ndarray:
    """Residue one-hot (21), the surface column unless it is None, and the
    dihedral descriptors, one row per CA atom."""
    keep = structure.residue[ca_atom_indices]
    residue_names = structure.resname[structure.residue_starts]
    blocks = [_one_hot(residue_names, RESIDUE_TYPE_INDEX)[keep]]
    if surface is not None:
        blocks.append(surface[ca_atom_indices].reshape(-1, SURFACE_WIDTH))
    blocks.append(backbone_dihedrals(structure)[keep])
    return np.concatenate(blocks, axis=1)


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
    pair = np.empty((num_edges, PAIR_WIDTH), dtype=np.float64)
    pair[:, 0] = node_chain[src] == node_chain[dst]
    pair[:, 1] = np.sin((dst - src).astype(np.float64))
    blocks = [pair]

    disp = coords[src] - coords[dst]  # x_j - x_i
    dist = np.sqrt((disp * disp).sum(axis=1))

    if include_geometric:
        _, rotations = build_residue_frames(structure)
        geo = np.zeros((num_edges, GEOMETRIC_WIDTH), dtype=np.float64)
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
            (pair[:, 0] > 0)
            & (np.abs(node_residue_index[src] - node_residue_index[dst]) <= 1)
            & (dist <= COVALENT_CUTOFF)
        ).astype(np.float64)
        blocks.append(covalent.reshape(-1, COVALENT_WIDTH))

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
    if surface_values is not None:
        surface_values = np.asarray(surface_values, dtype=np.float64)
        if surface_values.shape[0] != structure.num_atoms:
            raise SurfaceOverrideError(
                f"{surface_values.shape[0]} surface values for "
                f"{structure.num_atoms} atoms"
            )

    if granularity == "c-alpha":
        node_atom_indices = np.flatnonzero(structure.name == "CA")
    else:
        node_atom_indices = np.arange(structure.num_atoms, dtype=np.intp)
    n = node_atom_indices.shape[0]
    if n < 2:
        raise GraphTooSmallError(f"need at least 2 nodes, got {n}")

    coords = structure.coords[node_atom_indices]
    node_chain = structure.chain[node_atom_indices]
    node_residue = structure.residue[node_atom_indices]
    node_residue_index = structure.resnum[node_atom_indices]

    neighbors = knn_edges(coords, k)

    surface = None
    if include_surface:
        surface = (surface_proximity(structure) if surface_values is None
                   else surface_values)
    if granularity == "all-atom":
        feats = node_features_allatom(structure, surface)
        ca_mask = structure.name == "CA"
    else:
        feats = node_features_ca(structure, node_atom_indices, surface)
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
