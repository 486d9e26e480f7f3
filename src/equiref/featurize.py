"""Geometric graph construction and featurization for complex structures.

Builds k-NN graphs over all heavy atoms or over CA atoms only, fills the
node and edge feature blocks, computes the chain-local surface-proximity
approximation, and applies training-time Gaussian coordinate corruption.
The graph settings (granularity, k and the two feature ablation flags)
are read from a ``model.ModelConfig``, which also checks them.
The k-NN search and the surface proximity take their atom pairs from the
cell grid of ``structio.close_pair_blocks``, a block at a time, and the
edge features are written into one array a block of centre nodes at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import EquirefError, GraphTooSmallError, SurfaceOverrideError
from .structio import ComplexStructure, build_residue_frames, close_pair_blocks

if TYPE_CHECKING:
    from .model import ModelConfig

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

# Edge rows per block of the graph build and of a layer's edge pass
# (``model`` imports it): a block holds ``EDGE_BLOCK // k`` whole centre
# nodes, so per-edge temporaries of this many rows stay cache-sized. With
# one ``autodiff.edge_block`` op per block, 1,024 rows ran faster than 512
# or 2,048: a 977-node training step took 0.70-0.73 s against 0.76-0.86 s
# and 0.76-0.77 s (1 BLAS thread, medians of two processes each).
EDGE_BLOCK = 1024

SURFACE_RADIUS = 10.0
SURFACE_MAX_NEIGHBORS = 64
COVALENT_CUTOFF = 1.9
GRANULARITIES = ("all-atom", "c-alpha")


@dataclass
class ComplexGraph:
    """k-NN graph over atoms with node/edge features.

    ``coords`` is the coordinate set the model refines; every layer's
    coordinate skip anchors back to it. Every center i has exactly
    k = min(k_neighbors, n-1) incoming edges: row i of ``neighbors`` lists
    its neighbors by ascending distance, and edge-feature row ``i*k + s``
    describes the edge ``neighbors[i, s] -> i``. Node i is structure atom
    ``node_atom_indices[i]``.
    """

    coords: np.ndarray             # (n, 3)
    node_features: np.ndarray      # (n, d_f)
    neighbors: np.ndarray          # (n, k)
    edge_features: np.ndarray      # (n*k, d_e)
    ca_mask: np.ndarray            # (n,) bool
    node_atom_indices: np.ndarray  # (n,) structure atom index

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_edges(self) -> int:
        return self.neighbors.size


def feature_widths(config: ModelConfig) -> tuple[int, int]:
    """(node width, edge width) of the graphs built for ``config``."""
    surface = SURFACE_WIDTH if config.include_surface else 0
    geometric = GEOMETRIC_WIDTH if config.include_geometric else 0
    if config.granularity == "all-atom":
        return (len(ATOM_TYPES) + surface,
                PAIR_WIDTH + geometric + COVALENT_WIDTH)
    return (len(RESIDUE_TYPES) + surface + DIHEDRAL_WIDTH,
            PAIR_WIDTH + geometric)


def _k_nearest(i, j, d2, k):
    """The rows of ``i`` with at least k candidates ``(j, d2)``, grouped by
    row in ascending ``i``, and their k nearest. The candidates fill a
    table padded with inf, and one sort of each row by distance, then by
    index, ranks them."""
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    count = np.diff(starts, append=i.size)
    full = count >= k
    keep = np.repeat(full, count)
    table_row = np.repeat(np.cumsum(full) - 1, count)[keep]
    column = (np.arange(i.size) - np.repeat(starts, count))[keep]
    shape = (np.count_nonzero(full), count[full].max(initial=k))
    dist = np.full(shape, np.inf)
    dist[table_row, column] = d2[keep]
    index = np.zeros(shape, dtype=np.intp)
    index[table_row, column] = j[keep]
    block = np.take_along_axis(index, np.lexsort((index, dist))[:, :k], axis=1)
    return i[starts[full]], block


def knn_edges(coords: np.ndarray, k: int) -> np.ndarray:
    """(n, min(k, n-1)) table whose row i lists the nearest other nodes of i.

    Neighbors are ordered by ascending distance with ties broken by lower
    node index. The first radius query holds k + 1 nodes at the bounding
    box's mean density (the box's span if it is flat); rows short of k
    candidates are searched again at twice the radius, since every node
    outside it is farther than every candidate. Each block is ranked as
    it arrives. Raises EquirefError when a coordinate is not finite or the
    squared span overflows, where no radius is sure to reach.
    """
    n = coords.shape[0]
    k = min(k, n - 1)
    neighbors = np.empty((n, max(k, 0)), dtype=np.intp)
    if k <= 0:
        return neighbors
    # Python floats overflow to inf, and inf - inf is NaN, without a warning
    extent = [hi - lo for hi, lo in zip(coords.max(axis=0).tolist(),
                                        coords.min(axis=0).tolist())]
    if not (np.isfinite(coords).all() and math.isfinite(sum(e * e for e in extent))):
        raise EquirefError("graph coordinates are not finite or lie too far apart")
    radius = ((3 * (k + 1) * math.prod(extent) / (4 * math.pi * n)) ** (1 / 3)
              or max(math.hypot(*extent), 1.0))
    rows = np.arange(n)
    while rows.size:
        short = np.ones(rows.size, dtype=bool)
        for i, j, d2 in close_pair_blocks(coords[rows], coords, radius):
            other = rows[i] != j
            found, block = _k_nearest(i[other], j[other], d2[other], k)
            short[found] = False
            neighbors[rows[found]] = block
        rows = rows[short]
        radius *= 2
    return neighbors


def surface_proximity(structure: ComplexStructure) -> np.ndarray:
    """Chain-local surface proximity in [0, 1] for every atom.

    An atom surrounded by many same-chain heavy atoms is buried; the value
    is the complement of the clamped neighbor count:
    1 - min(1, c / 64) with c the number of same-chain atoms within 10 A.
    """
    values = np.empty(structure.num_atoms, dtype=np.float64)
    cutoff = float(np.nextafter(SURFACE_RADIUS, np.inf))  # the grid tests d2 < cutoff**2
    for _, rows in structure.chain_slices():
        pts = structure.coords[rows]
        counts = np.full(pts.shape[0], -1, dtype=np.int64)  # exclude self
        for i, _, d2 in close_pair_blocks(pts, pts, cutoff):
            counts += np.bincount(i[d2 <= SURFACE_RADIUS ** 2], minlength=pts.shape[0])
        values[rows] = 1.0 - np.minimum(1.0, counts / SURFACE_MAX_NEIGHBORS)
    return values


def read_surface_file(path, expected_atoms: int) -> np.ndarray:
    """Per-atom surface proximity override: one value per line, atom order.

    Raises OSError when the file cannot be opened and SurfaceOverrideError,
    naming the file, when its content is not ``expected_atoms`` numbers in
    [0, 1].
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = [line.strip() for line in fh]
        except UnicodeDecodeError:
            raise SurfaceOverrideError(f"{path} is not ASCII text") from None
    values = []
    for number, line in enumerate(lines, start=1):
        if line:
            try:
                values.append(float(line))
            except ValueError:
                raise SurfaceOverrideError(
                    f"{path}: line {number}: {line!r} is not a number"
                ) from None
    arr = np.array(values, dtype=np.float64)
    if arr.shape[0] != expected_atoms:
        raise SurfaceOverrideError(
            f"{path} has {arr.shape[0]} values for {expected_atoms} atoms"
        )
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise SurfaceOverrideError(f"{path}: values must lie in [0, 1]")
    return arr


def _dihedrals(p1, p2, p3, p4) -> np.ndarray:
    """(sin, cos) rows of the torsion angles of the rows of p1-p2-p3-p4.

    Sign follows the biochemical convention: looking from p2 toward p3, a
    clockwise rotation from the p2->p1 projection to the p3->p4 projection
    is positive. A zero-length p2-p3 axis leaves the angle undefined.
    """
    axis = p3 - p2
    norm = np.sqrt(np.vecdot(axis, axis))
    axis /= np.where(norm == 0.0, 1.0, norm)[:, None]
    u = (p1 - p2) - np.vecdot(p1 - p2, axis)[:, None] * axis
    w = (p4 - p3) - np.vecdot(p4 - p3, axis)[:, None] * axis
    angle = np.arctan2(np.vecdot(np.cross(axis, u), w), np.vecdot(u, w))
    out = np.column_stack([np.sin(angle), np.cos(angle)])
    out[norm == 0.0] = UNDEFINED_ANGLE
    return out


def backbone_dihedrals(structure: ComplexStructure) -> np.ndarray:
    """Per-residue (sin phi, cos phi, sin psi, cos psi, sin omega, cos omega).

    Angles needing a neighboring residue are defined only when that
    neighbor exists in the same chain with a contiguous residue number;
    undefined angles encode as (0, 1).
    """
    rows = np.stack([structure.residue_rows(name) for name in ("N", "CA", "C")])
    # a missing atom (row -1) reads the last row; the masks drop its angles
    n, ca, c = structure.coords[rows]
    n_ok, ca_ok, c_ok = rows >= 0
    chain = structure.chain[structure.residue_starts]
    number = structure.resnum[structure.residue_starts]
    # linked[r]: residue r + 1 directly follows residue r in the same chain
    linked = (chain[1:] == chain[:-1]) & (number[1:] == number[:-1] + 1)
    has_n_ca_c = n_ok & ca_ok & c_ok
    out = np.tile(UNDEFINED_ANGLE, (structure.num_residues, DIHEDRAL_WIDTH // 2))
    # each angle of residue r + 1 that reaches back to residue r
    back = linked & ca_ok[1:] & n_ok[1:] & c_ok[:-1]
    phi = np.flatnonzero(back & c_ok[1:])
    out[phi + 1, 0:2] = _dihedrals(c[phi], n[phi + 1], ca[phi + 1], c[phi + 1])
    psi = np.flatnonzero(linked & has_n_ca_c[:-1] & n_ok[1:])
    out[psi, 2:4] = _dihedrals(n[psi], ca[psi], c[psi], n[psi + 1])
    omega = np.flatnonzero(back & ca_ok[:-1])
    out[omega + 1, 4:6] = _dihedrals(ca[omega], c[omega], n[omega + 1], ca[omega + 1])
    return out


def _rotations_to_quaternions(r: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z), with w >= 0, of (m, 3, 3) rotations.

    Shepperd's method: the trace when it is positive, else the largest
    diagonal entry, picks the best-conditioned formula for each rotation.
    """
    q = np.empty((r.shape[0], 4))
    trace = np.trace(r, axis1=1, axis2=2)
    first = trace > 0
    s = np.sqrt(trace[first] + 1.0) * 2
    rf = r[first]
    q[first] = np.column_stack([
        0.25 * s,
        (rf[:, 2, 1] - rf[:, 1, 2]) / s,
        (rf[:, 0, 2] - rf[:, 2, 0]) / s,
        (rf[:, 1, 0] - rf[:, 0, 1]) / s,
    ])
    largest = np.argmax(np.diagonal(r, axis1=1, axis2=2), axis=1)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        pick = ~first & (largest == i)
        rp = r[pick]
        s = np.sqrt(np.maximum(
            1.0 + rp[:, i, i] - rp[:, j, j] - rp[:, k, k], 0.0)) * 2
        qp = np.empty((rp.shape[0], 4))
        qp[:, 0] = (rp[:, k, j] - rp[:, j, k]) / s
        qp[:, 1 + i] = 0.25 * s
        qp[:, 1 + j] = (rp[:, j, i] + rp[:, i, j]) / s
        qp[:, 1 + k] = (rp[:, k, i] + rp[:, i, k]) / s
        q[pick] = qp
    q[q[:, 0] < 0] *= -1
    return q / np.sqrt(np.vecdot(q, q))[:, None]


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
    node_atom_indices: np.ndarray,
    neighbors: np.ndarray,
    config: ModelConfig,
) -> np.ndarray:
    """Per-edge features; row ``i*k + s`` is the edge ``neighbors[i, s] = j -> i``.

    Node i is structure atom ``node_atom_indices[i]``. Layout: [same-chain
    flag, sin(node index difference), 12 relative geometric values when
    ``config.include_geometric``, covalent-bond flag (all-atom only)]. The
    geometric block is [d/10, unit displacement j->i in i's residue frame
    (3), unit displacement i->j in j's residue frame (3), relative frame
    quaternion with non-negative scalar part (4), 1/(1+d)]. The rows are
    written a block of ``EDGE_BLOCK // k`` centre nodes at a time, as the
    model's edge pass reads them, so no per-edge temporary is longer than
    one block.
    """
    n, k = neighbors.shape
    out = np.empty((n * k, feature_widths(config)[1]), dtype=np.float64)
    if config.include_geometric:
        rotations = build_residue_frames(structure)
    step = max(1, EDGE_BLOCK // k)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = out[start * k:stop * k]
        src = neighbors[start:stop].ravel()
        dst = np.repeat(np.arange(start, stop), k)
        atom_src = node_atom_indices[src]
        atom_dst = node_atom_indices[dst]
        same_chain = structure.chain[atom_src] == structure.chain[atom_dst]
        rows[:, 0] = same_chain
        rows[:, 1] = np.sin((dst - src).astype(np.float64))

        disp = structure.coords[atom_src] - structure.coords[atom_dst]  # x_j - x_i
        dist = np.sqrt((disp * disp).sum(axis=1))

        if config.include_geometric:
            geo = rows[:, PAIR_WIDTH:PAIR_WIDTH + GEOMETRIC_WIDTH]
            geo[:, 0] = dist / 10.0
            safe = np.where(dist > 0, dist, 1.0)
            unit = disp / safe[:, None]
            res_dst = structure.residue[atom_dst]
            res_src = structure.residue[atom_src]
            geo[:, 1:4] = np.einsum("eji,ej->ei", rotations[res_dst], unit)
            geo[:, 4:7] = np.einsum("eji,ej->ei", rotations[res_src], -unit)
            # the relative frame R_i^T R_j depends on the two residues only,
            # and a block's edges join few residue pairs
            pairs, inverse = np.unique(res_dst * len(rotations) + res_src,
                                       return_inverse=True)
            pair_dst, pair_src = np.divmod(pairs, len(rotations))
            rel = np.einsum("eji,ejk->eik", rotations[pair_dst], rotations[pair_src])
            geo[:, 7:11] = _rotations_to_quaternions(rel)[inverse]
            geo[:, 11] = 1.0 / (1.0 + dist)

        if config.granularity == "all-atom":
            rows[:, -1] = (
                same_chain
                & (np.abs(structure.resnum[atom_src] - structure.resnum[atom_dst]) <= 1)
                & (dist <= COVALENT_CUTOFF)
            )
    return out


def build_knn_graph(
    structure: ComplexStructure,
    config: ModelConfig,
    surface_values: np.ndarray | None = None,
) -> ComplexGraph:
    """The featurized k-NN graph that ``config`` expects for a structure.

    Nodes are all atoms or CA atoms by ``config.granularity``, each with
    its ``config.k_neighbors`` nearest neighbors; the two ablation flags
    drop their feature blocks. ``surface_values`` optionally overrides the
    built-in surface-proximity approximation with externally computed
    per-atom values (full-structure atom order).
    """
    if surface_values is not None:
        surface_values = np.asarray(surface_values, dtype=np.float64)
        if surface_values.shape[0] != structure.num_atoms:
            raise SurfaceOverrideError(
                f"{surface_values.shape[0]} surface values for "
                f"{structure.num_atoms} atoms"
            )

    if config.granularity == "c-alpha":
        node_atom_indices = np.flatnonzero(structure.name == "CA")
    else:
        node_atom_indices = np.arange(structure.num_atoms, dtype=np.intp)
    n = node_atom_indices.shape[0]
    if n < 2:
        raise GraphTooSmallError(f"need at least 2 nodes, got {n}")

    coords = structure.coords[node_atom_indices]
    neighbors = knn_edges(coords, config.k_neighbors)

    surface = None
    if config.include_surface:
        surface = (surface_proximity(structure) if surface_values is None
                   else surface_values)
    if config.granularity == "all-atom":
        feats = node_features_allatom(structure, surface)
        ca_mask = structure.name == "CA"
    else:
        feats = node_features_ca(structure, node_atom_indices, surface)
        ca_mask = np.ones(n, dtype=bool)

    return ComplexGraph(
        coords=coords,
        node_features=feats,
        neighbors=neighbors,
        edge_features=edge_features(structure, node_atom_indices, neighbors,
                                    config),
        ca_mask=ca_mask,
        node_atom_indices=node_atom_indices,
    )


def corrupt_coordinates(
    graph: ComplexGraph, sigma: float, rng: np.random.Generator
) -> ComplexGraph:
    """Add i.i.d. Gaussian noise to the coordinates.

    The model starts from, and its coordinate skip anchors back to, the
    noisy coordinates; supervision targets are untouched.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return replace(graph, coords=graph.coords.copy())
    noise = rng.normal(loc=0.0, scale=sigma, size=graph.coords.shape)
    return replace(graph, coords=graph.coords + noise)
