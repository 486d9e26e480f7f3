"""Independent reference implementations used to check the package.

The metric oracles are deliberately written as plain loops over scalars so
they share no code path with the package's vectorized implementations.
The loss oracles compute the training loss and its coordinate and score
gradients in closed form with numpy, without the autodiff tape. The
attention oracle is the quadratic form of the model's linear-time global
attention, the message oracle builds the edge-message MLP's input row by
row, as EGNN writes it, before its first layer, and the edge-pass oracle
runs the message and coordinate-gate MLPs on it one after the other, each
with both of its layers. The taped edge block composes one edge block of
small tape ops (row repeats, gathers, a row norm, an affine map over the
edge rows and the node products, group means), each with a backward of
its own: the reference for ``autodiff.edge_block``. The PDB oracle
reads ATOM records one line at a time, each field through Python's own
``int()``, ``float()`` and ``str`` methods. The dense distance kernel
scans every row pair, the reference for the cell-grid pair search. The
per-decoy LDDT runs one 15 A search over each decoy's matched native CA
atoms, the reference for ``metrics.lddt_ca``, which filters the pairs of
one search over all of the native's CA atoms. The edge-feature oracle
builds every edge row in one pass over whole-length arrays, the
reference for the graph build by blocks of centre nodes.
"""

import math

import numpy as np

from equiref.autodiff import (
    LAYER_NORM_EPS,
    Tensor,
    _row_plan,
    _summed_rows,
    affine,
    gather_rows,
    rms_norm_leaky_relu,
    slice_rows,
)
from equiref.errors import (
    EmptyStructureError,
    LossUndefinedError,
    PdbParseError,
    UndefinedMetricError,
)
from equiref.featurize import (
    COVALENT_CUTOFF,
    GEOMETRIC_WIDTH,
    PAIR_WIDTH,
    _rotations_to_quaternions,
)
from equiref.model import LEAKY_SLOPE, NORM_CONSTANT
from equiref.structio import (
    PAIR_CHUNK,
    ComplexStructure,
    _squared_distances,
    build_residue_frames,
    close_pair_blocks,
)
from equiref.train import HUBER_DELTA

LDDT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)


def pair_distance(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def squared_distance_blocks(a, b):
    """Squared distances from the rows of ``a`` to every row of ``b``.

    Yields (start, d2) for consecutive row blocks of ``a``, each with at
    most PAIR_CHUNK pairs (and at least one row): ``d2[r, j]`` is
    dx*dx + dy*dy + dz*dz between ``a[start + r]`` and ``b[j]``, added in
    that order, which is bitwise the sum over the squared difference
    vector.
    """
    b_axes = np.ascontiguousarray(b.T)
    chunk = max(1, PAIR_CHUNK // max(b.shape[0], 1))
    for start in range(0, a.shape[0], chunk):
        rows = a[start:start + chunk]
        yield start, _squared_distances(lambda k: (rows[:, k, None], b_axes[k]))


def whole_edge_features(structure, node_atom_indices, neighbors, config):
    """``featurize.edge_features`` with every per-edge array at full length."""
    n, k = neighbors.shape
    src = neighbors.ravel()
    dst = np.repeat(np.arange(n), k)
    atom_src = node_atom_indices[src]
    atom_dst = node_atom_indices[dst]
    num_edges = src.shape[0]
    pair = np.empty((num_edges, PAIR_WIDTH), dtype=np.float64)
    pair[:, 0] = structure.chain[atom_src] == structure.chain[atom_dst]
    pair[:, 1] = np.sin((dst - src).astype(np.float64))
    blocks = [pair]

    disp = structure.coords[atom_src] - structure.coords[atom_dst]  # x_j - x_i
    dist = np.sqrt((disp * disp).sum(axis=1))

    if config.include_geometric:
        rotations = build_residue_frames(structure)
        geo = np.zeros((num_edges, GEOMETRIC_WIDTH), dtype=np.float64)
        geo[:, 0] = dist / 10.0
        safe = np.where(dist > 0, dist, 1.0)
        unit = disp / safe[:, None]
        r_dst = rotations[structure.residue[atom_dst]]
        r_src = rotations[structure.residue[atom_src]]
        geo[:, 1:4] = np.einsum("eji,ej->ei", r_dst, unit)
        geo[:, 4:7] = np.einsum("eji,ej->ei", r_src, -unit)
        rel = np.einsum("eji,ejk->eik", r_dst, r_src)  # R_i^T R_j
        geo[:, 7:11] = _rotations_to_quaternions(rel)
        geo[:, 11] = 1.0 / (1.0 + dist)
        blocks.append(geo)

    if config.granularity == "all-atom":
        covalent = (
            (pair[:, 0] > 0)
            & (np.abs(structure.resnum[atom_src] - structure.resnum[atom_dst]) <= 1)
            & (dist <= COVALENT_CUTOFF)
        ).astype(np.float64)
        blocks.append(covalent.reshape(-1, 1))

    return np.concatenate(blocks, axis=1)


def lddt_bruteforce(decoy_ca, native_ca, radius=15.0, thresholds=LDDT_THRESHOLDS):
    """Per-residue LDDT by exhaustive pair and threshold enumeration."""
    m = len(decoy_ca)
    scores = []
    for i in range(m):
        errors = []
        for j in range(m):
            if j == i:
                continue
            dn = pair_distance(native_ca[i], native_ca[j])
            if dn < radius:
                dd = pair_distance(decoy_ca[i], decoy_ca[j])
                errors.append(abs(dd - dn))
        if not errors:
            scores.append(float("nan"))
            continue
        total = 0.0
        for t in thresholds:
            kept = 0
            for e in errors:
                if e < t:
                    kept += 1
            total += kept / len(errors)
        scores.append(total / len(thresholds))
    defined = [s for s in scores if not math.isnan(s)]
    # the final aggregation is not part of the enumeration being checked;
    # use the same reduction as the implementation so equality is exact
    return scores, float(np.mean(defined))


def lddt_per_decoy_search(decoy, native, correspondence, radius=15.0,
                          thresholds=LDDT_THRESHOLDS):
    """Per-residue and global LDDT from one pair search over the decoy's
    matched native CA atoms, both orders of each pair counted at its first
    end. A native CA that two decoy CAs match appears twice, at distance 0."""
    matched = correspondence.matched_ca
    m = len(matched)
    if m < 2:
        raise UndefinedMetricError(f"need >= 2 matched CA atoms, got {m}")
    native_ca = native.coords[matched[:, 1]]
    decoy_axes = np.ascontiguousarray(decoy.coords[matched[:, 0]].T)
    n_pairs = np.zeros(m, dtype=np.intp)
    kept = np.zeros((len(thresholds), m), dtype=np.intp)
    for i, j, d2_native in close_pair_blocks(native_ca, native_ca, radius):
        d_native = np.sqrt(d2_native)
        include = (d_native < radius) & (i != j)
        i, j, d_native = i[include], j[include], d_native[include]
        d2_decoy = _squared_distances(
            lambda k: (decoy_axes[k].take(i), decoy_axes[k].take(j)))
        error = np.abs(np.sqrt(d2_decoy) - d_native)
        n_pairs += np.bincount(i, minlength=m)
        for count, t in zip(kept, thresholds):
            count += np.bincount(i[error < t], minlength=m)
    per_row = np.maximum(n_pairs, 1)
    total = sum(count / per_row for count in kept)
    scores = np.where(n_pairs > 0, total / len(thresholds), np.nan)
    defined = scores[~np.isnan(scores)]
    if defined.size == 0:
        raise UndefinedMetricError("no residue has a qualifying CA pair")
    return scores, float(defined.mean())


def contacts_bruteforce(structure, cutoff=5.0):
    """Cross-chain residue contacts by an exhaustive atom-pair scan."""
    keys = list(zip(structure.chain.tolist(), structure.resnum.tolist()))
    coords = structure.coords.tolist()
    found = set()
    for a, key_a in enumerate(keys):
        for b, key_b in enumerate(keys):
            if key_a[0] >= key_b[0]:
                continue
            if pair_distance(coords[a], coords[b]) < cutoff:
                found.add(tuple(sorted((key_a, key_b))))
    return found


def quadratic_attention(h, wq, wk, wv):
    """Reference quadratic form (Q K^T / n) V of the global linear attention."""
    h = np.asarray(h, dtype=np.float64)
    q = h @ wq
    k = h @ wk
    v = h @ wv
    n = h.shape[0]
    return (q @ k.T / n) @ v


def message_preactivation(h, x, edge_features, neighbors, w1, b1):
    """First layer of the edge-message MLP on its concatenated input.

    Edge row ``i*k + s`` carries the message from ``j = neighbors[i, s]``
    to ``i``; its input is ``[h_i, h_j, a_ij, |x_i - x_j|^2]``.
    """
    n, k = neighbors.shape
    i = np.repeat(np.arange(n), k)
    j = neighbors.ravel()
    diff = x[i] - x[j]
    sqdist = (diff * diff).sum(axis=1, keepdims=True)
    edges = np.concatenate([h[i], h[j], edge_features, sqdist], axis=1)
    return edges @ w1 + b1


def mlp_tail(pre, params, prefix):
    """An MLP from its first layer's output on: layer norm, leaky ReLU, w2."""
    centred = pre - pre.mean(axis=1, keepdims=True)
    scale = np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + LAYER_NORM_EPS)
    y = centred / scale * params[prefix + "ln_gain"] + params[prefix + "ln_bias"]
    hidden = np.where(y > 0, y, LEAKY_SLOPE * y)
    return hidden @ params[prefix + "w2"] + params[prefix + "b2"]


def unfused_edge_pass(h, x, edge_features, neighbors, params, prefix):
    """Per-edge message and coordinate gate of one layer, MLP by MLP.

    The message MLP runs on the concatenated edge input through its output
    layer ``w2``, and the gate MLP reads that message. Returns the
    ``(n*k, d)`` messages and the ``(n*k, 1)`` gates.
    """
    msg, gate = prefix + "msg_mlp.", prefix + "coord_mlp."
    pre = message_preactivation(h, x, edge_features, neighbors,
                                params[msg + "w1"], params[msg + "b1"])
    message = mlp_tail(pre, params, msg)
    return message, mlp_tail(message @ params[gate + "w1"] + params[gate + "b1"],
                             params, gate)


def repeat_rows(x, k):
    """Repeat each row ``k`` times in place: output row ``i*k + s`` is row i."""
    n, d = x.data.shape
    return Tensor(
        np.repeat(x.data, k, axis=0),
        (x,),
        lambda g: (g.reshape(n, k, d).sum(axis=1),),
    )


def group_mean(x, k):
    """Average runs of ``k`` rows: output row i is the mean of rows ``i*k + s``."""
    rows, d = x.data.shape
    return Tensor(
        x.data.reshape(rows // k, k, d).mean(axis=1),
        (x,),
        lambda g: (np.repeat(g / k, k, axis=0),),
    )


def row_norm(x):
    """Per-row Euclidean norm, shape (n, 1); zero rows get zero gradient."""
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))

    def backward(g):
        safe = np.where(norms > 0.0, norms, 1.0)
        return (g * x.data / safe,)

    return Tensor(norms, (x,), backward)


def edge_affine(features, x, weight, src, dst, index):
    """``[features, x] @ weight + src[r // k] + dst[index[r]]`` per row r.

    With ``k = rows / len(src)``, each ``src`` row is added to a run of
    ``k`` output rows, and each ``dst`` row to the rows that index it.
    ``features`` is a constant and gets no gradient; that of ``x`` reads
    only the rows of ``weight`` after the features' rows.
    """
    width = features.shape[1]
    index = np.asarray(index, dtype=np.intp)
    joined = np.concatenate([features, x.data], axis=1)
    out = joined @ weight.data
    blocks = len(src.data)
    grouped = out.reshape(blocks, -1, out.shape[1])
    grouped += src.data[:, None, :]
    out += np.take(dst.data, index, axis=0)

    def backward(g):
        return (
            g @ weight.data[width:].T,
            joined.T @ g,
            g.reshape(grouped.shape).sum(axis=1),
            _summed_rows(_row_plan(index, len(dst.data)), g),
        )

    return Tensor(out, (x, weight, src, dst), backward)


def taped_edge_block(t, edge_features, neighbors, start, stop):
    """The coordinate shift and mean hidden message of nodes ``start:stop``
    from the tensors ``t`` (named as ``model._window`` names them), one
    small tape op at a time."""
    k = neighbors.shape[1]
    nbrs = neighbors[start:stop].ravel()
    x = t["x"]
    diff = repeat_rows(slice_rows(x, start, stop), k) - gather_rows(x, nbrs)
    sqdist = (diff * diff).sum(axis=1, keepdims=True)
    hidden = rms_norm_leaky_relu(
        edge_affine(edge_features[start * k:stop * k], sqdist, t["msg_mlp.w1_edge"],
                    slice_rows(t["h_src"], start, stop), t["h_dst"], nbrs),
        t["msg_mlp.ln_gain"], t["msg_mlp.ln_bias"], LEAKY_SLOPE)
    gate = affine(
        rms_norm_leaky_relu(affine(hidden, t["coord_mlp.w1"], t["coord_mlp.b1"]),
                            t["coord_mlp.ln_gain"], t["coord_mlp.ln_bias"], LEAKY_SLOPE),
        t["coord_mlp.w2"], t["coord_mlp.b2"])
    radial = diff / (row_norm(diff) + NORM_CONSTANT)
    return group_mean(radial * gate, k), group_mean(hidden, k)


def superposed_rmsd_by_trace(mobile, target):
    """Minimum RMSD via the singular-value trace identity (no transform)."""
    mobile = np.asarray(mobile, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    m = mobile.shape[0]
    p = mobile - mobile.mean(axis=0)
    q = target - target.mean(axis=0)
    s = np.linalg.svd(p.T @ q, compute_uv=False)
    u, _, vt = np.linalg.svd(p.T @ q)
    if np.linalg.det(vt.T @ u.T) < 0:
        s = s.copy()
        s[-1] = -s[-1]
    value = (p ** 2).sum() + (q ** 2).sum() - 2.0 * s.sum()
    return math.sqrt(max(value, 0.0) / m)


def huber(residual, delta=HUBER_DELTA):
    """Component-wise Huber value: quadratic inside ``delta``, linear out."""
    residual = np.asarray(residual, dtype=np.float64)
    small = np.abs(residual) < delta
    return np.where(
        small, 0.5 * residual * residual, delta * (np.abs(residual) - 0.5 * delta)
    )


def psr_loss(refined, native_coords, matched_nodes, delta=HUBER_DELTA):
    """Mean component-wise Huber loss over supervised atoms.

    Returns the value and its gradient with respect to every refined
    coordinate (zero rows for unsupervised atoms).
    """
    matched_nodes = np.asarray(matched_nodes, dtype=np.intp)
    if matched_nodes.size == 0:
        raise LossUndefinedError("no atoms carry reference coordinates")
    residual = refined[matched_nodes] - native_coords
    value = float(huber(residual, delta).mean())
    grad = np.zeros_like(refined)
    small = np.abs(residual) < delta
    d_component = np.where(small, residual, delta * np.sign(residual))
    np.add.at(grad, matched_nodes, d_component / residual.size)
    return value, grad


def qa_loss(predicted, targets, nodes):
    """Mean squared error over supervised CA nodes.

    ``predicted`` holds per-node scores for the whole graph; the gradient
    has the same shape with zeros outside the supervised set.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    if nodes.size == 0:
        raise LossUndefinedError("no nodes carry LDDT labels")
    diff = predicted[nodes] - targets
    value = float((diff * diff).mean())
    grad = np.zeros_like(predicted)
    np.add.at(grad, nodes, 2.0 * diff / diff.size)
    return value, grad


def total_loss(example, refined, predicted_qa, config):
    """Weighted sum of the defined loss terms; empty sets contribute zero."""
    has_psr = example.matched_nodes.size > 0
    has_qa = example.lddt_nodes.size > 0
    if not has_psr and not has_qa:
        raise LossUndefinedError(f"example {example.decoy_id!r} carries no supervision")
    value = 0.0
    if has_psr:
        psr, _ = psr_loss(refined, example.native_coords, example.matched_nodes)
        value += config.psr_loss_weight * psr
    if has_qa:
        qa, _ = qa_loss(predicted_qa, example.lddt_targets, example.lddt_nodes)
        value += config.qa_loss_weight * qa
    return value


def _element_from_name(raw_name):
    name = raw_name.strip()
    stripped = name.lstrip("0123456789")
    return stripped[:1].upper() if stripped else ""


def _is_hydrogen(element):
    return element in ("H", "D")


def parse_pdb_lines(lines):
    """``structio.parse_pdb`` of a sequence of lines, one line at a time."""
    # per chain, in first-appearance order: its rows
    rows_of_chain = {}
    # per chain: (last raw (resseq, icode), its residue number, residue name)
    residue_state = {}
    seen_atoms = set()

    first_model = None
    current_model = None

    for lineno, line in enumerate(lines, start=1):
        record = line[:6]
        if record.startswith("MODEL"):
            try:
                current_model = int(line[6:].split()[0])
            except (IndexError, ValueError):
                current_model = (first_model or 0) + 1
            if first_model is None:
                first_model = current_model
            continue
        if record.startswith("ENDMDL"):
            current_model = -1 if first_model is not None else None
            continue
        if record != "ATOM  ":
            continue
        if first_model is not None and current_model != first_model:
            continue

        if len(line) < 54:
            raise PdbParseError("ATOM record shorter than coordinate fields", lineno)
        try:
            serial = int(line[6:11])
        except ValueError:
            serial = 0
        raw_name = line[12:16]
        name = raw_name.strip()
        if not name:
            raise PdbParseError("empty atom name", lineno)
        altloc = line[16]
        resname = line[17:20].strip()
        chain_id = line[21]
        try:
            resseq = int(line[22:26])
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise PdbParseError(f"malformed ATOM fields ({exc})", lineno) from None
        icode = line[26] if len(line) > 26 else " "
        element = line[76:78].strip().upper() if len(line) >= 78 else ""
        if not element:
            element = _element_from_name(raw_name)

        if altloc not in (" ", "A"):
            continue
        if _is_hydrogen(element):
            continue
        # numpy string columns drop trailing NULs, which would change a
        # field's text and, for a chain id, the width of the written line
        if "\x00" in line[12:27] + line[76:78]:
            raise PdbParseError("NUL character in a text field", lineno)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise PdbParseError("non-finite coordinate", lineno)

        state = residue_state.get(chain_id)
        raw_key = (resseq, icode)
        if state is None or raw_key != state[0]:
            if state is None:
                number = resseq
            else:
                number = resseq if resseq > state[1] else state[1] + 1
            state = (raw_key, number, resname)
            residue_state[chain_id] = state

        key = (chain_id, state[1], name)
        if key in seen_atoms:
            continue
        seen_atoms.add(key)
        rows_of_chain.setdefault(chain_id, []).append(
            (x, y, z, name, element, chain_id, state[1], state[2], serial)
        )

    rows = [row for chain_rows in rows_of_chain.values() for row in chain_rows]
    if not rows:
        raise EmptyStructureError("no ATOM records survived filtering")
    x, y, z, name, element, chain, resnum, resname, serial = zip(*rows)
    return ComplexStructure(
        np.column_stack([x, y, z]), name, element, chain, resnum, resname, serial
    )
