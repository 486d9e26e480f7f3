"""Independent reference implementations used to check the package.

The metric oracles are deliberately written as plain loops over scalars so
they share no code path with the package's vectorized implementations.
The loss oracles compute the training loss and its coordinate and score
gradients in closed form with numpy, without the autodiff tape. The
attention oracle is the quadratic form of the model's linear-time global
attention.
"""

import math

import numpy as np

from equiref.errors import LossUndefinedError, SkipExample
from equiref.train import HUBER_DELTA

LDDT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)


def pair_distance(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
        raise SkipExample(f"example {example.decoy_id!r} carries no supervision")
    value = 0.0
    if has_psr:
        psr, _ = psr_loss(refined, example.native_coords, example.matched_nodes)
        value += config.psr_loss_weight * psr
    if has_qa:
        qa, _ = qa_loss(predicted_qa, example.lddt_targets, example.lddt_nodes)
        value += config.qa_loss_weight * qa
    return value
