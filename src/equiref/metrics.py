"""Structural quality metrics for protein complex decoys.

Contacts, Fnat/Fnonnat, interface and ligand RMSD, the composite DockQ
score with its quality classes, superposition-free per-residue LDDT over
CA atoms, Top-N hit rates, ranking loss, and refinement improvement
statistics. Conventions follow the standard DockQ/CAPRI and LDDT
parameterizations: 5 A heavy-atom contacts, 10 A interfaces, backbone
(N, CA, C, O) superposition, class cutoffs 0.23/0.49/0.80, LDDT inclusion
radius 15 A with thresholds 0.5/1/2/4 A. These cutoffs, the radius and
the thresholds are fixed conventions, held in the module constants below;
no function takes them as parameters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlignmentError,
    NoInterfaceError,
    UndefinedMetricError,
)
from .structio import (
    BACKBONE_ATOMS,
    AtomCorrespondence,
    ComplexStructure,
    kabsch_superpose,
    match_atoms,
)

CONTACT_CUTOFF = 5.0
INTERFACE_CUTOFF = 10.0
LDDT_RADIUS = 15.0
LDDT_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
DOCKQ_LRMSD_SCALE = 8.5
DOCKQ_IRMSD_SCALE = 1.5
CLASS_ACCEPTABLE = 0.23
CLASS_MEDIUM = 0.49
CLASS_HIGH = 0.80

ResidueKey = tuple[str, int]
ContactPair = tuple[ResidueKey, ResidueKey]

REPORT_SCHEMA_VERSION = 1
CSV_FIELDS = (
    "target", "decoy", "fnat", "fnonnat", "irmsd", "lrmsd", "dockq",
    "lddt", "class",
)


def _cross_chain_residue_pairs(
    structure: ComplexStructure, cutoff: float
) -> set[ContactPair]:
    """Residue pairs of different chains with any atom pair within ``cutoff``."""
    per_chain = []
    for chain_id, rows in structure.chain_slices():
        residue = structure.residue[rows]
        starts = structure.residue_starts[residue[0]:residue[-1] + 1]
        keys = [(chain_id, number) for number in structure.resnum[starts].tolist()]
        per_chain.append((structure.coords[rows], residue - residue[0], keys))
    out: set[ContactPair] = set()
    for i, (ci, res_i, keys_i) in enumerate(per_chain):
        for cj, res_j, keys_j in per_chain[i + 1:]:
            diff = ci[:, None, :] - cj[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            a, b = np.nonzero(d2 < cutoff * cutoff)
            hit = np.zeros((len(keys_i), len(keys_j)), dtype=bool)
            hit[res_i[a], res_j[b]] = True
            out.update(
                tuple(sorted((keys_i[p], keys_j[q]))) for p, q in zip(*np.nonzero(hit))
            )
    return out


def contacts(structure: ComplexStructure) -> set[ContactPair]:
    """Cross-chain residue pairs with any heavy-atom pair within 5 A.

    Raises NoInterfaceError for single-chain structures.
    """
    if structure.num_chains < 2:
        raise NoInterfaceError("contacts require at least two chains")
    return _cross_chain_residue_pairs(structure, CONTACT_CUTOFF)


def fnat_fnonnat(
    decoy: ComplexStructure, native: ComplexStructure
) -> tuple[float, float]:
    """Fraction of native contacts recovered, and of decoy contacts that
    are non-native. Empty contact sets contribute 0 by convention."""
    native_contacts = _cross_chain_residue_pairs(native, CONTACT_CUTOFF)
    decoy_contacts = _cross_chain_residue_pairs(decoy, CONTACT_CUTOFF)
    fnat = (
        len(decoy_contacts & native_contacts) / len(native_contacts)
        if native_contacts
        else 0.0
    )
    fnonnat = (
        len(decoy_contacts - native_contacts) / len(decoy_contacts)
        if decoy_contacts
        else 0.0
    )
    return fnat, fnonnat


def _matched_backbone(
    decoy: ComplexStructure,
    native: ComplexStructure,
    correspondence: AtomCorrespondence,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decoy rows, decoy coordinates and native coordinates of the matched
    backbone atoms, in correspondence order."""
    pairs = correspondence.pairs
    pairs = pairs[np.isin(decoy.name[pairs[:, 0]], BACKBONE_ATOMS)]
    return pairs[:, 0], decoy.coords[pairs[:, 0]], native.coords[pairs[:, 1]]


def _interface_residue_keys(native: ComplexStructure) -> set[ResidueKey]:
    pairs = _cross_chain_residue_pairs(native, INTERFACE_CUTOFF)
    return {key for pair in pairs for key in pair}


def irmsd(
    decoy: ComplexStructure,
    native: ComplexStructure,
    correspondence: AtomCorrespondence | None = None,
) -> float:
    """Backbone RMSD over the native interface region after superposition.

    Interface residues are native residues with any cross-chain heavy atom
    within 10 A; the decoy is superposed onto the native over the matched
    interface backbone atoms and the residual deviation is returned.
    """
    if native.num_chains < 2:
        raise NoInterfaceError("interface RMSD requires at least two chains")
    if correspondence is None:
        correspondence = match_atoms(decoy, native)
    rows, mobile, target = _matched_backbone(decoy, native, correspondence)
    interface = _interface_residue_keys(native)
    keys = zip(decoy.chain[rows].tolist(), decoy.resnum[rows].tolist())
    in_interface = np.array([key in interface for key in keys], dtype=bool)
    mobile, target = mobile[in_interface], target[in_interface]
    if mobile.shape[0] < 3:
        raise UndefinedMetricError(
            f"only {mobile.shape[0]} matched interface backbone atoms"
        )
    try:
        _, _, value = kabsch_superpose(mobile, target)
    except AlignmentError as exc:
        raise UndefinedMetricError(str(exc)) from None
    return value


def lrmsd(
    decoy: ComplexStructure,
    native: ComplexStructure,
    correspondence: AtomCorrespondence | None = None,
) -> float:
    """Ligand backbone RMSD after superposing on the receptor backbone.

    The receptor is the native chain with the most residues, ties going to
    the smallest chain id; every other chain is ligand.
    """
    if native.num_chains < 2:
        raise NoInterfaceError("ligand RMSD requires at least two chains")
    if correspondence is None:
        correspondence = match_atoms(decoy, native)
    residue_chain = native.chain[native.residue_starts]
    receptor_id = min(
        (-np.count_nonzero(residue_chain == chain_id), chain_id)
        for chain_id in native.chain_ids
    )[1]
    rows, mobile, target = _matched_backbone(decoy, native, correspondence)
    receptor = decoy.chain[rows] == receptor_id
    n_receptor = int(receptor.sum())
    if n_receptor < 3:
        raise UndefinedMetricError(
            f"only {n_receptor} matched receptor backbone atoms"
        )
    if receptor.all():
        raise UndefinedMetricError("no matched ligand backbone atoms")
    try:
        rotation, translation, _ = kabsch_superpose(mobile[receptor], target[receptor])
    except AlignmentError as exc:
        raise UndefinedMetricError(str(exc)) from None
    lig_moved = mobile[~receptor] @ rotation.T + translation
    lig_target = target[~receptor]
    return math.sqrt(float(((lig_moved - lig_target) ** 2).sum(axis=1).mean()))


def dockq(fnat: float, lrmsd_value: float, irmsd_value: float) -> float:
    """Composite docking quality score in [0, 1]."""
    if not 0.0 <= fnat <= 1.0:
        raise ValueError(f"fnat {fnat} outside [0, 1]")
    if lrmsd_value < 0 or irmsd_value < 0:
        raise ValueError("RMSD inputs must be non-negative")
    scaled_l = 1.0 / (1.0 + (lrmsd_value / DOCKQ_LRMSD_SCALE) ** 2)
    scaled_i = 1.0 / (1.0 + (irmsd_value / DOCKQ_IRMSD_SCALE) ** 2)
    return (fnat + scaled_l + scaled_i) / 3.0


def _distance_matrix(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def lddt_ca(
    decoy: ComplexStructure,
    native: ComplexStructure,
    correspondence: AtomCorrespondence | None = None,
) -> tuple[np.ndarray, float]:
    """Superposition-free per-residue distance-preservation score.

    For each matched CA atom i, considers every other matched CA j whose
    native distance is under 15 A and scores the fraction of pairs whose
    distance error stays below each threshold (0.5, 1, 2 and 4 A),
    averaged over thresholds. Residues with no qualifying pair get NaN and
    are excluded from the global mean.

    Returns (per-residue scores aligned with ``correspondence.matched_ca``,
    global mean).
    """
    if correspondence is None:
        correspondence = match_atoms(decoy, native)
    matched = correspondence.matched_ca
    m = len(matched)
    if m < 2:
        raise UndefinedMetricError(f"need >= 2 matched CA atoms, got {m}")
    decoy_ca = decoy.coords[matched[:, 0]]
    native_ca = native.coords[matched[:, 1]]
    d_decoy = _distance_matrix(decoy_ca)
    d_native = _distance_matrix(native_ca)
    include = (d_native < LDDT_RADIUS) & ~np.eye(m, dtype=bool)
    error = np.abs(d_decoy - d_native)

    n_pairs = include.sum(axis=1)
    per_row = np.maximum(n_pairs, 1)
    total = sum(((error < t) & include).sum(axis=1) / per_row for t in LDDT_THRESHOLDS)
    scores = np.where(n_pairs > 0, total / len(LDDT_THRESHOLDS), np.nan)
    defined = scores[~np.isnan(scores)]
    if defined.size == 0:
        raise UndefinedMetricError("no residue has a qualifying CA pair")
    return scores, float(defined.mean())


def quality_class(dockq_value: float) -> str:
    """CAPRI-style class from a DockQ score (boundaries inclusive)."""
    if not 0.0 <= dockq_value <= 1.0:
        raise ValueError(f"dockq {dockq_value} outside [0, 1]")
    if dockq_value >= CLASS_HIGH:
        return "high"
    if dockq_value >= CLASS_MEDIUM:
        return "medium"
    if dockq_value >= CLASS_ACCEPTABLE:
        return "acceptable"
    return "incorrect"


@dataclass
class DecoyScore:
    decoy_id: str
    predicted: float
    true_dockq: float


@dataclass
class RankingInput:
    """Scored decoys of one target; the native reference scores 1.0."""

    target_id: str
    decoys: list[DecoyScore] = field(default_factory=list)


def _ranked(decoys: list[DecoyScore]) -> list[DecoyScore]:
    return sorted(decoys, key=lambda d: (-d.predicted, d.decoy_id))


def hit_rate(
    targets: list[RankingInput], top_n: int = 10
) -> tuple[list[tuple[str, tuple[int, int, int]]], tuple[int, int, int]]:
    """Per-target (acceptable, medium, high) counts among the top-N ranked
    decoys, plus the summary count of targets hitting each level."""
    per_target = []
    summary = [0, 0, 0]
    for target in targets:
        if not target.decoys:
            raise ValueError(f"target {target.target_id} has no decoys")
        top = _ranked(target.decoys)[:top_n]
        a = sum(1 for d in top if d.true_dockq >= CLASS_ACCEPTABLE)
        b = sum(1 for d in top if d.true_dockq >= CLASS_MEDIUM)
        c = sum(1 for d in top if d.true_dockq >= CLASS_HIGH)
        per_target.append((target.target_id, (a, b, c)))
        for k, count in enumerate((a, b, c)):
            if count > 0:
                summary[k] += 1
    return per_target, tuple(summary)


def format_triple(triple: tuple[int, int, int]) -> str:
    return "/".join(str(v) for v in triple)


def format_mean_std(values) -> str:
    """Summary-row shape: mean and sample standard deviation to 4 places."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return f"{mean:.4f} ± {std:.4f}"


def ranking_loss(target: RankingInput) -> float:
    """Gap between the reference quality (1.0) and the true quality of the
    decoy ranked first by predicted score (ties by decoy id)."""
    if not target.decoys:
        raise ValueError(f"target {target.target_id} has no decoys")
    best = _ranked(target.decoys)[0]
    return 1.0 - best.true_dockq


def improvement_stats(
    initial: np.ndarray | list[float], refined: np.ndarray | list[float]
) -> tuple[float, float]:
    """Fraction of decoys improved, and mean percentage improvement over
    the improved decoys (0 when nothing improved)."""
    initial = np.asarray(initial, dtype=np.float64)
    refined = np.asarray(refined, dtype=np.float64)
    if initial.shape != refined.shape:
        raise ValueError("initial and refined lists differ in length")
    if initial.size == 0:
        return 0.0, 0.0
    improved = refined > initial
    fi = float(improved.mean())
    if not improved.any():
        return fi, 0.0
    gains = 100.0 * (refined[improved] - initial[improved]) / np.maximum(
        initial[improved], 1e-6
    )
    return fi, float(gains.mean())


@dataclass
class QualityReport:
    fnat: float
    fnonnat: float
    irmsd: float
    lrmsd: float
    dockq: float
    lddt_ca_global: float
    per_residue_lddt: list[dict]
    quality_class: str

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "fnat": self.fnat,
            "fnonnat": self.fnonnat,
            "irmsd": self.irmsd,
            "lrmsd": self.lrmsd,
            "dockq": self.dockq,
            "lddt_ca": self.lddt_ca_global,
            "quality_class": self.quality_class,
            "per_residue_lddt": self.per_residue_lddt,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def score_pair(decoy: ComplexStructure, native: ComplexStructure) -> QualityReport:
    """Full quality report for a decoy against its reference structure."""
    correspondence = match_atoms(decoy, native)
    fnat, fnonnat = fnat_fnonnat(decoy, native)
    irmsd_value = irmsd(decoy, native, correspondence)
    lrmsd_value = lrmsd(decoy, native, correspondence)
    dockq_value = dockq(fnat, lrmsd_value, irmsd_value)
    scores, lddt_global = lddt_ca(decoy, native, correspondence)
    rows = correspondence.matched_ca[:, 0]
    per_residue = [
        {"chain": chain, "residue": number,
         "lddt": None if math.isnan(value) else value}
        for chain, number, value in zip(
            decoy.chain[rows].tolist(), decoy.resnum[rows].tolist(), scores
        )
    ]
    return QualityReport(
        fnat=fnat,
        fnonnat=fnonnat,
        irmsd=irmsd_value,
        lrmsd=lrmsd_value,
        dockq=dockq_value,
        lddt_ca_global=lddt_global,
        per_residue_lddt=per_residue,
        quality_class=quality_class(dockq_value),
    )


def reports_to_csv(rows: list[tuple[str, str, QualityReport]]) -> str:
    """One CSV row per (target, decoy, report), with a header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_FIELDS)
    for target, decoy_id, report in rows:
        writer.writerow(
            [
                target,
                decoy_id,
                f"{report.fnat:.6f}",
                f"{report.fnonnat:.6f}",
                f"{report.irmsd:.6f}",
                f"{report.lrmsd:.6f}",
                f"{report.dockq:.6f}",
                f"{report.lddt_ca_global:.6f}",
                report.quality_class,
            ]
        )
    return buffer.getvalue()
