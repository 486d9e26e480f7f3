"""Structural quality metrics for protein complex decoys.

Contacts, Fnat/Fnonnat, interface and ligand RMSD, the composite DockQ
score with its quality classes, superposition-free per-residue LDDT over
CA atoms, Top-N hit rates and ranking loss. Conventions follow the
standard DockQ/CAPRI and LDDT parameterizations: 5 A heavy-atom contacts,
10 A interfaces, backbone (N, CA, C, O) superposition, class cutoffs
0.23/0.49/0.80, LDDT inclusion radius 15 A with thresholds 0.5/1/2/4 A.
These cutoffs, the radius and the thresholds are fixed conventions, held
in the module constants below; no function takes them as parameters.

A ``Reference`` holds what scoring reads of a native, built once however
many decoys it scores: its contacts and interface, its LDDT pairs, its
residue ordinals, its ``structio.AtomIndex`` and its LRMSD receptor. Each
metric is one function, and ``score_pair(decoy, ref)`` calls them:
``fnat_fnonnat`` and ``irmsd``/``lrmsd`` read the reference, and
``lddt_ca`` reads only the native's LDDT pairs and the atom
correspondence, so training needs no reference: it takes the pairs from
``lddt_pairs(native)``.

Atom pairs come from ``structio.close_pair_blocks``, a cell grid that
tests only atom pairs from neighbouring cells. One search over every pair
of chains gives a structure's residue pairs under 5 A as numpy
residue-pair codes, and a mask of its residues within the search cutoff
of another chain: a search at 10 A thus gives a native's contacts and its
interface at once, and a decoy takes one search at 5 A. LDDT takes one
15 A search over all of the native's CA atoms, once per native; a decoy
keeps the pairs whose two ends it matches and computes its distances for
those pairs only.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AlignmentError,
    NoInterfaceError,
    UndefinedMetricError,
)
from .structio import (
    AtomCorrespondence,
    AtomIndex,
    ComplexStructure,
    _squared_distances,
    close_pair_blocks,
    kabsch_superpose,
    match_atoms,
    rmsd_without_superposition,
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

REPORT_SCHEMA_VERSION = 1
CSV_FIELDS = (
    "target", "decoy", "fnat", "fnonnat", "irmsd", "lrmsd", "dockq",
    "lddt", "class",
)


def _cross_chain_residue_pairs(
    structure: ComplexStructure, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """One grid search over every pair of chains.

    Returns the codes ``lo * R + hi`` (R residues, ``lo`` in the earlier
    chain) of the residue pairs with an atom pair under CONTACT_CUTOFF, and
    a mask of the residues with an atom of another chain under ``cutoff``,
    which is CONTACT_CUTOFF or more.
    """
    num_residues = structure.num_residues
    near = np.zeros(num_residues, dtype=bool)
    codes = [np.empty(0, dtype=np.intp)]
    slices = [rows for _, rows in structure.chain_slices()]
    for i, rows_i in enumerate(slices):
        res_i = structure.residue[rows_i]
        for rows_j in slices[i + 1:]:
            res_j = structure.residue[rows_j]
            hit = np.zeros((res_i[-1] - res_i[0] + 1, res_j[-1] - res_j[0] + 1),
                           dtype=bool)
            for a, b, d2 in close_pair_blocks(
                structure.coords[rows_i], structure.coords[rows_j], cutoff
            ):
                near[res_i[a]] = True
                near[res_j[b]] = True
                contact = d2 < CONTACT_CUTOFF * CONTACT_CUTOFF
                hit[res_i[a[contact]] - res_i[0], res_j[b[contact]] - res_j[0]] = True
            p, q = np.nonzero(hit)
            codes.append((p + res_i[0]) * num_residues + (q + res_j[0]))
    return np.concatenate(codes), near


def _residue_keys(structure: ComplexStructure) -> list[ResidueKey]:
    starts = structure.residue_starts
    return list(zip(structure.chain[starts].tolist(), structure.resnum[starts].tolist()))


class LddtPairs(NamedTuple):
    """A native's CA atom pairs closer than LDDT_RADIUS: the native rows
    ``i < j`` of each pair and their ``distance``. ``num_atoms`` is the
    native's row count."""

    num_atoms: int
    i: np.ndarray
    j: np.ndarray
    distance: np.ndarray


def lddt_pairs(native: ComplexStructure) -> LddtPairs:
    """The native's LDDT pairs, from one search at LDDT_RADIUS over all of
    its CA atoms. A distance is ``sqrt(d2)`` of the search's ``d2``, so it
    depends only on the pair's two coordinates."""
    rows = np.flatnonzero(native.name == "CA")
    ca = native.coords[rows]
    blocks = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    for i, j, d2 in close_pair_blocks(ca, ca, LDDT_RADIUS):
        distance = np.sqrt(d2)
        keep = (distance < LDDT_RADIUS) & (i < j)
        blocks.append((rows[i[keep]], rows[j[keep]], distance[keep]))
    return LddtPairs(native.num_atoms, *map(np.concatenate, zip(*blocks)))


class Reference:
    """What scoring reads of a native, built once however many decoys it
    scores.

    ``contacts`` holds the codes of the native's residue pairs under
    CONTACT_CUTOFF and ``interface`` masks its residues within
    INTERFACE_CUTOFF of another chain; one pair search at INTERFACE_CUTOFF
    gives both. ``lddt_pairs`` holds the native's CA pairs under
    LDDT_RADIUS from one more search, which every decoy's ``lddt_ca``
    reads. ``ordinal`` is the residue ordinal of each (chain, resnum)
    key, ``index`` the native's ``AtomIndex`` and ``receptor`` the LRMSD
    receptor: the chain with the most residues, ties going to the smallest
    chain id. A single-chain native builds; the interface metrics then
    raise NoInterfaceError.
    """

    def __init__(self, native: ComplexStructure):
        self.native = native
        self.contacts, self.interface = _cross_chain_residue_pairs(
            native, INTERFACE_CUTOFF)
        self.lddt_pairs = lddt_pairs(native)
        self.ordinal = {key: i for i, key in enumerate(_residue_keys(native))}
        self.index = AtomIndex(native)
        residue_chain = native.chain[native.residue_starts]
        self.receptor = min(
            (-np.count_nonzero(residue_chain == chain_id), chain_id)
            for chain_id in native.chain_ids
        )[1]


def fnat_fnonnat(decoy: ComplexStructure, ref: Reference) -> tuple[float, float]:
    """Fraction of native contacts recovered, and of decoy contacts that
    are non-native. The decoy's contacts take one pair search at
    CONTACT_CUTOFF. Empty contact sets contribute 0 by convention."""
    decoy_contacts, _ = _cross_chain_residue_pairs(decoy, CONTACT_CUTOFF)
    lo, hi = np.divmod(decoy_contacts, decoy.num_residues)
    in_native = np.array([ref.ordinal.get(key, -1) for key in _residue_keys(decoy)],
                         dtype=np.intp)
    lo, hi = in_native[lo], in_native[hi]
    both = (lo >= 0) & (hi >= 0)
    lo, hi = lo[both], hi[both]
    codes = np.minimum(lo, hi) * ref.native.num_residues + np.maximum(lo, hi)
    shared = int(np.isin(codes, ref.contacts).sum())
    fnat = shared / ref.contacts.size if ref.contacts.size else 0.0
    fnonnat = (
        (decoy_contacts.size - shared) / decoy_contacts.size
        if decoy_contacts.size
        else 0.0
    )
    return fnat, fnonnat


def irmsd(
    decoy: ComplexStructure, ref: Reference, correspondence: AtomCorrespondence
) -> float:
    """Backbone RMSD over the native interface region after superposition.

    Interface residues are native residues with any cross-chain heavy atom
    within 10 A; the decoy is superposed onto the native over the matched
    interface backbone atoms and the residual deviation is returned.
    """
    native = ref.native
    if native.num_chains < 2:
        raise NoInterfaceError("interface RMSD requires at least two chains")
    pairs = correspondence.backbone
    pairs = pairs[ref.interface[native.residue[pairs[:, 1]]]]
    mobile, target = decoy.coords[pairs[:, 0]], native.coords[pairs[:, 1]]
    if mobile.shape[0] < 3:
        raise UndefinedMetricError(
            f"only {mobile.shape[0]} matched interface backbone atoms"
        )
    try:
        _, _, value = kabsch_superpose(mobile, target)
    except AlignmentError as exc:
        raise UndefinedMetricError(str(exc)) from None
    return _finite_rmsd(value)


def lrmsd(
    decoy: ComplexStructure, ref: Reference, correspondence: AtomCorrespondence
) -> float:
    """Ligand backbone RMSD after superposing on the receptor backbone.

    The receptor is ``ref.receptor``; every other chain is ligand.
    """
    native = ref.native
    if native.num_chains < 2:
        raise NoInterfaceError("ligand RMSD requires at least two chains")
    pairs = correspondence.backbone
    mobile, target = decoy.coords[pairs[:, 0]], native.coords[pairs[:, 1]]
    receptor = decoy.chain[pairs[:, 0]] == ref.receptor
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
    return _finite_rmsd(rmsd_without_superposition(
        mobile[~receptor] @ rotation.T + translation, target[~receptor]))


def _finite_rmsd(value: float) -> float:
    """``value``; an RMSD that overflowed raises UndefinedMetricError."""
    if not math.isfinite(value):
        raise UndefinedMetricError("coordinates too large: the RMSD overflows")
    return value


def dockq(fnat: float, lrmsd_value: float, irmsd_value: float) -> float:
    """Composite docking quality score in [0, 1]."""
    if not 0.0 <= fnat <= 1.0:
        raise ValueError(f"fnat {fnat} outside [0, 1]")
    if lrmsd_value < 0 or irmsd_value < 0:
        raise ValueError("RMSD inputs must be non-negative")
    scaled_l = 1.0 / (1.0 + (lrmsd_value / DOCKQ_LRMSD_SCALE) ** 2)
    scaled_i = 1.0 / (1.0 + (irmsd_value / DOCKQ_IRMSD_SCALE) ** 2)
    return (fnat + scaled_l + scaled_i) / 3.0


def lddt_ca(
    decoy: ComplexStructure,
    pairs: LddtPairs,
    correspondence: AtomCorrespondence,
) -> tuple[np.ndarray, float]:
    """Superposition-free per-residue distance-preservation score.

    For each matched CA atom i, considers every other matched CA j whose
    native distance is under 15 A and scores the fraction of pairs whose
    distance error stays below each threshold (0.5, 1, 2 and 4 A),
    averaged over thresholds. Residues with no qualifying pair get NaN and
    are excluded from the global mean. ``pairs`` are the native's
    ``lddt_pairs``; of them the decoy keeps those whose two ends it
    matches, and computes its distances for those pairs only. A native CA
    that several decoy CAs match (a decoy that repeats a (chain, resnum,
    name) key) is scored through the last of them; the others get NaN.

    Returns (per-residue scores aligned with ``correspondence.matched_ca``,
    global mean).
    """
    if not isinstance(pairs, LddtPairs):
        raise TypeError(
            f"lddt_ca takes the native's lddt_pairs(native), got {type(pairs).__name__}")
    matched = correspondence.matched_ca
    m = len(matched)
    if m < 2:
        raise UndefinedMetricError(f"need >= 2 matched CA atoms, got {m}")
    position = np.full(pairs.num_atoms, -1, dtype=np.intp)
    np.maximum.at(position, matched[:, 1], np.arange(m))
    i, j = position[pairs.i], position[pairs.j]
    both = (i >= 0) & (j >= 0)
    i, j, d_native = i[both], j[both], pairs.distance[both]
    decoy_axes = np.ascontiguousarray(decoy.coords[matched[:, 0]].T)
    d2_decoy = _squared_distances(lambda k: (decoy_axes[k].take(i), decoy_axes[k].take(j)))
    # a pair counts at both of its CAs
    ends = np.concatenate([i, j])
    error = np.tile(np.abs(np.sqrt(d2_decoy) - d_native), 2)
    n_pairs = np.bincount(ends, minlength=m)
    per_row = np.maximum(n_pairs, 1)
    total = sum(np.bincount(ends[error < t], minlength=m) / per_row
                for t in LDDT_THRESHOLDS)
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
    targets: list[RankingInput], top_n: int
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


def score_pair(decoy: ComplexStructure, ref: Reference) -> QualityReport:
    """Full quality report for a decoy against its reference.

    The decoy takes one atom match and one pair search at CONTACT_CUTOFF;
    the native's passes, its LDDT pairs among them, are those ``ref``
    holds. A decoy that shares no atom key with the native raises
    NoOverlapError before any interface metric is tried.
    """
    correspondence = match_atoms(decoy, ref.index)
    fnat, fnonnat = fnat_fnonnat(decoy, ref)
    irmsd_value = irmsd(decoy, ref, correspondence)
    lrmsd_value = lrmsd(decoy, ref, correspondence)
    dockq_value = dockq(fnat, lrmsd_value, irmsd_value)
    scores, lddt_global = lddt_ca(decoy, ref.lddt_pairs, correspondence)
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
