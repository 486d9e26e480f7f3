"""All-atom protein complex structures: PDB I/O, correspondence, superposition.

Structures are parsed from fixed-column PDB text (wwPDB v3.3 ATOM records)
into an immutable chain/residue/atom hierarchy of heavy atoms. The module
also establishes atom correspondence between a decoy and its reference
structure, computes weight-free Kabsch superpositions, and builds local
backbone coordinate frames used by edge featurization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    AlignmentError,
    EmptyStructureError,
    FormatOverflowError,
    NoOverlapError,
    PdbParseError,
)

BACKBONE_ATOMS = ("N", "CA", "C", "O")


@dataclass
class Atom:
    name: str
    element: str
    coord: np.ndarray  # (3,) float64, Angstroms
    residue_index: int
    chain_id: str
    serial: int


@dataclass
class Residue:
    index: int
    name: str
    atoms: list[Atom] = field(default_factory=list)


@dataclass
class Chain:
    chain_id: str
    residues: list[Residue] = field(default_factory=list)


class ComplexStructure:
    """Parsed complex: ordered chains of ordered residues of heavy atoms.

    Treated as immutable after construction; all operations that change
    coordinates produce new objects or explicit coordinate overrides.
    """

    def __init__(self, chains: list[Chain]):
        self.chains = chains
        self._atoms: list[Atom] = [
            a for ch in chains for r in ch.residues for a in r.atoms
        ]

    def atoms(self) -> list[Atom]:
        """Atoms in file order; list index is the structure's atom index."""
        return self._atoms

    def residues(self) -> Iterator[tuple[str, Residue]]:
        for ch in self.chains:
            for res in ch.residues:
                yield ch.chain_id, res

    @property
    def num_atoms(self) -> int:
        return len(self._atoms)

    @property
    def num_chains(self) -> int:
        return len(self.chains)

    def coords(self) -> np.ndarray:
        """(n, 3) coordinate matrix in atom order."""
        return np.array([a.coord for a in self._atoms], dtype=np.float64)

    def atom_keys(self) -> list[tuple[str, int, str]]:
        """(chain_id, residue_index, atom name) per atom, in atom order."""
        return [(a.chain_id, a.residue_index, a.name) for a in self._atoms]

    def with_coords(self, coords: np.ndarray) -> "ComplexStructure":
        """Copy of this structure with every atom coordinate replaced."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (self.num_atoms, 3):
            raise ValueError(
                f"coordinate override shape {coords.shape} != ({self.num_atoms}, 3)"
            )
        chains = []
        i = 0
        for ch in self.chains:
            new_res = []
            for res in ch.residues:
                new_atoms = []
                for a in res.atoms:
                    new_atoms.append(
                        Atom(a.name, a.element, coords[i].copy(), a.residue_index,
                             a.chain_id, a.serial)
                    )
                    i += 1
                new_res.append(Residue(res.index, res.name, new_atoms))
            chains.append(Chain(ch.chain_id, new_res))
        return ComplexStructure(chains)


@dataclass
class AtomCorrespondence:
    """Index pairs between a decoy and a native structure.

    ``pairs[k] = (decoy_atom_index, native_atom_index)``; matching key is
    exactly (chain_id, residue_index, atom name). ``matched_ca`` is the
    sublist restricted to CA atoms.
    """

    pairs: list[tuple[int, int]]
    matched_ca: list[tuple[int, int]]


def _element_from_name(raw_name: str) -> str:
    name = raw_name.strip()
    stripped = name.lstrip("0123456789")
    return stripped[:1].upper() if stripped else ""


def _is_hydrogen(element: str) -> bool:
    return element in ("H", "D")


def parse_pdb(source: str | io.TextIOBase | Iterable[str]) -> ComplexStructure:
    """Parse ATOM records from PDB text into a heavy-atom structure.

    Keeps the first MODEL only, drops HETATM records, hydrogens/deuteriums,
    and altloc codes other than blank or 'A'. Duplicate
    (chain, residue, atom name) occurrences keep the first copy. Insertion
    codes are folded into the per-chain residue numbering by order of
    appearance, so residue indices strictly increase within a chain.

    Raises PdbParseError (with line number) on malformed ATOM records and
    EmptyStructureError if nothing survives filtering.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = source

    chains: list[Chain] = []
    chain_by_id: dict[str, Chain] = {}
    # per chain: (last raw (resseq, icode), last assigned index)
    residue_state: dict[str, tuple[tuple[int, str] | None, int | None]] = {}
    seen_atoms: set[tuple[str, int, str]] = set()

    first_model: int | None = None
    current_model: int | None = None

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
        coord = np.array([x, y, z], dtype=np.float64)
        if not np.all(np.isfinite(coord)):
            raise PdbParseError("non-finite coordinate", lineno)

        chain = chain_by_id.get(chain_id)
        if chain is None:
            chain = Chain(chain_id)
            chain_by_id[chain_id] = chain
            chains.append(chain)
            residue_state[chain_id] = (None, None)

        last_raw, last_index = residue_state[chain_id]
        raw_key = (resseq, icode)
        if raw_key != last_raw or not chain.residues:
            if last_index is None:
                assigned = resseq
            else:
                assigned = resseq if resseq > last_index else last_index + 1
            chain.residues.append(Residue(assigned, resname))
            residue_state[chain_id] = (raw_key, assigned)
        residue = chain.residues[-1]

        key = (chain_id, residue.index, name)
        if key in seen_atoms:
            continue
        seen_atoms.add(key)
        residue.atoms.append(
            Atom(name, element, coord, residue.index, chain_id, serial)
        )

    chains = [
        Chain(ch.chain_id, [r for r in ch.residues if r.atoms])
        for ch in chains
    ]
    chains = [ch for ch in chains if ch.residues]
    structure = ComplexStructure(chains)
    if structure.num_atoms == 0:
        raise EmptyStructureError("no ATOM records survived filtering")
    return structure


def parse_pdb_file(path) -> ComplexStructure:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_pdb(fh)


def _format_atom_name(name: str) -> str:
    # One-letter elements start in column 14; four-char names fill 13-16.
    if len(name) >= 4:
        return name[:4]
    return f" {name:<3}"


def _format_coordinate(value: float) -> str:
    text = f"{value:8.3f}"
    if len(text) != 8:
        raise FormatOverflowError(
            f"coordinate {value:.3f} does not fit the 8-column PDB field"
        )
    return text


def write_pdb(structure: ComplexStructure, coords: np.ndarray | None = None) -> str:
    """Render a structure as fixed-column PDB text.

    ``coords`` optionally overrides every atom coordinate; shape (n, 3).
    Raises FormatOverflowError if any coordinate cannot be printed in the
    8-character "%8.3f" field (magnitude >= 10000 A, or below -999.999 A).
    """
    if coords is not None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (structure.num_atoms, 3):
            raise ValueError(
                f"override shape {coords.shape} != ({structure.num_atoms}, 3)"
            )
    out: list[str] = []
    i = 0
    for ch in structure.chains:
        for res in ch.residues:
            for a in res.atoms:
                xyz = coords[i] if coords is not None else a.coord
                fields = (
                    f"ATOM  {a.serial:>5d} {_format_atom_name(a.name)} "
                    f"{res.name:>3s} {ch.chain_id}{res.index:>4d}    "
                    f"{_format_coordinate(xyz[0])}{_format_coordinate(xyz[1])}"
                    f"{_format_coordinate(xyz[2])}{1.0:6.2f}{0.0:6.2f}"
                    f"          {a.element:>2s}"
                )
                out.append(fields)
                i += 1
        out.append("TER")
    out.append("END")
    return "\n".join(out) + "\n"


def match_atoms(decoy: ComplexStructure, native: ComplexStructure) -> AtomCorrespondence:
    """Pair atoms sharing the (chain_id, residue_index, atom name) key.

    Raises NoOverlapError when no atom matches.
    """
    native_by_key = {key: i for i, key in enumerate(native.atom_keys())}
    pairs: list[tuple[int, int]] = []
    matched_ca: list[tuple[int, int]] = []
    for di, key in enumerate(decoy.atom_keys()):
        ni = native_by_key.get(key)
        if ni is None:
            continue
        pairs.append((di, ni))
        if key[2] == "CA":
            matched_ca.append((di, ni))
    if not pairs:
        raise NoOverlapError("no atoms share a (chain, residue, name) key")
    return AtomCorrespondence(pairs=pairs, matched_ca=matched_ca)


def kabsch_superpose(
    mobile: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares rigid superposition of ``mobile`` onto ``target``.

    Returns (rotation, translation, rmsd) with a proper rotation
    (det = +1) such that ``rotation @ x + translation`` maps mobile points
    onto the target frame and rmsd is the minimum over rigid transforms.
    Optional non-negative per-point weights bias both the fit and the
    reported deviation.

    Raises AlignmentError for fewer than 3 points or a (near-)collinear
    point set, where the optimal rotation is not unique.
    """
    mobile = np.asarray(mobile, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if mobile.shape != target.shape or mobile.ndim != 2 or mobile.shape[1] != 3:
        raise ValueError("mobile and target must both have shape (m, 3)")
    m = mobile.shape[0]
    if m < 3:
        raise AlignmentError(f"need at least 3 points, got {m}")
    if weights is None:
        w = np.ones(m, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError(f"weights shape {w.shape} != ({m},)")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
    wsum = w.sum()
    cm = (w[:, None] * mobile).sum(axis=0) / wsum
    ct = (w[:, None] * target).sum(axis=0) / wsum
    p = mobile - cm
    q = target - ct
    h = p.T @ (w[:, None] * q)
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0 or s[1] <= s[0] * 1e-9:
        raise AlignmentError("degenerate (collinear or coincident) point set")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = ct - rotation @ cm
    moved = mobile @ rotation.T + translation
    rmsd = math.sqrt(float((w * ((moved - target) ** 2).sum(axis=1)).sum() / wsum))
    return rotation, translation, rmsd


def rmsd_without_superposition(a: np.ndarray, b: np.ndarray) -> float:
    """Plain coordinate RMSD between two equal-shape (m, 3) arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("coordinate arrays differ in shape")
    return math.sqrt(float(((a - b) ** 2).sum(axis=1).mean()))


def build_residue_frames(
    structure: ComplexStructure,
) -> tuple[np.ndarray, np.ndarray]:
    """Local backbone coordinate systems, one per residue.

    For residues with N, CA, and C atoms the origin is the CA position and
    the rotation columns are e1 = unit(C-CA), e2 = unit component of N-CA
    orthogonal to e1, and e3 = e1 x e2. Residues missing a backbone atom
    (or with a degenerate backbone geometry) fall back to the residue
    centroid with an identity rotation.

    Returns (origins, rotations) with shapes (n_res, 3) and (n_res, 3, 3),
    ordered as the structure's residues.
    """
    origins = []
    rotations = []
    for _, res in structure.residues():
        by_name = {a.name: a.coord for a in res.atoms}
        centroid = np.mean([a.coord for a in res.atoms], axis=0)
        n = by_name.get("N")
        ca = by_name.get("CA")
        c = by_name.get("C")
        frame = None
        if n is not None and ca is not None and c is not None:
            e1 = c - ca
            norm1 = np.linalg.norm(e1)
            if norm1 > 1e-8:
                e1 = e1 / norm1
                v = n - ca
                e2 = v - (v @ e1) * e1
                norm2 = np.linalg.norm(e2)
                if norm2 > 1e-8:
                    e2 = e2 / norm2
                    e3 = np.cross(e1, e2)
                    frame = (ca, np.column_stack([e1, e2, e3]))
        if frame is None:
            frame = (centroid, np.eye(3))
        origins.append(frame[0])
        rotations.append(frame[1])
    return np.array(origins, dtype=np.float64), np.array(rotations, dtype=np.float64)
