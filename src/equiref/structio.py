"""All-atom protein complex structures: PDB I/O, correspondence, superposition.

A structure is one immutable table with a row per heavy atom. Its columns
are read-only numpy arrays, one row per atom:

    coords   (n, 3) float64  coordinates in Angstroms
    name     (n,) str        atom name, e.g. "CA"
    element  (n,) str        element symbol, e.g. "C"
    chain    (n,) str        chain id
    resnum   (n,) intp       residue number
    resname  (n,) str        residue name, e.g. "GLY"
    serial   (n,) intp       atom serial number

Rows are grouped by chain, and a chain's rows by residue. A residue is a
run of rows with one (chain, resnum), and residue numbers strictly increase
within a chain. The constructor derives two more arrays: ``residue``, the
ordinal of each row's residue over the whole structure, and
``residue_starts``, the first row of each residue.

``parse_pdb`` builds the table from fixed-column PDB text (wwPDB v3.3 ATOM
records). Chains come in order of first appearance, and each chain keeps
its atoms in file order, so interleaved chains are regrouped. A residue
takes its name from its first atom. Insertion codes fold into the residue
numbers, so that they strictly increase within a chain. The module also
establishes atom correspondence between a decoy and its reference
structure, computes Kabsch superpositions, and builds local backbone
coordinate frames used by edge featurization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    AlignmentError,
    EmptyStructureError,
    FormatOverflowError,
    NoOverlapError,
    PdbParseError,
)

BACKBONE_ATOMS = ("N", "CA", "C", "O")


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class ComplexStructure:
    """A complex as one table of heavy atoms; see the module docstring.

    Every column is a read-only copy of the given values. Raises
    ValueError when the columns differ in length, a chain's rows are not
    contiguous, or residue numbers decrease within a chain.
    """

    def __init__(self, coords, name, element, chain, resnum, resname, serial):
        self.coords = _column(coords, np.float64)
        self.name = _column(name, str)
        self.element = _column(element, str)
        self.chain = _column(chain, str)
        self.resnum = _column(resnum, np.intp)
        self.resname = _column(resname, str)
        self.serial = _column(serial, np.intp)
        n = self.name.shape[0]
        columns = (self.name, self.element, self.chain, self.resnum,
                   self.resname, self.serial)
        if self.coords.shape != (n, 3) or any(c.shape != (n,) for c in columns):
            raise ValueError(f"structure columns do not all have {n} rows")

        same_chain = self.chain[1:] == self.chain[:-1]
        if np.any(same_chain & (self.resnum[1:] < self.resnum[:-1])):
            raise ValueError("residue numbers decrease within a chain")
        chain_start = np.ones(n, dtype=bool)
        chain_start[1:] = ~same_chain
        self._chain_starts = np.flatnonzero(chain_start)
        self.chain_ids: tuple[str, ...] = tuple(self.chain[chain_start].tolist())
        if len(set(self.chain_ids)) != len(self.chain_ids):
            raise ValueError("the rows of a chain are not contiguous")
        residue_start = chain_start.copy()
        residue_start[1:] |= self.resnum[1:] != self.resnum[:-1]
        self.residue_starts = _column(np.flatnonzero(residue_start), np.intp)
        self.residue = _column(np.cumsum(residue_start) - 1, np.intp)

    @property
    def num_atoms(self) -> int:
        return self.name.shape[0]

    @property
    def num_residues(self) -> int:
        return self.residue_starts.shape[0]

    @property
    def num_chains(self) -> int:
        return len(self.chain_ids)

    def chain_slices(self) -> list[tuple[str, slice]]:
        """(chain id, row slice) of every chain, in row order."""
        bounds = [*self._chain_starts.tolist(), self.num_atoms]
        return [(chain_id, slice(start, stop))
                for chain_id, start, stop in zip(self.chain_ids, bounds, bounds[1:])]

    def residue_rows(self, atom_name: str) -> np.ndarray:
        """Row of the atom called ``atom_name`` in each residue; -1 if absent."""
        rows = np.flatnonzero(self.name == atom_name)
        out = np.full(self.num_residues, -1, dtype=np.intp)
        out[self.residue[rows]] = rows
        return out

    def with_coords(self, coords: np.ndarray) -> "ComplexStructure":
        """Copy of this structure with every atom coordinate replaced."""
        return ComplexStructure(coords, self.name, self.element, self.chain,
                                self.resnum, self.resname, self.serial)


@dataclass
class AtomCorrespondence:
    """Row pairs between a decoy and a native structure.

    ``pairs`` is an (m, 2) array of (decoy row, native row) in decoy row
    order; the matching key is exactly (chain, resnum, name).
    ``matched_ca`` holds the pairs of CA atoms.
    """

    pairs: np.ndarray       # (m, 2) intp
    matched_ca: np.ndarray  # (c, 2) intp


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
    (chain, residue, atom name) occurrences keep the first copy. Rows are
    grouped by chain in order of first appearance. A residue takes its name
    from its first atom. Insertion codes are folded into the per-chain
    residue numbering by order of appearance, so residue numbers strictly
    increase within a chain.

    Raises PdbParseError (with line number) on malformed ATOM records,
    including a NUL character in a kept record's text fields, and
    EmptyStructureError if nothing survives filtering.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = source

    # per chain, in first-appearance order: its rows
    rows_of_chain: dict[str, list[tuple]] = {}
    # per chain: (last raw (resseq, icode), its residue number, residue name)
    residue_state: dict[str, tuple[tuple[int, str], int, str]] = {}
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


def parse_pdb_file(path) -> ComplexStructure:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_pdb(fh)


def _format_atom_name(name: str) -> str:
    # One-letter elements start in column 14; four-char names fill 13-16.
    if len(name) >= 4:
        return name[:4]
    return f" {name:<3}"


def _format_coordinate(value: float) -> str:
    if not math.isfinite(value):
        raise FormatOverflowError(f"non-finite coordinate {value} cannot be written")
    text = f"{value:8.3f}"
    if len(text) != 8:
        raise FormatOverflowError(
            f"coordinate {value:.3f} does not fit the 8-column PDB field"
        )
    return text


def _format_integer(value: int, width: int, what: str) -> str:
    text = f"{value:>{width}d}"
    if len(text) != width:
        raise FormatOverflowError(
            f"{what} {value} does not fit the {width}-column PDB field"
        )
    return text


def write_pdb(structure: ComplexStructure, coords: np.ndarray | None = None) -> str:
    """Render a structure as fixed-column PDB text.

    ``coords`` optionally overrides every atom coordinate; shape (n, 3).
    Raises FormatOverflowError for a value the fixed columns cannot hold:
    a non-finite coordinate, a coordinate outside the "%8.3f" field
    (magnitude >= 10000 A, or below -999.999 A), or a residue number
    outside -999..9999, so the text always parses back.
    """
    if coords is None:
        coords = structure.coords
    else:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape != (structure.num_atoms, 3):
            raise ValueError(
                f"override shape {coords.shape} != ({structure.num_atoms}, 3)"
            )
    out: list[str] = []
    for _, rows in structure.chain_slices():
        for serial, name, resname, chain, resnum, xyz, element in zip(
            structure.serial[rows].tolist(), structure.name[rows].tolist(),
            structure.resname[rows].tolist(), structure.chain[rows].tolist(),
            structure.resnum[rows].tolist(), coords[rows].tolist(),
            structure.element[rows].tolist(),
        ):
            out.append(
                f"ATOM  {_format_integer(serial, 5, 'atom serial')} "
                f"{_format_atom_name(name)} {resname:>3s} {chain}"
                f"{_format_integer(resnum, 4, 'residue number')}    "
                f"{_format_coordinate(xyz[0])}{_format_coordinate(xyz[1])}"
                f"{_format_coordinate(xyz[2])}{1.0:6.2f}{0.0:6.2f}"
                f"          {element:>2s}"
            )
        out.append("TER")
    out.append("END")
    return "\n".join(out) + "\n"


def match_atoms(
    decoy: ComplexStructure, native: ComplexStructure
) -> AtomCorrespondence:
    """Pair atoms sharing the (chain, resnum, name) key.

    Raises NoOverlapError when no atom matches.
    """
    native_row = {
        key: row for row, key in enumerate(
            zip(native.chain.tolist(), native.resnum.tolist(), native.name.tolist())
        )
    }
    decoy_keys = zip(decoy.chain.tolist(), decoy.resnum.tolist(), decoy.name.tolist())
    pairs = np.array(
        [(row, native_row[key])
         for row, key in enumerate(decoy_keys) if key in native_row],
        dtype=np.intp,
    ).reshape(-1, 2)
    if not pairs.size:
        raise NoOverlapError("no atoms share a (chain, residue, name) key")
    return AtomCorrespondence(
        pairs=pairs, matched_ca=pairs[decoy.name[pairs[:, 0]] == "CA"]
    )


def kabsch_superpose(
    mobile: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares rigid superposition of ``mobile`` onto ``target``.

    Returns (rotation, translation, rmsd) with a proper rotation
    (det = +1) such that ``rotation @ x + translation`` maps mobile points
    onto the target frame and rmsd is the minimum over rigid transforms.

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
    cm = mobile.sum(axis=0) / m
    ct = target.sum(axis=0) / m
    p = mobile - cm
    q = target - ct
    h = p.T @ q
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0 or s[1] <= s[0] * 1e-9:
        raise AlignmentError("degenerate (collinear or coincident) point set")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = ct - rotation @ cm
    moved = mobile @ rotation.T + translation
    rmsd = math.sqrt(float(((moved - target) ** 2).sum(axis=1).sum() / m))
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
    xyz = structure.coords
    n_rows, ca_rows, c_rows = (
        structure.residue_rows(name) for name in ("N", "CA", "C")
    )
    bounds = [*structure.residue_starts.tolist(), structure.num_atoms]
    origins = []
    rotations = []
    for r in range(structure.num_residues):
        frame = None
        if n_rows[r] >= 0 and ca_rows[r] >= 0 and c_rows[r] >= 0:
            n, ca, c = xyz[n_rows[r]], xyz[ca_rows[r]], xyz[c_rows[r]]
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
            frame = (np.mean(xyz[bounds[r]:bounds[r + 1]], axis=0), np.eye(3))
        origins.append(frame[0])
        rotations.append(frame[1])
    return np.array(origins, dtype=np.float64), np.array(rotations, dtype=np.float64)
