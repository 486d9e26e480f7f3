"""Seeded synthetic inputs for the benchmark workloads.

Every structure is a two-chain complex. Each chain is a bundle of packed
antiparallel ideal helices; every residue carries its four backbone atoms
plus pseudo side-chain atoms named as in the real residue, so the heavy-atom
density (about 7.9 atoms per residue) is close to real all-atom input. The
residue-type cycle and the chain lengths are fixed, so a structure's atom
count depends only on its size, never on the seed; the seed moves helix
phases, axes and atom positions.

Decoys move the ligand chain (the smaller one) as a rigid body, add
coordinate noise, and trim a few terminal residues, which leaves a partial
atom overlap with the native. Four perturbation levels aim at the four
CAPRI classes (high, medium, acceptable, incorrect).

Every native has an interface, and trimming removes only two N-terminal
and one C-terminal residue per chain, so every decoy keeps enough matched
interface backbone atoms for DockQ to be defined. The trim is the same for
every decoy, so decoy atom counts do not vary with the seed either. A decoy whose DockQ is
undefined aborts a whole ``evaluate`` run today; that is a hardening defect
of the program, not a performance workload, so no such decoy is generated.

This module is standalone: it writes and reads PDB text itself and imports
nothing from the program or its tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (residue name, side-chain atoms as (name, depth, lateral offset))
RESIDUE_CYCLE = (
    ("ALA", (("CB", 1, 0),)),
    ("LEU", (("CB", 1, 0), ("CG", 2, 0), ("CD1", 3, -1), ("CD2", 3, 1))),
    ("LYS", (("CB", 1, 0), ("CG", 2, 0), ("CD", 3, 0), ("CE", 4, 0), ("NZ", 5, 0))),
    ("GLU", (("CB", 1, 0), ("CG", 2, 0), ("CD", 3, 0), ("OE1", 4, -1), ("OE2", 4, 1))),
    ("SER", (("CB", 1, 0), ("OG", 2, 0))),
    ("VAL", (("CB", 1, 0), ("CG1", 2, -1), ("CG2", 2, 1))),
    ("ILE", (("CB", 1, 0), ("CG1", 2, -1), ("CG2", 2, 1), ("CD1", 3, -1))),
    ("ARG", (("CB", 1, 0), ("CG", 2, 0), ("CD", 3, 0), ("NE", 4, 0), ("CZ", 5, 0),
             ("NH1", 6, -1), ("NH2", 6, 1))),
    ("ASP", (("CB", 1, 0), ("CG", 2, 0), ("OD1", 3, -1), ("OD2", 3, 1))),
    ("THR", (("CB", 1, 0), ("OG1", 2, -1), ("CG2", 2, 1))),
    ("GLN", (("CB", 1, 0), ("CG", 2, 0), ("CD", 3, 0), ("OE1", 4, -1), ("NE2", 4, 1))),
    ("PHE", (("CB", 1, 0), ("CG", 2, 0), ("CD1", 3, -1), ("CD2", 3, 1),
             ("CE1", 4, -1), ("CE2", 4, 1), ("CZ", 5, 0))),
    ("MET", (("CB", 1, 0), ("CG", 2, 0), ("SD", 3, 0), ("CE", 4, 0))),
    ("GLY", ()),
)

HELIX_RADIUS = 2.3       # CA distance from the helix axis, A
HELIX_TURN = math.radians(100.0)
HELIX_RISE = 1.5         # A per residue along the axis
HELIX_SPACING = 10.0     # axis-to-axis distance inside and across chains, A
SIDE_STEP = 1.25         # A per side-chain depth level
SIDE_LATERAL = 1.2       # A per side-chain branch offset
JITTER = 0.15            # per-atom positional noise of a native, A

# Rigid ligand moves (rotation degrees, translation A, noise A) per class.
DECOY_LEVELS = {
    "high": (2.0, 0.4, 0.2),
    "medium": (8.0, 2.6, 0.3),
    "acceptable": (18.0, 6.5, 0.4),
    "incorrect": (45.0, 14.0, 0.5),
}
CLASSES = tuple(DECOY_LEVELS)
TRIM = (2, 1)  # residues cut from the N- and C-terminus of each decoy chain


@dataclass(frozen=True)
class Size:
    """Receptor (chain A) and ligand (chain B) as helices x residues each."""

    receptor_helices: int
    ligand_helices: int
    helix_length: int


# Atom counts per native: 1,979 (2k), 1,761 (1.8k), 1,021 (1k).
SIZES = {
    "2k": Size(4, 3, 36),
    "1.8k": Size(4, 3, 32),
    "1k": Size(3, 2, 26),
}


@dataclass
class Structure:
    """Atoms in file order: parallel lists of keys and an (n, 3) array."""

    chain: list[str]
    resseq: list[int]
    resname: list[str]
    name: list[str]
    coords: np.ndarray

    def subset(self, keep: np.ndarray) -> "Structure":
        idx = np.flatnonzero(keep)
        pick = lambda values: [values[i] for i in idx]  # noqa: E731
        return Structure(pick(self.chain), pick(self.resseq), pick(self.resname),
                         pick(self.name), self.coords[idx].copy())


def _helix(rng, length, base, upward):
    """Per-residue (CA, outward radial, tangent, axis) of one ideal helix."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    tilt = rng.normal(scale=0.05, size=2)
    axis = np.array([tilt[0], tilt[1], 1.0 if upward else -1.0])
    axis /= np.linalg.norm(axis)
    ex = np.cross(axis, [0.0, 1.0, 0.0])
    ex /= np.linalg.norm(ex)
    ey = np.cross(axis, ex)
    start = base + rng.normal(scale=0.4, size=3)
    if not upward:
        start = start - axis * HELIX_RISE * (length - 1)
    for i in range(length):
        a = phase + HELIX_TURN * i
        radial = math.cos(a) * ex + math.sin(a) * ey
        tangent_c = -math.sin(a) * ex + math.cos(a) * ey
        tangent = HELIX_RADIUS * HELIX_TURN * tangent_c + HELIX_RISE * axis
        tangent /= np.linalg.norm(tangent)
        ca = start + axis * HELIX_RISE * i + HELIX_RADIUS * radial
        yield ca, radial, tangent, axis


def _residue_atoms(ca, radial, tangent, axis, side) -> list[tuple[str, np.ndarray]]:
    """Backbone atoms, then pseudo side-chain atoms pointing away from the axis."""
    inward = -radial
    binormal = np.cross(tangent, inward)
    c_at = ca + 0.9 * tangent + 0.8 * inward
    atoms = [("N", ca - 0.9 * tangent + 0.8 * inward), ("CA", ca), ("C", c_at),
             ("O", c_at + 0.55 * inward + 0.45 * binormal)]
    lateral = np.cross(axis, radial)
    for name, depth, branch in side:
        atoms.append((name, ca + radial * SIDE_STEP * depth + lateral * SIDE_LATERAL * branch
                       + axis * 0.3 * depth))
    return atoms


def _chain(rng, chain_id, helices, length, origin_x, out):
    """Append a bundle of antiparallel helices on a 2-wide grid to ``out``."""
    resseq = 1
    for h in range(helices):
        base = np.array([origin_x + (h // 2) * HELIX_SPACING,
                         (h % 2) * HELIX_SPACING, 0.0])
        for frame in _helix(rng, length, base, h % 2 == 0):
            resname, side = RESIDUE_CYCLE[(resseq - 1) % len(RESIDUE_CYCLE)]
            for name, pos in _residue_atoms(*frame, side):
                out.append((chain_id, resseq, resname, name, pos))
            resseq += 1


def make_native(seed: int, size: Size) -> Structure:
    """Two-chain complex whose facing helices pack at the bundle spacing."""
    rng = np.random.default_rng(seed)
    rows: list = []
    receptor_width = (size.receptor_helices + 1) // 2
    _chain(rng, "A", size.receptor_helices, size.helix_length, 0.0, rows)
    _chain(rng, "B", size.ligand_helices, size.helix_length,
           receptor_width * HELIX_SPACING, rows)
    coords = np.array([r[4] for r in rows]) + rng.normal(scale=JITTER, size=(len(rows), 3))
    return Structure([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
                     [r[3] for r in rows], coords)


def _rotation(rng, degrees: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(degrees)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def make_decoy(native: Structure, level: str, rng: np.random.Generator,
               trim: bool = True) -> Structure:
    """Rigid ligand move, coordinate noise and (optionally) terminal trimming."""
    degrees, shift, noise = DECOY_LEVELS[level]
    coords = native.coords.copy()
    ligand = np.array([c == "B" for c in native.chain])
    centre = coords[ligand].mean(axis=0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    moved = (coords[ligand] - centre) @ _rotation(rng, degrees).T + centre
    coords[ligand] = moved + shift * direction
    coords += rng.normal(scale=noise, size=coords.shape)
    decoy = Structure(native.chain, native.resseq, native.resname, native.name, coords)
    if not trim:
        return decoy
    resseq = np.array(native.resseq)
    chain = np.array(native.chain)
    keep = np.ones(len(native.chain), dtype=bool)
    for chain_id in ("A", "B"):
        in_chain = chain == chain_id
        first, last = resseq[in_chain].min(), resseq[in_chain].max()
        keep &= ~(in_chain & ((resseq < first + TRIM[0]) | (resseq > last - TRIM[1])))
    return decoy.subset(keep)


def write_pdb(structure: Structure, path) -> None:
    lines = []
    previous = None
    for serial, (chain, resseq, resname, name, xyz) in enumerate(
        zip(structure.chain, structure.resseq, structure.resname, structure.name,
            structure.coords), start=1,
    ):
        if previous is not None and chain != previous:
            lines.append("TER")
        previous = chain
        padded = name if len(name) >= 4 else f" {name:<3}"
        lines.append(
            f"ATOM  {serial:>5d} {padded} {resname:>3} {chain}{resseq:>4d}    "
            f"{xyz[0]:8.3f}{xyz[1]:8.3f}{xyz[2]:8.3f}{1.0:6.2f}{0.0:6.2f}"
            f"          {name[0]:>2}"
        )
    lines += ["TER", "END"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pdb(path) -> tuple[list[tuple[str, int, str]], np.ndarray]:
    """(chain, resseq, atom name) keys and coordinates of the ATOM records."""
    keys, coords = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("ATOM  "):
                keys.append((line[21], int(line[22:26]), line[12:16].strip()))
                coords.append((float(line[30:38]), float(line[38:46]), float(line[46:54])))
    return keys, np.array(coords, dtype=np.float64).reshape(-1, 3)


def refine_inputs(seed: int, directory, count: int) -> list:
    """``count`` distinct docked complexes of the 2k size, as PDB files.

    They are untrimmed decoys, so every refine input has the same atom count.
    """
    rng = np.random.default_rng([seed, 1])
    paths = []
    for i in range(count):
        native = make_native(int(rng.integers(2**31)), SIZES["2k"])
        docked = make_decoy(native, CLASSES[i % len(CLASSES)], rng, trim=False)
        path = directory / f"complex{i}.pdb"
        write_pdb(docked, path)
        paths.append(path)
    return paths


def evaluate_inputs(seed: int, directory, targets: int, decoys_per_target: int) -> dict:
    """Natives, decoys and a scores CSV; returns the intended class mix."""
    rng = np.random.default_rng([seed, 2])
    natives = directory / "natives"
    decoys = directory / "decoys"
    natives.mkdir()
    decoys.mkdir()
    rows = ["target,decoy,predicted_score"]
    mix = dict.fromkeys(CLASSES, 0)
    for t in range(targets):
        target = f"T{t}"
        native = make_native(int(rng.integers(2**31)), SIZES["1.8k"])
        write_pdb(native, natives / f"{target}.pdb")
        for d in range(decoys_per_target):
            level = CLASSES[d % len(CLASSES)]
            mix[level] += 1
            decoy_id = f"{target}_d{d:02d}"
            write_pdb(make_decoy(native, level, rng), decoys / f"{decoy_id}.pdb")
            rows.append(f"{target},{decoy_id},{rng.uniform():.6f}")
    (directory / "scores.csv").write_text("\n".join(rows) + "\n")
    return mix


def train_inputs(seed: int, directory, train_pairs: int, val_pairs: int) -> None:
    """``<id>_decoy.pdb`` / ``<id>_native.pdb`` pairs under train/ and val/."""
    rng = np.random.default_rng([seed, 3])
    for split, count in (("train", train_pairs), ("val", val_pairs)):
        folder = directory / split
        folder.mkdir()
        for i in range(count):
            native = make_native(int(rng.integers(2**31)), SIZES["1k"])
            level = CLASSES[i % 3]  # high, medium, acceptable
            write_pdb(native, folder / f"{split}{i}_native.pdb")
            write_pdb(make_decoy(native, level, rng), folder / f"{split}{i}_decoy.pdb")
