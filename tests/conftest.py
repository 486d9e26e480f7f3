"""Shared fixtures: synthetic structures, PDB text and weights builders."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from equiref.metrics import Reference
from equiref.structio import ComplexStructure

RESIDUE_CYCLE = ("ALA", "GLY", "SER", "LEU", "VAL", "THR", "LYS", "ASP")
COLUMNS = ("coords", "name", "element", "chain", "resnum", "resname", "serial")


def pdb_line(
    serial,
    name,
    resname,
    chain,
    resseq,
    x,
    y,
    z,
    altloc=" ",
    icode=" ",
    element=None,
    record="ATOM",
):
    """One fixed-column ATOM/HETATM record."""
    if element is None:
        stripped = name.strip().lstrip("0123456789")
        element = stripped[:1].upper()
    padded_name = name if len(name) >= 4 else f" {name:<3}"
    return (
        f"{record:<6}{serial:>5d} {padded_name}{altloc}{resname:>3} "
        f"{chain}{resseq:>4d}{icode}   {x:8.3f}{y:8.3f}{z:8.3f}"
        f"{1.0:6.2f}{0.0:6.2f}          {element:>2}"
    )


def helix_backbone(n_res, radius=2.3, turn_deg=100.0, rise=1.5, phase=0.0,
                   origin=(0.0, 0.0, 0.0)):
    """Idealized helical backbone: per-residue (N, CA, C, O) coordinates.

    Bond lengths come out near covalent range (inter-residue C-N ~1.5 A)
    so covalent-bond detection and residue frames behave like real chains.
    """
    turn = np.deg2rad(turn_deg)
    origin = np.asarray(origin, dtype=np.float64)
    out = []
    for i in range(n_res):
        a = phase + turn * i
        ca = origin + np.array([radius * np.cos(a), radius * np.sin(a), rise * i])
        t = np.array([-radius * turn * np.sin(a), radius * turn * np.cos(a), rise])
        t = t / np.linalg.norm(t)
        nvec = np.array([-np.cos(a), -np.sin(a), 0.0])
        b = np.cross(t, nvec)
        n_at = ca - 0.9 * t + 0.8 * nvec
        c_at = ca + 0.9 * t + 0.8 * nvec
        o_at = c_at + 0.55 * nvec + 0.45 * b
        out.append((n_at, ca, c_at, o_at))
    return out


def build_structure(rows):
    """Structure from (chain, resnum, resname, atom name, xyz) rows.

    Each element is the first letter of its atom name; serials count from 1.
    """
    chain, resnum, resname, name, xyz = zip(*rows)
    return ComplexStructure(
        np.array(xyz, dtype=np.float64).reshape(-1, 3), name,
        [n[0] for n in name], chain, resnum, resname, range(1, len(name) + 1),
    )


def replace_columns(structure, **columns):
    """Copy of ``structure`` with the named columns replaced."""
    return ComplexStructure(
        **{key: columns.get(key, getattr(structure, key)) for key in COLUMNS}
    )


def take_rows(structure, rows):
    """Structure made of the selected rows of ``structure``."""
    return ComplexStructure(**{key: getattr(structure, key)[rows] for key in COLUMNS})


def reference_contacts(structure):
    """The contact codes of ``Reference(structure)`` decoded into the set of
    ``oracles.contacts_bruteforce``: sorted pairs of (chain, resnum) keys."""
    starts = structure.residue_starts
    keys = list(zip(structure.chain[starts].tolist(), structure.resnum[starts].tolist()))
    lo, hi = np.divmod(Reference(structure).contacts, structure.num_residues)
    return {tuple(sorted((keys[p], keys[q]))) for p, q in zip(lo.tolist(), hi.tolist())}


def make_chain(chain_id, backbone, first_index=1, resnames=None):
    """Rows of backbone-only residues from helix_backbone output."""
    resnames = resnames or RESIDUE_CYCLE
    rows = []
    for i, atoms in enumerate(backbone):
        for name, coord in zip(("N", "CA", "C", "O"), atoms):
            rows.append((chain_id, first_index + i, resnames[i % len(resnames)],
                         name, coord))
    return rows


def make_complex(n_res_a=6, n_res_b=5, separation=6.0):
    """Two-chain synthetic complex with a genuine interface."""
    back_a = helix_backbone(n_res_a)
    back_b = helix_backbone(n_res_b, phase=2.2, origin=(separation, 0.0, 1.0))
    return build_structure(make_chain("A", back_a) + make_chain("B", back_b))


def random_rotation(rng, proper=True):
    """Uniform-ish random rotation from a QR decomposition."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    if not proper:
        q[:, 0] = -q[:, 0]
    return q


def transform_structure(structure, rotation, translation):
    coords = structure.coords @ rotation.T + translation
    return structure.with_coords(coords)


def traced_peak(fn, *args):
    """The peak of the memory traced while ``fn(*args)`` runs, in bytes;
    numpy registers its array buffers with ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rewrite_header(blob, edit):
    """Weights container ``blob`` after ``edit`` changed its header in place."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + length:]


@pytest.fixture
def two_chain_complex():
    return make_complex()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
