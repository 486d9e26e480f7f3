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
numbers, so that they strictly increase within a chain. The parse works
on columns, not lines: the columns it reads of the ATOM records become
arrays of code points, a row per record, and the checks, filters,
residue numbers and de-duplication are array operations over them. A
numeric field's value is the one Python's ``int`` or ``float`` gives: a
canonical field (digits right-justified, as ``write_pdb`` writes them) is
read from its digit codes, and any other goes through ``int`` or
``float`` itself.

The module also establishes atom correspondence between a decoy and its
reference structure (``match_atoms`` reads an ``AtomIndex`` of the native,
built once however many decoys it scores), computes Kabsch
superpositions, and builds the rotations of the local backbone frames used
by edge featurization.

One pair search hands out the package's atom-pair distances:
``close_pair_blocks`` is a radius query on a cell grid (cell lists; Allen
& Tildesley, *Computer Simulation of Liquids*, 1987). It tests only pairs
from neighbouring cells, in blocks of at most ``PAIR_CHUNK // 4``
candidates, so memory stays bounded at any size, and yields the pairs
under the cutoff with their ``dx*dx + dy*dy + dz*dz``, added in that
order by one helper. The contact and interface sets, the k-NN graph, the
surface proximity and LDDT read it.
"""

from __future__ import annotations

import codecs
import functools
import io
import itertools
import math
import operator
from dataclasses import dataclass
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
# The pair search tests its candidate pairs in blocks of at most
# PAIR_CHUNK // 4, which bounds its working memory; a block holds whole
# rows and every row is independent, so results do not depend on it.
PAIR_CHUNK = 2 ** 18


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
    ``matched_ca`` holds the pairs of CA atoms and ``backbone`` those of
    the BACKBONE_ATOMS, both in the same order.
    """

    pairs: np.ndarray       # (m, 2) intp
    matched_ca: np.ndarray  # (c, 2) intp
    backbone: np.ndarray    # (b, 2) intp


# ATOM records are read in columns 6-53, serial number to z, and 76-77,
# the element symbol; a record must reach column 54, the end of z. Numeric
# fields are (start, stop, decimals), 0-based and end-exclusive: serial,
# resSeq, x, y and z.
_FIRST_READ = 6
_SHORTEST_ATOM = 54
_ELEMENT_COLUMNS = (76, 78)
_NUMBER_FIELDS = ((6, 11, 0), (22, 26, 0), (30, 38, 3), (38, 46, 3), (46, 54, 3))


def _element_from_name(raw_name: str) -> str:
    name = raw_name.strip()
    stripped = name.lstrip("0123456789")
    return stripped[:1].upper() if stripped else ""


def _is_hydrogen(element: str) -> bool:
    return element in ("H", "D")


def _text(codes: list[int]) -> str:
    return "".join(map(chr, codes))


@functools.cache
def _number_layout() -> tuple[list[int], list[slice], np.ndarray, np.ndarray,
                            np.ndarray, np.ndarray]:
    """How the numeric fields are read from the code points of their columns.

    Returns the fields' columns in order and each field's slice of them;
    the place value of each column's digit, one row per field, so that a
    product with the digit values gives each field's digits as one
    integer; and three masks over the columns that define the canonical
    form, right-justified ``-?d+`` and then '.' and the field's decimals if
    it has any: where a space or '-' may stand instead of a digit, where
    the '.' stands, and where a space or '-' needs a space before it.
    """
    columns, fields, lead, point, after = [], [], [], [], []
    places = np.zeros((len(_NUMBER_FIELDS), sum(b - a for a, b, _ in _NUMBER_FIELDS)),
                      dtype=np.float32)
    for field, (start, stop, decimals) in enumerate(_NUMBER_FIELDS):
        whole = stop - start - (decimals + 1 if decimals else 0)
        fields.append(slice(len(columns), len(columns) + stop - start))
        exponent = whole + decimals
        for j in range(stop - start):
            is_point = decimals > 0 and j == whole
            if not is_point:
                exponent -= 1
                places[field, len(columns)] = 10.0 ** exponent
            columns.append(start - _FIRST_READ + j)
            lead.append(j < whole - 1)
            point.append(is_point)
            after.append(0 < j < whole)
    return columns, fields, places, *(np.array(m)[:, None] for m in (lead, point, after))


def _numbers(codes: np.ndarray, long: np.ndarray) -> tuple[list[np.ndarray], list[dict]]:
    """Each numeric field of the records ``codes`` (one row of code points
    each, from column ``_FIRST_READ``), and the ValueError of each field
    that its conversion rejects, by record.

    A field in canonical form is read from its digit codes: its digits as
    one integer over 10**decimals round to the double that ``float`` gives.
    Every other field of a ``long`` record goes through Python's ``int`` or
    ``float``, so a value is always the one those give.
    """
    columns, fields, places, lead, point, after = _number_layout()
    # one row per column; code points above 126 read as 127, no class
    block = np.minimum(codes.T[columns], 127, casting="unsafe",
                       out=np.empty((len(columns), codes.shape[0]), dtype=np.uint8))
    digit = block - ord("0")
    is_digit = digit < 10
    digit *= is_digit
    space = block == ord(" ")
    minus = block == ord("-")
    leading = space | minus
    ok = leading & lead | is_digit & ~point | (block == ord(".")) & point
    ok[1:] &= ~(after[1:] & leading[1:] & ~space[:-1])
    # A canonical field has at most 7 digits, so float32 sums them exactly.
    values = (places @ digit).astype(np.float64)
    results, errors = [], []
    for (start, stop, decimals), field, value in zip(_NUMBER_FIELDS, fields, values):
        value = np.where(minus[field].any(axis=0), -value, value)
        value = value / 10.0 ** decimals if decimals else value.astype(np.int64)
        convert = float if decimals else int
        bad = {}
        for i in np.flatnonzero(long & ~ok[field].all(axis=0)).tolist():
            try:
                value[i] = convert(_text(
                    codes[i, start - _FIRST_READ:stop - _FIRST_READ].tolist()))
            except ValueError as exc:
                bad[i] = exc
        results.append(value)
        errors.append(bad)
    return results, errors


def _code_points(records: list[str], start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of each record as one row of code points, zero
    past the record's end; a NUL in the record is a zero too, so only the
    record's length tells the two apart."""
    width = stop - start
    text = np.fromiter(map(operator.itemgetter(slice(start, stop)), records),
                       dtype=f"U{width}", count=len(records))
    return text.view(np.uint32).reshape(len(records), width)


def _packed(*columns: np.ndarray) -> np.ndarray:
    """Up to three columns of code points as one int64 per row: code points
    are below 2**21, so equal keys mean equal columns."""
    key = np.zeros(columns[0].shape, dtype=np.int64)
    for column in columns:
        key <<= 21
        key |= column
    return key


def _distinct(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group of each row of the equal-length ``keys``, and the first row of
    each group; rows with equal values in every key share a group."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    new[0] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


def _string_column(values: list[str], group: np.ndarray) -> np.ndarray:
    """``values[group]`` as numpy makes it from a list: as wide as the
    longest string in it, and at least one character."""
    lengths = np.fromiter(map(len, values), dtype=np.intp, count=len(values))
    return np.array(values, dtype=f"U{max(1, int(lengths[group].max()))}")[group]


def _first_model_atoms(lines: list[str]) -> np.ndarray:
    """Indices of the ATOM lines in the first model, or of every ATOM line
    when no MODEL record comes before it."""
    text = np.array(lines, dtype="U6")  # the record names
    model = np.strings.startswith(text, "MODEL")
    control = np.flatnonzero(model | np.strings.startswith(text, "ENDMDL"))
    keep = [True]  # the ATOM lines after control record i read keep[i + 1]
    first = current = None
    for i in control.tolist():
        if model[i]:
            try:
                current = int(lines[i][6:].split()[0])
            except (IndexError, ValueError):
                current = (first or 0) + 1
            if first is None:
                first = current
        else:
            current = -1 if first is not None else None
        keep.append(first is None or current == first)
    atoms = np.flatnonzero(np.strings.startswith(text, "ATOM  "))
    return atoms[np.array(keep)[np.searchsorted(control, atoms)]]


def parse_pdb(source: str | io.TextIOBase | Iterable[str]) -> ComplexStructure:
    """Parse ATOM records from PDB text into a heavy-atom structure.

    Keeps the first MODEL only, drops HETATM records, hydrogens/deuteriums,
    and altloc codes other than blank or 'A'. Duplicate
    (chain, residue, atom name) occurrences keep the first copy. Rows are
    grouped by chain in order of first appearance. A residue takes its name
    from its first atom. Insertion codes are folded into the per-chain
    residue numbering by order of appearance, so residue numbers strictly
    increase within a chain. A numeric field's value is the one Python's
    ``int`` or ``float`` gives for its columns.

    Raises PdbParseError (with line number) on malformed ATOM records,
    including a NUL character in a kept record's text fields, and
    EmptyStructureError if nothing survives filtering. The first bad line
    raises; within a line the checks run in this order: length, atom
    name, numbers, then, for a record that the altloc and hydrogen filters
    keep, NUL characters and finite coordinates.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = list(source)
    rows = _first_model_atoms(lines)
    if not rows.size:
        raise EmptyStructureError("no ATOM records survived filtering")
    records = list(map(lines.__getitem__, rows.tolist()))
    # only the columns read become code points: serial number to z, and
    # the element symbol
    codes = _code_points(records, _FIRST_READ, _SHORTEST_ATOM)
    element_codes = _code_points(records, *_ELEMENT_COLUMNS)
    length = np.fromiter(map(len, records), dtype=np.intp, count=rows.size)
    long = length >= _SHORTEST_ATOM
    (serial, resseq, *xyz), bad = _numbers(codes, long)
    serial[list(bad[0])] = 0
    coords = np.column_stack(xyz)
    malformed = np.zeros(rows.size, dtype=bool)
    for errors in bad[1:]:
        malformed[list(errors)] = True

    # Columns 12-26: atom name, altloc, residue name, chain id, resSeq, iCode.
    fields = np.ascontiguousarray(codes.T[12 - _FIRST_READ:27 - _FIRST_READ])
    # Names and elements: one Python evaluation per distinct combination
    # of the atom-name columns and the element columns of a long record.
    has_element = length >= _ELEMENT_COLUMNS[1]
    element = [(column + 1) * has_element for column in element_codes.T]
    atom_kind, representatives = _distinct(
        _packed(*fields[:3]), _packed(fields[3], *element))
    names, elements = [], []
    for row in representatives.tolist():
        raw_name = _text(fields[:4, row].tolist())
        symbol = _text(element_codes[row].tolist()) if has_element[row] else ""
        symbol = symbol.strip().upper()
        names.append(raw_name.strip())
        elements.append(symbol or _element_from_name(raw_name))
    named = np.array([bool(name) for name in names])[atom_kind]
    dropped = ((fields[4] != ord(" ")) & (fields[4] != ord("A"))
               | np.array([_is_hydrogen(e) for e in elements])[atom_kind])
    has_nul = ((fields == 0).any(axis=0) | ((element_codes == 0)
               & (length[:, None] > np.arange(*_ELEMENT_COLUMNS))).any(axis=1))
    finite = np.isfinite(coords).all(axis=1)
    failed = ~long | ~named | malformed | (has_nul | ~finite) & ~dropped
    if failed.any():
        i = int(np.argmax(failed))
        if malformed[i] and long[i] and named[i]:
            reason = next(f"malformed ATOM fields ({errors[i]})"
                          for errors in bad[1:] if i in errors)
        else:
            reason = next(reason for fails, reason in (
                (~long, "ATOM record shorter than coordinate fields"),
                (~named, "empty atom name"),
                (has_nul, "NUL character in a text field"),
                (~finite, "non-finite coordinate"),
            ) if fails[i])
        raise PdbParseError(reason, int(rows[i]) + 1)

    kept = np.flatnonzero(~dropped)
    if not kept.size:
        raise EmptyStructureError("no ATOM records survived filtering")
    # chains in order of first appearance, each chain's atoms in file order
    chain_of, first_atom = _distinct(fields[9, kept])
    appearance = np.empty_like(first_atom)
    appearance[np.argsort(first_atom)] = np.arange(first_atom.size)
    by_chain = np.argsort(appearance[chain_of], kind="stable")
    atoms, chain = kept[by_chain], chain_of[by_chain]
    rank = appearance[chain]

    # A residue starts at a chain's first atom and wherever (resSeq, iCode)
    # changes. Its number n_r = max(resSeq_r, n_(r-1) + 1) within a chain is
    # the maximum over the chain's residues j <= r of resSeq_j - j, plus r;
    # an offset per chain, above any spread of resSeq - j, restarts it.
    number, icode = resseq[atoms], fields[14, atoms]
    starts = np.ones(atoms.size, dtype=bool)
    starts[1:] = ((rank[1:] != rank[:-1]) | (number[1:] != number[:-1])
                  | (icode[1:] != icode[:-1]))
    residue = np.cumsum(starts) - 1
    heads = atoms[starts]
    ordinal = np.arange(heads.size)
    offset = rank[starts] * (np.ptp(number[starts]) + heads.size + 1)
    folded = np.maximum.accumulate(number[starts] - ordinal + offset) - offset + ordinal
    # a residue is named by its first atom
    resname_kind, representatives = _distinct(_packed(*fields[5:8, heads]))
    resnames = [_text(row).strip()
                for row in fields[5:8, heads[representatives]].T.tolist()]

    # the first atom of each (residue, stripped atom name)
    name_ids: dict[str, int] = {}
    name_id = np.array([name_ids.setdefault(name, len(name_ids)) for name in names])
    _, first = np.unique(residue * len(name_ids) + name_id[atom_kind[atoms]],
                         return_index=True)
    first.sort()
    atoms, chain, residue = atoms[first], chain[first], residue[first]
    chain_ids = [chr(code) for code in fields[9, kept[first_atom]].tolist()]
    return ComplexStructure(
        coords[atoms],
        _string_column(names, atom_kind[atoms]),
        _string_column(elements, atom_kind[atoms]),
        _string_column(chain_ids, chain),
        folded[residue],
        _string_column(resnames, resname_kind[residue]),
        serial[atoms],
    )


def parse_pdb_file(path) -> ComplexStructure:
    """``parse_pdb`` of a file; a parse error's message starts with the path.

    A leading UTF-8 byte-order mark is skipped. Every other byte is read as
    ASCII, a non-ASCII byte as one U+FFFD, so the columns never shift.
    """
    with open(path, "rb") as fh:
        text = fh.read().removeprefix(codecs.BOM_UTF8).decode("ascii", "replace")
    try:
        return parse_pdb(text)
    except (PdbParseError, EmptyStructureError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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
            f"coordinate {value:.6g} does not fit the 8-column PDB field"
        )
    return text


def _format_integer(value: int, width: int, what: str) -> str:
    text = f"{value:>{width}d}"
    if len(text) != width:
        raise FormatOverflowError(
            f"{what} {value} does not fit the {width}-column PDB field"
        )
    return text


def write_pdb(structure: ComplexStructure) -> str:
    """Render a structure as fixed-column PDB text.

    Raises FormatOverflowError for a value the fixed columns cannot hold:
    a non-finite coordinate, a coordinate outside the "%8.3f" field
    (magnitude >= 10000 A, or below -999.999 A), or a residue number
    outside -999..9999, so the text always parses back.
    """
    out: list[str] = []
    for _, rows in structure.chain_slices():
        for serial, name, resname, chain, resnum, xyz, element in zip(
            structure.serial[rows].tolist(), structure.name[rows].tolist(),
            structure.resname[rows].tolist(), structure.chain[rows].tolist(),
            structure.resnum[rows].tolist(), structure.coords[rows].tolist(),
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


class AtomIndex:
    """A native's row of each (chain, resnum, name) key, and its CA and
    backbone masks, built once for ``match_atoms`` to read for each decoy.
    A repeated key keeps its last row."""

    def __init__(self, native: ComplexStructure):
        self.row = dict(zip(
            zip(native.chain.tolist(), native.resnum.tolist(), native.name.tolist()),
            range(native.num_atoms),
        ))
        self.is_ca = native.name == "CA"
        self.is_backbone = np.isin(native.name, BACKBONE_ATOMS)


def match_atoms(decoy: ComplexStructure, index: AtomIndex) -> AtomCorrespondence:
    """Pair the decoy's atoms with the native rows of ``index`` that share
    their (chain, resnum, name) key.

    Raises NoOverlapError when no atom matches.
    """
    keys = zip(decoy.chain.tolist(), decoy.resnum.tolist(), decoy.name.tolist())
    rows = np.fromiter(map(index.row.get, keys, itertools.repeat(-1)),
                       dtype=np.intp, count=decoy.num_atoms)
    matched = np.flatnonzero(rows >= 0)
    if not matched.size:
        raise NoOverlapError("no atoms share a (chain, residue, name) key")
    pairs = np.column_stack([matched, rows[matched]])
    return AtomCorrespondence(pairs=pairs, matched_ca=pairs[index.is_ca[pairs[:, 1]]],
                              backbone=pairs[index.is_backbone[pairs[:, 1]]])


def kabsch_superpose(
    mobile: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares rigid superposition of ``mobile`` onto ``target``.

    Returns (rotation, translation, rmsd) with a proper rotation
    (det = +1) such that ``rotation @ x + translation`` maps mobile points
    onto the target frame and rmsd is the minimum over rigid transforms.

    Raises AlignmentError for fewer than 3 points; for a (near-)collinear
    point set, where the optimal rotation is not unique, or one whose
    spread float64 cannot resolve (a point far beyond the rest leaves the
    covariance of rank one, as collinear points do); and for coordinates
    so large that their covariance overflows.
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
    if not np.isfinite(h).all():
        raise AlignmentError("coordinates too large to superpose")
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0 or s[1] <= s[0] * 1e-9:
        raise AlignmentError("no unique superposition: the points are (near-)collinear "
                             "or coincident, or spread too widely to resolve")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = ct - rotation @ cm
    rmsd = rmsd_without_superposition(mobile @ rotation.T + translation, target)
    return rotation, translation, rmsd


def rmsd_without_superposition(a: np.ndarray, b: np.ndarray) -> float:
    """Plain coordinate RMSD between two equal-shape (m, 3) arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("coordinate arrays differ in shape")
    return math.sqrt(float(((a - b) ** 2).sum(axis=1).mean()))


def _squared_distances(coordinates) -> np.ndarray:
    """``dx*dx + dy*dy + dz*dz``, added in that order, as a new array.

    ``coordinates(k)`` gives the k-th coordinates of both sides as two
    broadcastable arrays; it is called one axis at a time.
    """
    a, b = coordinates(0)
    d2 = np.subtract(a, b)
    d2 *= d2
    diff = np.empty_like(d2)
    for axis in (1, 2):
        np.subtract(*coordinates(axis), out=diff)
        diff *= diff
        d2 += diff
    return d2


# Cell edges exceed the cutoff by this factor, which is far above the
# rounding of the binning, so a pair whose computed d2 is under the cutoff
# never lies two cells apart on an axis. A grid has at most 2**20 cells
# per axis (wider cells where the points spread further), which keeps that
# rounding small and every cell key inside int64.
_CELL_MARGIN = 2.0 ** -20
_MAX_CELLS = 2 ** 20


def close_pair_blocks(
    a: np.ndarray, b: np.ndarray, cutoff: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row pairs of ``a`` and ``b`` closer than ``cutoff``, from a cell grid.

    Yields (i, j, d2) for blocks of candidate pairs: ``d2`` is
    ``dx*dx + dy*dy + dz*dz`` between ``a[i]`` and ``b[j]``, added in that
    order, and every pair with ``d2 < cutoff * cutoff`` appears exactly
    once over all blocks. Only pairs from the 3 x 3 x 3 cells around a row
    of ``a`` are tested. A block holds the pairs of whole rows of ``a``, in
    ascending order of ``i``, from at most PAIR_CHUNK // 4 candidates (and
    at least one row). A row with a non-finite coordinate is closer to
    nothing. Coordinates are assumed to differ by less than the float64
    range.
    """
    limit = cutoff * cutoff
    keep_a = np.flatnonzero(np.isfinite(a).all(axis=1))
    keep_b = np.flatnonzero(np.isfinite(b).all(axis=1))
    if not limit > 0 or keep_a.size == 0 or keep_b.size == 0:
        return
    a, b = a[keep_a], b[keep_b]
    low = np.minimum(a.min(axis=0), b.min(axis=0))
    span = float((np.maximum(a.max(axis=0), b.max(axis=0)) - low).max())
    edge = max(cutoff * (1.0 + _CELL_MARGIN), span / _MAX_CELLS)
    # cells start at 1 on every axis, so every neighbour index is >= 0
    cell_a = np.floor((a - low) / edge).astype(np.int64) + 1
    cell_b = np.floor((b - low) / edge).astype(np.int64) + 1
    dims = np.maximum(cell_a.max(axis=0), cell_b.max(axis=0)) + 2

    def keys(cells):
        return (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]

    key_b = keys(cell_b)
    order = np.argsort(key_b, kind="stable")
    sorted_keys = key_b[order]
    b_axes = np.ascontiguousarray(b[order].T)
    b_rows = keep_b[order]
    # The three cells along z around (x + dx, y + dy, z) hold consecutive
    # keys, so each of the nine (dx, dy) columns is one run of sorted b.
    columns = np.array([(dx * dims[1] + dy) * dims[2]
                        for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    centre = keys(cell_a)[:, None] + columns
    first = np.searchsorted(sorted_keys, centre - 1, side="left")
    count = np.searchsorted(sorted_keys, centre + 1, side="right") - first
    per_row = count.sum(axis=1)
    rows = np.flatnonzero(per_row)
    first, count, per_row = first[rows], count[rows], per_row[rows]
    bounds = np.concatenate(([0], np.cumsum(per_row)))
    a_axes = np.ascontiguousarray(a[rows].T)
    a_rows = keep_a[rows]
    budget = max(1, PAIR_CHUNK // 4)
    lo = 0
    while lo < rows.size:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + budget, "right")) - 1)
        runs = count[lo:hi].ravel()
        j = np.arange(bounds[lo], bounds[hi])
        j -= np.repeat(np.cumsum(runs) - runs + bounds[lo] - first[lo:hi].ravel(), runs)
        d2 = _squared_distances(
            lambda k: (a_axes[k, lo:hi].repeat(per_row[lo:hi]), b_axes[k].take(j)))
        close = d2 < limit
        # every row has a candidate, so each row's close count is one sum
        close_per_row = np.add.reduceat(close, bounds[lo:hi] - bounds[lo])
        yield a_rows[lo:hi].repeat(close_per_row), b_rows[j[close]], d2[close]
        lo = hi


def build_residue_frames(structure: ComplexStructure) -> np.ndarray:
    """Local backbone rotations, one per residue.

    For residues with N, CA, and C atoms the rotation columns are
    e1 = unit(C-CA), e2 = unit component of N-CA orthogonal to e1, and
    e3 = e1 x e2. Residues missing a backbone atom (or with a degenerate
    backbone geometry) get the identity rotation.

    Returns an (n_res, 3, 3) array ordered as the structure's residues.
    """
    xyz = structure.coords
    rows = np.stack([structure.residue_rows(name) for name in ("N", "CA", "C")])
    # a missing atom (row -1) reads the last row; the mask drops its frame
    n, ca, c = xyz[rows]
    e1 = c - ca
    norm1 = np.sqrt(np.vecdot(e1, e1))
    ok = np.all(rows >= 0, axis=0) & (norm1 > 1e-8)
    e1 /= np.where(ok, norm1, 1.0)[:, None]
    v = n - ca
    e2 = v - np.vecdot(v, e1)[:, None] * e1
    norm2 = np.sqrt(np.vecdot(e2, e2))
    ok &= norm2 > 1e-8
    e2 /= np.where(ok, norm2, 1.0)[:, None]
    rotations = np.stack([e1, e2, np.cross(e1, e2)], axis=2)
    rotations[~ok] = np.eye(3)
    return rotations
