"""Quasi-cyclic code descriptions and their expansion to full matrices.

A QC description is a small base matrix of circulant shifts: entry s >= 0
expands to a Z x Z identity cyclically shifted by s, a null entry (-1) to a
zero block.  The text format is one header line ``rows cols Z`` followed by
rows x cols integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix import ParityCheckMatrix


class QcValidationError(ValueError):
    pass


@dataclass(frozen=True)
class QcDescription:
    base_rows: int
    base_cols: int
    z: int
    entries: np.ndarray  # (base_rows, base_cols) int matrix, -1 marks a null block
    label: str = ""

    def validate(self) -> None:
        if self.z < 1:
            raise QcValidationError(f"expansion factor {self.z} < 1")
        if self.entries.shape != (self.base_rows, self.base_cols):
            raise QcValidationError("entry matrix shape mismatch")
        if np.any(self.entries < -1):
            raise QcValidationError("shift values below -1")
        if np.any(self.entries >= self.z):
            bad = int(self.entries.max())
            raise QcValidationError(f"shift {bad} >= expansion factor {self.z}")


def parse_qc(text: str, label: str = "") -> QcDescription:
    tokens = text.split()
    if len(tokens) < 3:
        raise QcValidationError("QC description needs a 'rows cols Z' header")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise QcValidationError(f"non-integer token in QC description: {exc}") from None
    rows, cols, z = values[:3]
    if rows < 1 or cols < 1:
        raise QcValidationError(f"base matrix must be at least 1 x 1, got {rows} x {cols}")
    body = values[3:]
    if len(body) != rows * cols:
        raise QcValidationError(f"expected {rows * cols} shift entries, got {len(body)}")
    entries = np.asarray(body, dtype=np.int32).reshape(rows, cols)
    desc = QcDescription(rows, cols, z, entries, label=label)
    desc.validate()
    return desc


def scale_qc(desc: QcDescription, z: int, label: str = "") -> QcDescription:
    """Derive a smaller-expansion description by shift scaling.

    Applies the proportional rule shift' = floor(shift * z / z0) used by the
    802.16e length family; null entries stay null.
    """
    if z < 1 or z > desc.z:
        raise QcValidationError(f"target expansion {z} outside 1..{desc.z}")
    entries = desc.entries.copy()
    nn = entries >= 0
    entries[nn] = (entries[nn].astype(np.int64) * z) // desc.z
    return QcDescription(desc.base_rows, desc.base_cols, z, entries, label=label or desc.label)


def expand_qc(desc: QcDescription) -> ParityCheckMatrix:
    """Expand a QC description into its full parity-check matrix.

    Row r of block-row b checks variable c*Z + (shift + r) % Z for every
    non-null entry.  Layers are the block-rows: circulants guarantee disjoint
    support inside one block-row.
    """
    desc.validate()
    z = desc.z
    r = np.arange(z, dtype=np.int64)[:, None]
    rows: list[np.ndarray] = []
    for shifts in desc.entries.astype(np.int64):
        cols = np.flatnonzero(shifts >= 0)
        # the block-row's z rows at once, one per line of a (z, d) block;
        # column block c yields a variable in [c*Z, (c+1)*Z), so each line
        # is already sorted
        block = (cols * z + (shifts[cols] + r) % z).astype(np.int32)
        rows += list(block)
    layers = [
        np.arange(b * z, (b + 1) * z, dtype=np.int32) for b in range(desc.base_rows)
    ]
    h = ParityCheckMatrix(
        n_cols=desc.base_cols * z,
        n_rows=desc.base_rows * z,
        rows=rows,
        layers=layers,
        label=desc.label,
    )
    h.validate()
    return h
