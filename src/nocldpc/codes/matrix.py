"""Parity-check matrices and the graphs derived from them.

A code is held as a sparse row-oriented parity-check matrix plus an ordered
layer schedule (sets of rows with disjoint variable support, decoded as a
unit).  The check graph connects parity constraints that exchange extrinsic
values during layered decoding; it is what gets partitioned over processing
elements.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class CodeError(ValueError):
    """Raised when a parity-check matrix or derived structure is invalid."""


@dataclass
class ParityCheckMatrix:
    """Sparse binary parity-check matrix with an optional layer schedule.

    rows[m] is the sorted array of variable indices checked by row m.
    layers, when set, is an ordered list of disjoint row-index arrays
    covering every row; rows inside one layer never share a variable.
    """

    n_cols: int
    n_rows: int
    rows: list[np.ndarray]
    layers: list[np.ndarray] | None = None
    label: str = ""
    _cols: list[np.ndarray] | None = field(default=None, repr=False, compare=False)
    _layer_of_row: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def max_row_degree(self) -> int:
        return max(len(r) for r in self.rows)

    @property
    def n_edges(self) -> int:
        """Number of ones in H (Tanner-graph edge count)."""
        return sum(len(r) for r in self.rows)

    def cols(self) -> list[np.ndarray]:
        """Column adjacency: cols()[j] lists the rows that check variable j."""
        if self._cols is None:
            buckets: list[list[int]] = [[] for _ in range(self.n_cols)]
            for m, row in enumerate(self.rows):
                for j in row:
                    buckets[int(j)].append(m)
            self._cols = [np.asarray(b, dtype=np.int32) for b in buckets]
        return self._cols

    def layer_of_row(self) -> np.ndarray:
        """Map row index -> layer index.  Requires layers to be set."""
        if self.layers is None:
            raise CodeError("layer schedule not set; run compute_layers first")
        if self._layer_of_row is None:
            lor = np.full(self.n_rows, -1, dtype=np.int32)
            for li, layer in enumerate(self.layers):
                lor[layer] = li
            self._layer_of_row = lor
        return self._layer_of_row

    def validate(self) -> None:
        if self.n_cols < 1 or self.n_rows < 1:
            raise CodeError("empty matrix")
        if len(self.rows) != self.n_rows:
            raise CodeError("row count mismatch")
        for m, row in enumerate(self.rows):
            if len(row) == 0:
                raise CodeError(f"row {m} is empty")
            if row[0] < 0 or row[-1] >= self.n_cols:
                raise CodeError(f"row {m} has variable index out of range")
            if np.any(np.diff(row) <= 0):
                raise CodeError(f"row {m} is not sorted and duplicate-free")
        if self.layers is not None:
            seen = np.zeros(self.n_rows, dtype=bool)
            for li, layer in enumerate(self.layers):
                touched = np.zeros(self.n_cols, dtype=bool)
                for m in layer:
                    m = int(m)
                    if seen[m]:
                        raise CodeError(f"row {m} appears in more than one layer")
                    seen[m] = True
                    if np.any(touched[self.rows[m]]):
                        raise CodeError(f"layer {li} has rows sharing a variable")
                    touched[self.rows[m]] = True
            if not seen.all():
                raise CodeError("layers do not cover all rows")

    def content_digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_rows} {self.n_cols}\n".encode())
        for row in self.rows:
            h.update(row.astype(np.int64).tobytes())
            h.update(b";")
        if self.layers is not None:
            for layer in self.layers:
                h.update(np.asarray(layer, dtype=np.int64).tobytes())
                h.update(b"|")
        return h.hexdigest()


def compute_layers(h: ParityCheckMatrix) -> list[np.ndarray]:
    """Greedy first-fit grouping of rows into layers with disjoint support.

    Rows are scanned in index order and each is placed in the first existing
    layer none of whose rows shares a variable with it; worst case every row
    becomes its own layer.  Returns the schedule and stores it on h.
    """
    layer_vars: list[np.ndarray] = []  # per layer: bool mask of used variables
    layer_rows: list[list[int]] = []
    for m, row in enumerate(h.rows):
        for li, used in enumerate(layer_vars):
            if not used[row].any():
                used[row] = True
                layer_rows[li].append(m)
                break
        else:
            used = np.zeros(h.n_cols, dtype=bool)
            used[row] = True
            layer_vars.append(used)
            layer_rows.append([m])
    layers = [np.asarray(rows, dtype=np.int32) for rows in layer_rows]
    h.layers = layers
    h._layer_of_row = None
    return layers


@dataclass
class CheckGraph:
    """Graph of parity-check constraints with message multiplicities.

    Vertices are the rows of H.  Two kinds of adjacency are kept:

    * ``edges`` maps each unordered pair of checks that are consecutive in
      some variable's serving cycle to the number of extrinsic messages
      exchanged between them per iteration.  The total over all pairs,
      ``n_messages``, is the per-iteration NoC message count (a variable of
      degree d contributes d messages once d >= 2).
    * ``shared_pairs`` is the plain set of check pairs sharing at least one
      variable, regardless of multiplicity.

    Partitioning minimizes the message-weighted cut.  For variables of
    degree <= 3 the two pair sets coincide; above that the serving cycle
    visits only d of the C(d, 2) sharing pairs.
    """

    n_vertices: int
    edges: dict[tuple[int, int], int]
    shared_pairs: frozenset[tuple[int, int]]
    _edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_edges(self) -> int:
        """Distinct message-carrying pairs."""
        return len(self.edges)

    @property
    def n_messages(self) -> int:
        """Total extrinsic messages per decoding iteration."""
        return sum(self.edges.values())

    @property
    def n_shared_pairs(self) -> int:
        return len(self.shared_pairs)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge list as read-only (u, v, weight) int32 arrays sorted by (u, v).

        Built on first use and kept: ``edges`` must not change afterwards.
        """
        if self._edge_arrays is None:
            items = sorted(self.edges.items())
            uv = np.asarray([e for e, _ in items], dtype=np.int32).reshape(-1, 2)
            arrays = (
                np.ascontiguousarray(uv[:, 0]),
                np.ascontiguousarray(uv[:, 1]),
                np.asarray([w for _, w in items], dtype=np.int32),
            )
            for a in arrays:
                a.flags.writeable = False
            self._edge_arrays = arrays
        return self._edge_arrays


def serving_rank(h: ParityCheckMatrix) -> np.ndarray:
    """Global processing order of rows: layer index first, row index second."""
    if h.layers is None:
        order = np.arange(h.n_rows, dtype=np.int64)
    else:
        lor = h.layer_of_row().astype(np.int64)
        order = np.argsort(lor * h.n_rows + np.arange(h.n_rows), kind="stable")
    rank = np.empty(h.n_rows, dtype=np.int64)
    rank[order] = np.arange(h.n_rows)
    return rank


def build_check_graph(h: ParityCheckMatrix) -> CheckGraph:
    """Derive the check graph of H.

    Messages follow each variable's serving cycle: after a check updates the
    variable, the value travels to the variable's next check in (layer, row)
    order, wrapping from the last back to the first.  A degree-2 variable
    therefore puts weight 2 on its single pair.  Uses the layer schedule when
    present, plain row order otherwise.
    """
    rank = serving_rank(h)
    edges: dict[tuple[int, int], int] = {}
    shared: set[tuple[int, int]] = set()
    for rows in h.cols():
        if len(rows) < 2:
            continue
        chain = rows[np.argsort(rank[rows], kind="stable")]
        d = len(chain)
        for a in range(d):
            for b in range(a + 1, d):
                i, k = int(chain[a]), int(chain[b])
                shared.add((i, k) if i < k else (k, i))
        for t in range(d):
            i, k = int(chain[t]), int(chain[(t + 1) % d])
            key = (i, k) if i < k else (k, i)
            edges[key] = edges.get(key, 0) + 1
    return CheckGraph(h.n_rows, edges, frozenset(shared))
