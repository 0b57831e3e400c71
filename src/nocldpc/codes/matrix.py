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


@dataclass(frozen=True, eq=False)
class CheckGraph:
    """Graph of parity-check constraints with message multiplicities.

    Vertices are the rows of H.  Two kinds of adjacency are kept, both as
    read-only int32 arrays sorted by (first check, second check):

    * ``u``, ``v``, ``weight``: each unordered pair u < v of checks that are
      consecutive in some variable's serving cycle, with the number of
      extrinsic messages exchanged between them per iteration.  The total,
      ``n_messages``, is the per-iteration NoC message count (a variable of
      degree d contributes d messages once d >= 2).
    * ``shared``: the (S, 2) pairs of checks sharing at least one variable,
      regardless of multiplicity.

    Partitioning minimizes the message-weighted cut.  For variables of
    degree <= 3 the two pair sets coincide; above that the serving cycle
    visits only d of the C(d, 2) sharing pairs.
    """

    n_vertices: int
    u: np.ndarray
    v: np.ndarray
    weight: np.ndarray
    shared: np.ndarray

    @property
    def n_edges(self) -> int:
        """Distinct message-carrying pairs."""
        return len(self.u)

    @property
    def n_messages(self) -> int:
        """Total extrinsic messages per decoding iteration."""
        return int(self.weight.sum())

    @property
    def n_shared_pairs(self) -> int:
        return len(self.shared)


def serving_sequence(h: ParityCheckMatrix) -> np.ndarray:
    """Rows in global processing order: layer index first, row index second.

    Plain row order when H has no layer schedule.
    """
    if h.layers is None:
        return np.arange(h.n_rows, dtype=np.int64)
    lor = h.layer_of_row().astype(np.int64)
    return np.argsort(lor * h.n_rows + np.arange(h.n_rows), kind="stable")


def serving_chains(h: ParityCheckMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge of H as (check, position), sorted by (variable, serving rank).

    Returns (check, position, col_deg), where col_deg[j] is the degree of
    variable j: the first col_deg[0] entries are variable 0's serving chain,
    the next col_deg[1] variable 1's, and so on.  Each chain lists the
    variable's checks in (layer, row) order; its value travels from one entry
    to the next and wraps from the last back to the first.
    """
    deg = np.array([len(row) for row in h.rows], dtype=np.int64)
    edge_row = np.repeat(np.arange(h.n_rows, dtype=np.int64), deg)
    edge_pos = np.arange(len(edge_row), dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
    edge_col = np.concatenate(h.rows).astype(np.int64)
    rank = np.empty(h.n_rows, dtype=np.int64)
    rank[serving_sequence(h)] = np.arange(h.n_rows)
    chain_order = np.lexsort((rank[edge_row], edge_col))
    return edge_row[chain_order], edge_pos[chain_order], np.bincount(edge_col, minlength=h.n_cols)


def _pairs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The distinct unordered check pairs (a[i], b[i]) as a read-only (3, P)
    int32 array of low check, high check and multiplicity, sorted by pair."""
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    out = np.stack([keys // n, keys % n, counts]).astype(np.int32)
    out.flags.writeable = False
    return out


def build_check_graph(h: ParityCheckMatrix) -> CheckGraph:
    """Derive the check graph of H from its serving chains.

    Messages follow each variable's serving cycle: after a check updates the
    variable, the value travels to the variable's next check in (layer, row)
    order, wrapping from the last back to the first.  A degree-2 variable
    therefore puts weight 2 on its single pair.  Uses the layer schedule when
    present, plain row order otherwise.
    """
    n = h.n_rows
    chain, _, col_deg = serving_chains(h)
    head = np.cumsum(col_deg) - col_deg
    multi = col_deg >= 2
    # each entry of a shared variable's chain and its successor, wrapping
    nxt = np.arange(1, len(chain) + 1)
    nxt[(head + col_deg - 1)[multi]] = head[multi]
    on_cycle = np.repeat(multi, col_deg)
    u, v, weight = _pairs(chain[on_cycle], chain[nxt[on_cycle]], n)
    # every two entries of one chain, as (2, pairs) blocks per column degree
    both = [np.empty((2, 0), dtype=np.int64)]
    for d in np.unique(col_deg[multi]).tolist():
        chains = chain[head[col_deg == d][:, None] + np.arange(d)]
        both.append(chains[:, np.triu_indices(d, 1)].swapaxes(0, 1).reshape(2, -1))
    shared = _pairs(*np.concatenate(both, axis=1), n)[:2].T
    return CheckGraph(n, u, v, weight, shared)
