"""Parity-check matrices and the graphs derived from them.

A code is held as a sparse row-oriented parity-check matrix plus an ordered
layer schedule (sets of rows with disjoint variable support, decoded as a
unit).  The check graph connects parity constraints that exchange extrinsic
values during layered decoding; it is what gets partitioned over processing
elements.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class CodeError(ValueError):
    """Raised when a parity-check matrix or derived structure is invalid."""


@dataclass
class ParityCheckMatrix:
    """Sparse binary parity-check matrix with its layer schedule.

    rows[m] is the sorted array of variable indices checked by row m.
    layers is an ordered list of disjoint row-index arrays covering every
    row; rows inside one layer never share a variable.  Every constructor
    sets it: expand_qc to the block rows, parse_alist and random_code to
    compute_layers' first fit.  A matrix built by hand may leave it None;
    validate and content_digest accept that, layer_rows refuses it.
    """

    n_cols: int
    n_rows: int
    rows: list[np.ndarray]
    layers: list[np.ndarray] | None = None
    label: str = ""

    @property
    def max_row_degree(self) -> int:
        return max(len(r) for r in self.rows)

    @property
    def n_edges(self) -> int:
        """Number of ones in H (Tanner-graph edge count)."""
        return sum(len(r) for r in self.rows)

    def validate(self) -> None:
        """Check the rows, then the layer schedule, in whole-array passes.

        Rows must be non-empty, in range at both ends and strictly rising;
        the first offending row is named, with its faults in that order.
        Layer entries are then taken in schedule order, and the first entry
        that is out of range, repeats an earlier row, or shares a variable
        with an earlier row of its layer is named.  Last, the layers must
        cover every row.
        """
        if self.n_cols < 1 or self.n_rows < 1:
            raise CodeError("empty matrix")
        if len(self.rows) != self.n_rows:
            raise CodeError("row count mismatch")
        flat, deg = _joined(self.rows)
        ends = np.cumsum(deg)
        starts = ends - deg
        full = deg > 0
        out_of_range = np.zeros(self.n_rows, dtype=bool)
        out_of_range[full] = (flat[starts[full]] < 0) | (flat[ends[full] - 1] >= self.n_cols)
        # entries not above their predecessor, other than the first of a row
        later = np.flatnonzero(np.diff(flat) <= 0) + 1
        row = np.searchsorted(ends, later, side="right")
        unsorted = np.zeros(self.n_rows, dtype=bool)
        unsorted[row[later != starts[row]]] = True
        bad = ~full | out_of_range | unsorted
        if bad.any():
            m = int(np.argmax(bad))
            if not full[m]:
                raise CodeError(f"row {m} is empty")
            if out_of_range[m]:
                raise CodeError(f"row {m} has variable index out of range")
            raise CodeError(f"row {m} is not sorted and duplicate-free")
        if self.layers is not None:
            self._validate_layers(flat, starts, deg)

    def _validate_layers(self, flat: np.ndarray, starts: np.ndarray, deg: np.ndarray) -> None:
        entry, sizes = _joined(self.layers)
        layer = np.repeat(np.arange(len(sizes)), sizes)
        # first failing entry position for each check, len(entry) when none
        none = len(entry)
        inside = (entry >= 0) & (entry < self.n_rows)
        first_outside = int(np.argmin(inside)) if not inside.all() else none
        at = np.flatnonzero(inside)
        rows = entry[at]
        d = deg[rows]
        edges = np.repeat(starts[rows] - (np.cumsum(d) - d), d) + np.arange(int(d.sum()))
        first_repeat = _first_repeat(rows, at, none)
        layer_var = layer[at].repeat(d) * self.n_cols + flat[edges]
        first_shared = _first_repeat(layer_var, at.repeat(d), none)
        p = min(first_outside, first_repeat, first_shared)
        if p == first_outside < none:
            raise CodeError(
                f"layer {layer[p]} lists row {entry[p]}, outside 0..{self.n_rows - 1}"
            )
        if p == first_repeat < none:
            raise CodeError(f"row {entry[p]} appears in more than one layer")
        if p == first_shared < none:
            raise CodeError(f"layer {layer[p]} has rows sharing a variable")
        if len(entry) != self.n_rows:
            raise CodeError("layers do not cover all rows")

    def content_digest(self) -> str:
        """SHA-256 of the code, over a byte layout that images and pins carry.

        The stream is frozen: "M N\\n", then each row's variables as int64
        bytes followed by b";", then, when set, each layer's rows as int64
        bytes followed by b"|".
        """
        h = hashlib.sha256()
        h.update(f"{self.n_rows} {self.n_cols}\n".encode())
        h.update(_framed(*_joined(self.rows), b";"))
        if self.layers is not None:
            h.update(_framed(*_joined(self.layers), b"|"))
        return h.hexdigest()


def _joined(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The arrays end to end as one int64 array, and each one's length."""
    sizes = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    joined = np.concatenate([np.empty(0, np.int64), *arrays])
    return joined.astype(np.int64, copy=False), sizes


def _first_repeat(keys: np.ndarray, at: np.ndarray, none: int) -> int:
    """Smallest at[i] whose key already occurs at an earlier index, else none.

    at must be nondecreasing, so a stable sort lists each key's entries
    earliest first.
    """
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    repeats = order[1:][k[1:] == k[:-1]]
    return int(at[repeats].min()) if len(repeats) else none


def _framed(values: np.ndarray, sizes: np.ndarray, sep: bytes) -> np.ndarray:
    """The bytes of consecutive runs of int64 values, each run followed by
    sep: one buffer equal to joining run.tobytes() + sep over the runs."""
    ends = np.cumsum(sizes * 8 + 1)
    buf = np.full(8 * len(values) + len(sizes), sep[0], dtype=np.uint8)
    body = np.ones(len(buf), dtype=bool)
    body[ends - 1] = False
    buf[body] = values.view(np.uint8)
    return buf


def compute_layers(h: ParityCheckMatrix) -> list[np.ndarray]:
    """Greedy first-fit grouping of rows into layers with disjoint support.

    Rows are scanned in index order and each is placed in the first existing
    layer none of whose rows shares a variable with it; worst case every row
    becomes its own layer.  Returns the schedule and stores it on h;
    parse_alist and random_code set every code's layers with it.
    """
    layer_vars: list[int] = []  # per layer: bitset of used variables
    layer_rows: list[list[int]] = []
    for m, row in enumerate(_row_bitsets(h)):
        for li, used in enumerate(layer_vars):
            if not used & row:
                layer_vars[li] = used | row
                layer_rows[li].append(m)
                break
        else:
            layer_vars.append(row)
            layer_rows.append([m])
    layers = [np.asarray(rows, dtype=np.int32) for rows in layer_rows]
    h.layers = layers
    return layers


def _row_bitsets(h: ParityCheckMatrix) -> list[int]:
    """Each row's variables as a Python int with bit j set for variable j.

    Rows are packed from dense boolean blocks of at most 4 MiB.
    """
    flat, deg = _joined(h.rows)
    bounds = np.concatenate([[0], np.cumsum(deg)])
    edge_row = np.repeat(np.arange(h.n_rows), deg)
    step = max(1, (1 << 22) // h.n_cols)
    bitsets = []
    for lo in range(0, h.n_rows, step):
        hi = min(lo + step, h.n_rows)
        block = np.zeros((hi - lo, h.n_cols), dtype=bool)
        e = slice(bounds[lo], bounds[hi])
        block[edge_row[e] - lo, flat[e]] = True
        packed = np.packbits(block, axis=1, bitorder="little")
        bitsets += [int.from_bytes(row, "little") for row in packed]
    return bitsets


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


def layer_rows(h: ParityCheckMatrix) -> list[np.ndarray]:
    """Each layer's rows, ascending, in layer order: the code's serving order.

    The layered decoders sweep these rows and the message chains follow
    them, so both read the order here.  Raises CodeError when H has no
    layer schedule.
    """
    if h.layers is None:
        raise CodeError("code has no layer schedule")
    return [np.sort(np.asarray(layer, dtype=np.int64)) for layer in h.layers]


def serving_sequence(h: ParityCheckMatrix) -> np.ndarray:
    """Rows in global processing order: layer index first, row index second."""
    return np.concatenate(layer_rows(h))


def serving_chains(h: ParityCheckMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge of H as (check, position), sorted by (variable, serving rank).

    Returns (check, position, col_deg), where col_deg[j] is the degree of
    variable j: the first col_deg[0] entries are variable 0's serving chain,
    the next col_deg[1] variable 1's, and so on.  Each chain lists the
    variable's checks in (layer, row) order; its value travels from one entry
    to the next and wraps from the last back to the first.
    """
    edge_col, deg = _joined(h.rows)
    edge_row = np.repeat(np.arange(h.n_rows, dtype=np.int64), deg)
    edge_pos = np.arange(len(edge_row), dtype=np.int64) - np.repeat(np.cumsum(deg) - deg, deg)
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
    therefore puts weight 2 on its single pair.
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
