"""Partitioning of parity-check constraints over processing elements.

The check graph is cut into p balanced parts to minimize inter-PE message
traffic.  Two strategies: a uniform random baseline and a native multilevel
scheme (heavy-edge coarsening, recursive bisection, boundary refinement in
the Kernighan-Lin / Fiduccia-Mattheyses style).  Both are deterministic
under their seed; child seeds are derived from the parent by a fixed rule.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .codes.matrix import CheckGraph, ParityCheckMatrix


@dataclass
class Mapping:
    """Assignment of check rows to PEs plus per-PE serving order."""

    p: int
    assignment: np.ndarray  # (n_rows,) PE id per row
    order: list[list[int]] = field(default_factory=list)

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.p)

    def validate(self, n_rows: int, slack: int = 1) -> None:
        if len(self.assignment) != n_rows:
            raise ValueError("assignment length mismatch")
        if self.assignment.min() < 0 or self.assignment.max() >= self.p:
            raise ValueError("PE id out of range")
        sizes = self.part_sizes()
        allowed = -(-n_rows // self.p) - (n_rows // self.p) + slack
        if int(sizes.max() - sizes.min()) > allowed:
            raise ValueError(f"partition imbalance {sizes.max() - sizes.min()} > {allowed}")

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "assignment": self.assignment.tolist(), "order": self.order},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Mapping":
        data = json.loads(text)
        return cls(
            p=int(data["p"]),
            assignment=np.asarray(data["assignment"], dtype=np.int32),
            order=[[int(x) for x in pe] for pe in data.get("order", [])],
        )


def _planned_sizes(n_rows: int, p: int) -> np.ndarray:
    base, extra = divmod(n_rows, p)
    sizes = np.full(p, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def partition_random(graph: CheckGraph, p: int, seed: int) -> Mapping:
    """Uniform random balanced assignment: shuffle rows, deal round-robin."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > graph.n_vertices:
        raise ValueError(f"p={p} exceeds {graph.n_vertices} vertices")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(graph.n_vertices)
    assignment = np.empty(graph.n_vertices, dtype=np.int32)
    assignment[perm] = np.arange(graph.n_vertices, dtype=np.int32) % p
    return Mapping(p=p, assignment=assignment)


def cutset(graph: CheckGraph, mapping: Mapping, distinct: bool = False) -> int:
    """Messages per iteration crossing PE boundaries.

    With distinct=True, counts crossing pairs once each instead of weighting
    by message multiplicity.
    """
    part = mapping.assignment
    if distinct:
        return sum(1 for (i, j) in graph.edges if part[i] != part[j])
    u, v, w = graph.edge_arrays()
    if len(u) == 0:
        return 0
    return int(w[part[u] != part[v]].sum())


def serving_order(h: ParityCheckMatrix, mapping: Mapping) -> list[list[int]]:
    """Per-PE rows ordered by (layer index, row index); stored on the mapping."""
    lor = h.layer_of_row()
    order: list[list[int]] = [[] for _ in range(mapping.p)]
    key = lor.astype(np.int64) * h.n_rows + np.arange(h.n_rows)
    for m in np.argsort(key, kind="stable"):
        order[mapping.assignment[m]].append(int(m))
    mapping.order = order
    return order


# ---------------------------------------------------------------------------
# multilevel k-way partitioning


class _Graph:
    """Adjacency-list weighted graph used inside the partitioner."""

    __slots__ = ("n", "adj", "vw")

    def __init__(self, n: int, adj: list[list[tuple[int, int]]], vw: np.ndarray):
        self.n = n
        self.adj = adj
        self.vw = vw

    @classmethod
    def from_edges(cls, n: int, edges: dict[tuple[int, int], int]) -> "_Graph":
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, j), w in sorted(edges.items()):
            adj[i].append((j, w))
            adj[j].append((i, w))
        return cls(n, adj, np.ones(n, dtype=np.int64))

    def subgraph(self, vertices: np.ndarray) -> tuple["_Graph", np.ndarray]:
        local = {int(v): i for i, v in enumerate(vertices)}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(len(vertices))]
        for i, v in enumerate(vertices):
            for u, w in self.adj[int(v)]:
                li = local.get(u)
                if li is not None:
                    adj[i].append((li, w))
        return _Graph(len(vertices), adj, self.vw[vertices].copy()), vertices


def _coarsen(g: _Graph, rng) -> tuple[_Graph, np.ndarray] | None:
    """One heavy-edge matching pass; None when it stops shrinking."""
    match = np.full(g.n, -1, dtype=np.int64)
    for v in rng.permutation(g.n):
        v = int(v)
        if match[v] >= 0:
            continue
        best, best_w = -1, -1
        for u, w in g.adj[v]:
            if match[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        match[v] = best if best >= 0 else v
        if best >= 0:
            match[best] = v

    coarse_id = np.full(g.n, -1, dtype=np.int64)
    nc = 0
    for v in range(g.n):
        if coarse_id[v] < 0:
            coarse_id[v] = nc
            m = int(match[v])
            if m != v and m >= 0:
                coarse_id[m] = nc
            nc += 1
    if nc >= g.n or nc > 0.95 * g.n:
        return None

    cadj_maps: list[dict[int, int]] = [dict() for _ in range(nc)]
    cvw = np.zeros(nc, dtype=np.int64)
    for v in range(g.n):
        cv = int(coarse_id[v])
        cvw[cv] += int(g.vw[v])
        for u, w in g.adj[v]:
            cu = int(coarse_id[u])
            if cu != cv:
                cadj_maps[cv][cu] = cadj_maps[cv].get(cu, 0) + w
    cadj = [sorted(m.items()) for m in cadj_maps]
    return _Graph(nc, [list(a) for a in cadj], cvw), coarse_id


def _cut_of(g: _Graph, side: np.ndarray) -> int:
    total = 0
    for v in range(g.n):
        sv = side[v]
        for u, w in g.adj[v]:
            if u > v and side[u] != sv:
                total += w
    return total


def _greedy_grow(g: _Graph, target: int, rng) -> np.ndarray:
    """Region growing: accumulate the most attached vertex until target weight."""
    side = np.ones(g.n, dtype=np.int8)
    attach = np.zeros(g.n, dtype=np.int64)
    in0 = np.zeros(g.n, dtype=bool)
    w0 = 0
    start = int(rng.integers(g.n))
    frontier = [(-1, start)]
    while w0 < target:
        while frontier:
            _, v = heapq.heappop(frontier)
            if not in0[v]:
                break
        else:
            rest = np.nonzero(~in0)[0]
            if len(rest) == 0:
                break
            v = int(rest[rng.integers(len(rest))])
        in0[v] = True
        side[v] = 0
        w0 += int(g.vw[v])
        for u, w in g.adj[v]:
            if not in0[u]:
                attach[u] += w
                heapq.heappush(frontier, (-int(attach[u]), u))
    return side


def _fm_refine(g: _Graph, side: np.ndarray, target0: int, tol: int, passes: int) -> None:
    """Boundary refinement with per-pass rollback to the best prefix."""
    w0 = int(g.vw[side == 0].sum())
    for _ in range(passes):
        gain = np.zeros(g.n, dtype=np.int64)
        for v in range(g.n):
            sv = side[v]
            for u, w in g.adj[v]:
                gain[v] += w if side[u] != sv else -w
        heap = [(-int(gain[v]), v) for v in range(g.n)]
        heapq.heapify(heap)
        locked = np.zeros(g.n, dtype=bool)
        trail: list[int] = []
        cum = 0
        best_cum, best_len = 0, 0
        cur_w0 = w0
        while heap:
            g_neg, v = heapq.heappop(heap)
            if locked[v] or -g_neg != gain[v]:
                continue
            delta = -int(g.vw[v]) if side[v] == 0 else int(g.vw[v])
            if not (target0 - tol <= cur_w0 + delta <= target0 + tol):
                continue
            locked[v] = True
            side[v] = 1 - side[v]
            cur_w0 += delta
            cum += int(gain[v])
            trail.append(v)
            for u, w in g.adj[v]:
                if not locked[u]:
                    gain[u] += 2 * w if side[u] != side[v] else -2 * w
                    heapq.heappush(heap, (-int(gain[u]), u))
            gain[v] = -gain[v]
            if cum > best_cum or (cum == best_cum and abs(cur_w0 - target0) < abs(w0 - target0)):
                best_cum, best_len = cum, len(trail)
        for v in trail[best_len:]:
            side[v] = 1 - side[v]
        w0 = int(g.vw[side == 0].sum())
        if best_cum == 0:
            break


def _rebalance_exact(g: _Graph, side: np.ndarray, target0: int) -> None:
    """Move cheapest boundary vertices until side 0 weighs exactly target0."""
    w0 = int(g.vw[side == 0].sum())
    while w0 != target0:
        src = 0 if w0 > target0 else 1
        best_v, best_gain = -1, None
        for v in range(g.n):
            if side[v] != src or int(g.vw[v]) != 1:
                continue
            gv = 0
            for u, w in g.adj[v]:
                gv += w if side[u] != src else -w
            if best_gain is None or gv > best_gain or (gv == best_gain and v < best_v):
                best_v, best_gain = v, gv
        if best_v < 0:
            raise RuntimeError("cannot rebalance partition")
        side[best_v] = 1 - src
        w0 += -1 if src == 0 else 1


def _bisect(g: _Graph, target0: int, rng, exact: bool) -> np.ndarray:
    """Multilevel bisection of g; side 0 gets weight target0."""
    levels: list[tuple[_Graph, np.ndarray]] = []
    cur = g
    while cur.n > 48:
        res = _coarsen(cur, rng)
        if res is None:
            break
        cur, cmap = res
        levels.append((cur, cmap))

    coarse = levels[-1][0] if levels else g
    max_vw = int(coarse.vw.max()) if coarse.n else 1
    best_side, best_cut = None, None
    for _ in range(4):
        side = _greedy_grow(coarse, target0, rng)
        _fm_refine(coarse, side, target0, max(1, max_vw), passes=4)
        cut = _cut_of(coarse, side)
        if best_cut is None or cut < best_cut:
            best_side, best_cut = side.copy(), cut
    side = best_side

    for fine_idx in range(len(levels) - 1, -1, -1):
        fine = levels[fine_idx - 1][0] if fine_idx > 0 else g
        _, cmap = levels[fine_idx]
        side = side[cmap]
        tol = max(1, int(fine.vw.max()))
        _fm_refine(fine, side, target0, tol, passes=3)

    if not levels:
        _fm_refine(g, side, target0, 1, passes=3)
    if exact:
        _rebalance_exact(g, side, target0)
        _fm_refine(g, side, target0, 0, passes=2)
    return side


def partition_kway(graph: CheckGraph, p: int, seed: int, slack: int = 1) -> Mapping:
    """Multilevel recursive bisection into p balanced parts."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > graph.n_vertices:
        raise ValueError(f"p={p} exceeds {graph.n_vertices} vertices")
    n = graph.n_vertices
    sizes = _planned_sizes(n, p)
    assignment = np.zeros(n, dtype=np.int32)
    g = _Graph.from_edges(n, graph.edges)
    root = np.random.SeedSequence(seed)

    def recurse(gr: _Graph, vertices: np.ndarray, lo: int, hi: int, ss: np.random.SeedSequence):
        if hi - lo == 1:
            assignment[vertices] = lo
            return
        mid = lo + (hi - lo + 1) // 2
        target0 = int(sizes[lo:mid].sum())
        ss_here, ss_left, ss_right = ss.spawn(3)
        rng = np.random.Generator(np.random.PCG64(ss_here))
        side = _bisect(gr, target0, rng, exact=True)
        left = np.nonzero(side == 0)[0]
        right = np.nonzero(side == 1)[0]
        gl, vl = gr.subgraph(left)
        grh, vr = gr.subgraph(right)
        recurse(gl, vertices[vl], lo, mid, ss_left)
        recurse(grh, vertices[vr], mid, hi, ss_right)

    recurse(g, np.arange(n, dtype=np.int64), 0, p, root)
    mapping = Mapping(p=p, assignment=assignment)
    mapping.validate(n, slack=slack)
    return mapping
