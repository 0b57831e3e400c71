"""Partitioning of parity-check constraints over processing elements.

The check graph is cut into p balanced parts to minimize inter-PE message
traffic.  Two strategies: a uniform random baseline and a native multilevel
scheme (heavy-edge coarsening, recursive bisection, boundary refinement in
the Kernighan-Lin / Fiduccia-Mattheyses style).  Both are deterministic
under their seed; child seeds are derived from the parent by a fixed rule.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from .codes.matrix import CheckGraph, ParityCheckMatrix, serving_sequence
from .jsonfields import int_list, typed


@dataclass
class Mapping:
    """Assignment of check rows to PEs plus per-PE serving order."""

    p: int
    assignment: np.ndarray  # (n_rows,) PE id per row
    order: list[list[int]] = field(default_factory=list)
    # nocsim.build_schedule's last plan for this mapping, keyed by the code
    # and mapping digests; not part of the mapping's content
    _schedule: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def part_sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.p)

    def validate(self, n_rows: int) -> None:
        if len(self.assignment) != n_rows:
            raise ValueError("assignment length mismatch")
        if self.assignment.min() < 0 or self.assignment.max() >= self.p:
            raise ValueError("PE id out of range")
        sizes = self.part_sizes()
        allowed = -(-n_rows // self.p) - (n_rows // self.p) + 1  # one check of slack
        if int(sizes.max() - sizes.min()) > allowed:
            raise ValueError(f"partition imbalance {sizes.max() - sizes.min()} > {allowed}")

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "assignment": self.assignment.tolist(), "order": self.order},
            sort_keys=True,
        )

    def content_digest(self) -> str:
        """SHA-256 of the canonical JSON; configuration images record it."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Mapping":
        """Rebuild a mapping; malformed text raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict) or "p" not in data or "assignment" not in data:
            raise ValueError("not a nocldpc mapping file")
        try:
            order = typed(data, "order", list) if "order" in data else []
            mapping = cls(
                p=typed(data, "p"),
                assignment=np.asarray(int_list(data["assignment"], "assignment"), dtype=np.int32),
                order=[int_list(pe, "order") for pe in order],
            )
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"malformed mapping file: {exc}") from None
        a = mapping.assignment
        if mapping.p < 1 or (len(a) and (a.min() < 0 or a.max() >= mapping.p)):
            raise ValueError(f"mapping file assigns checks outside PEs 0..{mapping.p - 1}")
        return mapping


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


def cutset(graph: CheckGraph, mapping: Mapping) -> int:
    """Messages per iteration crossing PE boundaries."""
    part = mapping.assignment
    return int(graph.weight[part[graph.u] != part[graph.v]].sum())


def serving_order(h: ParityCheckMatrix, mapping: Mapping) -> list[list[int]]:
    """Per-PE rows in the serving order of the chains (`serving_sequence`):
    by (layer index, row index).  Stored on the mapping."""
    order: list[list[int]] = [[] for _ in range(mapping.p)]
    seq = serving_sequence(h)
    for m, pe in zip(seq.tolist(), mapping.assignment[seq].tolist()):
        order[pe].append(m)
    mapping.order = order
    return order


# ---------------------------------------------------------------------------
# multilevel k-way partitioning


class _Graph:
    """Adjacency-map weighted graph used inside the partitioner.

    adj[v] maps each neighbour to its edge weight, in the order the edges
    were added; vw[v] is the vertex weight and wdeg[v] the total weight of
    v's edges.  Everything is plain Python ints: the partitioner touches one
    element at a time, where numpy scalars cost more than they save.  A dict
    of ints is never tracked by the cyclic garbage collector, where a list
    of (neighbour, weight) tuples is one tracked object per edge end.
    """

    __slots__ = ("n", "adj", "vw", "wdeg")

    def __init__(self, n: int, adj: list[dict[int, int]], vw: list[int]):
        self.n = n
        self.adj = adj
        self.vw = vw
        self.wdeg = [sum(a.values()) for a in adj]

    @classmethod
    def from_check_graph(cls, graph: CheckGraph) -> "_Graph":
        n = graph.n_vertices
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for i, j, x in zip(graph.u.tolist(), graph.v.tolist(), graph.weight.tolist()):
            adj[i][j] = x
            adj[j][i] = x
        return cls(n, adj, [1] * n)

    def subgraph(self, vertices: list[int]) -> "_Graph":
        local = {v: i for i, v in enumerate(vertices)}
        adj = [{local[u]: w for u, w in self.adj[v].items() if u in local} for v in vertices]
        return _Graph(len(vertices), adj, [self.vw[v] for v in vertices])


def _weight0(g: _Graph, side: list[int]) -> int:
    return sum(x for x, s in zip(g.vw, side) if s == 0)


def _coarsen(g: _Graph, rng) -> tuple[_Graph, list[int]] | None:
    """One heavy-edge matching pass; None when it stops shrinking."""
    adj = g.adj
    match = [-1] * g.n
    for v in rng.permutation(g.n).tolist():
        if match[v] >= 0:
            continue
        best, best_w = -1, -1
        for u, w in adj[v].items():
            if match[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        if best >= 0:
            match[v], match[best] = best, v
        else:
            match[v] = v

    coarse_id = [-1] * g.n
    nc = 0
    for v in range(g.n):
        if coarse_id[v] < 0:
            coarse_id[v] = coarse_id[match[v]] = nc
            nc += 1
    if nc >= g.n or nc > 0.95 * g.n:
        return None

    cadj_maps: list[dict[int, int]] = [{} for _ in range(nc)]
    cvw = [0] * nc
    for v, cv in enumerate(coarse_id):
        cvw[cv] += g.vw[v]
        cmap = cadj_maps[cv]
        for u, w in adj[v].items():
            cu = coarse_id[u]
            if cu != cv:
                cmap[cu] = cmap.get(cu, 0) + w
    return _Graph(nc, cadj_maps, cvw), coarse_id


def _cut_of(g: _Graph, side: list[int]) -> int:
    total = 0
    for v, a in enumerate(g.adj):
        sv = side[v]
        for u, w in a.items():
            if u > v and side[u] != sv:
                total += w
    return total


def _greedy_grow(g: _Graph, target: int, rng) -> list[int]:
    """Region growing: accumulate the most attached vertex until target weight."""
    side = [1] * g.n
    attach = [0] * g.n
    w0 = 0
    start = int(rng.integers(g.n))
    frontier = [(-1, start)]
    while w0 < target:
        while frontier:
            _, v = heapq.heappop(frontier)
            if side[v]:
                break
        else:
            rest = [u for u, s in enumerate(side) if s]
            if not rest:
                break
            v = rest[int(rng.integers(len(rest)))]
        side[v] = 0
        w0 += g.vw[v]
        for u, w in g.adj[v].items():
            if side[u]:
                attach[u] += w
                heapq.heappush(frontier, (-attach[u], u))
    return side


def _fm_refine(g: _Graph, side: list[int], target0: int, tol: int, passes: int) -> None:
    """Boundary refinement with per-pass rollback to the best prefix.

    The heap holds int keys (top - gain) * n + v: no gain exceeds top, so
    they pop by highest gain, then lowest vertex, as (-gain, v) tuples would.
    Decrease-key is lazy.  live[v] is the gain of v's one live key, never
    below its current gain: a rise pushes a new key, a fall keeps the old
    one, and a live key that pops with a stale gain is pushed again at the
    current gain.  No live key is above its vertex's exact key, so exact
    keys pop in the order a heap updated on every change gives.  A popped
    key whose gain is not live[v] is dropped.  After a rejected move a
    vertex has no live key, and live[v] below every gain, so its next change
    pushes one; a locked vertex has none and gets none.
    """
    adj, vw, wdeg, n = g.adj, g.vw, g.wdeg, g.n
    heappush, heappop = heapq.heappush, heapq.heappop
    lo, hi = target0 - tol, target0 + tol
    top = max(wdeg, default=0)
    none = -top - 1
    w0 = _weight0(g, side)
    for _ in range(passes):
        # gain of moving v: weight to the other side minus weight kept on its own
        gain = []
        for v, sv in enumerate(side):
            ext = 0
            for u, w in adj[v].items():
                if side[u] != sv:
                    ext += w
            gain.append(2 * ext - wdeg[v])
        live = gain[:]
        heap = [(top - gv) * n + v for v, gv in enumerate(gain)]
        heapq.heapify(heap)
        locked = [False] * n
        trail: list[int] = []
        cum = 0
        best_cum, best_len = 0, 0
        start_dev = abs(w0 - target0)
        cur_w0 = w0
        while heap:
            rank, v = divmod(heappop(heap), n)
            gk = top - rank
            if gk != live[v]:
                continue  # superseded, or its vertex is locked or rejected
            gv = gain[v]
            if gk != gv:
                live[v] = gv
                heappush(heap, (top - gv) * n + v)
                continue
            live[v] = none
            sv = side[v]
            moved_w0 = cur_w0 - vw[v] if sv == 0 else cur_w0 + vw[v]
            if not lo <= moved_w0 <= hi:
                continue
            locked[v] = True
            side[v] = sv = 1 - sv
            cur_w0 = moved_w0
            cum += gv
            trail.append(v)
            for u, w in adj[v].items():
                if not locked[u]:
                    gu = gain[u] + (2 * w if side[u] != sv else -2 * w)
                    gain[u] = gu
                    if gu > live[u]:
                        live[u] = gu
                        heappush(heap, (top - gu) * n + u)
            gain[v] = -gv
            if cum > best_cum or (cum == best_cum and abs(cur_w0 - target0) < start_dev):
                best_cum, best_len = cum, len(trail)
        for v in trail[best_len:]:
            side[v] = 1 - side[v]
        w0 = _weight0(g, side)
        if best_cum == 0:
            break


def _rebalance_exact(g: _Graph, side: list[int], target0: int) -> None:
    """Move cheapest boundary vertices until side 0 weighs exactly target0."""
    w0 = _weight0(g, side)
    while w0 != target0:
        src = 0 if w0 > target0 else 1
        best_v, best_gain = -1, None
        for v, a in enumerate(g.adj):
            if side[v] != src or g.vw[v] != 1:
                continue
            gv = 2 * sum(w for u, w in a.items() if side[u] != src) - g.wdeg[v]
            if best_gain is None or gv > best_gain:
                best_v, best_gain = v, gv
        if best_v < 0:
            raise RuntimeError("cannot rebalance partition")
        side[best_v] = 1 - src
        w0 += -1 if src == 0 else 1


def _bisect(g: _Graph, target0: int, rng) -> list[int]:
    """Multilevel bisection of g; side 0 gets weight exactly target0."""
    levels: list[tuple[_Graph, list[int]]] = []
    cur = g
    while cur.n > 48:
        res = _coarsen(cur, rng)
        if res is None:
            break
        cur, cmap = res
        levels.append((cur, cmap))

    coarse = levels[-1][0] if levels else g
    max_vw = max(coarse.vw) if coarse.n else 1
    best_side, best_cut = None, None
    for _ in range(4):
        side = _greedy_grow(coarse, target0, rng)
        _fm_refine(coarse, side, target0, max(1, max_vw), passes=4)
        cut = _cut_of(coarse, side)
        if best_cut is None or cut < best_cut:
            best_side, best_cut = side, cut
    side = best_side

    for fine_idx in range(len(levels) - 1, -1, -1):
        fine = levels[fine_idx - 1][0] if fine_idx > 0 else g
        _, cmap = levels[fine_idx]
        side = [side[c] for c in cmap]
        _fm_refine(fine, side, target0, max(1, max(fine.vw)), passes=3)

    if not levels:
        _fm_refine(g, side, target0, 1, passes=3)
    _rebalance_exact(g, side, target0)
    return side


def partition_kway(graph: CheckGraph, p: int, seed: int) -> Mapping:
    """Multilevel recursive bisection into p balanced parts."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > graph.n_vertices:
        raise ValueError(f"p={p} exceeds {graph.n_vertices} vertices")
    n = graph.n_vertices
    sizes = _planned_sizes(n, p)
    assignment = np.zeros(n, dtype=np.int32)
    g = _Graph.from_check_graph(graph)
    root = np.random.SeedSequence(seed)

    def recurse(gr: _Graph, vertices: list[int], lo: int, hi: int, ss: np.random.SeedSequence):
        if hi - lo == 1:
            assignment[vertices] = lo
            return
        mid = lo + (hi - lo + 1) // 2
        target0 = int(sizes[lo:mid].sum())
        ss_here, ss_left, ss_right = ss.spawn(3)
        rng = np.random.Generator(np.random.PCG64(ss_here))
        side = _bisect(gr, target0, rng)
        left = [v for v, s in enumerate(side) if s == 0]
        right = [v for v, s in enumerate(side) if s]
        recurse(gr.subgraph(left), [vertices[v] for v in left], lo, mid, ss_left)
        recurse(gr.subgraph(right), [vertices[v] for v in right], mid, hi, ss_right)

    recurse(g, list(range(n)), 0, p, root)
    mapping = Mapping(p=p, assignment=assignment)
    mapping.validate(n)
    return mapping
