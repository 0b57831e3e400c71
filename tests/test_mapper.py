import numpy as np
import pytest

from nocldpc.codes import CheckGraph, build_check_graph, load_code
from nocldpc.mapper import (
    Mapping,
    cutset,
    partition_kway,
    partition_random,
    serving_order,
)


def graph_of(n, edges):
    """CheckGraph of a {(u, v): weight} dict with u < v; every edge also shares."""
    pairs = sorted(edges)
    uv = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
    weight = np.asarray([edges[e] for e in pairs], dtype=np.int32)
    return CheckGraph(n, uv[:, 0].copy(), uv[:, 1].copy(), weight, uv)


def path_graph(n):
    return graph_of(n, {(i, i + 1): 1 for i in range(n - 1)})


def random_graph(rng, n, n_edges):
    edges = {}
    while len(edges) < n_edges:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges[(int(i), int(j))] = int(rng.integers(1, 4))
    return graph_of(n, edges)


def distinct_cut(g, m):
    """Crossing pairs, each counted once whatever its message weight."""
    part = m.assignment
    return int(np.count_nonzero(part[g.u] != part[g.v]))


class TestCutset:
    def test_single_part_zero(self):
        g = path_graph(5)
        m = Mapping(p=1, assignment=np.zeros(5, dtype=np.int32))
        assert cutset(g, m) == 0

    def test_path_split(self):
        g = path_graph(3)
        m = Mapping(p=2, assignment=np.array([0, 1, 1], dtype=np.int32))
        assert cutset(g, m) == 1
        assert distinct_cut(g, m) == 1

    def test_all_singletons_cut_everything(self):
        h = load_code("wimax_576_288")
        g = build_check_graph(h)
        m = Mapping(p=g.n_vertices, assignment=np.arange(g.n_vertices, dtype=np.int32))
        assert cutset(g, m) == g.n_messages
        assert distinct_cut(g, m) == g.n_edges

    def test_against_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph(rng, 12, 20)
            edges = dict(zip(zip(g.u.tolist(), g.v.tolist()), g.weight.tolist()))
            part = rng.integers(0, 3, size=12).astype(np.int32)
            m = Mapping(p=3, assignment=part)
            brute_w = sum(w for (i, j), w in edges.items() if part[i] != part[j])
            brute_d = sum(1 for (i, j) in edges if part[i] != part[j])
            assert cutset(g, m) == brute_w
            assert distinct_cut(g, m) == brute_d


class TestRandomPartition:
    def test_p_equals_vertices(self):
        g = path_graph(6)
        m = partition_random(g, 6, seed=0)
        assert sorted(m.assignment.tolist()) == list(range(6))
        assert cutset(g, m) == int(g.weight.sum())

    def test_balance_and_determinism(self):
        g = path_graph(103)
        m1 = partition_random(g, 10, seed=5)
        m2 = partition_random(g, 10, seed=5)
        assert np.array_equal(m1.assignment, m2.assignment)
        sizes = m1.part_sizes()
        assert sizes.max() - sizes.min() <= 1
        m3 = partition_random(g, 10, seed=6)
        assert not np.array_equal(m1.assignment, m3.assignment)

    def test_rejects_bad_p(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            partition_random(g, 0, seed=0)
        with pytest.raises(ValueError):
            partition_random(g, 5, seed=0)


class TestKwayPartition:
    def test_two_cliques_split_cleanly(self):
        edges = {}
        for a in range(5):
            for b in range(a + 1, 5):
                edges[(a, b)] = 3
                edges[(a + 5, b + 5)] = 3
        g = graph_of(10, edges)
        m = partition_kway(g, 2, seed=1)
        assert cutset(g, m) == 0
        assert set(m.assignment[:5].tolist()) != set(m.assignment[5:].tolist())

    def test_single_part(self):
        g = path_graph(7)
        m = partition_kway(g, 1, seed=0)
        assert cutset(g, m) == 0

    def test_balance_exact(self):
        h = load_code("wimax_576_288")
        g = build_check_graph(h)
        for p in (5, 16, 25):
            m = partition_kway(g, p, seed=2)
            sizes = m.part_sizes()
            assert sizes.max() - sizes.min() <= 1, (p, sizes)

    def test_deterministic(self):
        h = load_code("wimax_576_288")
        g = build_check_graph(h)
        m1 = partition_kway(g, 25, seed=9)
        m2 = partition_kway(g, 25, seed=9)
        assert np.array_equal(m1.assignment, m2.assignment)

    def test_beats_random_baseline(self):
        for name, p in [("wimax_576_288", 25), ("wifi_1944_486", 16)]:
            g = build_check_graph(load_code(name))
            rp = np.mean([cutset(g, partition_random(g, p, s)) for s in range(50)])
            kw = np.mean([cutset(g, partition_kway(g, p, s)) for s in range(3)])
            assert kw < rp, (name, kw, rp)


class TestServingOrder:
    def test_layer_then_row(self):
        h = load_code("wimax_576_288")
        m = Mapping(p=2, assignment=np.zeros(h.n_rows, dtype=np.int32))
        m.assignment[7] = 1
        m.assignment[2] = 1
        order = serving_order(h, m)
        assert order[1] == [2, 7]
        assert len(order[0]) == h.n_rows - 2

    def test_empty_pe(self):
        h = load_code("wimax_576_288")
        m = Mapping(p=3, assignment=np.zeros(h.n_rows, dtype=np.int32))
        order = serving_order(h, m)
        assert order[1] == [] and order[2] == []

    def test_layer_monotone_on_bundled_code(self):
        h = load_code("wifi_1944_486")
        g = build_check_graph(h)
        m = partition_kway(g, 16, seed=4)
        layer_of = {int(row): li for li, rows in enumerate(h.layers) for row in rows}
        for pe_rows in serving_order(h, m):
            ls = [layer_of[m_] for m_ in pe_rows]
            assert ls == sorted(ls)


def test_mapping_json_roundtrip():
    h = load_code("wimax_576_288")
    g = build_check_graph(h)
    m = partition_kway(g, 25, seed=1)
    serving_order(h, m)
    m2 = Mapping.from_json(m.to_json())
    assert m2.p == m.p
    assert np.array_equal(m2.assignment, m.assignment)
    assert m2.order == m.order
    assert m2.content_digest() == m.content_digest()


@pytest.mark.parametrize("text", [
    "[1]", "3", "null", "{}", '{"p": 2}', '{"p": "two", "assignment": [0]}',
    '{"p": 2, "assignment": [[0, 1], [1]]}', '{"p": 2, "assignment": [0, 2]}',
    '{"p": 0, "assignment": []}', '{"p": 2, "assignment": [0], "order": [3]}',
    # plain JSON integers only: nothing is coerced or flattened
    '{"p": 2.5, "assignment": [0]}', '{"p": true, "assignment": [0]}',
    '{"p": "2", "assignment": [0]}', '{"p": 2, "assignment": [0.9, 1.2]}',
    '{"p": 2, "assignment": ["0", "1"]}', '{"p": 2, "assignment": [true, false]}',
    '{"p": 2, "assignment": [[0, 1], [1, 0]]}', '{"p": 2, "assignment": 1}',
    '{"p": 2, "assignment": [0, 1], "order": [[0.0], [1]]}',
    '{"p": 2, "assignment": [0, 1], "order": [[false], [1]]}',
    '{"p": 2, "assignment": [0, 1], "order": "01"}',
    '{"p": 4294967296, "assignment": [4294967295]}',
])
def test_mapping_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        Mapping.from_json(text)
