import numpy as np
import pytest

from nocldpc.codes import (
    AlistParseError,
    CodeError,
    ParityCheckMatrix,
    QcDescription,
    QcValidationError,
    build_check_graph,
    compute_layers,
    expand_qc,
    load_code,
    parse_alist,
    parse_qc,
    random_code,
    scale_qc,
)
import reference


def to_alist(h: ParityCheckMatrix) -> str:
    """Serialize a matrix to alist text (unpadded adjacency lines)."""
    cols = reference.cols(h)
    out = [
        f"{h.n_cols} {h.n_rows}",
        f"{max(len(c) for c in cols)} {h.max_row_degree}",
        " ".join(str(len(c)) for c in cols),
        " ".join(str(len(r)) for r in h.rows),
    ]
    out += [" ".join(str(int(m) + 1) for m in c) for c in cols]
    out += [" ".join(str(int(j) + 1) for j in r) for r in h.rows]
    return "\n".join(out) + "\n"


def make_h(rows, n_cols, layers=None):
    """A code of the given rows with the given layers, first-fit ones by default."""
    h = ParityCheckMatrix(
        n_cols=n_cols,
        n_rows=len(rows),
        rows=[np.asarray(sorted(r), dtype=np.int32) for r in rows],
        layers=None if layers is None else [np.asarray(l, dtype=np.int32) for l in layers],
    )
    if layers is None:
        compute_layers(h)
    return h


TOY_ALIST = """\
6 3
2 3
2 2 2 1 1 1
3 3 3
1 3
1 2
2 3
1
2
3
1 2 4
2 3 5
1 3 6
"""


class TestAlist:
    def test_toy_matrix(self):
        h = parse_alist(TOY_ALIST)
        assert (h.n_rows, h.n_cols) == (3, 6)
        assert [list(r) for r in h.rows] == [[0, 1, 3], [1, 2, 4], [0, 2, 5]]
        assert h.max_row_degree == 3

    def test_first_fit_layers_set(self):
        h = parse_alist(TOY_ALIST)
        bare = ParityCheckMatrix(h.n_cols, h.n_rows, h.rows)
        assert [l.tolist() for l in h.layers] == [l.tolist() for l in compute_layers(bare)]

    def test_zero_index_rejected(self):
        bad = TOY_ALIST.replace("1 2 4", "0 2 4")
        with pytest.raises(AlistParseError) as err:
            parse_alist(bad)
        assert "line" in str(err.value)

    def test_degree_mismatch_rejected(self):
        bad = TOY_ALIST.replace("1 2 4", "1 2")
        with pytest.raises(AlistParseError):
            parse_alist(bad)

    def test_cross_view_mismatch_rejected(self):
        bad = TOY_ALIST.replace("2 3 5", "2 3 6").replace("1 3 6", "1 3 5")
        with pytest.raises(AlistParseError):
            parse_alist(bad)

    def test_padded_adjacency_accepted(self):
        padded = TOY_ALIST.replace("1\n2\n3\n1 2 4", "1 0\n2 0\n3 0\n1 2 4")
        h = parse_alist(padded)
        assert [list(r) for r in h.rows] == [[0, 1, 3], [1, 2, 4], [0, 2, 5]]

    def test_roundtrip_bundled_code(self):
        h = load_code("wimax_576_288")
        h2 = parse_alist(to_alist(h))
        assert (h2.n_rows, h2.n_cols) == (288, 576)
        assert all(np.array_equal(a, b) for a, b in zip(h.rows, h2.rows))


class TestQcExpansion:
    def test_identity_block(self):
        desc = QcDescription(1, 1, 4, np.array([[0]]))
        h = expand_qc(desc)
        assert [list(r) for r in h.rows] == [[0], [1], [2], [3]]

    def test_shift_one(self):
        desc = QcDescription(1, 1, 4, np.array([[1]]))
        h = expand_qc(desc)
        assert [list(r) for r in h.rows] == [[1], [2], [3], [0]]

    def test_null_block_contributes_nothing(self):
        desc = QcDescription(1, 2, 2, np.array([[0, -1]]))
        h = expand_qc(desc)
        assert h.n_cols == 4
        assert [list(r) for r in h.rows] == [[0], [1]]

    def test_shift_out_of_range(self):
        desc = QcDescription(1, 1, 4, np.array([[4]]))
        with pytest.raises(QcValidationError):
            expand_qc(desc)

    def test_row_degree_equals_nonnull_count(self):
        rng = np.random.default_rng(1)
        entries = rng.integers(-1, 8, size=(3, 6)).astype(np.int32)
        desc = QcDescription(3, 6, 8, entries)
        h = expand_qc(desc)
        for b in range(3):
            want = int((entries[b] >= 0).sum())
            for r in range(8):
                assert len(h.rows[b * 8 + r]) == want

    def test_layers_are_block_rows(self):
        desc = parse_qc("2 3 5\n0 1 -1\n2 -1 3\n")
        h = expand_qc(desc)
        assert len(h.layers) == 2
        assert list(h.layers[0]) == list(range(5))
        assert list(h.layers[1]) == list(range(5, 10))
        h.validate()

    def test_scale_qc_floors(self):
        desc = parse_qc("1 2 96\n95 -1\n")
        scaled = scale_qc(desc, 24)
        assert scaled.z == 24
        assert scaled.entries[0, 0] == (95 * 24) // 96
        assert scaled.entries[0, 1] == -1


class TestCheckGraph:
    def test_single_shared_variable(self):
        h = make_h([[0, 1], [1, 2], [3, 4]], 5)
        g = build_check_graph(h)
        assert (g.u.tolist(), g.v.tolist()) == ([0], [1])
        assert g.n_edges == 1
        # a degree-2 variable exchanges two messages per iteration
        assert g.weight.tolist() == [2]
        assert g.shared.tolist() == [[0, 1]]

    def test_duplicate_support_set_semantics(self):
        h = make_h([[0, 1], [0, 1]], 2)
        g = build_check_graph(h)
        assert (g.u.tolist(), g.v.tolist()) == ([0], [1])
        assert g.n_edges == 1
        assert g.n_shared_pairs == 1

    def test_no_shared_variable_gives_empty_arrays(self):
        g = build_check_graph(make_h([[0, 1], [2], [3, 4]], 5))
        assert g.u.shape == g.v.shape == g.weight.shape == (0,)
        assert g.shared.shape == (0, 2)
        assert (g.n_edges, g.n_messages, g.n_shared_pairs) == (0, 0, 0)

    def test_arrays_sorted_read_only_int32(self):
        g = build_check_graph(load_code("wimax_576_288"))
        for a in (g.u, g.v, g.weight, g.shared):
            assert a.dtype == np.int32 and not a.flags.writeable
        assert np.all(g.u < g.v) and np.all(g.shared[:, 0] < g.shared[:, 1])
        keys = g.u.astype(np.int64) * g.n_vertices + g.v
        assert np.all(np.diff(keys) > 0)
        keys = g.shared[:, 0].astype(np.int64) * g.n_vertices + g.shared[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_message_total_is_sum_of_variable_degrees(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = _random_small_h(rng)
            g = build_check_graph(h)
            degs = np.array([len(c) for c in reference.cols(h)])
            assert g.n_messages == int(degs[degs >= 2].sum())

    def test_shared_pairs_against_bruteforce(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = _random_small_h(rng)
            g = build_check_graph(h)
            brute = set()
            for i in range(h.n_rows):
                si = set(h.rows[i].tolist())
                for j in range(i + 1, h.n_rows):
                    if si & set(h.rows[j].tolist()):
                        brute.add((i, j))
            assert g.shared.tolist() == [list(pair) for pair in sorted(brute)]

    def test_chain_pairs_equal_shared_pairs_up_to_degree3(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = _random_small_h(rng, max_col_degree=3)
            g = build_check_graph(h)
            assert np.array_equal(np.stack([g.u, g.v], axis=1), g.shared)

    def test_shared_pairs_invariant_under_row_permutation(self):
        rng = np.random.default_rng(8)
        h = _random_small_h(rng)
        g = build_check_graph(h)
        perm = rng.permutation(h.n_rows)
        h2 = make_h([h.rows[p] for p in perm], h.n_cols)
        g2 = build_check_graph(h2)
        inv = np.argsort(perm)
        relabeled = {tuple(sorted((int(inv[a]), int(inv[b])))) for a, b in g2.shared.tolist()}
        assert relabeled == set(map(tuple, g.shared.tolist()))

    def test_table_message_counts(self):
        expected = {
            "wimax_2304_1152": 7296,
            "wimax_2304_384": 7680,
            "wimax_1632_816": 5168,
            "wimax_1632_272": 5440,
            "wimax_576_288": 1824,
            "wimax_576_96": 1920,
            "wifi_1944_486": 6885,
        }
        for name, want in expected.items():
            g = build_check_graph(load_code(name))
            assert g.n_messages == want, name


class TestLayers:
    def test_greedy_first_fit(self):
        h = make_h([[0, 1], [1, 2], [3]], 4)
        layers = compute_layers(h)
        assert [list(l) for l in layers] == [[0, 2], [1]]

    def test_fully_overlapping_rows(self):
        h = make_h([[0], [0], [0]], 1)
        layers = compute_layers(h)
        assert [list(l) for l in layers] == [[0], [1], [2]]

    def test_dense_qc_base_reproduces_block_rows(self):
        # every pair of base rows shares a column, so greedy cannot merge blocks
        desc = parse_qc("3 3 4\n0 1 2\n1 2 3\n2 3 0\n")
        h = expand_qc(desc)
        block_layers = [list(l) for l in h.layers]
        h.layers = None
        got = compute_layers(h)
        assert [list(l) for l in got] == block_layers

    def test_disjoint_support_property(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            h = _random_small_h(rng)
            layers = compute_layers(h)
            for layer in layers:
                seen = set()
                for m in layer:
                    vars_ = set(h.rows[int(m)].tolist())
                    assert not (seen & vars_)
                    seen |= vars_
            h.validate()


class TestRandomCode:
    def test_valid_construction(self):
        h = random_code(6, 3, 2, seed=1)
        h.validate()
        assert all(len(r) == 2 for r in h.rows)
        assert (h.n_rows, h.n_cols) == (3, 6)

    def test_deterministic(self):
        h1 = random_code(60, 20, 6, seed=42)
        h2 = random_code(60, 20, 6, seed=42)
        assert all(np.array_equal(a, b) for a, b in zip(h1.rows, h2.rows))
        h3 = random_code(60, 20, 6, seed=43)
        assert any(not np.array_equal(a, b) for a, b in zip(h1.rows, h3.rows))

    def test_degree_exceeds_n(self):
        with pytest.raises(CodeError):
            random_code(4, 4, 5, seed=0)

    def test_column_degrees_balanced(self):
        h = random_code(50, 20, 5, seed=3)
        degs = np.array([len(c) for c in reference.cols(h)])
        assert degs.max() - degs.min() <= 1
        assert degs.sum() == 100

    def test_registry_random_code(self):
        h = load_code("random_1057_244")
        assert (h.n_cols, h.n_rows) == (1057, 244)
        assert all(len(r) == 13 for r in h.rows)
        assert h.layers is not None


class TestStandards:
    def test_wimax_dimensions(self):
        h = load_code("wimax_2304_1152")
        assert (h.n_rows, h.n_cols) == (1152, 2304)
        assert h.max_row_degree == 7
        assert len(h.layers) == 12

    def test_wifi_dimensions(self):
        h = load_code("wifi_1944_486")
        assert (h.n_rows, h.n_cols) == (486, 1944)
        assert len(h.layers) == 6

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_code("wimax_2304_999")
        with pytest.raises(KeyError):
            load_code("dvbs2_16200_6480")

    def test_all_registry_names_load(self):
        from nocldpc.codes import available_codes

        names = available_codes()
        assert "wimax_576_288" in names and "wifi_1944_486" in names
        for name in ["wimax_672_336", "wimax_1152_192"]:
            h = load_code(name)
            h.validate()


def _random_small_h(rng, max_col_degree=None):
    n = int(rng.integers(6, 16))
    m = int(rng.integers(3, 8))
    rows = []
    for _ in range(m):
        deg = int(rng.integers(2, min(5, n)))
        rows.append(sorted(rng.choice(n, size=deg, replace=False).tolist()))
    h = make_h(rows, n)
    if max_col_degree is not None:
        # thin out columns that exceed the cap
        counts = {}
        new_rows = []
        for row in h.rows:
            kept = []
            for j in row:
                if counts.get(int(j), 0) < max_col_degree:
                    counts[int(j)] = counts.get(int(j), 0) + 1
                    kept.append(int(j))
            new_rows.append(kept if kept else [int(row[0])])
        h = make_h(new_rows, n)
    return h
