import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import nocldpc.nocsim.schedule as schedule_mod
from nocldpc.nocsim.schedule import (
    DST_CHECK,
    DST_POS,
    EMISSION_FIELDS,
    NETWORK,
    SRC_CHECK,
    SRC_POS,
    UID,
    VAR,
    WRAP,
)
from nocldpc.channel import awgn_llrs
from nocldpc.codes import (
    CodeError,
    ParityCheckMatrix,
    build_check_graph,
    compute_layers,
    load_code,
    random_code,
)
from nocldpc.codes.matrix import serving_sequence
from nocldpc.configgen import gen_config
from nocldpc.decoder import CodeLayout, DecodeParams, decode_layered_nms
from nocldpc.fixedpoint import QFormat
from nocldpc.mapper import Mapping, cutset, partition_kway, serving_order
from nocldpc.nocsim import (
    Port,
    Topology,
    build_schedule,
    replay_decode,
    route_o1turn,
    simulate_iteration,
    torus_distance,
    validate_config,
)
import reference


def make_h(rows, n_cols):
    h = ParityCheckMatrix(
        n_cols=n_cols,
        n_rows=len(rows),
        rows=[np.asarray(sorted(r), dtype=np.int32) for r in rows],
    )
    compute_layers(h)
    return h


def mapped(h, assignment, p):
    m = Mapping(p=p, assignment=np.asarray(assignment, dtype=np.int32))
    serving_order(h, m)
    return m


class TestRouting:
    def test_distance_example(self):
        src = 0 * 5 + 0
        dst = 2 * 5 + 3
        assert torus_distance(src, dst, 5) == 4
        for coin in (0, 1):
            assert len(route_o1turn(src, dst, 5, coin)) == 4 + 1  # hops + LOCAL

    def test_tie_goes_increasing(self):
        # 4x4, (0,0) -> (2,0): row distance 2 = n/2, must head SOUTH
        route = route_o1turn(0, 2 * 4, 4, coin=1)
        assert route[:2] == [Port.SOUTH, Port.SOUTH]

    def test_both_coins_reach_destination(self):
        rng = np.random.default_rng(2)
        topo = Topology(5)
        for _ in range(200):
            src, dst = rng.choice(25, size=2, replace=False)
            d = torus_distance(int(src), int(dst), 5)
            for coin in (0, 1):
                route = route_o1turn(int(src), int(dst), 5, coin)
                assert len(route) == d + 1
                node = int(src)
                for port in route[:-1]:
                    node = topo.neighbor(node, port)
                assert node == int(dst)
                assert route[-1] == Port.LOCAL

    def test_src_equals_dst_rejected(self):
        with pytest.raises(ValueError):
            route_o1turn(3, 3, 5, 0)


class TestSchedule:
    def test_degree2_variable_two_messages(self):
        h = make_h([[0, 1], [0, 2]], 3)
        m = mapped(h, [0, 1], 2)
        s = build_schedule(h, m)
        var0 = s.network_flits[s.network_flits[:, VAR] == 0]
        flits = var0[:, [SRC_CHECK, DST_CHECK, WRAP]].tolist()
        assert len(flits) == 2
        assert {(0, 1, 0), (1, 0, 1)} == set(map(tuple, flits))

    def test_same_pe_variable_no_network(self):
        h = make_h([[0, 1], [0, 2]], 3)
        m = mapped(h, [0, 0], 1)
        s = build_schedule(h, m)
        assert s.n_network == 0
        assert s.n_bypass == 2

    def test_receive_counts_equal_degree(self):
        h = load_code("wimax_576_288")
        g = build_check_graph(h)
        m = partition_kway(g, 25, seed=0)
        serving_order(h, m)
        s = build_schedule(h, m)
        received = sorted(map(tuple, s.emissions[:, [DST_CHECK, DST_POS]].tolist()))
        assert received == [(c, k) for c, row in enumerate(h.rows) for k in range(len(row))]

    def test_network_count_equals_weighted_cutset(self):
        for name, p in [("wimax_576_288", 25), ("wifi_1944_486", 16)]:
            h = load_code(name)
            g = build_check_graph(h)
            m = partition_kway(g, p, seed=3)
            serving_order(h, m)
            s = build_schedule(h, m)
            assert s.n_network == cutset(g, m)
            assert s.n_network + s.n_bypass == g.n_messages

    def test_degree3_code_chain_pairs_cover_sharing_pairs(self):
        # column degree 3: the serving cycle visits every sharing pair, so
        # the distinct cut equals the cut of the formal pair set
        rng = np.random.default_rng(8)
        rows = [[] for _ in range(9)]
        for j in range(18):
            for m in rng.choice(9, size=3, replace=False):
                rows[int(m)].append(j)
        h = make_h(rows, 18)
        g = build_check_graph(h)
        assert np.array_equal(np.stack([g.u, g.v], axis=1), g.shared)
        m = mapped(h, rng.integers(0, 4, size=9), 4)
        part = m.assignment
        shared_cut = sum(1 for (i, j) in g.shared.tolist() if part[i] != part[j])
        assert np.count_nonzero(part[g.u] != part[g.v]) == shared_cut


@pytest.mark.parametrize("stage", ["build_check_graph", "serving_order", "build_schedule",
                                   "CodeLayout.build"])
def test_stages_refuse_a_code_without_layers(stage):
    h = make_h([[0, 1], [1, 2], [0, 2]], 4)
    m = mapped(h, [0, 1, 2], 4)
    bare = ParityCheckMatrix(h.n_cols, h.n_rows, h.rows)
    run = {
        "build_check_graph": lambda: build_check_graph(bare),
        "serving_order": lambda: serving_order(bare, m),
        "build_schedule": lambda: build_schedule(bare, m),
        "CodeLayout.build": lambda: CodeLayout.build(bare),
    }[stage]
    with pytest.raises(CodeError, match="code has no layer schedule"):
        run()


def _c06_mapping(name="wimax_576_288", side=2):
    h = load_code(name)
    m = partition_kway(build_check_graph(h), side * side, seed=20250808)
    serving_order(h, m)
    return h, m


class TestScheduleReuse:
    """build_schedule keeps its last build on the mapping, keyed by content."""

    def test_one_build_per_pipeline_pass(self, monkeypatch):
        h, m = _c06_mapping()
        calls = []
        chains = schedule_mod.serving_chains
        monkeypatch.setattr(schedule_mod, "serving_chains", lambda h: calls.append(1) or chains(h))
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(2), s, seed=20250808, label=h.label)
        cfg = gen_config(tr, m, h)
        validate_config(h, m, tr, cfg)
        assert len(calls) == 1
        assert build_schedule(h, m) is s

    def test_each_stage_hashes_code_and_mapping_once(self, monkeypatch):
        h, m = _c06_mapping()
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(2), s, seed=20250808, label=h.label)
        calls = []
        for obj in (h, m):
            digest = type(obj).content_digest
            monkeypatch.setattr(type(obj), "content_digest",
                                lambda self, d=digest: calls.append(type(self).__name__) or d(self))
        cfg = gen_config(tr, m, h)
        assert sorted(calls) == ["Mapping", "ParityCheckMatrix"]
        calls.clear()
        validate_config(h, m, tr, cfg)
        assert sorted(calls) == ["Mapping", "ParityCheckMatrix"]

    def test_changed_inputs_never_return_a_stale_schedule(self):
        def check(h, m):
            s = build_schedule(h, m)
            assert s == schedule_mod._build_schedule(h, m)
            return s

        h, m = _c06_mapping()
        first = check(h, m)
        # the same layers in reverse: new chains, then a new serving order too
        layers = h.layers
        h.layers = layers[::-1]
        relayered = check(h, m)
        assert relayered != first
        serving_order(h, m)
        assert check(h, m).order != first.order
        # greedy layers, then the original ones back
        compute_layers(h)
        serving_order(h, m)
        check(h, m)
        h.layers = layers
        serving_order(h, m)
        assert check(h, m) == first

        # an edited assignment: stale order is refused, a new one rebuilt
        moved = int(np.flatnonzero(m.assignment == 0)[0])
        m.assignment[moved] = 1
        with pytest.raises(ValueError, match=f"PE 0 serves check {moved}, which is hosted on PE 1"):
            build_schedule(h, m)
        serving_order(h, m)
        assert check(h, m).host[moved] == 1

        # a different code of the same size under the same mapping
        other = random_code(h.n_cols, h.n_rows, 6, seed=3)
        compute_layers(other)
        serving_order(other, m)
        assert check(other, m) != check(h, m)

    def test_schedule_is_frozen_tuples(self):
        h, m = _c06_mapping()
        s = build_schedule(h, m)
        for name in [f.name for f in dataclasses.fields(s)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, getattr(s, name))
        # the emission tables are read-only int64 arrays, and stay so
        for table in (s.emissions, s.network_flits):
            assert table.dtype == np.int64
            with pytest.raises(ValueError):
                table[0, 0] = 1
            with pytest.raises(ValueError):
                table.flags.writeable = True
        containers = [s.host, s.serve_pos, s.order, *s.order]
        assert all(type(c) is tuple for c in containers)
        # a row per (check, position) in check order; uids number the network rows
        edges = [[c, k] for c, row in enumerate(h.rows) for k in range(len(row))]
        assert s.emissions[:, [SRC_CHECK, SRC_POS]].tolist() == edges
        net = s.emissions[:, NETWORK] == 1
        assert (s.network_flits[:, UID] == np.arange(s.n_network)).all()
        assert sorted(s.emissions[net, UID].tolist()) == list(range(s.n_network))
        assert (s.emissions[~net, UID] == -1).all()

        # the per-check and per-uid tables are tuples of ints that say what
        # the emission rows say
        tables = [s.deg, s.n_inputs, s.src_pe, s.dst_check, s.wrap, s.emit_net, s.emit_local,
                  *s.emit_net, *s.emit_local]
        assert all(type(c) is tuple for c in tables)
        values = (*s.deg, *s.n_inputs, *s.src_pe, *s.dst_check, *s.wrap,
                  *(v for t in (*s.emit_net, *s.emit_local) for v in t))
        assert all(type(v) is int for v in values)
        rows = [dict(zip(EMISSION_FIELDS, r)) for r in s.emissions.tolist()]
        by_check = [[] for _ in range(s.n_checks)]
        for e in rows:
            by_check[e["src_check"]].append(e)
        assert s.deg == tuple(map(len, by_check))
        assert s.emit_net == tuple(tuple(e["uid"] for e in ems if e["network"]) for ems in by_check)
        assert s.emit_local == tuple(tuple(e["dst_check"] for e in ems if not e["network"] and not e["wrap"])
                                     for ems in by_check)
        inputs = Counter(e["dst_check"] for e in rows if not e["wrap"])
        assert s.n_inputs == tuple(inputs[c] for c in range(s.n_checks))
        flits = sorted((e for e in rows if e["network"]), key=lambda e: e["uid"])
        assert s.network_flits.tolist() == [list(e.values()) for e in flits]
        assert s.src_pe == tuple(s.host[e["src_check"]] for e in flits)
        assert s.dst_check == tuple(e["dst_check"] for e in flits)
        assert s.wrap == tuple(e["wrap"] for e in flits)


class TestSimulate:
    def test_single_hop_latency(self):
        # one variable over two adjacent PEs: chain and wrap flits travel in
        # opposite directions, each uncontended
        h = make_h([[0], [0]], 1)
        m = mapped(h, [1, 0], 9)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(3), s, seed=1)
        assert len(tr.flits) == 2
        for f in tr.flits:
            # 1 hop = 2 cycles to the node, 2 more through its LOCAL port
            assert f.receipt_cycle - f.inject_cycle == 4

    def test_contention_costs_one_cycle(self):
        # chain heads on nodes 1 and 2 send one flit each to node 0; both
        # are injected the same cycle and contend for node 0's LOCAL port
        h = make_h([[0], [1], [0, 1]], 2)
        m = mapped(h, [1, 2, 0], 9)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(3), s, seed=1)
        lat = sorted(f.receipt_cycle - f.inject_cycle for f in tr.flits if not f.wrap)
        assert lat == [4, 5]

    def test_round_robin_serves_lower_port_first(self):
        h = make_h([[0], [1], [0, 1]], 2)
        m = mapped(h, [1, 2, 0], 9)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(3), s, seed=1)
        arrivals = tr.arrivals[0]
        assert len(arrivals) == 2
        # node 1 lies west of node 0 and enters via the EAST FIFO (index 2),
        # node 2 enters via WEST (index 3): EAST wins the first grant
        assert [a[2] for a in arrivals] == [1, 2]
        assert arrivals[1][4] - arrivals[0][4] == 1

    def test_determinism(self):
        h = load_code("wimax_576_288")
        g = build_check_graph(h)
        m = partition_kway(g, 25, seed=5)
        serving_order(h, m)
        s = build_schedule(h, m)
        t1 = simulate_iteration(Topology(5), s, seed=11)
        t2 = simulate_iteration(Topology(5), s, seed=11)
        assert t1.content_digest() == t2.content_digest()
        t3 = simulate_iteration(Topology(5), s, seed=12)
        assert t3.content_digest() != t1.content_digest()

    def test_empty_schedule(self):
        h = make_h([[0, 1], [1, 2]], 3)
        m = mapped(h, [0, 0], 1)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(1), s, seed=0)
        assert tr.k_i == 0
        assert tr.n_network == 0

    def test_negative_pipeline_depth_rejected(self):
        # a negative depth would let a check emit before its block read ends
        h = make_h([[0], [0]], 1)
        s = build_schedule(h, mapped(h, [1, 0], 9))
        with pytest.raises(ValueError, match="pipeline depth must be >= 0, got -3"):
            simulate_iteration(Topology(3), s, seed=1, pipeline_depth=-3)
        tr = simulate_iteration(Topology(3), s, seed=1, pipeline_depth=0)
        assert (tr.check_complete == tr.check_start + 1).all()

    def test_conservation_and_bounds(self):
        h = load_code("random_1057_244")
        g = build_check_graph(h)
        m = partition_kway(g, 25, seed=2)
        serving_order(h, m)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(5), s, seed=3)
        assert sum(len(a) for a in tr.arrivals) == s.n_network
        summ = tr.summary()
        assert tr.k_i >= summ["k_i_lower_bound_link"]
        assert tr.k_i >= summ["k_i_lower_bound_distance"]

    def test_removing_traffic_never_slows_small_cases(self):
        rng = np.random.default_rng(44)
        rows = [sorted(rng.choice(10, size=2, replace=False).tolist()) for _ in range(6)]
        h_full = make_h(rows, 10)
        m = mapped(h_full, rng.integers(0, 4, size=6), 4)
        s_full = build_schedule(h_full, m)
        k_full = simulate_iteration(Topology(2), s_full, seed=5).k_i
        # drop one variable's messages by removing its column
        for drop in range(3):
            rows2 = [[v for v in r if v != drop] or [10 + drop] for r in rows]
            h_less = make_h(rows2, 14)
            m2 = mapped(h_less, m.assignment, 4)
            s_less = build_schedule(h_less, m2)
            k_less = simulate_iteration(Topology(2), s_less, seed=5).k_i
            assert k_less <= k_full


class TestTraceSerialization:
    def test_roundtrip(self):
        h = make_h([[0, 1], [1, 2], [0, 2]], 3)
        m = mapped(h, [0, 1, 2], 4)
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(2), s, seed=9)
        from nocldpc.nocsim import NocTrace

        tr2 = NocTrace.from_json(tr.to_json())
        assert tr2.content_digest() == tr.content_digest()
        assert tr2.k_i == tr.k_i
        assert np.array_equal(tr2.fifo_max, tr.fifo_max)

    @pytest.mark.parametrize("text", [
        "[1, 2]", "3", "null", "{}", "not json",
        '{"format": "nocldpc-trace-v1"}',
    ])
    def test_malformed_top_level_rejected(self, text):
        from nocldpc.nocsim import NocTrace

        with pytest.raises(ValueError):
            NocTrace.from_json(text)

    @pytest.mark.parametrize("key,value", [
        ("flits", [[0, 1, 2]]),  # short flit record
        ("rm_ops", [[[0, 1]]] * 4),  # short routing operation
        ("arrivals", [[[0, 1, 2, 3]]] * 4),  # short arrival
        ("rm_ops", [[]]),  # one node of a 2 x 2 torus
        ("fifo_max", [[0, 0]]),
        ("n", "two"),
        ("flits", 7),
        # values that are not plain ints are rejected, not coerced
        ("rm_ops", [[[10.7, 0, 4]], [], [], []]),
        ("arrivals", [[[0, 1, 2, "14", 5]], [], [], []]),
        ("flits", [[True] * 12]),
        ("flits", [[0] * 8 + [2] + [0] * 3]),  # wrap flag other than 0/1
        ("fifo_max", [[0, 0, 0, 0, True]] * 4),
        ("check_start", [0.5, 1, 2]),
        ("k_i", 10.7),
        ("n_network", "3"),
        ("label", 7),
        ("pipeline_depth", -1),
    ])
    def test_malformed_records_rejected(self, key, value):
        import json

        from nocldpc.nocsim import NocTrace

        h = make_h([[0, 1], [1, 2], [0, 2]], 3)
        tr = simulate_iteration(Topology(2), build_schedule(h, mapped(h, [0, 1, 2], 4)), seed=9)
        obj = json.loads(tr.to_json())
        obj[key] = value
        with pytest.raises(ValueError):
            NocTrace.from_json(json.dumps(obj))

    @pytest.mark.parametrize("bad", [True, 1.5, 2**63])
    @pytest.mark.parametrize("key", ["flits", "rm_ops", "arrivals", "fifo_max", "check_start",
                                     "check_complete"])
    def test_single_non_int_value_rejected(self, key, bad):
        # one record stays all ints but one value; a table built by an
        # int64 array conversion would read true as 1, and 2**63 does not
        # fit the int64 tables
        from nocldpc.nocsim import NocTrace

        h = make_h([[0, 1], [1, 2], [0, 2]], 3)
        tr = simulate_iteration(Topology(2), build_schedule(h, mapped(h, [0, 1, 2], 4)), seed=9)
        obj = json.loads(tr.to_json())
        rows = obj[key]
        if key in ("rm_ops", "arrivals"):
            rows = next(node for node in rows if node)
        if key in ("check_start", "check_complete"):
            rows[-1] = bad
        else:
            rows[-1][1] = bad
        with pytest.raises(ValueError, match="malformed trace file"):
            NocTrace.from_json(json.dumps(obj))


C06 = (("wimax_2304_1152", 5), ("wimax_576_288", 5), ("wifi_1944_486", 4), ("random_1057_244", 5))


@pytest.mark.parametrize("name,side", C06)
def test_trace_and_image_are_frozen_and_serialised_once(name, side):
    import hashlib

    from nocldpc.configgen import ConfigImage

    h = load_code(name)
    m = partition_kway(build_check_graph(h), side * side, seed=20250808)
    serving_order(h, m)
    tr = simulate_iteration(Topology(side), build_schedule(h, m), seed=20250808, label=h.label)
    cfg = gen_config(tr, m, h)

    # no field can be set and no table written
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.k_i = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.digest = ""
    with pytest.raises(TypeError):
        cfg.rm[0][0] = 1
    with pytest.raises(TypeError):
        tr.rm_ops[0] = ()
    busy = next(i for i, ops in enumerate(tr.rm_ops) if len(ops))
    tables = (tr.fifo_max, tr.check_start, cfg.fifo_depth, tr.rm_ops[busy], tr.arrivals[busy],
              tr.flits.table, cfg.slots)
    for arr in tables:
        with pytest.raises(ValueError):
            arr[0] = 99
        with pytest.raises(ValueError):
            arr.flags.writeable = True

    # the canonical text is json.dumps's of the trace's fields, computed once
    text = reference.trace_text(tr)
    assert tr.to_json() == text and tr.to_json() is tr.to_json()
    assert tr.content_digest() == hashlib.sha256(text.encode()).hexdigest()
    assert ConfigImage.from_json(cfg.to_json()).compute_digest() == cfg.digest

    # a copy with one record changed gets its own digest
    cycle, out, inp = tr.rm_ops[busy][0]
    ops = ((cycle + 1, out, inp), *tr.rm_ops[busy][1:])
    moved = dataclasses.replace(tr, rm_ops=(*tr.rm_ops[:busy], ops, *tr.rm_ops[busy + 1:]))
    assert moved.content_digest() != tr.content_digest()
    assert dataclasses.replace(tr).content_digest() == tr.content_digest()
    wag = next(i for i, addrs in enumerate(cfg.wag) if addrs)
    addrs = (cfg.wag[wag][0] ^ 1, *cfg.wag[wag][1:])
    moved_cfg = dataclasses.replace(cfg, wag=(*cfg.wag[:wag], addrs, *cfg.wag[wag + 1:]))
    assert moved_cfg.digest == cfg.digest != moved_cfg.compute_digest()


@pytest.fixture(scope="module")
def pipeline():
    h = load_code("wimax_576_288")
    g = build_check_graph(h)
    m = partition_kway(g, 25, seed=1)
    serving_order(h, m)
    s = build_schedule(h, m)
    tr = simulate_iteration(Topology(5), s, seed=7, label=h.label)
    cfg = gen_config(tr, m, h)
    wiring = validate_config(h, m, tr, cfg)
    return h, m, tr, cfg, wiring


@pytest.fixture(scope="module")
def pipeline_p4():
    h = load_code("wimax_576_288")
    m = partition_kway(build_check_graph(h), 4, seed=1)
    serving_order(h, m)
    tr = simulate_iteration(Topology(2), build_schedule(h, m), seed=1, label=h.label)
    return h, m, tr, gen_config(tr, m, h)


# the program stops before its last flits land, or idles past the trace's
# k_i, which would size the switch buffers wrong
_PROGRAM_LENGTH = {"short_program": -3, "long_program": 50}


class TestReplay:

    def test_noisy_frames_match_golden(self, pipeline):
        h, m, tr, cfg, wiring = pipeline
        layout = CodeLayout.build(h)
        sigma2 = 1.0 / (2 * 0.5 * 10 ** (2.0 / 10))
        sigma = sigma2**0.5
        # the default, a run without early stop, and a format whose codes
        # need the kernel's int32 store
        for params in (DecodeParams(alpha=1.15, it_max=10),
                       DecodeParams(alpha=1.15, it_max=10, early_stop=False),
                       DecodeParams(alpha=1.15, it_max=10, fmt=QFormat(16, 4))):
            for f in range(25):
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((77, f))))
                llr = 2.0 * (1.0 + sigma * rng.standard_normal(h.n_cols)) / sigma2
                gold = decode_layered_nms(h, llr, params, layout)
                rep = replay_decode(h, m, tr, cfg, llr, params, layout, wiring)
                assert np.array_equal(gold.hard_bits, rep.hard_bits)
                assert gold.iterations_run == rep.iterations_run
                assert gold.converged == rep.converged
                assert np.array_equal(gold.final_llrs, rep.final_llrs)

    @pytest.mark.parametrize("fmt", [QFormat(8, 1), QFormat(16, 4)], ids=str)
    def test_wide_rows_one_frame_match_golden(self, fmt):
        # row degree 13: one-frame replay takes its two smallest slot
        # magnitudes from np.partition over 13 slots
        h = load_code("random_1057_244")
        layout = CodeLayout.build(h)
        assert layout.check_idx.shape[0] == 13
        m = partition_kway(build_check_graph(h), 4, seed=1)
        serving_order(h, m)
        tr = simulate_iteration(Topology(2), build_schedule(h, m), seed=7, label=h.label)
        cfg = gen_config(tr, m, h)
        wiring = validate_config(h, m, tr, cfg)
        rate = 1.0 - h.n_rows / h.n_cols
        for f, snr in enumerate((1.0, 2.0, 2.6)):
            llr = awgn_llrs(h.n_cols, rate, snr, seed=83, frame=f)
            params = DecodeParams(alpha=1.15, it_max=10, fmt=fmt, early_stop=f != 2)
            gold = decode_layered_nms(h, llr, params, layout)
            rep = replay_decode(h, m, tr, cfg, llr, params, layout, wiring)
            assert np.array_equal(gold.hard_bits, rep.hard_bits)
            assert gold.iterations_run == rep.iterations_run
            assert gold.converged == rep.converged
            assert np.array_equal(gold.final_llrs, rep.final_llrs)

    @staticmethod
    def _image_replays_golden(h, m):
        """Build the 2x2 image of (h, m), check 4 noisy frames at 3.0 dB
        against the golden, and return the trace and the image."""
        serving_order(h, m)
        tr = simulate_iteration(Topology(2), build_schedule(h, m), seed=7, label=h.label)
        cfg = gen_config(tr, m, h)
        wiring = validate_config(h, m, tr, cfg)
        params = DecodeParams(alpha=1.15, it_max=10)
        for f in range(4):
            llr = awgn_llrs(h.n_cols, 1.0 - h.n_rows / h.n_cols, 3.0, seed=83, frame=f)
            gold = decode_layered_nms(h, llr, params)
            rep = replay_decode(h, m, tr, cfg, llr, params, wiring=wiring)
            assert np.array_equal(gold.hard_bits, rep.hard_bits)
            assert (gold.iterations_run, gold.converged) == (rep.iterations_run, rep.converged)
            assert np.array_equal(gold.final_llrs, rep.final_llrs)
        return tr, cfg

    def test_random_code_keeps_its_digest_through_the_pipeline(self):
        # the code's layers are fixed when it is made, so no stage relayers
        # it under an image that was built from its earlier serving order
        h = random_code(200, 60, 10, seed=1)
        digest = h.content_digest()
        m = partition_kway(build_check_graph(h), 4, seed=1)
        tr, cfg = self._image_replays_golden(h, m)
        assert h.content_digest() == digest == cfg.h_digest
        validate_config(h, m, tr, cfg)

    def test_relayered_code_serves_its_new_layer_order(self):
        h = load_code("wimax_576_288")
        m = partition_kway(build_check_graph(h), 4, seed=1)
        first = serving_sequence(h)
        serving_order(h, m)
        h.layers = h.layers[::-1]
        want = np.concatenate([np.sort(layer) for layer in h.layers])
        assert serving_sequence(h).tolist() == want.tolist() != first.tolist()
        self._image_replays_golden(h, m)
        assert m.order == [[r for r in want.tolist() if m.assignment[r] == pe] for pe in range(4)]

    def test_unchecked_variable_keeps_its_channel_value(self):
        h = make_h([[0, 1], [1, 2], [0, 2]], 4)  # variable 3 is in no check
        m = mapped(h, [0, 1, 2], 4)
        tr = simulate_iteration(Topology(2), build_schedule(h, m), seed=3)
        cfg = gen_config(tr, m, h)
        params = DecodeParams(it_max=3)
        llr = np.array([3.0, -1.0, 2.0, -5.0])
        gold = decode_layered_nms(h, llr, params)
        rep = replay_decode(h, m, tr, cfg, llr, params)
        assert tr.n_network > 0 and gold.final_llrs[3] == -10
        assert np.array_equal(gold.final_llrs, rep.final_llrs)
        assert (gold.iterations_run, gold.converged) == (rep.iterations_run, rep.converged)

    def test_noiseless_converges_identically(self, pipeline):
        h, m, tr, cfg, wiring = pipeline
        params = DecodeParams(alpha=1.15, it_max=10)
        llr = np.full(h.n_cols, 30.0)
        rep = replay_decode(h, m, tr, cfg, llr, params, wiring=wiring)
        assert rep.converged and rep.iterations_run == 1
        assert not rep.hard_bits.any()

    @pytest.mark.parametrize("shape", [(), (576, 1), (576, 2), (575,)], ids=str)
    def test_malformed_llrs_rejected(self, pipeline, shape):
        h, m, tr, cfg, wiring = pipeline
        with pytest.raises(ValueError, match=r"1-d array of 576 channel LLRs, got shape"):
            replay_decode(h, m, tr, cfg, np.ones(shape), DecodeParams(), wiring=wiring)

    def test_wrong_trace_rejected_before_cycles(self, pipeline):
        h, m, tr, cfg, _ = pipeline
        other = simulate_iteration(Topology(5), build_schedule(h, m), seed=8, label=h.label)
        from nocldpc.nocsim import ReplayIntegrityError

        with pytest.raises(ReplayIntegrityError):
            validate_config(h, m, other, cfg)

    def test_corrupted_rm_word_detected(self, pipeline):
        from nocldpc.configgen import ConfigIntegrityError
        from nocldpc.nocsim import ReplayIntegrityError

        h, m, tr, cfg, _ = pipeline

        def corrupt(obj):
            cyc = next(c for c, w in enumerate(obj["rm"][12]) if w)
            obj["rm"][12][cyc] ^= 0x8

        # corruption without digest repair trips the integrity check
        broken = _edited(cfg, corrupt)
        with pytest.raises((ConfigIntegrityError, ReplayIntegrityError)):
            broken.verify_digest()
        # corruption with a recomputed digest is caught by the RM walk
        broken = _resealed(broken)
        with pytest.raises(ReplayIntegrityError):
            validate_config(h, m, tr, broken)

    @pytest.mark.parametrize("field", ["input_port", "torus_side"])
    def test_resealed_image_with_bad_geometry_rejected(self, pipeline, field):
        from nocldpc.nocsim import ReplayIntegrityError

        h, m, tr, cfg, _ = pipeline
        if field == "input_port":
            def bad_port(obj):
                cyc = next(c for c, w in enumerate(obj["rm"][3]) if w)
                obj["rm"][3][cyc] |= 0xF  # output 0 selects input 7

            broken = _edited(cfg, bad_port)
        else:
            broken = dataclasses.replace(cfg, n=4)
        with pytest.raises(ReplayIntegrityError):
            validate_config(h, m, tr, _resealed(broken))

    @pytest.mark.parametrize("tamper", ["fifo_depth", "wag_address", "negative_wag_address",
                                        "pop_bits_cleared", "bit_30_set", "negative_word",
                                        "short_program", "long_program"])
    def test_resealed_program_faults_rejected(self, pipeline, tamper):
        from nocldpc.nocsim import ReplayIntegrityError

        h, m, tr, cfg, _ = pipeline
        rm_node = next(node for node, words in enumerate(cfg.rm) if any(words))
        rm_cyc = next(c for c, w in enumerate(cfg.rm[rm_node]) if w)

        def edit(obj):
            if tamper == "fifo_depth":  # one queue one flit short of the walk's peak
                node, port = np.argwhere(np.array(obj["fifo_depth"]) > 0)[0]
                obj["fifo_depth"][node][port] -= 1
            elif tamper == "wag_address":
                pe = next(pe for pe, addrs in enumerate(obj["wag"]) if addrs)
                obj["wag"][pe][0] ^= 1
            elif tamper == "negative_wag_address":  # negative indexing finds the same slot
                pe = next(pe for pe, addrs in enumerate(obj["wag"]) if addrs)
                obj["wag"][pe][0] -= len(m.order[pe]) * obj["n_d"]
            elif tamper == "pop_bits_cleared":  # the crossbar settings alone still read right
                obj["rm"][rm_node][rm_cyc] &= ~(0x1F << 20)
            elif tamper == "bit_30_set":
                obj["rm"][rm_node][rm_cyc] |= 1 << 30
            else:  # the same low 32 bits
                obj["rm"][rm_node][rm_cyc] -= 2**32

        if tamper in _PROGRAM_LENGTH:
            # the image loader refuses these (test_loader_rejects_program_not_ending_at_k_i),
            # so they are built from the image itself
            k_i = cfg.k_i + _PROGRAM_LENGTH[tamper]
            broken = dataclasses.replace(cfg, k_i=k_i, rm=[(w + (0,) * 50)[:k_i] for w in cfg.rm])
        else:
            broken = _edited(cfg, edit)
        with pytest.raises(ReplayIntegrityError):
            validate_config(h, m, tr, _resealed(broken))

    @pytest.mark.parametrize("tamper", sorted(_PROGRAM_LENGTH))
    def test_loader_rejects_program_not_ending_at_k_i(self, pipeline, tamper):
        from nocldpc.configgen import ConfigIntegrityError

        cfg = pipeline[3]

        def edit(obj):
            obj["k_i"] += _PROGRAM_LENGTH[tamper]
            obj["rm"] = [(words + [0] * 50)[:obj["k_i"]] for words in obj["rm"]]

        with pytest.raises(ConfigIntegrityError, match="last routing word is at cycle"):
            _edited(cfg, edit)

    @pytest.mark.parametrize("tamper", ["n_d_narrow", "n_d_zero", "n_pc"])
    def test_resealed_read_side_rejected(self, pipeline_p4, tamper):
        # N_d sets the block stride of the WAG and CNT/CMP addresses, so
        # those are rewritten to the tampered stride
        from nocldpc.nocsim import ReplayIntegrityError

        h, m, tr, cfg = pipeline_p4
        assert cfg.n_d == h.max_row_degree == 7

        def edit(obj):
            if tamper == "n_pc":
                obj["n_pc"] += 1
                return
            old, new = obj["n_d"], 6 if tamper == "n_d_narrow" else 0
            obj["n_d"] = new
            obj["cnt_cmp"] = [[[off // old * new, d] for off, d in pe] for pe in obj["cnt_cmp"]]
            obj["wag"] = [[a // old * new + a % old for a in pe] for pe in obj["wag"]]

        with pytest.raises(ReplayIntegrityError, match="N_d|N_pc"):
            validate_config(h, m, tr, _resealed(_edited(cfg, edit)))

    def test_padded_trace_k_i_rejected(self, pipeline):
        # idle cycles after the last landing would inflate the cycle count
        # that throughput and the switch buffers are sized from
        from nocldpc.nocsim import NocTrace, ReplayIntegrityError

        h, m, tr, _, _ = pipeline
        obj = json.loads(tr.to_json())
        obj["k_i"] += 50
        padded = NocTrace.from_json(json.dumps(obj))
        cfg = gen_config(padded, m, h)
        with pytest.raises(ReplayIntegrityError, match="last flit lands"):
            validate_config(h, m, padded, cfg)

    def test_flipped_digest_rejected(self, pipeline):
        from nocldpc.configgen import ConfigIntegrityError

        h, m, tr, cfg, _ = pipeline
        flipped = ("1" if cfg.digest[0] == "0" else "0") + cfg.digest[1:]
        broken = dataclasses.replace(cfg, digest=flipped)
        with pytest.raises(ConfigIntegrityError):
            validate_config(h, m, tr, broken)

    @pytest.mark.parametrize("depth", [0, 3, 5, 6])
    def test_resealed_pipeline_depth_rejected(self, depth):
        # one PE sends nothing over the network (k_i 0), so only the
        # depth itself can tell the image from the trace
        from nocldpc.nocsim import ReplayIntegrityError

        h, m = _c06_mapping(side=1)
        tr = simulate_iteration(Topology(1), build_schedule(h, m), seed=1, label=h.label)
        cfg = gen_config(tr, m, h)
        assert tr.k_i == 0 and tr.pipeline_depth == 4
        validate_config(h, m, tr, cfg)
        with pytest.raises(ReplayIntegrityError, match="pipeline depth"):
            validate_config(h, m, tr, _resealed(dataclasses.replace(cfg, pipeline_depth=depth)))


def _edited(cfg, edit):
    """A copy of an image loaded from its JSON after edit(obj); the stored
    digest is left as it was."""
    from nocldpc.configgen import ConfigImage

    obj = json.loads(cfg.to_json())
    edit(obj)
    return ConfigImage.from_json(json.dumps(obj))


def _resealed(img):
    return dataclasses.replace(img, digest=img.compute_digest())


def test_codegen_records_add_few_tracked_objects():
    # the schedule, the traces and the images keep their records in int
    # tables, which the cyclic garbage collector does not track; per-record
    # objects (named tuples, lists) were about 4,800 tracked objects here
    import gc

    from nocldpc.configgen import ConfigImage
    from nocldpc.nocsim import NocTrace

    h = load_code("wimax_576_288")

    def mapping():
        m = partition_kway(build_check_graph(h), 25, seed=20250808)
        serving_order(h, m)
        return m

    def codegen(m):
        s = build_schedule(h, m)
        tr = simulate_iteration(Topology(5), s, seed=20250808, label=h.label)
        cfg = gen_config(tr, m, h)
        return s, tr, NocTrace.from_json(tr.to_json()), cfg, ConfigImage.from_json(cfg.to_json())

    codegen(mapping())  # first calls may import or cache what later calls reuse
    m = mapping()
    gc.collect()
    before = len(gc.get_objects())
    kept = codegen(m)
    gc.collect()
    assert len(gc.get_objects()) - before <= 100
    assert kept[2].content_digest() == kept[1].content_digest()
