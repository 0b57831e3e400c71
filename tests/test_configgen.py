import dataclasses
import json
import struct

import numpy as np
import pytest

from nocldpc.codes import ParityCheckMatrix, compute_layers
from nocldpc.configgen import (
    ConfigImage,
    ConfigIntegrityError,
    UploadInfeasibleError,
    gen_config,
    min_buffer_size,
    pack_rm_word,
    plan_upload,
    simulate_upload,
    unpack_rm_word,
)
from nocldpc.configgen.image import _BIN_MAGIC
from nocldpc.configgen.upload import _feasible
from nocldpc.mapper import Mapping, serving_order
from nocldpc.nocsim import NocTrace, Topology, build_schedule, simulate_iteration


def rm_from_binary(blob: bytes) -> list[list[int]]:
    """Routing memories read back from ConfigImage.rm_to_binary's dump."""
    if blob[:8] != _BIN_MAGIC:
        raise ConfigIntegrityError("bad RM binary magic")
    n, k_i, p = struct.unpack("<III", blob[8:20])
    words = struct.unpack(f"<{k_i * p}I", blob[20:])
    return [list(words[i * k_i : (i + 1) * k_i]) for i in range(p)]


def make_h(rows, n_cols):
    h = ParityCheckMatrix(
        n_cols=n_cols,
        n_rows=len(rows),
        rows=[np.asarray(sorted(r), dtype=np.int32) for r in rows],
    )
    compute_layers(h)
    return h


def feeder_pipeline():
    """Three feeder checks on PE 1 supply two 3-input checks on PE 0."""
    rows = [[0, 3], [1, 4], [2, 5], [0, 1, 2], [3, 4, 5]]
    h = make_h(rows, 6)
    m = Mapping(p=4, assignment=np.array([1, 1, 1, 0, 0], dtype=np.int32))
    serving_order(h, m)
    s = build_schedule(h, m)
    tr = simulate_iteration(Topology(2), s, seed=4, label="feeder")
    return h, m, tr


class TestRmWords:
    def test_pack_unpack_roundtrip(self):
        sel = [(0, 3), (4, 1), (2, 2)]
        word = pack_rm_word(sel)
        assert sorted(unpack_rm_word(word)) == sorted(sel)
        assert unpack_rm_word(0) == []

    def test_pop_bits_set(self):
        word = pack_rm_word([(4, 1)])
        assert word & (1 << 21)


class TestGenConfig:
    def test_wag_blocks_start_at_degree_multiples(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert cfg.n_d == 3
        # PE 0 serves checks 3 then 4: their arrivals fill blocks 0..2 and 3..5
        addr_by_check = {3: [], 4: []}
        for addr, (check, *_rest) in zip(cfg.wag[0], tr.arrivals[0]):
            addr_by_check[check].append(addr)
        assert sorted(addr_by_check[3]) == [0, 1, 2]
        assert sorted(addr_by_check[4]) == [3, 4, 5]
        # arrivals fill each block sequentially
        assert addr_by_check[3] == sorted(addr_by_check[3])
        assert addr_by_check[4] == sorted(addr_by_check[4])

    def test_cnt_cmp_offsets(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert cfg.cnt_cmp[0] == ((0, 3), (3, 3))
        assert cfg.cnt_cmp[1] == ((0, 2), (3, 2), (6, 2))

    def test_empty_pe(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert cfg.wag[2] == () and cfg.wag[3] == ()
        assert cfg.cnt_cmp[2] == () and cfg.cnt_cmp[3] == ()

    def test_rm_length_is_k_i(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert all(len(node) == tr.k_i for node in cfg.rm)

    def test_fifo_depths_cover_trace(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert (cfg.fifo_depth >= tr.fifo_max).all()
        cfg2 = gen_config(tr, m, h, fifo_pow2=True)
        nz = tr.fifo_max > 0
        assert ((cfg2.fifo_depth[nz] & (cfg2.fifo_depth[nz] - 1)) == 0).all()

    def test_json_roundtrip_and_digest(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        cfg.verify_digest()
        cfg2 = ConfigImage.from_json(cfg.to_json())
        cfg2.verify_digest()
        assert cfg2.rm == cfg.rm and cfg2.wag == cfg.wag
        with pytest.raises(TypeError):
            cfg2.rm[0][0] ^= 1
        cfg2.verify_digest()
        node0 = (cfg2.rm[0][0] ^ 1, *cfg2.rm[0][1:])
        broken = dataclasses.replace(cfg2, rm=(node0, *cfg2.rm[1:]))
        with pytest.raises(ConfigIntegrityError):
            broken.verify_digest()

    @pytest.mark.parametrize("text", ["[1]", "3", "null", "{}", "not json",
                                      '{"format": "nocldpc-config-v1"}'])
    def test_malformed_top_level_rejected(self, text):
        with pytest.raises(ConfigIntegrityError):
            ConfigImage.from_json(text)

    @pytest.mark.parametrize("key,value", [
        ("rm", [[0]]),  # one node, one word
        ("wag", []),
        ("cnt_cmp", [[[0]], [], [], []]),  # short CNT/CMP entry
        ("slot_of", {"0": 0}),  # key without a position
        ("slot_of", []),
        ("fifo_depth", [[0]]),
        ("k_i", None),
        # values that are not plain ints are rejected, not coerced; a
        # callable edits the stored value in place of replacing it
        ("rm", lambda rm: [[float(w) for w in node] for node in rm]),
        ("wag", lambda wag: [[str(a) for a in pe] for pe in wag]),
        ("cnt_cmp", lambda cc: [[[True, d] for _, d in pe] for pe in cc]),
        ("fifo_depth", lambda fd: [[x + 0.5 for x in row] for row in fd]),
        ("slot_of", lambda so: {k: str(v) for k, v in so.items()}),
        ("n", 2.0),
        ("label", 5),
        ("pipeline_depth", -1),
    ])
    def test_malformed_records_rejected(self, key, value):
        h, m, tr = feeder_pipeline()
        obj = json.loads(gen_config(tr, m, h).to_json())
        obj[key] = value(obj[key]) if callable(value) else value
        with pytest.raises(ConfigIntegrityError):
            ConfigImage.from_json(json.dumps(obj))

    @pytest.mark.parametrize("bad", [True, 1.5])
    @pytest.mark.parametrize("key", ["rm", "wag", "cnt_cmp", "fifo_depth", "slot_of"])
    def test_single_non_int_value_rejected(self, key, bad):
        # one table entry is not an int while all around it are; a table
        # built by an int64 array conversion would read true as 1
        h, m, tr = feeder_pipeline()
        obj = json.loads(gen_config(tr, m, h).to_json())
        table = obj[key]
        if key == "slot_of":
            table["0:0"] = bad
        elif key == "cnt_cmp":
            next(pe for pe in table if pe)[-1][1] = bad
        else:
            next(row for row in table if row)[-1] = bad
        with pytest.raises(ConfigIntegrityError, match="malformed configuration image"):
            ConfigImage.from_json(json.dumps(obj))

    @pytest.mark.parametrize("key", ["00:0", " 0:0", "+0:0", "0_0:0", "0:00", "0: 0", "-0:0",
                                     "0:0 ", "\u0660:0", "0:0:0", "0"])
    def test_noncanonical_slot_keys_rejected(self, key):
        # int() reads each of these as check 0, position 0, which would load
        # and pass the digest; the loader accepts only what to_json writes
        h, m, tr = feeder_pipeline()
        obj = json.loads(gen_config(tr, m, h).to_json())
        obj["slot_of"][key] = obj["slot_of"].pop("0:0")
        with pytest.raises(ConfigIntegrityError, match="slot map key"):
            ConfigImage.from_json(json.dumps(obj))

    @pytest.mark.parametrize("record,field,value,match", [
        ("arrivals", 0, 10**6, "check 1000000, outside"),
        ("arrivals", 0, -1, "check -1, outside"),
        ("arrivals", 1, -1, r"network input \(\d+, -1\) is in the trace only"),
        ("rm_ops", 0, -3, r"operation \(-3, \d, \d\) outside"),
        ("rm_ops", 1, 9, r"operation \(\d+, 9, \d\) outside"),
        ("rm_ops", 2, 5, r"operation \(\d+, \d, 5\) outside"),
    ], ids=["arrival-check-huge", "arrival-check-negative", "arrival-position",
            "rm-cycle-negative", "rm-out-port", "rm-in-port"])
    def test_trace_records_out_of_range_rejected(self, record, field, value, match):
        h, m, tr = feeder_pipeline()
        obj = json.loads(tr.to_json())
        next(r for r in obj[record] if r)[0][field] = value
        tr = NocTrace.from_json(json.dumps(obj))
        with pytest.raises(ConfigIntegrityError, match=match):
            gen_config(tr, m, h)

    def test_trace_missing_arrival_rejected(self):
        h, m, tr = feeder_pipeline()
        obj = json.loads(tr.to_json())
        check, pos, *_ = obj["arrivals"][0].pop()
        tr = NocTrace.from_json(json.dumps(obj))
        lost = rf"input \({check}, {pos}\) is in the schedule only"
        with pytest.raises(ConfigIntegrityError, match=lost):
            gen_config(tr, m, h)

    def test_rm_binary_roundtrip(self):
        h, m, tr = feeder_pipeline()
        cfg = gen_config(tr, m, h)
        assert rm_from_binary(cfg.rm_to_binary()) == [list(node) for node in cfg.rm]

    def test_determinism(self):
        h, m, tr = feeder_pipeline()
        a = gen_config(tr, m, h)
        b = gen_config(tr, m, h)
        assert a.digest == b.digest


class TestBufferSizing:
    def test_wimax_worked_case(self):
        assert min_buffer_size(491, 466, 5) == 766

    def test_worst_case_five_buses(self):
        # k1 = k2 = k_max with n = 5 needs just over 1.6 k_max
        assert min_buffer_size(100, 100, 5) == 161

    def test_single_bus(self):
        assert min_buffer_size(491, 466, 1) == 1

    def test_plan_phase_counts(self):
        plan = plan_upload(491, 466, 5, 767)
        assert (plan.w1, plan.w2, plan.w3) == (276, 98, 93)
        assert plan.w1 + plan.w2 + plan.w3 >= 466
        assert plan.feasible and not plan.trivial
        assert plan.sof2 == 491 and plan.eof2 == (491 + 466) % 767

    def test_trivial_when_fits_free_space(self):
        plan = plan_upload(100, 50, 5, 200)
        assert plan.trivial and plan.feasible
        rep = simulate_upload(plan)
        assert rep.passed and rep.words_written == 50

    def test_infeasible_raises_with_minimum(self):
        with pytest.raises(UploadInfeasibleError) as err:
            plan_upload(100, 100, 2, 100)
        assert err.value.min_feasible_b == min_buffer_size(100, 100, 2)

    def test_zero_k2_trivially_passes(self):
        plan = plan_upload(100, 0, 5, 100)
        assert simulate_upload(plan).passed


class TestUploadSimulation:
    def test_criterion_boundary_wimax(self):
        for b, want in [(765, False), (766, True), (767, True)]:
            plan = plan_upload(491, 466, 5, b, strict=False)
            assert simulate_upload(plan).passed == want
        bad = simulate_upload(plan_upload(491, 466, 5, 765, strict=False))
        assert bad.first_violation[0] == "read-before-write"

    def test_pass_at_minimum_all_alignments(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 200:
            k1 = int(rng.integers(1, 400))
            k2 = int(rng.integers(1, 400))
            n = int(rng.integers(2, 9))
            b0 = min_buffer_size(k1, k2, n)
            if b0 < max(k1, k2):
                continue
            done += 1
            plan = plan_upload(k1, k2, n, b0, strict=False)
            assert all(simulate_upload(plan, a).passed for a in range(n))
            below = plan_upload(k1, k2, n, b0 - 1, strict=False)
            assert not simulate_upload(below).passed

    def test_predicate_matches_simulation_exhaustively(self):
        # dual route: the closed-form feasibility rule against the cycle model
        rng = np.random.default_rng(2)
        for _ in range(60):
            k1 = int(rng.integers(1, 40))
            k2 = int(rng.integers(1, 40))
            n = int(rng.integers(1, 7))
            for b in range(max(k1, k2, 1), k1 + k2 + 2):
                plan = plan_upload(k1, k2, n, b, strict=False)
                assert simulate_upload(plan).passed == _feasible(k1, k2, n, b), (k1, k2, n, b)

    def test_capacity_violation_reported(self):
        plan = plan_upload(100, 120, 4, 110, strict=False)
        rep = simulate_upload(plan)
        assert not rep.passed and rep.first_violation[0] == "capacity"

    def test_alignment_validation(self):
        plan = plan_upload(10, 10, 4, 20)
        with pytest.raises(ValueError):
            simulate_upload(plan, alignment=4)
