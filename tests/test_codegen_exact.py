"""The fast paths of the codegen stages against plain references.

The simulator computes each distinct route once and keeps a next-port table,
gen_config ORs precomputed word bits, and the trace and image encoders skip
the JSON cycle check and share one payload per image.  On random codes and
the c06 cases, every flit must still follow route_o1turn with its seeded
coin, every routing-memory word must equal the OR of pack_rm_word over its
operations, and the trace and image texts must equal the default encoder's
(tests/reference.py).
"""

import hashlib
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nocldpc.codes import build_check_graph, load_code  # noqa: E402
from nocldpc.codes.randomgen import random_code  # noqa: E402
from nocldpc.configgen import ConfigImage, gen_config, pack_rm_word  # noqa: E402
from nocldpc.mapper import partition_kway, serving_order  # noqa: E402
from nocldpc.nocsim import (  # noqa: E402
    NocTrace,
    Port,
    Topology,
    build_schedule,
    route_o1turn,
    simulate_iteration,
)
import reference  # noqa: E402

C06 = (("wimax_2304_1152", 5), ("wimax_576_288", 5), ("wifi_1944_486", 4), ("random_1057_244", 5))


def codegen(h, side, seed, depth=4):
    mapping = partition_kway(build_check_graph(h), side * side, seed)
    serving_order(h, mapping)
    trace = simulate_iteration(Topology(side), build_schedule(h, mapping), seed=seed,
                               pipeline_depth=depth, label=h.label)
    return trace, gen_config(trace, mapping, h)


def assert_routes_follow_o1turn(trace):
    """Each flit takes route_o1turn's ports under its seeded coin, so the
    routing operations use each (node, output port) as often as the routes."""
    topo = Topology(trace.n)
    used = Counter()
    for f in trace.flits:
        assert f.coin == reference.mix64(trace.seed, f.uid) & 1
        ports = route_o1turn(f.src_pe, f.dst_pe, trace.n, f.coin)
        assert f.hops == len(ports)
        node = f.src_pe
        for port in ports:
            used[node, int(port)] += 1
            if port != Port.LOCAL:
                node = topo.neighbor(node, port)
        assert node == f.dst_pe
    assert Counter((node, out) for node, ops in enumerate(trace.rm_ops) for _, out, _ in ops) == used


def assert_rm_words_pack_their_ops(trace, config):
    """Each routing-memory word is the OR of pack_rm_word over the
    operations of its node and cycle; words without one are zero."""
    want = [[0] * trace.k_i for _ in trace.rm_ops]
    for node, ops in enumerate(trace.rm_ops):
        for cycle, out, inp in ops:
            want[node][cycle] |= pack_rm_word([(out, inp)])
    assert [list(node) for node in config.rm] == want


def assert_texts_match_reference(trace, config):
    assert trace.to_json() == reference.trace_text(trace)
    back = NocTrace.from_json(trace.to_json())
    assert back.to_json() == reference.trace_text(back)
    payload = reference.image_payload_text(config)
    assert config.digest == hashlib.sha256(payload.encode()).hexdigest()
    assert config.to_json() == reference.image_text(config)
    image = ConfigImage.from_json(config.to_json())
    assert image.to_json() == reference.image_text(image)
    image.verify_digest()


def assert_exact(h, side, seed, depth=4):
    trace, config = codegen(h, side, seed, depth)
    assert_routes_follow_o1turn(trace)
    assert_rm_words_pack_their_ops(trace, config)
    assert_texts_match_reference(trace, config)


@pytest.mark.parametrize("name,side", C06)
def test_c06_cases_match_references(name, side):
    assert_exact(load_code(name), side, 20250808)


@st.composite
def codegen_cases(draw):
    side = draw(st.integers(1, 4))
    m = draw(st.integers(side * side, 40))
    n = draw(st.integers(2, 60))
    row_degree = draw(st.integers(1, min(n, 8)))
    assume(m * row_degree >= n)
    h = random_code(n, m, row_degree, seed=draw(st.integers(0, 2**32 - 1)),
                    label=draw(st.sampled_from(["", "r", 'q"\\,:\u00e9'])))
    return h, side, draw(st.integers(0, 6)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(codegen_cases())
def test_random_codes_match_references(case):
    h, side, depth, seed = case
    assert_exact(h, side, seed, depth)
