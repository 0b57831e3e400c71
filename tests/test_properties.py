"""Randomised properties: the code parsers on malformed text, the check graph
against its per-column loop reference, quantize against its floor/ceil
reference, batched decoders against their single-frame goldens, and the
codegen path from check graph to replayed configuration image."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nocldpc.codes import (  # noqa: E402
    AlistParseError,
    CodeError,
    ParityCheckMatrix,
    QcValidationError,
    build_check_graph,
    compute_layers,
    expand_qc,
    parse_alist,
    parse_qc,
)
from nocldpc.codes.randomgen import random_code  # noqa: E402
from nocldpc.configgen import ConfigImage, gen_config  # noqa: E402
from nocldpc.decoder import (  # noqa: E402
    CodeLayout,
    DecodeParams,
    decode_flooding_spa,
    decode_flooding_spa_batch,
    decode_layered_nms,
    decode_layered_nms_batch,
)
from nocldpc.fixedpoint import QFormat, quantize  # noqa: E402
from nocldpc.mapper import cutset, partition_kway, serving_order  # noqa: E402
from nocldpc.nocsim import (  # noqa: E402
    NocTrace,
    Topology,
    build_schedule,
    replay_decode,
    simulate_iteration,
    validate_config,
)
from nocldpc.nocsim.schedule import _build_schedule  # noqa: E402
from nocldpc.nocsim.simulate import HOP_CYCLES  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
# a dense random code can spend a second or more in random_code's
# duplicate repair before its cyclic fallback
SLOW_DRAWS = [HealthCheck.filter_too_much, HealthCheck.too_slow]


# a few short lines of small ints: headers, degrees, indices and shifts all
# land near their valid ranges, and no QC expansion factor exceeds 9
CODE_TEXTS = st.lists(st.lists(st.integers(-3, 9), max_size=6), max_size=8).map(
    lambda lines: "\n".join(" ".join(map(str, line)) for line in lines)
)


@settings(max_examples=300, deadline=None)
@given(CODE_TEXTS)
def test_code_parsers_raise_their_own_errors(text):
    for parse in (parse_alist, lambda t: expand_qc(parse_qc(t))):
        try:
            h = parse(text)
        except (AlistParseError, QcValidationError, CodeError):
            continue
        h.validate()


def reference_check_graph(h):
    """The per-column loop that build_check_graph replaced.

    Returns the message-carrying pairs as {(u, v): weight} and the sharing
    pairs as a set, each pair with u < v.
    """
    if h.layers is None:
        rank = np.arange(h.n_rows)
    else:
        rank = h.layer_of_row().astype(np.int64) * h.n_rows + np.arange(h.n_rows)
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
    return edges, shared


def small_code(rows, n_cols, layers=None):
    h = ParityCheckMatrix(n_cols, len(rows), [np.array(sorted(r), dtype=np.int32) for r in rows])
    h.layers = layers
    return h


@st.composite
def check_graph_cases(draw):
    """Small codes without layers, or with a shuffled first-fit layer order,
    so the serving order differs from row order."""
    n_cols = draw(st.integers(1, 12))
    support = st.sets(st.integers(0, n_cols - 1), min_size=1)
    h = small_code(draw(st.lists(support, min_size=1, max_size=12)), n_cols)
    if draw(st.booleans()):
        h.layers = draw(st.permutations(compute_layers(h)))
    return h


# codes whose checks share no variable give empty arrays
@example(small_code([[0, 1], [2]], 3))
@example(small_code([[0, 1], [2]], 3, layers=[np.array([1]), np.array([0])]))
@settings(max_examples=200, deadline=None)
@given(check_graph_cases())
def test_check_graph_matches_loop_reference(h):
    g = build_check_graph(h)
    edges, shared = reference_check_graph(h)
    pairs = sorted(edges)
    assert g.u.tolist() == [u for u, _ in pairs]
    assert g.v.tolist() == [v for _, v in pairs]
    assert g.weight.tolist() == [edges[e] for e in pairs]
    assert g.shared.shape == (len(shared), 2)
    assert g.shared.tolist() == [list(e) for e in sorted(shared)]
    for a in (g.u, g.v, g.weight, g.shared):
        assert a.dtype == np.int32 and not a.flags.writeable


def reference_quantize(x, fmt):
    """quantize through floor and ceil on separate temporaries, as it was
    first written."""
    x = np.asarray(x, dtype=np.float64)
    scaled = x * (1 << fmt.frac_bits)
    codes = np.where(scaled >= 0.0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    return np.clip(codes, fmt.min_code, fmt.max_code).astype(np.int32)


@st.composite
def quantize_cases(draw):
    n_bits = draw(st.integers(2, 24))
    fmt = QFormat(n_bits, draw(st.integers(0, n_bits - 1)))
    lsb = 2.0 ** -fmt.frac_bits
    values = st.one_of(
        st.floats(allow_nan=False),  # includes +-0.0, +-inf and huge values
        st.integers(-(1 << 25), 1 << 25).map(lambda k: (k + 0.5) * lsb),  # exact ties
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 0.5 * lsb, -0.5 * lsb]),
    )
    if draw(st.booleans()):
        return draw(values), fmt
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    flat = draw(st.lists(values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    return np.array(flat).reshape(shape), fmt


@settings(max_examples=300, deadline=None)
@given(quantize_cases())
def test_quantize_matches_floor_ceil_reference(case):
    x, fmt = case
    with np.errstate(over="ignore"):  # scaling the largest floats gives inf
        got, want = quantize(x, fmt), reference_quantize(x, fmt)
    assert type(got) is type(want) and got.dtype == np.int32
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@st.composite
def decode_cases(draw):
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 20))
    row_degree = draw(st.integers(1, n))
    assume(m * row_degree >= n)
    h = random_code(n, m, row_degree, seed=draw(SEEDS))
    n_frames = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    llrs = rng.normal(draw(st.floats(0.0, 6.0)), draw(st.floats(0.5, 6.0)), size=(n_frames, n))
    params = DecodeParams(it_max=draw(st.integers(1, 8)), early_stop=draw(st.booleans()))
    return h, llrs, params


@settings(max_examples=60, deadline=None, suppress_health_check=SLOW_DRAWS)
@given(decode_cases())
def test_batched_decoders_match_goldens(case):
    h, llrs, params = case
    layout = CodeLayout.build(h)
    for single, batched in ((decode_layered_nms, decode_layered_nms_batch),
                            (decode_flooding_spa, decode_flooding_spa_batch)):
        for row, res in zip(llrs, batched(h, llrs, params, layout)):
            gold = single(h, row, params, layout)
            assert np.array_equal(res.hard_bits, gold.hard_bits)
            assert res.iterations_run == gold.iterations_run
            assert res.converged == gold.converged
            assert np.array_equal(res.final_llrs.view(np.uint8), gold.final_llrs.view(np.uint8))


@st.composite
def codegen_cases(draw):
    side = draw(st.integers(1, 4))
    m = draw(st.integers(side * side, 32))
    n = draw(st.integers(2, 40))
    row_degree = draw(st.integers(1, n))
    assume(m * row_degree >= n)
    h = random_code(n, m, row_degree, seed=draw(SEEDS))
    compute_layers(h)
    return h, side, draw(st.integers(1, 6)), draw(SEEDS)


@settings(max_examples=30, deadline=None, suppress_health_check=SLOW_DRAWS)
@given(codegen_cases())
def test_codegen_path_properties(case):
    h, side, depth, seed = case
    p = side * side
    g = build_check_graph(h)
    mapping = partition_kway(g, p, seed)
    mapping.validate(h.n_rows)
    serving_order(h, mapping)
    schedule = build_schedule(h, mapping)
    trace = simulate_iteration(Topology(side), schedule, seed=seed, pipeline_depth=depth)
    assert cutset(g, mapping) == trace.n_network == schedule.n_network

    # every flit is delivered exactly once, at its destination PE
    arrived = sorted(a[3] for pe in trace.arrivals for a in pe)
    assert arrived == list(range(trace.n_network))
    assert all(a[2] == trace.flits[a[3]].src_pe and trace.flits[a[3]].dst_pe == pe
               for pe, lst in enumerate(trace.arrivals) for a in lst)

    summary = trace.summary()
    assert trace.k_i >= summary["k_i_lower_bound_link"]
    assert trace.k_i >= summary["k_i_lower_bound_distance"] == HOP_CYCLES * trace.max_hops()
    # reads: a check is read after its chain inputs land and sends only after
    # its read, so every network flit lands inside k_i after its source's read
    start, done = trace.check_start, trace.check_complete
    assert (start >= 0).all() and (done >= start + [len(row) for row in h.rows]).all()
    for f in trace.flits:
        assert start[f.src_check] + len(h.rows[f.src_check]) <= done[f.src_check]
        assert done[f.src_check] <= f.inject_cycle < f.receipt_cycle < trace.k_i
        if not f.wrap:
            assert f.receipt_cycle <= start[f.dst_check]

    digest = trace.content_digest()
    assert NocTrace.from_json(trace.to_json()).content_digest() == digest
    config = gen_config(trace, mapping, h)
    back = ConfigImage.from_json(config.to_json())
    back.verify_digest()
    assert back.digest == config.digest
    wiring = validate_config(h, mapping, trace, back)
    # gen_config and validate_config read the caller's build, which equals
    # an uncached one
    assert build_schedule(h, mapping) is schedule
    assert schedule == _build_schedule(h, mapping)

    # both map sets of the shared layer sweep against one golden: the
    # variable maps of the batched decoder and the replay's slot maps
    params = DecodeParams(it_max=5)
    layout = CodeLayout.build(h)
    frames = np.random.default_rng(seed).normal(2.0, 2.0, size=(2, h.n_cols))
    batch = decode_layered_nms_batch(h, frames, params, layout)
    for llrs, res in zip(frames, batch):
        gold = decode_layered_nms(h, llrs, params, layout)
        rep = replay_decode(h, mapping, trace, back, llrs, params, layout, wiring)
        for other in (rep, res):
            assert np.array_equal(other.hard_bits, gold.hard_bits)
            assert other.iterations_run == gold.iterations_run
            assert other.converged == gold.converged
            assert np.array_equal(other.final_llrs, gold.final_llrs)
