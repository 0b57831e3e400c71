"""Randomised properties: the code parsers on malformed text, code
construction, validation, digests and layouts against the per-row loops they
replaced, the check graph against its per-column loop reference, quantize
against its floor/ceil reference, the golden layered decoder against the
first golden in reference.py, batched decoders against their single-frame
goldens, the codegen path from check graph to replayed configuration
image, the cycle simulator against the first simulator's plain loops
in reference.py, the whole-array JSON writers of the trace and image
tables against json.dumps, and the readers of canonical trace and image
texts against json.loads."""

import dataclasses
import hashlib
import json
import re
import sys
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nocldpc.codes import (  # noqa: E402
    AlistParseError,
    CodeError,
    ParityCheckMatrix,
    QcDescription,
    QcValidationError,
    available_codes,
    build_check_graph,
    compute_layers,
    expand_qc,
    load_code,
    parse_alist,
    parse_qc,
)
from nocldpc.codes.standards import qc_description  # noqa: E402
from nocldpc.codes.randomgen import random_code  # noqa: E402
from nocldpc.configgen import ConfigImage, gen_config  # noqa: E402
from nocldpc.decoder import (  # noqa: E402
    CodeLayout,
    DecodeParams,
    decode_flooding_spa,
    decode_flooding_spa_batch,
    decode_layered_nms,
    decode_layered_nms_batch,
    syndrome_check,
)
from nocldpc.decoder.layout import _CHECK_CHUNK, _VAR_CHUNK  # noqa: E402
from nocldpc.fixedpoint import QFormat, quantize  # noqa: E402
from nocldpc.mapper import Mapping, cutset, partition_kway, serving_order  # noqa: E402
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
import reference  # noqa: E402

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


# ---------------------------------------------------------------------------
# Code construction against the per-row loops it was first written as


def reference_expand_qc(desc):
    """expand_qc's row loop: one sort per expanded row.  Returns the rows
    and the block-row layers."""
    z = desc.z
    rows = []
    for b in range(desc.base_rows):
        shifts = desc.entries[b]
        cols = np.nonzero(shifts >= 0)[0]
        for r in range(z):
            vars_ = cols.astype(np.int64) * z + (shifts[cols].astype(np.int64) + r) % z
            rows.append(np.sort(vars_).astype(np.int32))
    layers = [np.arange(b * z, (b + 1) * z, dtype=np.int32) for b in range(desc.base_rows)]
    return rows, layers


def reference_validate(h):
    """ParityCheckMatrix.validate as a scan over rows, then layer entries."""
    if h.n_cols < 1 or h.n_rows < 1:
        raise CodeError("empty matrix")
    if len(h.rows) != h.n_rows:
        raise CodeError("row count mismatch")
    for m, row in enumerate(h.rows):
        if len(row) == 0:
            raise CodeError(f"row {m} is empty")
        if row[0] < 0 or row[-1] >= h.n_cols:
            raise CodeError(f"row {m} has variable index out of range")
        if np.any(np.diff(row) <= 0):
            raise CodeError(f"row {m} is not sorted and duplicate-free")
    if h.layers is not None:
        seen = np.zeros(h.n_rows, dtype=bool)
        for li, layer in enumerate(h.layers):
            touched = np.zeros(h.n_cols, dtype=bool)
            for m in layer:
                m = int(m)
                if seen[m]:
                    raise CodeError(f"row {m} appears in more than one layer")
                seen[m] = True
                if np.any(touched[h.rows[m]]):
                    raise CodeError(f"layer {li} has rows sharing a variable")
                touched[h.rows[m]] = True
        if not seen.all():
            raise CodeError("layers do not cover all rows")


def reference_content_digest(h):
    """content_digest fed row by row and layer by layer."""
    d = hashlib.sha256()
    d.update(f"{h.n_rows} {h.n_cols}\n".encode())
    for row in h.rows:
        d.update(row.astype(np.int64).tobytes())
        d.update(b";")
    if h.layers is not None:
        for layer in h.layers:
            d.update(np.asarray(layer, dtype=np.int64).tobytes())
            d.update(b"|")
    return d.hexdigest()


def reference_compute_layers(h):
    """compute_layers' first fit with one boolean mask per layer; h is
    left as it was."""
    layer_vars, layer_rows = [], []
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
    return [np.asarray(rows, dtype=np.int32) for rows in layer_rows]


def reference_layout(h):
    """CodeLayout's idx and mask, filled row by row."""
    n_d = max(len(r) for r in h.rows)
    idx = np.zeros((h.n_rows, n_d), dtype=np.int32)
    mask = np.zeros((h.n_rows, n_d), dtype=bool)
    for r, row in enumerate(h.rows):
        idx[r, :len(row)] = row
        mask[r, :len(row)] = True
    return idx, mask


def reference_layer_maps(h):
    """Each layer's (idx, pad) as LayerMap holds them, filled row by row: W
    is the layer's widest row but at least 2, and a row's slots from its
    degree on are padded and point at the spare variable N."""
    maps = []
    for layer in h.layers:
        rows = [h.rows[m] for m in sorted(layer)]
        width = max(2, max((len(row) for row in rows), default=0))
        idx = np.full((width, len(rows)), h.n_cols, dtype=np.intp)
        pad = np.zeros((width, len(rows)), dtype=bool)
        for i, row in enumerate(rows):
            idx[:len(row), i] = row
            pad[len(row):, i] = True
        maps.append((idx, pad))
    return maps


def reference_spa_plan(h):
    """SpaPlan's checks and var_edges, filled check by check: the checks of
    each degree d, ascending, in equal chunks of at most _CHECK_CHUNK rows;
    slot s of a chunk's check i is store row start + s * k + i; each column
    lists its edges by ascending check, padded with the spare row E."""
    checks, edges = [], [[] for _ in range(h.n_cols)]
    where = {}  # (check, variable) -> store row
    start = 0
    for d in sorted({len(row) for row in h.rows} - {0}):
        rows = [m for m, row in enumerate(h.rows) if len(row) == d]
        size = -(-len(rows) // -(-len(rows) // _CHECK_CHUNK))
        for part in (rows[i:i + size] for i in range(0, len(rows), size)):
            idx = np.zeros((d, len(part)), dtype=np.intp)
            for i, m in enumerate(part):
                for slot, v in enumerate(h.rows[m]):
                    idx[slot, i] = v
                    where[m, int(v)] = start + slot * len(part) + i
            checks.append((idx, slice(start, start + idx.size)))
            start += idx.size
    for m, row in enumerate(h.rows):
        for v in row:
            edges[v].append(where[m, int(v)])
    var_edges = np.full((max(1, max(map(len, edges))), h.n_cols), start, dtype=np.intp)
    for j, col in enumerate(edges):
        var_edges[:len(col), j] = col
    return checks, var_edges


def assert_spa_plan_matches_reference(h, plan):
    """plan is h's SpaPlan: the row-loop reference's checks and var_edges,
    one degree and no padded slot per chunk, one store row per edge, and
    column chunks that cut var_edges to their deepest column."""
    checks, var_edges = reference_spa_plan(h)
    assert plan.width == max(len(row) for row in h.rows)
    assert len(plan.checks) == len(checks)
    start = 0
    for (idx, block), (want_idx, want_block) in zip(plan.checks, checks):
        assert_same_arrays([idx], [want_idx])
        assert block == want_block == slice(start, start + idx.size)
        assert 0 < idx.shape[1] <= _CHECK_CHUNK and (idx < h.n_cols).all()
        start = block.stop
    assert plan.n_edges == start == sum(len(row) for row in h.rows)
    assert_same_arrays([plan.var_edges], [var_edges])
    stored = plan.var_edges[plan.var_edges != plan.n_edges]
    assert np.array_equal(np.sort(stored), np.arange(plan.n_edges))
    assert [cs for cs, _ in plan.columns] == [
        slice(c, min(c + _VAR_CHUNK, h.n_cols)) for c in range(0, h.n_cols, _VAR_CHUNK)]
    for cs, edges in plan.columns:
        depth = max(1, int((var_edges[:, cs] != start).sum(axis=0).max()))
        assert_same_arrays(edges, list(var_edges[:depth, cs]))


def validate_error(validate, h):
    try:
        validate(h)
    except CodeError as exc:
        return str(exc)
    return None


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_matches_references(h):
    """h is valid; its digest, first-fit layers and layout equal the loops'."""
    assert reference_validate(h) is None and h.validate() is None
    assert h.content_digest() == reference_content_digest(h)
    bare = ParityCheckMatrix(h.n_cols, h.n_rows, h.rows)
    assert_same_arrays(compute_layers(bare), reference_compute_layers(h))
    assert bare.content_digest() == reference_content_digest(bare)
    layout = CodeLayout.build(h)
    idx, mask = reference_layout(h)
    assert layout.n_d == idx.shape[1]
    assert_same_arrays([layout.idx, layout.mask], [idx, mask])
    start = 0
    for lm, (lidx, pad) in zip(layout.layer_maps, reference_layer_maps(h), strict=True):
        assert_same_arrays([lm.idx], [lidx])
        if pad.any():
            assert lm.pad.shape == (*pad.shape, 1) and np.array_equal(lm.pad[:, :, 0], pad)
        else:
            assert lm.pad is None
        assert lm.span == slice(start, start + lidx.shape[1])
        start = lm.span.stop
    # the rest of the layout derives from idx, mask and the layers: a layout
    # built from copied rows and layers must equal it array for array
    copy = ParityCheckMatrix(h.n_cols, h.n_rows, [r.copy() for r in h.rows],
                             [np.array(l) for l in h.layers])
    again = CodeLayout.build(copy)
    assert_same_arrays([layout.check_idx, *layout.layer_rows],
                       [again.check_idx, *again.layer_rows])
    for plan in (layout.spa_plan, again.spa_plan):
        assert_spa_plan_matches_reference(h, plan)
    for a, b in zip(layout.layer_maps, again.layer_maps, strict=True):
        assert_same_arrays([a.idx], [b.idx])
        assert a.span == b.span
        assert (a.pad is None) == (b.pad is None)
        assert a.pad is None or np.array_equal(a.pad, b.pad)


# content_digest of every bundled code; configuration images carry it
BUNDLED_DIGESTS = {
    "wimax_576_288": "c31ee57be8e85eb040c634f9e831458e46efa0f09e20033f1bf896b342d34c7a",
    "wimax_576_96": "adc3d0199c6acebb3bf86664e280daf392717a2e572c5a323dea4cb6f141f128",
    "wimax_672_336": "e5593e0d4b8b60150b9896d930c0911eae12c0a5176e31789d2438c170a82df8",
    "wimax_672_112": "5936c8ae9bbab7e434d34934d90bee73dac05d16fcc23f2458b138e284f5c628",
    "wimax_768_384": "c095e7720b98f56043bcc2331c923dbe4d1a8162b9e0da7eee3376b96875651d",
    "wimax_768_128": "2289db3288d87b6e0c7e583eb54cf952d19a0e50fc897bd4a9ddfa515718f271",
    "wimax_864_432": "f34b520fe57ef9adb6df46290ba6df930b23310df8033c3db0cfc6bfdbeb0553",
    "wimax_864_144": "cf4639fc4d3b02d337197d256fbd9ac1670ad43d4b3ccf0c15f1380b2c41798f",
    "wimax_960_480": "89e7a70ef0f013435dc7ac052e0f06ffe49df2847115348c52fa04cc714ae2d9",
    "wimax_960_160": "c445e1d0851ff9149922060033d0f86d0dccce3072429e66422a8556f386036e",
    "wimax_1056_528": "7ad7e3a096080ffc906f447d612d07b6abccb483087a10a0fbd9c3eb60412838",
    "wimax_1056_176": "be89f529f0255d575baf831e3cbf09e4cf5f7a05dbf3cce3ddf7034cfea8fa26",
    "wimax_1152_576": "74e8258156638011bfd2e2ab08edb305877cca5c96fef5afb639c3946c00cda8",
    "wimax_1152_192": "d34003312902742089562819ab14a5e797c8e994153e9aa48d5ec2f9ff135cdd",
    "wimax_1248_624": "6bc579b87eb95aed97e6ae87b0bff4cb3f70a4f64c0e8b91f571108fe9db0086",
    "wimax_1248_208": "ce14f145aacedf0942a8f7f5bdb302ef6d2d575ec99fe533076f23fd69e6dfeb",
    "wimax_1344_672": "9056a3c5c5e09ce915d8ee243bd8a605366ef5581f880850463b867ae0d02d6d",
    "wimax_1344_224": "006b4d78bdc1abb4a2650360d9adadb258820dbf6efc95821365df9cc645197e",
    "wimax_1440_720": "cc04f0c179c5ae62b422da5a2997d4feec53ffdd50cec2011472ccde08f36d19",
    "wimax_1440_240": "8534944199375da200d432ca3063bc0bc5fd1ad961739bae9f7689601476bb2f",
    "wimax_1536_768": "4da2b36789fb6ed76414d21eb8c10787381a46859d65082e52cabd6c61415a9f",
    "wimax_1536_256": "5f2caf579b2988d8daf71b1fa2e2cb77dd78b80de7ca3d5170a38c62cbe0ebaf",
    "wimax_1632_816": "66f50d7afeb023b09d7e4b059709797440c25401370d115ee13ff7e33d3e683c",
    "wimax_1632_272": "d237963d1bc270ace7ea2767df3645551bc8c7f73422d073998847153b84c229",
    "wimax_1728_864": "e3f0e5888cb52b3ab0dc7ca4310dee2cd4725fb44eae3752dfc6c544a4d76827",
    "wimax_1728_288": "5e5364b79386103495ed5a6d7d71704204dc65240f141aadd88428f527d3f777",
    "wimax_1824_912": "40b9f10531b67004c213f01239a2accf4de4504d624388d9f199fe54030bf816",
    "wimax_1824_304": "5e740c0280bde890dfbdf747508cc78b8b791c3d0b82b2419a7def3d25a09f07",
    "wimax_1920_960": "9e1dca84bb960fd3426eea2239393dbb5d79d0a02e9f1ff6e24de937cf832a42",
    "wimax_1920_320": "37129c71b6e3943a65d888e1ec004d307de958eab7479002bb6be4058bb18b0f",
    "wimax_2016_1008": "5d2da5f9eb2fe61270cd1087a168a5b6098d135636c80ee63414ac1b9e4a0484",
    "wimax_2016_336": "97bc2076592d87bd6572205e7621e1ba60460ea9dcb6b15a1a99a74da31f98ab",
    "wimax_2112_1056": "5a30c2c4f6039981aa4e6430d13c672ff06581bfb427d1150ec31c5974b25b12",
    "wimax_2112_352": "af4cd3da2bfca34facd3d8b2286c213906fd358e3d6c9afa0ca805c5b5a46a89",
    "wimax_2208_1104": "89d1133fb8bb6f0afc777414be523c19326a14e99f4aa27925277ca9790c8e0c",
    "wimax_2208_368": "7333ec4189c7ab32a70390a6f03798e2f5a22c654e1cfadf89dc176089cd7e2b",
    "wimax_2304_1152": "ea6cc9aa316d6b46bd54a4fa70e67903dda11d93ad7dc15cbabdea6d1cfba396",
    "wimax_2304_384": "8036393b7785c4f5663ee8a6ddb54bdb84866b26c70b0cf485d94d75d6266f8b",
    "wifi_1944_486": "fbddfb516a1d6567843330c67b0fc7dee415911a9e57608b483ab9262d0164d1",
    "random_1057_244": "f065b856051bd576dcfb928a67c34aa39911be6a5849d7712da042120184a974",
}


@pytest.mark.parametrize("name", available_codes())
def test_bundled_codes_match_references(name):
    h = load_code(name)
    assert h.content_digest() == BUNDLED_DIGESTS[name]
    if name.startswith("random"):
        assert_same_arrays(h.layers, reference_compute_layers(h))
    else:
        rows, layers = reference_expand_qc(qc_description(name))
        assert_same_arrays(h.rows, rows)
        assert_same_arrays(h.layers, layers)
    assert_matches_references(h)
    if name in ("wimax_2304_1152", "wimax_576_288"):
        # every layer's rows are equally wide, so no slot is padded
        assert all(lm.pad is None for lm in CodeLayout.build(h).layer_maps)


@st.composite
def mixed_degree_cases(draw):
    """Random codes whose rows take a few degrees, with groups of up to 300
    rows (so a degree spans several check chunks) and up to 600 columns
    (several column chunks)."""
    rng = np.random.default_rng(draw(SEEDS))
    n = draw(st.integers(2, 600))
    degrees = draw(st.lists(st.integers(1, min(n, 40)), min_size=1, max_size=4, unique=True))
    counts = [draw(st.integers(1, 300)) for _ in degrees]
    rows = [np.sort(rng.choice(n, size=d, replace=False)).astype(np.int32)
            for d, count in zip(degrees, counts) for _ in range(count)]
    order = rng.permutation(len(rows))  # the degrees interleave by row
    h = ParityCheckMatrix(n, len(rows), [rows[i] for i in order])
    compute_layers(h)
    return h


@settings(max_examples=25, deadline=None, suppress_health_check=SLOW_DRAWS)
@given(mixed_degree_cases())
def test_spa_plan_matches_row_loop(h):
    layout = CodeLayout.build(h)
    assert_spa_plan_matches_reference(h, layout.spa_plan)
    llrs = np.random.default_rng(h.n_rows).normal(2.0, 3.0, size=(3, h.n_cols))
    params = DecodeParams(it_max=4)
    for row, res in zip(llrs, decode_flooding_spa_batch(h, llrs, params, layout)):
        gold = decode_flooding_spa(h, row, params, layout)
        assert np.array_equal(res.hard_bits, gold.hard_bits)
        assert (res.iterations_run, res.converged) == (gold.iterations_run, gold.converged)
        assert np.array_equal(res.final_llrs.view(np.uint8), gold.final_llrs.view(np.uint8))


@st.composite
def qc_cases(draw):
    rows, cols, z = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entries = draw(st.lists(st.integers(-1, z - 1), min_size=rows * cols, max_size=rows * cols))
    return QcDescription(rows, cols, z, np.array(entries, dtype=np.int32).reshape(rows, cols))


@settings(max_examples=200, deadline=None)
@given(qc_cases())
def test_expand_qc_matches_row_loop(desc):
    rows, layers = reference_expand_qc(desc)
    want = validate_error(reference_validate, ParityCheckMatrix(
        desc.base_cols * desc.z, desc.base_rows * desc.z, rows, layers))
    try:
        h = expand_qc(desc)
    except CodeError as exc:  # a base row of null blocks only
        assert str(exc) == want
        return
    assert want is None
    assert_same_arrays(h.rows, rows)
    assert_same_arrays(h.layers, layers)
    assert_matches_references(h)


@st.composite
def matrix_cases(draw):
    """Small matrices, often malformed: rows of any order and range, and
    either no layers, first-fit layers, or layers drawn over valid rows."""
    n_cols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-1, n_cols), max_size=5), min_size=1, max_size=8))
    shape = draw(st.sampled_from(["raw", "sorted", "valid"]))
    if shape == "sorted":
        rows = [sorted(set(r)) for r in rows]
    elif shape == "valid":
        rows = [sorted({v % n_cols for v in r} or {0}) for r in rows]
    h = ParityCheckMatrix(n_cols, len(rows), [np.array(r, dtype=np.int32) for r in rows])
    kind = draw(st.sampled_from(["none", "first-fit", "drawn"]))
    if kind == "first-fit" and all(0 <= v < n_cols for r in rows for v in r):
        h.layers = reference_compute_layers(h)
    elif kind == "drawn":
        entries = st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))
        h.layers = [np.array(l, dtype=np.int32) for l in draw(st.lists(entries, max_size=4))]
    return h


@settings(max_examples=400, deadline=None)
@given(matrix_cases())
def test_validate_and_digest_match_loops(h):
    want = validate_error(reference_validate, h)
    assert validate_error(ParityCheckMatrix.validate, h) == want
    assert h.content_digest() == reference_content_digest(h)
    if want is None:
        if h.layers is None:
            compute_layers(h)
        assert_matches_references(h)


def malformed(rows, n_cols=4, layers=None):
    h = ParityCheckMatrix(n_cols, len(rows), [np.array(r, dtype=np.int32) for r in rows])
    if layers is not None:
        h.layers = [np.array(l, dtype=np.int32) for l in layers]
    return h


@pytest.mark.parametrize("h", [
    malformed([[0, 1], []]),
    malformed([[0, 1], [-1, 2]]),
    malformed([[0, 1], [1, 4]]),
    malformed([[0, 1], [2, 1]]),
    malformed([[0, 1], [1, 1]]),
    malformed([[0, 1], [2, 3], [1]], layers=[[0, 1], [1, 2]]),
    malformed([[0, 1], [2, 3], [1]], layers=[[0, 1, 0], [2]]),
    malformed([[0, 1], [1, 2]], layers=[[0, 1]]),
    malformed([[0, 1], [2, 3], [1]], layers=[[0, 1]]),
    malformed([[0, 1], [2, 3], [1]], layers=[[0], [], [1]]),
    # precedence: the first faulty row, then within a row empty, range, order
    malformed([[1, 0], [], [5]]),
    malformed([[0, 1], [], [2, 1]]),
    malformed([[-1, 3, 2]]),
    malformed([[0, 5, 2]]),
    # precedence among layer entries: the first faulty entry in layer order
    malformed([[0, 1], [1, 2], [3]], layers=[[0, 1], [2, 2]]),
    malformed([[0, 1], [1, 2], [3]], layers=[[2, 0], [0, 1]]),
    malformed([[0, 1], [1, 2], [3]], layers=[[0, 2, 1, 2]]),
], ids=[
    "empty-row", "first-index-range", "last-index-range", "unsorted-row", "duplicate-in-row",
    "row-in-two-layers", "row-twice-in-a-layer", "layer-shares-variable", "rows-uncovered",
    "empty-layer-uncovered", "first-row-wins", "empty-before-unsorted", "range-before-order",
    "middle-index-only-unsorted",
    "shared-before-repeat", "repeat-across-layers", "shared-before-later-repeat",
])
def test_malformed_matrix_errors_match_reference(h):
    want = validate_error(reference_validate, h)
    assert want is not None
    with pytest.raises(CodeError) as exc:
        h.validate()
    assert str(exc.value) == want


@pytest.mark.parametrize("entry", [3, -1])
def test_layer_entry_out_of_range_is_a_code_error(entry):
    # the row scan failed on these with IndexError, or read -1 as the last row
    h = malformed([[0, 1], [2, 3], [1]], layers=[[0, 1], [entry, 2]])
    with pytest.raises(CodeError, match=f"layer 1 lists row {entry}, outside 0..2"):
        h.validate()


def reference_check_graph(h):
    """The per-column loop that build_check_graph replaced.

    Returns the message-carrying pairs as {(u, v): weight} and the sharing
    pairs as a set, each pair with u < v.
    """
    layer = np.empty(h.n_rows, dtype=np.int64)
    for li, rows in enumerate(h.layers):
        layer[rows] = li
    rank = layer * h.n_rows + np.arange(h.n_rows)
    edges: dict[tuple[int, int], int] = {}
    shared: set[tuple[int, int]] = set()
    for rows in reference.cols(h):
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
    """A code of the given rows with the given layers, first-fit ones by default."""
    h = ParityCheckMatrix(n_cols, len(rows), [np.array(sorted(r), dtype=np.int32) for r in rows])
    if layers is None:
        compute_layers(h)
    else:
        h.layers = layers
    return h


@st.composite
def syndrome_cases(draw):
    """Small codes with rows of degree 1 up to 12, so shorter rows pad
    check_idx and N_d may be 1, and bits as bool, 0/1 uint8 or any uint8
    value, whose low bits are all zero, random, or set only on columns that
    no row checks (so some verdicts hold)."""
    n = draw(st.integers(1, 40))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=12)
    h = small_code(draw(st.lists(support, min_size=1, max_size=12)), n)
    rng = np.random.default_rng(draw(SEEDS))
    low = rng.integers(0, 2, size=n).astype(np.uint8)
    kind = draw(st.sampled_from(["zero", "random", "unchecked"]))
    if kind == "zero":
        low[:] = 0
    elif kind == "unchecked":
        low[np.concatenate(h.rows)] = 0
    form = draw(st.sampled_from(["bool", "0/1 uint8", "any uint8"]))
    if form == "bool":
        return h, low.astype(bool)
    if form == "0/1 uint8":
        return h, low
    return h, low | (rng.integers(0, 128, size=n).astype(np.uint8) << 1)


# degree-1 rows only (N_d == 1, so every row has a padded slot), and rows
# of degree 3 and 1 read through values whose high bits are set
@example((small_code([[0], [1]], 2), np.array([2, 3], dtype=np.uint8)))
@example((small_code([[0], [1]], 2), np.array([True, False])))
@example((small_code([[0, 1, 2], [3]], 4), np.array([255, 1, 4, 254], dtype=np.uint8)))
@settings(max_examples=300, deadline=None)
@given(syndrome_cases())
def test_syndrome_matches_row_sum_and_dense_oracle(case):
    h, bits = case
    layout = CodeLayout.build(h)
    dense = np.zeros((h.n_rows, h.n_cols), dtype=np.int64)
    for m, row in enumerate(h.rows):
        dense[m, row] = 1
    want = not ((dense @ (bits & 1)) % 2).any()
    assert reference.syndrome_ok(layout, bits) == want
    assert layout.syndrome_ok(bits) is want
    assert syndrome_check(h, bits, layout) is want


@st.composite
def check_graph_cases(draw):
    """Small codes with first-fit layers, or with those layers in a shuffled
    order, so the serving order differs from row order."""
    n_cols = draw(st.integers(1, 12))
    support = st.sets(st.integers(0, n_cols - 1), min_size=1)
    h = small_code(draw(st.lists(support, min_size=1, max_size=12)), n_cols)
    if draw(st.booleans()):
        h.layers = draw(st.permutations(h.layers))
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
        st.floats(),  # includes NaN, +-0.0, +-inf and huge values
        st.integers(-(1 << 25), 1 << 25).map(lambda k: (k + 0.5) * lsb),  # exact ties
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300,
                         0.5 * lsb, -0.5 * lsb]),
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
        if np.isnan(x).any():
            with pytest.raises(ValueError, match="NaN"):
                quantize(x, fmt)
            return
        got, want = quantize(x, fmt), reference_quantize(x, fmt)
    assert type(got) is type(want) and got.dtype == np.int32
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


# int16 stores (up to 14 bits) and int32 stores, each at two widths
GOLDEN_FORMATS = (QFormat(6, 0), QFormat(8, 1), QFormat(16, 4), QFormat(24, 2))


@st.composite
def decode_cases(draw):
    """Random codes, 1-40 frames (so the syndrome spans several 8-frame
    words and converged frames get compacted out), every format and both
    stop rules."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, 20))
    row_degree = draw(st.integers(1, n))
    assume(m * row_degree >= n)
    h = random_code(n, m, row_degree, seed=draw(SEEDS))
    n_frames = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(SEEDS))
    # a mean per frame, so the frames converge at different iterations
    mean = rng.uniform(0.0, draw(st.floats(0.0, 8.0)), size=(n_frames, 1))
    llrs = rng.normal(mean, draw(st.floats(0.5, 6.0)), size=(n_frames, n))
    params = DecodeParams(it_max=draw(st.integers(1, 8)), fmt=draw(st.sampled_from(GOLDEN_FORMATS)),
                          early_stop=draw(st.booleans()))
    return h, llrs, params


def spread_frames(seed, n_frames, n):
    rng = np.random.default_rng(seed)
    return rng.normal(rng.uniform(0.0, 6.0, size=(n_frames, 1)), 2.0, size=(n_frames, n))


# 33 frames converging at 1 to 5 iterations or not at all: the sweep
# compacts twice, over an int16 and over an int32 store
@example((random_code(48, 24, 6, seed=1), spread_frames(4, 33, 48),
          DecodeParams(it_max=8, fmt=QFormat(8, 1))))
@example((random_code(48, 24, 6, seed=1), spread_frames(4, 33, 48),
          DecodeParams(it_max=8, fmt=QFormat(16, 4))))
# 33 frames on wimax_576_288: the flooding sweep compacts three times, over
# 3 check chunks in two degree groups and 3 column chunks
@example((load_code("wimax_576_288"), spread_frames(4, 33, 576), DecodeParams(it_max=8)))
@settings(max_examples=20, deadline=None, suppress_health_check=SLOW_DRAWS)
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
def golden_cases(draw):
    """Small codes with rows of degree 1 up to 16 (so layers mix degrees and
    reach W >= 8), LLRs on a few exact codes (tied minima), spread or
    saturating, and every format, alpha, stop rule and it_max 1-8."""
    n = draw(st.integers(2, 40))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=16)
    h = small_code(draw(st.lists(support, min_size=1, max_size=12)), n)
    fmt = draw(st.sampled_from(GOLDEN_FORMATS))
    rng = np.random.default_rng(draw(SEEDS))
    kind = draw(st.sampled_from(["ties", "spread", "saturating"]))
    if kind == "ties":
        llrs = rng.integers(-3, 4, size=n) * 2.0 ** -fmt.frac_bits
    else:
        llrs = rng.normal(1.0, 3.0, size=n) * (1e4 if kind == "saturating" else 1.0)
    params = DecodeParams(alpha=draw(st.sampled_from([1.0, 1.15])), it_max=draw(st.integers(1, 8)),
                          fmt=fmt, early_stop=draw(st.booleans()))
    return h, llrs, params


# a degree-1 row beside wider ones, one layer of degrees 13, 9 and 1 with
# tied codes, and a code of degree-1 rows only (N_d == 1)
@example((small_code([[0], [1, 2, 3]], 4), np.array([1.0, -2.0, 0.5, 0.5]),
          DecodeParams(alpha=1.0, it_max=3, fmt=QFormat(6, 0))))
@example((small_code([list(range(13)), list(range(13, 22)), [22]], 23),
          np.tile([1.0, -1.0, 2.0, 1.0], 6)[:23], DecodeParams(alpha=1.15, it_max=4)))
@example((small_code([[0], [1]], 2), np.array([-3.0, 2.0]),
          DecodeParams(alpha=1.0, it_max=2, early_stop=False)))
@settings(max_examples=200, deadline=None)
@given(golden_cases())
def test_golden_matches_reference_decoder(case):
    h, llrs, params = case
    layout = CodeLayout.build(h)  # first-fit layers
    got = decode_layered_nms(h, llrs, params, layout)
    want = reference.decode_layered_nms(h, llrs, params, layout)
    assert np.array_equal(got.hard_bits, want.hard_bits)
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged
    assert np.array_equal(got.final_llrs, want.final_llrs)
    assert got.final_llrs.dtype == want.final_llrs.dtype == np.int32


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


def loaded(load, text):
    """What load makes of text: the artifact's fields, text and digest, or
    the type and message of the error it raises."""
    try:
        art = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    digest = art.content_digest() if isinstance(art, NocTrace) else art.compute_digest()
    return [_plain(getattr(art, f.name)) for f in dataclasses.fields(art)], art.to_json(), digest


def _plain(value):
    if hasattr(value, "table"):  # a FlitTable
        value = value.table
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.flags.writeable, value.tolist()
    if isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
        return [_plain(v) for v in value]
    return value


def json_loads_path(cls, text):
    """cls.from_json(text) with the canonical reader switched off."""
    with mock.patch.object(sys.modules[cls.__module__], "canonical", return_value=None):
        return cls.from_json(text)


def edit(text, kind, at, char, value):
    """text with one edit at the at-th character (or int, for kind "value")."""
    if kind == "value":
        ints = list(re.finditer(r"-?[0-9]+", text))
        a, b = ints[at % len(ints)].span()
        return text[:a] + value + text[b:]
    i = at % len(text)
    return text[:i] + {"change": char, "drop": "", "double": text[i] + text[i],
                       "space": " " + text[i]}[kind] + text[i + 1:]


EDITS = st.tuples(st.sampled_from(["change", "drop", "double", "value", "space"]),
                  st.integers(0, 10**6), st.sampled_from('0189-,[]{}": ex'),
                  st.sampled_from(["true", "1.0", "-0", "007", str(2**63)]))


@settings(max_examples=30, deadline=None, suppress_health_check=SLOW_DRAWS)
@given(codegen_cases(), st.lists(EDITS, min_size=1, max_size=6))
def test_canonical_texts_load_without_json_loads(case, edits):
    h, side, depth, seed = case
    mapping = partition_kway(build_check_graph(h), side * side, seed)
    serving_order(h, mapping)
    trace = simulate_iteration(Topology(side), build_schedule(h, mapping), seed=seed,
                               pipeline_depth=depth, label=h.label)
    image = gen_config(trace, mapping, h)
    loads = json.loads

    for cls, text in ((NocTrace, trace.to_json()), (ConfigImage, image.to_json())):
        def whole_text_refused(s, *args, **kwargs):
            assert s != text, "a canonical text went to json.loads"
            return loads(s, *args, **kwargs)

        # a canonical text is read without json.loads, into what the
        # json.loads path reads
        with mock.patch("json.loads", whole_text_refused):
            fast = loaded(cls.from_json, text)
        assert fast[1] == text
        assert fast == loaded(lambda t: json_loads_path(cls, t), text)
        if cls is NocTrace:
            assert fast == loaded(lambda t: NocTrace.from_json_obj(json.loads(t)), text)

        # an edited text loads as the json.loads path loads it, or fails
        # with the same error
        for kind, at, char, value in edits:
            bad = edit(text, kind, at, char, value)
            assert loaded(cls.from_json, bad) == loaded(lambda t: json_loads_path(cls, t), bad)


@st.composite
def timing_cases(draw):
    side = draw(st.integers(1, 4))
    p = side * side
    m = draw(st.integers(1, 32))
    n = draw(st.integers(2, 40))
    row_degree = draw(st.integers(1, min(n, 8)))
    assume(m * row_degree >= n)
    h = random_code(n, m, row_degree, seed=draw(SEEDS))
    seed = draw(SEEDS)
    if m >= p and draw(st.booleans()):
        mapping = partition_kway(build_check_graph(h), p, seed)
    else:  # unbalanced and crowded PEs make more contention
        pes = draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
        mapping = Mapping(p=p, assignment=np.array(pes, dtype=np.int32))
    serving_order(h, mapping)
    return h, mapping, side, draw(st.integers(0, 6)), seed


@settings(max_examples=40, deadline=None, suppress_health_check=SLOW_DRAWS)
@given(timing_cases())
def test_cycles_match_reference_model(case):
    h, mapping, side, depth, seed = case
    topo = Topology(side)
    trace = simulate_iteration(topo, build_schedule(h, mapping), seed=seed, pipeline_depth=depth)
    want = reference.simulate_cycles(topo, build_schedule(h, mapping), seed, depth)
    assert trace.k_i == want["k_i"]
    assert [f.inject_cycle for f in trace.flits] == want["inject_cycle"]
    assert [f.receipt_cycle for f in trace.flits] == want["receipt_cycle"]
    assert [f.hops for f in trace.flits] == want["hops"]
    assert trace.check_start.tolist() == want["check_start"]
    assert trace.check_complete.tolist() == want["check_complete"]
    assert trace.fifo_max.tolist() == want["fifo_max"]
    assert [ops.tolist() for ops in trace.rm_ops] == want["rm_ops"]
    assert [pe.tolist() for pe in trace.arrivals] == want["arrivals"]


INT64 = st.integers(-2**63, 2**63 - 1)
SMALL = st.integers(-12, 1200)


@st.composite
def int_tables(draw):
    width = draw(st.integers(0, 6))
    values = st.one_of(SMALL, INT64)
    rows = draw(st.lists(st.lists(values, min_size=width, max_size=width), max_size=12))
    table = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    counts = np.diff([0, *cuts, len(rows)]).tolist()
    return table, counts


@settings(max_examples=300, deadline=None)
@given(int_tables(), st.integers(1, 40))
def test_table_texts_match_json_dumps(case, block):
    # the whole-array writers, in blocks of any size, against json.dumps
    # with the compact separators on the same rows as lists
    import json

    import nocldpc.jsonfields as jf

    table, counts = case
    separators = (",", ":")
    rows = table.tolist()
    bounds = np.cumsum([0, *counts])
    groups = [table[a:b] for a, b in zip(bounds, bounds[1:])]
    saved = jf._BLOCK
    jf._BLOCK = block
    try:
        assert jf.table_json(table) == json.dumps(rows, separators=separators)
        if len(rows):
            assert jf.table_json(table[0]) == json.dumps(rows[0], separators=separators)
        want = json.dumps([g.tolist() for g in groups], separators=separators)
        assert jf.grouped_json(groups) == want
    finally:
        jf._BLOCK = saved


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**4), INT64), max_size=40,
                unique_by=lambda row: row[:2]))
def test_slot_map_text_matches_json_dumps(rows):
    # keys in the order sort_keys gives "check:position" strings, so 10:0
    # before 1:0 and 1:10 after 1:1
    import json

    from nocldpc.configgen.image import _read_slot_map, slot_map_json

    slots = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    obj = {f"{c}:{p}": s for c, p, s in rows}
    text = slot_map_json(slots)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert _read_slot_map(json.loads(text)).tolist() == sorted(map(list, rows))
