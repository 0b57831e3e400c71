#!/usr/bin/env python3
"""Benchmark of the nocldpc toolchain, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: the program is imported from that
checkout's ``src/`` and from nowhere else.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give each metric with its unit, quartiles and sample count,
the machine note, and every failed check.

--trace 0 reports the end-to-end metrics (E2E below), measured with tracing
off (codegen-pipeline times its stages, a dozen clock reads per case).
--trace 1 reports the per-layer metrics (PER_LAYER below).  They come from
spans that this script puts around each of its calls into a public function
of a layer, named ``<layer>.<function>``.  The layers are the
program's modules: codes, mapper, nocsim (schedule, simulate, trace, replay),
configgen (image, upload), decoder (nms, spa, layout, with fixedpoint) and
channel.  The cli only wraps these, so it is not measured.  Spans named
``bench.*`` are this script's own work.  A traced run times each operation
twice: once untraced and once traced.  The difference is the tracing
overhead.  Set-up is timed by the clock, not by spans.

Workloads.  All are batch jobs with one caller in a closed loop, and none uses
more than two threads:

  ber-converging    run_ber on wimax_2304_1152 with layered NMS, QFormat(8,1),
                    alpha 1.15, it_max 10, 2.2 dB, threads=1, one 32-frame block
                    per call and no error-count stop.  This is the c07/c08
                    operating point.  Decoder and channel do nearly all the
                    work.  Early stop makes iteration counts vary, so frame
                    batching with per-frame stop masks shows here.
  ber-waterfall-2t  the same code at 1.5 dB with threads=2.  Each block's frames
                    are decoded once with layered NMS and once with flooding SPA.
                    Most frames run close to it_max, so a gain from early exits
                    alone shows as no change here.  This workload runs the
                    per-block thread pool and the float flooding kernel.
  codegen-pipeline  the four c06 cases, each taken from check graph to
                    validated image and replay spot check, then plan_upload and
                    simulate_upload for each switch between consecutive cases.
                    This is the hardware designer's path (mapper, nocsim,
                    configgen), where one cycle engine and cuts to k_i show.

Inputs come from --seed.  A BER run has a fixed set of blocks; block k
decodes run_ber's frames of seed op_seed(seed, k).  In codegen-pipeline, the
seed drives the k-way partition, the cycle simulation and the random-baseline
seeds.  The spot-check frames there are c06's fixed frames (DEFAULT_SEED,
0..SPOT_FRAMES-1), so the decoding work in a pass is the same at every seed.

Timing is best-of-k.  A run repeats its operations (the blocks round-robin,
or passes over the cases) until --seconds have passed.  Each time is the sum
over operations of the fastest repeat of each (of each stage, in codegen).
On a shared 2-core machine, other tenants slow the work by 20-60% in bursts
and in spells of minutes.  The fastest repeat sheds the bursts but not the
spells, which is why the time bounds are the widest allowed.  The median,
quartiles and count over all repeats are printed beside each time.

Checks.  Every output is checked before a number is reported, and any failed
check sets correct to false.
- BER: each block's counts must be consistent, and every repeat of a block
  must give the same counts.  Every block is decoded again frame by frame,
  with awgn_llrs, the threads=1 golden decoder and syndrome_check, and must
  reproduce run_ber's counts exactly.  At DEFAULT_SEED the counts summed over
  the blocks must equal PIN_BER.
- codegen: the c01 message counts must hold.  The k-way cut must be below the
  random mean and must equal the network message count.  k_i must be at
  least its read, link and distance bounds.  The trace and image JSON round
  trips must keep their digests.  validate_config must accept the image.
  Replay must equal golden on bits, iterations, converged and final LLRs, and
  every code switch must plan and simulate cleanly.  At DEFAULT_SEED, k_i
  and both digests must equal PIN_CASES.
Each block, case and switch is one operation, counted in attempted and
failed.

The E2E and PER_LAYER tables give, for each metric, the end-to-end metric
and the workload it should move.  Every run reports every metric of its
table.  A per-layer metric that a workload does not exercise reads 0 there.
The modelled decoder's k_i is exact and pinned, so it is reported per code as
the per-layer count nocsim.k_i.<code>, with its bounds and gap, rather than as
an end-to-end metric that every workload would have to produce.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"  # spans of traced runs
if not (SRC / "nocldpc" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no program source at {SRC / 'nocldpc'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import nocldpc  # noqa: E402
from nocldpc.channel import StopRule, awgn_llrs, run_ber  # noqa: E402
from nocldpc.codes import build_check_graph, load_code  # noqa: E402
from nocldpc.configgen import (  # noqa: E402
    ConfigImage,
    gen_config,
    min_buffer_size,
    plan_upload,
    simulate_upload,
)
from nocldpc.decoder import (  # noqa: E402
    CodeLayout,
    DecodeParams,
    decode_flooding_spa,
    decode_layered_nms,
    syndrome_check,
)
from nocldpc.fixedpoint import QFormat  # noqa: E402
from nocldpc.mapper import cutset, partition_kway, partition_random, serving_order  # noqa: E402
from nocldpc.nocsim import (  # noqa: E402
    NocTrace,
    Topology,
    build_schedule,
    replay_decode,
    simulate_iteration,
    validate_config,
)

DEFAULT_SEED = 20250808  # the acceptance suite's seed
PARAMS = DecodeParams(alpha=1.15, it_max=10, fmt=QFormat(8, 1))
BLOCK = 32  # frames per run_ber call: one scheduling block of the harness
SETUP_EVERY_S = 2.0  # set-up is repeated at this interval and its best time reported
RANDOM_SEEDS = 20  # random partitions in the baseline of each case
SPOT_FRAMES = 4  # replay-vs-golden frames per case


@dataclass(frozen=True)
class BerSpec:
    code: str
    snr_db: float
    threads: int
    algorithms: tuple[str, ...]
    blocks: int  # distinct blocks of a run, repeated round-robin


BER_WORKLOADS = {
    "ber-converging": BerSpec("wimax_2304_1152", 2.2, 1, ("layered-nms",), 8),
    "ber-waterfall-2t": BerSpec("wimax_2304_1152", 1.5, 2, ("layered-nms", "flooding-spa"), 4),
}
# (code, torus side, spot-check SNR in dB): acceptance criterion c06
CASES = (
    ("wimax_2304_1152", 5, 2.0),
    ("wimax_576_288", 5, 2.0),
    ("wifi_1944_486", 4, 2.6),
    ("random_1057_244", 5, 2.6),
)
WORKLOADS = (*BER_WORKLOADS, "codegen-pipeline")
SPOT_SPANS = ("channel.awgn_llrs", "decoder.decode_layered_nms", "decoder.syndrome_check",
              "nocsim.replay_decode")
DECODERS = {
    "layered-nms": (decode_layered_nms, "decoder.decode_layered_nms"),
    "flooding-spa": (decode_flooding_spa, "decoder.decode_flooding_spa"),
}

# Outputs of the program as it stands.  CODE_MESSAGES holds at every seed
# (c01).  The other pins hold at DEFAULT_SEED; a change that alters them on
# purpose pins the new values in a change of its own.
CODE_MESSAGES = {
    "wimax_2304_1152": 7296,
    "wimax_576_288": 1824,
    "wifi_1944_486": 6885,
    "random_1057_244": 3172,
}
# workload -> algorithm -> (frames, bit errors, frame errors, iterations)
# over the run's blocks
PIN_BER = {
    "ber-converging": {"layered-nms": (256, 0, 0, 1305)},
    "ber-waterfall-2t": {"layered-nms": (128, 2555, 39, 1123), "flooding-spa": (128, 4196, 115, 1274)},
}
# code -> (k_i, trace content digest, config image digest)
PIN_CASES = {
    "wimax_2304_1152": (
        483,
        "ced9888b968590b66dfe6e351848c6e4f74987a2811dc7dadebe9a51ebc68d86",
        "593042c7d2aba274926b5edbdb3e611d895434dafc4e4c620b59d12d60af92df",
    ),
    "wimax_576_288": (
        305,
        "815de7a5bc3989bf301dd1ed175c7cc54dc9d33276565822ccf033dea7dfe801",
        "0a2f91274000f008bd56333f0e3edc83fbad9f2ea4c0d6a2f10940cdbf694d7d",
    ),
    "wifi_1944_486": (
        825,
        "f4cf7e6175fa68ed8aedc39e3ae038c140996a068fadcbd137a3772a0b7219e0",
        "63361d82f3b3cac3decd78ccab6daed090d38ac74a16dc1d8542bf21b4340132",
    ),
    "random_1057_244": (
        481,
        "4686bb49ec521f6e72ce5f03824ed72dbb8608347a69c2d2c2ca741aa657a654",
        "43826f9a4ac7ea285ba86b307bf833885a833c0b7bae4733f88a9602adf3406d",
    ),
}

# name, unit, better, bound (share of the parent's median), what it measures
E2E = (
    ("frames_per_s", "1/s", "higher", 0.25,
     "frames decoded per host second: run_ber blocks (ber-*), or the golden and "
     "replay decodes of the spot check (codegen)"),
    ("pipeline_s", "s", "lower", 0.25,
     "host seconds for the workload's unit of work: one run_ber block per algorithm "
     "(ber-*), or all four cases from check graph to validated image with the "
     "replay spot check, plus the switches (codegen)"),
    ("setup_s", "s", "lower", 0.25,
     "load_code + CodeLayout.build (+ build_check_graph in codegen) before timed work"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the process"),
)

_CODES = tuple(c for c, _, _ in CASES)


def _per_code(prefix, unit, better, moves):
    return tuple((f"{prefix}.{code}", unit, better, moves) for code in _CODES)


# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("codes.load_s", "s", "lower", "setup_s, all workloads"),
    ("codes.check_graph_s", "s", "lower", "pipeline_s, codegen"),
    *_per_code("codes.messages", "count", "lower", "exact c01 anchor, codegen"),
    ("codes.self_s", "s", "lower", "pipeline_s, codegen"),
    ("decoder.layout_s", "s", "lower", "setup_s, ber-*"),
    ("decoder.nms_ms_per_frame", "ms", "lower", "frames_per_s, ber-converging most, ber-waterfall-2t"),
    ("decoder.nms_us_per_iteration", "us", "lower", "frames_per_s, ber-converging most, ber-waterfall-2t"),
    ("decoder.syndrome_us_per_call", "us", "lower", "frames_per_s, ber-converging most, ber-waterfall-2t"),
    ("decoder.spa_ms_per_frame", "ms", "lower", "frames_per_s, ber-waterfall-2t"),
    ("decoder.iterations_total", "count", "lower", "exact anchor, all workloads"),
    ("decoder.early_stop_ratio", "ratio", "lower",
     "explains frames_per_s between ber-converging and ber-waterfall-2t"),
    ("decoder.self_s", "s", "lower", "frames_per_s, ber-*"),
    ("channel.noise_ms_per_frame", "ms", "lower", "frames_per_s, ber-*"),
    ("channel.dispatch_overhead_s", "s", "lower", "frames_per_s, ber-waterfall-2t"),
    ("channel.frames", "count", "higher", "exact anchor, all workloads"),
    ("channel.bit_errors", "count", "lower", "exact anchor, all workloads"),
    ("channel.frame_errors", "count", "lower", "exact anchor, all workloads"),
    ("channel.self_s", "s", "lower", "frames_per_s, ber-*"),
    ("mapper.partition_kway_s", "s", "lower", "pipeline_s, codegen"),
    ("mapper.random_baseline_s", "s", "lower", "pipeline_s, codegen"),
    *_per_code("mapper.cut_messages", "count", "lower", "nocsim.k_i, codegen"),
    *_per_code("mapper.cut_vs_random", "ratio", "lower", "nocsim.k_i, codegen"),
    ("mapper.self_s", "s", "lower", "pipeline_s, codegen"),
    ("nocsim.schedule_s", "s", "lower", "pipeline_s, codegen"),
    ("nocsim.simulate_s", "s", "lower", "pipeline_s, codegen"),
    ("nocsim.simulate_us_per_flit_hop", "us", "lower", "pipeline_s, codegen"),
    ("nocsim.trace_json_s", "s", "lower", "pipeline_s, codegen"),
    ("nocsim.validate_s", "s", "lower", "pipeline_s, codegen"),
    ("nocsim.replay_ms_per_frame", "ms", "lower", "pipeline_s and frames_per_s, codegen"),
    *_per_code("nocsim.k_i", "cycles", "lower", "modelled throughput N*f/(k_i*it), codegen"),
    *_per_code("nocsim.network_messages", "count", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.flit_hops", "count", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.k_i_bound_read", "cycles", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.k_i_bound_link", "cycles", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.k_i_bound_distance", "cycles", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.k_i_gap", "cycles", "lower", "nocsim.k_i, codegen"),
    *_per_code("nocsim.fifo_max", "flits", "lower", "hardware queue depth behind nocsim.k_i, codegen"),
    ("nocsim.replay_mismatches", "count", "lower", "must be 0, codegen"),
    ("nocsim.self_s", "s", "lower", "pipeline_s, codegen"),
    ("configgen.gen_config_s", "s", "lower", "pipeline_s, codegen"),
    ("configgen.upload_s", "s", "lower", "pipeline_s, codegen"),
    *_per_code("configgen.rm_words_nonzero", "count", "lower", "exact anchor, codegen"),
    ("configgen.min_buffer_words", "count", "lower", "exact anchor, codegen"),
    ("configgen.self_s", "s", "lower", "pipeline_s, codegen"),
    ("bench.self_s", "s", "lower", "the benchmark's own time per operation"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced time per unit of work"),
    ("trace.overhead_share", "ratio", "lower", "trace.overhead_s over the untraced time"),
)
LAYERS = ("codes", "decoder", "channel", "mapper", "nocsim", "configgen", "bench")


# ---------------------------------------------------------------------------
# arithmetic


def quartiles(values) -> tuple[float, float, float, int]:
    """(median, q1, q3, n), quartiles as statistics.quantiles(n=4) gives them."""
    v = sorted(values)
    if len(v) < 2:
        return v[0], v[0], v[0], len(v)
    q1, _, q3 = statistics.quantiles(v, n=4)
    return statistics.median(v), q1, q3, len(v)


def failed_share(attempted: int, failed: int) -> float:
    """Share of attempted operations that failed; nothing attempted counts as all failed."""
    return failed / attempted if attempted else 1.0


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus what its children cover.

    spans are (name, parent index or -1, start, end); the layer is the part
    of the name before the first dot.
    """
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[i] if min(e, end) > max(s, start)]
        out[name.split(".", 1)[0]] += (end - start) - covered_length(inside)
    return dict(out)


def read_bound(h, order) -> int:
    """Busiest PE's read time: the sum of the row degrees of the checks it serves."""
    return max(sum(len(h.rows[m]) for m in pe) for pe in order)


def op_seed(seed: int, r: int) -> int:
    """run_ber seed of BER block r."""
    return int(np.random.SeedSequence((seed, r)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# tracing and best-of-k timing


class Tracer:
    """Spans kept in memory as [name, parent index, start, end], plus counters."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def add(self, counter: str, n: int):
        if self.enabled:
            self.counters[counter] += n

    def durations(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def absorb(self, other: "Tracer"):
        """Append another tracer's spans and counters to this one, if it records."""
        if not self.enabled:
            return
        base = len(self.spans)
        self.spans += [[n, p + base if p >= 0 else -1, s, e] for n, p, s, e in other.spans]
        for k, v in other.counters.items():
            self.counters[k] += v

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, tr._open[-1] if tr._open else -1, perf_counter(), 0.0])
        tr._open.append(self.index)

    def __exit__(self, *exc):
        self.tracer.spans[self.index][3] = perf_counter()
        self.tracer._open.pop()
        return False


UNTRACED = Tracer(False)


class Best:
    """Best-of-k times: per measure, the minimum over the repeats of each operation."""

    def __init__(self):
        self.best: dict[str, dict] = defaultdict(dict)  # measure -> op key -> seconds
        self.all: dict[str, list] = defaultdict(list)  # measure -> every sample
        self.repeats: dict = defaultdict(int)  # op key -> runs of "wall"
        self.calls: dict = {}  # op key -> span and counter counts of one traced run
        self.stages: set[str] = {"self:bench"}  # measures that add up to an operation

    def add(self, key, measure: str, seconds: float):
        cur = self.best[measure].get(key)
        self.best[measure][key] = seconds if cur is None else min(cur, seconds)
        self.all[measure].append(seconds)
        if measure == "wall":
            self.repeats[key] += 1

    def total(self, measure: str) -> float:
        """Sum over operations of their best time."""
        return sum(self.best[measure].values())

    def note(self) -> str:
        reps = sorted(self.repeats.values()) or [0]
        return f"best of {reps[0]}-{reps[-1]} repeats of each of {len(reps)} operations"


def record_trace(best: Best, key, op_tracer: Tracer, run_tracer: Tracer):
    """Fold one traced operation into the best-of-k measures and the run's spans."""
    calls = defaultdict(int, op_tracer.counters)
    for name, *_ in op_tracer.spans:
        calls[name] += 1
    best.calls[key] = calls
    best.stages.update(name for name, parent, *_ in op_tracer.spans if parent >= 0)
    for name, t in op_tracer.durations().items():
        best.add(key, name, t)
    for layer, t in self_times(op_tracer.spans).items():
        best.add(key, f"self:{layer}", t)
    run_tracer.absorb(op_tracer)


# ---------------------------------------------------------------------------
# reporting


class Report:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        table = PER_LAYER if trace else E2E
        self.units = {row[0]: row[1] for row in table}
        self.values = {name: 0.0 for name in self.units}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value, note: str = "exact"):
        if name in self.units:
            self.values[name] = float(value)
            self.notes[name] = note

    def op(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def emit(self):
        print(json.dumps({"machine": machine_note(self.seed), "workload": self.workload,
                          "trace": int(self.trace)}, sort_keys=True))
        for name, value in self.values.items():
            print(f"{name} = {value:.6g} {self.units[name]} ({self.notes.get(name, 'not exercised')})")
        print(f"operations: {self.attempted} attempted, {self.failed} failed "
              f"(share {failed_share(self.attempted, self.failed):.3g})")
        for p in self.problems[:20]:
            print(f"CHECK FAILED: {p}")
        correct = not self.problems and self.failed == 0 and self.attempted > 0
        metrics = {n: {"value": v, "unit": self.units[n]} for n, v in self.values.items()}
        print(json.dumps({"correct": correct, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))


def spread_note(samples, what: str) -> str:
    med, q1, q3, n = quartiles(samples)
    return f"per {what}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n {n}"


def machine_note(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10, check=True)
            commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """Set-up of a run's codes, repeated every SETUP_EVERY_S through the run.

    Repeats spread over the run escape the bursts a back-to-back series
    falls into whole; the best repeat is reported.
    """

    def __init__(self, codes, with_graph: bool):
        self.codes, self.with_graph = codes, with_graph
        self.best = Best()
        self.built = self.repeat()

    def repeat(self) -> dict:
        built = {}
        for name in self.codes:
            t0 = perf_counter()
            h = load_code(name)
            t1 = perf_counter()
            layout = CodeLayout.build(h)
            t2 = perf_counter()
            if self.with_graph:
                build_check_graph(h)
            t3 = perf_counter()
            self.best.add(name, "wall", t3 - t0)
            self.best.add(name, "load", t1 - t0)
            self.best.add(name, "layout", t2 - t1)
            built[name] = (h, layout)
        self.last = perf_counter()
        return built

    def between_ops(self):
        if perf_counter() - self.last >= SETUP_EVERY_S:
            self.repeat()

    def report(self, report: Report):
        note = f"sum over codes of the {self.best.note()}"
        walls = self.best.all["wall"]
        per_setup = [sum(walls[i:i + len(self.codes)]) for i in range(0, len(walls), len(self.codes))]
        report.put("setup_s", self.best.total("wall"), f"{note}; {spread_note(per_setup, 'set-up')}")
        report.put("codes.load_s", self.best.total("load"), note)
        report.put("decoder.layout_s", self.best.total("layout"), note)


# ---------------------------------------------------------------------------
# BER workloads


def ber_block(spec: BerSpec, h, layout, seed: int):
    """One run_ber block per algorithm: ({algorithm: wall seconds}, {algorithm: counts})."""
    times, counts = {}, {}
    for alg in spec.algorithms:
        t0 = perf_counter()
        pt = run_ber(h, PARAMS, [spec.snr_db], StopRule(min_bit_errors=10**9, max_frames=BLOCK),
                     seed=seed, algorithm=alg, threads=spec.threads, layout=layout)[0]
        times[alg] = perf_counter() - t0
        counts[alg] = (pt.frames, pt.bit_errors, pt.frame_errors, round(pt.avg_iterations * pt.frames))
    return times, counts


def block_problems(counts: dict) -> list[str]:
    out = []
    for alg, (frames, bits, ferr, its) in counts.items():
        if not (frames == BLOCK and 0 <= ferr <= min(frames, bits) and (bits == 0) == (ferr == 0)
                and frames <= its <= frames * PARAMS.it_max):
            out.append(f"{alg}: inconsistent block counts {counts[alg]}")
    return out


def golden_block(spec: BerSpec, h, layout, seed: int, tr: Tracer):
    """The same block frame by frame through the public calls, one thread."""
    rate = 1.0 - h.n_rows / h.n_cols
    counts, problems = {}, []
    t0 = perf_counter()
    with tr.span("bench.block"):
        for alg in spec.algorithms:
            decode, span_name = DECODERS[alg]
            bits = ferr = its = 0
            for f in range(BLOCK):
                with tr.span("channel.awgn_llrs"):
                    llrs = awgn_llrs(h.n_cols, rate, spec.snr_db, seed, f)
                with tr.span(span_name):
                    res = decode(h, llrs, PARAMS, layout)
                tr.add(f"{span_name}.iterations", res.iterations_run)
                with tr.span("decoder.syndrome_check"):
                    syndrome_ok = syndrome_check(h, res.hard_bits, layout)
                if syndrome_ok != res.converged:
                    problems.append(f"{alg} frame {f}: converged={res.converged} but syndrome {syndrome_ok}")
                errs = int(res.hard_bits.sum())
                bits, ferr, its = bits + errs, ferr + (errs > 0), its + res.iterations_run
            counts[alg] = (BLOCK, bits, ferr, its)
    return perf_counter() - t0, counts, problems


def ber_workload(name: str, seed: int, seconds: float, report: Report, tr: Tracer):
    spec = BER_WORKLOADS[name]
    setup = Setup([spec.code], False)
    h, layout = setup.built[spec.code]
    best = Best()
    first: dict[int, dict] = {}  # block -> counts of its first run
    deadline = perf_counter() + seconds
    r = 0
    while r < spec.blocks or perf_counter() < deadline:
        k = r % spec.blocks  # the blocks are run round-robin
        s = op_seed(seed, k)
        times, counts = ber_block(spec, h, layout, s)
        for alg, t in times.items():
            best.add((k, alg), "wall", t)
        problems = block_problems(counts)
        if first.setdefault(k, counts) != counts:
            problems.append(f"block {k}: a repeat gave {counts}, the first run {first[k]}")
        if tr.enabled:
            t_plain, _, _ = golden_block(spec, h, layout, s, UNTRACED)
            op_tr = Tracer(True)
            t_traced, gold, more = golden_block(spec, h, layout, s, op_tr)
            spent = sum(t for n, t in op_tr.durations().items()
                        if n.startswith(("channel.", "decoder.decode")))
            best.add(k, "untraced", t_plain)
            best.add(k, "traced", t_traced)
            best.add(k, "spent", spent)
            record_trace(best, k, op_tr, tr)
            problems += more
            if gold != counts:
                problems.append(f"block {k}: golden {gold} != run_ber {counts}")
        report.op(problems)
        setup.between_ops()
        r += 1
    setup.report(report)
    if not tr.enabled:
        # every block is decoded again, untimed, frame by frame
        for k, counts in first.items():
            _, gold, problems = golden_block(spec, h, layout, op_seed(seed, k), UNTRACED)
            if gold != counts:
                problems.append(f"block {k}: golden {gold} != run_ber {counts}")
            report.problems += problems
    got = {alg: tuple(sum(c[alg][i] for c in first.values()) for i in range(4)) for alg in spec.algorithms}
    if seed == DEFAULT_SEED and got != PIN_BER[name]:
        report.problems.append(f"counts of the {spec.blocks} blocks {got} != pinned {PIN_BER[name]}")

    frames_per_op = BLOCK * len(spec.algorithms)
    wall = best.total("wall")
    report.put("frames_per_s", spec.blocks * frames_per_op / wall,
               f"{best.note()}; " + spread_note([BLOCK / t for t in best.all["wall"]], what="run_ber call"))
    report.put("pipeline_s", wall / spec.blocks,
               f"mean over blocks, {best.note()}; " + spread_note(best.all["wall"], what="run_ber call"))
    report.put("peak_rss_mb", peak_rss_mb(), "end of run")
    if not tr.enabled:
        return
    frames, bits, ferr, its = (sum(c[i] for c in got.values()) for i in range(4))
    report.put("channel.frames", frames)
    report.put("channel.bit_errors", bits)
    report.put("channel.frame_errors", ferr)
    report.put("decoder.iterations_total", its)
    report.put("decoder.early_stop_ratio", its / (frames * PARAMS.it_max))
    report.put("channel.dispatch_overhead_s", (wall - best.total("spent")) / spec.blocks,
               "per block: best run_ber time minus best traced noise + decode time")
    layer_metrics(best, tr, spec.blocks, report)


def layer_metrics(best: Best, tr: Tracer, n_ops: int, report: Report):
    """Per-call rates, self times and tracing overhead from the traced runs."""
    def per_call(span, metric, scale, per=None):
        n = sum(c[per or span] for c in best.calls.values())
        if n:
            report.put(metric, best.total(span) / n * scale, f"{best.note()}, over {n} {per or 'calls'}")

    per_call("decoder.decode_layered_nms", "decoder.nms_ms_per_frame", 1e3)
    per_call("decoder.decode_layered_nms", "decoder.nms_us_per_iteration", 1e6,
             per="decoder.decode_layered_nms.iterations")
    per_call("decoder.decode_flooding_spa", "decoder.spa_ms_per_frame", 1e3)
    per_call("decoder.syndrome_check", "decoder.syndrome_us_per_call", 1e6)
    per_call("channel.awgn_llrs", "channel.noise_ms_per_frame", 1e3)
    per_call("nocsim.replay_decode", "nocsim.replay_ms_per_frame", 1e3)
    for layer in LAYERS:
        if best.best[f"self:{layer}"]:
            report.put(f"{layer}.self_s", best.total(f"self:{layer}") / n_ops,
                       f"per operation, {best.note()}")
    base = best.total("untraced")
    over = best.total("traced") - base
    report.put("trace.overhead_s", over / n_ops, f"per operation: best traced - best untraced, {best.note()}")
    report.put("trace.overhead_share", over / base, "trace.overhead_s / best untraced time")


# ---------------------------------------------------------------------------
# codegen pipeline


def run_case(case, h, layout, seed: int, tr: Tracer) -> dict:
    """One case from check graph to validated image and replay spot check."""
    name, side, snr = case
    p = side * side
    with tr.span("bench.case"):
        with tr.span("codes.build_check_graph"):
            g = build_check_graph(h)
        with tr.span("mapper.partition_kway"):
            mapping = partition_kway(g, p, seed)
        with tr.span("mapper.cutset"):
            cut = cutset(g, mapping)
        with tr.span("mapper.random_baseline"):
            random_mean = float(np.mean([cutset(g, partition_random(g, p, s))
                                         for s in range(seed, seed + RANDOM_SEEDS)]))
        with tr.span("mapper.serving_order"):
            serving_order(h, mapping)
        with tr.span("nocsim.build_schedule"):
            schedule = build_schedule(h, mapping)
        with tr.span("nocsim.simulate_iteration"):
            trace = simulate_iteration(Topology(side), schedule, seed=seed, label=h.label)
        with tr.span("nocsim.trace_json"):
            trace_digest = trace.content_digest()
            trace_back = NocTrace.from_json(trace.to_json()).content_digest()
        with tr.span("configgen.gen_config"):
            config = gen_config(trace, mapping, h)
        with tr.span("configgen.image_json"):
            image_back = ConfigImage.from_json(config.to_json())
            image_back.verify_digest()
        with tr.span("nocsim.validate_config"):
            wiring = validate_config(h, mapping, trace, config)
        with tr.span("nocsim.summary"):
            summary = trace.summary()
        rate = 1.0 - h.n_rows / h.n_cols
        mismatches = bit_errors = frame_errors = iterations = 0
        for f in range(SPOT_FRAMES):
            with tr.span("channel.awgn_llrs"):
                llrs = awgn_llrs(h.n_cols, rate, snr, DEFAULT_SEED, f)
            with tr.span("decoder.decode_layered_nms"):
                gold = decode_layered_nms(h, llrs, PARAMS, layout)
            tr.add("decoder.decode_layered_nms.iterations", gold.iterations_run)
            with tr.span("decoder.syndrome_check"):
                syndrome_ok = syndrome_check(h, gold.hard_bits, layout)
            with tr.span("nocsim.replay_decode"):
                rep = replay_decode(h, mapping, trace, config, llrs, PARAMS, layout, wiring)
            same = (np.array_equal(gold.hard_bits, rep.hard_bits)
                    and gold.iterations_run == rep.iterations_run
                    and gold.converged == rep.converged == syndrome_ok
                    and np.array_equal(gold.final_llrs, rep.final_llrs))
            mismatches += not same
            errs = int(gold.hard_bits.sum())
            bit_errors, frame_errors = bit_errors + errs, frame_errors + (errs > 0)
            iterations += gold.iterations_run

    bounds = {
        "read": read_bound(h, mapping.order),
        "link": summary["k_i_lower_bound_link"],
        "distance": summary["k_i_lower_bound_distance"],
    }
    checks = [
        (g.n_messages == CODE_MESSAGES[name], f"{g.n_messages} messages, c01 wants {CODE_MESSAGES[name]}"),
        (cut < random_mean, f"k-way cut {cut} not below random mean {random_mean:.1f}"),
        (cut == trace.n_network, f"cut {cut} != {trace.n_network} network messages"),
        (all(trace.k_i >= b for b in bounds.values()), f"k_i {trace.k_i} below a bound {bounds}"),
        (trace_back == trace_digest, "trace JSON round trip changed the digest"),
        (image_back.digest == config.digest, "image JSON round trip changed the digest"),
        (mismatches == 0, f"{mismatches}/{SPOT_FRAMES} replay frames differ from golden"),
    ]
    if seed == DEFAULT_SEED:
        pin = (trace.k_i, trace_digest, config.digest)
        checks.append((pin == PIN_CASES[name], f"(k_i, trace digest, image digest) {pin} != pinned"))
    return {
        "k_i": trace.k_i,
        "trace_digest": trace_digest, "config_digest": config.digest,
        "messages": g.n_messages, "cut": cut, "cut_vs_random": cut / random_mean,
        "network_messages": trace.n_network, "flit_hops": sum(fl.hops for fl in trace.flits),
        "bounds": bounds, "fifo_max": summary["fifo_max_overall"],
        "rm_words_nonzero": sum(1 for node in config.rm for w in node if w),
        "mismatches": mismatches, "bit_errors": bit_errors, "frame_errors": frame_errors,
        "iterations": iterations,
        "problems": [f"{name}: {msg}" for ok, msg in checks if not ok],
    }


def run_switches(k_i: dict, tr: Tracer):
    """plan_upload + simulate_upload for each switch between consecutive cases."""
    results = []
    with tr.span("bench.switches"):
        for (a, side, _), (b, _, _) in zip(CASES, CASES[1:]):
            k1, k2 = k_i[a], k_i[b]
            with tr.span("configgen.upload"):
                words = max(min_buffer_size(k1, k2, side), k1, k2)
                plan = plan_upload(k1, k2, side, words)
                passed = all(simulate_upload(plan, al).passed for al in range(side))
            results.append((words, [] if passed else [f"switch {a} -> {b} fails with B={words}"]))
    return results


def _guarded(report: Report, what: str, fn, *args):
    """Run one operation; an exception fails it and is reported, the run goes on."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark must report every failure
        report.op([f"{what} raised:\n{traceback.format_exc()}"])
        return None


def timed_op(report: Report, best: Best, key, tr: Tracer, fn, *args):
    """Run fn(*args, tracer) as operation key; return (result, result of the traced rerun).

    Untraced runs time each stage with spans of their own, and the best
    stage times add up to pipeline_s.  Traced runs run the operation twice,
    without and with spans; the difference is the tracing overhead.
    """
    own = Tracer(not tr.enabled)
    t0 = perf_counter()
    res = _guarded(report, key, fn, *args, own)
    t = perf_counter() - t0
    if res is None:
        return None, None
    best.add(key, "wall", t)
    if not tr.enabled:
        record_trace(best, key, own, tr)
        return res, None
    op_tr = Tracer(True)
    t0 = perf_counter()
    again = _guarded(report, key, fn, *args, op_tr)
    if again is not None:
        best.add(key, "untraced", t)
        best.add(key, "traced", perf_counter() - t0)
        record_trace(best, key, op_tr, tr)
    return res, again


def codegen_workload(seed: int, seconds: float, report: Report, tr: Tracer):
    setup = Setup([c for c, _, _ in CASES], True)
    best = Best()
    first: dict[str, dict] = {}
    buffer_words = 0
    pass_times = []
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        k_i, t0 = {}, perf_counter()
        for case in CASES:
            if passes and perf_counter() >= deadline:
                break  # a late pass stops between cases
            name = case[0]
            res, again = timed_op(report, best, name, tr, run_case, case, *setup.built[name], seed)
            if res is None or (tr.enabled and again is None):
                continue
            problems = res["problems"]
            digests = ("trace_digest", "config_digest")
            if again and [again[d] for d in digests] != [res[d] for d in digests]:
                problems.append(f"{name}: a second run gave other digests")
            report.op(problems)
            first.setdefault(name, res)
            k_i[name] = res["k_i"]
        if len(k_i) == len(CASES):
            switches, _ = timed_op(report, best, "switches", tr, run_switches, k_i)
            for words, problems in switches or []:
                report.op(problems)
                buffer_words = max(buffer_words, words)
            pass_times.append(perf_counter() - t0)
        setup.between_ops()
        passes += 1
    setup.report(report)

    if not first:
        return
    if not tr.enabled:
        spot = sum(best.total(s) for s in SPOT_SPANS)
        report.put("frames_per_s", 2 * SPOT_FRAMES * len(first) / spot,
                   f"golden + replay spot-check frames over the sum of best stage times, {best.note()}")
        report.put("pipeline_s", sum(best.total(s) for s in best.stages),
                   f"sum over cases and switches of best stage times, {best.note()}; "
                   + (spread_note(pass_times, "complete pass") if pass_times else "no complete pass"))
    report.put("peak_rss_mb", peak_rss_mb(), "end of run")
    if not tr.enabled:
        return

    for metric, span in (
        ("codes.check_graph_s", "codes.build_check_graph"),
        ("mapper.partition_kway_s", "mapper.partition_kway"),
        ("mapper.random_baseline_s", "mapper.random_baseline"),
        ("nocsim.schedule_s", "nocsim.build_schedule"),
        ("nocsim.simulate_s", "nocsim.simulate_iteration"),
        ("nocsim.trace_json_s", "nocsim.trace_json"),
        ("nocsim.validate_s", "nocsim.validate_config"),
        ("configgen.gen_config_s", "configgen.gen_config"),
        ("configgen.upload_s", "configgen.upload"),
    ):
        report.put(metric, best.total(span), f"sum over cases of the best traced time, {best.note()}")
    hops = sum(res["flit_hops"] for res in first.values())
    report.put("nocsim.simulate_us_per_flit_hop", best.total("nocsim.simulate_iteration") / hops * 1e6,
               f"nocsim.simulate_s over {hops} flit hops")
    for name, res in first.items():
        report.put(f"codes.messages.{name}", res["messages"])
        report.put(f"mapper.cut_messages.{name}", res["cut"])
        report.put(f"mapper.cut_vs_random.{name}", res["cut_vs_random"], f"over {RANDOM_SEEDS} random seeds")
        report.put(f"nocsim.k_i.{name}", res["k_i"])
        report.put(f"nocsim.network_messages.{name}", res["network_messages"])
        report.put(f"nocsim.flit_hops.{name}", res["flit_hops"])
        for kind, value in res["bounds"].items():
            report.put(f"nocsim.k_i_bound_{kind}.{name}", value)
        report.put(f"nocsim.k_i_gap.{name}", res["k_i"] - max(res["bounds"].values()))
        report.put(f"nocsim.fifo_max.{name}", res["fifo_max"])
        report.put(f"configgen.rm_words_nonzero.{name}", res["rm_words_nonzero"])
    report.put("nocsim.replay_mismatches", sum(res["mismatches"] for res in first.values()))
    report.put("configgen.min_buffer_words", buffer_words, "largest over the switches")
    report.put("channel.frames", SPOT_FRAMES * len(first))
    report.put("channel.bit_errors", sum(res["bit_errors"] for res in first.values()))
    report.put("channel.frame_errors", sum(res["frame_errors"] for res in first.values()))
    iterations = sum(res["iterations"] for res in first.values())
    report.put("decoder.iterations_total", iterations)
    report.put("decoder.early_stop_ratio", iterations / (SPOT_FRAMES * len(first) * PARAMS.it_max))
    layer_metrics(best, tr, len(best.repeats), report)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not Path(nocldpc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: nocldpc imported from {nocldpc.__file__}, not from {SRC}")
    report = Report(args.workload, args.seed, bool(args.trace))
    tr = Tracer(report.trace)
    if args.workload == "codegen-pipeline":
        codegen_workload(args.seed, args.seconds, report, tr)
    else:
        ber_workload(args.workload, args.seed, args.seconds, report, tr)
    if tr.enabled:
        tr.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.json")
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
