"""Command-line front end for the decoder toolchain.

Subcommands cover the full flow: inspect a code, partition it over the
torus, simulate one decoding iteration, generate configuration memories,
plan and verify a code switch, measure BER, and estimate throughput.  The
pipeline subcommand chains everything and cross-checks the table-driven
replay against the golden decoder.

All outputs are machine-readable (JSON/CSV) next to a human summary on
stdout, and every artifact carries the hash of the run manifest that
produced it.  Exit status is zero only when all embedded verifications
pass.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .channel import BerPoint, StopRule, awgn_llrs, run_ber
from .codes import build_check_graph, load_code, parse_alist, parse_qc
from .codes.qc import expand_qc
from .configgen import (
    ConfigImage,
    gen_config,
    min_buffer_size,
    plan_upload,
    simulate_upload,
)
from .decoder import CodeLayout, DecodeParams, decode_layered_nms
from .fixedpoint import QFormat
from .mapper import Mapping, cutset, partition_kway, partition_random, serving_order
from .nocsim import NocTrace, Topology, build_schedule, replay_decode, simulate_iteration, validate_config


def _manifest_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write(args, name: str, content) -> str:
    """Write one artifact into --out (default nocldpc_out); return its path.

    Text and bytes are written as they are, a dict as JSON carrying the
    hash of the run manifest.
    """
    out = args.out or "nocldpc_out"
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    if isinstance(content, dict):
        content = json.dumps({**content, "manifest_hash": _manifest_hash(args)},
                             sort_keys=True, indent=2)
    with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
        fh.write(content)
    return path


def _load_code_from_args(args):
    target, fmt = args.code, args.format
    if fmt == "auto":
        fmt = "file" if os.path.exists(target) else "name"
    if fmt == "name":
        return load_code(target)
    text = Path(target).read_text(encoding="ascii")
    if fmt == "file":  # sniff: a QC header line has three integers, alist has two
        fmt = "qc" if len(text.split("\n", 1)[0].split()) == 3 else "alist"
    label = os.path.basename(target)
    return expand_qc(parse_qc(text, label=label)) if fmt == "qc" else parse_alist(text, label=label)


def _mapped(args, stages: list, partition=partition_kway):
    """Load the code, build its check graph and map it over the torus.

    Appends the perf_counter start marks of the load and partition stages
    to stages; returns (code, check graph, mapping with serving orders).
    """
    stages.append(("load", time.perf_counter()))
    h = _load_code_from_args(args)
    stages.append(("partition", time.perf_counter()))
    g = build_check_graph(h)
    mapping = partition(g, args.torus_n * args.torus_n, args.seed)
    serving_order(h, mapping)
    return h, g, mapping


def _stage_s(stages: list) -> dict:
    """Seconds per stage from the start marks; the last stage ends now."""
    ends = [start for _, start in stages[1:]] + [time.perf_counter()]
    return {name: end - start for (name, start), end in zip(stages, ends)}


def _random_mean(g, p: int, seeds: int) -> float:
    """Mean cut of partition_random over seeds 0 .. seeds - 1."""
    return float(np.mean([cutset(g, partition_random(g, p, s)) for s in range(seeds)]))


def _decode_params(args) -> DecodeParams:
    return DecodeParams(
        alpha=args.alpha,
        it_max=args.itmax,
        fmt=QFormat.parse(args.quant),
        early_stop=not args.no_early_stop,
    )


def _positive(kind):
    """argparse type: a number of the given kind, above zero."""
    def parse(text):
        value = kind(text)
        if not value > 0:  # NaN too
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _finite(text: str) -> float:
    """argparse type: a float other than NaN or +-inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite.__name__ = "float"


def _non_negative(text: str) -> int:
    """argparse type: an int of at least zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


_non_negative.__name__ = "int"


def _add_code_args(p):
    p.add_argument("--code", required=True, help="bundled code name or matrix file")
    p.add_argument("--format", choices=["auto", "name", "file", "alist", "qc"], default="auto")


def _add_common(p, torus=True):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory (default nocldpc_out)")
    if torus:
        p.add_argument("--torus-n", type=_positive(int), default=5, help="torus side length")


def _add_decode_args(p):
    p.add_argument("--alpha", type=_finite, default=1.15)
    p.add_argument("--itmax", type=int, default=10)
    p.add_argument("--quant", default="8_1", help="fixed-point format n_m")
    p.add_argument("--no-early-stop", action="store_true")


# ---------------------------------------------------------------------------


def cmd_inspect(args) -> int:
    h = _load_code_from_args(args)
    g = build_check_graph(h)
    info = {
        "label": h.label,
        "n_cols": h.n_cols,
        "n_rows": h.n_rows,
        "max_row_degree": h.max_row_degree,
        "layers": len(h.layers),
        "messages_per_iteration": g.n_messages,
        "message_pairs": g.n_edges,
        "sharing_pairs": g.n_shared_pairs,
    }
    print(f"code           {h.label or args.code}")
    print(f"N x M          {h.n_cols} x {h.n_rows}")
    print(f"N_d            {h.max_row_degree}")
    print(f"layers         {len(h.layers)}")
    print(f"|E| messages   {g.n_messages}")
    print(f"message pairs  {g.n_edges}")
    print(f"sharing pairs  {g.n_shared_pairs}")
    if args.out:
        print("wrote", _write(args, "inspect.json", info))
    return 0


def cmd_partition(args) -> int:
    stages = []
    strategy = partition_random if args.strategy == "random" else partition_kway
    h, g, mapping = _mapped(args, stages, strategy)
    p = mapping.p
    cut = cutset(g, mapping)
    rp_mean = _random_mean(g, p, args.rp_baseline) if args.rp_baseline else None
    stage_s = _stage_s(stages)
    _write(args, "mapping.json", mapping.to_json())
    summary = {
        "label": h.label,
        "p": p,
        "strategy": args.strategy,
        "seed": args.seed,
        "cutset_messages": cut,
        "messages_total": g.n_messages,
        "rp_baseline_mean": rp_mean,
        "stage_s": stage_s,
    }
    _write(args, "partition.json", summary)
    print(f"partitioned {h.label or args.code} over {p} PEs: cut {cut} / {g.n_messages} messages")
    if rp_mean is not None:
        print(f"random baseline mean over {args.rp_baseline} seeds: {rp_mean:.1f}")
    return 0


def cmd_simulate(args) -> int:
    stages = []
    h, g, mapping = _mapped(args, stages)
    stages.append(("schedule", time.perf_counter()))
    sched = build_schedule(h, mapping)
    stages.append(("simulate", time.perf_counter()))
    trace = simulate_iteration(
        Topology(args.torus_n), sched, seed=args.seed,
        pipeline_depth=args.pe_pipeline, label=h.label,
    )
    stage_s = _stage_s(stages)
    _write(args, "trace.json", trace.to_json())
    _write(args, "mapping.json", mapping.to_json())
    summary = trace.summary()
    summary["cutset_messages"] = cutset(g, mapping)
    summary["bypass_messages"] = sched.n_bypass
    summary["stage_s"] = stage_s
    _write(args, "simulate.json", summary)
    print(f"k_i = {trace.k_i} cycles, {sched.n_network} network / {sched.n_bypass} bypass messages")
    print(f"peak FIFO occupancy {summary['fifo_max_overall']}")
    return 0


def cmd_genconfig(args) -> int:
    stages = [("load", time.perf_counter())]
    h = _load_code_from_args(args)
    mapping = Mapping.from_json(Path(args.mapping).read_text())
    trace = NocTrace.from_json(Path(args.trace).read_text())
    stages.append(("genconfig", time.perf_counter()))
    config = gen_config(trace, mapping, h, fifo_pow2=args.fifo_pow2)
    stages.append(("validate", time.perf_counter()))
    validate_config(h, mapping, trace, config)  # refuses, e.g., a trace with padded k_i
    stage_s = _stage_s(stages)
    path = _write(args, "config.json", config.to_json())
    fifo_max = config.fifo_depth.max(axis=0).tolist()
    _write(args, "genconfig.json", {
        "label": config.label,
        "k_i": config.k_i,
        "n_pc": config.n_pc,
        "n_d": config.n_d,
        "fifo_depth_max_per_port": fifo_max,
        "digest": config.digest,
        "stage_s": stage_s,
    })
    print(f"config image: k_i={config.k_i}, N_pc={config.n_pc}, N_d={config.n_d}")
    print(f"FIFO depths (max per port): {fifo_max}")
    print("wrote", path)
    if args.binary:
        print("wrote", _write(args, "config_rm.bin", config.rm_to_binary()))
    return 0


def cmd_switch(args) -> int:
    if args.config1 and args.config2:
        c1, c2 = (ConfigImage.from_json(Path(p).read_text()) for p in (args.config1, args.config2))
        c1.verify_digest()
        c2.verify_digest()
        k1, k2 = c1.k_i, c2.k_i
        n = args.torus_n or c1.n
        if not c1.n == c2.n == n:
            raise ValueError(f"images on {c1.n}x{c1.n} and {c2.n}x{c2.n} tori "
                             f"cannot switch over {n} buses")
    elif args.k1 is None or args.k2 is None:
        raise ValueError("switch needs either two config images or --k1/--k2")
    else:
        k1, k2, n = args.k1, args.k2, args.torus_n or 5
    b_min = max(min_buffer_size(k1, k2, n), k1, k2)
    b = args.buffer_size or b_min
    plan = plan_upload(k1, k2, n, b, strict=False)
    reports = [simulate_upload(plan, a) for a in range(n)]
    ok = plan.feasible and all(r.passed for r in reports)
    result = {
        "k1": k1, "k2": k2, "n": n, "B": b, "B_min": b_min,
        "plan": plan.summary(),
        "pass": ok,
        "alignments": [
            {"alignment": r.alignment, "passed": r.passed, "violation": r.first_violation}
            for r in reports
        ],
    }
    if args.out:
        _write(args, "switch.json", result)
    print(f"switch k1={k1} k2={k2} over {n} buses: B={b} (minimum {b_min})")
    print(f"phases: w1={plan.w1} w2={plan.w2} w3={plan.w3}")
    if ok:
        print("upload verification: PASS (all bus alignments)")
    else:
        bad = next(r for r in reports if not r.passed)
        print(f"upload verification: FAIL at alignment {bad.alignment}, "
              f"first violation {bad.first_violation}")
    return 0 if ok else 1


def cmd_ber(args) -> int:
    h = _load_code_from_args(args)
    params = _decode_params(args)
    stop = StopRule(min_bit_errors=args.min_errors, max_frames=args.max_frames)
    snrs = [float(s) for s in args.snr.split(",")]
    if not all(map(math.isfinite, snrs)):
        raise ValueError(f"--snr values must be finite, got {args.snr}")
    points = run_ber(h, params, snrs, stop, seed=args.seed, algorithm=args.algorithm)
    rows = [BerPoint.CSV_HEADER, *(pt.as_csv_row() for pt in points)]
    csv_path = _write(args, "ber.csv", "".join(row + "\n" for row in rows))
    _write(args, "ber.json", {"points": [pt.as_dict() for pt in points]})
    print("\n".join(rows))
    print("wrote", csv_path)
    return 0


def cmd_throughput(args) -> int:
    worst = args.block_length * args.f_clk / (args.k_i * args.itmax)
    result = {
        "k_i": args.k_i,
        "f_clk_hz": args.f_clk,
        "block_length": args.block_length,
        "it_max": args.itmax,
        "throughput_worst_mbps": worst / 1e6,
    }
    print(f"worst-case throughput: {worst / 1e6:.1f} Mb/s "
          f"(N={args.block_length}, f={args.f_clk/1e6:.0f} MHz, k_i={args.k_i}, it={args.itmax})")
    if args.avg_iterations:
        avg = args.block_length * args.f_clk / (args.k_i * args.avg_iterations)
        result["avg_iterations"] = args.avg_iterations
        result["throughput_avg_mbps"] = avg / 1e6
        print(f"average throughput:    {avg / 1e6:.1f} Mb/s (it_avg={args.avg_iterations})")
    if args.out:
        _write(args, "throughput.json", result)
    return 0


def _gc_runs(before: list[dict]) -> dict:
    """Runs of the garbage collector per generation since before, a
    gc.get_stats() reading; read only, the collector is left as it is."""
    return {f"gen{i}": now["collections"] - then["collections"]
            for i, (then, now) in enumerate(zip(before, gc.get_stats()))}


def cmd_pipeline(args) -> int:
    stages = []  # (stage, its start on the perf_counter clock), in order
    gc_stats = gc.get_stats()
    try:
        h, g, mapping = _mapped(args, stages)
        p = mapping.p
        cut = cutset(g, mapping)
        rp_mean = _random_mean(g, p, args.rp_baseline)
        stages.append(("schedule", time.perf_counter()))
        sched = build_schedule(h, mapping)
        stages.append(("simulate", time.perf_counter()))
        trace = simulate_iteration(
            Topology(args.torus_n), sched, seed=args.seed,
            pipeline_depth=args.pe_pipeline, label=h.label,
        )
        stages.append(("genconfig", time.perf_counter()))
        config = gen_config(trace, mapping, h, fifo_pow2=args.fifo_pow2)
        stages.append(("replay-verify", time.perf_counter()))
        wiring = validate_config(h, mapping, trace, config)
        layout = CodeLayout.build(h)
        params = _decode_params(args)
        rate = 1.0 - h.n_rows / h.n_cols
        mismatches = 0
        for f in range(args.check_frames):
            llrs = awgn_llrs(h.n_cols, rate, args.check_snr, seed=args.seed, frame=f)
            gold = decode_layered_nms(h, llrs, params, layout)
            rep = replay_decode(h, mapping, trace, config, llrs, params, layout, wiring)
            if not (
                np.array_equal(gold.hard_bits, rep.hard_bits)
                and gold.iterations_run == rep.iterations_run
                and gold.converged == rep.converged
                and np.array_equal(gold.final_llrs, rep.final_llrs)
            ):
                mismatches += 1
        replay_ok = mismatches == 0
        stage_s = _stage_s(stages)
        gc_runs = _gc_runs(gc_stats)
    except Exception as exc:  # surface the failing stage, per contract
        print(f"pipeline failed at stage {stages[-1][0]}: {exc}", file=sys.stderr)
        return 2

    for name, artifact in (("mapping.json", mapping), ("trace.json", trace), ("config.json", config)):
        _write(args, name, artifact.to_json())
    cut_ok = cut < rp_mean if p > 1 else True  # one PE has no traffic to beat
    report = {
        "label": h.label,
        "p": p,
        "torus_n": args.torus_n,
        "seed": args.seed,
        "k_i": trace.k_i,
        "cutset_messages": cut,
        "rp_baseline_mean": rp_mean,
        "cut_below_random_baseline": cut_ok,
        "messages_total": g.n_messages,
        "network_messages": sched.n_network,
        "bypass_messages": sched.n_bypass,
        "fifo_depth_max": int(config.fifo_depth.max()),
        "replay_check_frames": args.check_frames,
        "replay_matches_golden": replay_ok,
        "elapsed_s": round(time.perf_counter() - stages[0][1], 2),
        "stage_s": stage_s,
        "gc": gc_runs,
    }
    _write(args, "report.json", report)
    print(f"code        {h.label}")
    print(f"k_i         {trace.k_i} cycles")
    print(f"cutset      {cut} messages (random baseline mean {rp_mean:.1f})")
    print(f"fifo depth  {report['fifo_depth_max']}")
    print(f"replay      {'PASS' if replay_ok else 'FAIL'} ({args.check_frames} frames vs golden)")
    print("artifacts in", args.out or "nocldpc_out")
    return 0 if replay_ok and cut_ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nocldpc",
        description="NoC-based flexible LDPC decoder toolchain",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a code and its check graph")
    _add_code_args(p)
    _add_common(p, torus=False)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("partition", help="map parity checks onto PEs")
    _add_code_args(p)
    _add_common(p)
    p.add_argument("--strategy", choices=["kway", "random"], default="kway")
    p.add_argument("--rp-baseline", type=_non_negative, default=0,
                   help="also report the mean random cut over this many seeds")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", help="partition and cycle-accurately simulate one iteration")
    _add_code_args(p)
    _add_common(p)
    p.add_argument("--pe-pipeline", type=_non_negative, default=4)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("genconfig", help="derive configuration memories from a trace")
    _add_code_args(p)
    _add_common(p, torus=False)
    p.add_argument("--mapping", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--binary", action="store_true", help="also write the RM binary")
    p.add_argument("--fifo-pow2", action="store_true")
    p.set_defaults(func=cmd_genconfig)

    p = sub.add_parser("switch", help="size and verify an on-the-fly code switch")
    _add_common(p, torus=False)
    p.add_argument("--config1")
    p.add_argument("--config2")
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--torus-n", type=_positive(int), default=None)
    p.add_argument("--buffer-size", type=_positive(int), default=None,
                   help="force a capacity instead of the computed minimum")
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("ber", help="Monte Carlo BER measurement")
    _add_code_args(p)
    _add_common(p, torus=False)
    _add_decode_args(p)
    p.add_argument("--snr", required=True, help="comma-separated Eb/N0 list in dB")
    p.add_argument("--min-errors", type=int, default=100)
    p.add_argument("--max-frames", type=int, default=10000)
    p.add_argument("--algorithm", choices=["layered-nms", "flooding-spa"], default="layered-nms")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("throughput", help="decoded-bit throughput from cycle counts")
    _add_common(p, torus=False)
    p.add_argument("--k-i", type=_positive(int), required=True)
    p.add_argument("--f-clk", type=_positive(float), required=True, help="clock frequency in Hz")
    p.add_argument("--itmax", type=_positive(int), required=True)
    p.add_argument("--block-length", type=_positive(int), required=True)
    p.add_argument("--avg-iterations", type=_positive(float), default=None)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("pipeline", help="partition, simulate, configure, and verify end to end")
    _add_code_args(p)
    _add_common(p)
    _add_decode_args(p)
    p.add_argument("--pe-pipeline", type=_non_negative, default=4)
    p.add_argument("--fifo-pow2", action="store_true")
    p.add_argument("--rp-baseline", type=_positive(int), default=20)
    p.add_argument("--check-frames", type=_positive(int), default=5)
    p.add_argument("--check-snr", type=_finite, default=2.0)
    p.set_defaults(func=cmd_pipeline)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
