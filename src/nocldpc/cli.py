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
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .channel import BerPoint, StopRule, run_ber
from .codes import build_check_graph, compute_layers, load_code, parse_alist, parse_qc
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


def _outdir(args) -> str:
    out = args.out or "nocldpc_out"
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(args, name: str, obj: dict) -> str:
    obj = dict(obj)
    obj["manifest_hash"] = _manifest_hash(args)
    path = os.path.join(_outdir(args), name)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
    return path


def _load_code_from_args(args):
    target = args.code
    fmt = getattr(args, "format", "auto")
    if fmt == "auto":
        fmt = "file" if os.path.exists(target) else "name"
    if fmt == "name":
        h = load_code(target)
    else:
        with open(target, "r", encoding="ascii") as fh:
            text = fh.read()
        if fmt == "alist":
            h = parse_alist(text, label=os.path.basename(target))
        elif fmt == "qc":
            h = expand_qc(parse_qc(text, label=os.path.basename(target)))
        else:  # sniff: a QC header line has three integers, alist has two
            head = text.split("\n", 1)[0].split()
            h = (
                expand_qc(parse_qc(text, label=os.path.basename(target)))
                if len(head) == 3
                else parse_alist(text, label=os.path.basename(target))
            )
    if h.layers is None:
        compute_layers(h)
    return h


def _decode_params(args) -> DecodeParams:
    return DecodeParams(
        alpha=args.alpha,
        it_max=args.itmax,
        fmt=QFormat.parse(args.quant),
        early_stop=not getattr(args, "no_early_stop", False),
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
        print("wrote", _write_json(args, "inspect.json", info))
    return 0


def cmd_partition(args) -> int:
    h = _load_code_from_args(args)
    g = build_check_graph(h)
    p = args.torus_n * args.torus_n
    if args.strategy == "kway":
        mapping = partition_kway(g, p, args.seed)
    else:
        mapping = partition_random(g, p, args.seed)
    serving_order(h, mapping)
    cut = cutset(g, mapping)
    rp_mean = None
    if args.rp_baseline:
        cuts = [cutset(g, partition_random(g, p, s)) for s in range(args.rp_baseline)]
        rp_mean = float(np.mean(cuts))
    out = _outdir(args)
    with open(os.path.join(out, "mapping.json"), "w") as fh:
        fh.write(mapping.to_json())
    summary = {
        "label": h.label,
        "p": p,
        "strategy": args.strategy,
        "seed": args.seed,
        "cutset_messages": cut,
        "messages_total": g.n_messages,
        "rp_baseline_mean": rp_mean,
    }
    _write_json(args, "partition.json", summary)
    print(f"partitioned {h.label or args.code} over {p} PEs: cut {cut} / {g.n_messages} messages")
    if rp_mean is not None:
        print(f"random baseline mean over {args.rp_baseline} seeds: {rp_mean:.1f}")
    return 0


def cmd_simulate(args) -> int:
    h = _load_code_from_args(args)
    g = build_check_graph(h)
    mapping = partition_kway(g, args.torus_n * args.torus_n, args.seed)
    serving_order(h, mapping)
    sched = build_schedule(h, mapping)
    trace = simulate_iteration(
        Topology(args.torus_n), sched, seed=args.seed,
        pipeline_depth=args.pe_pipeline, label=h.label,
    )
    out = _outdir(args)
    with open(os.path.join(out, "trace.json"), "w") as fh:
        fh.write(trace.to_json())
    with open(os.path.join(out, "mapping.json"), "w") as fh:
        fh.write(mapping.to_json())
    summary = trace.summary()
    summary["cutset_messages"] = cutset(g, mapping)
    summary["bypass_messages"] = sched.n_bypass
    _write_json(args, "simulate.json", summary)
    print(f"k_i = {trace.k_i} cycles, {sched.n_network} network / {sched.n_bypass} bypass messages")
    print(f"peak FIFO occupancy {summary['fifo_max_overall']}")
    return 0


def cmd_genconfig(args) -> int:
    h = _load_code_from_args(args)
    with open(args.mapping) as fh:
        mapping = Mapping.from_json(fh.read())
    with open(args.trace) as fh:
        trace = NocTrace.from_json(fh.read())
    config = gen_config(trace, mapping, h, fifo_pow2=args.fifo_pow2)
    out = _outdir(args)
    path = os.path.join(out, "config.json")
    with open(path, "w") as fh:
        fh.write(config.to_json())
    print(f"config image: k_i={config.k_i}, N_pc={config.n_pc}, N_d={config.n_d}")
    print(f"FIFO depths (max per port): {config.fifo_depth.max(axis=0).tolist()}")
    print("wrote", path)
    if args.binary:
        bpath = os.path.join(out, "config_rm.bin")
        with open(bpath, "wb") as fh:
            fh.write(config.rm_to_binary())
        print("wrote", bpath)
    return 0


def cmd_switch(args) -> int:
    if args.config1 and args.config2:
        with open(args.config1) as fh:
            c1 = ConfigImage.from_json(fh.read())
        with open(args.config2) as fh:
            c2 = ConfigImage.from_json(fh.read())
        k1, k2 = c1.k_i, c2.k_i
        n = args.torus_n or c1.n
    else:
        if args.k1 is None or args.k2 is None:
            print("switch needs either two config images or --k1/--k2", file=sys.stderr)
            return 2
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
        _write_json(args, "switch.json", result)
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
    points = run_ber(
        h, params, snrs, stop, seed=args.seed,
        algorithm=args.algorithm, threads=args.threads,
    )
    out = _outdir(args)
    csv_path = os.path.join(out, "ber.csv")
    with open(csv_path, "w") as fh:
        fh.write(BerPoint.CSV_HEADER + "\n")
        for pt in points:
            fh.write(pt.as_csv_row() + "\n")
    _write_json(args, "ber.json", {"points": [pt.as_dict() for pt in points]})
    print(BerPoint.CSV_HEADER)
    for pt in points:
        print(pt.as_csv_row())
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
        _write_json(args, "throughput.json", result)
    return 0


def cmd_pipeline(args) -> int:
    t0 = time.time()
    stage = "load"
    try:
        h = _load_code_from_args(args)
        stage = "partition"
        g = build_check_graph(h)
        p = args.torus_n * args.torus_n
        mapping = partition_kway(g, p, args.seed)
        serving_order(h, mapping)
        cut = cutset(g, mapping)
        rp_cuts = [cutset(g, partition_random(g, p, s)) for s in range(args.rp_baseline)]
        rp_mean = float(np.mean(rp_cuts))
        stage = "schedule"
        sched = build_schedule(h, mapping)
        stage = "simulate"
        trace = simulate_iteration(
            Topology(args.torus_n), sched, seed=args.seed,
            pipeline_depth=args.pe_pipeline, label=h.label,
        )
        stage = "genconfig"
        config = gen_config(trace, mapping, h, fifo_pow2=args.fifo_pow2)
        stage = "replay-verify"
        wiring = validate_config(h, mapping, trace, config)
        layout = CodeLayout.build(h)
        params = _decode_params(args)
        rate = 1.0 - h.n_rows / h.n_cols
        from .channel import awgn_llrs

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
    except Exception as exc:  # surface the failing stage, per contract
        print(f"pipeline failed at stage {stage}: {exc}", file=sys.stderr)
        return 2

    out = _outdir(args)
    with open(os.path.join(out, "mapping.json"), "w") as fh:
        fh.write(mapping.to_json())
    with open(os.path.join(out, "trace.json"), "w") as fh:
        fh.write(trace.to_json())
    with open(os.path.join(out, "config.json"), "w") as fh:
        fh.write(config.to_json())
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
        "elapsed_s": round(time.time() - t0, 2),
    }
    _write_json(args, "report.json", report)
    print(f"code        {h.label}")
    print(f"k_i         {trace.k_i} cycles")
    print(f"cutset      {cut} messages (random baseline mean {rp_mean:.1f})")
    print(f"fifo depth  {report['fifo_depth_max']}")
    print(f"replay      {'PASS' if replay_ok else 'FAIL'} ({args.check_frames} frames vs golden)")
    print("artifacts in", out)
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
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for scripts; changes neither BER counts nor speed (must be >= 1)")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
