"""Static configuration synthesis from a simulation trace.

The trace's per-cycle routing decisions become routing-memory words, the
registered arrival orders become write-address tables, the serving order
becomes the read-address counter/comparator table, and observed FIFO peaks
become queue depths.

Routing-memory word layout (25 bits), version nocldpc-config-v1:
  bits [4o+3 : 4o], o = output port 0..4:  valid << 3 | selected input port
  bit  [20+i], i = input port 0..4:        pop enable for input FIFO i
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from ..jsonfields import all_ints, int_list, int_records, typed
from ..mapper import Mapping
from ..nocsim.schedule import InjectionSchedule, _schedule_for
from ..nocsim.trace import NocTrace, frozen_int64

FORMAT = "nocldpc-config-v1"
_BIN_MAGIC = b"NOCLDPCC"
_SLOT_KEY = re.compile(r"(0|[1-9][0-9]*):(0|[1-9][0-9]*)")  # check:position, canonical
_KEYS = ("label", "n", "k_i", "n_d", "n_pc", "pipeline_depth", "rm", "wag", "cnt_cmp",
         "fifo_depth", "slot_of", "trace_digest", "mapping_digest", "h_digest")


class ConfigIntegrityError(ValueError):
    pass


def pack_rm_word(selections: list[tuple[int, int]]) -> int:
    """Pack (out_port, in_port) crossbar selections into one control word."""
    word = 0
    for out, inp in selections:
        word |= ((0x8 | inp) << (4 * out)) | (1 << (20 + inp))
    return word


# the word bits of each single crossbar setting, _OP_BITS[out_port][in_port]
_OP_BITS = tuple(tuple(pack_rm_word([(out, inp)]) for inp in range(5)) for out in range(5))


def unpack_rm_word(word: int) -> list[tuple[int, int]]:
    sel = []
    for out in range(5):
        nibble = (word >> (4 * out)) & 0xF
        if nibble & 0x8:
            sel.append((out, nibble & 0x7))
    return sel


@dataclass(frozen=True)
class ConfigImage:
    """The static configuration of every router and PE for one code.

    An image is immutable: its tables are tuples, its FIFO depths a read-only
    array and its slot map a read-only mapping, so its payload object and
    payload digest are computed at most once, and to_json encodes the same
    payload object.  Built without a digest, the image seals itself with
    that payload digest.
    """

    label: str
    n: int
    k_i: int
    n_d: int
    n_pc: int
    pipeline_depth: int
    rm: tuple[tuple[int, ...], ...]  # per node: k_i words
    wag: tuple[tuple[int, ...], ...]  # per PE: one address per network arrival, in order
    cnt_cmp: tuple[tuple[tuple[int, int], ...], ...]  # per PE: (offset, degree) per served check
    fifo_depth: np.ndarray  # (P, 5)
    slot_of: MappingProxyType  # (check, position) -> slot in its block
    trace_digest: str
    mapping_digest: str
    h_digest: str
    digest: str | None = None

    def __post_init__(self):
        for name in ("rm", "wag"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        object.__setattr__(self, "cnt_cmp", tuple(tuple(map(tuple, pe)) for pe in self.cnt_cmp))
        object.__setattr__(self, "fifo_depth", frozen_int64(self.fifo_depth))
        object.__setattr__(self, "slot_of", MappingProxyType(dict(self.slot_of)))
        if self.digest is None:
            object.__setattr__(self, "digest", self.compute_digest())

    @property
    def p(self) -> int:
        return self.n * self.n

    @cached_property
    def _payload(self) -> dict:
        """The image's fields as the JSON object its digest and text encode.

        Built once per image; json.dumps with sort_keys orders the slot
        map's "check:position" keys itself.
        """
        return {
            "format": FORMAT,
            "label": self.label,
            "n": self.n,
            "k_i": self.k_i,
            "n_d": self.n_d,
            "n_pc": self.n_pc,
            "pipeline_depth": self.pipeline_depth,
            "rm": self.rm,
            "wag": self.wag,
            "cnt_cmp": self.cnt_cmp,
            "fifo_depth": self.fifo_depth.tolist(),
            "slot_of": {f"{c}:{p}": s for (c, p), s in self.slot_of.items()},
            "trace_digest": self.trace_digest,
            "mapping_digest": self.mapping_digest,
            "h_digest": self.h_digest,
        }

    @cached_property
    def _payload_digest(self) -> str:
        # the payload is a tree of tuples, ints and strings built here, which
        # cannot hold a cycle, so the encoder skips its cycle bookkeeping
        text = json.dumps(self._payload, sort_keys=True, separators=(",", ":"),
                          check_circular=False)
        return hashlib.sha256(text.encode()).hexdigest()

    def compute_digest(self) -> str:
        return self._payload_digest

    def verify_digest(self) -> None:
        if self.digest != self.compute_digest():
            raise ConfigIntegrityError("configuration image digest mismatch")

    def to_json(self) -> str:
        return json.dumps({**self._payload, "digest": self.digest}, sort_keys=True,
                          check_circular=False)

    @classmethod
    def from_json(cls, text: str) -> "ConfigImage":
        """Rebuild an image; malformed text raises ConfigIntegrityError.

        The image keeps the digest stored in the file, so verify_digest
        checks the payload against it.  Slot map keys must be written as
        to_json writes them: two plain decimals without sign, spaces,
        underscores or leading zeros, joined by a colon.
        """
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise ConfigIntegrityError(f"configuration image is not JSON: {exc}") from None
        if not isinstance(obj, dict) or obj.get("format") != FORMAT:
            raise ConfigIntegrityError("not a nocldpc configuration image")
        missing = [k for k in _KEYS if k not in obj]
        if missing:
            raise ConfigIntegrityError(f"configuration image lacks {', '.join(missing)}")
        try:
            slot_of = obj["slot_of"]
            if not all_ints(slot_of.values()):
                raise ValueError("slots must be integers")
            keys = list(map(_SLOT_KEY.fullmatch, slot_of))
            if None in keys:
                bad = next(k for k, m in zip(slot_of, keys) if m is None)
                raise ValueError(f"slot map key {bad!r} does not read check:position "
                                 "in plain decimal")
            img = cls(
                label=typed(obj, "label", str),
                n=typed(obj, "n"),
                k_i=typed(obj, "k_i"),
                n_d=typed(obj, "n_d"),
                n_pc=typed(obj, "n_pc"),
                pipeline_depth=typed(obj, "pipeline_depth"),
                rm=[int_list(node, "routing memory") for node in obj["rm"]],
                wag=[int_list(pe, "WAG table") for pe in obj["wag"]],
                cnt_cmp=[int_records(pe, 2, "CNT/CMP") for pe in obj["cnt_cmp"]],
                fifo_depth=int_records(obj["fifo_depth"], 5, "FIFO depth"),
                slot_of={(int(m[1]), int(m[2])): v for m, v in zip(keys, slot_of.values())},
                trace_digest=typed(obj, "trace_digest", str),
                mapping_digest=typed(obj, "mapping_digest", str),
                h_digest=typed(obj, "h_digest", str),
                digest=typed(obj, "digest", str) if "digest" in obj else "",
            )
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigIntegrityError(f"malformed configuration image: {exc}") from None
        p = img.p
        if len(img.rm) != p or any(len(node) != img.k_i for node in img.rm):
            raise ConfigIntegrityError(
                f"routing memories must hold {img.k_i} words on each of {p} nodes"
            )
        if len(img.wag) != p or len(img.cnt_cmp) != p:
            raise ConfigIntegrityError(f"WAG and CNT/CMP tables must cover {p} PEs")
        if img.fifo_depth.shape != (p, 5):
            raise ConfigIntegrityError(f"FIFO depths must be {p} x 5")
        if img.pipeline_depth < 0:
            raise ConfigIntegrityError(f"PE pipeline depth must be >= 0, got {img.pipeline_depth}")
        return img

    def rm_to_binary(self) -> bytes:
        """Compact fixed-width dump of the routing memories."""
        head = _BIN_MAGIC + struct.pack("<III", self.n, self.k_i, self.p)
        body = b"".join(
            struct.pack(f"<{self.k_i}I", *node) for node in self.rm
        )
        return head + body


def read_side(schedule: InjectionSchedule) -> tuple[int, int, tuple]:
    """The image's read side: N_d (block stride, the widest degree), N_pc (the
    most checks on one PE) and per PE the CNT/CMP (block offset, degree) of
    each served check, in serving order."""
    deg = schedule.deg
    n_d = max(deg, default=0)
    cnt_cmp = tuple(tuple((k * n_d, deg[m]) for k, m in enumerate(rows)) for rows in schedule.order)
    return n_d, max(map(len, schedule.order), default=0), cnt_cmp


def fill_free_slots(slot_of: dict[tuple[int, int], int], degs: list[int]) -> None:
    """Give each check's inputs that have no slot yet (bypass, wrap-in-place,
    self) the check's free slots, in position order."""
    get = slot_of.get
    for m, d in enumerate(degs):
        slots = [get((m, pos)) for pos in range(d)]
        if None in slots:
            free = iter([s for s in range(d) if s not in slots])
            for pos, slot in enumerate(slots):
                if slot is None:
                    slot_of[m, pos] = next(free)


def gen_config(
    trace: NocTrace,
    mapping: Mapping,
    h: ParityCheckMatrix,
    fifo_pow2: bool = False,
) -> ConfigImage:
    """Translate a trace into the decoder's static configuration."""
    digests = h.content_digest(), mapping.content_digest()
    schedule = _schedule_for(h, mapping, digests)
    p = trace.p
    if mapping.p != p:
        raise ConfigIntegrityError(f"mapping is for {mapping.p} PEs, trace for {p}")
    n_d, n_pc, cnt_cmp = read_side(schedule)
    serve_pos = schedule.serve_pos
    host = schedule.host

    # slots: network arrivals claim slots in arrival order, the remaining
    # inputs fill the leftover slots
    slot_of: dict[tuple[int, int], int] = {}
    next_slot = [0] * h.n_rows
    for pe in range(p):
        for check, pos, _src, _uid, _rc in trace.arrivals[pe]:
            if not 0 <= check < h.n_rows:
                raise ConfigIntegrityError(f"PE {pe}: arrival for check {check}, outside the code")
            key = (check, pos)
            if key in slot_of:
                raise ConfigIntegrityError(f"duplicate arrival for {key}")
            if host[check] != pe:
                raise ConfigIntegrityError(
                    f"check {check} arrived at PE {pe}, hosted on {host[check]}"
                )
            slot_of[key] = next_slot[check]
            next_slot[check] += 1
    network_inputs = {(e.dst_check, e.dst_pos) for e in schedule.network_flits}
    stray = sorted(network_inputs ^ slot_of.keys())
    if stray:
        side = "trace" if stray[0] in slot_of else "schedule"
        raise ConfigIntegrityError(f"network input {stray[0]} is in the {side} only")
    fill_free_slots(slot_of, schedule.deg)

    wag: list[list[int]] = []
    for pe in range(p):
        addrs = [
            serve_pos[check] * n_d + slot_of[(check, pos)]
            for check, pos, _src, _uid, _rc in trace.arrivals[pe]
        ]
        if len(set(addrs)) != len(addrs):
            raise ConfigIntegrityError(f"WAG address collision on PE {pe}")
        wag.append(addrs)

    k_i = trace.k_i
    rm = [[0] * k_i for _ in range(p)]
    for node, ops in enumerate(trace.rm_ops):
        words = rm[node]
        for cycle, out, inp in ops:
            if not (0 <= cycle < k_i and 0 <= out < 5 and 0 <= inp < 5):
                raise ConfigIntegrityError(f"node {node}: routing operation {(cycle, out, inp)} "
                                           f"outside cycles 0..{k_i - 1} or ports 0..4")
            words[cycle] |= _OP_BITS[out][inp]

    fifo_depth = trace.fifo_max.copy()
    if fifo_pow2:
        fifo_depth = 1 << np.ceil(np.log2(np.maximum(fifo_depth, 1))).astype(np.int64)
        fifo_depth[trace.fifo_max == 0] = 0

    return ConfigImage(
        label=trace.label or h.label,
        n=trace.n,
        k_i=trace.k_i,
        n_d=n_d,
        n_pc=n_pc,
        pipeline_depth=trace.pipeline_depth,
        rm=rm,
        wag=wag,
        cnt_cmp=cnt_cmp,
        fifo_depth=fifo_depth,
        slot_of=slot_of,
        trace_digest=trace.content_digest(),
        mapping_digest=digests[1],
        h_digest=digests[0],
    )
