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

import numpy as np

from ..codes.matrix import ParityCheckMatrix
from ..jsonfields import (
    all_ints,
    frozen_int64,
    int_list,
    int_table,
    object_json,
    rows_text,
    table_json,
    typed,
)
from ..mapper import Mapping
from ..nocsim.engine import HOP_CYCLES
from ..nocsim.schedule import (
    DST_CHECK,
    DST_POS,
    SRC_CHECK,
    SRC_POS,
    InjectionSchedule,
    _schedule_for,
)
from ..nocsim.trace import NocTrace

FORMAT = "nocldpc-config-v1"
_BIN_MAGIC = b"NOCLDPCC"
# check:position in canonical decimal, below 10**18 so that both fit in int64
_SLOT_KEY = re.compile(r"(0|[1-9][0-9]{0,17}):(0|[1-9][0-9]{0,17})")
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


# the word bits of each single crossbar setting, _OP_BITS[out_port, in_port]
_OP_BITS = np.array([[pack_rm_word([(out, inp)]) for inp in range(5)] for out in range(5)])


def unpack_rm_word(word: int) -> list[tuple[int, int]]:
    sel = []
    for out in range(5):
        nibble = (word >> (4 * out)) & 0xF
        if nibble & 0x8:
            sel.append((out, nibble & 0x7))
    return sel


@dataclass(frozen=True, eq=False)
class ConfigImage:
    """The static configuration of every router and PE for one code.

    An image is immutable: its tables are tuples of ints or read-only int64
    arrays, so its payload texts and payload digest are computed at most
    once.  Built without a digest, the image seals itself with that payload
    digest.
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
    slots: np.ndarray  # (E, 3) rows (check, position, slot in its block), by (check, position)
    trace_digest: str
    mapping_digest: str
    h_digest: str
    digest: str | None = None

    def __post_init__(self):
        for name in ("rm", "wag"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        object.__setattr__(self, "cnt_cmp", tuple(tuple(map(tuple, pe)) for pe in self.cnt_cmp))
        object.__setattr__(self, "fifo_depth", frozen_int64(self.fifo_depth))
        object.__setattr__(self, "slots", frozen_int64(self.slots).reshape(-1, 3))
        if self.digest is None:
            object.__setattr__(self, "digest", self.compute_digest())

    @property
    def p(self) -> int:
        return self.n * self.n

    @cached_property
    def _members(self) -> dict[str, str]:
        """The JSON text of each payload field, with the compact separators."""
        def text(value):
            return json.dumps(value, separators=(",", ":"), check_circular=False)

        return {
            "format": text(FORMAT),
            "label": text(self.label),
            "n": text(self.n),
            "k_i": text(self.k_i),
            "n_d": text(self.n_d),
            "n_pc": text(self.n_pc),
            "pipeline_depth": text(self.pipeline_depth),
            "rm": text(self.rm),
            "wag": text(self.wag),
            "cnt_cmp": text(self.cnt_cmp),
            "fifo_depth": table_json(self.fifo_depth),
            "slot_of": slot_map_json(self.slots),
            "trace_digest": text(self.trace_digest),
            "mapping_digest": text(self.mapping_digest),
            "h_digest": text(self.h_digest),
        }

    @cached_property
    def _payload_digest(self) -> str:
        text = object_json(self._members)
        return hashlib.sha256(text.encode()).hexdigest()

    def compute_digest(self) -> str:
        return self._payload_digest

    def verify_digest(self) -> None:
        if self.digest != self.compute_digest():
            raise ConfigIntegrityError("configuration image digest mismatch")

    def to_json(self) -> str:
        """The payload and the digest as json.dumps(sort_keys=True) writes
        them with its default separators.  Only the int tables and the slot
        map's keys hold the compact texts' separators, so each of those
        takes a space after its "," and after its keys' closing quote."""
        members = {key: (_loosened(text) if key in _INT_MEMBERS else text)
                   for key, text in self._members.items()}
        return object_json({**members, "digest": json.dumps(self.digest)}, ", ", ": ")

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
            img = cls(
                label=typed(obj, "label", str),
                n=typed(obj, "n"),
                k_i=typed(obj, "k_i"),
                n_d=typed(obj, "n_d"),
                n_pc=typed(obj, "n_pc"),
                pipeline_depth=typed(obj, "pipeline_depth"),
                rm=[int_list(node, "routing memory") for node in obj["rm"]],
                wag=[int_list(pe, "WAG table") for pe in obj["wag"]],
                cnt_cmp=[int_table(pe, 2, "CNT/CMP").tolist() for pe in obj["cnt_cmp"]],
                fifo_depth=int_table(obj["fifo_depth"], 5, "FIFO depth"),
                slots=_read_slot_map(obj["slot_of"]),
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
        if img.k_i:
            # the last flit lands in cycle k_i - 1, HOP_CYCLES after its
            # ejection pop, so that pop is the program's last word
            busy = np.flatnonzero(np.any(img.rm, axis=0))
            last = int(busy[-1]) if len(busy) else -1
            if last != img.k_i - 1 - HOP_CYCLES:
                raise ConfigIntegrityError(
                    f"the last routing word is at cycle {last}, a program of k_i {img.k_i} "
                    f"ends at cycle {img.k_i - 1 - HOP_CYCLES}"
                )
        return img

    def rm_to_binary(self) -> bytes:
        """Compact fixed-width dump of the routing memories."""
        head = _BIN_MAGIC + struct.pack("<III", self.n, self.k_i, self.p)
        body = b"".join(
            struct.pack(f"<{self.k_i}I", *node) for node in self.rm
        )
        return head + body


_INT_MEMBERS = ("rm", "wag", "cnt_cmp", "fifo_depth", "slot_of")


def _loosened(text: str) -> str:
    """A compact JSON text of ints and "check:position" keys with the default
    separators ", " and ": "."""
    return text.replace(",", ", ").replace('":', '": ')


def slot_map_json(slots: np.ndarray) -> str:
    """The compact JSON object {"check:position": slot} of (check, position,
    slot) rows, its keys in the string order json.dumps(sort_keys=True)
    gives them."""
    order = _key_order(slots[:, 0], slots[:, 1])
    return "{" + rows_text(slots[order], '"', (":", '":'), "", ",")[0] + "}"


_TENS = 10 ** np.arange(19, dtype=np.int64)


def _key_order(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The order of the strings f"{c}:{p}" of non-negative ints, by
    lexsort over their characters, one key per place: 0 past the end of
    the string, 1..10 for the digits and 11 for the colon, which sorts
    after them."""
    c_digits, p_digits = (np.searchsorted(_TENS, x, side="right").clip(1) for x in (c, p))
    length = int(c_digits.max() + 1 + p_digits.max()) if len(c) else 0
    places = []
    for i in range(length):
        code = np.zeros(len(c), dtype=np.int64)
        in_c = i < c_digits
        code[in_c] = c[in_c] // _TENS[(c_digits - 1 - i)[in_c]] % 10 + 1
        code[i == c_digits] = 11
        j = i - c_digits - 1
        in_p = (j >= 0) & (j < p_digits)
        code[in_p] = p[in_p] // _TENS[(p_digits - 1 - j)[in_p]] % 10 + 1
        places.append(code)
    return np.lexsort(places[::-1]) if places else np.arange(len(c))


def _read_slot_map(slot_of: dict) -> np.ndarray:
    """A JSON slot map as rows (check, position, slot), by (check, position).

    Keys must be written as slot_map_json writes them: two plain decimals
    without sign, spaces, underscores or leading zeros, joined by a colon."""
    slots = list(slot_of.values())
    if not all_ints(slots):
        raise ValueError("slots must be integers")
    if not all(map(_SLOT_KEY.fullmatch, slot_of)):
        bad = next(k for k in slot_of if not _SLOT_KEY.fullmatch(k))
        raise ValueError(f"slot map key {bad!r} does not read check:position in plain decimal")
    # each key is two decimals and a colon, so the joined keys parse as
    # the numbers c0 p0 c1 p1 ...
    numbers = np.fromstring(" ".join(slot_of).replace(":", " "), dtype=np.int64, sep=" ")
    rows = np.column_stack((numbers.reshape(-1, 2), np.fromiter(slots, np.int64, len(slots))))
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def read_side(schedule: InjectionSchedule) -> tuple[int, int, tuple]:
    """The image's read side: N_d (block stride, the widest degree), N_pc (the
    most checks on one PE) and per PE the CNT/CMP (block offset, degree) of
    each served check, in serving order."""
    deg = schedule.deg
    n_d = max(deg, default=0)
    cnt_cmp = tuple(tuple((k * n_d, deg[m]) for k, m in enumerate(rows)) for rows in schedule.order)
    return n_d, max(map(len, schedule.order), default=0), cnt_cmp


def fill_free_slots(slots: np.ndarray, deg: tuple[int, ...]) -> None:
    """Give each check's inputs that have no slot yet (bypass, wrap-in-place,
    self) the check's free slots, in position order.  slots holds one entry
    per (check, position) in check order, -1 for an input without a slot;
    the slots given must be distinct per check and below its degree."""
    deg = np.asarray(deg, dtype=np.int64)
    first = np.repeat(np.cumsum(deg) - deg, deg)  # each entry's check's first entry
    given = slots >= 0
    taken = np.zeros(len(slots), dtype=bool)
    taken[first[given] + slots[given]] = True
    slots[~given] = (np.arange(len(slots)) - first)[~taken]


def slot_map(schedule: InjectionSchedule, slots: np.ndarray) -> np.ndarray:
    """Rows (check, position, slot) from the slots of the schedule's (check,
    position) entries, which are in (check, position) order."""
    return np.column_stack((schedule.emissions[:, [SRC_CHECK, SRC_POS]], slots))


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
    host = np.asarray(schedule.host, dtype=np.int64)
    deg = np.asarray(schedule.deg, dtype=np.int64)

    # slots: network arrivals claim slots in arrival order, the remaining
    # inputs fill the leftover slots
    arrivals = np.concatenate(trace.arrivals)
    pe = np.repeat(np.arange(p), [len(a) for a in trace.arrivals])
    check, pos = arrivals[:, 0], arrivals[:, 1]
    _check_arrivals(check, pos, pe, host)
    _check_network_inputs(check, pos, schedule.network_flits)
    by_check = np.argsort(check, kind="stable")
    rank = np.empty(len(check), dtype=np.int64)  # the k-th arrival of its check gets slot k
    rank[by_check] = np.arange(len(check)) - np.searchsorted(check[by_check], check[by_check])
    slots = np.full(int(deg.sum()), -1, dtype=np.int64)
    first = np.cumsum(deg) - deg
    slots[first[check] + pos] = rank
    fill_free_slots(slots, schedule.deg)

    addrs = np.asarray(schedule.serve_pos, dtype=np.int64)[check] * n_d + rank
    wag = [part.tolist() for part in np.split(addrs, np.cumsum(np.bincount(pe, minlength=p))[:-1])]

    k_i = trace.k_i
    ops = np.concatenate(trace.rm_ops)
    node = np.repeat(np.arange(p), [len(o) for o in trace.rm_ops])
    cycle, out, inp = ops.T
    outside = (cycle < 0) | (cycle >= k_i) | (out < 0) | (out >= 5) | (inp < 0) | (inp >= 5)
    if outside.any():
        i = int(np.flatnonzero(outside)[0])
        raise ConfigIntegrityError(f"node {node[i]}: routing operation {tuple(ops[i].tolist())} "
                                   f"outside cycles 0..{k_i - 1} or ports 0..4")
    words = np.zeros((p, k_i), dtype=np.int64)
    np.bitwise_or.at(words, (node, cycle), _OP_BITS[out, inp])

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
        rm=words.tolist(),
        wag=wag,
        cnt_cmp=cnt_cmp,
        fifo_depth=fifo_depth,
        slots=slot_map(schedule, slots),
        trace_digest=trace.content_digest(),
        mapping_digest=digests[1],
        h_digest=digests[0],
    )


def _check_arrivals(check: np.ndarray, pos: np.ndarray, pe: np.ndarray, host: np.ndarray) -> None:
    """Each arrival names a check of the code, hosted on the PE it reaches,
    and no (check, position) arrives twice.  The first arrival, in PE and
    arrival order, that breaks a rule raises."""
    outside = (check < 0) | (check >= len(host))
    order = np.lexsort((np.arange(len(check)), pos, check))
    again = np.zeros(len(check), dtype=bool)
    again[order[1:]] = (check[order[1:]] == check[order[:-1]]) & (pos[order[1:]] == pos[order[:-1]])
    elsewhere = ~outside & (host[np.where(outside, 0, check)] != pe)
    bad = np.flatnonzero(outside | again | elsewhere)
    if not len(bad):
        return
    i = bad[0]
    c, at, where = int(check[i]), int(pos[i]), int(pe[i])
    if outside[i]:
        raise ConfigIntegrityError(f"PE {where}: arrival for check {c}, outside the code")
    if again[i]:
        raise ConfigIntegrityError(f"duplicate arrival for {(c, at)}")
    raise ConfigIntegrityError(f"check {c} arrived at PE {where}, hosted on {int(host[c])}")


def _check_network_inputs(check: np.ndarray, pos: np.ndarray, flits: np.ndarray) -> None:
    """The arrivals are the schedule's network inputs; the smallest
    (check, position) in only one of them raises."""
    c = np.concatenate((check, flits[:, DST_CHECK]))
    p = np.concatenate((pos, flits[:, DST_POS]))
    order = np.lexsort((p, c))
    c, p = c[order], p[order]
    same = (c[1:] == c[:-1]) & (p[1:] == p[:-1])
    paired = np.zeros(len(c), dtype=bool)
    paired[1:] |= same
    paired[:-1] |= same
    stray = np.flatnonzero(~paired)
    if len(stray):
        i = stray[0]
        side = "trace" if order[i] < len(check) else "schedule"
        raise ConfigIntegrityError(f"network input {(int(c[i]), int(p[i]))} is in the {side} only")
