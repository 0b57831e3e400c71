"""Registry of bundled standard code definitions.

Base matrices ship as QC data files; the 802.16e length family is derived
from the z=96 masters by the standard's proportional shift scaling, so every
expansion factor 24..96 (step 4) of the bundled rates is available.  The
data directory can be overridden with the NOCLDPC_DATA environment variable.

Names accepted by load_code:
  wimax_<N>_<M>   802.16e, N = 24z for z in 24,28,...,96; M = N/2 (rate 1/2)
                  or M = N/6 (rate 5/6)
  wifi_1944_486   802.11n rate 3/4, z = 81
  random_1057_244 fixed-seed random code, row degree 13 (rate 0.77 class)
"""

from __future__ import annotations

import os
from importlib import resources

from .matrix import ParityCheckMatrix
from .qc import QcDescription, expand_qc, parse_qc, scale_qc
from .randomgen import random_code

DATA_ENV = "NOCLDPC_DATA"
_RANDOM_CODE_SEED = 20304

_WIMAX_Z = tuple(range(24, 100, 4))
_WIMAX_BASES = {2: "wimax_r12_z96.qc", 6: "wimax_r56_z96.qc"}  # N/M -> data file


def _read_data_file(name: str) -> str:
    override = os.environ.get(DATA_ENV)
    if override:
        path = os.path.join(override, name)
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as fh:
                return fh.read()
    return resources.files("nocldpc.data").joinpath(name).read_text(encoding="ascii")


def _load_base(name: str, label: str) -> QcDescription:
    return parse_qc(_read_data_file(name), label=label)


def available_codes() -> list[str]:
    names = []
    for z in _WIMAX_Z:
        n = 24 * z
        names.append(f"wimax_{n}_{n // 2}")
        names.append(f"wimax_{n}_{n // 6}")
    names.append("wifi_1944_486")
    names.append("random_1057_244")
    return names


def qc_description(name: str) -> QcDescription:
    """Resolve a registry name to its (scaled) QC description."""
    parts = name.lower().split("_")
    if len(parts) == 3 and parts[0] == "wimax":
        n, m = int(parts[1]), int(parts[2])
        if n % 24:
            raise KeyError(f"{name}: 802.16e lengths are multiples of 24")
        z = n // 24
        if z not in _WIMAX_Z:
            raise KeyError(f"{name}: expansion factor {z} not in the 802.16e set")
        if m == 0 or n % m:
            raise KeyError(f"{name}: unsupported rate")
        base_file = _WIMAX_BASES.get(n // m)
        if base_file is None:
            raise KeyError(f"{name}: bundled 802.16e rates are 1/2 and 5/6")
        label = f"802.16e ({n},{m})"
        base = _load_base(base_file, label)
        return scale_qc(base, z, label=label) if z != base.z else base
    if name.lower() == "wifi_1944_486":
        return _load_base("wifi_r34_z81.qc", "802.11n (1944,486)")
    raise KeyError(f"unknown standard code {name!r}")


def load_code(name: str) -> ParityCheckMatrix:
    """Load a bundled code by registry name, layers set."""
    if name.lower() == "random_1057_244":
        return random_code(1057, 244, 13, seed=_RANDOM_CODE_SEED, label="random (1057,244)")
    return expand_qc(qc_description(name))
