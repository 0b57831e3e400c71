from .layout import CodeLayout
from .nms import (
    DecodeParams,
    DecodeResult,
    decode_layered_nms,
    decode_layered_nms_batch,
    syndrome_check,
)
from .spa import decode_flooding_spa, decode_flooding_spa_batch

__all__ = [
    "CodeLayout",
    "DecodeParams",
    "DecodeResult",
    "decode_flooding_spa",
    "decode_flooding_spa_batch",
    "decode_layered_nms",
    "decode_layered_nms_batch",
    "syndrome_check",
]
