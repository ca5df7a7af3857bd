"""Cyclic redundancy checks used by the sector format.

The paper assumes ~15% sector overhead "for the sector header, error
correction, and cyclic redundancy check" (Section 3, following Pozidis
et al.).  We implement the two CRCs used by the sector codec:

* CRC-32 (IEEE 802.3 reflected polynomial) protecting the sector
  payload, and
* CRC-16-CCITT protecting the small sector header.

The hot path is the 536-byte frame check behind every sector
read/write, so the fast path hands both to the standard library's C
implementations: :func:`zlib.crc32` and :func:`binascii.crc_hqx` are
bit-identical to the definitions here, seeded continuation included.
The classic byte-at-a-time table loops, built from the polynomials,
remain as the reference implementation; each call resolves which path
runs through the lazy execution policy
(:func:`repro.api.resolve_vectorized` — explicit pin >
``repro.engine(...)`` context > policy > ``REPRO_SPAN_ENGINE``, read at
call time, so flipping the switch after import works).  Setting the
module flag ``USE_VECTORIZED`` to True/False pins this module
explicitly; ``None`` (the default) defers to the policy.
"""

from __future__ import annotations

import binascii
import zlib
from typing import List, Optional

from ..api.policy import resolve_vectorized

#: Tri-state module pin: True/False force the fast/reference paths,
#: None defers to the execution policy (resolved lazily per call).
USE_VECTORIZED: Optional[bool] = None


def _use_vectorized() -> bool:
    flag = USE_VECTORIZED
    return resolve_vectorized() if flag is None else bool(flag)

_CRC32_POLY = 0xEDB88320  # reflected 0x04C11DB7


def _build_crc32_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _CRC32_POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC32_TABLE = _build_crc32_table()


def _crc32_scalar(data: bytes, crc: int) -> int:
    """Byte-at-a-time reference implementation (pre-inverted state)."""
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC-32/IEEE of ``data``; ``crc`` seeds continuation."""
    if _use_vectorized():
        return zlib.crc32(data, crc)
    return _crc32_scalar(data, crc ^ 0xFFFFFFFF) ^ 0xFFFFFFFF


_CRC16_POLY = 0x1021  # CCITT


def _build_crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ _CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC16_TABLE = _build_crc16_table()


def _crc16_scalar(data: bytes, crc: int) -> int:
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def crc16_ccitt(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16-CCITT (init 0xFFFF) of ``data``."""
    if _use_vectorized():
        return binascii.crc_hqx(data, crc)
    return _crc16_scalar(data, crc)
