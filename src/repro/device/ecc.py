"""SECDED Hamming(72,64) error correction for sector frames.

Section 3 budgets ~15% sector overhead for "the sector header, error
correction, and cyclic redundancy check ... taking error correction
appropriate to the medium, the tips, etc. into account".  Patterned
media fail as isolated dot errors (a defective or disturbed dot), so a
single-error-correcting, double-error-detecting Hamming code over
64-bit words — the classic DRAM/disk-header choice — is appropriate.

The codec is driven by one precomputed per-byte table.  The Hamming
syndrome of a 72-bit word is the XOR of the positions of its set bits,
and its overall parity is the XOR of the bits, so packing each word
into 9 bytes, gathering one table entry per byte (syndrome in the low
seven bits, parity in the top bit) and XOR-reducing gives both at
once.  :func:`decode` reads them off the received word; :func:`encode`
reads them off the word with its check bits still zero and writes them
into the check bits.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReadError

DATA_BITS = 64
PARITY_BITS = 8  # 7 Hamming + 1 overall (SECDED)
CODE_BITS = DATA_BITS + PARITY_BITS
CODE_BYTES = CODE_BITS // 8
DATA_BYTES = DATA_BITS // 8

# Codeword positions 1..71 follow the standard Hamming convention:
# positions that are powers of two hold parity, the rest hold data.
# Position 0 holds the overall parity bit.  Check bit j of a table
# entry (j < 7: Hamming bit j, j = 7: overall parity) lives at
# _CHECK_POSITIONS[j].
_CHECK_POSITIONS = np.asarray([1, 2, 4, 8, 16, 32, 64, 0], dtype=np.intp)
_DATA_POSITIONS = np.asarray(
    [p for p in range(1, CODE_BITS) if p & (p - 1)], dtype=np.intp)
assert len(_DATA_POSITIONS) == DATA_BITS


def _build_table() -> np.ndarray:
    """Flat ``(9 * 256)`` table: entry ``256 * k + v`` is the syndrome
    (low seven bits) and parity (top bit) of byte value ``v`` at byte
    ``k`` of a packed codeword (bits MSB-first)."""
    table = np.zeros((CODE_BYTES, 256), dtype=np.uint8)
    for k in range(CODE_BYTES):
        for value in range(256):
            for i in range(8):
                if value & (0x80 >> i):
                    table[k, value] ^= 0x80 | (8 * k + i)
    return table.reshape(-1)


_TABLE = _build_table()
_TABLE_OFFSETS = np.arange(CODE_BYTES, dtype=np.intp) * 256


def _check(code: np.ndarray) -> np.ndarray:
    """Syndrome (bits 0..6) and overall parity (bit 7) of each word of
    an ``(nwords, 72)`` bit matrix."""
    packed = np.packbits(code.reshape(-1)).reshape(-1, CODE_BYTES)
    return np.bitwise_xor.reduce(
        _TABLE.take(packed + _TABLE_OFFSETS), axis=1)


def encode(data: bytes) -> np.ndarray:
    """Encode ``data`` (multiple of 8 bytes) into a flat bit array.

    Returns a uint8 array of length ``len(data)//8 * 72`` laid out as
    consecutive 72-bit codewords.
    """
    if len(data) % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    code = np.zeros((len(data) // DATA_BYTES, CODE_BITS), dtype=np.uint8)
    code[:, _DATA_POSITIONS] = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8)).reshape(-1, DATA_BITS)
    # the data's syndrome, written into the Hamming bits, zeroes the
    # word's syndrome; those bits add the syndrome's own parity to the
    # overall parity (row 0 of the table holds a byte's parity in its
    # top bit)
    check = _check(code)
    check ^= _TABLE.take(check & 0x7F) & 0x80
    code[:, _CHECK_POSITIONS] = np.unpackbits(
        check[:, None], axis=1, bitorder="little")
    return code.reshape(-1)


class ECCResult:
    """Decode outcome: the payload plus correction statistics.

    Attributes:
        data: corrected payload bytes.
        corrected: number of single-bit corrections applied.
    """

    __slots__ = ("data", "corrected")

    def __init__(self, data: bytes, corrected: int) -> None:
        self.data = data
        self.corrected = corrected


def decode(bits: np.ndarray) -> ECCResult:
    """Decode a flat codeword bit array produced by :func:`encode`.

    Corrects any single-bit error per 72-bit word; raises
    :class:`~repro.errors.ReadError` on an uncorrectable (double)
    error or on a syndrome that names no codeword position.
    """
    arr = np.asarray(bits, dtype=np.uint8).reshape(-1, CODE_BITS)
    check = _check(arr)
    syndromes = check & 0x7F
    odd = check >> 7
    # a nonzero syndrome under even parity is a double error
    double = (syndromes != 0) & (odd == 0)
    if double.any():
        raise ReadError(
            f"uncorrectable ECC error in {int(double.sum())} word(s)")
    # every odd-parity word holds one error, at the syndrome's position
    # (position 0, the overall-parity bit, carries no data)
    if (syndromes >= CODE_BITS).any():
        raise ReadError("invalid ECC syndrome")
    rows = np.flatnonzero(syndromes)
    if len(rows):
        arr = arr.copy()
        arr[rows, syndromes[rows]] ^= 1
    data = np.packbits(arr.take(_DATA_POSITIONS, axis=1)).tobytes()
    return ECCResult(data=data, corrected=int(odd.sum()))


def codeword_length(payload_bytes: int) -> int:
    """Encoded bit length for a payload of ``payload_bytes`` bytes."""
    if payload_bytes % DATA_BYTES:
        raise ValueError("payload must be a multiple of 8 bytes")
    return payload_bytes // DATA_BYTES * CODE_BITS
