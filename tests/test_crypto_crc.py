"""CRC-32 / CRC-16-CCITT known-answer and property tests."""

import binascii

import pytest

import repro.crypto.crc as crc_module
from repro.crypto.crc import crc16_ccitt, crc32


@pytest.mark.parametrize("data", [
    b"", b"a", b"123456789", b"hello world", bytes(range(256)),
])
def test_crc32_matches_binascii(data):
    assert crc32(data) == binascii.crc32(data)


def test_crc32_check_value():
    # the standard CRC-32 check value for "123456789"
    assert crc32(b"123456789") == 0xCBF43926


def test_crc16_ccitt_check_value():
    # CRC-16/CCITT-FALSE check value for "123456789"
    assert crc16_ccitt(b"123456789") == 0x29B1


def test_crc16_empty():
    assert crc16_ccitt(b"") == 0xFFFF  # init value untouched


def test_crc32_detects_single_bit_flip():
    data = bytearray(b"The quick brown fox jumps over the lazy dog")
    reference = crc32(bytes(data))
    for byte_index in (0, 10, len(data) - 1):
        for bit in (0, 3, 7):
            mutated = bytearray(data)
            mutated[byte_index] ^= 1 << bit
            assert crc32(bytes(mutated)) != reference


def test_crc16_detects_single_bit_flip():
    data = bytearray(b"sector header")
    reference = crc16_ccitt(bytes(data))
    for byte_index in range(len(data)):
        mutated = bytearray(data)
        mutated[byte_index] ^= 0x01
        assert crc16_ccitt(bytes(mutated)) != reference


def test_crc32_range():
    assert 0 <= crc32(b"anything") <= 0xFFFFFFFF


def test_crc16_range():
    assert 0 <= crc16_ccitt(b"anything") <= 0xFFFF


def test_crc32_deterministic():
    assert crc32(b"same") == crc32(b"same")


def test_crc32_seed_continuation_differs_from_fresh():
    first = crc32(b"part1")
    continued = crc32(b"part2", first)
    assert continued != crc32(b"part2")


_SEEDED = [(b"", 0), (b"", 0x1234), (b"a", 0xFFFF), (b"123456789", 0),
           (bytes(range(256)) * 3, 0xBEEF), (b"sector header", 0x8000)]


@pytest.mark.parametrize("data,seed", _SEEDED)
def test_crc16_ccitt_matches_binascii_crc_hqx(data, seed):
    assert crc16_ccitt(data, seed) == binascii.crc_hqx(data, seed)


@pytest.mark.parametrize("data,seed", _SEEDED)
def test_scalar_reference_matches_fast_path(data, seed):
    seed32 = seed * 0x10001  # spread into a full 32-bit register
    fast = (crc32(data), crc32(data, seed32), crc16_ccitt(data),
            crc16_ccitt(data, seed))
    crc_module.USE_VECTORIZED = False
    try:
        scalar = (crc32(data), crc32(data, seed32), crc16_ccitt(data),
                  crc16_ccitt(data, seed))
    finally:
        crc_module.USE_VECTORIZED = None
    assert scalar == fast


def test_crc32_continuation_equals_whole_message():
    whole = bytes(range(256)) * 5
    for split in (0, 1, 7, 536, len(whole)):
        assert crc32(whole[split:], crc32(whole[:split])) == crc32(whole)
        assert crc16_ccitt(whole[split:], crc16_ccitt(whole[:split])) \
            == crc16_ccitt(whole)
