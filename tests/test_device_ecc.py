"""Hamming(72,64) SECDED codec tests."""

import numpy as np
import pytest

from repro.device import ecc
from repro.errors import ReadError


def test_roundtrip_no_errors():
    data = bytes(range(64))
    bits = ecc.encode(data)
    result = ecc.decode(bits)
    assert result.data == data
    assert result.corrected == 0


def test_codeword_length():
    assert ecc.codeword_length(8) == 72
    assert ecc.codeword_length(536) == 4824
    with pytest.raises(ValueError):
        ecc.codeword_length(7)


def test_encode_rejects_partial_words():
    with pytest.raises(ValueError):
        ecc.encode(b"short")


def test_single_bit_error_corrected_every_position():
    data = b"\xa5" * 8
    clean = ecc.encode(data)
    for position in range(ecc.CODE_BITS):
        corrupted = clean.copy()
        corrupted[position] ^= 1
        result = ecc.decode(corrupted)
        assert result.data == data
        assert result.corrected == 1


def test_single_error_per_word_in_multiword_frame():
    data = bytes(range(256)) * 2  # 64 words
    clean = ecc.encode(data)
    corrupted = clean.copy()
    # one flipped bit in each of three different words
    for word in (0, 30, 63):
        corrupted[word * ecc.CODE_BITS + 17] ^= 1
    result = ecc.decode(corrupted)
    assert result.data == data
    assert result.corrected == 3


def test_double_bit_error_detected_not_miscorrected():
    data = b"\x37" * 8
    clean = ecc.encode(data)
    corrupted = clean.copy()
    corrupted[5] ^= 1
    corrupted[40] ^= 1
    with pytest.raises(ReadError):
        ecc.decode(corrupted)


def test_overall_parity_bit_flip_is_benign():
    data = b"\x00" * 8
    clean = ecc.encode(data)
    corrupted = clean.copy()
    corrupted[0] ^= 1  # the overall-parity position
    result = ecc.decode(corrupted)
    assert result.data == data


def test_random_payloads_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        data = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        assert ecc.decode(ecc.encode(data)).data == data


def test_decode_requires_whole_codewords():
    with pytest.raises(ValueError):
        ecc.decode(np.zeros(71, dtype=np.uint8))


def test_all_ones_payload():
    data = b"\xff" * 64
    assert ecc.decode(ecc.encode(data)).data == data


# -- the table-driven codec against the position definition ------------------
#
# The reference below is written out from the Hamming layout alone:
# position 0 is the overall parity bit, powers of two hold the Hamming
# parity bits, every other position up to 71 holds the next data bit.
# Hamming bit j is the parity of the positions with bit j set, and the
# syndrome of a received word collects the same per-bit parities.

_REF_PARITY = [1, 2, 4, 8, 16, 32, 64]
_REF_DATA = [p for p in range(1, ecc.CODE_BITS) if p not in _REF_PARITY]


def _ref_encode(data):
    out = []
    for w in range(len(data) // 8):
        bits = np.unpackbits(np.frombuffer(data[8 * w:8 * w + 8], np.uint8))
        code = [0] * ecc.CODE_BITS
        for pos, bit in zip(_REF_DATA, bits):
            code[pos] = int(bit)
        for j, pos in enumerate(_REF_PARITY):
            code[pos] = sum(code[p] for p in range(1, ecc.CODE_BITS)
                            if p & (1 << j) and p != pos) % 2
        code[0] = sum(code[1:]) % 2
        out.extend(code)
    return np.asarray(out, dtype=np.uint8)


def _ref_decode(bits):
    """``(data, corrected)``, or ``ReadError`` for an uncorrectable or
    invalid word anywhere in the run."""
    words = np.asarray(bits, dtype=np.uint8).reshape(-1, ecc.CODE_BITS)
    data, corrected = [], 0
    for word in words.tolist():
        syndrome = 0
        for j in range(7):
            syndrome |= (sum(word[p] for p in range(1, ecc.CODE_BITS)
                             if p & (1 << j)) % 2) << j
        odd = sum(word) % 2
        if syndrome and not odd:
            return ReadError  # double error
        if odd:
            if syndrome >= ecc.CODE_BITS:
                return ReadError  # names no codeword position
            word[syndrome] ^= 1
            corrected += 1
        data.extend(word[p] for p in _REF_DATA)
    return np.packbits(np.asarray(data, np.uint8)).tobytes(), corrected


def _decoded(bits):
    try:
        result = ecc.decode(bits)
    except ReadError:
        return ReadError
    return result.data, result.corrected


@pytest.mark.parametrize("nbytes", [8, 536, 4 * 536])
def test_encode_matches_reference(nbytes):
    rng = np.random.default_rng(nbytes)
    for _ in range(3):
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        bits = ecc.encode(data)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, _ref_encode(data))


@pytest.mark.parametrize("frames", [1, 3])
def test_decode_matches_reference_under_random_flips(frames):
    """Up to three flips per word: single frames (4824 bits) and runs.
    Most multi-word runs hold some double error; words are flipped
    sparsely so runs that decode are common too."""
    rng = np.random.default_rng(frames)
    nbytes = 536 * frames
    outcomes = set()
    for trial in range(40):
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        bits = ecc.encode(data).reshape(-1, ecc.CODE_BITS).copy()
        max_flips = trial % 4
        for word in np.flatnonzero(rng.random(len(bits)) < 0.05):
            flips = int(rng.integers(0, max_flips + 1))
            bits[word, rng.choice(ecc.CODE_BITS, flips, replace=False)] ^= 1
        expected = _ref_decode(bits.reshape(-1))
        assert _decoded(bits.reshape(-1)) == expected
        outcomes.add(expected is ReadError)
    assert outcomes == {True, False}


def test_every_one_to_three_flips_of_a_word_matches_reference():
    rng = np.random.default_rng(3)
    clean = ecc.encode(rng.integers(0, 256, 8, dtype=np.uint8).tobytes())
    for flips in (1, 2, 3):
        for _ in range(300):
            bits = clean.copy()
            bits[rng.choice(ecc.CODE_BITS, flips, replace=False)] ^= 1
            assert _decoded(bits) == _ref_decode(bits)


def test_syndrome_past_the_codeword_is_not_miscorrected():
    """Flips at 64, 9 and 1 give syndrome 64^9^1 = 72 with odd parity:
    a triple error that names no position.  It must not be "corrected"
    into a wrong data bit."""
    bits = ecc.encode(b"\x00" * 8)
    for position in (64, 9, 1):
        bits[position] ^= 1
    with pytest.raises(ReadError, match="invalid ECC syndrome"):
        ecc.decode(bits)


def test_overall_parity_flip_counted_beside_a_corrected_word():
    data = bytes(range(16))
    bits = ecc.encode(data)
    bits[0] ^= 1                      # word 0: overall parity bit only
    bits[ecc.CODE_BITS + 17] ^= 1     # word 1: a data bit
    result = ecc.decode(bits)
    assert result.data == data
    assert result.corrected == 2
