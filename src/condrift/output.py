"""The bytes condrift writes: every CSV float as ``%.17g`` writes it, and
the one JSON layout.

``format_floats`` formats float arrays in numpy batches; ``write_csv``
writes a table and ``write_blocks`` a series of blocks sharing one column,
both through it; ``write_json`` writes an object with two-space indents,
sorted keys and a trailing newline.
"""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

FORMAT_BATCH = 1 << 13  # values per numpy pass of format_floats and per write
_U64 = np.uint64


def _byte_words(chars) -> np.ndarray:
    """Rows of 24 bytes as three rows of native uint64 words: entry [w, i]
    is bytes 8w to 8w + 7 of row i, the first byte in the low bits."""
    words = np.asarray(chars, dtype=np.uint8).reshape(-1, 24).view("<u8")
    return np.ascontiguousarray(words.astype(np.uint64).T)


@functools.cache
def _tables() -> SimpleNamespace:
    """format_floats' tables, built on its first call: 5^s and 10^s by
    s = 16 - k; by j + 4, the smallest double at or above 10^j (1 / 10^-j
    lies above 10^j); by a four-digit group g, its ASCII digits and, at g's
    place p in the 17 digits, how many of them run to the last nonzero one
    (0 for g = 0); byte masks of the 17-digit string, by w: its first w
    bytes; by w * 18 + end: bytes w to end - 1; and the marks %g adds, by
    2 * (k + 4) + (a fraction is written): "0." and -k - 1 zeros below 1,
    else a point after k + 1 digits if a fraction follows."""
    pow5 = 5 ** np.arange(21, dtype=np.uint64)
    pow10 = np.ldexp(pow5.astype(float), np.arange(21))
    group = np.arange(10_000, dtype=np.int16)
    byte = np.arange(24)
    k = np.arange(-4, 16)[:, None, None]
    return SimpleNamespace(
        pow5=pow5, pow10=pow10,
        ten_at_least=np.concatenate([1.0 / pow10[4:0:-1], pow10[:17]]),
        ascii4=(48 + group[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
                ).astype(np.uint8).view("<u4").ravel().astype(np.uint64),
        significant=np.where(group > 0, np.arange(4, 17, 4, dtype=np.uint8)[:, None]
                             - sum(group % 10 ** j == 0 for j in (1, 2, 3)), 0
                             ).astype(np.uint8),
        leading=_byte_words(np.where(byte < np.arange(17)[:, None], 0xFF, 0)),
        between=_byte_words(np.where((byte >= np.arange(17)[:, None, None])
                                     & (byte < np.arange(18)[:, None]), 0xFF, 0)),
        marks=_byte_words(np.where(
            k < 0, np.where(byte == 1, ord("."), np.where(byte <= -k, ord("0"), 0)),
            np.where((byte == k + 1) & (np.arange(2)[:, None] == 1), ord("."), 0))))


def _shift_bytes(words: list, bits: np.ndarray) -> list:
    """Strings held in three word arrays, moved up by ``bits`` (< 64) each."""
    back = _U64(64) - bits
    return [words[0] << bits, (words[1] << bits) | (words[0] >> back),
            (words[2] << bits) | (words[1] >> back)]


def _decimal(x: np.ndarray, tab: SimpleNamespace) -> tuple:
    """D and k of |x| where 1e-4 <= |x| < 2^51 (``fast``), D = 0 and k = 0
    elsewhere."""
    size = np.abs(x)
    fast = (size >= 1e-4) & (size < 2.0 ** 51)
    y = np.where(fast, size, 1.0)
    u = y.view(np.uint64)
    biased = (u >> _U64(52)).view(np.int64)
    # floor(e log10 2) for the binary exponent e is k or k - 1
    k = ((biased - 1023) * 78913) >> 18
    k += y >= tab.ten_at_least[k + 5]
    s = 16 - k
    b = (1059 - biased + k).view(np.uint64)  # -(q + s)
    m = (u & _U64((1 << 52) - 1)) | _U64(1 << 52)
    # an even estimate 20 to 46 units below |x| 10^s, and the remainder
    est = ((y * tab.pow10[s]).astype(np.uint64) - _U64(32)) & _U64((1 << 64) - 2)
    rest = m * tab.pow5[s] - (est << b)
    # add rest / 2^b rounded half to even: est is even, so the parity of
    # the sum is that of rest >> b
    half = (_U64(1) << (b - _U64(1))) - _U64(1)
    d = (est + ((rest + half + ((rest >> b) & _U64(1))) >> b)).view(np.int64)
    d *= fast  # zeros format as D = 0, k = 0: "0"
    k *= fast
    return d, k, fast


def _digits(d: np.ndarray, tab: SimpleNamespace) -> tuple:
    """The 17 ASCII digits of D in three words, and how many of them run
    to the last nonzero one."""
    high = d // 10 ** 9
    low = d - high * 10 ** 9
    tens = low // 10
    units = low - tens * 10
    first, third = high // 10_000, tens // 10_000
    groups = (first, high - first * 10_000, third, tens - third * 10_000)
    ascii4, counts = tab.ascii4, tab.significant
    words = [ascii4.take(groups[0]) | (ascii4.take(groups[1]) << _U64(32)),
             ascii4.take(groups[2]) | (ascii4.take(groups[3]) << _U64(32)),
             units.view(np.uint64) + _U64(ord("0"))]
    significant = np.maximum(
        np.maximum(counts[0].take(groups[0]), counts[1].take(groups[1])),
        np.maximum(counts[2].take(groups[2]), counts[3].take(groups[3])))
    significant[units != 0] = 17
    return words, significant


def _layout(words: list, significant: np.ndarray, k: np.ndarray,
            sign: np.ndarray, tab: SimpleNamespace) -> np.ndarray:
    """%g's text of each D, k and sign, as rows of three words."""
    whole = np.maximum(k + 1, 0)  # digits before the point
    fraction = significant > whole
    marks = 2 * (k + 4) + fraction
    cut = whole * 18 + np.maximum(significant, whole)
    head = [w & lead.take(whole) | mark.take(marks)
            for w, lead, mark in zip(words, tab.leading, tab.marks)]
    tail = [w & between.take(cut) for w, between in zip(words, tab.between)]
    lift = (sign + _U64(1) + np.maximum(-k, 0).view(np.uint64)) << _U64(3)
    head = _shift_bytes(head, sign << _U64(3))
    tail = _shift_bytes(tail, lift)
    head[0] |= sign * _U64(ord("-"))
    return np.stack([h | t for h, t in zip(head, tail)], axis=1)


def _format_batch(x: np.ndarray, tab: SimpleNamespace) -> list:
    d, k, fast = _decimal(x, tab)
    words, significant = _digits(d, tab)
    sign = x.view(np.uint64) >> _U64(63)
    out = _layout(words, significant, k, sign, tab)
    texts = out.astype("<u8", copy=False).view("S24").ravel().tolist()
    for i in np.flatnonzero(~fast & (x != 0)).tolist():
        texts[i] = b"%.17g" % x[i]
    return texts


def format_floats(values) -> list:
    """The bytes of ``b"%.17g" % v`` for every float ``v`` of ``values``,
    which reads back to the same float, as a list in ``ravel`` order.

    Zeros and 1e-4 <= |v| < 2^51 (the fast range) are formatted by numpy,
    FORMAT_BATCH values a pass; every other value (subnormals, tiny or
    huge values, inf and nan) by ``b"%.17g" % v`` itself.

    For |v| = m 2^q, m the 53-bit significand, the decimal exponent k
    (10^k <= |v| < 10^(k+1)) is floor(log10 2^(q+52)) or one more, which
    one comparison with the table of powers of ten decides exactly. The
    17 significant digits are D = m 5^s 2^(q+s), s = 16 - k, rounded half
    to even as CPython rounds. In the fast range s <= 20 and b = -(q+s)
    is 1 to 46, so D is m 5^s, below 2^100, shifted down by b bits. The
    float |v| 10^s is within 12 units of that quotient; the remainder of
    m 5^s over an even estimate 20 to 46 units below it, times 2^b, is
    below 2^52, so it is exact in uint64 arithmetic, which wraps, and
    gives D and its rounding without forming the product. No D rounds up
    to 10^17 there: that needs |v| within 5e-18 of 10^(k+1), relative,
    and the double below each power of ten in the range is more than
    2^-54 below it. The digits come from a 10 000-entry table of four
    ASCII digits and are laid out as %g lays them out for -4 <= k < 17:
    positional, trailing zeros and a bare point dropped, and a "-" for
    a set sign bit, so -0.0 gives "-0".
    """
    x = np.ascontiguousarray(values, dtype=float).ravel()
    tab = _tables()
    texts: list = []
    for start in range(0, x.size, FORMAT_BATCH):
        texts += _format_batch(x[start:start + FORMAT_BATCH], tab)
    return texts


def write_csv(path: Path, header: list, rows) -> None:
    """Write a float table, every value as format_floats writes it (the
    bytes of %.17g, which read back to the same float). ``rows`` is a
    2-D array or any iterable of equal-length rows; each FORMAT_BATCH
    values of it are formatted by one format_floats call and written by
    one bytes % operation."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows),
                       dtype=float)
    line = b",".join([b"%s"] * len(header)) + b"\n"
    step = max(1, FORMAT_BATCH // len(header))
    with path.open("wb") as out:
        out.write(",".join(header).encode() + b"\n")
        for start in range(0, len(table), step):
            chunk = table[start:start + step]
            out.write(line * len(chunk) % tuple(format_floats(chunk)))


def write_blocks(path: Path, header: list, column, blocks) -> None:
    """Write blocks ``(t, values)`` as rows ``t, column[i], values[i]``,
    every value as format_floats writes it (the bytes of %.17g); ``column``
    and each ``values`` are float arrays of one length, and ``column`` is
    formatted once. The blocks are read one at a time and written in
    batches of FORMAT_BATCH // (len(column) + 1) blocks, or one larger
    block: a batch's times and values go through one format_floats call and
    one bytes % operation, so memory does not grow with the block count."""
    tail = [b""] + [b",%s,%%s\n" % c for c in format_floats(column)]
    per_batch = max(1, FORMAT_BATCH // (len(column) + 1))
    blocks = iter(blocks)
    with path.open("wb") as out:
        out.write(",".join(header).encode() + b"\n")
        while batch := list(itertools.islice(blocks, per_batch)):
            texts = format_floats(np.concatenate(
                [[t for t, _ in batch]] + [values for _, values in batch]))
            template = b"".join(t.join(tail) for t in texts[:len(batch)])
            out.write(template % tuple(texts[len(batch):]))


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as JSON: two-space indents, sorted keys, a final newline."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
