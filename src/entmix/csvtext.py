"""fig2's and fig3's CSV text: each document's lines of NUL-padded fields, set a block at a time
in one buffer it reuses, and written in pieces less their NULs."""

import numpy as np


def _float_tables():
    # 1e-33 <= x < 10 prints as 24 bytes: row (e + 33) * 12 + kept - 1 of table (exponent e,
    # kept digits shown) ANDed with its 12 digits in groups of 1, 3, 4, 4 at words 1-4.  Bytes
    # 2-6 are "0.000", 7 digit 0, 8 its point, 8 + i digit i, 20-23 "e-EE", NUL where unshown;
    # digit 0 comes as "000d", whose '0's leave bytes 4-6 as they are.
    e, kept, b = np.arange(-33, 1)[:, None, None], np.arange(1, 13)[:, None], np.arange(24)
    keep = ((b == 7) | (b >= 9) & (b < 20) & (b - 8 < kept)    # the digits shown
            | (b == 8) & ((e == 0) | (e < -4)) & (kept > 1)    # a point after digit 0
            | (e >= -4) & (e < 0) & (b >= 2) & (b < 3 - e)     # "0." and -e - 1 zeros
            | (e < -4) & (b >= 20))                            # "e-EE"
    chars = np.frombuffer(b"".join(b"\0\x000.000\xff." + b"\xff" * 11 + b"e-%02d" % -x
                                   for x in range(-33, 1)), np.uint8).reshape(-1, 1, 24)
    table = (chars * keep).reshape(-1, 24).view(np.uint64)
    g = np.arange(10_000, dtype=np.uint16)
    four = (48 + g[:, None] // np.uint16([1000, 100, 10, 1]) % 10).astype(np.uint8)
    # the digits up to a group's last nonzero one, counted from digit 0 (a zero group: 1)
    kept_to = np.where(g > 0, 4 - np.argmax(four[:, ::-1] != 48, axis=1) + [[0], [4], [8]],
                       1).astype(np.uint8)
    three = four[:1000] | np.uint8([255, 0, 0, 0])             # a point, then 3 digits
    digits = [t.view(np.uint32).ravel() for t in (four, three, four, four)]
    return table, digits, kept_to, 10.0 ** np.arange(23)


_TABLE, _DIGITS, _KEPT_TO, _POW10 = _float_tables()   # built when fig2 or fig3 imports this
_PIECE_BYTES = 1 << 16   # under glibc's 128 KiB mmap threshold: a piece's copies reuse the heap


def text12(x):
    """format(v, ".12g") of each value of the 1-d float array x, NUL-padded to 24 bytes."""
    fast = (x > 0) & (x < np.inf)                 # log10 sees no 0, inf or nan
    xs = np.where(fast, x, 1.0)
    e = np.floor(np.log10(xs))
    k = np.clip(11 - e, 0, 44).astype(np.intp)
    # m = x 10**k by two exact powers of ten is within 2.3e-4 of it below 1e12, so an m 1e-3
    # from a rounding tie rounds as the exact product does
    m = xs * _POW10.take(np.minimum(k, 22)) * _POW10.take(np.maximum(k - 22, 0))
    fast &= (e >= -33) & (e <= 0) & (m >= 1e11) & (m < 1e12 - 0.5)   # rint(m) has 12 digits
    fast &= abs(m - np.floor(m) - 0.5) > 1e-3
    mant = np.where(fast, np.rint(m), 1e11).astype(np.int64)
    d0, top, mid = mant // 10**11, mant // 10**8, mant // 10**4
    groups = (d0, top - 1000 * d0, mid - 10**4 * top, mant - 10**4 * mid)
    kept = np.maximum.reduce([t.take(g) for t, g in zip(_KEPT_TO, groups[1:])])
    text = _TABLE.take((np.clip(e, -33, 0).astype(np.intp) + 33) * 12 + kept - 1, axis=0)
    for i, (t, g) in enumerate(zip(_DIGITS, groups)):
        text.view(np.uint32)[:, 1 + i] &= t.take(g)
    text = text.view("S24").ravel()
    text[~fast] = [format(v, ".12g") for v in x[~fast].tolist()]
    return text


def axis_text(values, chunk):
    """Each value's text, NUL-padded to 17 bytes, made ``chunk`` values at a time."""
    text = np.empty(len(values), "S17")
    for i in range(0, len(values), chunk):
        part = values[i:i + chunk].tolist()
        text[i:i + len(part)] = [format(v, ".12g") for v in part]
    return text


def writer(fh, shape, widths):
    """A document's block of ``shape`` lines, each of fields f0, f1, ... ``widths`` bytes wide,
    and its write(cells).  The "," after each field, and the line's newline after the last,
    are set here once; write(cells) writes a part of the block to fh less its NULs,
    _PIECE_BYTES at a time, never as one string."""
    block = np.empty(shape, [field for k, w in enumerate(widths)
                             for field in ((f"f{k}", f"S{w}"), (f"end{k}", "S1"))])
    for k in range(len(widths)):
        block[f"end{k}"] = b"," if k + 1 < len(widths) else b"\n"

    def write(cells):
        raw = cells.reshape(-1).view(np.uint8)
        for i in range(0, len(raw), _PIECE_BYTES):
            fh.write(raw[i:i + _PIECE_BYTES].tobytes().translate(None, b"\0").decode("ascii"))
    return block, write
