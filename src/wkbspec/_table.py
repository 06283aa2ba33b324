"""The resolvent table's text: rows of floats in the bytes of cli._FMT.

A format call per float costs about 1.3 us (2-core x86 VM), more than
the Green-kernel solve of a resolvent op on a few thousand rows;
fmt_columns formats a whole table with numpy.  cli imports this module
only when it writes a resolvent table, so no other subcommand compiles it.
"""

import numpy as np

from .cli import _FMT

# (hi, lo) with hi + lo = 10**k to about 106 bits, built on the first use of each k
_POW10 = {}
# rows formatted at a time by fmt_columns: its scratch arrays stay near 0.5 MB
# for three columns, below the strings of the per-row path, at the same speed
_CHUNK_ROWS = 1024


def _pow10(k: int):
    pair = _POW10.get(k)
    if pair is None:
        if k >= 0:
            exact = 10**k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            den = 10**-k
            hi = 1 / den  # int true division rounds correctly
            p, q = hi.as_integer_ratio()
            lo = (q - p * den) / (q * den)
        pair = _POW10[k] = (hi, lo)
    return pair


def _split(a: np.ndarray):
    """Veltkamp split: a = hi + lo with 26-bit halves whose products are exact."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _decimal(x: np.ndarray):
    """(digits, exponent) of _FMT.format(x) for each finite x: the 16
    significant digits as an int in [10**15, 10**16) (0 for a zero) and the
    decimal exponent.

    a = |x| is scaled to q = a 10**(15 - e), e = floor(log10 a), as a
    double-double p + t (Dekker's two-product, no FMA needed), so the floor
    of q and its fraction are exact to about 1e-15, and digits round to
    nearest.  Taken from _FMT itself instead: a magnitude outside
    [1e-280, 1e280], where the products could leave the normal range; a
    fraction within 1e-6 of 1/2, where ties go to even; and digits that
    leave [10**15, 10**16), which happens only next to a power of ten, where
    log10 can put e one off or the digits round up to 10**16.  The lower
    bound is checked before rounding: 1e23 = 9.99...916e22 scales to
    999999999999999.92 at e = 23, which would round to 10**15.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 15 - e
    k0 = int(k.min())
    hi, lo = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T
    hi, lo = hi[k - k0], lo[k - k0]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(p)
    frac = (p - whole) + t  # in (-2, 2): |t| <= ulp(p) / 2 + 1e-15 and ulp(p) <= 2
    carry = np.floor(frac)
    digits = whole.astype(np.int64) + carry.astype(np.int64)
    frac -= carry
    zero = x == 0
    own = ~(fast | zero) | (digits < 10**15) | (np.abs(frac - 0.5) < 1e-6)
    digits += frac > 0.5
    own |= digits >= 10**16
    digits[zero], e[zero] = 0, 0
    for i in np.flatnonzero(own):
        mant, exp = _FMT.format(x[i]).split("e")
        digits[i], e[i] = abs(int(mant.replace(".", ""))), int(exp)
    return digits, e


def fmt_columns(*cols) -> str:
    """Rows of comma-separated _FMT fields, each row ending in a newline: the
    same bytes as ",".join(map(cli._num, row)) + "\\n" for every row of
    finite doubles, written from _decimal into one record of bytes per
    field, not one string per float."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    if not np.isfinite(data).all():
        raise ValueError("fmt_columns needs finite values")
    # "-d.ddddddddddddddde+ddd,": a sign or hundreds digit not printed is a 0 byte
    field = np.dtype([("sign", "u1"), ("lead", "u1"), ("dot3", "<u4"), ("g1", "<u4"), ("g2", "<u4"),
                      ("g3", "<u4"), ("e", "u1"), ("exp", "<u4"), ("sep", "u1")])
    ten = np.arange(10, dtype="<u4")
    # the 4 ASCII digits of 0..9999, the first in the low byte of each word
    quads = (0x30303030 + ten[:, None, None, None] + (ten << 8)[:, None, None]
             + (ten << 16)[:, None] + (ten << 24)).ravel()
    exps = quads[:1000] & 0xFFFFFF00
    exps[:100] &= 0xFFFF00FF
    parts = []
    for start in range(0, len(data), _CHUNK_ROWS):
        x = data[start:start + _CHUNK_ROWS]
        digits, e = (v.reshape(x.shape) for v in _decimal(x.ravel()))
        top, rest = np.divmod(digits, 10**8)
        (q0, q1), (q2, q3) = (quads.take(np.divmod(v, 10**4)) for v in (top, rest))
        rec = np.empty(x.shape, dtype=field)
        rec["sign"] = np.signbit(x) * ord("-")
        rec["lead"] = q0 & 0xFF
        rec["dot3"] = q0 & 0xFFFFFF00 | ord(".")
        rec["g1"], rec["g2"], rec["g3"] = q1, q2, q3
        rec["e"] = ord("e")
        rec["exp"] = exps[np.abs(e)] | np.where(e < 0, ord("-"), ord("+")).astype("<u4")
        rec["sep"] = ord(",")
        rec["sep"][:, -1] = ord("\n")
        raw = rec.view(np.uint8)
        parts.append(raw[raw != 0].tobytes().decode("ascii"))
    return "".join(parts)
