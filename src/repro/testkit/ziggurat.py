"""Re-derive numpy's normal-ziggurat tables by probing ``Generator``.

:mod:`repro.util.rng` reproduces the fast path of numpy's
``Generator.standard_normal`` with two 256-entry literal tables, ``wi``
(the strip widths) and ``ki`` (the acceptance bounds).  This module
recovers both tables from the installed numpy alone, so a test can
check the literals against whatever numpy it runs with.

The fast path reads one 64-bit word ``r``: the strip is ``r & 0xff``,
the sign is bit 8 and ``rabs`` is bits 9-60; it returns
``±rabs·wi[idx]`` and consumes nothing more when ``rabs < ki[idx]``.
Every other word goes on to draw more words.  Crafting a PCG64 state
whose next output is a chosen word therefore exposes ``wi[idx]`` as the
value drawn for ``rabs = 1`` and ``ki[idx]`` as the smallest ``rabs``
that consumes more than one word, found by bisection.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["RABS_LIMIT", "draw_word", "probe_ki", "probe_tables", "probe_wi"]

_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_INC = 0xDA3E39CB94B95BDB_2F7C4A1D3B5E9F61  # any odd increment works

#: One past the largest ``rabs`` a word can carry (52 bits).
RABS_LIMIT = 1 << 52


def _word(idx: int, rabs: int) -> int:
    """The 64-bit word of strip ``idx`` and magnitude ``rabs``, sign bit clear."""
    return (rabs << 9) | idx


def _generator_before(word: int) -> np.random.Generator:
    """A Generator whose next 64-bit output is ``word``.

    PCG64 steps ``state·M + inc`` and then outputs the XSL-RR of the new
    state; a new state with high word 0 has rotation 0 and outputs its
    low word unchanged, so the new state is ``word`` itself.
    """
    before = ((word - _INC) * _PCG_MULT_INV) & _MASK128
    gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": before, "inc": _INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def draw_word(word: int) -> Tuple[float, bool]:
    """``standard_normal()`` of a Generator whose next word is ``word``.

    Also reports whether the draw consumed exactly that one word.
    """
    gen = _generator_before(word)
    value = gen.standard_normal()
    return value, gen.bit_generator.state["state"]["state"] == word


def probe_wi(idx: int) -> float:
    """``wi[idx]``: the value drawn for ``rabs = 1`` with the sign bit clear.

    Strips whose ``ki`` is at most 1 reject that word on the fast path,
    but for so small an ``x`` the wedge test accepts it (``exp(-x²/2)``
    rounds to 1) and still returns ``1·wi[idx]``.
    """
    value, _ = draw_word(_word(idx, 1))
    return value


def probe_ki(idx: int) -> int:
    """``ki[idx]``: the smallest ``rabs`` that takes more than one word.

    Returns :data:`RABS_LIMIT` when every ``rabs`` is accepted; any
    larger table entry behaves the same.
    """
    lo, hi = 0, RABS_LIMIT  # lo: smallest candidate; hi: known rejecting or limit
    while lo < hi:
        mid = (lo + hi) // 2
        _, single = draw_word(_word(idx, mid))
        if single:
            lo = mid + 1
        else:
            hi = mid
    return lo


def probe_tables() -> Tuple[List[float], List[int]]:
    """``(wi, ki)`` as the installed numpy's ``standard_normal`` uses them."""
    return [probe_wi(i) for i in range(256)], [probe_ki(i) for i in range(256)]
