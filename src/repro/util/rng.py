"""Deterministic random-number plumbing.

Every stochastic component in the library accepts either a seed or a
``numpy.random.Generator``.  Components that need several independent
streams derive child generators from a parent with :func:`derive_rng`,
keyed by a stable string label, so simulations are reproducible from a
single seed and insensitive to call ordering between subsystems.
"""

from __future__ import annotations

import threading
import zlib
from typing import Iterator, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: SeedLike, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``parent`` keyed by ``label``.

    The same ``(parent seed, label)`` pair always yields the same stream.
    When ``parent`` is already a Generator the child is seeded from the
    parent's bit stream combined with a CRC of the label, which keeps
    derivations order-dependent only on the parent draws made so far.
    """
    tag = zlib.crc32(label.encode("utf-8"))
    if isinstance(parent, np.random.Generator):
        base = int(parent.integers(0, 2**32))
    elif parent is None:
        base = int(np.random.default_rng().integers(0, 2**32))
    else:
        base = int(parent) & 0xFFFFFFFF
    return np.random.default_rng((base << 32) ^ tag)


def stable_hash(*parts: object) -> int:
    """Deterministic 64-bit hash of the string forms of ``parts``.

    Unlike built-in ``hash`` this does not depend on ``PYTHONHASHSEED``,
    so it is safe for seeding spatially keyed noise fields.
    """
    text = "\x1f".join(str(p) for p in parts).encode("utf-8")
    lo = zlib.crc32(text)
    hi = zlib.adler32(text)
    return (hi << 32) | lo


def field_rng(seed: SeedLike, *key: object) -> np.random.Generator:
    """Generator for a *spatially keyed* draw (e.g. shadowing at a grid cell).

    The stream depends only on the base seed and the key, never on draw
    order, so the same location always sees the same static noise.
    """
    return np.random.default_rng((_field_base(seed), stable_hash(*key)))


def _field_base(seed: SeedLike) -> int:
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "field_rng needs a stable integer seed, not a live Generator; "
            "pass the component's configured seed instead"
        )
    return (0 if seed is None else int(seed)) & 0xFFFFFFFF


# Constants of numpy's SeedSequence (bit_generator.pyx) and PCG64 (pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL = 4


def _hash_consts(init: int, mult: int, count: int) -> list:
    """``(xor, multiplier)`` pairs of ``count`` successive hashmix steps."""
    pairs = []
    const = init
    for _ in range(count):
        nxt = (const * mult) & _MASK32
        pairs.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return pairs


# mix_entropy makes POOL fill steps then POOL*(POOL-1) cross-mix steps;
# generate_state(4, uint64) makes 8 output steps.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, const) -> np.ndarray:
    value = (value ^ const[0]) * const[1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pcg64_seeds(base: int, hashes: Sequence[int]) -> Iterator[tuple]:
    """PCG64 ``(state, inc)`` of ``default_rng((base, h))`` for every ``h``.

    ``SeedSequence`` turns ``(base, h)`` into the uint32 words ``base``,
    ``h``'s low word and, when non-zero, its high word.  Fewer words than
    the 4-word pool are padded by hashing zeros, so zero-padding to four
    words gives the same pool whatever ``h``'s length.
    """
    hashes = np.array(hashes, dtype=np.uint64)
    words = [
        np.full(len(hashes), base, dtype=np.uint32),
        (hashes & np.uint64(_MASK32)).astype(np.uint32),
        (hashes >> np.uint64(32)).astype(np.uint32),
        np.zeros(len(hashes), dtype=np.uint32),
    ]
    consts = iter(_MIX_CONSTS)
    pool = [_hashmix(word, next(consts)) for word in words]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    out = [
        _hashmix(pool[i % _POOL], const).astype(np.uint64)
        for i, const in enumerate(_STATE_CONSTS)
    ]
    # generate_state(4, uint64) pairs the words little-endian; PCG64 reads
    # its 128-bit seed and increment high word first.
    seed = [(out[1] << np.uint64(32)) | out[0], (out[3] << np.uint64(32)) | out[2]]
    incr = [(out[5] << np.uint64(32)) | out[4], (out[7] << np.uint64(32)) | out[6]]
    for s_hi, s_lo, i_hi, i_lo in zip(
        seed[0].tolist(), seed[1].tolist(), incr[0].tolist(), incr[1].tolist()
    ):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        yield state, inc


# One Generator whose state is overwritten before every draw; the lock
# keeps a state and its draw together if two threads draw at once.
_DRAWER = np.random.Generator(np.random.PCG64(0))
_DRAWER_LOCK = threading.Lock()


def field_normals(seed: SeedLike, keys: Sequence[tuple]) -> np.ndarray:
    """``field_rng(seed, *key).standard_normal()`` for every key, batched.

    Seeding a fresh Generator per key costs ~24 µs, almost all of it in
    ``SeedSequence`` and PCG64 set-up.  This runs ``SeedSequence``'s
    entropy mix for the whole batch in numpy, applies PCG64's seeding
    step with Python integers and draws from one reused Generator, so
    every value equals the per-key draw bit for bit.
    """
    return _keyed_normals(_field_base(seed), [stable_hash(*key) for key in keys])


def _keyed_normals(base: int, hashes: Sequence[int]) -> np.ndarray:
    """``default_rng((base, h)).standard_normal()`` for every ``h``."""
    out = np.empty(len(hashes))
    bit_generator = _DRAWER.bit_generator
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    with _DRAWER_LOCK:
        for i, (pcg_state, inc) in enumerate(_pcg64_seeds(base, hashes)):
            state["state"] = {"state": pcg_state, "inc": inc}
            bit_generator.state = state
            out[i] = _DRAWER.standard_normal()
    return out
