"""128-bit connection-counting sketch.

Section 4.2: "Millisampler uses a 128-bit sketch [Estan, Varghese, Fisk
2003] to estimate the number of active (incoming and outgoing)
connections ... precise up to a dozen connections and saturates at
around 500 connections per sampling interval."

This is a *direct bitmap* with a linear-counting estimator: each flow
key hashes to one of 128 bits; the estimate is ``m * ln(m / z)`` where
``z`` is the number of zero bits.  It is stateless across intervals —
a flow active in one bucket leaves no trace in the next, exactly as the
paper notes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..errors import SamplerError

#: Number of bits in the production sketch.
SKETCH_BITS = 128

#: 64-bit words backing one sketch bitmap (word 0 holds bits 0-63).
SKETCH_WORDS = SKETCH_BITS // 64

#: With 128 bits the linear-counting estimate is finite only while at
#: least one bit is zero; a full bitmap is reported as this saturation
#: value (the paper: "saturates at around 500 connections").
SATURATION_ESTIMATE = int(SKETCH_BITS * math.log(SKETCH_BITS))  # ~620

# 64-bit FNV-1a parameters, used to hash flow keys into the bitmap.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _hash_flow_key_raw(key: object) -> int:
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, int):
        data = key.to_bytes(8, "little", signed=False) if key >= 0 else repr(key).encode()
    elif isinstance(key, tuple):
        data = repr(key).encode("utf-8")
    else:
        raise SamplerError(f"unhashable flow key type: {type(key).__name__}")
    return _fnv1a(data) % SKETCH_BITS


#: Bounded memo for the byte-at-a-time FNV walk: packet streams repeat
#: a small working set of 5-tuples millions of times, so in steady
#: state the hash is one dict probe instead of ~40 byte operations.
_hash_flow_key_cached = lru_cache(maxsize=1 << 16)(_hash_flow_key_raw)


def hash_flow_key(key: object) -> int:
    """Deterministically hash a flow key (e.g. a 5-tuple) to a bit index.

    Hashable keys (tuples, ints, strings, bytes) are served from a
    bounded LRU memo; anything unhashable falls through to the direct
    FNV walk with the historical semantics.
    """
    try:
        return _hash_flow_key_cached(key)
    except TypeError:
        # e.g. a tuple containing a list: not memoizable, still hashable
        # by repr - take the uncached path.
        return _hash_flow_key_raw(key)


class FlowSketch:
    """A single 128-bit bitmap covering one sampling interval."""

    __slots__ = ("_bitmap",)

    def __init__(self, bitmap: int = 0) -> None:
        if bitmap < 0 or bitmap >= (1 << SKETCH_BITS):
            raise SamplerError("bitmap must fit in 128 bits")
        self._bitmap = bitmap

    def observe(self, flow_key: object) -> None:
        """Record that ``flow_key`` was active in this interval."""
        self._bitmap |= 1 << hash_flow_key(flow_key)

    @property
    def bitmap(self) -> int:
        return self._bitmap

    @property
    def bits_set(self) -> int:
        return self._bitmap.bit_count()

    def estimate(self) -> float:
        """Linear-counting estimate of the number of distinct flows.

        Exact-ish for small counts (every flow sets its own bit), rising
        error as the bitmap fills, and saturating when all bits are set.
        """
        return float(linear_counting_estimates(SKETCH_BITS - self.bits_set))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FlowSketch(bits_set={self.bits_set}, estimate={self.estimate():.1f})"


def linear_counting_estimates(zeros):
    """Linear-counting estimates from zero-bit counts, elementwise.

    The single source of truth for the estimator math: the scalar
    :meth:`FlowSketch.estimate` and the sampler's read-out (every bucket
    at once) both evaluate this, so the two agree bit for bit.  A full
    bitmap (``zeros == 0``) reports the saturation value.
    """
    zeros = np.asarray(zeros, dtype=np.float64)
    return np.where(
        zeros == 0,
        float(SATURATION_ESTIMATE),
        SKETCH_BITS * np.log(SKETCH_BITS / np.maximum(zeros, 1.0)),
    )
