"""Counter-based splittable random number streams.

A stream is a pure function of (seed, stream-id, counter): re-creating a
stream from the same coordinates reproduces the same draws, and distinct
stream-ids give statistically independent sequences.  ``split`` derives a
child stream-id by hashing integer labels into the parent id, so callers can
address noise by meaning, e.g. (time-step, purpose) with one counter offset
per particle, instead of threading sequential generator state through every
call site.

The mixer is the splitmix64 finalizer applied to a Weyl sequence offset by
the stream key.  Keying a fresh stream costs a few integer operations, which
is what makes one stream per (step, purpose) affordable inside hot filter
loops.  ``split_uniforms_at`` and ``split_normals_at`` key many child streams
at once with the same arithmetic on uint64 arrays, so a filter run reads one
purpose for all of its steps in one call, bit-identical to one
``split(t, purpose)`` read per step.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SEED_SALT = 0x5851F42D4C957F2D
_STREAM_SALT = 0x14057B7EF767814F
_LABEL_SALT = 0xD1342543DE82EF95

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_U_LABEL_SALT = np.uint64(_LABEL_SALT)
_U_STREAM_SALT = np.uint64(_STREAM_SALT)
_INV53 = 2.0 ** -53
_HALF54 = 2.0 ** -54
_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest double below 1


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraps mod 2^64)."""
    z = (z ^ (z >> _SH30)) * _U_MIX1
    z = (z ^ (z >> _SH27)) * _U_MIX2
    return z ^ (z >> _SH31)


def _key(seed: int, stream: int) -> int:
    a = _mix_int(seed ^ _SEED_SALT)
    b = _mix_int(stream ^ _STREAM_SALT)
    return _mix_int(a ^ ((b * _GOLDEN) & _MASK))


def _raw_at(keys, offsets) -> np.ndarray:
    """Raw words of stream keys at counter offsets; the uint64 shapes broadcast."""
    return _mix_array(keys + (np.asarray(offsets, dtype=np.uint64) + np.uint64(1)) * _U_GOLDEN)


def _uniforms_of(raw: np.ndarray) -> np.ndarray:
    """Raw words -> uniforms in [0, 1) from their top 53 bits."""
    return (raw >> _SH11).astype(np.float64) * _INV53


def _normals_of(raw: np.ndarray) -> np.ndarray:
    """Raw words -> standard normals by inverse CDF at the bin centres of the top 53 bits.

    The top bin's centre rounds to 1.0, where ndtri is +inf; it is held at
    the largest double below 1 (a normal of 8.21), and every other word keeps
    its centre.  Every normal is finite, between -8.30 and 8.21.
    """
    u = (raw >> _SH11).astype(np.float64) * _INV53 + _HALF54
    return ndtri(np.minimum(u, _BELOW_ONE))


class RngStream:
    """One reproducible stream of uniforms/normals.

    Draw methods either advance the internal counter (``uniforms``,
    ``normals``) or read at absolute counter offsets without touching state
    (``uniforms_at``, ``normals_at``).  The offset forms make noise
    independent of how it is read: element k of a many-offset read equals a
    lone read at counter offset k, so drawing N particles at once or one at
    a time consumes bit-identical noise.
    """

    __slots__ = ("seed", "stream", "counter", "_key")

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        self.seed = seed & _MASK
        self.stream = stream & _MASK
        self.counter = counter
        self._key = _key(self.seed, self.stream)

    def split(self, *labels: int) -> "RngStream":
        """Child stream addressed by integer labels; counter starts at 0."""
        s = self.stream
        for lab in labels:
            s = _mix_int(s ^ ((int(lab) & _MASK) * _LABEL_SALT + _GOLDEN))
        return RngStream(self.seed, s)

    def uniforms_at(self, offsets) -> np.ndarray:
        """Uniforms in [0,1) at absolute counter offsets (stateless read)."""
        return _uniforms_of(_raw_at(np.uint64(self._key), offsets))

    def normals_at(self, offsets) -> np.ndarray:
        """Standard normals at absolute counter offsets via inverse CDF."""
        return _normals_of(_raw_at(np.uint64(self._key), offsets))

    def _split_keys(self, labels) -> np.ndarray:
        """Keys of ``split(*row)`` for each row of a (K, L) array of label paths."""
        labels = np.asarray(labels, dtype=np.int64).astype(np.uint64)  # -1 wraps as & _MASK does
        s = np.full(labels.shape[0], self.stream, dtype=np.uint64)
        for col in labels.T:
            s = _mix_array(s ^ (col * _U_LABEL_SALT + _U_GOLDEN))
        b = _mix_array(s ^ _U_STREAM_SALT)
        return _mix_array(np.uint64(_mix_int(self.seed ^ _SEED_SALT)) ^ (b * _U_GOLDEN))

    def split_uniforms_at(self, labels, offsets) -> np.ndarray:
        """(K, M) uniforms: row k is ``split(*labels[k]).uniforms_at(offsets)``.

        One vectorized read over K child streams; labels is a (K, L) integer
        array of label paths (int64 range) and offsets has M entries.
        """
        return _uniforms_of(_raw_at(self._split_keys(labels)[:, None], offsets))

    def split_normals_at(self, labels, offsets) -> np.ndarray:
        """(K, M) normals: row k is ``split(*labels[k]).normals_at(offsets)``."""
        return _normals_of(_raw_at(self._split_keys(labels)[:, None], offsets))

    def uniforms(self, n: int) -> np.ndarray:
        out = self.uniforms_at(np.arange(self.counter, self.counter + n))
        self.counter += n
        return out

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        out = self.normals_at(np.arange(self.counter, self.counter + n))
        self.counter += n
        return out

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream}, counter={self.counter})"

