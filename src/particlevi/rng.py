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
``split(t, purpose)`` read per step.  Such a read is evaluated in blocks of
whole rows of at most ``_BLOCK_WORDS`` words (one row when a row is longer),
written into one preallocated output, so its uint64 and float temporaries
stay block-sized however large the read.  Every word is computed on its own,
so the bits do not depend on the block size.
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
# 128 KB of words per block: the allocator reuses block-sized temporaries
# from one read to the next, where read-sized ones (800 KB on a pass of 4
# runs of 256 10-d particles over 10 steps) came back as fresh pages that
# faulted in on every read
_BLOCK_WORDS = 2 ** 14


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraps mod 2^64), in place; returns z.

    Each step updates z itself, so a read holds z and one shifted temporary.
    """
    z ^= z >> _SH30
    z *= _U_MIX1
    z ^= z >> _SH27
    z *= _U_MIX2
    z ^= z >> _SH31
    return z


def _key(seed: int, stream: int) -> int:
    a = _mix_int(seed ^ _SEED_SALT)
    b = _mix_int(stream ^ _STREAM_SALT)
    return _mix_int(a ^ ((b * _GOLDEN) & _MASK))


def _raw_at(keys, offsets) -> np.ndarray:
    """Raw words of stream keys at counter offsets; the uint64 shapes broadcast."""
    return _mix_array(keys + (np.asarray(offsets, dtype=np.uint64) + np.uint64(1)) * _U_GOLDEN)


def _uniforms_of(raw: np.ndarray, out=None) -> np.ndarray:
    """Raw words -> uniforms in [0, 1) from their top 53 bits, into out if given; raw is shifted in place.

    The shifted words are below 2^53, so their conversion to double and the
    scaling by 2^-53 are exact.
    """
    raw >>= _SH11
    return np.multiply(raw, _INV53, out=out)


def _normals_of(raw: np.ndarray, out=None) -> np.ndarray:
    """Raw words -> standard normals by inverse CDF at the bin centres of the top 53 bits.

    The top bin's centre rounds to 1.0, where ndtri is +inf; it is held at
    the largest double below 1 (a normal of 8.21), and every other word keeps
    its centre.  Every normal is finite, between -8.30 and 8.21.  raw is
    shifted in place, and the doubles are mapped in place, in out if given.
    """
    u = _uniforms_of(raw, out)
    u += _HALF54
    np.minimum(u, _BELOW_ONE, out=u)
    return ndtri(u, out=u)


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

    def _split_read(self, words_of, labels, offsets) -> np.ndarray:
        """(K, M) words_of(raw words) of K child streams, evaluated in blocks of whole rows.

        A block holds as many rows as fit in ``_BLOCK_WORDS`` words, and at
        least one; a read that fits one block is one iteration.
        """
        keys = self._split_keys(labels)[:, None]
        offsets = np.asarray(offsets, dtype=np.uint64)
        out = np.empty((len(keys), offsets.size))
        rows = max(1, _BLOCK_WORDS // max(1, offsets.size))
        for lo in range(0, len(keys), rows):
            words_of(_raw_at(keys[lo : lo + rows], offsets), out[lo : lo + rows])
        return out

    def split_uniforms_at(self, labels, offsets) -> np.ndarray:
        """(K, M) uniforms: row k is ``split(*labels[k]).uniforms_at(offsets)``.

        One vectorized read over K child streams; labels is a (K, L) integer
        array of label paths (int64 range) and offsets has M entries.  The
        read is evaluated in row blocks of at most ``_BLOCK_WORDS`` words;
        the bits do not depend on the block size.
        """
        return self._split_read(_uniforms_of, labels, offsets)

    def split_normals_at(self, labels, offsets) -> np.ndarray:
        """(K, M) normals: row k is ``split(*labels[k]).normals_at(offsets)``.

        Evaluated in row blocks, as ``split_uniforms_at`` is.
        """
        return self._split_read(_normals_of, labels, offsets)

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

