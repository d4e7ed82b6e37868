"""Deterministic random byte generation.

Simulations must be reproducible, and secret sharing needs *bulk* randomness
(Shamir consumes ``(t-1) * |message|`` random bytes per object).
``DeterministicRandom`` therefore runs ChaCha20 as a DRBG: seeded once,
producing a keystream in large vectorized slabs.

It also implements the subset of :class:`random.Random`'s interface the rest
of the library uses (``randrange``, ``getrandbits``, ``sample``, ``random``),
so protocol code can take either a stdlib Random (tests, hypothesis) or a
DeterministicRandom (library default) interchangeably.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.chacha20 import chacha20_keystream
from repro.crypto.sha256 import sha256
from repro.errors import ParameterError

_SLAB_BYTES = 1 << 16


class DeterministicRandom:
    """ChaCha20-based deterministic random generator."""

    def __init__(self, seed: bytes | int | str = 0):
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big", signed=False) if seed >= 0 else sha256(str(seed).encode())
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = sha256(b"repro-drbg:" + seed)
        self._nonce = b"\x00" * 12
        self._block_counter = 0
        # Keystream generated but not yet served: _buffer[_offset:].
        self._buffer = b""
        self._offset = 0

    # -- bulk bytes ---------------------------------------------------------

    def bytes(self, length: int) -> bytes:
        """Return *length* fresh random bytes.

        The shortfall is generated in ONE keystream call (rounded up to
        whole 64-byte blocks, minimum one slab) rather than a loop of
        fixed-size slabs: the ChaCha20 core is vectorized across blocks,
        so one long request costs less than a loop of slab calls.  The
        output stream is byte-identical either way -- the DRBG always
        consumes whole blocks of one sequential keystream.  A draw the
        buffer covers copies only the bytes it returns.
        """
        if length < 0:
            raise ParameterError("length must be >= 0")
        start, end = self._offset, self._offset + length
        shortfall = end - len(self._buffer)
        if shortfall > 0:
            draw = max(-(-shortfall // 64) * 64, _SLAB_BYTES)
            slab = chacha20_keystream(
                self._key, self._nonce, draw, counter=self._block_counter
            )
            self._block_counter += draw // 64
            self._buffer = self._buffer[start:] + slab
            start, end = 0, length
        out = self._buffer[start:end]
        if end == len(self._buffer):
            # Drained: drop the slab rather than keep it alive until the
            # next refill.
            self._buffer, end = b"", 0
        self._offset = end
        return out

    def uint8_array(self, length: int) -> np.ndarray:
        """Random uint8 numpy array (zero-copy over :meth:`bytes`)."""
        return np.frombuffer(self.bytes(length), dtype=np.uint8)

    # -- stdlib-Random-compatible subset --------------------------------------

    def getrandbits(self, bits: int) -> int:
        if bits <= 0:
            raise ParameterError("bits must be > 0")
        n_bytes = -(-bits // 8)
        value = int.from_bytes(self.bytes(n_bytes), "big")
        return value >> (8 * n_bytes - bits)

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        span = stop - start
        if span <= 0:
            raise ParameterError("empty randrange")
        # Rejection sampling for uniformity.
        bits = span.bit_length()
        while True:
            candidate = self.getrandbits(bits)
            if candidate < span:
                return start + candidate

    def randint(self, a: int, b: int) -> int:
        return self.randrange(a, b + 1)

    def random(self) -> float:
        return self.getrandbits(53) / (1 << 53)

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, population, k: int) -> list:
        pool = list(population)
        if k > len(pool):
            raise ParameterError("sample larger than population")
        self.shuffle(pool)
        return pool[:k]

    def choice(self, population):
        pool = list(population)
        if not pool:
            raise ParameterError("cannot choose from empty population")
        return pool[self.randrange(len(pool))]
