"""HMAC-SHA256 (RFC 2104), built on the library's SHA-256.

Named ``hmac_`` to avoid shadowing the standard-library module for readers
who grep imports.
"""

from __future__ import annotations

import hmac

from repro.crypto.sha256 import BLOCK_SIZE, sha256


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Compute HMAC-SHA256(key, message)."""
    if len(key) > BLOCK_SIZE:
        key = sha256(key)
    key = key.ljust(BLOCK_SIZE, b"\x00")
    o_key_pad = bytes(b ^ 0x5C for b in key)
    i_key_pad = bytes(b ^ 0x36 for b in key)
    return sha256(o_key_pad + sha256(i_key_pad + message))


def constant_time_eq(a: bytes | str, b: bytes | str) -> bool:
    """Data-independent equality for tags/digests/keys (ARCH004's target).

    Accepts ``str`` for hex-encoded digests, on either side.  The compare is
    the standard library's ``hmac.compare_digest`` (C, no early exit on
    mismatch), so the number of matching leading bytes never shows up in
    timing; it runs on every node read, so the loop must not be Python's.
    """
    if isinstance(a, str):
        a = a.encode()
    if isinstance(b, str):
        b = b.encode()
    return hmac.compare_digest(a, b)


def verify_hmac_sha256(key: bytes, message: bytes, tag: bytes) -> bool:
    """Verify HMAC-SHA256(key, message) against *tag* in constant time."""
    return constant_time_eq(hmac_sha256(key, message), tag)
