"""Small shared helpers: deterministic hashing and float formatting."""

from __future__ import annotations

import hashlib

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a hash; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def format_float(value: float) -> str:
    """Shortest round-trip decimal form, used for deterministic artifacts."""
    return repr(float(value))
