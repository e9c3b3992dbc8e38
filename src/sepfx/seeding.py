"""Deterministic seed derivation for nested random streams, and the
package's rule for integer settings.

Every stochastic component (fold shuffles, bootstrap draws, simulation
stages) derives its seed from a base seed plus a structured key, so that
reruns with the same configuration are bit-identical and independent
components never share a stream.  Seeds, sizes and counts given by a
caller must be Python or numpy integers (:func:`check_integers`), so a
bool or a fraction is refused where it is set and not inside a fit.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Hash a tuple of ints and strings into a stable 63-bit seed."""
    material = "\x1f".join(_encode(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _encode(part) -> str:
    if isinstance(part, (bool, np.bool_)):
        raise TypeError("boolean seed parts are ambiguous; use ints")
    if isinstance(part, (int, np.integer)):
        return f"i:{int(part)}"
    if isinstance(part, str):
        return f"s:{part}"
    raise TypeError(f"unsupported seed part {part!r}")


def is_integer(value) -> bool:
    """A Python or numpy integer that is not a bool (``True`` passes as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integers(record, names) -> None:
    """Raise ``ValueError`` unless each field of ``record`` in ``names``
    :func:`is_integer`, so a fraction fails here and not inside numpy."""
    for name in names:
        if not is_integer(getattr(record, name)):
            raise ValueError(f"{name} must be an integer, got {getattr(record, name)!r}")


def stream(*parts) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` over the given key."""
    return np.random.default_rng(derive_seed(*parts))
