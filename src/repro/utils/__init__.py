"""Small shared helpers: validation, seeding, consistent hashing."""

from .validation import (
    check_integer_array,
    check_positive,
    check_same_length,
)
from .hashring import HashRing
from .seeding import derive_seed, rng_from

__all__ = [
    "HashRing",
    "check_integer_array",
    "check_positive",
    "check_same_length",
    "derive_seed",
    "rng_from",
]
