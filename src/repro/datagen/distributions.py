"""Seeded value generators used by the TPC-D-style data generator."""

from __future__ import annotations

import random
import string
from typing import Sequence

_SYLLABLES = (
    "an", "ba", "co", "da", "el", "fa", "go", "hi", "ir", "jo",
    "ka", "lu", "ma", "no", "or", "pe", "qu", "ra", "su", "ta",
)


class ValueGenerator:
    """Deterministic generator for the column value families TPC-D uses."""

    def __init__(self, seed: int = 42) -> None:
        self._rng = random.Random(seed)

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        return self._rng.randint(low, high)

    def decimal(self, low: float, high: float, digits: int = 2) -> float:
        """Uniform decimal in [low, high], rounded."""
        return round(self._rng.uniform(low, high), digits)

    def word(self, min_syllables: int = 2, max_syllables: int = 4) -> str:
        """A pronounceable pseudo-word."""
        count = self._rng.randint(min_syllables, max_syllables)
        return "".join(self._rng.choice(_SYLLABLES) for _ in range(count))

    def name(self, prefix: str, key: int) -> str:
        """TPC-D style ``PREFIX#000000123`` names."""
        return f"{prefix}#{key:09d}"

    def phrase(self, words: int = 3) -> str:
        """A short space-separated phrase."""
        return " ".join(self.word() for _ in range(words))

    def choice(self, options: Sequence[str]) -> str:
        """Uniform choice from ``options``."""
        return self._rng.choice(list(options))

    def date_int(self, start: int = 19920101, end: int = 19981201) -> int:
        """A date encoded as YYYYMMDD within TPC-D's seven-year window."""
        start_year, end_year = start // 10000, end // 10000
        year = self._rng.randint(start_year, end_year)
        month = self._rng.randint(1, 12)
        day = self._rng.randint(1, 28)
        return year * 10000 + month * 100 + day

    def text(self, length: int = 20) -> str:
        """Random alphanumeric filler text."""
        alphabet = string.ascii_lowercase + " "
        return "".join(self._rng.choice(alphabet) for _ in range(length)).strip()

    def zipf_rank(self, n: int, skew: float = 1.0) -> int:
        """A rank in [1, n] drawn from a (truncated) Zipf distribution.

        Used to create skewed foreign-key references so that join outputs show
        realistic bucket skew in the overflow experiments.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if skew <= 0:
            return self._rng.randint(1, n)
        # Inverse-CDF sampling over the truncated Zipf mass.
        weights = [1.0 / (rank**skew) for rank in range(1, n + 1)]
        total = sum(weights)
        target = self._rng.uniform(0.0, total)
        cumulative = 0.0
        for rank, weight in enumerate(weights, start=1):
            cumulative += weight
            if cumulative >= target:
                return rank
        return n
