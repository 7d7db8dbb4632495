"""Seeded workload distributions for reproducible experiments.

Every benchmark draws its workload (inter-arrival times, service times,
key popularity, priorities) from a :class:`WorkloadRNG` seeded per
experiment id, so re-running a bench regenerates the identical request
stream.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import List, Sequence


class WorkloadRNG:
    """A seeded bundle of the distributions the benchmarks need."""

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # basic draws
    # ------------------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, items: Sequence) -> object:
        return self._rng.choice(items)

    def shuffle(self, items: List) -> List:
        self._rng.shuffle(items)
        return items

    # ------------------------------------------------------------------
    # arrival / service processes
    # ------------------------------------------------------------------
    def exponential(self, rate: float) -> float:
        """Exponential inter-arrival with the given rate (events/sec)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return self._rng.expovariate(rate)

    def poisson_arrivals(self, rate: float, horizon: float) -> List[float]:
        """Absolute arrival timestamps of a Poisson process on [0, horizon)."""
        arrivals: List[float] = []
        timestamp = 0.0
        while True:
            timestamp += self.exponential(rate)
            if timestamp >= horizon:
                return arrivals
            arrivals.append(timestamp)

    def lognormal(self, mean: float, sigma: float = 0.5) -> float:
        """Log-normal service time with the given *linear-space* mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        mu = math.log(mean) - sigma * sigma / 2.0
        return self._rng.lognormvariate(mu, sigma)

    # ------------------------------------------------------------------
    # popularity
    # ------------------------------------------------------------------
    def zipf_index(self, n: int, s: float = 1.0) -> int:
        """Zipf-distributed index in [0, n) (rank 0 most popular)."""
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / ((rank + 1) ** s) for rank in range(n)]
        total = sum(weights)
        draw = self._rng.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if draw <= cumulative:
                return index
        return n - 1

    def fork(self, label: str) -> "WorkloadRNG":
        """A derived RNG with an independent, reproducible stream.

        Uses CRC32 rather than ``hash()`` because string hashing is
        salted per interpreter run and would break reproducibility.
        """
        derived_seed = zlib.crc32(f"{self.seed}:{label}".encode()) & 0x7FFFFFFF
        return WorkloadRNG(derived_seed)
