"""Differential check: batched vs scalar cache simulation.

The ``access_block`` fast paths (direct-mapped replay, two-way closed
form, rounds replay for higher associativity) must be *bit-identical* to
the scalar ``access`` reference on any stream.  This module fuzzes both
:class:`~repro.cache.cache.SetAssocCache` and
:class:`~repro.cache.hierarchy.Hierarchy` on random geometries and
random address streams (sequential runs, strides, re-use windows,
line-straddling sizes) and compares per-access outcomes and final
statistics. The first divergence is a :class:`~repro.verify.oracles.Mismatch`
whose context is the geometry and whose detail ends with the head of
the stream that exposed it.
"""

from __future__ import annotations

import random

from repro.cache.cache import CacheConfig, SetAssocCache
from repro.cache.hierarchy import Hierarchy, tlb_config
from repro.verify.oracles import Mismatch

__all__ = [
    "random_config",
    "random_stream",
    "check_cache_pair",
    "check_hierarchy_pair",
    "run_cache_check",
]


def random_config(rng: random.Random, name: str = "L1") -> CacheConfig:
    line = 2 ** rng.randint(2, 6)
    assoc = rng.choice((1, 1, 2, 2, 3, 4, 8))
    sets = rng.choice((1, 2, 4, 8, 16))
    return CacheConfig(name, size=line * assoc * sets, assoc=assoc, line=line)


def random_stream(
    rng: random.Random, n: int
) -> tuple[list[int], list[int]]:
    """A mixed access stream: strided runs, reuse windows, random singles."""
    addresses: list[int] = []
    sizes: list[int] = []
    space = rng.choice((256, 1024, 4096))
    while len(addresses) < n:
        r = rng.random()
        if r < 0.45:
            start = rng.randrange(space)
            stride = rng.choice((1, 4, 8, 8, 16, 32, -8))
            size = rng.choice((1, 4, 8))
            for k in range(rng.randint(1, 12)):
                addresses.append(max(0, start + k * stride))
                sizes.append(size)
        elif r < 0.65 and addresses:
            window = rng.randint(1, min(8, len(addresses)))
            addresses.extend(addresses[-window:])
            sizes.extend(sizes[-window:])
        else:
            addresses.append(rng.randrange(space))
            # Sizes up to 2 lines so straddling accesses get fuzzed too.
            sizes.append(rng.choice((1, 2, 8, 16, 24)))
    return addresses[:n], sizes[:n]


def _config_key(config: CacheConfig) -> tuple:
    return (config.name, config.size, config.assoc, config.line)


def _mismatch(where: str, key: tuple, detail: str, addresses: list[int]) -> Mismatch:
    head = ", ".join(map(str, addresses[:12]))
    return Mismatch(where, f"{detail}; stream head: [{head} ...]", f"config={key}")


def check_cache_pair(
    config: CacheConfig, addresses: list[int], sizes: list[int]
) -> Mismatch | None:
    """Replay one stream through scalar and batched engines; compare."""
    scalar = SetAssocCache(config)
    hits = []
    colds = []
    for addr, size in zip(addresses, sizes):
        before = scalar.stats.cold_misses
        hits.append(scalar.access(addr, size))
        colds.append(scalar.stats.cold_misses - before)

    batched = SetAssocCache(config)
    block = batched.access_block(addresses, sizes)

    for i, (hit, cold) in enumerate(zip(hits, colds)):
        if bool(block.hits[i]) != hit or int(block.cold[i]) != cold:
            return _mismatch(
                "cache",
                _config_key(config),
                f"access {i}: scalar (hit={hit}, cold={cold}) vs "
                f"batched (hit={bool(block.hits[i])}, cold={int(block.cold[i])})",
                addresses,
            )
    if scalar.stats != batched.stats:
        return _mismatch(
            "cache",
            _config_key(config),
            f"final stats differ: {scalar.stats} vs {batched.stats}",
            addresses,
        )
    return None


def check_hierarchy_pair(
    configs: list[CacheConfig],
    tlb: CacheConfig | None,
    addresses: list[int],
    sizes: list[int],
) -> Mismatch | None:
    scalar = Hierarchy(configs, tlb=tlb)
    levels = [scalar.access(addr, size) for addr, size in zip(addresses, sizes)]

    batched = Hierarchy(configs, tlb=tlb)
    level_of = batched.access_block(addresses, sizes)

    key = tuple(_config_key(c) for c in configs)
    for i, level in enumerate(levels):
        if int(level_of[i]) != level:
            return _mismatch(
                "hierarchy",
                key,
                f"access {i}: scalar level {level} vs batched {int(level_of[i])}",
                addresses,
            )
    a, b = scalar.result, batched.result
    if a.levels != b.levels or a.tlb != b.tlb:
        return _mismatch("hierarchy", key, f"final stats differ: {a} vs {b}", addresses)
    return None


def run_cache_check(rng: random.Random, stream_len: int = 150) -> Mismatch | None:
    """One fuzz round: a single-cache stream and a hierarchy stream."""
    config = random_config(rng)
    addresses, sizes = random_stream(rng, stream_len)
    mismatch = check_cache_pair(config, addresses, sizes)
    if mismatch is not None:
        return mismatch

    l1 = random_config(rng, "L1")
    configs = [l1]
    if rng.random() < 0.5:
        line2 = max(l1.line, 2 ** rng.randint(4, 7))
        assoc2 = rng.choice((2, 4))
        sets2 = rng.choice((8, 16, 32))
        configs.append(CacheConfig("L2", line2 * assoc2 * sets2, assoc2, line2))
    tlb = None
    if rng.random() < 0.4:
        tlb = tlb_config(entries=rng.choice((2, 4, 8)), page=rng.choice((64, 256)))
    addresses, sizes = random_stream(rng, stream_len)
    return check_hierarchy_pair(configs, tlb, addresses, sizes)
