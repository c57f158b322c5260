"""Set-associative cache simulator.

Models a single cache level: configurable total size, associativity, and
line size, with LRU replacement and write-allocate/write-back policy (the
RS/6000 and i860 data caches the paper simulates are both of this shape).
Cold (compulsory) misses are counted separately so hit rates can exclude
them, matching Table 4's "cold misses are not included".

Two entry points drive the same state: the scalar :meth:`SetAssocCache.access`
(one address at a time, the reference oracle) and the batched
:meth:`SetAssocCache.access_block` (a whole address array per call), which
produces bit-identical :class:`CacheStats` and can be freely interleaved
with the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

__all__ = ["BlockResult", "CacheConfig", "CacheStats", "SetAssocCache"]

#: Lines at or above this number are tracked only in the ``_seen_lines``
#: set, not the bitmap mirror (bounds bitmap memory to 64 MB).
_SEEN_BITMAP_MAX = 1 << 26


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size: int  # total bytes
    assoc: int  # ways
    line: int  # bytes per line

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line <= 0:
            raise ReproError(f"invalid cache geometry {self}")
        if self.size % (self.line * self.assoc):
            raise ReproError(
                f"{self.name}: size {self.size} not divisible by "
                f"line*assoc = {self.line * self.assoc}"
            )
        if self.line & (self.line - 1):
            raise ReproError(f"{self.name}: line size must be a power of two")

    @property
    def sets(self) -> int:
        return self.size // (self.line * self.assoc)


@dataclass
class CacheStats:
    """Access counters for one simulation run."""

    accesses: int = 0
    hits: int = 0
    cold_misses: int = 0
    conflict_misses: int = 0  # capacity + conflict (non-compulsory)

    @property
    def misses(self) -> int:
        return self.cold_misses + self.conflict_misses

    def hit_rate(self, include_cold: bool = False) -> float:
        """Hit fraction in [0, 1]; cold misses excluded by default.

        With ``include_cold=False`` the denominator drops compulsory
        misses (the paper's Table 4 convention). An access-free run
        reports 1.0.
        """
        if include_cold:
            total = self.accesses
            hits = self.hits
        else:
            total = self.accesses - self.cold_misses
            hits = self.hits
        if total <= 0:
            return 1.0
        return hits / total


@dataclass(frozen=True)
class BlockResult:
    """Per-access outcome of one :meth:`SetAssocCache.access_block` call.

    ``hits[i]`` is True when every line touched by access ``i`` hit (the
    scalar :meth:`SetAssocCache.access` return value); ``cold[i]`` counts
    the cold-missed lines of access ``i`` (0 or 1 for non-straddling
    accesses).
    """

    hits: np.ndarray  # bool, one entry per access
    cold: np.ndarray  # int64, cold-missed lines per access

    def __len__(self) -> int:
        return int(self.hits.shape[0])


class SetAssocCache:
    """An LRU set-associative cache over a byte address space."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # Per-set ordered dict of tags; Python dicts preserve insertion
        # order, so the first key is the LRU line.
        self._sets: list[dict[int, bool]] = [dict() for _ in range(config.sets)]
        self._seen_lines: set[int] = set()
        # Bitmap mirror of ``_seen_lines`` for non-negative lines below
        # ``_SEEN_BITMAP_MAX``: a conservative pre-filter for the batched
        # cold-miss scan (True => definitely seen; False => check the set).
        self._seen_arr = np.zeros(0, dtype=bool)
        self._line_shift = config.line.bit_length() - 1
        self._set_mask = config.sets - 1
        self._sets_pow2 = (config.sets & (config.sets - 1)) == 0

    def _grow_seen(self, line_number: int) -> None:
        size = max(1024, int(self._seen_arr.shape[0]))
        while size <= line_number:
            size *= 2
        grown = np.zeros(size, dtype=bool)
        grown[: self._seen_arr.shape[0]] = self._seen_arr
        self._seen_arr = grown

    def access(self, address: int, size: int = 1, write: bool = False) -> bool:
        """Access ``size`` bytes at ``address``; True when all bytes hit.

        An access spanning two lines touches both (each counted once).
        """
        first = address >> self._line_shift
        last = (address + size - 1) >> self._line_shift
        all_hit = True
        for line in range(first, last + 1):
            if not self._touch_line(line):
                all_hit = False
        return all_hit

    def _touch_line(self, line_number: int) -> bool:
        self.stats.accesses += 1
        if self._sets_pow2:
            index = line_number & self._set_mask
        else:
            index = line_number % self.config.sets
        tag = line_number
        cache_set = self._sets[index]
        if tag in cache_set:
            # LRU update: move to the back.
            del cache_set[tag]
            cache_set[tag] = True
            self.stats.hits += 1
            return True
        if line_number in self._seen_lines:
            self.stats.conflict_misses += 1
        else:
            self.stats.cold_misses += 1
            self._seen_lines.add(line_number)
            if 0 <= line_number < _SEEN_BITMAP_MAX:
                if line_number >= self._seen_arr.shape[0]:
                    self._grow_seen(line_number)
                self._seen_arr[line_number] = True
        if len(cache_set) >= self.config.assoc:
            cache_set.pop(next(iter(cache_set)))  # evict LRU
        cache_set[tag] = True
        return False

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def access_block(self, addresses, sizes=None) -> BlockResult:
        """Access a whole address array; bit-identical to scalar calls.

        ``addresses`` is an int array; ``sizes`` an int array of the same
        length, a scalar, or None (single-byte accesses). Equivalent to
        calling :meth:`access` once per element in order, but the line/set
        extraction is vectorized and the LRU bookkeeping runs over a
        duplicate-compressed per-set stream.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = int(addresses.shape[0])
        if n == 0:
            return BlockResult(
                np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
            )
        shift = self._line_shift
        first = addresses >> shift
        if sizes is None:
            last = first
        else:
            last = (addresses + np.asarray(sizes, dtype=np.int64) - 1) >> shift
        counts = last - first + 1
        if int(counts.max()) == 1:
            hit, cold = self._touch_line_block(first)
            return BlockResult(hit, cold.astype(np.int64))
        # Straddling accesses touch first..last in order; expand to one
        # entry per touched line, then fold results back per access.
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        lines = np.repeat(first, counts) + (
            np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
        )
        hit, cold = self._touch_line_block(lines)
        access_hit = np.logical_and.reduceat(hit, starts)
        access_cold = np.add.reduceat(cold.astype(np.int64), starts)
        return BlockResult(access_hit, access_cold)

    def _touch_line_block(self, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Touch every line in ``lines`` in order; returns (hit, cold) masks.

        The scalar LRU semantics are preserved exactly by exploiting two
        invariants: (1) a line equal to the immediately preceding access in
        its *set's* stream is resident and already MRU, so it hits with no
        state change; (2) set states are independent, so sets can be
        replayed one at a time as long as each set's internal order is kept
        (stable sort). Cold/conflict classification is per line and a line
        maps to exactly one set, so it is unaffected by the regrouping.
        """
        m = int(lines.shape[0])
        hit = np.zeros(m, dtype=bool)
        cold = np.zeros(m, dtype=bool)
        # Cold misses are LRU-independent: an access is cold iff it is the
        # global first touch of its line, i.e. the first in-block
        # occurrence of a line not in ``_seen_lines``. (A first-ever touch
        # can never hit: resident lines are always a subset of seen
        # lines.) Classify them for the whole block up front so the LRU
        # replay below only has to produce hit flags. The bitmap mirror
        # pre-filters definitely-seen lines, so the O(m log m) unique scan
        # runs only over first-touch candidates — near-empty on a warm
        # cache.
        seen = self._seen_lines
        seen_arr = self._seen_arr
        if (
            seen_arr.shape[0]
            and int(lines.min()) >= 0
            and int(lines.max()) < seen_arr.shape[0]
        ):
            cand = np.flatnonzero(~seen_arr[lines])
        else:
            cand = None
        if cand is None or cand.shape[0]:
            if cand is None:
                uniq, first_at = np.unique(lines, return_index=True)
            else:
                uniq, first_at = np.unique(lines[cand], return_index=True)
                first_at = cand[first_at]
            if seen:
                fresh = np.fromiter(
                    (line not in seen for line in uniq.tolist()),
                    dtype=bool,
                    count=uniq.shape[0],
                )
                uniq = uniq[fresh]
                first_at = first_at[fresh]
            cold[first_at] = True
            seen.update(uniq.tolist())
            if uniq.shape[0]:
                lo, hi = int(uniq[0]), int(uniq[-1])  # uniq is sorted
                if 0 <= lo and hi < _SEEN_BITMAP_MAX:
                    if hi >= self._seen_arr.shape[0]:
                        self._grow_seen(hi)
                    self._seen_arr[uniq] = True
                else:
                    inb = (uniq >= 0) & (uniq < self._seen_arr.shape[0])
                    self._seen_arr[uniq[inb]] = True
        # Pass 1: globally adjacent repeats of one line are guaranteed hits.
        keep = np.empty(m, dtype=bool)
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        hit[~keep] = True
        idx = np.flatnonzero(keep)
        klines = lines[idx]
        if self._sets_pow2:
            ksets = klines & self._set_mask
        else:
            ksets = klines % self.config.sets
        # Pass 2: group by set, keeping each set's order (stable sort).
        order = np.argsort(ksets, kind="stable")
        slines = klines[order]
        ssets = ksets[order]
        spos = idx[order]
        # Adjacent repeats within one set's stream are hits too (equal
        # lines imply equal sets, so a plain neighbour test suffices).
        dup = np.zeros(slines.shape[0], dtype=bool)
        if slines.shape[0] > 1:
            np.equal(slines[1:], slines[:-1], out=dup[1:])
        hit[spos[dup]] = True
        live = ~dup
        plines = slines[live]
        psets = ssets[live]
        ppos = spos[live]
        if plines.shape[0]:
            seg_starts = np.flatnonzero(
                np.r_[True, psets[1:] != psets[:-1]]
            )
            seg_ends = np.append(seg_starts[1:], psets.shape[0])
            if self.config.assoc == 1:
                self._replay_direct_mapped(
                    plines, psets, ppos, seg_starts, seg_ends, hit
                )
            else:
                self._replay_sets(
                    plines, psets, ppos, seg_starts, seg_ends, hit
                )
        stats = self.stats
        hits = int(np.count_nonzero(hit))
        colds = int(np.count_nonzero(cold))
        stats.accesses += m
        stats.hits += hits
        stats.cold_misses += colds
        stats.conflict_misses += m - hits - colds
        return hit, cold

    def _replay_sets(
        self, plines, psets, ppos, seg_starts, seg_ends, hit
    ) -> None:
        """LRU-replay the compressed stream, set by set.

        assoc == 2 has an exact closed form (:meth:`_replay_two_way`).
        Otherwise this dispatches between a round-based vectorized replay
        (processes the r-th survivor of every active set at once) and a
        plain per-set Python loop; the vectorized path pays a fixed NumPy
        overhead per round, so it only wins when many sets are active per
        round, and it pads the streams into a (rounds x sets) matrix, so
        it is also skipped when segment lengths are badly skewed.
        """
        seg_lens = seg_ends - seg_starts
        if self.config.assoc == 2:
            self._replay_two_way(plines, psets, ppos, seg_starts, seg_lens, hit)
            return
        m = int(plines.shape[0])
        max_len = int(seg_lens.max())
        n_segs = int(seg_starts.shape[0])
        if (
            m >= 1024
            and m // max_len >= 8
            and max_len * n_segs <= 4 * m
            and int(plines.min()) >= 0
        ):
            self._replay_sets_rounds(plines, psets, ppos, seg_starts, seg_lens, hit)
        else:
            self._replay_sets_scalar(plines, psets, ppos, seg_starts, seg_ends, hit)

    def _replay_sets_scalar(
        self, plines, psets, ppos, seg_starts, seg_ends, hit
    ) -> None:
        cache_sets = self._sets
        assoc = self.config.assoc
        for s, e in zip(seg_starts.tolist(), seg_ends.tolist()):
            cache_set = cache_sets[int(psets[s])]
            tags = plines[s:e].tolist()
            pos = ppos[s:e]
            for j, tag in enumerate(tags):
                if tag in cache_set:
                    del cache_set[tag]
                    cache_set[tag] = True
                    hit[pos[j]] = True
                    continue
                if len(cache_set) >= assoc:
                    cache_set.pop(next(iter(cache_set)))
                cache_set[tag] = True

    def _replay_two_way(
        self, plines, psets, ppos, seg_starts, seg_lens, hit
    ) -> None:
        """Exact closed form for assoc == 2 — no per-round loop at all.

        A 2-way LRU set always contains the two most recently used
        *distinct* lines, in recency order. On a stream with no adjacent
        repeats those are simply the previous two entries, so an access
        hits iff it equals the line two positions back in its set's
        stream. Pre-block residents are prepended as synthetic entries
        (LRU first), which makes the warm-start hits and the final state
        fall out of the same formula; the only adjacent repeat that can
        survive the caller's dedup — a first survivor equal to the
        pre-block MRU — is removed (and counted as a hit) beforehand.
        Cross-segment comparisons are inherently safe: equal lines imply
        the same set, and a line lives in exactly one set.
        """
        cache_sets = self._sets
        n_segs = int(seg_starts.shape[0])
        m = int(plines.shape[0])
        uset = psets[seg_starts].tolist()
        prefixes = [list(cache_sets[s]) for s in uset]  # LRU-first
        plen = np.fromiter((len(p) for p in prefixes), np.int64, count=n_segs)
        comb_lens = plen + seg_lens
        comb_starts = np.cumsum(comb_lens) - comb_lens
        total = int(comb_lens.sum())
        comb = np.empty(total, dtype=np.int64)
        pos = np.full(total, -1, dtype=np.int64)  # ppos, or -1 = synthetic
        starts_list = comb_starts.tolist()
        for k, pre in enumerate(prefixes):
            s = starts_list[k]
            for j, line in enumerate(pre):
                comb[s + j] = line
        seg_of = np.repeat(np.arange(n_segs, dtype=np.int64), seg_lens)
        offs = np.arange(m, dtype=np.int64) - np.repeat(seg_starts, seg_lens)
        dest = comb_starts[seg_of] + plen[seg_of] + offs
        comb[dest] = plines
        pos[dest] = ppos
        seg_id = np.repeat(np.arange(n_segs, dtype=np.int64), comb_lens)
        dup = np.zeros(total, dtype=bool)
        np.equal(comb[1:], comb[:-1], out=dup[1:])
        if dup.any():
            hit[pos[dup & (pos >= 0)]] = True  # junction: resident MRU hits
            keep = ~dup
            comb = comb[keep]
            pos = pos[keep]
            seg_id = seg_id[keep]
        hit2 = np.zeros(comb.shape[0], dtype=bool)
        np.equal(comb[2:], comb[:-2], out=hit2[2:])
        hit[pos[hit2 & (pos >= 0)]] = True
        ends = np.flatnonzero(np.r_[seg_id[1:] != seg_id[:-1], True])
        seg_firsts = np.r_[0, ends[:-1] + 1]
        has2 = ends > seg_firsts
        last = comb[ends].tolist()
        second = comb[np.maximum(ends - 1, 0)].tolist()
        for k, sidx in enumerate(uset):
            cache_set = cache_sets[sidx]
            cache_set.clear()
            if has2[k]:
                cache_set[second[k]] = True
            cache_set[last[k]] = True

    def _replay_sets_rounds(
        self, plines, psets, ppos, seg_starts, seg_lens, hit
    ) -> None:
        """Vectorized LRU replay: lockstep rounds across active sets.

        Each set's state is a row of the ``ways`` matrix, MRU-first and
        padded with -1 (valid entries always form a prefix, so dropping
        the last column on a miss evicts the LRU line exactly when the set
        is full). Survivors are scattered into a (rounds x sets) matrix by
        intra-segment position, with segments ordered longest-first: round
        ``r`` then processes a *contiguous row prefix* of the state matrix
        — column slices and O(assoc) selects, no per-round fancy indexing.
        Requires non-negative lines (the -1 padding must not alias a real
        line); the caller falls back to the scalar replay otherwise.
        """
        assoc = self.config.assoc
        cache_sets = self._sets
        n_segs = int(seg_starts.shape[0])
        m = int(plines.shape[0])
        max_len = int(seg_lens.max())
        by_len = np.argsort(-seg_lens, kind="stable")
        rank = np.empty(n_segs, dtype=np.int64)
        rank[by_len] = np.arange(n_segs, dtype=np.int64)
        seg_of = np.repeat(rank, seg_lens)
        offs = np.arange(m, dtype=np.int64) - np.repeat(seg_starts, seg_lens)
        lines2d = np.empty((max_len, n_segs), dtype=np.int64)
        lines2d[offs, seg_of] = plines
        hits2d = np.zeros((max_len, n_segs), dtype=bool)
        counts = np.bincount(offs)  # active sets per round, non-increasing
        ways = np.full((n_segs, assoc), -1, dtype=np.int64)
        uset = psets[seg_starts].tolist()
        ranks = rank.tolist()
        for k, sidx in enumerate(uset):
            resident = cache_sets[sidx]
            if resident:
                row = list(resident)  # first key = LRU
                row.reverse()  # MRU-first
                ways[ranks[k], : len(row)] = row
        for r, k in enumerate(counts.tolist()):
            active = ways[:k]
            lines_r = lines2d[r, :k]
            eq = active == lines_r[:, None]
            # cum[:, j] == "matched within ways[0..j]"; column j+1 keeps
            # its value iff the match is at or before way j (the shift
            # stops there), else it takes way j's old line (LRU shift).
            cum = np.logical_or.accumulate(eq, axis=1)
            ways[:k, 1:] = np.where(cum[:, :-1], active[:, 1:], active[:, :-1])
            ways[:k, 0] = lines_r
            hits2d[r, :k] = cum[:, -1]
        hit[ppos[hits2d[offs, seg_of]]] = True
        for k, sidx in enumerate(uset):
            cache_set = cache_sets[sidx]
            cache_set.clear()
            for line in ways[ranks[k], ::-1].tolist():  # LRU-first insertion
                if line >= 0:
                    cache_set[line] = True

    def _replay_direct_mapped(
        self, plines, psets, ppos, seg_starts, seg_ends, hit
    ) -> None:
        """assoc==1 fast path: after duplicate compression, only the first
        survivor of each set segment can hit (against the pre-block
        resident); every later survivor was separated from its previous
        same-set occurrence by a different line, which evicted it."""
        cache_sets = self._sets
        heads = psets[seg_starts].tolist()
        head_lines = plines[seg_starts].tolist()
        tail_lines = plines[seg_ends - 1].tolist()
        head_pos = ppos[seg_starts]
        head_hit = np.fromiter(
            (
                line in cache_sets[sidx]
                for sidx, line in zip(heads, head_lines)
            ),
            dtype=bool,
            count=len(heads),
        )
        hit[head_pos[head_hit]] = True
        for sidx, line in zip(heads, tail_lines):
            cache_set = cache_sets[sidx]
            cache_set.clear()
            cache_set[line] = True

    def flush(self) -> None:
        """Invalidate all lines (cold-miss tracking is preserved)."""
        for cache_set in self._sets:
            cache_set.clear()
