//! Stream caches with explicit, synchronization-driven coherency.
//!
//! Paper Section 5.2: the shell's read and write caches decouple the
//! coprocessor ports from the global bus, and the GetSpace/PutSpace
//! events drive cache coherency *explicitly* — no snooping:
//!
//! 1. the granted window is private, so hits inside it are always safe;
//! 2. `GetSpace` extensions invalidate cached lines covering the newly
//!    granted space (they may hold stale data from the previous trip
//!    around the cyclic buffer);
//! 3. `PutSpace` on a producer flushes dirty data covering the released
//!    interval *before* the `putspace` message is forwarded, guaranteeing
//!    memory-order safety for the consumer.
//!
//! The cache is functional: it holds real data copies, so a missing
//! invalidation or flush produces corrupt decoded output that the
//! integration tests catch (fault-injection tests flip these switches on
//! purpose).
//!
//! Each stream-table row owns one direct-mapped cache (a shell template
//! parameter, per the paper's "size of data caches in the shell").

use eclipse_mem::{
    BusConfig, CyclicBuffer, DataFabric, DataFabricConfig, FabricDir, SharedBusFabric, Sram,
    SramConfig,
};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::Cycle;
use serde::{Deserialize, Serialize};

/// Maximum supported cache line size in bytes (dirty mask is a u64).
pub const MAX_LINE_BYTES: u32 = 64;

/// The memory system a shell's caches talk to: the shared SRAM behind a
/// pluggable [`DataFabric`]. The paper's instance (Section 6) is the
/// default [`SharedBusFabric`] — one shared read bus, one shared write
/// bus; the private-port and mesh fabrics give every shell its own port
/// pair (which is why requests carry the requesting shell's index).
#[derive(Debug)]
pub struct MemSys {
    /// The centralized on-chip SRAM holding all stream buffers.
    pub sram: Sram,
    /// The shell↔SRAM transport fabric (timing only; bytes move through
    /// [`MemSys::sram`]).
    pub fabric: Box<dyn DataFabric>,
}

impl MemSys {
    /// A memory system behind the paper-instance shared bus pair.
    pub fn shared_bus(sram: SramConfig, read: BusConfig, write: BusConfig) -> Self {
        MemSys {
            sram: Sram::new(sram),
            fabric: Box::new(SharedBusFabric::new(read, write)),
        }
    }

    /// A memory system behind an explicitly configured fabric backend.
    pub fn with_fabric(sram: SramConfig, fabric: DataFabricConfig) -> Self {
        MemSys {
            sram: Sram::new(sram),
            fabric: fabric.build(),
        }
    }

    /// Fetch `buf.len()` bytes at `addr` over the fabric on behalf of
    /// `requester` (the shell's fabric-port index); returns the cycle at
    /// which the data is available. The whole request is one contiguous
    /// burst: one fabric transaction, one SRAM access — callers fetch
    /// straight into their line storage with no staging copy.
    #[inline]
    pub fn fetch(&mut self, requester: usize, now: Cycle, addr: u32, buf: &mut [u8]) -> Cycle {
        let t = self
            .fabric
            .request(requester, FabricDir::Read, now, addr, buf.len() as u32);
        self.sram.read(addr, buf);
        t.done + self.sram.config().latency
    }

    /// Write `data` at `addr` over the fabric on behalf of `requester`;
    /// returns the cycle at which the write has globally completed (safe
    /// ordering point).
    #[inline]
    pub fn writeback(&mut self, requester: usize, now: Cycle, addr: u32, data: &[u8]) -> Cycle {
        let t = self
            .fabric
            .request(requester, FabricDir::Write, now, addr, data.len() as u32);
        self.sram.write(addr, data);
        t.done + self.sram.config().latency
    }
}

/// Cache parameters (a shell template parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of lines; 0 disables the cache (every access goes to the
    /// bus) — one point of the paper's Section 7 cache design-space sweep.
    pub lines: usize,
    /// Line size in bytes (power of two, <= 64).
    pub line_bytes: u32,
    /// Prefetch on GetSpace/Read (paper Section 5.2: "the shell also
    /// initiates stream prefetches upon local GetSpace and Read
    /// requests").
    pub prefetch: bool,
    /// How many lines ahead a prefetch reaches.
    pub prefetch_depth: u32,
}

impl CacheConfig {
    /// The standard 64-byte-line configuration with `lines` lines and the
    /// default prefetch depth — the shape every design-space sweep varies.
    pub fn with_lines(lines: usize, prefetch: bool) -> Self {
        CacheConfig {
            lines,
            prefetch,
            ..CacheConfig::default()
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            lines: 8,
            line_bytes: 64,
            prefetch: true,
            prefetch_depth: 2,
        }
    }
}

/// Cache event counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub hits: u64,
    /// Read accesses that missed (demand fetches).
    pub misses: u64,
    /// Prefetch fetches issued.
    pub prefetches: u64,
    /// Dirty write-backs (flush or eviction).
    pub writebacks: u64,
    /// Lines invalidated by GetSpace window extensions.
    pub invalidations: u64,
    /// Cycles a coprocessor read stalled waiting for data.
    pub stall_cycles: u64,
}

impl CacheStats {
    /// Read hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    /// Aligned absolute address of the cached line; `u32::MAX` = invalid.
    tag: u32,
    /// Data became/becomes available at this cycle (prefetch in flight).
    ready_at: Cycle,
    /// Bit i set = byte i holds data written by the coprocessor, not yet
    /// flushed.
    dirty: u64,
    /// Line data has been fetched from memory (false for write-allocated
    /// lines that never read).
    fetched: bool,
    data: [u8; MAX_LINE_BYTES as usize],
}

impl Line {
    const INVALID: u32 = u32::MAX;

    fn empty() -> Self {
        Line {
            tag: Self::INVALID,
            ready_at: 0,
            dirty: 0,
            fetched: false,
            data: [0; MAX_LINE_BYTES as usize],
        }
    }

    fn valid(&self) -> bool {
        self.tag != Self::INVALID
    }
}

/// A direct-mapped stream cache for one access point.
#[derive(Debug, Clone)]
pub struct StreamCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// `log2(line_bytes)`, so `line_of` shifts instead of dividing.
    line_shift: u32,
    /// `lines.len() - 1` when the line count is a power of two,
    /// `usize::MAX` otherwise (fall back to `%`).
    idx_mask: usize,
    /// Absolute address range `[start, end)` in which every line is known
    /// to hold its matching tag, so a warm prefetch over a sub-range can
    /// skip the per-line walk entirely. Purely derived state (never
    /// serialized); cleared on any eviction or invalidation.
    resident_span: (u32, u32),
    /// Number of lines with a non-zero dirty mask — lets `flush_window`
    /// skip its walk on the read-only rows that never dirty a line. Also
    /// derived state, kept in step at every dirty-mask transition.
    dirty_lines: u32,
    /// The fabric-port index this cache requests on (its shell's id).
    /// Wiring identity, not state — set by the owning shell at
    /// construction and after checkpoint load, never serialized.
    pub owner: usize,
    /// Cache event counters.
    pub stats: CacheStats,
}

impl StreamCache {
    /// Build a cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes <= MAX_LINE_BYTES,
            "bad line size {}",
            cfg.line_bytes
        );
        StreamCache {
            cfg,
            lines: (0..cfg.lines).map(|_| Line::empty()).collect(),
            line_shift: cfg.line_bytes.trailing_zeros(),
            idx_mask: if cfg.lines.is_power_of_two() {
                cfg.lines - 1
            } else {
                usize::MAX
            },
            resident_span: (0, 0),
            dirty_lines: 0,
            owner: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn line_of(&self, addr: u32) -> (usize, u32) {
        let tag = addr & !(self.cfg.line_bytes - 1);
        let n = (tag >> self.line_shift) as usize;
        let idx = if self.idx_mask != usize::MAX {
            n & self.idx_mask
        } else {
            n % self.lines.len()
        };
        (idx, tag)
    }

    /// Dirty mask for `len` bytes starting at byte `off` (len >= 1).
    #[inline]
    fn byte_mask(off: u32, len: u32) -> u64 {
        debug_assert!(len >= 1 && off + len <= 64);
        if len == 64 {
            !0
        } else {
            ((1u64 << len) - 1) << off
        }
    }

    /// Read `buf.len()` bytes starting `offset` bytes into the cyclic
    /// `buffer` (absolute coordinates handled internally). Returns the
    /// cycle at which the data is available; the stall relative to `now`
    /// is added to `stats.stall_cycles`.
    pub fn read(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        buf: &mut [u8],
    ) -> Cycle {
        if buf.is_empty() {
            return now;
        }
        if self.lines.is_empty() {
            // Uncached: straight to the bus, segment by segment.
            let (a, b) = buffer.segments(offset, buf.len() as u32);
            let mut done = mem.fetch(self.owner, now, a.addr, &mut buf[..a.len as usize]);
            if let Some(s) = b {
                done = done.max(mem.fetch(self.owner, now, s.addr, &mut buf[a.len as usize..]));
            }
            self.stats.misses += 1;
            self.stats.stall_cycles += done - now;
            return done;
        }
        let (a, b) = buffer.segments(offset, buf.len() as u32);
        // Fast path: the whole request falls inside one already-fetched
        // line — the overwhelmingly common case for streaming access. Same
        // stats and timing as one hit through `ensure_line`.
        if b.is_none() {
            let (idx, tag) = self.line_of(a.addr);
            let in_line_off = a.addr - tag;
            if in_line_off + a.len <= self.cfg.line_bytes {
                let line = &self.lines[idx];
                if line.tag == tag && line.fetched {
                    self.stats.hits += 1;
                    let done = line.ready_at.max(now);
                    let s = in_line_off as usize;
                    buf.copy_from_slice(&line.data[s..s + a.len as usize]);
                    self.stats.stall_cycles += done - now;
                    return done;
                }
            }
        }
        let mut done = now;
        let mut buf_pos = 0usize;
        for seg in std::iter::once(a).chain(b) {
            let mut addr = seg.addr;
            let mut remaining = seg.len;
            while remaining > 0 {
                let (idx, tag) = self.line_of(addr);
                let in_line_off = addr - tag;
                let chunk = remaining.min(self.cfg.line_bytes - in_line_off);
                let ready = self.ensure_line(now, mem, idx, tag, true);
                done = done.max(ready);
                let line = &self.lines[idx];
                buf[buf_pos..buf_pos + chunk as usize].copy_from_slice(
                    &line.data[in_line_off as usize..(in_line_off + chunk) as usize],
                );
                buf_pos += chunk as usize;
                addr += chunk;
                remaining -= chunk;
            }
        }
        // Read-triggered prefetch is issued by the shell, which knows how
        // far the granted window extends (prefetching past it would fetch
        // not-yet-written data only to invalidate it again).
        self.stats.stall_cycles += done - now;
        done
    }

    /// Exact fast path of a record run (`Shell::read_run`): `buf.len() /
    /// rec` reads of `rec` bytes each, starting `offset` bytes into
    /// `buffer`, each issued when the previous one completes, with the
    /// read-triggered prefetches reaching at most `ahead` bytes past the
    /// run. When every line of the run and of those `ahead` bytes is
    /// resident and fetched, every read is a pure hit and every prefetch
    /// finds its lines resident, so the run is one copy: one hit per line
    /// chunk of each record, and the last record completes at the latest
    /// `ready_at` of the lines read (or `now`). Returns that cycle, or
    /// `None`, changing nothing, when any line is missing.
    pub fn read_run_resident(
        &mut self,
        now: Cycle,
        buffer: &CyclicBuffer,
        offset: u32,
        rec: u32,
        buf: &mut [u8],
        ahead: u32,
    ) -> Option<Cycle> {
        if self.lines.is_empty() || buf.is_empty() {
            return None;
        }
        let len = buf.len() as u32;
        let line_bytes = self.cfg.line_bytes;
        let mut resident = true;
        let mut done = now;
        buffer.lines_touched(offset, len, line_bytes, |tag_addr| {
            let (idx, tag) = self.line_of(tag_addr);
            let line = &self.lines[idx];
            resident &= line.tag == tag && line.fetched;
            done = done.max(line.ready_at);
        });
        buffer.lines_touched(
            buffer.wrap_add(offset, len),
            ahead,
            line_bytes,
            |tag_addr| {
                let (idx, tag) = self.line_of(tag_addr);
                let line = &self.lines[idx];
                resident &= line.tag == tag && line.fetched;
            },
        );
        if !resident {
            return None;
        }
        // One hit per line each record's segments touch (what `read`
        // counts, in its one-line fast path and in its chunk walk alike).
        let shift = self.line_shift;
        let mut hits = 0u64;
        for i in 0..len / rec {
            let (a, b) = buffer.segments(buffer.wrap_add(offset, i * rec), rec);
            for seg in std::iter::once(a).chain(b) {
                let last = (seg.addr as u64 + seg.len as u64 - 1) >> shift;
                hits += last - (seg.addr as u64 >> shift) + 1;
            }
        }
        let (a, b) = buffer.segments(offset, len);
        let mut buf_pos = 0usize;
        for seg in std::iter::once(a).chain(b) {
            let mut addr = seg.addr;
            let mut remaining = seg.len;
            while remaining > 0 {
                let (idx, tag) = self.line_of(addr);
                let in_line_off = addr - tag;
                let chunk = remaining.min(line_bytes - in_line_off);
                buf[buf_pos..buf_pos + chunk as usize].copy_from_slice(
                    &self.lines[idx].data[in_line_off as usize..(in_line_off + chunk) as usize],
                );
                buf_pos += chunk as usize;
                addr += chunk;
                remaining -= chunk;
            }
        }
        self.stats.hits += hits;
        self.stats.stall_cycles += done - now;
        Some(done)
    }

    /// Make line `idx` hold `tag`; returns when its data is ready.
    /// `demand` distinguishes demand misses from prefetches in the stats.
    fn ensure_line(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        idx: usize,
        tag: u32,
        demand: bool,
    ) -> Cycle {
        let line_bytes = self.cfg.line_bytes as usize;
        if self.lines[idx].valid() && self.lines[idx].tag == tag {
            if self.lines[idx].fetched {
                if demand {
                    self.stats.hits += 1;
                }
                return self.lines[idx].ready_at.max(now);
            }
            // Write-allocated line being read: fetch and merge under the
            // dirty bytes (8-byte groups: skip fully-dirty, bulk-copy
            // fully-clean, blend only mixed groups).
            let mut fresh = [0u8; MAX_LINE_BYTES as usize];
            let ready = mem.fetch(self.owner, now, tag, &mut fresh[..line_bytes]);
            let line = &mut self.lines[idx];
            let mut g = 0usize;
            while g < line_bytes {
                let glen = 8.min(line_bytes - g);
                let gmask = ((line.dirty >> g) & 0xFF) as u8;
                if gmask == 0 {
                    line.data[g..g + glen].copy_from_slice(&fresh[g..g + glen]);
                } else if gmask != 0xFF {
                    for (i, &byte) in fresh.iter().enumerate().skip(g).take(glen) {
                        if line.dirty & (1 << i) == 0 {
                            line.data[i] = byte;
                        }
                    }
                }
                g += 8;
            }
            line.fetched = true;
            line.ready_at = ready;
            if demand {
                self.stats.misses += 1;
            } else {
                self.stats.prefetches += 1;
            }
            return ready;
        }
        // Miss: evict if needed, then fetch straight into the line (no
        // staging copy).
        self.evict(now, mem, idx);
        let owner = self.owner;
        let line = &mut self.lines[idx];
        let ready = mem.fetch(owner, now, tag, &mut line.data[..line_bytes]);
        line.tag = tag;
        line.dirty = 0;
        line.fetched = true;
        line.ready_at = ready;
        if demand {
            self.stats.misses += 1;
        } else {
            self.stats.prefetches += 1;
        }
        ready
    }

    fn evict(&mut self, now: Cycle, mem: &mut MemSys, idx: usize) {
        self.resident_span = (0, 0);
        let line_bytes = self.cfg.line_bytes as usize;
        if self.lines[idx].valid() && self.lines[idx].dirty != 0 {
            let tag = self.lines[idx].tag;
            let dirty = self.lines[idx].dirty;
            let data = self.lines[idx].data;
            Self::write_dirty_runs(self.owner, mem, now, tag, dirty, &data[..line_bytes]);
            self.stats.writebacks += 1;
            self.dirty_lines -= 1;
        }
        self.lines[idx] = Line::empty();
    }

    /// Write the dirty bytes of a line back as contiguous runs, lowest
    /// address first (the order the bus sees them, so it is part of the
    /// simulated timing and must not change).
    fn write_dirty_runs(
        owner: usize,
        mem: &mut MemSys,
        now: Cycle,
        tag: u32,
        dirty: u64,
        data: &[u8],
    ) -> Cycle {
        let full = if data.len() >= 64 {
            !0u64
        } else {
            (1u64 << data.len()) - 1
        };
        let mut d = dirty & full;
        if d == full {
            // Fully dirty line: one run covering the whole line.
            return mem.writeback(owner, now, tag, data);
        }
        let mut done = now;
        while d != 0 {
            let start = d.trailing_zeros() as usize;
            let run = (d >> start).trailing_ones() as usize;
            done =
                done.max(mem.writeback(owner, now, tag + start as u32, &data[start..start + run]));
            let end = start + run;
            d &= if end >= 64 {
                !(!0u64 << start)
            } else {
                !((1u64 << end) - (1u64 << start))
            };
        }
        done
    }

    /// Write `data` starting `offset` bytes into `buffer`. Writes are
    /// absorbed by the cache (no stall); the bus cost is paid at flush or
    /// eviction. Returns completion time (== `now` when cached).
    pub fn write(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        data: &[u8],
    ) -> Cycle {
        if data.is_empty() {
            return now;
        }
        if self.lines.is_empty() {
            let (a, b) = buffer.segments(offset, data.len() as u32);
            let mut done = mem.writeback(self.owner, now, a.addr, &data[..a.len as usize]);
            if let Some(s) = b {
                done = done.max(mem.writeback(self.owner, now, s.addr, &data[a.len as usize..]));
            }
            return done;
        }
        let (a, b) = buffer.segments(offset, data.len() as u32);
        // Fast path: the whole request lands inside one already-resident
        // line — bulk copy plus one mask OR, no eviction possible.
        if b.is_none() {
            let (idx, tag) = self.line_of(a.addr);
            let in_line_off = a.addr - tag;
            if in_line_off + a.len <= self.cfg.line_bytes {
                let line = &mut self.lines[idx];
                if line.valid() && line.tag == tag {
                    let s = in_line_off as usize;
                    line.data[s..s + a.len as usize].copy_from_slice(data);
                    if line.dirty == 0 {
                        self.dirty_lines += 1;
                    }
                    line.dirty |= Self::byte_mask(in_line_off, a.len);
                    return now;
                }
            }
        }
        let mut data_pos = 0usize;
        for seg in std::iter::once(a).chain(b) {
            let mut addr = seg.addr;
            let mut remaining = seg.len;
            while remaining > 0 {
                let (idx, tag) = self.line_of(addr);
                let in_line_off = addr - tag;
                let chunk = remaining.min(self.cfg.line_bytes - in_line_off);
                if !(self.lines[idx].valid() && self.lines[idx].tag == tag) {
                    // Write-allocate without fetching.
                    self.evict(now, mem, idx);
                    let line = &mut self.lines[idx];
                    line.tag = tag;
                    line.dirty = 0;
                    line.fetched = false;
                    line.ready_at = now;
                }
                let line = &mut self.lines[idx];
                let s = in_line_off as usize;
                line.data[s..s + chunk as usize]
                    .copy_from_slice(&data[data_pos..data_pos + chunk as usize]);
                if line.dirty == 0 {
                    self.dirty_lines += 1;
                }
                line.dirty |= Self::byte_mask(in_line_off, chunk);
                data_pos += chunk as usize;
                addr += chunk;
                remaining -= chunk;
            }
        }
        now
    }

    /// Coherency rule 2: invalidate clean cached lines overlapping the
    /// newly granted window `[offset, offset + len)` ahead of the access
    /// point. Dirty lines are kept — their dirty bytes are the
    /// coprocessor's own current data (and unwritten bytes will be
    /// re-fetched on demand thanks to the `fetched` flag).
    pub fn invalidate_window(&mut self, buffer: &CyclicBuffer, offset: u32, len: u32) {
        if self.lines.is_empty() || len == 0 {
            return;
        }
        self.resident_span = (0, 0);
        let mut invalidated = 0u64;
        buffer.lines_touched(offset, len, self.cfg.line_bytes, |tag_addr| {
            let (idx, tag) = self.line_of(tag_addr);
            let line = &mut self.lines[idx];
            if line.valid() && line.tag == tag && line.dirty == 0 {
                *line = Line::empty();
                invalidated += 1;
            } else if line.valid() && line.tag == tag {
                // Keep dirty bytes, but force a re-fetch for the rest.
                line.fetched = false;
            }
        });
        self.stats.invalidations += invalidated;
    }

    /// Coherency rule 3: flush dirty data in `[offset, offset + len)`
    /// ahead of the access point; returns the cycle at which all
    /// write-backs have completed (the `putspace` message must not be
    /// sent earlier).
    pub fn flush_window(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        len: u32,
    ) -> Cycle {
        if self.lines.is_empty() || len == 0 || self.dirty_lines == 0 {
            return now;
        }
        let line_bytes = self.cfg.line_bytes;
        let n_lines = self.lines.len();
        let (line_shift, idx_mask) = (self.line_shift, self.idx_mask);
        let lines = &mut self.lines;
        let stats = &mut self.stats;
        let dirty_lines = &mut self.dirty_lines;
        let owner = self.owner;
        let mut done = now;
        buffer.lines_touched(offset, len, line_bytes, |tag_addr| {
            let tag = tag_addr & !(line_bytes - 1);
            let n = (tag >> line_shift) as usize;
            let idx = if idx_mask != usize::MAX {
                n & idx_mask
            } else {
                n % n_lines
            };
            let line = &mut lines[idx];
            if line.valid() && line.tag == tag && line.dirty != 0 {
                let dirty = line.dirty;
                line.dirty = 0;
                *dirty_lines -= 1;
                done = done.max(Self::write_dirty_runs(
                    owner,
                    mem,
                    now,
                    tag,
                    dirty,
                    &line.data[..line_bytes as usize],
                ));
                stats.writebacks += 1;
            }
        });
        done
    }

    /// GetSpace-triggered prefetch of up to `len` bytes starting at
    /// in-buffer `offset` (must lie inside the granted window).
    pub fn prefetch(
        &mut self,
        now: Cycle,
        mem: &mut MemSys,
        buffer: &CyclicBuffer,
        offset: u32,
        len: u32,
    ) {
        if self.lines.is_empty() || !self.cfg.prefetch || len == 0 {
            return;
        }
        let len = len.min(buffer.size);
        // Fast paths for a non-wrapping span — the overwhelmingly common
        // streaming case, hit on every read-triggered prefetch once the
        // window is warm. A range inside the memoized resident span needs
        // no work at all; otherwise a per-line scan confirms residency and
        // extends the span. Either way the full walk below re-checks every
        // line, so these are purely skips.
        let mut span = None;
        if offset < buffer.size && len <= buffer.size - offset {
            let line_bytes = self.cfg.line_bytes;
            let start = buffer.base + offset;
            let first = start & !(line_bytes - 1);
            let last = (start + len - 1) & !(line_bytes - 1);
            if first >= self.resident_span.0 && last + line_bytes <= self.resident_span.1 {
                return;
            }
            let mut tag_addr = first;
            loop {
                let (idx, tag) = self.line_of(tag_addr);
                let l = &self.lines[idx];
                if l.tag != tag || !l.fetched {
                    break;
                }
                if tag_addr == last {
                    self.resident_span = (first, last + line_bytes);
                    return;
                }
                tag_addr += line_bytes;
            }
            // A contiguous run of at most `lines.len()` lines maps to
            // distinct indices, so after the walk every line of the range
            // holds its tag and the span may be recorded.
            if ((last - first) >> self.line_shift) < self.lines.len() as u32 {
                span = Some((first, last + line_bytes));
            }
        }
        buffer.lines_touched(offset, len, self.cfg.line_bytes, |tag_addr| {
            let (idx, tag) = self.line_of(tag_addr);
            if !(self.lines[idx].valid() && self.lines[idx].tag == tag) {
                self.ensure_line(now, mem, idx, tag, false);
            }
        });
        if let Some(s) = span {
            self.resident_span = s;
        }
    }

    /// Serialize the cache — its (possibly per-row overridden)
    /// configuration, every line, and the counters — so a checkpoint can
    /// recreate caches for rows mapped at run time.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.cfg.lines);
        w.u32(self.cfg.line_bytes);
        w.bool(self.cfg.prefetch);
        w.u32(self.cfg.prefetch_depth);
        for line in &self.lines {
            w.u32(line.tag);
            w.u64(line.ready_at);
            w.u64(line.dirty);
            w.bool(line.fetched);
            w.raw(&line.data[..self.cfg.line_bytes as usize]);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.prefetches);
        w.u64(self.stats.writebacks);
        w.u64(self.stats.invalidations);
        w.u64(self.stats.stall_cycles);
    }

    /// Reconstruct a cache serialized by [`StreamCache::save_state`].
    pub fn load_state(r: &mut SnapReader) -> Result<StreamCache, SnapError> {
        let cfg = CacheConfig {
            lines: r.usize()?,
            line_bytes: r.u32()?,
            prefetch: r.bool()?,
            prefetch_depth: r.u32()?,
        };
        if !cfg.line_bytes.is_power_of_two() || cfg.line_bytes > MAX_LINE_BYTES {
            return Err(SnapError::Corrupt("cache line size"));
        }
        // A saved line is 21 header bytes plus its data: a count the
        // remaining input cannot hold is corrupt, not an allocation.
        if cfg.lines > r.remaining() / (21 + cfg.line_bytes as usize) {
            return Err(SnapError::Corrupt("cache line count"));
        }
        let mut cache = StreamCache::new(cfg);
        for line in &mut cache.lines {
            line.tag = r.u32()?;
            line.ready_at = r.u64()?;
            line.dirty = r.u64()?;
            line.fetched = r.bool()?;
            let bytes = r.raw(cfg.line_bytes as usize)?;
            line.data[..cfg.line_bytes as usize].copy_from_slice(bytes);
        }
        cache.dirty_lines = cache.lines.iter().filter(|l| l.dirty != 0).count() as u32;
        cache.stats.hits = r.u64()?;
        cache.stats.misses = r.u64()?;
        cache.stats.prefetches = r.u64()?;
        cache.stats.writebacks = r.u64()?;
        cache.stats.invalidations = r.u64()?;
        cache.stats.stall_cycles = r.u64()?;
        Ok(cache)
    }
}

impl Snapshot for MemSys {
    fn save(&self, w: &mut SnapWriter) {
        self.sram.save(w);
        self.fabric.save_state(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.sram.load(r)?;
        self.fabric.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eclipse_mem::{BusConfig, SramConfig};

    fn memsys() -> MemSys {
        MemSys::shared_bus(
            SramConfig {
                size: 4096,
                word_bytes: 16,
                latency: 2,
            },
            BusConfig::default(),
            BusConfig::default(),
        )
    }

    fn cache(lines: usize) -> StreamCache {
        StreamCache::new(CacheConfig::with_lines(lines, false))
    }

    #[test]
    fn write_then_flush_then_read_through_memory() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 512);
        let mut producer = cache(4);
        let mut consumer = cache(4);

        producer.write(0, &mut mem, &buffer, 0, b"hello eclipse");
        // Data is only in the producer cache so far.
        let mut direct = [0u8; 13];
        mem.sram.read(0, &mut direct);
        assert_ne!(
            &direct, b"hello eclipse",
            "write must be absorbed by the cache"
        );

        producer.flush_window(10, &mut mem, &buffer, 0, 13);
        mem.sram.read(0, &mut direct);
        assert_eq!(&direct, b"hello eclipse", "flush must reach memory");

        let mut buf = [0u8; 13];
        consumer.read(20, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(&buf, b"hello eclipse");
    }

    #[test]
    fn second_read_hits() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 512);
        mem.sram.write(0, &[7u8; 64]);
        let mut c = cache(4);
        let mut buf = [0u8; 16];
        let t1 = c.read(0, &mut mem, &buffer, 0, &mut buf);
        assert!(t1 > 0, "miss must cost time");
        assert_eq!(c.stats.misses, 1);
        let t2 = c.read(t1, &mut mem, &buffer, 4, &mut buf);
        assert_eq!(t2, t1, "hit must be free");
        assert_eq!(c.stats.hits, 1);
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn stale_line_served_without_invalidation_fresh_after() {
        // This demonstrates why coherency rule 2 is load-bearing.
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 128);
        mem.sram.write(0, &[1u8; 64]);
        let mut c = cache(4);
        let mut buf = [0u8; 8];
        c.read(0, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(buf, [1u8; 8]);
        // Producer overwrites memory (as after a buffer wrap)...
        mem.sram.write(0, &[2u8; 64]);
        // ...without invalidation the consumer reads stale data:
        c.read(100, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(buf, [1u8; 8], "stale: cache still holds the old line");
        // With the GetSpace-driven invalidation it reads fresh data:
        c.invalidate_window(&buffer, 0, 64);
        c.read(200, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(buf, [2u8; 8]);
        assert!(c.stats.invalidations >= 1);
    }

    #[test]
    fn dirty_lines_survive_invalidation() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 128);
        let mut c = cache(4);
        c.write(0, &mut mem, &buffer, 0, b"mine");
        c.invalidate_window(&buffer, 0, 64);
        c.flush_window(10, &mut mem, &buffer, 0, 4);
        let mut direct = [0u8; 4];
        mem.sram.read(0, &mut direct);
        assert_eq!(&direct, b"mine");
    }

    #[test]
    fn eviction_writes_back_dirty_data() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 4096);
        let mut c = StreamCache::new(CacheConfig::with_lines(1, false));
        c.write(0, &mut mem, &buffer, 0, b"first");
        // Writing a conflicting line (same index, different tag) evicts.
        c.write(1, &mut mem, &buffer, 64, b"second");
        let mut direct = [0u8; 5];
        mem.sram.read(0, &mut direct);
        assert_eq!(&direct, b"first");
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn wrapping_read_crosses_buffer_edge() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 128);
        mem.sram.write(120, &[9u8; 8]);
        mem.sram.write(0, &[8u8; 8]);
        let mut c = cache(4);
        let mut buf = [0u8; 16];
        c.read(0, &mut mem, &buffer, 120, &mut buf);
        assert_eq!(&buf[..8], &[9u8; 8]);
        assert_eq!(&buf[8..], &[8u8; 8]);
    }

    #[test]
    fn prefetch_hides_latency() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 1024);
        mem.sram.write(0, &[5u8; 256]);
        let mut c = StreamCache::new(CacheConfig::with_lines(8, true));
        c.prefetch(0, &mut mem, &buffer, 0, 128);
        assert_eq!(c.stats.prefetches, 2);
        // A read far in the future: data long since arrived, zero stall.
        let mut buf = [0u8; 64];
        let done = c.read(1000, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(done, 1000);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn prefetched_line_read_early_stalls_until_ready() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 1024);
        let mut c = StreamCache::new(CacheConfig {
            lines: 8,
            line_bytes: 64,
            prefetch: true,
            prefetch_depth: 1,
        });
        c.prefetch(0, &mut mem, &buffer, 0, 64);
        let mut buf = [0u8; 8];
        let done = c.read(1, &mut mem, &buffer, 0, &mut buf);
        assert!(done > 1, "read before prefetch completion must stall");
    }

    #[test]
    fn uncached_mode_goes_straight_to_bus() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 512);
        mem.sram.write(0, &[3u8; 64]);
        let mut c = cache(0);
        let mut buf = [0u8; 32];
        let t1 = c.read(0, &mut mem, &buffer, 0, &mut buf);
        let t2 = c.read(t1, &mut mem, &buffer, 0, &mut buf);
        assert!(t2 > t1, "uncached reads always pay the bus");
        assert!(buf.iter().all(|&b| b == 3));
        c.write(t2, &mut mem, &buffer, 100, &[4u8; 8]);
        let mut direct = [0u8; 8];
        mem.sram.read(100, &mut direct);
        assert_eq!(direct, [4u8; 8]);
    }

    #[test]
    fn read_back_own_write_after_partial_allocate() {
        // A write-allocated line read back: dirty bytes from the cache,
        // the rest fetched from memory.
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 512);
        mem.sram.write(0, &[0x55u8; 64]);
        let mut c = cache(4);
        c.write(0, &mut mem, &buffer, 4, b"ABCD");
        let mut buf = [0u8; 12];
        c.read(10, &mut mem, &buffer, 0, &mut buf);
        assert_eq!(&buf[..4], &[0x55; 4]);
        assert_eq!(&buf[4..8], b"ABCD");
        assert_eq!(&buf[8..], &[0x55; 4]);
    }

    #[test]
    fn hit_rate_reported() {
        let mut mem = memsys();
        let buffer = CyclicBuffer::new(0, 512);
        let mut c = cache(4);
        let mut buf = [0u8; 8];
        c.read(0, &mut mem, &buffer, 0, &mut buf); // miss
        c.read(50, &mut mem, &buffer, 8, &mut buf); // hit
        c.read(60, &mut mem, &buffer, 16, &mut buf); // hit
        assert!((c.stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
