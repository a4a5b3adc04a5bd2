//! The stream table: one row per access point.
//!
//! Paper Section 5.1: "each shell locally contains the configuration data
//! for the streams that are incident with tasks mapped on its coprocessor
//! ... The shells implement a local stream table that contains a row of
//! fields for each stream, or more precisely, for each access point."
//!
//! A row holds the cyclic-buffer coordinates, the current access point,
//! the locally known *space* value (a possibly pessimistic distance to the
//! other access point), and the identity of the remote access point(s) to
//! which `putspace` messages are sent.
//!
//! Forked streams (one producer, several consumers) are handled on the
//! producer side by tracking space per consumer; the effective space is
//! the minimum — a byte's room is only recycled once *every* consumer has
//! released it.

use eclipse_mem::CyclicBuffer;
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::stats::TimeWeighted;
use eclipse_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::ShellId;

/// Index of a row within one shell's stream table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowIdx(pub u16);

/// Globally identifies an access point: a (shell, stream-table row) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessPoint {
    /// The shell holding the row.
    pub shell: ShellId,
    /// The row within that shell's stream table.
    pub row: RowIdx,
}

/// Direction of an access point relative to the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortDir {
    /// Writes data; `space` counts available *room*.
    Producer,
    /// Reads data; `space` counts available *data*.
    Consumer,
}

/// Configuration of one stream-table row (programmed by the CPU over the
/// PI bus when an application graph is set up).
#[derive(Debug, Clone)]
pub struct StreamRowConfig {
    /// The stream's cyclic buffer in shared memory.
    pub buffer: CyclicBuffer,
    /// Producer or consumer side.
    pub dir: PortDir,
    /// Remote access points: for a producer, all consumers of the stream;
    /// for a consumer, exactly the producer.
    pub remotes: Vec<AccessPoint>,
}

/// Measurement fields of a row (paper Section 5.4: "measurement data is
/// accumulated in the stream and task tables").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamRowStats {
    /// Total bytes committed through this access point.
    pub bytes_committed: u64,
    /// `PutSpace` calls issued here.
    pub putspace_calls: u64,
    /// `GetSpace` calls answered here.
    pub getspace_calls: u64,
    /// `GetSpace` calls denied.
    pub getspace_denied: u64,
    /// Incoming `putspace` messages received.
    pub messages_received: u64,
    /// Time-weighted effective space (buffer filling for consumers — the
    /// quantity plotted in the paper's Figure 10).
    pub space_trace: TimeWeighted,
}

/// One stream-table row.
#[derive(Debug, Clone)]
pub struct StreamRow {
    /// Static configuration.
    pub buffer: CyclicBuffer,
    /// Producer or consumer side.
    pub dir: PortDir,
    /// Remote access points (see [`StreamRowConfig::remotes`]).
    pub remotes: Vec<AccessPoint>,
    /// Current access point as an offset in the cyclic buffer.
    pub access_point: u32,
    /// Locally known space per remote; the effective value is the minimum.
    /// Producers start with a full buffer of room per consumer; consumers
    /// start with zero data.
    space: Vec<u32>,
    /// Currently granted window (the largest `GetSpace` grant not yet
    /// released by `PutSpace`). Reads/writes must stay inside it.
    pub granted: u32,
    /// The row has been retired by run-time unmapping: its buffer is
    /// freed and the slot is available for recycling. Retired rows are
    /// skipped by the scheduler, the sampler, and the credit checker;
    /// `putspace` messages addressed to them are rejected as stale.
    pub retired: bool,
    /// Measurement fields.
    pub stats: StreamRowStats,
}

impl StreamRow {
    /// Build a row from its configuration.
    pub fn new(cfg: StreamRowConfig) -> Self {
        assert!(
            !cfg.remotes.is_empty(),
            "a stream row needs at least one remote"
        );
        if cfg.dir == PortDir::Consumer {
            assert_eq!(
                cfg.remotes.len(),
                1,
                "a consumer has exactly one remote (the producer)"
            );
        }
        let initial = match cfg.dir {
            PortDir::Producer => cfg.buffer.size,
            PortDir::Consumer => 0,
        };
        StreamRow {
            buffer: cfg.buffer,
            dir: cfg.dir,
            remotes: cfg.remotes.clone(),
            access_point: 0,
            space: vec![initial; cfg.remotes.len()],
            granted: 0,
            retired: false,
            stats: StreamRowStats::default(),
        }
    }

    /// The effective space: minimum over all remote links.
    #[inline]
    pub fn effective_space(&self) -> u32 {
        *self.space.iter().min().expect("row has remotes")
    }

    /// The locally known space toward remote link `idx` (on a forked
    /// producer row each consumer has its own view; a consumer row has
    /// exactly one link). Used by the credit-conservation checker.
    #[inline]
    pub fn space_toward(&self, idx: usize) -> u32 {
        self.space[idx]
    }

    /// Answer a `GetSpace` inquiry locally (paper Figure 7: "the shell
    /// ... can answer a GetSpace request immediately by comparing the
    /// requested size with the locally stored space value"). On success
    /// the granted window is extended to at least `n` and the number of
    /// *newly granted* bytes (beyond any previous grant) is returned for
    /// cache invalidation; `None` is a denial.
    pub fn get_space(&mut self, n: u32, now: Cycle) -> Option<u32> {
        self.stats.getspace_calls += 1;
        if n > self.buffer.size {
            // Can never succeed; treated as a denial (a configuration
            // error the coprocessor must handle).
            self.stats.getspace_denied += 1;
            return None;
        }
        if self.effective_space() >= n {
            let newly = n.saturating_sub(self.granted);
            self.granted = self.granted.max(n);
            let _ = now;
            Some(newly)
        } else {
            self.stats.getspace_denied += 1;
            None
        }
    }

    /// Commit `n` bytes via `PutSpace`: advance the access point, shrink
    /// the local space (for every remote link), and report the bytes so
    /// the shell can emit `putspace` messages.
    ///
    /// # Panics
    /// Panics if `n` exceeds the granted window — the coprocessor violated
    /// the interface contract (paper: "in size constrained by the
    /// previously granted space").
    pub fn put_space(&mut self, n: u32, now: Cycle) {
        assert!(
            n <= self.granted,
            "PutSpace({n}) exceeds granted window {}",
            self.granted
        );
        self.granted -= n;
        for s in &mut self.space {
            debug_assert!(*s >= n);
            *s -= n;
        }
        self.access_point = self.buffer.wrap_add(self.access_point, n);
        self.stats.bytes_committed += n as u64;
        self.stats.putspace_calls += 1;
        self.stats
            .space_trace
            .set(now, self.effective_space() as f64);
    }

    /// Receive a `putspace` message from remote `src`: increment the space
    /// on that link (paper Figure 7).
    pub fn deliver_putspace(&mut self, src: AccessPoint, bytes: u32, now: Cycle) {
        let idx = self
            .remotes
            .iter()
            .position(|r| *r == src)
            .unwrap_or_else(|| panic!("putspace from unknown remote {src:?}"));
        self.space[idx] += bytes;
        debug_assert!(
            self.space[idx] <= self.buffer.size,
            "space overflow: {} > buffer {}",
            self.space[idx],
            self.buffer.size
        );
        self.stats.messages_received += 1;
        self.stats
            .space_trace
            .set(now, self.effective_space() as f64);
    }

    /// Absolute SRAM address of `offset` bytes ahead of the access point.
    #[inline]
    pub fn addr_at(&self, offset: u32) -> u32 {
        self.buffer
            .abs(self.buffer.wrap_add(self.access_point, offset))
    }

    /// Serialize the full row — configuration and dynamic state — so a
    /// checkpoint can recreate rows that were mapped at run time.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u32(self.buffer.base);
        w.u32(self.buffer.size);
        w.u8(match self.dir {
            PortDir::Producer => 0,
            PortDir::Consumer => 1,
        });
        w.usize(self.remotes.len());
        for r in &self.remotes {
            w.u16(r.shell.0);
            w.u16(r.row.0);
        }
        w.u32(self.access_point);
        w.usize(self.space.len());
        for &s in &self.space {
            w.u32(s);
        }
        w.u32(self.granted);
        w.bool(self.retired);
        self.stats.save(w);
    }

    /// Reconstruct a row serialized by [`StreamRow::save_state`].
    pub fn load_state(r: &mut SnapReader) -> Result<StreamRow, SnapError> {
        let (base, size) = (r.u32()?, r.u32()?);
        if size == 0 {
            return Err(SnapError::Corrupt("row buffer size"));
        }
        let buffer = CyclicBuffer::new(base, size);
        let dir = match r.u8()? {
            0 => PortDir::Producer,
            1 => PortDir::Consumer,
            _ => return Err(SnapError::Corrupt("port direction")),
        };
        let n_remotes = r.usize()?;
        let mut remotes = Vec::with_capacity(n_remotes.min(1 << 16));
        for _ in 0..n_remotes {
            remotes.push(AccessPoint {
                shell: ShellId(r.u16()?),
                row: RowIdx(r.u16()?),
            });
        }
        let access_point = r.u32()?;
        let n_space = r.usize()?;
        if n_space != n_remotes {
            return Err(SnapError::Corrupt("row space count"));
        }
        let mut space = Vec::with_capacity(n_space);
        for _ in 0..n_space {
            space.push(r.u32()?);
        }
        let granted = r.u32()?;
        // The access point is an offset into the buffer, and neither the
        // space toward any remote nor the grant can exceed the buffer;
        // larger values would overflow `space` on the next delivery.
        if access_point >= size {
            return Err(SnapError::Corrupt("row access point"));
        }
        if space.iter().any(|&sp| sp > size) || granted > size {
            return Err(SnapError::Corrupt("row space"));
        }
        let retired = r.bool()?;
        let mut stats = StreamRowStats::default();
        stats.load(r)?;
        Ok(StreamRow {
            buffer,
            dir,
            remotes,
            access_point,
            space,
            granted,
            retired,
            stats,
        })
    }
}

impl Snapshot for StreamRowStats {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.bytes_committed);
        w.u64(self.putspace_calls);
        w.u64(self.getspace_calls);
        w.u64(self.getspace_denied);
        w.u64(self.messages_received);
        self.space_trace.save(w);
    }

    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.bytes_committed = r.u64()?;
        self.putspace_calls = r.u64()?;
        self.getspace_calls = r.u64()?;
        self.getspace_denied = r.u64()?;
        self.messages_received = r.u64()?;
        self.space_trace.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(shell: u16, row: u16) -> AccessPoint {
        AccessPoint {
            shell: ShellId(shell),
            row: RowIdx(row),
        }
    }

    fn producer(size: u32, consumers: usize) -> StreamRow {
        StreamRow::new(StreamRowConfig {
            buffer: CyclicBuffer::new(0x100, size),
            dir: PortDir::Producer,
            remotes: (0..consumers).map(|i| ap(1, i as u16)).collect(),
        })
    }

    fn consumer(size: u32) -> StreamRow {
        StreamRow::new(StreamRowConfig {
            buffer: CyclicBuffer::new(0x100, size),
            dir: PortDir::Consumer,
            remotes: vec![ap(0, 0)],
        })
    }

    #[test]
    fn producer_starts_with_full_room_consumer_empty() {
        assert_eq!(producer(64, 1).effective_space(), 64);
        assert_eq!(consumer(64).effective_space(), 0);
    }

    #[test]
    fn get_space_grants_within_space() {
        let mut p = producer(64, 1);
        assert_eq!(p.get_space(40, 0), Some(40));
        // Extending the window: only the delta is newly granted.
        assert_eq!(p.get_space(50, 0), Some(10));
        // Re-inquiring a smaller window grants nothing new.
        assert_eq!(p.get_space(20, 0), Some(0));
        assert_eq!(p.granted, 50);
    }

    #[test]
    fn get_space_denied_when_insufficient() {
        let mut c = consumer(64);
        assert_eq!(c.get_space(1, 0), None);
        assert_eq!(c.stats.getspace_denied, 1);
        c.deliver_putspace(ap(0, 0), 16, 5);
        assert_eq!(c.get_space(16, 6), Some(16));
        assert_eq!(c.get_space(17, 7), None);
    }

    #[test]
    fn oversized_request_is_denied_not_panicking() {
        let mut p = producer(64, 1);
        assert_eq!(p.get_space(65, 0), None);
    }

    #[test]
    fn put_space_advances_and_wraps() {
        let mut p = producer(32, 1);
        p.get_space(32, 0).unwrap();
        p.put_space(20, 1);
        assert_eq!(p.access_point, 20);
        assert_eq!(p.effective_space(), 12);
        // Consumer releases room.
        p.deliver_putspace(ap(1, 0), 20, 2);
        assert_eq!(p.effective_space(), 32);
        p.get_space(20, 3).unwrap();
        p.put_space(20, 3);
        assert_eq!(p.access_point, 8); // wrapped
    }

    #[test]
    #[should_panic(expected = "exceeds granted window")]
    fn put_space_beyond_grant_panics() {
        let mut p = producer(64, 1);
        p.get_space(10, 0).unwrap();
        p.put_space(11, 1);
    }

    #[test]
    fn forked_stream_space_is_min_over_consumers() {
        let mut p = producer(64, 2);
        p.get_space(64, 0).unwrap();
        p.put_space(64, 1); // buffer now full
        assert_eq!(p.effective_space(), 0);
        p.deliver_putspace(ap(1, 0), 64, 2); // consumer 0 released all
        assert_eq!(
            p.effective_space(),
            0,
            "slowest consumer gates the producer"
        );
        p.deliver_putspace(ap(1, 1), 48, 3);
        assert_eq!(p.effective_space(), 48);
    }

    #[test]
    fn addr_at_applies_cyclic_addressing() {
        let mut c = consumer(32);
        c.deliver_putspace(ap(0, 0), 32, 0);
        c.get_space(32, 0).unwrap();
        c.put_space(30, 1);
        // access point at 30; offset 4 wraps to 2.
        assert_eq!(c.addr_at(4), 0x100 + 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = consumer(64);
        let _ = c.get_space(8, 0);
        c.deliver_putspace(ap(0, 0), 16, 1);
        c.get_space(8, 2).unwrap();
        c.put_space(8, 3);
        assert_eq!(c.stats.getspace_calls, 2);
        assert_eq!(c.stats.getspace_denied, 1);
        assert_eq!(c.stats.putspace_calls, 1);
        assert_eq!(c.stats.bytes_committed, 8);
        assert_eq!(c.stats.messages_received, 1);
    }

    #[test]
    #[should_panic(expected = "unknown remote")]
    fn putspace_from_unknown_remote_panics() {
        let mut c = consumer(64);
        c.deliver_putspace(ap(9, 9), 8, 0);
    }

    fn reload(row: &StreamRow) -> Result<StreamRow, SnapError> {
        let mut w = SnapWriter::new();
        row.save_state(&mut w);
        let bytes = w.into_bytes();
        StreamRow::load_state(&mut SnapReader::new(&bytes))
    }

    /// A checkpointed row whose access point lies outside its buffer, or
    /// whose space or grant exceeds the buffer, is corrupt: restoring it
    /// would let the next delivery overflow `space`.
    #[test]
    fn restore_rejects_offsets_and_space_beyond_the_buffer() {
        let mut p = producer(64, 2);
        p.get_space(16, 0).unwrap();
        p.put_space(8, 0);
        p.get_space(40, 0).unwrap();
        assert!(reload(&p).is_ok());
        let corrupt: [fn(&mut StreamRow); 5] = [
            |r| r.access_point = 64,
            |r| r.access_point = u32::MAX,
            |r| r.space[0] = 65,
            |r| r.space[1] = u32::MAX,
            |r| r.granted = 65,
        ];
        for (i, mutate) in corrupt.iter().enumerate() {
            let mut row = p.clone();
            mutate(&mut row);
            assert!(
                matches!(reload(&row), Err(SnapError::Corrupt(_))),
                "mutation {i} restored"
            );
        }
    }
}
