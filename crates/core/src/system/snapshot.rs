//! Whole-system checkpointing: [`EclipseSystem::save`],
//! [`EclipseSystem::restore`], and the rolling [`EclipseSystem::state_hash`].
//!
//! A checkpoint captures every piece of state that influences future
//! simulated behavior — the event calendar in exact pop order, the shell
//! stream/task tables (including rows and tasks mapped or retired by
//! run-time reconfiguration), per-row stream caches with their dirty
//! masks, SRAM and off-chip DRAM contents, the buffer allocator's free
//! list, application lifecycle records, fault-injector RNG streams, and
//! every statistics accumulator that feeds [`super::RunSummary`]. A run
//! restored from a checkpoint therefore continues *bit-exactly*: the
//! timing fingerprint, the state-hash sequence, and the final summary
//! are indistinguishable from the uninterrupted run.
//!
//! ## Format
//!
//! `MAGIC (8 bytes) | version u32 | config digest u64 | state section`.
//! The config digest is an FNV-1a hash of the build-time configuration
//! (template parameters, coprocessor roster, data-fabric kind): restoring
//! into a differently-built system fails fast with
//! [`SnapError::ConfigMismatch`] instead of deserializing garbage.
//!
//! The trace-sink accounting section rides at the very end of `save`
//! output but is *excluded* from [`EclipseSystem::state_hash`]: tracing
//! is observational, and enabling it must never change the hash of the
//! architectural state.

use std::collections::HashMap;

use eclipse_shell::stream_table::{AccessPoint, RowIdx};
use eclipse_shell::task_table::TaskIdx;
use eclipse_shell::{ShellId, SyncMsg};
use eclipse_sim::snapshot::{fnv1a_64, SnapError, SnapReader, SnapWriter, Snapshot};
use eclipse_sim::trace::TraceSink;
use eclipse_sim::{FaultInjector, FaultPlan};

use super::lifecycle::AppRecord;
use super::{event_key, AppState, EclipseSystem, Event};

/// Leading bytes of every Eclipse checkpoint.
pub const SNAP_MAGIC: &[u8; 8] = b"ECLSNAP1";
/// Checkpoint format version this build writes and accepts.
/// v2: fault-plan drop-burst window + injector sync counter, display
/// expected-frame totals (ISSUE 8).
/// v3: per-shell fault-injector RNG lanes, integer sync-latency
/// histogram accumulators (ISSUE 9). Calendar events still serialize as
/// `(time, event)` pairs — content keys are recomputed on load.
/// v4: no sync-network state (delivery is the flat per-message latency)
/// and no stored VLD output-port ids (derived from the bitstream source).
pub const SNAP_VERSION: u32 = 4;

fn save_access_point(w: &mut SnapWriter, ap: &AccessPoint) {
    w.u16(ap.shell.0);
    w.u16(ap.row.0);
}

fn load_access_point(r: &mut SnapReader) -> Result<AccessPoint, SnapError> {
    Ok(AccessPoint {
        shell: ShellId(r.u16()?),
        row: RowIdx(r.u16()?),
    })
}

impl Event {
    fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Event::Step(s) => {
                w.u8(0);
                w.usize(*s);
            }
            Event::Sync(m) => {
                w.u8(1);
                save_access_point(w, &m.src);
                save_access_point(w, &m.dst);
                w.u32(m.bytes);
                w.u64(m.send_at);
                w.u32(m.dst_gen);
            }
            Event::Sample => w.u8(2),
        }
    }

    fn load_state(r: &mut SnapReader) -> Result<Event, SnapError> {
        match r.u8()? {
            0 => Ok(Event::Step(r.usize()?)),
            1 => Ok(Event::Sync(SyncMsg {
                src: load_access_point(r)?,
                dst: load_access_point(r)?,
                bytes: r.u32()?,
                send_at: r.u64()?,
                dst_gen: r.u32()?,
            })),
            2 => Ok(Event::Sample),
            _ => Err(SnapError::Corrupt("event tag")),
        }
    }
}

impl AppRecord {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u8(match self.state {
            AppState::Running => 0,
            AppState::Paused => 1,
            AppState::Drained => 2,
        });
        w.usize(self.tasks.len());
        for &(s, t) in &self.tasks {
            w.usize(s);
            w.u8(t.0);
        }
        w.usize(self.rows.len());
        for &(s, r) in &self.rows {
            w.usize(s);
            w.u16(r.0);
        }
        w.usize(self.buffers.len());
        for b in &self.buffers {
            w.u32(b.base);
            w.u32(b.size);
        }
    }

    fn load_state(r: &mut SnapReader) -> Result<AppRecord, SnapError> {
        let state = match r.u8()? {
            0 => AppState::Running,
            1 => AppState::Paused,
            2 => AppState::Drained,
            _ => return Err(SnapError::Corrupt("app state tag")),
        };
        let mut tasks = Vec::new();
        for _ in 0..r.usize()? {
            let s = r.usize()?;
            tasks.push((s, TaskIdx(r.u8()?)));
        }
        let mut rows = Vec::new();
        for _ in 0..r.usize()? {
            let s = r.usize()?;
            rows.push((s, RowIdx(r.u16()?)));
        }
        let mut buffers = Vec::new();
        for _ in 0..r.usize()? {
            let base = r.u32()?;
            let size = r.u32()?;
            if size == 0 {
                return Err(SnapError::Corrupt("zero-size app buffer"));
            }
            buffers.push(eclipse_mem::CyclicBuffer::new(base, size));
        }
        Ok(AppRecord {
            state,
            tasks,
            rows,
            buffers,
        })
    }
}

impl EclipseSystem {
    /// FNV digest of the build-time configuration: template parameters,
    /// coprocessor roster, data-fabric backend, and the CPU-sync baseline
    /// flag. Two systems with equal digests were built through the same
    /// construction path and can exchange checkpoints.
    pub fn config_digest(&self) -> u64 {
        let desc = format!(
            "{:?}|coprocs={:?}|data={}|cpu={:?}",
            self.cfg,
            self.shell_names,
            self.mem.fabric.kind(),
            self.cpu_sync,
        );
        fnv1a_64(desc.as_bytes())
    }

    /// Rolling digest of all architectural state (everything the event
    /// loop can observe), excluding the trace-sink accounting. Two runs
    /// that agree on every `state_hash` sample agree on their futures;
    /// the first diverging sample brackets a nondeterminism bug.
    pub fn state_hash(&self) -> u64 {
        let mut w = SnapWriter::new();
        self.write_state(&mut w, false);
        fnv1a_64(w.bytes())
    }

    /// Serialize the full system to a versioned checkpoint. The system
    /// is not disturbed; saving mid-run (between events) is the intended
    /// use — pair with [`EclipseSystem::run_until`].
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.raw(SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        w.u64(self.config_digest());
        self.write_state(&mut w, true);
        w.into_bytes()
    }

    /// Restore a checkpoint produced by [`EclipseSystem::save`] into
    /// this system, which must have been built through the same
    /// construction path (same config, coprocessors, fabrics — enforced
    /// via the config digest). All dynamic state, including applications
    /// mapped live after the original build, is reproduced; the next
    /// `run`/`run_until` continues exactly where the saved run stopped.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.raw(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return Err(SnapError::Magic);
        }
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::Version(version));
        }
        let found = r.u64()?;
        let expected = self.config_digest();
        if found != expected {
            return Err(SnapError::ConfigMismatch { expected, found });
        }
        self.read_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::Corrupt("trailing bytes"));
        }
        Ok(())
    }

    /// Append the state section. `with_sink` includes the trace-sink
    /// accounting (full checkpoints); the state hash passes `false` so
    /// observational tracing never perturbs the digest.
    fn write_state(&self, w: &mut SnapWriter, with_sink: bool) {
        // Calendar: current time plus every pending event in exact pop
        // order (far-heap/wheel distinctions are reconstructed on load).
        w.u64(self.cal.now());
        let pending = self.cal.pending_in_order();
        w.usize(pending.len());
        for (time, ev) in &pending {
            w.u64(*time);
            ev.save_state(w);
        }

        // Shells (stream/task tables, caches, scheduler, generations) and
        // their run-time-editable row labels.
        w.usize(self.shells.len());
        for shell in &self.shells {
            shell.save_state(w);
        }
        for labels in &self.row_labels {
            w.usize(labels.len());
            for label in labels {
                w.str(label);
            }
        }

        // Memories, transports, and the SRAM allocator.
        self.mem.save(w);
        self.dram.save(w);
        self.system_bus.save(w);
        self.alloc.save(w);
        w.u32(self.dram_next);

        // Application lifecycle records, sorted by name for stable bytes.
        let mut app_names: Vec<&String> = self.apps.keys().collect();
        app_names.sort();
        w.usize(app_names.len());
        for name in app_names {
            w.str(name);
            self.apps[name].save_state(w);
        }

        // In-flight sync accounting, sorted by key for stable bytes.
        let pending_syncs = self.pending_syncs.entries_sorted();
        w.usize(pending_syncs.len());
        for ((shell, row), n) in pending_syncs {
            w.usize(shell);
            w.u16(row);
            w.u32(n);
        }

        // Run-loop bookkeeping and accumulators.
        w.bool(self.started);
        w.usize(self.idle_since.len());
        for since in &self.idle_since {
            match since {
                None => w.bool(false),
                Some(t) => {
                    w.bool(true);
                    w.u64(*t);
                }
            }
        }
        for u in &self.utilization {
            u.save(w);
        }
        self.trace.save(w);
        self.sync_latency.save(w);
        w.u64(self.cpu_next_free);
        w.u64(self.cpu_sync_busy);
        w.u64(self.sync_messages);
        w.u64(self.pi_accesses);
        w.u64(self.pi_next_free);
        w.u64(self.pi_busy_cycles);
        match &self.fault {
            None => w.bool(false),
            Some(inj) => {
                w.bool(true);
                inj.save(w);
            }
        }
        match self.watchdog_cycles {
            None => w.bool(false),
            Some(c) => {
                w.bool(true);
                w.u64(c);
            }
        }
        w.u64(self.last_progress);
        w.bool(self.credit_check);
        for map in [&self.in_flight, &self.credits_lost] {
            let mut entries: Vec<_> = map
                .iter()
                .map(|(&(a, b), &v)| ((a.shell.0, a.row.0, b.shell.0, b.row.0), (a, b), v))
                .collect();
            entries.sort_by_key(|e| e.0);
            w.usize(entries.len());
            for (_, (a, b), v) in entries {
                save_access_point(w, &a);
                save_access_point(w, &b);
                w.u64(v);
            }
        }

        // Coprocessor task state, through the trait hooks.
        w.usize(self.coprocs.len());
        for c in &self.coprocs {
            c.save_state(w);
        }

        // Trace-sink accounting last, so the state hash can simply stop
        // before it.
        if with_sink {
            match &self.trace_sink {
                None => w.bool(false),
                Some(sink) => {
                    w.bool(true);
                    sink.borrow().save_state(w);
                }
            }
        }
    }

    /// Load the state section written by `write_state(_, true)`.
    fn read_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let now = r.u64()?;
        let n_events = r.usize()?;
        let mut events = Vec::with_capacity(n_events.min(1 << 20));
        for _ in 0..n_events {
            let time = r.u64()?;
            let ev = Event::load_state(r)?;
            // Keys are pure functions of event content — recomputed here
            // instead of serialized, so the v2→v3 checkpoint layout of
            // this section is unchanged.
            events.push((time, event_key(&ev), ev));
        }

        if r.usize()? != self.shells.len() {
            return Err(SnapError::Corrupt("shell count"));
        }
        for shell in &mut self.shells {
            shell.load_state(r)?;
        }
        // The run loop routes by these access points and shell indices
        // without checks: a checkpoint naming a missing shell or row is
        // corrupt.
        let exists = |ap: &AccessPoint| {
            self.shells
                .get(ap.shell.0 as usize)
                .is_some_and(|sh| (ap.row.0 as usize) < sh.rows().len())
        };
        for shell in &self.shells {
            if !shell.rows().iter().flat_map(|row| &row.remotes).all(exists) {
                return Err(SnapError::Corrupt("row remote"));
            }
        }
        // Space a live row holds toward a sender plus the credits in
        // flight from it never exceed the row's buffer (credit
        // conservation); more would overflow the row's `u32` space when
        // the messages are delivered.
        let mut credits: HashMap<(AccessPoint, AccessPoint), u64> = HashMap::new();
        for (_, _, ev) in &events {
            let ok = match ev {
                Event::Step(s) => *s < self.shells.len(),
                // A live destination row must know the sender; a stale
                // message (retired row or old generation) is dropped on
                // delivery without a lookup.
                Event::Sync(m) => {
                    exists(&m.dst) && {
                        let shell = &self.shells[m.dst.shell.0 as usize];
                        let row = &shell.rows()[m.dst.row.0 as usize];
                        if row.retired || m.dst_gen != shell.row_generation(m.dst.row) {
                            true
                        } else if let Some(idx) = row.remotes.iter().position(|r| *r == m.src) {
                            let c = credits
                                .entry((m.dst, m.src))
                                .or_insert(row.space_toward(idx) as u64);
                            *c += m.bytes as u64;
                            if *c > row.buffer.size as u64 {
                                return Err(SnapError::Corrupt("pending putspace bytes"));
                            }
                            true
                        } else {
                            false
                        }
                    }
                }
                Event::Sample => true,
            };
            if !ok {
                return Err(SnapError::Corrupt("calendar event target"));
            }
        }
        self.cal.restore(now, events);
        for labels in &mut self.row_labels {
            let n = r.usize()?;
            labels.clear();
            for _ in 0..n {
                labels.push(r.str()?);
            }
        }

        self.mem.load(r)?;
        self.dram.load(r)?;
        self.system_bus.load(r)?;
        self.alloc.load(r)?;
        self.dram_next = r.u32()?;

        self.apps.clear();
        for _ in 0..r.usize()? {
            let name = r.str()?;
            let record = AppRecord::load_state(r)?;
            self.apps.insert(name, record);
        }

        self.pending_syncs.clear();
        for _ in 0..r.usize()? {
            let shell = r.usize()?;
            let row = r.u16()?;
            let n = r.u32()?;
            self.pending_syncs.add(shell, row, n);
        }

        self.started = r.bool()?;
        if r.usize()? != self.idle_since.len() {
            return Err(SnapError::Corrupt("shell count (idle)"));
        }
        for since in &mut self.idle_since {
            *since = if r.bool()? { Some(r.u64()?) } else { None };
        }
        for u in &mut self.utilization {
            u.load(r)?;
        }
        self.trace.load(r)?;
        self.sync_latency.load(r)?;
        self.cpu_next_free = r.u64()?;
        self.cpu_sync_busy = r.u64()?;
        self.sync_messages = r.u64()?;
        self.pi_accesses = r.u64()?;
        self.pi_next_free = r.u64()?;
        self.pi_busy_cycles = r.u64()?;
        self.fault = if r.bool()? {
            let mut inj = self
                .fault
                .take()
                .unwrap_or_else(|| FaultInjector::new(FaultPlan::default()));
            inj.load(r)?;
            Some(inj)
        } else {
            None
        };
        self.watchdog_cycles = if r.bool()? { Some(r.u64()?) } else { None };
        self.last_progress = r.u64()?;
        self.credit_check = r.bool()?;
        for map in [&mut self.in_flight, &mut self.credits_lost] {
            map.clear();
            for _ in 0..r.usize()? {
                let a = load_access_point(r)?;
                let b = load_access_point(r)?;
                let v = r.u64()?;
                map.insert((a, b), v);
            }
        }

        if r.usize()? != self.coprocs.len() {
            return Err(SnapError::Corrupt("coprocessor count"));
        }
        for c in &mut self.coprocs {
            c.load_state(r)?;
        }

        // Trace-sink accounting: load into the installed sink, or parse
        // into a scratch sink when the restoring run has tracing off (the
        // section still must be consumed to validate the stream end).
        if r.bool()? {
            match &self.trace_sink {
                Some(sink) => sink.borrow_mut().load_state(r)?,
                None => TraceSink::new(0).load_state(r)?,
            }
        }
        Ok(())
    }
}
