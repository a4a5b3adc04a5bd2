//! Incremental windowed stream I/O for coprocessor models.
//!
//! The paper's §4.1 access pattern made ergonomic: a [`StepReader`]
//! extends its GetSpace window incrementally as a record's size becomes
//! known while parsing (the `GetSpace`/`Read` calls of a data-dependent
//! input), and commits the total once with `PutSpace` when the step is
//! certain to complete. A [`StepWriter`] stages the step's full output,
//! asks for the window once, and commits it — postponing `PutSpace` to
//! the end of the step exactly as §4.2 prescribes, which is what makes
//! aborted steps side-effect-free.
//!
//! Both helpers are *per step*: on a denied GetSpace the step returns
//! [`eclipse_core::StepResult::Blocked`], the helper is dropped, and the
//! retry re-parses from the access point (granted windows survive in the
//! shell, so the retry's inquiries succeed immediately).

use eclipse_core::StepCtx;
use eclipse_shell::PortId;

/// Incremental reader over one input port within one processing step.
pub struct StepReader {
    port: PortId,
    /// Bytes already consumed (read head) relative to the access point.
    pos: u32,
    /// Largest window requested so far.
    window: u32,
}

impl StepReader {
    /// A reader for `port`, starting at the access point.
    pub fn new(port: PortId) -> Self {
        StepReader {
            port,
            pos: 0,
            window: 0,
        }
    }

    /// Bytes consumed so far (what `commit` will release).
    pub fn consumed(&self) -> u32 {
        self.pos
    }

    /// Ensure the window covers `n` more bytes beyond the current read
    /// head; returns false if the data is not available (caller should
    /// return `Blocked`).
    pub fn need(&mut self, ctx: &mut StepCtx<'_>, n: u32) -> bool {
        let wanted = self.pos + n;
        if wanted <= self.window {
            return true;
        }
        if ctx.get_space(self.port, wanted) {
            self.window = wanted;
            true
        } else {
            false
        }
    }

    /// Read exactly `buf.len()` bytes at the read head and advance it.
    /// The window must already cover them (call [`StepReader::need`]).
    pub fn read(&mut self, ctx: &mut StepCtx<'_>, buf: &mut [u8]) {
        debug_assert!(
            self.pos + buf.len() as u32 <= self.window,
            "read beyond requested window"
        );
        ctx.read(self.port, self.pos, buf);
        self.pos += buf.len() as u32;
    }

    /// Read `buf.len() / rec` consecutive `rec`-byte records at the read
    /// head and advance past them, in one shell call charged exactly as
    /// one [`StepReader::read`] per record. The window must already cover
    /// them.
    pub fn read_run(&mut self, ctx: &mut StepCtx<'_>, rec: usize, buf: &mut [u8]) {
        debug_assert!(
            self.pos + buf.len() as u32 <= self.window,
            "read beyond requested window"
        );
        ctx.read_run(self.port, self.pos, rec, buf);
        self.pos += buf.len() as u32;
    }

    /// Convenience: `need` + `read` of a fixed-size array.
    pub fn take<const N: usize>(&mut self, ctx: &mut StepCtx<'_>) -> Option<[u8; N]> {
        if !self.need(ctx, N as u32) {
            return None;
        }
        let mut buf = [0u8; N];
        self.read(ctx, &mut buf);
        Some(buf)
    }

    /// Peek one byte at the read head without consuming it.
    pub fn peek_tag(&mut self, ctx: &mut StepCtx<'_>) -> Option<u8> {
        if !self.need(ctx, 1) {
            return None;
        }
        let mut b = [0u8; 1];
        ctx.read(self.port, self.pos, &mut b);
        Some(b[0])
    }

    /// Commit everything consumed in this step.
    pub fn commit(self, ctx: &mut StepCtx<'_>) {
        if self.pos > 0 {
            ctx.put_space(self.port, self.pos);
        }
    }
}

/// Staged writer for one output port within one processing step. It
/// stages into a buffer the coprocessor owns and hands to every step,
/// so once that buffer has grown to the largest output a step allocates
/// nothing.
pub struct StepWriter<'b> {
    port: PortId,
    staged: &'b mut Vec<u8>,
}

impl<'b> StepWriter<'b> {
    /// A writer for `port` staging into `staged` (emptied first).
    pub fn new(port: PortId, staged: &'b mut Vec<u8>) -> Self {
        staged.clear();
        StepWriter { port, staged }
    }

    /// Stage bytes for output (no shell interaction yet).
    pub fn stage(&mut self, data: &[u8]) {
        self.staged.extend_from_slice(data);
    }

    /// Bytes staged so far.
    pub fn staged_len(&self) -> u32 {
        self.staged.len() as u32
    }

    /// Ask for the output window covering everything staged. Returns
    /// false if the room is not available (caller should return
    /// `Blocked`; the staged data is discarded with the helper).
    pub fn reserve(&self, ctx: &mut StepCtx<'_>) -> bool {
        if self.staged.is_empty() {
            return true;
        }
        ctx.get_space(self.port, self.staged.len() as u32)
    }

    /// Write and commit the staged bytes. `reserve` must have succeeded.
    pub fn commit(self, ctx: &mut StepCtx<'_>) {
        if self.staged.is_empty() {
            return;
        }
        ctx.write(self.port, 0, self.staged);
        ctx.put_space(self.port, self.staged.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    // StepReader/StepWriter are exercised end-to-end by every coprocessor
    // test; the unit tests here pin the window arithmetic via a tiny fake
    // system.
    use super::*;
    use eclipse_core::{Coprocessor, EclipseConfig, StepCtx, StepResult, SystemBuilder};
    use eclipse_kpn::GraphBuilder;
    use eclipse_shell::TaskIdx;

    /// Producer that emits length-prefixed variable-size records.
    struct VarProducer {
        records: Vec<Vec<u8>>,
        next: usize,
        stage: Vec<u8>,
    }
    impl Coprocessor for VarProducer {
        fn name(&self) -> &str {
            "varprod"
        }
        fn supports(&self, f: &str) -> bool {
            f == "varprod"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            if self.next >= self.records.len() {
                // End marker: length 0.
                let mut w = StepWriter::new(0, &mut self.stage);
                w.stage(&[0u8]);
                if !w.reserve(ctx) {
                    return StepResult::Blocked;
                }
                w.commit(ctx);
                return StepResult::Finished;
            }
            let rec = &self.records[self.next];
            let mut w = StepWriter::new(0, &mut self.stage);
            w.stage(&[rec.len() as u8]);
            w.stage(rec);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            ctx.compute(5);
            self.next += 1;
            StepResult::Done
        }
    }

    /// Consumer that parses the length prefix, then reads the payload —
    /// the incremental-window pattern.
    struct VarConsumer {
        received: Vec<Vec<u8>>,
    }
    impl Coprocessor for VarConsumer {
        fn name(&self) -> &str {
            "varcons"
        }
        fn supports(&self, f: &str) -> bool {
            f == "varcons"
        }
        fn configure_task(
            &mut self,
            _: TaskIdx,
            _: &eclipse_kpn::graph::TaskDecl,
        ) -> (Vec<u32>, Vec<u32>) {
            (vec![1], vec![])
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn step(&mut self, _t: TaskIdx, _i: u32, ctx: &mut StepCtx<'_>) -> StepResult {
            let mut r = StepReader::new(0);
            let len = match r.take::<1>(ctx) {
                None => return StepResult::Blocked,
                Some([l]) => l as usize,
            };
            if len == 0 {
                r.commit(ctx);
                return StepResult::Finished;
            }
            if !r.need(ctx, len as u32) {
                return StepResult::Blocked;
            }
            let mut payload = vec![0u8; len];
            r.read(ctx, &mut payload);
            ctx.compute(len as u64);
            r.commit(ctx);
            self.received.push(payload);
            StepResult::Done
        }
    }

    #[test]
    fn variable_length_records_flow_end_to_end() {
        let records: Vec<Vec<u8>> = (1..20u8).map(|i| (0..i).map(|j| i ^ j).collect()).collect();
        let mut g = GraphBuilder::new("var");
        let s = g.stream("s", 48); // small buffer: forces blocking + wraps
        g.task("p", "varprod", 0, &[], &[s]);
        g.task("c", "varcons", 0, &[s], &[]);
        let graph = g.build().unwrap();
        let mut b = SystemBuilder::new(EclipseConfig::default());
        b.add_coprocessor(Box::new(VarProducer {
            records: records.clone(),
            next: 0,
            stage: Vec::new(),
        }));
        let ci = b.add_coprocessor(Box::new(VarConsumer { received: vec![] }));
        b.map_app(&graph).unwrap();
        let mut sys = b.build();
        let summary = sys.run(1_000_000);
        assert_eq!(summary.outcome, eclipse_core::RunOutcome::AllFinished);
        let cons = sys
            .coproc(ci)
            .as_any()
            .downcast_ref::<VarConsumer>()
            .unwrap();
        assert_eq!(cons.received, records);
    }
}
