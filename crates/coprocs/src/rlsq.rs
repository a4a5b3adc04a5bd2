//! The RLSQ coprocessor: run-length (de)coding, (inverse) scan, and
//! (inverse) quantization.
//!
//! Paper Section 6: "the RLSQ coprocessor performs the run-length
//! decoding, inverse scan, and inverse quantization of the MPEG-2
//! decoding graph, as well as the encoding variant: quantization, zigzag
//! scan and run-length encoding." The three task functions:
//!
//! * `rlsq` (decode): token stream in → dequantized coefficient blocks
//!   out;
//! * `qrl` (encode): FDCT coefficient blocks + the forked mb-decision
//!   stream in → quantized run/level symbols (token records, for the
//!   VLE) *and* quantized level blocks (for the encoder's reconstruction
//!   loop) out;
//! * the encode-side inverse quantizer is folded into `qrl`'s second
//!   output (levels are dequantized by the `iq` function, also hosted
//!   here).
//!
//! Its cost is dominated by the per-coefficient work, which is what makes
//! it the I-picture bottleneck in the paper's Figure 10.

use std::collections::BTreeMap;

use eclipse_core::{Coprocessor, StepCtx, StepResult};
use eclipse_media::quant::{dequant_inter, dequant_intra, quant_inter, quant_intra};
use eclipse_media::scan::{rle_decode, rle_encode, RunLevel};
use eclipse_shell::{PortId, TaskIdx};
use eclipse_sim::snapshot::{SnapError, SnapReader, SnapWriter};

use crate::cost::RlsqCost;
use crate::io::{StepReader, StepWriter};
use crate::records::{self, cblk_from_body, cblk_to_bytes, PicRec, TAG_EOS, TAG_MB, TAG_PIC};
use crate::snap;

/// Quantizer scale for macroblocks that arrive before any valid PIC
/// record on a damaged stream (the output is concealment fodder anyway).
const DEFAULT_QSCALE: u8 = 8;

/// Which RLSQ function a task performs (from the task's function name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Function {
    /// Decode: run-length decode + inverse scan + inverse quantize.
    Decode,
    /// Encode: quantize + zigzag + run-length encode.
    EncodeQrl,
    /// Encode reconstruction loop: inverse quantize level blocks.
    Iq,
}

struct RlsqTask {
    function: Function,
    /// Current picture context (qscale, type) from the latest PIC record.
    pic: Option<PicRec>,
    /// Encode-side DC predictors (the encoder's QRL owns DC prediction).
    dc_pred: [i16; 3],
    /// Statistics.
    coefs_processed: u64,
    blocks_processed: u64,
    /// Records that arrived damaged (SRAM faults upstream) and were
    /// skipped or zero-substituted instead of crashing.
    errors_recovered: u64,
}

impl RlsqTask {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u8(match self.function {
            Function::Decode => 0,
            Function::EncodeQrl => 1,
            Function::Iq => 2,
        });
        snap::save_pic_opt(w, &self.pic);
        for v in self.dc_pred {
            w.i16(v);
        }
        w.u64(self.coefs_processed);
        w.u64(self.blocks_processed);
        w.u64(self.errors_recovered);
    }

    fn load_state(r: &mut SnapReader) -> Result<RlsqTask, SnapError> {
        let function = match r.u8()? {
            0 => Function::Decode,
            1 => Function::EncodeQrl,
            2 => Function::Iq,
            _ => return Err(SnapError::Corrupt("rlsq function tag")),
        };
        let pic = snap::load_pic_opt(r)?;
        let mut dc_pred = [0i16; 3];
        for v in &mut dc_pred {
            *v = r.i16()?;
        }
        Ok(RlsqTask {
            function,
            pic,
            dc_pred,
            coefs_processed: r.u64()?,
            blocks_processed: r.u64()?,
            errors_recovered: r.u64()?,
        })
    }
}

/// The RLSQ coprocessor model.
pub struct RlsqCoproc {
    cost: RlsqCost,
    /// Ordered map: checkpoint serialization iterates it, and two builds
    /// of the same system must produce identical bytes.
    tasks: BTreeMap<TaskIdx, RlsqTask>,
    /// Output staging buffers every step reuses (scratch, not state).
    stage: [Vec<u8>; 2],
}

impl RlsqCoproc {
    /// A new RLSQ.
    pub fn new(cost: RlsqCost) -> Self {
        RlsqCoproc {
            cost,
            tasks: BTreeMap::new(),
            stage: Default::default(),
        }
    }

    /// Coefficients processed by a task (workload statistics).
    pub fn coefs_processed(&self, task: TaskIdx) -> u64 {
        self.tasks.get(&task).map_or(0, |t| t.coefs_processed)
    }
}

impl Coprocessor for RlsqCoproc {
    fn name(&self) -> &str {
        "rlsq"
    }

    fn supports(&self, function: &str) -> bool {
        matches!(function, "rlsq" | "qrl" | "iq")
    }

    fn configure_task(
        &mut self,
        task: TaskIdx,
        decl: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let function = match decl.function.as_str() {
            "rlsq" => Function::Decode,
            "qrl" => Function::EncodeQrl,
            "iq" => Function::Iq,
            other => panic!("RLSQ cannot perform '{other}'"),
        };
        self.tasks.insert(
            task,
            RlsqTask {
                function,
                pic: None,
                dc_pred: [128; 3],
                coefs_processed: 0,
                blocks_processed: 0,
                errors_recovered: 0,
            },
        );
        // Input hints must not exceed the smallest record (the 1-byte
        // EOS tag), or the scheduler would never run the stream tail.
        match function {
            Function::Decode => (vec![1], vec![records::CBLK_REC_BYTES]),
            Function::EncodeQrl => (vec![1, 0], vec![16, 0]),
            Function::Iq => (vec![1], vec![records::CBLK_REC_BYTES]),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn error_counters(&self) -> (u64, u64) {
        (self.tasks.values().map(|t| t.errors_recovered).sum(), 0)
    }

    fn task_error_counters(&self, task: TaskIdx) -> (u64, u64) {
        self.tasks
            .get(&task)
            .map_or((0, 0), |t| (t.errors_recovered, 0))
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.tasks.len());
        for (task, t) in &self.tasks {
            w.u8(task.0);
            t.save_state(w);
        }
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.tasks.clear();
        for _ in 0..r.usize()? {
            let task = TaskIdx(r.u8()?);
            self.tasks.insert(task, RlsqTask::load_state(r)?);
        }
        Ok(())
    }

    fn step(&mut self, task: TaskIdx, _info: u32, ctx: &mut StepCtx<'_>) -> StepResult {
        let cost = self.cost;
        let t = self.tasks.get_mut(&task).expect("unconfigured RLSQ task");
        let stage = &mut self.stage;
        match t.function {
            Function::Decode => step_decode(t, &cost, &mut stage[0], ctx),
            Function::EncodeQrl => step_qrl(t, &cost, stage, ctx),
            Function::Iq => step_iq(t, &cost, &mut stage[0], ctx),
        }
    }
}

/// Decode direction: one macroblock's coefficient data per step.
fn step_decode(
    t: &mut RlsqTask,
    cost: &RlsqCost,
    stage: &mut Vec<u8>,
    ctx: &mut StepCtx<'_>,
) -> StepResult {
    const IN: PortId = 0;
    const OUT: PortId = 1; // port numbering: inputs first, then outputs

    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut buf = [0u8; 1];
            r.read(ctx, &mut buf);
            let mut w = StepWriter::new(OUT, stage);
            w.stage(&[TAG_EOS]);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            match PicRec::from_body(&body[1..]) {
                Some(pic) => t.pic = Some(pic),
                // Damaged picture record (an upstream SRAM fault): keep
                // the previous picture context and move on.
                None => t.errors_recovered += 1,
            }
            ctx.compute(8);
            r.commit(ctx);
            StepResult::Done
        }
        TAG_MB => {
            // A damaged stream can deliver an MB record before any valid
            // PIC record; dequantize with a default scale instead of
            // crashing (the output is concealment fodder anyway).
            let (qscale, mut errs) = match t.pic {
                Some(pic) => (pic.qscale, 0u64),
                None => (DEFAULT_QSCALE, 1),
            };
            let hdr = match r.take::<{ records::MB_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let (mode_code, cbp) = (hdr[1], hdr[2]);
            let intra = mode_code == records::mode::INTRA;
            let mut w = StepWriter::new(OUT, stage);
            let mut cycles = cost.per_mb;
            let mut coefs: u64 = 0;
            let mut blocks: u64 = 0;
            let mut corrupt = false;
            for blk in 0..6 {
                if cbp & (1 << (5 - blk)) == 0 {
                    continue;
                }
                if corrupt {
                    // Zero-substitute the rest so the CBLK count still
                    // matches this record's coded-block pattern.
                    w.stage(&cblk_to_bytes(&[0i16; 64]));
                    blocks += 1;
                    continue;
                }
                // Parse one block: [dc if intra] nsym, then symbols.
                let dc = if intra {
                    let b = match r.take::<2>(ctx) {
                        None => return StepResult::Blocked,
                        Some(b) => b,
                    };
                    Some(i16::from_le_bytes(b))
                } else {
                    None
                };
                let nsym = match r.take::<2>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => u16::from_le_bytes(b) as u32,
                };
                // At most 64 symbols fit in an 8x8 block; a larger count
                // is a corrupted length field, and waiting for that many
                // bytes could exceed the buffer and deadlock the graph.
                if nsym > 64 {
                    errs += 1;
                    corrupt = true;
                    w.stage(&cblk_to_bytes(&[0i16; 64]));
                    blocks += 1;
                    continue;
                }
                let mut symbols = [RunLevel::default(); 64];
                if !records::read_symbols(&mut r, ctx, nsym, &mut symbols) {
                    return StepResult::Blocked;
                }
                let mut levels = match rle_decode(&symbols[..nsym as usize]) {
                    Ok(levels) => levels,
                    Err(_) => {
                        // Run/level data overflows the block: zero it.
                        errs += 1;
                        [0i16; 64]
                    }
                };
                if let Some(dc) = dc {
                    levels[0] = dc;
                }
                let dequant = if intra {
                    dequant_intra(&levels, qscale)
                } else {
                    dequant_inter(&levels, qscale)
                };
                w.stage(&cblk_to_bytes(&dequant));
                cycles += cost.per_block + (nsym as u64 + intra as u64) * cost.per_coef;
                coefs += nsym as u64 + intra as u64;
                blocks += 1;
            }
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            ctx.compute(cycles);
            t.coefs_processed += coefs;
            t.blocks_processed += blocks;
            t.errors_recovered += errs;
            StepResult::Done
        }
        _ => skip_byte(t, r, ctx),
    }
}

/// Encode direction (`qrl`): consumes the forked mb-decision stream
/// (in0) and the FDCT coefficient blocks (in1); emits token records for
/// the VLE (out0) and quantized level blocks for the reconstruction loop
/// (out1).
fn step_qrl(
    t: &mut RlsqTask,
    cost: &RlsqCost,
    stage: &mut [Vec<u8>; 2],
    ctx: &mut StepCtx<'_>,
) -> StepResult {
    const IN_MB: PortId = 0;
    const IN_COEF: PortId = 1;
    const OUT_TOKEN: PortId = 2;
    const OUT_LEVELS: PortId = 3;

    let mut r_mb = StepReader::new(IN_MB);
    let tag = match r_mb.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r_mb.read(ctx, &mut b);
            let [tok, lvl] = stage;
            let mut w_tok = StepWriter::new(OUT_TOKEN, tok);
            let mut w_lvl = StepWriter::new(OUT_LEVELS, lvl);
            w_tok.stage(&[TAG_EOS]);
            w_lvl.stage(&[TAG_EOS]);
            if !w_tok.reserve(ctx) || !w_lvl.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_tok.commit(ctx);
            w_lvl.commit(ctx);
            r_mb.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r_mb.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let Some(pic) = PicRec::from_body(&body[1..]) else {
                // Damaged in SRAM: drop it and keep the previous picture
                // context.
                r_mb.commit(ctx);
                ctx.compute(1);
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            // Forward the picture header on both outputs.
            let [tok, lvl] = stage;
            let mut w_tok = StepWriter::new(OUT_TOKEN, tok);
            let mut w_lvl = StepWriter::new(OUT_LEVELS, lvl);
            w_tok.stage(&body);
            w_lvl.stage(&body);
            if !w_tok.reserve(ctx) || !w_lvl.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_tok.commit(ctx);
            w_lvl.commit(ctx);
            r_mb.commit(ctx);
            ctx.compute(8);
            t.pic = Some(pic);
            t.dc_pred = [128; 3];
            StepResult::Done
        }
        TAG_MB => {
            // A damaged stream can deliver an MB record before any valid
            // PIC record: quantize with a default scale instead.
            let (qscale, mut errs) = match t.pic {
                Some(pic) => (pic.qscale, 0u64),
                None => (DEFAULT_QSCALE, 1),
            };
            let hdr = match r_mb.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let mode_code = hdr[1];
            let intra = mode_code == records::mode::INTRA;
            // The ME stage sends all 6 FDCT blocks for every macroblock;
            // quantization decides the final cbp.
            let mut r_coef = StepReader::new(IN_COEF);
            let mut level_blocks = [[0i16; 64]; 6];
            let mut cbp: u8 = 0;
            let mut cycles = cost.per_mb;
            // Per coded block (cbp bit set): DC difference and symbols.
            let mut dc_diffs = [None; 6];
            let mut symbols = [[RunLevel::default(); 64]; 6];
            let mut nsyms = [0usize; 6];
            let mut dc_pred = t.dc_pred;
            for (blk, lv_out) in level_blocks.iter_mut().enumerate() {
                let rec = match r_coef.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => b,
                };
                let coefs = match cblk_from_body(&rec[1..]) {
                    Some(coefs) if rec[0] == TAG_MB => coefs,
                    // Desynced coefficient record: substitute zeros.
                    _ => {
                        errs += 1;
                        [0i16; 64]
                    }
                };
                let levels = if intra {
                    quant_intra(&coefs, qscale)
                } else {
                    quant_inter(&coefs, qscale)
                };
                let coded = if intra {
                    true
                } else {
                    levels.iter().any(|&l| l != 0)
                };
                if coded {
                    cbp |= 1 << (5 - blk);
                    nsyms[blk] = if intra {
                        let comp = match blk {
                            0..=3 => 0,
                            4 => 1,
                            _ => 2,
                        };
                        let dc = levels[0];
                        dc_diffs[blk] = Some(dc - dc_pred[comp]);
                        dc_pred[comp] = dc;
                        let mut ac = levels;
                        ac[0] = 0;
                        rle_encode(&ac, &mut symbols[blk])
                    } else {
                        rle_encode(&levels, &mut symbols[blk])
                    };
                    let n = nsyms[blk] as u64 + intra as u64;
                    cycles += cost.per_block + n * cost.per_coef;
                    t.coefs_processed += n;
                    *lv_out = levels;
                }
            }
            // Token record for the VLE: MBMV header (mode/mv/cbp now
            // final) followed by per-block symbol data; then the level
            // blocks for the reconstruction loop: MB header (with final
            // cbp) + the coded level blocks.
            let [tok, lvl] = stage;
            let mut w_tok = StepWriter::new(OUT_TOKEN, tok);
            let mut w_lvl = StepWriter::new(OUT_LEVELS, lvl);
            let mut mv_hdr = hdr;
            mv_hdr[2] = cbp;
            w_tok.stage(&mv_hdr);
            w_lvl.stage(&mv_hdr);
            for blk in (0..6).filter(|blk| cbp & (1 << (5 - blk)) != 0) {
                if let Some(diff) = dc_diffs[blk] {
                    w_tok.stage(&diff.to_le_bytes());
                }
                w_tok.stage(&(nsyms[blk] as u16).to_le_bytes());
                for s in &symbols[blk][..nsyms[blk]] {
                    w_tok.stage(&[s.run]);
                    w_tok.stage(&s.level.to_le_bytes());
                }
                w_lvl.stage(&cblk_to_bytes(&level_blocks[blk]));
            }
            if !w_tok.reserve(ctx) || !w_lvl.reserve(ctx) {
                return StepResult::Blocked;
            }
            w_tok.commit(ctx);
            w_lvl.commit(ctx);
            r_mb.commit(ctx);
            r_coef.commit(ctx);
            ctx.compute(cycles);
            t.dc_pred = dc_pred;
            t.blocks_processed += cbp.count_ones() as u64;
            t.errors_recovered += errs;
            StepResult::Done
        }
        _ => skip_byte(t, r_mb, ctx),
    }
}

/// Encode reconstruction loop: inverse-quantize the level blocks.
fn step_iq(
    t: &mut RlsqTask,
    cost: &RlsqCost,
    stage: &mut Vec<u8>,
    ctx: &mut StepCtx<'_>,
) -> StepResult {
    const IN: PortId = 0;
    const OUT: PortId = 1;
    let mut r = StepReader::new(IN);
    let tag = match r.peek_tag(ctx) {
        None => return StepResult::Blocked,
        Some(tag) => tag,
    };
    match tag {
        TAG_EOS => {
            let mut b = [0u8; 1];
            r.read(ctx, &mut b);
            let mut w = StepWriter::new(OUT, stage);
            w.stage(&[TAG_EOS]);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            StepResult::Finished
        }
        TAG_PIC => {
            let body = match r.take::<{ records::PIC_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let Some(pic) = PicRec::from_body(&body[1..]) else {
                // Damaged in SRAM: drop it and keep the previous picture
                // context.
                r.commit(ctx);
                ctx.compute(1);
                t.errors_recovered += 1;
                return StepResult::Done;
            };
            // Forward downstream (the IDCT/RECON need picture context).
            let mut w = StepWriter::new(OUT, stage);
            w.stage(&body);
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            ctx.compute(8);
            t.pic = Some(pic);
            StepResult::Done
        }
        TAG_MB => {
            let (qscale, mut errs) = match t.pic {
                Some(pic) => (pic.qscale, 0u64),
                None => (DEFAULT_QSCALE, 1),
            };
            let hdr = match r.take::<{ records::MBMV_REC_BYTES as usize }>(ctx) {
                None => return StepResult::Blocked,
                Some(b) => b,
            };
            let mode_code = hdr[1];
            let cbp = hdr[2];
            let intra = mode_code == records::mode::INTRA;
            let mut w = StepWriter::new(OUT, stage);
            w.stage(&hdr);
            let mut cycles = cost.per_mb;
            for blk in 0..6 {
                if cbp & (1 << (5 - blk)) == 0 {
                    continue;
                }
                let rec = match r.take::<{ records::CBLK_REC_BYTES as usize }>(ctx) {
                    None => return StepResult::Blocked,
                    Some(b) => b,
                };
                let levels = match cblk_from_body(&rec[1..]) {
                    Some(levels) if rec[0] == TAG_MB => levels,
                    // Desynced level record: substitute zeros.
                    _ => {
                        errs += 1;
                        [0i16; 64]
                    }
                };
                let coefs = if intra {
                    dequant_intra(&levels, qscale)
                } else {
                    dequant_inter(&levels, qscale)
                };
                w.stage(&cblk_to_bytes(&coefs));
                let nz = levels.iter().filter(|&&l| l != 0).count() as u64;
                cycles += cost.per_block + nz * cost.per_coef;
                t.coefs_processed += nz;
                t.blocks_processed += 1;
            }
            if !w.reserve(ctx) {
                return StepResult::Blocked;
            }
            w.commit(ctx);
            r.commit(ctx);
            ctx.compute(cycles);
            t.errors_recovered += errs;
            StepResult::Done
        }
        _ => skip_byte(t, r, ctx),
    }
}

/// Unknown tag (bit-flipped in SRAM): skip one byte and rescan for the
/// next plausible record boundary.
fn skip_byte(t: &mut RlsqTask, mut r: StepReader, ctx: &mut StepCtx<'_>) -> StepResult {
    let mut b = [0u8; 1];
    r.read(ctx, &mut b);
    r.commit(ctx);
    ctx.compute(1);
    t.errors_recovered += 1;
    StepResult::Done
}
