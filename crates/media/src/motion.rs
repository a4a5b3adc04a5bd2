//! Motion estimation and compensation.
//!
//! The MC/ME coprocessor of the Eclipse instance performs motion
//! compensation for decoding and motion estimation for encoding, fetching
//! reference-frame data from off-chip memory. This module is the
//! functional kernel: block matching with a predictor-seeded three-step
//! logarithmic search plus half-pel refinement (encoder), and
//! forward/backward/bidirectional prediction with MPEG-style **half-pel
//! interpolation** and edge clamping (both encoder reconstruction and
//! decoder).
//!
//! Motion vectors are in **half-pel units**, as in MPEG-2: an even
//! component is an integer displacement, an odd component selects the
//! bilinearly interpolated half-sample position
//! (`(a+b+1)>>1` horizontally/vertically, `(a+b+c+d+2)>>2` diagonally).

use crate::frame::{Frame, Plane, BLOCKS_PER_MB, MB_SIZE};
use serde::{Deserialize, Serialize};

/// A motion vector in half-pel units (MPEG-2 semantics): `dx = 3` means
/// 1.5 luma samples to the right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MotionVector {
    /// Horizontal displacement in half-pels.
    pub dx: i16,
    /// Vertical displacement in half-pels.
    pub dy: i16,
}

impl MotionVector {
    /// A vector from full-pel displacements.
    pub fn full_pel(dx: i16, dy: i16) -> Self {
        MotionVector {
            dx: dx * 2,
            dy: dy * 2,
        }
    }

    /// True if either component needs half-sample interpolation.
    pub fn has_half(&self) -> bool {
        self.dx & 1 != 0 || self.dy & 1 != 0
    }
}

/// Sample `plane` at half-pel coordinates `(x2, y2)` (units of half a
/// sample), with MPEG rounding and edge clamping. This single function
/// defines the interpolation for the whole codebase — software codec and
/// coprocessor models alike — so all reconstruction paths agree bit for
/// bit.
#[inline]
pub fn sample_half(plane: &Plane, x2: i32, y2: i32) -> i16 {
    let xi = (x2 >> 1) as isize;
    let yi = (y2 >> 1) as isize;
    let hx = x2 & 1;
    let hy = y2 & 1;
    let a = plane.get_clamped(xi, yi) as i32;
    match (hx, hy) {
        (0, 0) => a as i16,
        (1, 0) => {
            let b = plane.get_clamped(xi + 1, yi) as i32;
            ((a + b + 1) >> 1) as i16
        }
        (0, 1) => {
            let c = plane.get_clamped(xi, yi + 1) as i32;
            ((a + c + 1) >> 1) as i16
        }
        _ => {
            let b = plane.get_clamped(xi + 1, yi) as i32;
            let c = plane.get_clamped(xi, yi + 1) as i32;
            let d = plane.get_clamped(xi + 1, yi + 1) as i32;
            ((a + b + c + d + 2) >> 2) as i16
        }
    }
}

/// How a macroblock is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictionMode {
    /// No prediction (intra coding).
    Intra,
    /// Forward prediction from the past anchor frame.
    Forward(MotionVector),
    /// Backward prediction from the future anchor frame (B pictures).
    Backward(MotionVector),
    /// Average of forward and backward predictions (B pictures).
    Bidirectional(MotionVector, MotionVector),
}

/// Luma samples of a macroblock in raster order: the source operand of
/// [`SearchWindow::sad`].
pub type MbLuma = [u8; MB_SIZE * MB_SIZE];

/// The 16×16 luma of macroblock (mbx, mby) of `frame`, raster order.
pub fn mb_luma(frame: &Frame, mbx: usize, mby: usize) -> MbLuma {
    let mut out = [0u8; MB_SIZE * MB_SIZE];
    let (x0, y0) = (mbx * MB_SIZE, mby * MB_SIZE);
    for (y, row) in out.chunks_exact_mut(MB_SIZE).enumerate() {
        let at = (y0 + y) * frame.y.width + x0;
        row.copy_from_slice(&frame.y.data[at..at + MB_SIZE]);
    }
    out
}

/// The luma of a macroblock given as its four 8×8 luma blocks (blocks
/// 0–3 of a [`BLOCKS_PER_MB`] set), in raster order. Samples are clamped
/// to the pixel range.
pub fn mb_luma_from_blocks(blocks: &[[i16; 64]; BLOCKS_PER_MB]) -> MbLuma {
    let mut out = [0u8; MB_SIZE * MB_SIZE];
    for (i, v) in out.iter_mut().enumerate() {
        let (x, y) = (i % MB_SIZE, i / MB_SIZE);
        *v = blocks[y / 8 * 2 + x / 8][(y % 8) * 8 + x % 8].clamp(0, 255) as u8;
    }
    out
}

/// The luma search window of one macroblock: every reference sample a
/// clamped search vector can reach, edge-replicated once so the SAD
/// kernel never clamps.
///
/// Vectors are clamped to ±(2·range+1) half-pels, so the integer part of
/// a sample reaches `range+1` full pels above and left of the macroblock
/// and `range` pels below and right of it; half-pel interpolation reads
/// one sample further. The window is therefore the macroblock ±(range+1)
/// full pels, `2·range+18` samples square, with the macroblock origin at
/// `(range+1, range+1)`.
///
/// Samples inside the frame are copied; the rest replicate the nearest
/// frame edge. Clamping is separable and monotonic, so that equals
/// clamping each coordinate to the frame, the MPEG edge rule of
/// [`sample_half`].
#[derive(Debug, Clone, Default)]
pub struct SearchWindow {
    range: u8,
    /// Frame coordinates of window sample (0, 0); may be negative.
    x0: i32,
    y0: i32,
    /// Side length and row stride.
    side: usize,
    /// The window ∩ frame rectangle, in window coordinates.
    inner: (usize, usize, usize, usize),
    data: Vec<u8>,
}

impl SearchWindow {
    /// An unfilled window for macroblock (mbx, mby) of a `width`×`height`
    /// frame. Fill its part inside the frame with
    /// [`put_tile`](Self::put_tile), then call [`pad`](Self::pad).
    pub fn new(width: usize, height: usize, mbx: usize, mby: usize, range: u8) -> Self {
        let mut win = SearchWindow::default();
        win.recenter(width, height, mbx, mby, range);
        win
    }

    /// Make this window the unfilled window of [`SearchWindow::new`],
    /// reusing its sample storage (no allocation once it has held a
    /// window of this range). The previous samples stay until filling
    /// and padding overwrite every one of them.
    pub fn recenter(&mut self, width: usize, height: usize, mbx: usize, mby: usize, range: u8) {
        let margin = range as i32 + 1;
        let side = MB_SIZE + 2 * margin as usize;
        let x0 = (mbx * MB_SIZE) as i32 - margin;
        let y0 = (mby * MB_SIZE) as i32 - margin;
        let clip = |o: i32, len: usize| {
            let lo = (-o).max(0) as usize;
            let hi = (len as i32 - o).clamp(0, side as i32) as usize;
            (lo, hi.max(lo))
        };
        let (ix0, ix1) = clip(x0, width);
        let (iy0, iy1) = clip(y0, height);
        self.range = range;
        self.x0 = x0;
        self.y0 = y0;
        self.side = side;
        self.inner = (ix0, iy0, ix1, iy1);
        self.data.resize(side * side, 0);
    }

    /// The window for macroblock (mbx, mby) over `plane`.
    pub fn from_plane(plane: &Plane, mbx: usize, mby: usize, range: u8) -> Self {
        let mut win = SearchWindow::new(plane.width, plane.height, mbx, mby, range);
        let (ix0, iy0, ix1, iy1) = win.inner;
        for wy in iy0..iy1 {
            let at = (win.y0 + wy as i32) as usize * plane.width + (win.x0 + ix0 as i32) as usize;
            win.data[wy * win.side + ix0..wy * win.side + ix1]
                .copy_from_slice(&plane.data[at..at + ix1 - ix0]);
        }
        win.pad();
        win
    }

    /// Store the 8×8 frame tile whose top-left sample is `(tx, ty)`;
    /// samples outside the window or the frame are ignored.
    pub fn put_tile(&mut self, tx: i32, ty: i32, tile: &[i16; 64]) {
        let (ix0, iy0, ix1, iy1) = self.inner;
        let (x_lo, x_hi) = (self.x0 + ix0 as i32, self.x0 + ix1 as i32);
        let (y_lo, y_hi) = (self.y0 + iy0 as i32, self.y0 + iy1 as i32);
        for y in ty.max(y_lo)..(ty + 8).min(y_hi) {
            let row = (y - self.y0) as usize * self.side;
            for x in tx.max(x_lo)..(tx + 8).min(x_hi) {
                self.data[row + (x - self.x0) as usize] =
                    tile[((y - ty) * 8 + x - tx) as usize].clamp(0, 255) as u8;
            }
        }
    }

    /// Replicate the frame edges into the part of the window outside the
    /// frame. Call once, after the frame rectangle is filled.
    pub fn pad(&mut self) {
        let (ix0, iy0, ix1, iy1) = self.inner;
        let side = self.side;
        for wy in iy0..iy1 {
            let row = &mut self.data[wy * side..(wy + 1) * side];
            let (left, right) = (row[ix0], row[ix1 - 1]);
            row[..ix0].fill(left);
            row[ix1..].fill(right);
        }
        for wy in 0..iy0 {
            self.data
                .copy_within(iy0 * side..(iy0 + 1) * side, wy * side);
        }
        for wy in iy1..side {
            self.data
                .copy_within((iy1 - 1) * side..iy1 * side, wy * side);
        }
    }

    /// SAD of `src` against the window displaced by the half-pel vector
    /// `mv`, with MPEG half-pel rounding. `mv` must lie within
    /// ±(2·range+1) half-pels on both axes.
    pub fn sad(&self, src: &MbLuma, mv: MotionVector) -> u32 {
        let limit = 2 * self.range as i32 + 1;
        let (dx, dy) = (mv.dx as i32, mv.dy as i32);
        assert!(
            dx.abs() <= limit && dy.abs() <= limit,
            "vector {mv:?} outside search range {}",
            self.range
        );
        let margin = self.range as i32 + 1;
        let base = (margin + (dy >> 1)) as usize * self.side + (margin + (dx >> 1)) as usize;
        // Row `y` at the integer position, 17 samples wide: the 17th is
        // the right neighbour horizontal interpolation reads.
        let row = |y: usize| -> &[u8; MB_SIZE + 1] {
            let at = base + y * self.side;
            self.data[at..]
                .first_chunk()
                .expect("the window holds 17 samples past every vector's row start")
        };
        let src = src
            .chunks_exact(MB_SIZE)
            .map(|r| -> &[u8; MB_SIZE] { r.try_into().expect("16-sample chunks") });
        // One branch-free loop per half-pel phase.
        match (dx & 1, dy & 1) {
            (0, 0) => src
                .enumerate()
                .map(|(y, cur)| {
                    let a = row(y);
                    row_sad(cur, |x| a[x])
                })
                .sum(),
            (1, 0) => src
                .enumerate()
                .map(|(y, cur)| {
                    let a = row(y);
                    row_sad(cur, |x| avg2(a[x], a[x + 1]))
                })
                .sum(),
            (0, 1) => src
                .enumerate()
                .map(|(y, cur)| {
                    let (a, c) = (row(y), row(y + 1));
                    row_sad(cur, |x| avg2(a[x], c[x]))
                })
                .sum(),
            _ => src
                .enumerate()
                .map(|(y, cur)| {
                    let (a, c) = (row(y), row(y + 1));
                    row_sad(cur, |x| avg4(a[x], a[x + 1], c[x], c[x + 1]))
                })
                .sum(),
        }
    }

    /// Predictor-seeded three-step search plus half-pel refinement over
    /// this window; see [`three_step_search_pred`]. Returns (half-pel
    /// vector, SAD, SAD evaluations).
    pub fn search(&self, src: &MbLuma, candidates: &[MotionVector]) -> (MotionVector, u32, u32) {
        three_step(self.range, candidates, |mv| self.sad(src, mv))
    }
}

/// SAD of one 16-sample source row against a predicted row.
#[inline(always)]
fn row_sad(cur: &[u8; MB_SIZE], pred: impl Fn(usize) -> u8) -> u32 {
    let mut p = [0u8; MB_SIZE];
    for (x, v) in p.iter_mut().enumerate() {
        *v = pred(x);
    }
    let mut sad = 0u16;
    for x in 0..MB_SIZE {
        sad += cur[x].abs_diff(p[x]) as u16;
    }
    sad as u32
}

#[inline(always)]
fn avg2(a: u8, b: u8) -> u8 {
    ((a as u16 + b as u16 + 1) >> 1) as u8
}

#[inline(always)]
fn avg4(a: u8, b: u8, c: u8, d: u8) -> u8 {
    ((a as u16 + b as u16 + c as u16 + d as u16 + 2) >> 2) as u8
}

/// Three-step logarithmic search around the zero vector. Returns the best
/// motion vector and its SAD. `range` bounds |dx|, |dy| (full-pel).
///
/// Also returns the number of SAD evaluations performed, which the ME
/// cycle-cost model charges for.
pub fn three_step_search(
    cur: &Frame,
    reference: &Frame,
    mbx: usize,
    mby: usize,
    range: u8,
) -> (MotionVector, u32, u32) {
    three_step_search_pred(cur, reference, mbx, mby, range, &[MotionVector::default()])
}

/// Three-step search seeded with candidate predictors (the zero vector,
/// the left-neighbour vector, a global pan estimate...). Textured scenes
/// have a delta-function SAD minimum sitting on a rugged plateau; a bare
/// logarithmic search gets trapped, which is why real encoders seed the
/// search with neighbouring vectors. The best candidate becomes the
/// refinement centre.
///
/// Runs [`SearchWindow::search`] over the window of `reference`'s luma.
pub fn three_step_search_pred(
    cur: &Frame,
    reference: &Frame,
    mbx: usize,
    mby: usize,
    range: u8,
    candidates: &[MotionVector],
) -> (MotionVector, u32, u32) {
    SearchWindow::from_plane(&reference.y, mbx, mby, range)
        .search(&mb_luma(cur, mbx, mby), candidates)
}

/// The search itself, over any SAD function of a half-pel vector.
fn three_step(
    range: u8,
    candidates: &[MotionVector],
    mut sad_of: impl FnMut(MotionVector) -> u32,
) -> (MotionVector, u32, u32) {
    // Vectors are half-pel; the coarse search walks the full-pel lattice
    // (even components), then a final pass refines to half-pel — the
    // classic MPEG encoder structure.
    let limit = range as i16 * 2 + 1; // half-pel clamp
    let clamp = |v: MotionVector| MotionVector {
        dx: v.dx.clamp(-limit, limit),
        dy: v.dy.clamp(-limit, limit),
    };
    let mut best = clamp(*candidates.first().unwrap_or(&MotionVector::default()));
    let mut best_sad = sad_of(best);
    let mut evals: u32 = 1;
    let mut consider = |cand: MotionVector, best: &mut MotionVector, best_sad: &mut u32| {
        if cand == *best {
            return;
        }
        let sad = sad_of(cand);
        evals += 1;
        if sad < *best_sad || (sad == *best_sad && (cand.dx, cand.dy) < (best.dx, best.dy)) {
            *best_sad = sad;
            *best = cand;
        }
    };
    for &cand in candidates.iter().skip(1) {
        consider(clamp(cand), &mut best, &mut best_sad);
    }
    let mut step = ((range.max(1) as u16).next_power_of_two()) as i16; // full-pel step in half-pel units
    while step >= 2 {
        let center = best;
        for dy in [-step, 0, step] {
            for dx in [-step, 0, step] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let cand = clamp(MotionVector {
                    dx: center.dx + dx,
                    dy: center.dy + dy,
                });
                consider(cand, &mut best, &mut best_sad);
            }
        }
        step /= 2;
    }
    // Half-pel refinement around the full-pel optimum.
    let center = best;
    for dy in [-1i16, 0, 1] {
        for dx in [-1i16, 0, 1] {
            if dx == 0 && dy == 0 {
                continue;
            }
            let cand = clamp(MotionVector {
                dx: center.dx + dx,
                dy: center.dy + dy,
            });
            consider(cand, &mut best, &mut best_sad);
        }
    }
    (best, best_sad, evals)
}

/// Intra activity: luma SAD against the macroblock mean — the classic
/// cheap intra/inter decision threshold.
pub fn intra_activity(blocks: &[[i16; 64]; BLOCKS_PER_MB]) -> u32 {
    let mut sum: i64 = 0;
    for blk in blocks.iter().take(4) {
        for &v in blk.iter() {
            sum += v as i64;
        }
    }
    let mean = (sum / 256) as i16;
    let mut act: u32 = 0;
    for blk in blocks.iter().take(4) {
        for &v in blk.iter() {
            act += (v - mean).unsigned_abs() as u32;
        }
    }
    act
}

/// Luma SAD between a macroblock and a prediction, both as block sets.
pub fn luma_sad(cur: &[[i16; 64]; BLOCKS_PER_MB], pred: &[[i16; 64]; BLOCKS_PER_MB]) -> u32 {
    let mut sad: u32 = 0;
    for blk in 0..4 {
        for i in 0..64 {
            sad += (cur[blk][i] - pred[blk][i]).unsigned_abs() as u32;
        }
    }
    sad
}

/// Build the six 8×8 prediction blocks for macroblock (mbx, mby) using
/// `mode`. `fwd_ref` is the past anchor, `bwd_ref` the future anchor
/// (needed only for backward/bidirectional modes). Chroma vectors are the
/// luma vector halved (toward zero), as in MPEG.
pub fn predict_macroblock(
    mode: PredictionMode,
    fwd_ref: Option<&Frame>,
    bwd_ref: Option<&Frame>,
    mbx: usize,
    mby: usize,
) -> [[i16; 64]; BLOCKS_PER_MB] {
    let mut out = [[0i16; 64]; BLOCKS_PER_MB];
    match mode {
        PredictionMode::Intra => out, // zero prediction
        PredictionMode::Forward(mv) => {
            fetch_pred(
                fwd_ref.expect("forward prediction needs a past reference"),
                mbx,
                mby,
                mv,
                &mut out,
            );
            out
        }
        PredictionMode::Backward(mv) => {
            fetch_pred(
                bwd_ref.expect("backward prediction needs a future reference"),
                mbx,
                mby,
                mv,
                &mut out,
            );
            out
        }
        PredictionMode::Bidirectional(fmv, bmv) => {
            let mut f = [[0i16; 64]; BLOCKS_PER_MB];
            let mut b = [[0i16; 64]; BLOCKS_PER_MB];
            fetch_pred(
                fwd_ref.expect("bidirectional prediction needs a past reference"),
                mbx,
                mby,
                fmv,
                &mut f,
            );
            fetch_pred(
                bwd_ref.expect("bidirectional prediction needs a future reference"),
                mbx,
                mby,
                bmv,
                &mut b,
            );
            for blk in 0..BLOCKS_PER_MB {
                for i in 0..64 {
                    // MPEG averaging with round-up.
                    out[blk][i] = (f[blk][i] + b[blk][i] + 1) >> 1;
                }
            }
            out
        }
    }
}

fn fetch_pred(
    reference: &Frame,
    mbx: usize,
    mby: usize,
    mv: MotionVector,
    out: &mut [[i16; 64]; BLOCKS_PER_MB],
) {
    // Half-pel coordinates of the macroblock origin.
    let x2 = (mbx * MB_SIZE) as i32 * 2;
    let y2 = (mby * MB_SIZE) as i32 * 2;
    let (dx, dy) = (mv.dx as i32, mv.dy as i32);
    fetch_block_half(&reference.y, x2 + dx, y2 + dy, &mut out[0]);
    fetch_block_half(&reference.y, x2 + 16 + dx, y2 + dy, &mut out[1]);
    fetch_block_half(&reference.y, x2 + dx, y2 + 16 + dy, &mut out[2]);
    fetch_block_half(&reference.y, x2 + 16 + dx, y2 + 16 + dy, &mut out[3]);
    // Chroma: half-resolution plane; the chroma vector is the luma vector
    // halved toward zero, still in (chroma) half-pel units — MPEG's rule.
    let (cdx, cdy) = (div2(mv.dx) as i32, div2(mv.dy) as i32);
    fetch_block_half(&reference.u, x2 / 2 + cdx, y2 / 2 + cdy, &mut out[4]);
    fetch_block_half(&reference.v, x2 / 2 + cdx, y2 / 2 + cdy, &mut out[5]);
}

/// Fetch an 8×8 block whose top-left corner sits at half-pel coordinates
/// `(x2, y2)` of `plane`, interpolating as needed.
pub fn fetch_block_half(plane: &Plane, x2: i32, y2: i32, out: &mut [i16; 64]) {
    for y in 0..8 {
        for x in 0..8 {
            out[(y * 8 + x) as usize] = sample_half(plane, x2 + 2 * x, y2 + 2 * y);
        }
    }
}

#[inline]
fn div2(v: i16) -> i16 {
    v / 2 // toward zero, both signs
}

/// Number of reference bytes an MC fetch touches: 4 luma + 2 chroma 8×8
/// blocks per prediction direction. The MC coprocessor's off-chip
/// bandwidth model uses this.
pub fn mc_fetch_bytes(mode: PredictionMode) -> u32 {
    match mode {
        PredictionMode::Intra => 0,
        PredictionMode::Forward(_) | PredictionMode::Backward(_) => 6 * 64,
        PredictionMode::Bidirectional(..) => 2 * 6 * 64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel reference the window kernel replaced: SAD of the
    /// 16×16 luma macroblock at (mbx, mby) of `cur` against `reference`
    /// displaced by `mv`, every sample edge-clamped through
    /// [`sample_half`].
    fn sad_16x16(cur: &Frame, reference: &Frame, mbx: usize, mby: usize, mv: MotionVector) -> u32 {
        let x0 = (mbx * MB_SIZE) as i32;
        let y0 = (mby * MB_SIZE) as i32;
        let mut sad: u32 = 0;
        for y in 0..MB_SIZE as i32 {
            for x in 0..MB_SIZE as i32 {
                let c = cur.y.get((x0 + x) as usize, (y0 + y) as usize) as i32;
                let r = sample_half(
                    &reference.y,
                    (x0 + x) * 2 + mv.dx as i32,
                    (y0 + y) * 2 + mv.dy as i32,
                ) as i32;
                sad += (c - r).unsigned_abs();
            }
        }
        sad
    }

    /// A frame of `mbs_x`×`mbs_y` macroblocks filled from an LCG.
    fn random_frame(mbs_x: usize, mbs_y: usize, seed: u64) -> Frame {
        let mut f = Frame::new(mbs_x * MB_SIZE, mbs_y * MB_SIZE);
        let mut h = seed | 1;
        for p in f.y.data.iter_mut() {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *p = (h >> 56) as u8;
        }
        f
    }

    /// One window recentred over every macroblock in turn and filled
    /// tile by tile, as the ME coprocessor reuses its windows, holds the
    /// samples of a fresh window from the plane.
    #[test]
    fn recentred_window_equals_fresh_window() {
        let frame = random_frame(3, 2, 7);
        let (w, h) = (frame.y.width as i32, frame.y.height as i32);
        let mut win = SearchWindow::default();
        for range in [15u8, 4, 8] {
            for mby in 0..2 {
                for mbx in 0..3 {
                    win.recenter(w as usize, h as usize, mbx, mby, range);
                    for ty in (0..h).step_by(8) {
                        for tx in (0..w).step_by(8) {
                            let mut tile = [0i16; 64];
                            frame.y.get_block8(tx as usize, ty as usize, &mut tile);
                            win.put_tile(tx, ty, &tile);
                        }
                    }
                    win.pad();
                    let fresh = SearchWindow::from_plane(&frame.y, mbx, mby, range);
                    assert_eq!((win.side, win.inner), (fresh.side, fresh.inner));
                    assert_eq!(win.data, fresh.data, "mb ({mbx}, {mby}) range {range}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The window kernel equals the per-pixel clamped SAD at every
        /// macroblock (corners and edges included), in all four half-pel
        /// phases, out to the ±(2r+1) clamp limit; the search over it
        /// returns the reference search's (mv, sad, evals).
        #[test]
        fn window_kernel_matches_clamped_reference(
            mbs_x in 1usize..=4,
            mbs_y in 1usize..=3,
            range in 1u8..=15,
            seed in any::<u64>(),
            extra in proptest::collection::vec((-31i16..=31, -31i16..=31), 4),
        ) {
            let reference = random_frame(mbs_x, mbs_y, seed);
            let cur = random_frame(mbs_x, mbs_y, seed ^ 0x5A5A);
            let limit = 2 * range as i16 + 1;
            let axis = [-limit, -limit + 1, -2, -1, 0, 1, 2, limit - 1, limit];
            for mby in 0..mbs_y {
                for mbx in 0..mbs_x {
                    let win = SearchWindow::from_plane(&reference.y, mbx, mby, range);
                    let src = mb_luma(&cur, mbx, mby);
                    let clamp = |v: i16| v.clamp(-limit, limit);
                    let lattice = axis.iter().flat_map(|&dy| axis.iter().map(move |&dx| (dx, dy)));
                    for (dx, dy) in lattice.chain(extra.iter().map(|&(dx, dy)| (clamp(dx), clamp(dy)))) {
                        let mv = MotionVector { dx, dy };
                        prop_assert_eq!(
                            win.sad(&src, mv),
                            sad_16x16(&cur, &reference, mbx, mby, mv),
                            "mb ({}, {}) r {} mv {:?}", mbx, mby, range, mv
                        );
                    }
                    let cands: Vec<MotionVector> = [(0, 0)]
                        .iter()
                        .chain(&extra)
                        .map(|&(dx, dy)| MotionVector { dx, dy })
                        .collect();
                    let reference_search =
                        three_step(range, &cands, |mv| sad_16x16(&cur, &reference, mbx, mby, mv));
                    prop_assert_eq!(
                        three_step_search_pred(&cur, &reference, mbx, mby, range, &cands),
                        reference_search
                    );
                }
            }
        }
    }

    #[test]
    fn window_from_tiles_equals_window_from_plane() {
        let frame = random_frame(3, 2, 11);
        for (mbx, mby) in [(0, 0), (2, 1), (1, 0)] {
            let want = SearchWindow::from_plane(&frame.y, mbx, mby, 7);
            let mut win = SearchWindow::new(48, 32, mbx, mby, 7);
            for ty in (0..32).step_by(8) {
                for tx in (0..48).step_by(8) {
                    let mut tile = [0i16; 64];
                    frame.y.get_block8(tx, ty, &mut tile);
                    win.put_tile(tx as i32, ty as i32, &tile);
                }
            }
            win.pad();
            assert_eq!(win.data, want.data, "mb ({mbx}, {mby})");
        }
    }

    /// A frame with a bright 16x16 square whose top-left corner is (x, y).
    fn frame_with_square(x: usize, y: usize) -> Frame {
        let mut f = Frame::new(64, 64);
        for p in f.y.data.iter_mut() {
            *p = 20;
        }
        for dy in 0..16 {
            for dx in 0..16 {
                f.y.set(x + dx, y + dy, 200);
            }
        }
        f
    }

    #[test]
    fn sad_zero_for_identical_frames() {
        let f = frame_with_square(16, 16);
        assert_eq!(sad_16x16(&f, &f, 1, 1, MotionVector::default()), 0);
    }

    #[test]
    fn sad_detects_displacement() {
        let cur = frame_with_square(20, 16); // moved 4 px right
        let reference = frame_with_square(16, 16);
        let wrong = sad_16x16(&cur, &reference, 1, 1, MotionVector::default());
        let right = sad_16x16(&cur, &reference, 1, 1, MotionVector::full_pel(-4, 0));
        assert!(right < wrong, "right {right} < wrong {wrong}");
        assert_eq!(right, 0);
    }

    #[test]
    fn three_step_search_finds_simple_motion() {
        // Object moves (+4, +2) between reference and current.
        let reference = frame_with_square(16, 16);
        let cur = frame_with_square(20, 18);
        let (mv, sad, evals) = three_step_search(&cur, &reference, 1, 1, 16);
        assert_eq!(mv, MotionVector::full_pel(-4, -2));
        assert_eq!(sad, 0);
        assert!(evals > 1 && evals < 120);
    }

    #[test]
    fn search_respects_range() {
        let reference = frame_with_square(0, 0);
        let cur = frame_with_square(48, 48);
        let (mv, _, _) = three_step_search(&cur, &reference, 3, 3, 4);
        // range 4 full-pel => |component| <= 2*4 + 1 half-pels.
        assert!(mv.dx.abs() <= 9 && mv.dy.abs() <= 9);
    }

    #[test]
    fn forward_prediction_reproduces_reference() {
        let reference = frame_with_square(16, 16);
        let pred = predict_macroblock(
            PredictionMode::Forward(MotionVector::default()),
            Some(&reference),
            None,
            1,
            1,
        );
        let direct = reference.get_macroblock(1, 1);
        assert_eq!(pred, direct);
    }

    #[test]
    fn displaced_prediction_shifts_content() {
        let reference = frame_with_square(16, 16);
        let mv = MotionVector::full_pel(16, 0);
        // Predicting MB (0,1) with dx=16 full-pel lands exactly on the
        // square at (16, 16).
        let pred = predict_macroblock(PredictionMode::Forward(mv), Some(&reference), None, 0, 1);
        let target = reference.get_macroblock(1, 1);
        assert_eq!(pred[0], target[0]);
    }

    #[test]
    fn half_pel_prediction_interpolates() {
        let mut reference = Frame::new(32, 32);
        // Vertical stripes: columns alternate 100 / 200.
        for y in 0..32 {
            for x in 0..32 {
                reference.y.set(x, y, if x % 2 == 0 { 100 } else { 200 });
            }
        }
        // A half-pel horizontal shift averages adjacent columns -> 150.
        let pred = predict_macroblock(
            PredictionMode::Forward(MotionVector { dx: 1, dy: 0 }),
            Some(&reference),
            None,
            0,
            0,
        );
        assert!(
            pred[0].iter().all(|&v| v == 150),
            "half-pel average expected, got {:?}",
            &pred[0][..8]
        );
    }

    #[test]
    fn half_pel_diagonal_uses_four_tap_rounding() {
        let mut reference = Frame::new(32, 32);
        reference.y.set(0, 0, 10);
        reference.y.set(1, 0, 20);
        reference.y.set(0, 1, 30);
        reference.y.set(1, 1, 41);
        // (10+20+30+41+2)>>2 = 25 (with the +2 round).
        assert_eq!(sample_half(&reference.y, 1, 1), 25);
        // Pure horizontal: (10+20+1)>>1 = 15.
        assert_eq!(sample_half(&reference.y, 1, 0), 15);
        // Full-pel passthrough.
        assert_eq!(sample_half(&reference.y, 2, 0), 20);
    }

    #[test]
    fn search_refines_to_half_pel() {
        // Current frame = reference shifted by exactly half a sample
        // (each pixel the average of two neighbours).
        let mut reference = Frame::new(64, 64);
        for y in 0..64usize {
            for x in 0..64usize {
                // Hash-based texture: no modular aliasing under shifts.
                let mut h = (x as u64) << 32 | y as u64;
                h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 29;
                reference.y.set(x, y, (h % 200) as u8);
            }
        }
        let mut cur = Frame::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                cur.y.set(
                    x,
                    y,
                    sample_half(&reference.y, x as i32 * 2 + 1, y as i32 * 2).clamp(0, 255) as u8,
                );
            }
        }
        let (mv, sad, _) = three_step_search(&cur, &reference, 1, 1, 4);
        assert_eq!(
            mv,
            MotionVector { dx: 1, dy: 0 },
            "should lock onto the half-pel shift"
        );
        assert_eq!(sad, 0);
    }

    #[test]
    fn bidirectional_prediction_averages() {
        let mut a = Frame::new(32, 32);
        let mut b = Frame::new(32, 32);
        for p in a.y.data.iter_mut() {
            *p = 100;
        }
        for p in b.y.data.iter_mut() {
            *p = 200;
        }
        let pred = predict_macroblock(
            PredictionMode::Bidirectional(MotionVector::default(), MotionVector::default()),
            Some(&a),
            Some(&b),
            0,
            0,
        );
        assert!(pred[0].iter().all(|&v| v == 150));
    }

    #[test]
    fn intra_mode_predicts_zero() {
        let pred = predict_macroblock(PredictionMode::Intra, None, None, 0, 0);
        assert!(pred.iter().all(|b| b.iter().all(|&v| v == 0)));
    }

    #[test]
    fn chroma_vector_is_halved() {
        let mut reference = Frame::new(32, 32);
        // Chroma plane 16x16: mark (4, 0) in U.
        reference.u.set(4, 0, 77);
        // Luma vector 8 full-pel = 16 half-pel; chroma = 8 chroma
        // half-pels = 4 full chroma samples.
        let mv = MotionVector::full_pel(8, 0);
        let pred = predict_macroblock(PredictionMode::Forward(mv), Some(&reference), None, 0, 0);
        assert_eq!(pred[4][0], 77);
    }

    #[test]
    fn fetch_bytes_model() {
        assert_eq!(mc_fetch_bytes(PredictionMode::Intra), 0);
        assert_eq!(
            mc_fetch_bytes(PredictionMode::Forward(MotionVector::default())),
            384
        );
        assert_eq!(
            mc_fetch_bytes(PredictionMode::Bidirectional(
                MotionVector::default(),
                MotionVector::default()
            )),
            768
        );
    }
}
