//! Variable-length entropy coding.
//!
//! The VLD coprocessor of the Eclipse instance spends data-dependent time
//! decoding variable-length codes — the paper's canonical example of an
//! irregular task ("the quantity of input and output data can vary wildly
//! per stream or even within a picture", Section 2.2). This module
//! provides:
//!
//! * exp-Golomb codes ([`put_uev`]/[`get_uev`], [`put_sev`]/[`get_sev`])
//!   for header fields and motion vectors, and
//! * a canonical Huffman code over `(run, level)` pairs with an escape
//!   mechanism and an end-of-block symbol, for coefficient data.
//!
//! **Substitution note:** MPEG-2 uses the fixed Tables B.14/B.15; we build
//! an equivalent static Huffman code from a deterministic frequency model
//! (short runs / small levels get short codes). The resulting code-length
//! distribution — and therefore the VLD's data-dependent cycle behaviour —
//! mirrors the real tables.

use std::sync::OnceLock;

use crate::bits::{BitReader, BitWriter, EndOfStream};
use crate::scan::RunLevel;

// ---- exp-Golomb ----------------------------------------------------------

/// Write an unsigned exp-Golomb code.
pub fn put_uev(w: &mut BitWriter, v: u32) {
    let x = v as u64 + 1;
    let bits = 64 - x.leading_zeros() as u8; // floor(log2 x) + 1
    w.put_bits(0, bits - 1);
    // x fits in `bits` <= 33... for v < 2^32-1 this is <= 33 bits; split.
    if bits > 32 {
        w.put_bits((x >> 32) as u32, bits - 32);
        w.put_bits(x as u32, 32);
    } else {
        w.put_bits(x as u32, bits);
    }
}

/// Read an unsigned exp-Golomb code.
pub fn get_uev(r: &mut BitReader) -> Result<u32, EndOfStream> {
    let mut zeros = 0u8;
    while !r.get_bit()? {
        zeros += 1;
        if zeros > 32 {
            return Err(EndOfStream); // corrupt stream guard
        }
    }
    let rest = if zeros == 0 { 0 } else { r.get_bits(zeros)? };
    Ok(((1u64 << zeros) - 1) as u32 + rest)
}

/// Write a signed exp-Golomb code (0, 1, -1, 2, -2, ... mapping).
pub fn put_sev(w: &mut BitWriter, v: i32) {
    let mapped = if v <= 0 {
        (-(v as i64) * 2) as u32
    } else {
        (v as u32) * 2 - 1
    };
    put_uev(w, mapped);
}

/// Read a signed exp-Golomb code.
pub fn get_sev(r: &mut BitReader) -> Result<i32, EndOfStream> {
    let u = get_uev(r)? as i64;
    Ok(if u % 2 == 0 {
        -(u / 2) as i32
    } else {
        ((u + 1) / 2) as i32
    })
}

// ---- run/level Huffman ----------------------------------------------------

/// Maximum run directly representable in the Huffman table.
pub const MAX_TABLE_RUN: u8 = 15;
/// Maximum |level| directly representable in the Huffman table.
pub const MAX_TABLE_LEVEL: i16 = 8;

const N_RUNLEVEL: usize = (MAX_TABLE_RUN as usize + 1) * MAX_TABLE_LEVEL as usize; // 128
const SYM_EOB: usize = N_RUNLEVEL; // 128
const SYM_ESC: usize = N_RUNLEVEL + 1; // 129
const N_SYMBOLS: usize = N_RUNLEVEL + 2;

/// A decoded coefficient-stream symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoefSymbol {
    /// A (run, level) pair.
    Run(RunLevel),
    /// End of block.
    Eob,
}

/// Width of the first-level decode lookup table, in bits.
const LUT_BITS: u8 = 12;

/// The static canonical Huffman code over run/level symbols.
pub struct RunLevelCode {
    /// Code and length per symbol index.
    codes: [(u32, u8); N_SYMBOLS],
    /// Canonical decode tables: per length, the first canonical code and
    /// the starting index into `sorted_symbols`.
    first_code: [u32; 33],
    offset: [u32; 33],
    count: [u32; 33],
    sorted_symbols: [u16; N_SYMBOLS],
    max_len: u8,
    /// First-level decode table: indexed by the next [`LUT_BITS`] stream
    /// bits, each entry packs `symbol << 8 | code_len` for codes up to
    /// `LUT_BITS` long (0 = code longer than the table covers). Purely an
    /// accelerator for [`RunLevelCode::get_symbol`]; the canonical tables
    /// above remain the fallback and the source of truth.
    lut: Vec<u16>,
}

fn sym_index(run: u8, level: i16) -> Option<usize> {
    let mag = level.unsigned_abs();
    if run <= MAX_TABLE_RUN && (1..=MAX_TABLE_LEVEL as u16).contains(&mag) {
        Some(run as usize * MAX_TABLE_LEVEL as usize + (mag as usize - 1))
    } else {
        None
    }
}

/// Deterministic frequency model: geometric decay in run, quadratic decay
/// in level — the shape of real MPEG-2 coefficient statistics.
fn frequency(sym: usize) -> u64 {
    match sym {
        SYM_EOB => 220_000,
        SYM_ESC => 900,
        _ => {
            let run = sym / MAX_TABLE_LEVEL as usize;
            let lvl = sym % MAX_TABLE_LEVEL as usize + 1;
            let denom = ((run + 1) as f64).powf(1.7) * (lvl as f64).powf(2.1);
            (1_000_000.0 / denom) as u64 + 1
        }
    }
}

/// Compute Huffman code lengths via a deterministic two-queue-free
/// pairing (O(n^2) selection with stable tie-breaks — built once).
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    #[derive(Clone)]
    struct Node {
        freq: u64,
        order: usize, // creation order for deterministic ties
        kind: NodeKind,
    }
    #[derive(Clone)]
    enum NodeKind {
        Leaf(usize),
        Internal(usize, usize),
    }
    let mut nodes: Vec<Node> = freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| Node {
            freq: f,
            order: i,
            kind: NodeKind::Leaf(i),
        })
        .collect();
    let mut active: Vec<usize> = (0..nodes.len()).collect();
    let mut next_order = nodes.len();
    while active.len() > 1 {
        // Find two smallest by (freq, order).
        active.sort_by_key(|&i| (nodes[i].freq, nodes[i].order));
        let a = active[0];
        let b = active[1];
        let merged = Node {
            freq: nodes[a].freq + nodes[b].freq,
            order: next_order,
            kind: NodeKind::Internal(a, b),
        };
        next_order += 1;
        nodes.push(merged);
        let m = nodes.len() - 1;
        active.remove(1);
        active.remove(0);
        active.push(m);
    }
    // Walk depths.
    let mut lengths = vec![0u8; freqs.len()];
    let mut stack = vec![(active[0], 0u8)];
    while let Some((n, depth)) = stack.pop() {
        match nodes[n].kind {
            NodeKind::Leaf(sym) => lengths[sym] = depth.max(1),
            NodeKind::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    lengths
}

impl RunLevelCode {
    fn build() -> Self {
        let freqs: Vec<u64> = (0..N_SYMBOLS).map(frequency).collect();
        let lengths = huffman_lengths(&freqs);
        let max_len = *lengths.iter().max().unwrap();
        assert!(max_len <= 32, "Huffman code too deep: {max_len}");

        // Canonical assignment: sort symbols by (length, index).
        let mut order: Vec<u16> = (0..N_SYMBOLS as u16).collect();
        order.sort_by_key(|&s| (lengths[s as usize], s));

        let mut codes = [(0u32, 0u8); N_SYMBOLS];
        let mut first_code = [0u32; 33];
        let mut offset = [0u32; 33];
        let mut count = [0u32; 33];
        let mut sorted_symbols = [0u16; N_SYMBOLS];

        let mut code: u32 = 0;
        let mut prev_len: u8 = 0;
        for (i, &sym) in order.iter().enumerate() {
            let len = lengths[sym as usize];
            if len > prev_len {
                code <<= len - prev_len;
                prev_len = len;
            }
            if count[len as usize] == 0 {
                first_code[len as usize] = code;
                offset[len as usize] = i as u32;
            }
            codes[sym as usize] = (code, len);
            sorted_symbols[i] = sym;
            count[len as usize] += 1;
            code += 1;
        }
        let mut lut = vec![0u16; 1 << LUT_BITS];
        for (sym, &(code, len)) in codes.iter().enumerate() {
            if len == 0 || len > LUT_BITS {
                continue;
            }
            let base = (code as usize) << (LUT_BITS - len);
            let span = 1usize << (LUT_BITS - len);
            let entry = (sym as u16) << 8 | len as u16;
            lut[base..base + span].fill(entry);
        }
        RunLevelCode {
            codes,
            first_code,
            offset,
            count,
            sorted_symbols,
            max_len,
            lut,
        }
    }

    /// The process-wide code table (built once).
    pub fn global() -> &'static RunLevelCode {
        static CODE: OnceLock<RunLevelCode> = OnceLock::new();
        CODE.get_or_init(RunLevelCode::build)
    }

    /// Code length in bits for a symbol (diagnostics / cost models).
    pub fn eob_len(&self) -> u8 {
        self.codes[SYM_EOB].1
    }

    /// Encode one (run, level) pair.
    pub fn put_run_level(&self, w: &mut BitWriter, rl: RunLevel) {
        debug_assert!(rl.level != 0);
        if let Some(idx) = sym_index(rl.run, rl.level) {
            let (code, len) = self.codes[idx];
            w.put_bits(code, len);
            w.put_bit(rl.level < 0); // sign bit
        } else {
            let (code, len) = self.codes[SYM_ESC];
            w.put_bits(code, len);
            w.put_bits(rl.run as u32, 6);
            // 12-bit two's-complement level.
            w.put_bits((rl.level as i32 & 0xFFF) as u32, 12);
        }
    }

    /// Encode an end-of-block marker.
    pub fn put_eob(&self, w: &mut BitWriter) {
        let (code, len) = self.codes[SYM_EOB];
        w.put_bits(code, len);
    }

    /// Decode the next coefficient symbol. Also returns the number of bits
    /// consumed (the VLD cost model charges per decoded bit).
    pub fn get_symbol(&self, r: &mut BitReader) -> Result<(CoefSymbol, u8), EndOfStream> {
        let start = r.bit_pos();
        // Fast path: one table lookup resolves codes up to LUT_BITS long.
        // A prefix code is uniquely decodable, so the entry (when present
        // and fully backed by real stream bits) is exactly the symbol the
        // bitwise walk below would find.
        let entry = self.lut[r.peek_bits(LUT_BITS) as usize];
        if entry != 0 {
            let len = (entry & 0xff) as usize;
            if len <= r.remaining_bits() {
                r.seek(start + len);
                return self.finish_symbol((entry >> 8) as usize, r, start);
            }
        }
        // Long codes and near-end-of-stream tails: canonical bitwise walk.
        let mut code: u32 = 0;
        for len in 1..=self.max_len {
            code = (code << 1) | r.get_bit()? as u32;
            let l = len as usize;
            if self.count[l] > 0 {
                let delta = code.wrapping_sub(self.first_code[l]);
                if code >= self.first_code[l] && delta < self.count[l] {
                    let sym = self.sorted_symbols[(self.offset[l] + delta) as usize] as usize;
                    return self.finish_symbol(sym, r, start);
                }
            }
        }
        Err(EndOfStream) // invalid code
    }

    /// Read a symbol's trailing fields (sign bit or escape payload) and
    /// package the result with the total bits consumed since `start`.
    fn finish_symbol(
        &self,
        sym: usize,
        r: &mut BitReader,
        start: usize,
    ) -> Result<(CoefSymbol, u8), EndOfStream> {
        let result = match sym {
            SYM_EOB => CoefSymbol::Eob,
            SYM_ESC => {
                let run = r.get_bits(6)? as u8;
                let raw = r.get_bits(12)? as i32;
                let level = if raw >= 0x800 { raw - 0x1000 } else { raw } as i16;
                CoefSymbol::Run(RunLevel { run, level })
            }
            idx => {
                let run = (idx / MAX_TABLE_LEVEL as usize) as u8;
                let mag = (idx % MAX_TABLE_LEVEL as usize + 1) as i16;
                let neg = r.get_bit()?;
                CoefSymbol::Run(RunLevel {
                    run,
                    level: if neg { -mag } else { mag },
                })
            }
        };
        let used = (r.bit_pos() - start) as u8;
        Ok((result, used))
    }
}

/// Encode a whole block's run/level sequence followed by EOB.
pub fn put_block(w: &mut BitWriter, symbols: &[RunLevel]) {
    let code = RunLevelCode::global();
    for &rl in symbols {
        code.put_run_level(w, rl);
    }
    code.put_eob(w);
}

/// Decode a block's run/level sequence up to and including EOB into
/// `out`. Returns the symbol count (the symbols are `out[..count]`) and
/// the total bits consumed. A 65th symbol is a corrupt stream.
pub fn get_block(r: &mut BitReader, out: &mut [RunLevel; 64]) -> Result<(usize, u32), EndOfStream> {
    let code = RunLevelCode::global();
    let mut n = 0usize;
    let mut bits: u32 = 0;
    loop {
        let (sym, used) = code.get_symbol(r)?;
        bits += used as u32;
        match sym {
            CoefSymbol::Eob => return Ok((n, bits)),
            CoefSymbol::Run(rl) => {
                let slot = out.get_mut(n).ok_or(EndOfStream)?; // corrupt stream guard
                *slot = rl;
                n += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uev_round_trip() {
        let values = [0u32, 1, 2, 3, 7, 8, 100, 1000, 65535, 1 << 20];
        let mut w = BitWriter::new();
        for &v in &values {
            put_uev(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(get_uev(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn uev_code_lengths() {
        // 0 -> "1" (1 bit); 1 -> "010" (3); 2 -> "011" (3); 3 -> "00100" (5)
        let mut w = BitWriter::new();
        put_uev(&mut w, 0);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        put_uev(&mut w, 1);
        assert_eq!(w.bit_len(), 3);
        let mut w = BitWriter::new();
        put_uev(&mut w, 3);
        assert_eq!(w.bit_len(), 5);
    }

    #[test]
    fn sev_round_trip() {
        let values = [0i32, 1, -1, 2, -2, 100, -100, 2047, -2048];
        let mut w = BitWriter::new();
        for &v in &values {
            put_sev(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(get_sev(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn huffman_code_is_prefix_free() {
        let code = RunLevelCode::global();
        for a in 0..N_SYMBOLS {
            for b in 0..N_SYMBOLS {
                if a == b {
                    continue;
                }
                let (ca, la) = code.codes[a];
                let (cb, lb) = code.codes[b];
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "symbol {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn common_symbols_have_short_codes() {
        let code = RunLevelCode::global();
        let (_, len_01) = code.codes[sym_index(0, 1).unwrap()];
        let (_, len_1510) = code.codes[sym_index(15, 8).unwrap()];
        assert!(
            len_01 < len_1510,
            "(0,1) len {len_01} should beat (15,8) len {len_1510}"
        );
        assert!(
            code.eob_len() <= 4,
            "EOB should be short, got {}",
            code.eob_len()
        );
    }

    #[test]
    fn table_symbols_round_trip() {
        let code = RunLevelCode::global();
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for run in [0u8, 1, 5, 15] {
            for level in [1i16, -1, 4, -8, 8] {
                code.put_run_level(&mut w, RunLevel { run, level });
                expect.push(RunLevel { run, level });
            }
        }
        code.put_eob(&mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &e in &expect {
            let (sym, _) = code.get_symbol(&mut r).unwrap();
            assert_eq!(sym, CoefSymbol::Run(e));
        }
        assert_eq!(code.get_symbol(&mut r).unwrap().0, CoefSymbol::Eob);
    }

    #[test]
    fn escape_symbols_round_trip() {
        let code = RunLevelCode::global();
        let escapes = [
            RunLevel { run: 16, level: 1 }, // run too large
            RunLevel { run: 0, level: 9 },  // level too large
            RunLevel {
                run: 63,
                level: -2047,
            },
            RunLevel {
                run: 20,
                level: 2047,
            },
        ];
        let mut w = BitWriter::new();
        for &rl in &escapes {
            code.put_run_level(&mut w, rl);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &e in &escapes {
            let (sym, _) = code.get_symbol(&mut r).unwrap();
            assert_eq!(sym, CoefSymbol::Run(e));
        }
    }

    #[test]
    fn block_round_trip() {
        let symbols = vec![
            RunLevel { run: 0, level: 35 },
            RunLevel { run: 2, level: -3 },
            RunLevel { run: 0, level: 1 },
            RunLevel { run: 17, level: 1 },
        ];
        let mut w = BitWriter::new();
        put_block(&mut w, &symbols);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let mut out = [RunLevel::default(); 64];
        let (n, bits) = get_block(&mut r, &mut out).unwrap();
        assert_eq!(&out[..n], &symbols[..]);
        assert!(bits > 0);
    }

    #[test]
    fn empty_block_is_just_eob() {
        let mut w = BitWriter::new();
        put_block(&mut w, &[]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let (n, bits) = get_block(&mut r, &mut [RunLevel::default(); 64]).unwrap();
        assert_eq!(n, 0);
        assert_eq!(bits as u8, RunLevelCode::global().eob_len());
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let symbols = vec![RunLevel { run: 3, level: 200 }];
        let mut w = BitWriter::new();
        put_block(&mut w, &symbols);
        let bytes = w.finish();
        // Chop off the tail.
        let cut = &bytes[..bytes.len().saturating_sub(1)];
        let mut r = BitReader::new(cut);
        // Either decodes garbage then hits EOS, or errors immediately —
        // must not panic or loop forever.
        let _ = get_block(&mut r, &mut [RunLevel::default(); 64]);
    }

    #[test]
    fn sixty_fifth_symbol_is_an_error() {
        let symbols = vec![RunLevel { run: 0, level: 1 }; 65];
        let mut w = BitWriter::new();
        put_block(&mut w, &symbols);
        let bytes = w.finish();
        let mut out = [RunLevel::default(); 64];
        assert!(get_block(&mut BitReader::new(&bytes), &mut out).is_err());
        let mut w = BitWriter::new();
        put_block(&mut w, &symbols[..64]);
        let bytes = w.finish();
        let (n, _) = get_block(&mut BitReader::new(&bytes), &mut out).unwrap();
        assert_eq!(&out[..n], &symbols[..64]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_run_level() -> impl Strategy<Value = RunLevel> {
        (0u8..=63, prop_oneof![1i16..=8, 9i16..=2047, -2047i16..=-1])
            .prop_map(|(run, level)| RunLevel { run, level })
    }

    proptest! {
        /// Any run/level sequence round-trips through the entropy coder.
        #[test]
        fn vlc_block_round_trip(symbols in proptest::collection::vec(arb_run_level(), 0..64)) {
            let mut w = BitWriter::new();
            put_block(&mut w, &symbols);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let mut out = [RunLevel::default(); 64];
            let (n, _) = get_block(&mut r, &mut out).unwrap();
            prop_assert_eq!(&out[..n], &symbols[..]);
        }

        /// Exp-Golomb round trip for arbitrary u32/i32.
        #[test]
        fn golomb_round_trip(u in 0u32..1 << 30, s in -(1i32 << 29)..(1i32 << 29)) {
            let mut w = BitWriter::new();
            put_uev(&mut w, u);
            put_sev(&mut w, s);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            prop_assert_eq!(get_uev(&mut r).unwrap(), u);
            prop_assert_eq!(get_sev(&mut r).unwrap(), s);
        }
    }
}
