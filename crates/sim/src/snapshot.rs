//! Deterministic binary snapshots of simulator state.
//!
//! The Eclipse template is a deterministic fabric (shells arbitrate
//! per-cycle; the paper's Section 5 verification leans on
//! cycle-reproducible runs), so full-system state can be captured at any
//! event boundary and later restored bit-exactly. This module provides
//! the machinery every crate in the workspace shares:
//!
//! * [`SnapWriter`] / [`SnapReader`] — a tiny, versionless binary codec
//!   (little-endian fixed-width integers, length-prefixed containers,
//!   zero-run-length-encoded byte blobs for the large, mostly-zero
//!   memory arrays). The vendored `serde` shim is a no-op derive, so the
//!   simulator carries its own codec; this also pins the byte format to
//!   this workspace alone — checkpoint compatibility can never be broken
//!   by an upstream dependency bump.
//! * [`Snapshot`] — the save/load trait implemented by every stateful
//!   struct. Loading is in-place (`&mut self`): a checkpoint captures
//!   *dynamic* state only and is restored into an identically-built
//!   system, so private configuration fields never need to be
//!   reconstructed from bytes.
//! * [`fnv1a_64`] — the rolling digest behind `EclipseSystem::state_hash`
//!   and the checkpoint's configuration fingerprint.
//!
//! ## Determinism contract
//!
//! Everything written through this codec must be a pure function of the
//! simulated state: no host pointers, no hash-map iteration order (maps
//! are serialized in sorted key order or stored as `BTreeMap`), no
//! platform-dependent float formatting (`f64` round-trips via
//! [`f64::to_bits`]). Two processes simulating the same run must produce
//! byte-identical checkpoints — the regression tests assert this.

/// Errors surfaced while decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the decoder was done.
    Eof,
    /// The stream does not start with the checkpoint magic.
    Magic,
    /// The checkpoint format version is not supported.
    Version(u32),
    /// The checkpoint was taken from a differently-configured system.
    ConfigMismatch {
        /// Digest the restoring system expects.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// A decoded value is structurally impossible (bad enum tag,
    /// oversized length, mismatched table geometry, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "checkpoint truncated"),
            SnapError::Magic => write!(f, "not an Eclipse checkpoint (bad magic)"),
            SnapError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint from a different configuration \
                 (expected digest {expected:#018x}, found {found:#018x})"
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash over a byte slice — the rolling state digest.
/// Chosen for its trivial, dependency-free definition; the digest is a
/// tamper/divergence detector, not a cryptographic commitment.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`std::hash::BuildHasher`] wrapping FNV-1a 64 — deterministic (no
/// per-process seed, so map iteration order is reproducible) and markedly
/// cheaper than SipHash for the short string keys the simulator hashes on
/// hot paths (trace-series names, interned labels).
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvState;

impl std::hash::BuildHasher for FnvState {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// Streaming counterpart of [`fnv1a_64`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Minimum zero-run length worth switching the blob encoder out of a
/// literal span (shorter runs cost more in segment headers than they
/// save).
const ZERO_RUN_MIN: usize = 32;

/// Largest blob [`SnapReader::blob`] accepts: 64 MiB, the default DRAM
/// size. The `Vec`-returning decoder allocates what the header's total
/// claims, so an unchecked total in a corrupt checkpoint would turn a
/// few header bytes into an arbitrary allocation. Fixed-size memory
/// arrays restore through [`SnapReader::blob_into`], which checks the
/// total against the destination instead.
pub const BLOB_MAX: usize = 64 << 20;

/// Length of the zero run at the head of `data`, scanned a word at a
/// time. The blob encoder scans every byte below a memory's written
/// extent (see [`SnapWriter::blob_zero_from`]), so a byte-at-a-time
/// scan would dominate the checkpoint cost.
fn zero_prefix(data: &[u8]) -> usize {
    let mut i = 0;
    while i + 8 <= data.len() {
        if u64::from_le_bytes(data[i..i + 8].try_into().unwrap()) != 0 {
            break;
        }
        i += 8;
    }
    while i < data.len() && data[i] == 0 {
        i += 1;
    }
    i
}

/// Length of the zero run at `data[i..]` when every byte at or above
/// `extent` is known to be zero: only `[i..extent]` is scanned.
fn zero_run(data: &[u8], i: usize, extent: usize) -> usize {
    if i >= extent {
        return data.len() - i;
    }
    let z = zero_prefix(&data[i..extent]);
    if i + z == extent {
        data.len() - i
    } else {
        z
    }
}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as a u64 (checkpoints are host-width independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a little-endian i16.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i32.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an f64 by its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with no length prefix (caller encodes the length).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed byte slice verbatim.
    pub fn bytes_slice(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Write a byte blob with zero-run-length encoding: the large memory
    /// arrays (a default off-chip DRAM is 64 MiB, almost entirely zero)
    /// collapse to a handful of segment headers.
    ///
    /// Format: total length, then segments of `[tag][len]` where tag 0
    /// is a zero run and tag 1 a literal span followed by its bytes,
    /// until the segment lengths sum to the total.
    pub fn blob(&mut self, data: &[u8]) {
        self.blob_zero_from(data, data.len());
    }

    /// [`SnapWriter::blob`] for a buffer whose bytes at and above
    /// `extent` are all zero (the caller's invariant; not checked). The
    /// output is byte-identical to `blob(data)`, but the tail is encoded
    /// as a known zero run without being read, so the cost scales with
    /// `extent`, not with `data.len()`.
    pub fn blob_zero_from(&mut self, data: &[u8], extent: usize) {
        let extent = extent.min(data.len());
        self.usize(data.len());
        let mut i = 0;
        while i < data.len() {
            if i >= extent || data[i] == 0 {
                let run = zero_run(data, i, extent);
                if run >= ZERO_RUN_MIN || (i == 0 && i + run == data.len()) {
                    self.u8(0);
                    self.usize(run);
                    i += run;
                    continue;
                }
                // Short zero run: fold it into the following literal.
            }
            let start = i;
            while i < data.len() {
                if i >= extent || data[i] == 0 {
                    // Look ahead: only break the literal for a long run.
                    let z = zero_run(data, i, extent);
                    if z >= ZERO_RUN_MIN {
                        break;
                    }
                    i += z;
                } else {
                    i += 1;
                }
            }
            self.u8(1);
            self.usize(i - start);
            self.buf.extend_from_slice(&data[start..i]);
        }
    }
}

/// Cursor-based binary decoder over a checkpoint byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Decode from `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        SnapReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool")),
        }
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a usize stored as u64; rejects only values that do not fit
    /// the host's `usize`. Callers bound a decoded length themselves
    /// before allocating from it.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Read a little-endian i16.
    pub fn i16(&mut self) -> Result<i16, SnapError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian i32.
    pub fn i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("utf8"))
    }

    /// Read a length-prefixed byte vector (the [`SnapWriter::bytes_slice`]
    /// counterpart).
    pub fn bytes_vec(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Read `n` raw bytes (the [`SnapWriter::raw`] counterpart).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Read a zero-run-length-encoded blob (the [`SnapWriter::blob`]
    /// counterpart). Totals above [`BLOB_MAX`] are rejected as corrupt.
    pub fn blob(&mut self) -> Result<Vec<u8>, SnapError> {
        let total = self.usize()?;
        if total > BLOB_MAX {
            return Err(SnapError::Corrupt("blob total exceeds cap"));
        }
        let mut out = Vec::with_capacity(total);
        while out.len() < total {
            let tag = self.u8()?;
            let len = self.usize()?;
            if len > total - out.len() {
                return Err(SnapError::Corrupt("blob segment overruns total"));
            }
            match tag {
                0 => out.resize(out.len() + len, 0),
                1 => out.extend_from_slice(self.take(len)?),
                _ => return Err(SnapError::Corrupt("blob segment tag")),
            }
        }
        Ok(out)
    }

    /// Restore a blob directly into an existing buffer whose length must
    /// match (memory arrays never change size after build).
    pub fn blob_into(&mut self, dst: &mut [u8]) -> Result<(), SnapError> {
        self.blob_into_zero_from(dst, dst.len()).map(|_| ())
    }

    /// [`SnapReader::blob_into`] for a destination whose bytes at and
    /// above `extent` are all zero. Zero segments are checked and
    /// cleared only below `extent`; the tail is left unread. Returns the
    /// destination's new extent: the end of the last literal segment,
    /// above which every byte is now zero. On error the destination is
    /// partly overwritten and its extent is unknown.
    pub fn blob_into_zero_from(
        &mut self,
        dst: &mut [u8],
        extent: usize,
    ) -> Result<usize, SnapError> {
        let total = self.usize()?;
        if total != dst.len() {
            return Err(SnapError::Corrupt("blob length mismatch"));
        }
        let extent = extent.min(total);
        let mut filled = 0;
        let mut new_extent = 0;
        while filled < total {
            let tag = self.u8()?;
            let len = self.usize()?;
            if len > total - filled {
                return Err(SnapError::Corrupt("blob segment overruns total"));
            }
            match tag {
                0 if filled < extent => {
                    // Skip the write when the span is already zero: a
                    // fresh build's memory is untouched copy-on-write
                    // pages, and dirtying them costs far more than this
                    // read-only scan.
                    let span = &mut dst[filled..(filled + len).min(extent)];
                    if zero_prefix(span) != span.len() {
                        span.fill(0);
                    }
                }
                0 => {}
                1 => {
                    dst[filled..filled + len].copy_from_slice(self.take(len)?);
                    new_extent = filled + len;
                }
                _ => return Err(SnapError::Corrupt("blob segment tag")),
            }
            filled += len;
        }
        Ok(new_extent)
    }
}

/// Save/restore of one stateful component. Loading is in-place: the
/// receiver was built through the same construction path as the saver,
/// and only its *dynamic* fields are overwritten.
pub trait Snapshot {
    /// Append this component's dynamic state to the checkpoint.
    fn save(&self, w: &mut SnapWriter);
    /// Overwrite this component's dynamic state from the checkpoint.
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

impl Snapshot for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        *self = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.i16(-12345);
        w.i32(-7_654_321);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.str("qcif.vld");
        w.bytes_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.i16().unwrap(), -12345);
        assert_eq!(r.i32().unwrap(), -7_654_321);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "qcif.vld");
        assert_eq!(r.bytes_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_is_eof_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(SnapError::Eof));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool")));
    }

    #[test]
    fn blob_round_trips_mixed_content() {
        let mut data = vec![0u8; 100_000];
        data[0] = 9;
        data[77] = 1;
        for (i, b) in data[50_000..50_100].iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
        data[99_999] = 0xFF;
        let mut w = SnapWriter::new();
        w.blob(&data);
        let encoded_len = w.bytes().len();
        assert!(
            encoded_len < data.len() / 10,
            "zero-dominated blob should compress well: {encoded_len}"
        );
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.blob().unwrap(), data);

        let mut r2 = SnapReader::new(&bytes);
        let mut dst = vec![1u8; data.len()];
        r2.blob_into(&mut dst).unwrap();
        assert_eq!(dst, data);
    }

    #[test]
    fn blob_handles_all_zero_and_all_literal() {
        for data in [vec![0u8; 4096], (0..255u8).cycle().take(300).collect()] {
            let mut w = SnapWriter::new();
            w.blob(&data);
            let bytes = w.into_bytes();
            assert_eq!(SnapReader::new(&bytes).blob().unwrap(), data);
        }
        let mut w = SnapWriter::new();
        w.blob(&[]);
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).blob().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn blob_into_rejects_length_mismatch() {
        let mut w = SnapWriter::new();
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut dst = [0u8; 4];
        assert!(matches!(
            SnapReader::new(&bytes).blob_into(&mut dst),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn short_zero_runs_stay_literal() {
        // A lone zero between literals must not produce a zero segment.
        let data = [5u8, 0, 6, 0, 0, 7];
        let mut w = SnapWriter::new();
        w.blob(&data);
        let bytes = w.into_bytes();
        // total + one literal segment header + payload.
        assert_eq!(bytes.len(), 8 + 1 + 8 + data.len());
        assert_eq!(SnapReader::new(&bytes).blob().unwrap(), data.to_vec());
    }

    #[test]
    fn oversized_blob_total_is_corrupt_not_an_allocation() {
        // A crafted header: one zero segment claiming 1 TiB.
        let mut w = SnapWriter::new();
        w.usize(1 << 40);
        w.u8(0);
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).blob(),
            Err(SnapError::Corrupt("blob total exceeds cap"))
        );
        let mut w = SnapWriter::new();
        w.usize(BLOB_MAX + 1);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapReader::new(&bytes).blob(),
            Err(SnapError::Corrupt("blob total exceeds cap"))
        );
    }

    /// End of the last literal segment of an encoded blob.
    fn last_literal_end(encoded: &[u8]) -> usize {
        let mut r = SnapReader::new(encoded);
        let total = r.usize().unwrap();
        let (mut filled, mut end) = (0, 0);
        while filled < total {
            let tag = r.u8().unwrap();
            let len = r.usize().unwrap();
            if tag == 1 {
                r.raw(len).unwrap();
                end = filled + len;
            }
            filled += len;
        }
        end
    }

    /// A sparse buffer: a few runs of one byte value (possibly zero)
    /// over a zero background, optionally with a non-zero last byte.
    fn arb_sparse() -> impl Strategy<Value = Vec<u8>> {
        (
            0usize..600,
            proptest::collection::vec((0usize..600, 1usize..48, any::<u8>()), 0..8),
            proptest::bool::ANY,
        )
            .prop_map(|(len, runs, last_nonzero)| {
                let mut data = vec![0u8; len];
                for (at, run, v) in runs {
                    for b in data.iter_mut().skip(at).take(run) {
                        *b = v;
                    }
                }
                if last_nonzero && len > 0 {
                    data[len - 1] = 0xA5;
                }
                data
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For every extent at or above the true end of the content, the
        /// extent-aware codec matches the full scan byte for byte and
        /// round-trips into both a clean and a dirty destination.
        #[test]
        fn zero_from_codec_matches_full_scan(data in arb_sparse(), dirt in 0usize..=600) {
            let len = data.len();
            let mut w = SnapWriter::new();
            w.blob(&data);
            let full = w.into_bytes();
            let literal_end = last_literal_end(&full);
            let content_end = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            prop_assert!(content_end <= literal_end && literal_end <= len);

            // A dirty destination whose extent covers its dirt.
            let dirt = dirt.min(len);
            let dirty: Vec<u8> = (0..len)
                .map(|i| if i < dirt { (i as u8).wrapping_mul(31) | 1 } else { 0 })
                .collect();

            for extent in content_end..=len {
                let mut w = SnapWriter::new();
                w.blob_zero_from(&data, extent);
                prop_assert_eq!(w.bytes(), &full[..], "extent {}", extent);
            }
            let mut clean = vec![0u8; len];
            let got = SnapReader::new(&full).blob_into_zero_from(&mut clean, 0).unwrap();
            prop_assert_eq!(got, literal_end);
            prop_assert_eq!(&clean, &data);
            let mut dst = dirty.clone();
            let got = SnapReader::new(&full).blob_into_zero_from(&mut dst, dirt).unwrap();
            prop_assert_eq!(got, literal_end);
            prop_assert_eq!(&dst, &data);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
