//! Shared little-endian byte codec for every hand-rolled binary format
//! in the workspace (checkpoint `.mfpa` files, compiled-model `.mfpac`
//! artifacts, future chunked-dataset codecs).
//!
//! Before this crate existed, `core::checkpoint` and `ml::compile`
//! each carried a private copy of the same writer/reader/checksum trio.
//! Centralizing them does two jobs:
//!
//! * **one truncation-safe implementation** — every read is
//!   bounds-checked and reports the failing offset instead of
//!   panicking, so arbitrarily corrupted input degrades to a
//!   structured error ("refuse, don't corrupt");
//! * **a canonical vocabulary for static analysis** — `mfpa-lint`'s
//!   d11 codec-symmetry rule recognizes exactly the method names
//!   defined here (`u8`/`u32`/`u64`/`i64`/`f64`/`counter`/`flag` and
//!   the reader-side `len`) when it checks that an encoder's write
//!   sequence mirrors its decoder's read sequence.
//!
//! Checksum framing lives here too ([`seal`]/[`unseal`]): the
//! [`checksum64`] footer is appended and verified *outside* the field
//! sequence, so encoders and decoders stay textually symmetric for d11.
//! [`fnv1a64`] is kept for output digests only; no format seals with it.
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns (`f64::to_bits`) so round trips are exact.

/// FNV-1a 64-bit over `data`. A byte-serial hash (one dependent
/// multiply per byte) kept for output digests only — sealed formats use
/// [`checksum64`].
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64's lane round: a bijection of `acc` for fixed `w` and of `w`
/// for fixed `acc`.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds one 64-bit word into the state; a bijection of `h` for fixed
/// `w` and of `w` for fixed `h`.
fn fold(h: u64, w: u64) -> u64 {
    (h ^ round(0, w))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The little-endian word in `bytes`, which is exactly `N` long (every
/// caller passes a `chunks_exact(N)` item).
fn le<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut b = [0u8; N];
    b.copy_from_slice(bytes);
    b
}

/// Word-parallel 64-bit checksum of `data`: the footer of every sealed
/// format.
///
/// XXH64's primes, lane round and avalanche, with a serial lane fold:
/// four lanes take the 32-byte stripes, then `h = P5` absorbs each lane
/// in turn, then the length, then the 8-byte, 4-byte and 1-byte tail
/// steps, then the avalanche. Each step is a bijection of the state for
/// fixed input and of its input for fixed state, so a change confined
/// to one step's input — one aligned 8-byte word, the tail's 4-byte
/// half-word or one tail byte — always changes the result; in
/// particular every single-byte change does. (XXH64's own
/// `Σ rotl(lane)` merge can cancel a one-lane change, so its test
/// vectors do not apply here.)
#[must_use]
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = data.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, u64::from_le_bytes(le(w)));
        }
    }
    let mut h = lanes.iter().fold(P5, |h, &lane| fold(h, lane));
    h = h.wrapping_add(data.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = fold(h, u64::from_le_bytes(le(w)));
    }
    let mut halves = words.remainder().chunks_exact(4);
    for w in &mut halves {
        h = (h ^ u64::from(u32::from_le_bytes(le(w))).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &b in halves.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Append a [`checksum64`] footer over `payload` and return the sealed
/// buffer. The inverse of [`unseal`].
#[must_use]
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let checksum = checksum64(&payload);
    payload.extend_from_slice(&checksum.to_le_bytes());
    payload
}

/// Verify the trailing [`checksum64`] footer of `data` and return the
/// payload with the footer stripped. Errors describe the failure
/// (too short / checksum mismatch) without panicking.
pub fn unseal(data: &[u8]) -> Result<&[u8], String> {
    if data.len() < 8 {
        return Err(format!(
            "{} bytes is too short to hold a checksum",
            data.len()
        ));
    }
    let (payload, footer) = data.split_at(data.len() - 8);
    let footer: [u8; 8] = footer
        .try_into()
        .map_err(|_| "checksum footer is not 8 bytes".to_string())?;
    let stored = u64::from_le_bytes(footer);
    let actual = checksum64(payload);
    if stored != actual {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        ));
    }
    Ok(payload)
}

/// Little-endian field writer. Each method appends one field; the
/// method set is the canonical write vocabulary d11 pairs against
/// [`ByteReader`]'s read vocabulary.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn counter(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish the payload without a checksum footer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Finish the payload and append the [`checksum64`] footer ([`seal`]).
    #[must_use]
    pub fn into_sealed(self) -> Vec<u8> {
        seal(self.buf)
    }
}

/// Truncation-safe little-endian field reader: every read is
/// bounds-checked and reports the failing offset instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Current offset, for error reporting by callers.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| format!("truncated at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        let b = self.take(1)?;
        b.first()
            .copied()
            .ok_or_else(|| format!("truncated at offset {}", self.pos))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        let b: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| format!("truncated at offset {}", self.pos))?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        let b: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| format!("truncated at offset {}", self.pos))?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(self.u64()? as i64)
    }

    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn counter(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("counter {v} overflows usize"))
    }

    pub fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid flag byte {other}")),
        }
    }

    /// A length prefix for a collection about to be decoded; bounded by
    /// the bytes actually remaining so a corrupted length cannot drive
    /// a huge allocation.
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, String> {
        let n = self.counter()?;
        let remaining = self.data.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            ));
        }
        Ok(n)
    }

    #[must_use]
    pub fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 7);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.counter(123_456);
        w.flag(true);
        w.flag(false);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 7));
        assert_eq!(r.i64(), Ok(-42));
        assert_eq!(
            r.f64().map(f64::to_bits),
            Ok(std::f64::consts::PI.to_bits())
        );
        assert_eq!(r.counter(), Ok(123_456));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.flag(), Ok(false));
        assert!(r.done());
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let mut w = ByteWriter::new();
        w.u32(7);
        w.f64(1.5);
        w.counter(3);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let mut saw_err = false;
            for _ in 0..4 {
                if r.u32().is_err() || r.f64().is_err() || r.counter().is_err() {
                    saw_err = true;
                    break;
                }
            }
            assert!(saw_err, "truncation at {cut} went unnoticed");
        }
    }

    /// A deterministic, non-repeating payload of `len` bytes.
    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn seal_unseal_roundtrip_and_reject() {
        for len in 0..=100 {
            let payload = payload(len);
            let sealed = seal(payload.clone());
            assert_eq!(sealed.len(), len + 8);
            assert_eq!(unseal(&sealed), Ok(payload.as_slice()), "length {len}");
            for cut in 0..sealed.len() {
                assert!(
                    unseal(&sealed[..cut]).is_err(),
                    "length {len}: truncation to {cut} bytes went unnoticed"
                );
            }
        }
        let sealed = seal(b"field sequence".to_vec());
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&bad).is_err(), "bit flip {bit} went unnoticed");
        }
    }

    /// Lengths 0–72 reach the stripe, word, half-word and byte paths
    /// (two full stripes plus every tail shape); every one of the 255
    /// other values at every position must change the checksum.
    #[test]
    fn every_single_byte_change_is_detected() {
        for len in 0..=72 {
            let mut data = payload(len);
            let clean = checksum64(&data);
            for pos in 0..len {
                let orig = data[pos];
                for delta in 1..=255u8 {
                    data[pos] = orig.wrapping_add(delta);
                    assert_ne!(
                        checksum64(&data),
                        clean,
                        "length {len}: byte {pos} changed by {delta} went unnoticed"
                    );
                }
                data[pos] = orig;
            }
        }
    }

    /// Pins the footer so that an accidental change to the sealed
    /// formats' checksum fails here first.
    #[test]
    fn golden_footers_pin_the_format() {
        for (len, want) in [
            (0, 0xf0cb_5810_7a70_55ca_u64),
            (7, 0x5fde_fd8e_7689_8f91),
            (31, 0xeacf_c462_3f1f_78c2),
            (32, 0x4fa9_b780_f38d_0947),
            (100, 0x3246_f1be_4b4d_22fa),
        ] {
            assert_eq!(checksum64(&payload(len)), want, "length {len}");
        }
    }

    #[test]
    fn len_prefix_rejects_lengths_larger_than_remaining() {
        let mut w = ByteWriter::new();
        w.counter(1_000_000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(8).is_err());
    }
}
