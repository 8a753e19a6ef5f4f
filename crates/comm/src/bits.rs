//! Bit-level serialization primitives.
//!
//! All protocol messages are packed through [`BitWriter`] so that the
//! transcript's bit accounting reflects what would actually cross the wire.
//! The writer packs values MSB-first into a byte buffer; [`BitReader`]
//! mirrors it exactly. Varints use 8-bit groups (7 payload bits plus a
//! continuation bit), zigzag maps signed values onto unsigned ones, and
//! `f64` values are shipped as raw IEEE-754 words (64 bits — the paper's
//! `Õ(1)`-bit-per-entry convention).

use crate::error::CommError;
use std::sync::Arc;

/// Number of bits needed to address `n` distinct values (`0..n`).
///
/// Returns 1 for `n <= 2` so that a value always occupies at least one bit.
///
/// ```
/// use mpest_comm::width_for;
/// assert_eq!(width_for(1), 1);
/// assert_eq!(width_for(2), 1);
/// assert_eq!(width_for(3), 2);
/// assert_eq!(width_for(1024), 10);
/// assert_eq!(width_for(1025), 11);
/// ```
#[must_use]
pub fn width_for(n: u64) -> u32 {
    if n <= 2 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// An MSB-first bit packer backed by a growable byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Partial byte being filled, left-aligned.
    cur: u8,
    /// Number of bits already occupied in `cur` (0..8).
    cur_bits: u32,
    total_bits: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity for `bits` bits.
    #[must_use]
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits / 8 + 1),
            ..Self::default()
        }
    }

    /// Creates a writer over a recycled scratch buffer: the buffer is
    /// cleared but keeps its allocation, so a pooled caller (the fused
    /// executor) encodes without touching the allocator. The produced
    /// bytes are identical to a fresh writer's.
    #[must_use]
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self {
            buf,
            ..Self::default()
        }
    }

    /// Total number of bits written so far.
    #[must_use]
    pub fn bits_written(&self) -> u64 {
        self.total_bits
    }

    /// Writes the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits;
    /// both indicate a protocol implementation bug, not bad input data.
    pub fn write_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "bit width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut remaining = width;
        while remaining > 0 {
            let free = 8 - self.cur_bits;
            let take = free.min(remaining);
            // Extract the `take` most significant of the remaining bits.
            let shift = remaining - take;
            let chunk = if take == 64 {
                value
            } else {
                (value >> shift) & ((1u64 << take) - 1)
            } as u8;
            self.cur |= chunk << (free - take);
            self.cur_bits += take;
            remaining -= take;
            if self.cur_bits == 8 {
                self.buf.push(self.cur);
                self.cur = 0;
                self.cur_bits = 0;
            }
        }
        self.total_bits += u64::from(width);
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Writes an unsigned varint: 8-bit groups of 7 payload bits plus a
    /// continuation flag. Values below 128 cost exactly 8 bits.
    pub fn write_varint(&mut self, mut value: u64) {
        loop {
            let group = value & 0x7f;
            value >>= 7;
            let cont = value != 0;
            self.write_bit(cont);
            self.write_bits(group, 7);
            if !cont {
                break;
            }
        }
    }

    /// Writes a signed value using zigzag mapping followed by a varint.
    pub fn write_zigzag(&mut self, value: i64) {
        let mapped = ((value << 1) ^ (value >> 63)) as u64;
        self.write_varint(mapped);
    }

    /// Writes an `f64` as its raw 64-bit IEEE-754 representation.
    pub fn write_f64(&mut self, value: f64) {
        self.write_bits(value.to_bits(), 64);
    }

    /// Finishes the stream, returning the packed bytes and the exact number
    /// of payload bits (the final byte may contain padding zeros that are
    /// *not* billed).
    #[must_use]
    pub fn finish(self) -> (Arc<[u8]>, u64) {
        let (buf, bits) = self.finish_vec();
        (buf.into(), bits)
    }

    /// Like [`BitWriter::finish`], but returns the raw byte buffer
    /// without wrapping it in a shared `Arc<[u8]>` (which copies into a
    /// fresh reference-counted allocation). The wire path of the
    /// fused executor moves these buffers between a scratch pool, the
    /// in-memory queues, and back — no copies, no refcounts.
    #[must_use]
    pub fn finish_vec(mut self) -> (Vec<u8>, u64) {
        if self.cur_bits > 0 {
            self.buf.push(self.cur);
        }
        (self.buf, self.total_bits)
    }
}

/// An MSB-first bit unpacker mirroring [`BitWriter`].
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor from the start of `data`.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over a packed buffer.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Number of bits consumed so far.
    #[must_use]
    pub fn bits_read(&self) -> u64 {
        self.pos
    }

    fn remaining_bits(&self) -> u64 {
        (self.data.len() as u64) * 8 - self.pos
    }

    /// Reads `width` bits, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Decode`] if the buffer is exhausted.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CommError> {
        if width > 64 {
            return Err(CommError::decode("bit width exceeds 64"));
        }
        if u64::from(width) > self.remaining_bits() {
            return Err(CommError::decode("bit buffer exhausted"));
        }
        let mut out: u64 = 0;
        let mut remaining = width;
        while remaining > 0 {
            let byte = self.data[(self.pos / 8) as usize];
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(remaining);
            let chunk = (u64::from(byte) >> (avail - take)) & ((1u64 << take) - 1);
            out = if take == 64 {
                chunk
            } else {
                (out << take) | chunk
            };
            self.pos += u64::from(take);
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Decode`] if the buffer is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, CommError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Reads an unsigned varint written by [`BitWriter::write_varint`].
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Decode`] on exhaustion or overlong encodings.
    pub fn read_varint(&mut self) -> Result<u64, CommError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let cont = self.read_bit()?;
            let group = self.read_bits(7)?;
            if shift >= 64 || (shift == 63 && group > 1) {
                return Err(CommError::decode("varint overflows u64"));
            }
            out |= group << shift;
            shift += 7;
            if !cont {
                return Ok(out);
            }
        }
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Decode`] on exhaustion or overlong encodings.
    pub fn read_zigzag(&mut self) -> Result<i64, CommError> {
        let mapped = self.read_varint()?;
        Ok(((mapped >> 1) as i64) ^ -((mapped & 1) as i64))
    }

    /// Reads a raw IEEE-754 `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Decode`] if the buffer is exhausted.
    pub fn read_f64(&mut self) -> Result<f64, CommError> {
        Ok(f64::from_bits(self.read_bits(64)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_edge_cases() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 1);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 2);
        assert_eq!(width_for(5), 3);
        assert_eq!(width_for(u64::MAX), 64);
    }

    #[test]
    fn roundtrip_fixed_width() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xdead_beef, 32);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        assert_eq!(w.bits_written(), 3 + 32 + 1 + 64);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, 100);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xdead_beef);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.bits_read(), 100);
    }

    #[test]
    fn roundtrip_varints() {
        let vals = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_varint(v);
        }
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_small_values_cost_8_bits() {
        let mut w = BitWriter::new();
        w.write_varint(127);
        assert_eq!(w.bits_written(), 8);
        let mut w = BitWriter::new();
        w.write_varint(128);
        assert_eq!(w.bits_written(), 16);
    }

    #[test]
    fn roundtrip_zigzag() {
        let vals = [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123_456_789];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_zigzag(v);
        }
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_zigzag().unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_f64() {
        let vals = [0.0f64, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -3.25e-9];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_f64(v);
        }
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.read_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn recycled_buffer_produces_identical_bytes() {
        let mut fresh = BitWriter::new();
        fresh.write_varint(12345);
        fresh.write_bits(0b1011, 4);
        let (expected, expected_bits) = fresh.finish_vec();

        // A dirty recycled buffer must not leak into the stream, and the
        // allocation must survive the round trip.
        let dirty = vec![0xffu8; 64];
        let capacity = dirty.capacity();
        let mut w = BitWriter::with_buf(dirty);
        w.write_varint(12345);
        w.write_bits(0b1011, 4);
        let (got, bits) = w.finish_vec();
        assert_eq!(got, expected);
        assert_eq!(bits, expected_bits);
        assert_eq!(got.capacity(), capacity, "allocation was reused");
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(2).is_ok());
        // The padding bits in the final byte are readable (they are real
        // bytes on the wire) but reading beyond the buffer fails.
        assert!(r.read_bits(7).is_err());
    }

    #[test]
    fn mixed_stream_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_varint(5000);
        w.write_zigzag(-77);
        w.write_f64(2.625);
        w.write_bits(0x3ff, 10);
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_varint().unwrap(), 5000);
        assert_eq!(r.read_zigzag().unwrap(), -77);
        assert!((r.read_f64().unwrap() - 2.625).abs() < 1e-15);
        assert_eq!(r.read_bits(10).unwrap(), 0x3ff);
    }
}
