//! Byte-level serialization helpers shared by the codec crates.
//!
//! The lossy codecs serialize small headers (dimensions, error bounds,
//! section lengths) as plain little-endian fields before their entropy-coded
//! payloads.  [`ByteWriter`] and [`ByteReader`] provide that plumbing with
//! explicit error handling instead of panicking slice indexing.

use crate::{CodingError, Result};

/// Append-only little-endian byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a writer with reserved capacity.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and return its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append `n` zero bytes and return them for filling in place (a
    /// section whose exact size is known before its contents).
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let start = self.buf.len();
        self.buf.resize(start + n, 0);
        &mut self.buf[start..]
    }

    /// Append a length-prefixed (u32) byte section.
    pub fn put_section(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_bytes(bytes);
    }

    /// Append a length-prefixed (u16) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.put_u16(bytes.len().min(u16::MAX as usize) as u16);
        self.put_bytes(&bytes[..bytes.len().min(u16::MAX as usize)]);
    }
}

/// Sequential little-endian byte reader with bounds checking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes still available.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Borrow the remaining unread bytes without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodingError::UnexpectedEof);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `f32`.
    pub fn get_f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a length-prefixed (u32) byte section.
    pub fn get_section(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed (u16) UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodingError::InvalidHeader("invalid UTF-8 string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(1024);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_f32(1.5);
        w.put_f64(-2.25e300);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1024);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25e300);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn section_and_string_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_str("QCLOUDf.log10");
        w.put_section(&[1, 2, 3, 4, 5]);
        w.put_str("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str().unwrap(), "QCLOUDf.log10");
        assert_eq!(r.get_section().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.get_str().unwrap(), "");
    }

    #[test]
    fn eof_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[3, 0]);
        // Declares a 3-byte string but provides none.
        assert!(r.get_str().is_err());
    }

    #[test]
    fn position_tracking() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        assert_eq!(w.len(), 8);
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.rest(), &[2, 0, 0, 0]);
    }
}
