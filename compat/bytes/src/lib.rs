//! Offline API-subset stand-in for `bytes` (see `compat/README.md`).
//!
//! [`Bytes`] is an immutable, cheaply cloneable byte buffer with a read
//! cursor; [`BytesMut`] is a growable write buffer. The [`Buf`]/[`BufMut`]
//! traits carry the little-endian getters/putters the wire codec uses.
//! Unlike the real crate there is no zero-copy sharing — `clone` and
//! `slice` copy — which is irrelevant for the message sizes simulated
//! here.

use std::ops::RangeBounds;

/// Read-side byte buffer access.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Reads one byte, advancing the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is exhausted (as in the real crate).
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u32`, advancing the cursor.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`, advancing the cursor.
    fn get_u64_le(&mut self) -> u64;
    /// Reads a little-endian `f32`, advancing the cursor.
    fn get_f32_le(&mut self) -> f32;
    /// Copies bytes into `dst`, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Advances the cursor without reading.
    fn advance(&mut self, cnt: usize);
}

/// Write-side byte buffer access.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// An immutable byte buffer with an internal read cursor.
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Vec<u8>,
    cursor: usize,
}

/// Equal when the unread bytes are, as for the real crate's `Bytes`: how
/// far a buffer was advanced to reach them does not matter.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: data.to_vec(),
            cursor: 0,
        }
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.data.len() - self.cursor
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a new buffer over a sub-range of the unread bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        Self {
            data: self.data[self.cursor + start..self.cursor + end].to_vec(),
            cursor: 0,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "advance past end of buffer");
        let start = self.cursor;
        self.cursor += n;
        &self.data[start..start + n]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data, cursor: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl From<Bytes> for Vec<u8> {
    /// Recovers the remaining (unread) bytes as an owned `Vec`, reusing the
    /// underlying allocation — the escape hatch buffer pools use to recycle
    /// a payload's storage once it has been decoded.
    fn from(b: Bytes) -> Self {
        let mut data = b.data;
        if b.cursor > 0 {
            data.drain(..b.cursor);
        }
        data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.cursor..]
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let src = self.take(dst.len());
        dst.copy_from_slice(src);
    }

    fn advance(&mut self, cnt: usize) {
        self.take(cnt);
    }
}

/// A growable byte buffer for building messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Written length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            cursor: 0,
        }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut out = BytesMut::new();
        out.put_u8(7);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_f32_le(1.5);
        out.put_slice(b"xy");
        let mut buf = out.freeze();
        assert_eq!(buf.remaining(), 11);
        assert_eq!(buf.get_u8(), 7);
        assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(buf.get_f32_le(), 1.5);
        let mut rest = [0u8; 2];
        buf.copy_to_slice(&mut rest);
        assert_eq!(&rest, b"xy");
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn slice_is_relative_to_cursor() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4]);
        b.advance(1);
        assert_eq!(b.slice(1..3).as_ref(), &[2, 3]);
        assert_eq!(b.len(), 4);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn overread_panics() {
        Bytes::from(vec![1]).get_u32_le();
    }
}
