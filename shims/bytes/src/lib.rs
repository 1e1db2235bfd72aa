//! Offline stand-in for the `bytes` crate: [`Bytes`] / [`BytesMut`] plus
//! the [`Buf`] / [`BufMut`] methods the wire codec uses. `Bytes` is a
//! cheaply cloneable `Arc<[u8]>` window with a read cursor; `BytesMut` is a
//! growable buffer that freezes into `Bytes`. As in the real crate, a
//! plain `&[u8]` is a [`Buf`] too: reading advances the slice itself.

use std::sync::Arc;

/// Read-side buffer operations (little-endian getters consume from the
/// front).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads `n` bytes into an internal scratch view, advancing the cursor.
    fn copy_bytes(&mut self, n: usize) -> &[u8];

    /// Consumes one byte.
    fn get_u8(&mut self) -> u8 {
        self.copy_bytes(1)[0]
    }

    /// Consumes a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.copy_bytes(4).try_into().unwrap())
    }

    /// Consumes a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.copy_bytes(8).try_into().unwrap())
    }

    /// Consumes a little-endian IEEE-754 `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

/// Write-side buffer operations (little-endian putters append).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

/// An immutable, cheaply cloneable byte window with a read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    /// Read cursor (index of the next unread byte).
    pos: usize,
    /// One past the last readable byte.
    end: usize,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Unread length.
    pub fn len(&self) -> usize {
        self.end - self.pos
    }

    /// Whether nothing is left to read.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new `Bytes` viewing `range` of the *unread* region, sharing the
    /// underlying allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            pos: self.pos + range.start,
            end: self.pos + range.end,
        }
    }

    /// Copies the unread bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl AsRef<[u8]> for Bytes {
    /// The unread bytes as a slice.
    fn as_ref(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: v.into(), pos: 0, end }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

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

    fn copy_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.remaining(), "buffer underflow: need {n}, have {}", self.remaining());
        let start = self.pos;
        self.pos += n;
        &self.data[start..start + n]
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow: need {n}, have {}", self.len());
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Written length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl AsRef<[u8]> for BytesMut {
    /// The written bytes.
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_getters() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xAB);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(0x0123_4567_89AB_CDEF);
        b.put_f32_le(1.5);
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 4);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_views_unread_region() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        let mut s2 = s.clone();
        assert_eq!(s2.get_u8(), 2);
        assert_eq!(s2.slice(0..2).as_ref(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reading_past_end_panics() {
        let mut b = Bytes::from(vec![1u8, 2]);
        b.get_u32_le();
    }

    #[test]
    fn a_slice_reads_like_bytes_and_advances_itself() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u64_le(u64::MAX - 1);
        b.put_f32_le(-0.25);
        b.put_slice(&[1, 2]);
        let frozen = b.freeze();
        let mut s: &[u8] = &frozen;
        assert_eq!(s.get_u8(), 7);
        assert_eq!(s.get_u64_le(), u64::MAX - 1);
        assert_eq!(s.get_f32_le(), -0.25);
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.copy_bytes(2), &[1, 2]);
        assert!(s.is_empty());
        assert_eq!(frozen.len(), 1 + 8 + 4 + 2, "the underlying bytes are not consumed");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reading_past_the_end_of_a_slice_panics() {
        let mut s: &[u8] = &[1, 2, 3];
        s.get_u32_le();
    }

    #[test]
    fn equality_ignores_consumed_prefix() {
        let mut a = Bytes::from(vec![9, 1, 2]);
        a.get_u8();
        assert_eq!(a, Bytes::from(vec![1, 2]));
    }
}
