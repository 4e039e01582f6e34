//! Offline shim for the `bytes` crate.
//!
//! Provides the subset of the real API this workspace uses: an immutable,
//! cheaply cloneable, sliceable byte buffer backed by an `Arc<[u8]>` — the
//! bytes and their reference count live in one allocation. Clones share
//! it; `slice` produces a view without copying. The empty value
//! ([`Bytes::new`]) has no backing allocation at all. A buffer that is
//! written before it is shared starts as a [`BytesMut`].

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable chunk of contiguous memory.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` only for [`Bytes::new`]: the empty value owns nothing.
    data: Option<Arc<[u8]>>,
    /// The view, as offsets into `data`. Thirty-two bits each keep the
    /// handle at three words (every parsed frame carries one); no buffer
    /// here comes near 4 GiB, and [`From<Arc<[u8]>>`] refuses one that does.
    start: u32,
    end: u32,
}

/// A uniquely owned, writable buffer that becomes a [`Bytes`] without
/// moving: [`BytesMut::zeroed`], fill through `DerefMut`, [`freeze`]
/// (the real crate's shape for "serialize, then share") — one allocation
/// from the first byte written to the last handle dropped.
///
/// [`freeze`]: BytesMut::freeze
pub struct BytesMut {
    data: Arc<[u8]>,
}

impl BytesMut {
    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> BytesMut {
        // An exact-size iterator collects straight into the shared
        // allocation (and compiles to a `memset`).
        BytesMut {
            data: std::iter::repeat_n(0, len).collect(),
        }
    }

    /// Give up write access; the buffer is shared from here on.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("a BytesMut never shares its buffer")
    }
}

impl Bytes {
    /// Create an empty `Bytes`. Does not allocate.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy the given slice into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(data))
    }

    /// Create a `Bytes` from a static slice without tracking the borrow
    /// (the shim copies; the real crate borrows).
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view of this buffer sharing the same allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            // In bounds of a view whose own bounds fit.
            start: self.start + begin as u32,
            end: self.start + end as u32,
        }
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.start as usize..self.end as usize],
            None => &[],
        }
    }

    /// Copy the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// True when this handle is the only reference to the allocation
    /// (mirrors `bytes::Bytes::is_unique` from the real crate, ≥ 1.8).
    pub fn is_unique(&self) -> bool {
        self.data.as_ref().is_none_or(|v| Arc::strong_count(v) == 1)
    }

    /// Mutable access to the viewed bytes, only when this handle uniquely
    /// owns the allocation. Returns `None` when the buffer is shared —
    /// callers wanting copy-on-write semantics copy on `None`.
    ///
    /// Shim extension: the real crate routes mutation through `BytesMut`;
    /// this workspace's copy-on-write `Frame` only needs in-place access
    /// on the unique-owner fast path.
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        let (start, end) = (self.start as usize, self.end as usize);
        match &mut self.data {
            Some(v) => Arc::get_mut(v).map(|v| &mut v[start..end]),
            None => Some(&mut []),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Bytes {
        let end = u32::try_from(data.len()).expect("buffer of 4 GiB or more");
        Bytes {
            data: Some(data),
            start: 0,
            end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies: the vector's allocation has no room for a reference count
    /// (the real crate adopts it and allocates the count beside it).
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
    }

    #[test]
    fn unique_ownership_grants_mutation() {
        let mut b = Bytes::from(vec![1u8, 2, 3]);
        assert!(b.is_unique());
        b.get_mut().unwrap()[0] = 9;
        assert_eq!(&b[..], &[9, 2, 3]);

        let c = b.clone();
        assert!(!b.is_unique());
        assert!(b.get_mut().is_none());
        drop(c);
        assert!(b.is_unique());

        // A unique sliced view mutates only its window.
        let mut s = Bytes::from(vec![0u8; 4]).slice(1..3);
        let m = s.get_mut().unwrap();
        assert_eq!(m.len(), 2);
        m[1] = 7;
        assert_eq!(&s[..], &[0, 7]);
    }

    #[test]
    fn a_frozen_buffer_keeps_what_was_written() {
        let mut m = BytesMut::zeroed(6);
        assert_eq!(&m[..], &[0; 6]);
        m[2..4].copy_from_slice(&[7, 8]);
        let mut b = m.freeze();
        assert_eq!(&b[..], &[0, 0, 7, 8, 0, 0]);
        assert!(b.is_unique());
        b.get_mut().unwrap()[0] = 1;
        assert_eq!(b.slice(..3), Bytes::from(vec![1, 0, 7]));
        assert!(BytesMut::zeroed(0).freeze().is_empty());
    }

    #[test]
    fn equality_and_order() {
        let a = Bytes::from(vec![1u8, 2]);
        let b = Bytes::copy_from_slice(&[1, 2]);
        assert_eq!(a, b);
        assert!(vec![1u8] < vec![2u8]);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn the_empty_value_behaves_like_an_empty_buffer() {
        let mut e = Bytes::new();
        let allocated = Bytes::from(Vec::new());
        assert_eq!(e.len(), 0);
        assert_eq!(e.as_slice(), &[] as &[u8]);
        assert_eq!(e.to_vec(), Vec::<u8>::new());
        assert!(e.is_unique());
        assert_eq!(e.get_mut().map(|m| m.len()), Some(0));
        assert!(e.clone().is_unique(), "nothing to share");
        assert_eq!(e.slice(..), e);
        assert_eq!(e.slice(0..0), e);
        assert_eq!(e, allocated);
        assert_eq!(e.cmp(&allocated), std::cmp::Ordering::Equal);
        assert_eq!(format!("{e:?}"), "b\"\"");
        assert_eq!(format!("{e:?}"), format!("{allocated:?}"));
        let hash = |b: &Bytes| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&e), hash(&allocated));
        assert_eq!(hash(&e), hash(&Bytes::default()));
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn slicing_past_the_empty_value_panics() {
        let _ = Bytes::new().slice(0..1);
    }

    #[test]
    fn empty_slice_of_a_buffer_still_shares_it() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let mut s = b.slice(0..0);
        assert!(s.is_empty());
        assert_eq!(s, Bytes::new());
        // A view, not the empty value: the allocation is shared, so
        // neither handle may mutate until the other is gone.
        assert!(!b.is_unique());
        assert!(s.get_mut().is_none());
        drop(b);
        assert_eq!(s.get_mut().map(|m| m.len()), Some(0));
    }
}
