//! Collision-safe byte-string keys — the dedup tables of the DPOR
//! explorer ([`crate::dpor`]).
//!
//! A [`DigestWriter`] accumulates a canonical byte encoding and finishes
//! into a [`StateKey`] carrying both a cheap 64-bit FNV-1a hash *and* the
//! full encoding. [`DigestMemo`] — the dedup table — buckets by the weak
//! hash but always confirms with a full byte comparison, so a hash
//! collision between distinct keys can never merge them (see the
//! `colliding_keys_are_not_merged` test). Callers length-prefix
//! variable-size data to rule out ambiguous concatenations.

use std::collections::HashMap;

/// Accumulates a canonical byte encoding.
#[derive(Debug)]
pub struct DigestWriter {
    bytes: Vec<u8>,
}

impl DigestWriter {
    /// An empty writer with room for `capacity` bytes, for callers that
    /// know the encoding's size up front.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        DigestWriter {
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Appends raw bytes. Callers encoding variable-length data must
    /// length-prefix it (see [`DigestWriter::write_len`]) to keep the
    /// overall encoding unambiguous.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends a collection length (prefix it *before* the elements), as
    /// a little-endian `u64`.
    pub fn write_len(&mut self, len: usize) {
        self.bytes.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Finalizes into a [`StateKey`]: weak hash plus full encoding.
    #[must_use]
    pub fn finish(self) -> StateKey {
        let hash = fnv1a(&self.bytes);
        StateKey {
            hash,
            bytes: self.bytes.into_boxed_slice(),
        }
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A canonical encoding: a weak 64-bit hash for bucketing and the
/// full byte string for the equality confirm path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateKey {
    hash: u64,
    bytes: Box<[u8]>,
}

impl StateKey {
    /// The full canonical encoding.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The dedup table: keys bucketed by weak hash, membership always
/// confirmed by comparing the full encodings. Distinct keys that happen
/// to collide on the 64-bit hash land in the same bucket but are *not*
/// merged.
#[derive(Debug, Default)]
pub struct DigestMemo {
    buckets: HashMap<u64, Vec<Box<[u8]>>>,
    entries: usize,
    bytes: usize,
}

impl DigestMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        DigestMemo::default()
    }

    /// Inserts `key`; `true` when it was not present before.
    pub fn insert(&mut self, key: StateKey) -> bool {
        let bucket = self.buckets.entry(key.hash).or_default();
        if bucket.iter().any(|seen| **seen == *key.bytes) {
            return false;
        }
        self.bytes += key.bytes.len();
        bucket.push(key.bytes);
        self.entries += 1;
        true
    }

    /// Number of distinct keys retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Total encoding bytes retained across all entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(parts: &[&[u8]]) -> StateKey {
        let mut w = DigestWriter::with_capacity(0);
        for part in parts {
            w.write_len(part.len());
            w.write_bytes(part);
        }
        w.finish()
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_parts() {
        // ["a", "b"] vs ["ab", ""] — without length prefixes these would
        // concatenate to the same stream.
        assert_eq!(key_of(&[b"a", b"b"]), key_of(&[b"a", b"b"]));
        assert_ne!(key_of(&[b"a", b"b"]), key_of(&[b"ab", b""]));
    }

    #[test]
    fn memo_dedups_identical_keys() {
        let mut memo = DigestMemo::new();
        assert!(memo.insert(key_of(&[b"7"])));
        assert!(!memo.insert(key_of(&[b"7"])));
        assert!(memo.insert(key_of(&[b"8"])));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.bytes(), 18);
    }

    #[test]
    fn colliding_keys_are_not_merged() {
        // Two *different* encodings forced under one weak hash: the memo
        // must keep both (full-equality confirm path), and re-inserting
        // either must then dedup.
        let forged = |bytes: &[u8]| StateKey {
            hash: 0xDEAD_BEEF,
            bytes: bytes.into(),
        };
        let mut memo = DigestMemo::new();
        assert!(memo.insert(forged(&[1, 2, 3])));
        assert!(
            memo.insert(forged(&[4, 5, 6])),
            "a distinct key under a colliding hash must not be merged"
        );
        assert_eq!(memo.len(), 2);
        assert!(!memo.insert(forged(&[1, 2, 3])));
        assert!(!memo.insert(forged(&[4, 5, 6])));
        assert_eq!(memo.len(), 2);
    }
}
