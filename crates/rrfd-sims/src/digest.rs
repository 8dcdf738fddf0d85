//! Collision-safe byte-string keys — the dedup tables of the DPOR
//! explorer ([`crate::dpor`]).
//!
//! A [`KeyBuf`] assembles canonical byte encodings back to back in one
//! buffer that is reused from work item to work item; each finished
//! encoding is a borrowed [`Key`] carrying both a cheap 64-bit hash *and*
//! the full encoding. [`DigestMemo`] — the dedup table — buckets by the
//! weak hash but always confirms with a full byte comparison, so a hash
//! collision between distinct keys can never merge them (see the
//! `colliding_keys_are_not_merged` test). A probe only borrows the key;
//! the memo copies it into a box of its own only when it inserts it.
//! Callers length-prefix variable-size data to rule out ambiguous
//! concatenations.

use std::collections::HashMap;
use std::ops::Range;

/// Accumulates canonical byte encodings, one after another, in a buffer
/// that [`KeyBuf::clear`] empties without releasing.
#[derive(Debug, Default)]
pub struct KeyBuf {
    bytes: Vec<u8>,
    /// Each finished key's weak hash and byte range.
    keys: Vec<(u64, Range<usize>)>,
}

impl KeyBuf {
    /// Forgets every key, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.keys.clear();
    }

    /// Appends raw bytes to the key being assembled. Callers encoding
    /// variable-length data must length-prefix it (see
    /// [`KeyBuf::write_len`]) to keep the overall encoding unambiguous.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends a collection length (prefix it *before* the elements), as
    /// a little-endian `u64`.
    pub fn write_len(&mut self, len: usize) {
        self.bytes.extend_from_slice(&(len as u64).to_le_bytes());
    }

    /// Ends the key written since the previous `finish` (or `clear`) and
    /// returns its index for [`KeyBuf::key`].
    pub fn finish(&mut self) -> usize {
        let start = self.keys.last().map_or(0, |(_, range)| range.end);
        let range = start..self.bytes.len();
        self.keys
            .push((bucket_hash(&self.bytes[range.clone()]), range));
        self.keys.len() - 1
    }

    /// The finished key at `index`.
    ///
    /// # Panics
    ///
    /// When no key with that index was finished since the last clear.
    #[must_use]
    pub fn key(&self, index: usize) -> Key<'_> {
        let (hash, range) = &self.keys[index];
        Key {
            hash: *hash,
            bytes: &self.bytes[range.clone()],
        }
    }
}

/// The weak bucket hash: FNV-1a's offset and prime applied a
/// little-endian word at a time, seeded with the length (so zero padding
/// of the last word is unambiguous), then avalanched so that every input
/// bit reaches the low bits. Private to a process run and never
/// persisted, so it may change freely.
fn bucket_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(word);
        hash = (hash ^ u64::from_le_bytes(buf)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        hash = (hash ^ u64::from_le_bytes(buf)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64's finalizer.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A borrowed canonical encoding: a weak 64-bit hash for bucketing and
/// the full byte string for the equality confirm path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key<'a> {
    hash: u64,
    bytes: &'a [u8],
}

impl<'a> Key<'a> {
    /// The full canonical encoding.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
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

    /// Inserts `key`; `true` when it was not present before. Only a key
    /// that is inserted is copied (into a box the memo owns); probing a
    /// present key allocates nothing.
    pub fn insert(&mut self, key: Key<'_>) -> bool {
        let bucket = self.buckets.entry(key.hash).or_default();
        if bucket.iter().any(|seen| **seen == *key.bytes) {
            return false;
        }
        self.bytes += key.bytes.len();
        bucket.push(key.bytes.into());
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
    use std::collections::HashSet;

    /// Appends the length-prefixed `parts` as one key; returns its index.
    fn write_key(buf: &mut KeyBuf, parts: &[&[u8]]) -> usize {
        for part in parts {
            buf.write_len(part.len());
            buf.write_bytes(part);
        }
        buf.finish()
    }

    fn bytes_of(parts: &[&[u8]]) -> Vec<u8> {
        let mut buf = KeyBuf::default();
        let key = write_key(&mut buf, parts);
        buf.key(key).bytes().to_vec()
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_parts() {
        // ["a", "b"] vs ["ab", ""] — without length prefixes these would
        // concatenate to the same stream.
        assert_eq!(bytes_of(&[b"a", b"b"]), bytes_of(&[b"a", b"b"]));
        assert_ne!(bytes_of(&[b"a", b"b"]), bytes_of(&[b"ab", b""]));
    }

    #[test]
    fn keys_are_assembled_back_to_back() {
        let mut buf = KeyBuf::default();
        let a = write_key(&mut buf, &[b"first"]);
        let b = write_key(&mut buf, &[b"second", b"part"]);
        let empty = buf.finish();
        assert_eq!(buf.key(a).bytes(), bytes_of(&[b"first"]));
        assert_eq!(buf.key(b).bytes(), bytes_of(&[b"second", b"part"]));
        assert!(buf.key(empty).bytes().is_empty());
        // A cleared buffer reproduces the same key, hash included.
        let mut fresh = KeyBuf::default();
        write_key(&mut fresh, &[b"second", b"part"]);
        buf.clear();
        let again = write_key(&mut buf, &[b"second", b"part"]);
        assert_eq!(again, 0);
        assert_eq!(buf.key(again), fresh.key(0));
    }

    #[test]
    fn memo_dedups_identical_keys() {
        let mut buf = KeyBuf::default();
        let seven = write_key(&mut buf, &[b"7"]);
        let again = write_key(&mut buf, &[b"7"]);
        let eight = write_key(&mut buf, &[b"8"]);
        let mut memo = DigestMemo::new();
        assert!(memo.insert(buf.key(seven)));
        assert!(!memo.insert(buf.key(again)));
        assert!(memo.insert(buf.key(eight)));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.bytes(), 18);
    }

    /// Probing borrowed keys out of one reused buffer dedups exactly like
    /// inserting owned copies into a set, and counts the same entries and
    /// bytes.
    #[test]
    fn borrowed_probes_dedup_like_owned_inserts() {
        let mut state = 0x0B0E_5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut memo = DigestMemo::new();
        let mut owned: HashSet<Vec<u8>> = HashSet::new();
        let mut buf = KeyBuf::default();
        for _ in 0..200 {
            buf.clear();
            let batch = 1 + next() % 6;
            for _ in 0..batch {
                // Few distinct short parts, so repeats are common and keys
                // straddle word boundaries at every offset.
                let parts: Vec<Vec<u8>> = (0..next() % 4)
                    .map(|_| vec![b'a' + (next() % 3) as u8; (next() % 11) as usize])
                    .collect();
                let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
                let key = write_key(&mut buf, &parts);
                let fresh = memo.insert(buf.key(key));
                assert_eq!(fresh, owned.insert(buf.key(key).bytes().to_vec()));
            }
            assert_eq!(memo.len(), owned.len());
            assert_eq!(memo.bytes(), owned.iter().map(Vec::len).sum::<usize>());
        }
        assert!(memo.len() > 20 && memo.len() < 400, "{} keys", memo.len());
    }

    #[test]
    fn colliding_keys_are_not_merged() {
        // Two *different* encodings forced under one weak hash: the memo
        // must keep both (full-equality confirm path), and re-inserting
        // either must then dedup.
        let forged = |bytes: &'static [u8]| Key {
            hash: 0xDEAD_BEEF,
            bytes,
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
