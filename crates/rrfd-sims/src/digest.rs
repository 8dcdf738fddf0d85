//! Canonical state digests — the memoization seam of the parallel explorer.
//!
//! Two interleavings of a protocol frequently *converge*: writes to
//! distinct SWMR cells commute, so many schedule prefixes reach the same
//! simulator state. The parallel explorer ([`crate::explore_par`])
//! deduplicates converged states, which requires a canonical, hashable
//! encoding of "everything that can still influence the run's outcome":
//! bank contents, per-process protocol state, pending observations,
//! recorded outputs, the crash set, and the step counter.
//!
//! A type opts into this by implementing [`StateDigest`]: it feeds a
//! canonical byte encoding of itself into a [`DigestWriter`]. The writer
//! produces a [`StateKey`] carrying both a cheap 64-bit FNV-1a hash *and*
//! the full byte encoding. [`DigestMemo`] — the dedup table — buckets by
//! the weak hash but always confirms with a full byte comparison, so a
//! hash collision between distinct states can never merge them (see the
//! `colliding_states_are_not_merged` test). Soundness therefore rests only
//! on the encoding being *injective enough*: two states with equal
//! encodings must behave identically under every future schedule. The
//! provided implementations tag enum discriminants and length-prefix
//! variable-size collections to rule out ambiguous concatenations.

use rrfd_core::{IdSet, ProcessId};
use std::collections::HashMap;

/// Accumulates the canonical byte encoding of a state.
#[derive(Debug, Default)]
pub struct DigestWriter {
    bytes: Vec<u8>,
}

impl DigestWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        DigestWriter::default()
    }

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

    /// Appends one byte — typically an enum discriminant tag.
    pub fn write_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` in little-endian order.
    pub fn write_u128(&mut self, v: u128) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length (prefix it *before* the elements).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
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

/// A canonical state encoding: a weak 64-bit hash for bucketing and the
/// full byte string for the equality confirm path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateKey {
    hash: u64,
    bytes: Box<[u8]>,
}

impl StateKey {
    /// The weak bucketing hash.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The full canonical encoding.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The dedup table: keys bucketed by weak hash, membership always
/// confirmed by comparing the full encodings. Distinct states that happen
/// to collide on the 64-bit hash land in the same bucket but are *not*
/// merged.
///
/// Every retained entry keeps its full `Box<[u8]>` encoding, so an
/// unbounded memo on a long exploration grows without limit. A memo built
/// with [`DigestMemo::bounded`] therefore enforces an entry and a byte
/// cap; once either would be exceeded the memo *stops inserting* and
/// marks itself [`DigestMemo::saturated`]. The degrade mode is sound by
/// construction: a fresh state that cannot be retained is still reported
/// fresh (explored, possibly more than once later) — fewer prunes, never
/// a wrong prune.
#[derive(Debug)]
pub struct DigestMemo {
    buckets: HashMap<u64, Vec<Box<[u8]>>>,
    entries: usize,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    saturated: bool,
    degraded: u64,
}

/// What [`DigestMemo::insert`] concluded about a key. The three outcomes
/// were previously conflated into a `bool`, which made the cap-degrade
/// path invisible to callers: a degraded insert and a genuinely fresh one
/// were indistinguishable, so explorer statistics could not separate
/// "pruned because converged" from "explored again because the memo was
/// full". Stat accounting bugs hide in exactly that gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoOutcome {
    /// Not seen before; retained. Explore it.
    Fresh,
    /// An identical encoding was already present. Pruning is sound.
    Duplicate,
    /// Not seen before, but the entry or byte cap refused retention.
    /// Explore it (pruning would be unsound) — and expect to possibly
    /// explore it again later, since the memo cannot remember it.
    Degraded,
}

impl MemoOutcome {
    /// `true` for [`MemoOutcome::Duplicate`] — the only outcome that
    /// justifies pruning.
    #[must_use]
    pub fn is_duplicate(self) -> bool {
        matches!(self, MemoOutcome::Duplicate)
    }

    /// `true` for [`MemoOutcome::Fresh`] (seen for the first time *and*
    /// retained).
    #[must_use]
    pub fn is_fresh(self) -> bool {
        matches!(self, MemoOutcome::Fresh)
    }
}

impl Default for DigestMemo {
    fn default() -> Self {
        DigestMemo::new()
    }
}

impl DigestMemo {
    /// An empty, unbounded memo.
    #[must_use]
    pub fn new() -> Self {
        DigestMemo::bounded(usize::MAX, usize::MAX)
    }

    /// An empty memo that retains at most `max_entries` states totalling
    /// at most `max_bytes` of encoding payload.
    #[must_use]
    pub fn bounded(max_entries: usize, max_bytes: usize) -> Self {
        DigestMemo {
            buckets: HashMap::new(),
            entries: 0,
            bytes: 0,
            max_entries,
            max_bytes,
            saturated: false,
            degraded: 0,
        }
    }

    /// Inserts `key` and reports which [`MemoOutcome`] applied. Only
    /// [`MemoOutcome::Duplicate`] justifies pruning; a fresh state past the
    /// cap comes back [`MemoOutcome::Degraded`] and must still be explored
    /// (see the type docs for why that degrade mode is sound).
    pub fn insert(&mut self, key: StateKey) -> MemoOutcome {
        self.insert_raw(key.hash, key.bytes)
    }

    /// Raw-entry insert used by the collision soundness tests: callers can
    /// force two different byte strings under the same weak hash and
    /// observe that both are kept.
    pub fn insert_raw(&mut self, hash: u64, bytes: Box<[u8]>) -> MemoOutcome {
        if let Some(bucket) = self.buckets.get(&hash) {
            if bucket.iter().any(|seen| **seen == *bytes) {
                return MemoOutcome::Duplicate;
            }
        }
        if self.entries >= self.max_entries
            || self.bytes.saturating_add(bytes.len()) > self.max_bytes
        {
            // Refuse retention without touching the bucket map: allocating
            // an empty bucket per refused hash would grow the table without
            // bound, defeating the very cap that triggered the refusal.
            self.saturated = true;
            self.degraded += 1;
            return MemoOutcome::Degraded;
        }
        self.bytes += bytes.len();
        self.buckets.entry(hash).or_default().push(bytes);
        self.entries += 1;
        MemoOutcome::Fresh
    }

    /// Number of distinct states retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// `true` when nothing was inserted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Total encoding bytes retained across all entries.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// `true` once an insert was refused by the entry or byte cap.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Number of inserts refused by the caps — fresh states the memo could
    /// not retain and may therefore see (and report [`MemoOutcome::Degraded`]
    /// for) again.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded
    }
}

/// Feeds a canonical byte encoding of `self` into a [`DigestWriter`].
///
/// Contract: if two values of the same type produce equal byte streams,
/// they must be observationally equivalent — every future the simulator
/// can produce from one, it can produce from the other. Implementations
/// for sum types must write a discriminant tag; implementations for
/// variable-size collections must length-prefix.
pub trait StateDigest {
    /// Writes the canonical encoding of `self`.
    fn digest(&self, w: &mut DigestWriter);
}

macro_rules! digest_via_u64 {
    ($($ty:ty),*) => {$(
        impl StateDigest for $ty {
            fn digest(&self, w: &mut DigestWriter) {
                w.write_u64(*self as u64);
            }
        }
    )*};
}

digest_via_u64!(u8, u16, u32, u64, usize);

impl StateDigest for i64 {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_u64(*self as u64);
    }
}

impl StateDigest for bool {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_u8(u8::from(*self));
    }
}

impl StateDigest for () {
    fn digest(&self, _w: &mut DigestWriter) {}
}

impl StateDigest for ProcessId {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_u64(self.index() as u64);
    }
}

impl StateDigest for IdSet {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_len(self.len());
        for p in self.iter() {
            p.digest(w);
        }
    }
}

impl<T: StateDigest> StateDigest for Option<T> {
    fn digest(&self, w: &mut DigestWriter) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.digest(w);
            }
        }
    }
}

impl<T: StateDigest> StateDigest for [T] {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_len(self.len());
        for item in self {
            item.digest(w);
        }
    }
}

impl<T: StateDigest> StateDigest for Vec<T> {
    fn digest(&self, w: &mut DigestWriter) {
        self.as_slice().digest(w);
    }
}

impl<T: StateDigest> StateDigest for std::collections::VecDeque<T> {
    fn digest(&self, w: &mut DigestWriter) {
        w.write_len(self.len());
        for item in self {
            item.digest(w);
        }
    }
}

impl<A: StateDigest, B: StateDigest> StateDigest for (A, B) {
    fn digest(&self, w: &mut DigestWriter) {
        self.0.digest(w);
        self.1.digest(w);
    }
}

impl<A: StateDigest, B: StateDigest, C: StateDigest> StateDigest for (A, B, C) {
    fn digest(&self, w: &mut DigestWriter) {
        self.0.digest(w);
        self.1.digest(w);
        self.2.digest(w);
    }
}

impl<T: StateDigest + ?Sized> StateDigest for &T {
    fn digest(&self, w: &mut DigestWriter) {
        (*self).digest(w);
    }
}

/// Digests through the pointer: two executions whose inboxes hold the same
/// payload — whether Arc-shared or independently owned — encode
/// identically, so the zero-copy message plane cannot perturb memoization.
impl<T: StateDigest + ?Sized> StateDigest for std::sync::Arc<T> {
    fn digest(&self, w: &mut DigestWriter) {
        (**self).digest(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of<T: StateDigest>(value: &T) -> StateKey {
        let mut w = DigestWriter::new();
        value.digest(&mut w);
        w.finish()
    }

    #[test]
    fn equal_values_share_a_key_distinct_values_do_not() {
        let a = key_of(&vec![Some(1u64), None, Some(3)]);
        let b = key_of(&vec![Some(1u64), None, Some(3)]);
        let c = key_of(&vec![Some(1u64), Some(3), None]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_collections() {
        // [[1],[2]] vs [[1,2],[]] — without length prefixes these would
        // concatenate to the same stream.
        let a = key_of(&vec![vec![1u64], vec![2u64]]);
        let b = key_of(&vec![vec![1u64, 2u64], Vec::<u64>::new()]);
        assert_ne!(a, b);
    }

    #[test]
    fn memo_dedups_identical_keys() {
        let mut memo = DigestMemo::new();
        assert_eq!(memo.insert(key_of(&7u64)), MemoOutcome::Fresh);
        assert_eq!(memo.insert(key_of(&7u64)), MemoOutcome::Duplicate);
        assert_eq!(memo.insert(key_of(&8u64)), MemoOutcome::Fresh);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn colliding_states_are_not_merged() {
        // Two *different* encodings forced under one weak hash: the memo
        // must keep both (full-equality confirm path), and re-inserting
        // either must then dedup.
        let mut memo = DigestMemo::new();
        let first: Box<[u8]> = vec![1, 2, 3].into_boxed_slice();
        let second: Box<[u8]> = vec![4, 5, 6].into_boxed_slice();
        assert!(memo.insert_raw(0xDEAD_BEEF, first.clone()).is_fresh());
        assert!(
            memo.insert_raw(0xDEAD_BEEF, second.clone()).is_fresh(),
            "distinct state under a colliding hash must not be merged"
        );
        assert_eq!(memo.len(), 2);
        assert!(memo.insert_raw(0xDEAD_BEEF, first).is_duplicate());
        assert!(memo.insert_raw(0xDEAD_BEEF, second).is_duplicate());
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn entry_cap_degrades_to_fresh_not_wrong() {
        let mut memo = DigestMemo::bounded(2, usize::MAX);
        assert!(memo.insert(key_of(&1u64)).is_fresh());
        assert!(memo.insert(key_of(&2u64)).is_fresh());
        assert!(!memo.saturated());
        // Third distinct state: explored but not retained, and the caller
        // can tell the difference from a genuinely fresh insert.
        assert_eq!(memo.insert(key_of(&3u64)), MemoOutcome::Degraded);
        assert!(memo.saturated());
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.degraded(), 1);
        // Re-encountering the unretained state degrades again — a repeat
        // visit, never a wrong prune.
        assert_eq!(memo.insert(key_of(&3u64)), MemoOutcome::Degraded);
        assert_eq!(memo.degraded(), 2);
        // Retained states still dedup after saturation.
        assert!(memo.insert(key_of(&1u64)).is_duplicate());
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn byte_cap_degrades_to_fresh_not_wrong() {
        // Each u64 key encodes to 8 bytes; cap at 12 retains exactly one.
        let mut memo = DigestMemo::bounded(usize::MAX, 12);
        assert!(memo.insert(key_of(&1u64)).is_fresh());
        assert_eq!(memo.bytes(), 8);
        assert!(!memo.saturated());
        assert_eq!(memo.insert(key_of(&2u64)), MemoOutcome::Degraded);
        assert!(memo.saturated());
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.bytes(), 8);
        assert_eq!(memo.degraded(), 1);
        assert!(
            memo.insert(key_of(&1u64)).is_duplicate(),
            "retained entry still dedups"
        );
    }

    #[test]
    fn cap_refused_inserts_do_not_grow_the_bucket_map() {
        // Regression: the refusal path used to allocate an empty bucket per
        // refused hash via `entry(..).or_default()`, so a saturated memo
        // kept growing its table — exactly what the cap exists to prevent.
        let mut memo = DigestMemo::bounded(1, usize::MAX);
        assert!(memo.insert(key_of(&0u64)).is_fresh());
        for i in 1..100u64 {
            assert_eq!(memo.insert(key_of(&i)), MemoOutcome::Degraded);
        }
        assert_eq!(memo.buckets.len(), 1, "refused hashes must not be kept");
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.degraded(), 99);
    }

    #[test]
    fn unbounded_memo_never_saturates() {
        let mut memo = DigestMemo::new();
        for i in 0..1000u64 {
            assert!(memo.insert(key_of(&i)).is_fresh());
        }
        assert_eq!(memo.len(), 1000);
        assert_eq!(memo.bytes(), 8000);
        assert!(!memo.saturated());
        assert_eq!(memo.degraded(), 0);
    }

    #[test]
    fn idset_and_pid_digests_are_canonical() {
        let mut s1 = IdSet::empty();
        s1.insert(ProcessId::new(2));
        s1.insert(ProcessId::new(0));
        let mut s2 = IdSet::empty();
        s2.insert(ProcessId::new(0));
        s2.insert(ProcessId::new(2));
        assert_eq!(key_of(&s1), key_of(&s2));
        assert_ne!(key_of(&s1), key_of(&IdSet::empty()));
    }
}
