//! The revisit-closure driver: one work item per execution prefix,
//! processed to a maximal run, deduplicated by trace class, and expanded
//! into race-reversal and crash-alternative revisits.
//!
//! # Why this is deterministic across worker counts
//!
//! A work item is an event-sequence prefix. Processing it is a pure
//! function: replay the prefix, extend it deterministically (always the
//! first enabled option), canonicalize the resulting run, and — if the
//! class is new — derive children from the *canonical* form. Children of
//! a class therefore do not depend on which linearization reached it or
//! on which worker processed it. The explored set is the least fixpoint
//! of `children` over the seed, and a fixpoint does not care about
//! traversal order — so every statistic except [`ExploreStats::steals`]
//! (and the configured `workers`) is identical at 1, 2, or 8 workers,
//! and so is the reported counterexample: among failing classes, the one
//! with the lexicographically smallest canonical key wins, not the one a
//! worker happened to reach first.

use super::graph::{Access, EventLine, ExecutionGraph};
use super::pool::StealPool;
use crate::digest::{DigestMemo, KeyBuf};
use crate::explore::{Counterexample, ExploreStats};
use crate::trace::{SchedEvent, ScheduleTrace};
use rrfd_core::ProcessId;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// What the DPOR driver needs from an execution state: enabled options,
/// traced application (every apply reports the [`Access`] footprint it
/// left behind), and the completed-run report. No state digest is
/// needed: classes are identified by event sequences, so this works on
/// protocols whose states are not soundly digestible.
///
/// Each worker resets one state per work item with
/// [`Clone::clone_from`], so implementations should override it to reuse
/// their buffers.
pub(crate) trait DporTarget: Sized + Clone {
    /// Scheduler event type, replayable through [`ScheduleTrace`].
    type Event: SchedEvent + Send + Sync;
    /// Completed-run report handed to the checker.
    type Report;

    /// Whether states can offer [`DporTarget::alternatives`] at all.
    /// When `false` the driver skips the canonical re-replay that
    /// harvests them.
    const HAS_ALTERNATIVES: bool;

    /// Process count.
    fn n(&self) -> usize;
    /// Replaces the contents of `into` with the enabled events at this
    /// state, in canonical (id) order; empty exactly at complete runs.
    /// The deterministic extension always applies the first.
    fn options(&self, into: &mut Vec<Self::Event>);
    /// Replaces the contents of `into` with the enabled events that the
    /// deterministic extension would never pick and race reversal can
    /// never surface, because runs that omit them contain no inverted
    /// dependency — concretely, crashes: a maximal crash-free run has no
    /// crash event to reverse into an earlier position. The driver
    /// branches on each explicitly.
    fn alternatives(&self, into: &mut Vec<Self::Event>);
    /// Applies an enabled event and reports its footprint.
    fn apply_traced(&mut self, event: Self::Event) -> Access;
    /// Packages the (final) state as a run report.
    fn report(&self) -> Self::Report;
    /// The process an event names.
    fn event_pid(event: &Self::Event) -> ProcessId;
}

/// Why a DPOR exploration did not return clean stats.
#[derive(Debug, Clone)]
pub enum DporError<E> {
    /// A class's run failed the check; carries the replayable
    /// certificate and the whole search's effort totals.
    Counterexample(Box<Counterexample<E>>),
    /// The instance could not be started (wrong process count).
    Misconfigured(String),
    /// The search reached more than `max` distinct trace classes
    /// ([`super::DporConfig::max_schedules`]). Whether this happens is a
    /// property of the class space, not of the worker count, and it takes
    /// precedence over any counterexample met on the way.
    ClassLimit {
        /// The configured class guard.
        max: usize,
    },
}

impl<E: SchedEvent> std::fmt::Display for DporError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DporError::Counterexample(cex) => write!(f, "{cex}"),
            DporError::Misconfigured(why) => write!(f, "misconfigured exploration: {why}"),
            DporError::ClassLimit { max } => write!(
                f,
                "DPOR exploration exceeded max_schedules ({max} trace classes)"
            ),
        }
    }
}

impl<E: SchedEvent> std::error::Error for DporError<E> {}

/// The trace lines (`step 3`, `crash 1`, …) of a target's events, each
/// distinct event formatted once per worker: a target has few distinct
/// events, so the text is kept across work items. Keys are digests of
/// line sequences, so the class key and every child key are assembled
/// from these lines without formatting any event again.
struct EventLines<E> {
    text: String,
    /// Each distinct event seen so far, with its line's range in `text`.
    distinct: Vec<(E, Range<usize>)>,
}

impl<E: SchedEvent> EventLines<E> {
    fn new() -> Self {
        EventLines {
            text: String::new(),
            distinct: Vec::new(),
        }
    }

    /// The range of `event`'s line in the text, formatted on first sight.
    fn intern(&mut self, event: E) -> Range<usize> {
        if let Some((_, line)) = self.distinct.iter().find(|(seen, _)| *seen == event) {
            return line.clone();
        }
        let start = self.text.len();
        // Formatting into a `String` cannot fail.
        let _ = write!(self.text, "{}", EventLine(event));
        let line = start..self.text.len();
        self.distinct.push((event, line.clone()));
        line
    }

    /// Appends to `keys` the digest of a sequence of interned lines, each
    /// length-prefixed — the class identity of a canonical linearization,
    /// or the dedup key of a proposed revisit prefix — and returns its
    /// index.
    fn write_key(&self, lines: impl Iterator<Item = Range<usize>>, keys: &mut KeyBuf) -> usize {
        for line in lines {
            let line = &self.text[line];
            keys.write_len(line.len());
            keys.write_bytes(line.as_bytes());
        }
        keys.finish()
    }
}

/// A counterexample keyed by its class's canonical digest; the minimal
/// key wins the fold, making the selection worker-count-independent.
type KeyedCex<E> = (Box<[u8]>, Box<Counterexample<E>>);

/// Shared fold of per-item outcomes. Stats merging is commutative and
/// the counterexample choice is a minimum, so the fold result does not
/// depend on completion order.
struct Fold<E> {
    stats: ExploreStats,
    cex: Option<KeyedCex<E>>,
}

/// Runs the revisit closure from the empty prefix and returns the folded
/// stats or the minimal-class counterexample.
pub(crate) fn drive_dpor<T, F>(
    root: &T,
    check: &F,
    config: &super::DporConfig,
) -> Result<ExploreStats, DporError<T::Event>>
where
    T: DporTarget + Send + Sync,
    F: Fn(&T::Report) -> Result<(), String> + Sync,
{
    let class_memo = Mutex::new(DigestMemo::new());
    let prefix_memo = Mutex::new(DigestMemo::new());
    let fold = Mutex::new(Fold::<T::Event> {
        stats: ExploreStats::default(),
        cex: None,
    });
    let classes_seen = AtomicUsize::new(0);
    let max_classes = config.max_schedules;

    // Every lock below is recovered from poisoning rather than unwrapped.
    // That is total: the pool runs this closure under `catch_unwind`
    // outside every deque lock and re-raises the first panic after
    // joining its workers, so no result built from a poisoned guard is
    // ever returned.
    let pool = StealPool::new(config.workers);
    let pool_stats = pool.run(
        vec![Vec::<T::Event>::new()],
        || Scratch::new(root),
        |scratch, prefix, spawn| {
            let item = scratch.process(
                root,
                check,
                &prefix,
                &class_memo,
                &classes_seen,
                max_classes,
            );
            // Failing classes propose no children. Dedup the proposed
            // prefixes before they enter the pool: their keys were
            // assembled by `process`, outside every lock, and only a
            // fresh child is boxed (by the memo) and expanded into events.
            let proposed = scratch.children.len();
            {
                let mut prefixes = prefix_memo.lock().unwrap_or_else(PoisonError::into_inner);
                let keys = &scratch.keys;
                scratch
                    .children
                    .retain(|child| prefixes.insert(keys.key(child.key)));
            }
            let revisits = scratch.children.len();
            spawn.extend(
                scratch
                    .children
                    .iter()
                    .map(|child| scratch.events_of(child)),
            );

            let mut fold = fold.lock().unwrap_or_else(PoisonError::into_inner);
            fold.stats = fold.stats.merged(item.stats);
            fold.stats.revisits += revisits as u64;
            fold.stats.sleep_set_blocked += (proposed - revisits) as u64;
            if let Some((key, cex)) = item.cex {
                let replace = match &fold.cex {
                    Some((best, _)) => key < *best,
                    None => true,
                };
                if replace {
                    fold.cex = Some((key, cex));
                }
            }
        },
    );

    if classes_seen.load(Ordering::SeqCst) > max_classes {
        return Err(DporError::ClassLimit { max: max_classes });
    }
    let mut fold = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
    let classes = class_memo
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let prefixes = prefix_memo
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    fold.stats.workers = pool_stats.workers;
    fold.stats.steals = pool_stats.steals;
    fold.stats.memo_entries = classes.len() + prefixes.len();
    fold.stats.memo_bytes = classes.bytes() + prefixes.bytes();
    fold.stats.record(&config.obs);

    match fold.cex {
        Some((_, mut cex)) => {
            cex.stats = fold.stats;
            Err(DporError::Counterexample(cex))
        }
        None => Ok(fold.stats),
    }
}

/// Per-item outcome: effort totals and an optional keyed counterexample.
/// The item's proposed children stay in the worker's [`Scratch`].
struct ItemOutcome<E> {
    stats: ExploreStats,
    cex: Option<KeyedCex<E>>,
}

/// A revisit proposed by a class: the graph events listed at `prefix` in
/// [`Scratch::prefixes`], then `alt` if any. Its dedup key is
/// `Scratch::keys.key(key)`.
struct Child<E> {
    key: usize,
    prefix: Range<usize>,
    alt: Option<E>,
}

/// One worker's buffers, reused from work item to work item, so that an
/// item allocates only what it hands to the shared memos or the pool.
/// Nothing in it outlives an item except capacity and the interned
/// event lines.
struct Scratch<T: DporTarget> {
    /// The simulator state, reset from the root for each item.
    state: T,
    graph: ExecutionGraph<T::Event>,
    options: Vec<T::Event>,
    /// Option index taken at each decision point.
    choices: Vec<usize>,
    /// The canonical linearization, and each event's position in it.
    canon: Vec<usize>,
    pos: Vec<usize>,
    /// Frontier counters of [`ExecutionGraph::canonical_order`].
    emitted: Vec<usize>,
    races: Vec<(usize, usize)>,
    lines: EventLines<T::Event>,
    /// The line of each graph event.
    slots: Vec<Range<usize>>,
    /// The class key (first), then one key per child.
    keys: KeyBuf,
    /// Child prefixes as graph event indices, back to back.
    prefixes: Vec<usize>,
    children: Vec<Child<T::Event>>,
}

impl<T: DporTarget> Scratch<T> {
    fn new(root: &T) -> Self {
        Scratch {
            state: root.clone(),
            graph: ExecutionGraph::new(root.n()),
            options: Vec::new(),
            choices: Vec::new(),
            canon: Vec::new(),
            pos: Vec::new(),
            emitted: Vec::new(),
            races: Vec::new(),
            lines: EventLines::new(),
            slots: Vec::new(),
            keys: KeyBuf::default(),
            prefixes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Replays `prefix`, extends it deterministically to a maximal run,
    /// deduplicates the resulting trace class, checks it, and proposes
    /// the class's revisits (in [`Scratch::children`]) from its
    /// canonical linearization.
    ///
    /// Once more than `max_classes` classes have been seen the search is
    /// over: this item (and every later one) proposes no children.
    fn process<F>(
        &mut self,
        root: &T,
        check: &F,
        prefix: &[T::Event],
        class_memo: &Mutex<DigestMemo>,
        classes_seen: &AtomicUsize,
        max_classes: usize,
    ) -> ItemOutcome<T::Event>
    where
        F: Fn(&T::Report) -> Result<(), String>,
    {
        self.children.clear();
        self.prefixes.clear();
        self.keys.clear();
        let mut stats = ExploreStats::default();
        let out = |stats: ExploreStats, cex| ItemOutcome { stats, cex };

        if classes_seen.load(Ordering::SeqCst) > max_classes {
            return out(stats, None);
        }

        // Replay the revisit prefix, recording footprints and choice indices.
        self.state.clone_from(root);
        self.graph.clear();
        self.choices.clear();
        for &event in prefix {
            self.state.options(&mut self.options);
            stats.decision_points += 1;
            let Some(idx) = self.options.iter().position(|&o| o == event) else {
                // The revisit construction guarantees prefixes stay enabled;
                // if that invariant ever broke, dropping the item would lose
                // coverage silently, so fail loudly instead.
                unreachable!("revisit prefix event {event:?} not enabled during replay");
            };
            self.choices.push(idx);
            let access = self.state.apply_traced(event);
            self.graph.push(event, T::event_pid(&event), access);
        }

        // Deterministic extension: always the first enabled option.
        loop {
            self.state.options(&mut self.options);
            let Some(&event) = self.options.first() else {
                break;
            };
            stats.decision_points += 1;
            self.choices.push(0);
            let access = self.state.apply_traced(event);
            self.graph.push(event, T::event_pid(&event), access);
        }
        stats.max_depth = self.graph.len();

        // One representative per Mazurkiewicz class: the canonical
        // linearization's digest is the class identity.
        self.graph
            .canonical_order(&mut self.canon, &mut self.emitted);
        self.slots.clear();
        for e in self.graph.events() {
            self.slots.push(self.lines.intern(e.event));
        }
        let slots = &self.slots;
        let class = self
            .lines
            .write_key(self.canon.iter().map(|&k| slots[k].clone()), &mut self.keys);
        let fresh = class_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(self.keys.key(class));
        if !fresh {
            stats.sleep_set_blocked += 1;
            return out(stats, None);
        }
        stats.schedules += 1;
        stats.graphs_explored += 1;
        if classes_seen.fetch_add(1, Ordering::SeqCst) + 1 > max_classes {
            return out(stats, None);
        }

        if let Err(message) = check(&self.state.report()) {
            let cex = Box::new(Counterexample {
                choices: self.choices.clone(),
                schedule: ScheduleTrace::from_events(
                    self.graph.events().iter().map(|e| e.event).collect(),
                ),
                message,
                stats: ExploreStats::default(), // overwritten with the fold
            });
            return out(stats, Some((self.keys.key(class).bytes().into(), cex)));
        }

        self.propose_race_reversals();
        if T::HAS_ALTERNATIVES {
            self.propose_alternatives(root);
        }
        out(stats, None)
    }

    /// Proposes revisits from the class's reversible races, computed in
    /// canonical coordinates: for a race `(i, j)` the child is everything
    /// canonically before `i`, then the events between them that do not
    /// causally depend on `i`, then `j` itself — the shortest enabled
    /// prefix in which `j` happens without `i` having happened.
    fn propose_race_reversals(&mut self) {
        let Scratch {
            graph,
            canon,
            pos,
            races,
            lines,
            slots,
            keys,
            prefixes,
            children,
            ..
        } = self;
        pos.clear();
        pos.resize(canon.len(), 0);
        for (p, &orig) in canon.iter().enumerate() {
            pos[orig] = p;
        }
        graph.reversible_races(races);
        // Positions are distinct, so the unstable sort is deterministic.
        races.sort_unstable_by_key(|&(i, j)| (pos[i], pos[j]));
        for &(i, j) in races.iter() {
            let (ci, cj) = (pos[i], pos[j]);
            debug_assert!(ci < cj, "canonical order must linearize happens-before");
            let start = prefixes.len();
            prefixes.extend_from_slice(&canon[..ci]);
            prefixes.extend(
                canon[ci + 1..cj]
                    .iter()
                    .copied()
                    .filter(|&k| !graph.hb(i, k)),
            );
            prefixes.push(j);
            let prefix = start..prefixes.len();
            let key = lines.write_key(
                prefixes[prefix.clone()].iter().map(|&k| slots[k].clone()),
                keys,
            );
            children.push(Child {
                key,
                prefix,
                alt: None,
            });
        }
    }

    /// Proposes revisits from data-nondeterministic alternatives
    /// (crashes): the first `len` canonical events, then the alternative.
    /// Replays the canonical linearization from `root` and, before each
    /// position, branches into every enabled alternative the
    /// deterministic extension would never take. Race reversal only
    /// reorders events that *occur*; a maximal run without a crash gives
    /// it nothing to reorder, so these branches are what carries the
    /// search into the crashing part of the schedule space.
    fn propose_alternatives(&mut self, root: &T) {
        let Scratch {
            state,
            graph,
            options,
            canon,
            lines,
            slots,
            keys,
            prefixes,
            children,
            ..
        } = self;
        state.clone_from(root);
        for (len, &k) in canon.iter().enumerate() {
            state.alternatives(options);
            for &alt in options.iter() {
                let alt_line = lines.intern(alt);
                let replayed = canon[..len].iter().map(|&k| slots[k].clone());
                let key = lines.write_key(replayed.chain(std::iter::once(alt_line)), keys);
                let start = prefixes.len();
                prefixes.extend_from_slice(&canon[..len]);
                children.push(Child {
                    key,
                    prefix: start..prefixes.len(),
                    alt: Some(alt),
                });
            }
            state.apply_traced(graph.events()[k].event);
        }
    }

    /// The events of a proposed child, built only once its key was found
    /// fresh.
    fn events_of(&self, child: &Child<T::Event>) -> Vec<T::Event> {
        let events = self.graph.events();
        self.prefixes[child.prefix.clone()]
            .iter()
            .map(|&k| events[k].event)
            .chain(child.alt)
            .collect()
    }
}

/// Processes the whole revisit closure of `root` on one thread, each
/// item twice: in one scratch reused for every item, as a pool worker
/// does, and in a freshly built scratch. Panics at the first item whose
/// outcome differs — stats, counterexample (key included), or proposed
/// children with their keys — and returns the number of items processed.
#[cfg(test)]
pub(super) fn assert_scratch_reuse_is_invisible<T, F>(root: &T, check: &F) -> usize
where
    T: DporTarget,
    F: Fn(&T::Report) -> Result<(), String>,
{
    let summary = |scratch: &Scratch<T>, item: ItemOutcome<T::Event>| {
        let children: Vec<_> = scratch
            .children
            .iter()
            .map(|child| {
                (
                    scratch.keys.key(child.key).bytes(),
                    scratch.events_of(child),
                )
            })
            .collect();
        format!("{:?} {:?} {children:?}", item.stats, item.cex)
    };
    let (reused_classes, fresh_classes) = (Mutex::default(), Mutex::default());
    let (reused_seen, fresh_seen) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut prefixes = DigestMemo::new();
    let mut reused = Scratch::new(root);
    let mut queue = vec![Vec::new()];
    let mut items = 0;
    while let Some(prefix) = queue.pop() {
        items += 1;
        let outcome = reused.process(
            root,
            check,
            &prefix,
            &reused_classes,
            &reused_seen,
            usize::MAX,
        );
        let mut fresh = Scratch::new(root);
        let expected = fresh.process(
            root,
            check,
            &prefix,
            &fresh_classes,
            &fresh_seen,
            usize::MAX,
        );
        assert_eq!(
            summary(&reused, outcome),
            summary(&fresh, expected),
            "item {items}, prefix {prefix:?}"
        );
        for child in &reused.children {
            if prefixes.insert(reused.keys.key(child.key)) {
                queue.push(reused.events_of(child));
            }
        }
    }
    items
}
