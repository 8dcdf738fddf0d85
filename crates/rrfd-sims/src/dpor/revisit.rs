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
use crate::digest::{DigestMemo, DigestWriter, StateKey};
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
    /// Enabled events at this state, in canonical (id) order; empty
    /// exactly at complete runs. The deterministic extension always
    /// applies the first.
    fn options(&self) -> Vec<Self::Event>;
    /// Enabled events that the deterministic extension would never pick
    /// and race reversal can never surface, because runs that omit them
    /// contain no inverted dependency — concretely, crashes: a maximal
    /// crash-free run has no crash event to reverse into an earlier
    /// position. The driver branches on each explicitly.
    fn alternatives(&self) -> Vec<Self::Event>;
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

/// The trace lines (`step 3`, `crash 1`, …) of one work item's events,
/// each distinct event formatted once. Keys are digests of line
/// sequences, so the class key and every child key are assembled from
/// these lines without formatting any event again.
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

    /// Digest of a sequence of interned lines, each length-prefixed: the
    /// class identity of a canonical linearization, and the dedup key of
    /// a proposed revisit prefix.
    fn key(&self, lines: impl Iterator<Item = Range<usize>> + Clone) -> StateKey {
        // Capacity only: `write_len` writes a `u64` before each line.
        let size = lines.clone().map(|line| 8 + line.len()).sum();
        let mut w = DigestWriter::with_capacity(size);
        for line in lines {
            let line = &self.text[line];
            w.write_len(line.len());
            w.write_bytes(line.as_bytes());
        }
        w.finish()
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

    let pool = StealPool::new(config.workers);
    let pool_stats = pool.run(vec![Vec::<T::Event>::new()], |prefix, spawn| {
        let item = process_item(
            root,
            check,
            &prefix,
            &class_memo,
            &classes_seen,
            max_classes,
        );
        // Failing classes spawn no children, so `item.children` is empty
        // for them; dedup proposed prefixes before they enter the pool.
        // Their keys were digested by `process_item`, outside every lock.
        let (mut revisits, mut blocked) = (0, 0);
        {
            let mut prefixes = prefix_memo.lock().expect("prefix memo poisoned");
            for (key, child) in item.children {
                if prefixes.insert(key) {
                    revisits += 1;
                    spawn.push(child);
                } else {
                    blocked += 1;
                }
            }
        }
        let mut fold = fold.lock().expect("fold mutex poisoned");
        fold.stats = fold.stats.merged(item.stats);
        fold.stats.revisits += revisits;
        fold.stats.sleep_set_blocked += blocked;
        if let Some((key, cex)) = item.cex {
            let replace = match &fold.cex {
                Some((best, _)) => key < *best,
                None => true,
            };
            if replace {
                fold.cex = Some((key, cex));
            }
        }
    });

    if classes_seen.load(Ordering::SeqCst) > max_classes {
        return Err(DporError::ClassLimit { max: max_classes });
    }
    // The pool rethrows a worker's panic, so returning here means no
    // lock was poisoned; recovering the guard is total.
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

/// Per-item outcome: effort totals, an optional keyed counterexample,
/// and the raw (not yet deduplicated) child prefixes with their keys.
struct ItemOutcome<E> {
    stats: ExploreStats,
    cex: Option<KeyedCex<E>>,
    children: Vec<(StateKey, Vec<E>)>,
}

/// Replays `prefix`, extends it deterministically to a maximal run,
/// deduplicates the resulting trace class, checks it, and derives the
/// class's revisits from its canonical linearization.
///
/// Once more than `max_classes` classes have been seen the search is
/// over: this item (and every later one) returns without children.
fn process_item<T, F>(
    root: &T,
    check: &F,
    prefix: &[T::Event],
    class_memo: &Mutex<DigestMemo>,
    classes_seen: &AtomicUsize,
    max_classes: usize,
) -> ItemOutcome<T::Event>
where
    T: DporTarget,
    F: Fn(&T::Report) -> Result<(), String>,
{
    let mut stats = ExploreStats::default();
    let out = |stats: ExploreStats, cex, children| ItemOutcome {
        stats,
        cex,
        children,
    };

    if classes_seen.load(Ordering::SeqCst) > max_classes {
        return out(stats, None, Vec::new());
    }

    // Replay the revisit prefix, recording footprints and choice indices.
    let mut state = root.clone();
    let mut graph = ExecutionGraph::new(root.n());
    let mut choices = Vec::new();
    for &event in prefix {
        let opts = state.options();
        stats.decision_points += 1;
        let Some(idx) = opts.iter().position(|&o| o == event) else {
            // The revisit construction guarantees prefixes stay enabled;
            // if that invariant ever broke, dropping the item would lose
            // coverage silently, so fail loudly instead.
            unreachable!("revisit prefix event {event:?} not enabled during replay");
        };
        choices.push(idx);
        let access = state.apply_traced(event);
        graph.push(event, T::event_pid(&event), access);
    }

    // Deterministic extension: always the first enabled option.
    loop {
        let opts = state.options();
        let Some(&event) = opts.first() else { break };
        stats.decision_points += 1;
        choices.push(0);
        let access = state.apply_traced(event);
        graph.push(event, T::event_pid(&event), access);
    }
    stats.max_depth = graph.len();

    // One representative per Mazurkiewicz class: the canonical
    // linearization's digest is the class identity.
    let canon = graph.canonical_order();
    let mut lines = EventLines::new();
    let slots: Vec<Range<usize>> = graph
        .events()
        .iter()
        .map(|e| lines.intern(e.event))
        .collect();
    let canon_lines = || canon.iter().map(|&k| slots[k].clone());
    if !class_memo
        .lock()
        .expect("class memo poisoned")
        .insert(lines.key(canon_lines()))
    {
        stats.sleep_set_blocked += 1;
        return out(stats, None, Vec::new());
    }
    stats.schedules += 1;
    stats.graphs_explored += 1;
    if classes_seen.fetch_add(1, Ordering::SeqCst) + 1 > max_classes {
        return out(stats, None, Vec::new());
    }

    if let Err(message) = check(&state.report()) {
        let class_bytes = lines.key(canon_lines()).bytes().into();
        let cex = Box::new(Counterexample {
            choices,
            schedule: ScheduleTrace::from_events(graph.events().iter().map(|e| e.event).collect()),
            message,
            stats: ExploreStats::default(), // overwritten with the fold
        });
        return out(stats, Some((class_bytes, cex)), Vec::new());
    }

    let event = |k: usize| graph.events()[k].event;
    let mut children: Vec<(StateKey, Vec<T::Event>)> = race_reversal_prefixes(&graph, &canon)
        .into_iter()
        .map(|prefix| {
            let key = lines.key(prefix.iter().map(|&k| slots[k].clone()));
            (key, prefix.into_iter().map(event).collect())
        })
        .collect();
    if T::HAS_ALTERNATIVES {
        for (len, alt) in alternative_prefixes(root, &graph, &canon) {
            let alt_line = lines.intern(alt);
            let replayed = canon[..len].iter().map(|&k| slots[k].clone());
            let key = lines.key(replayed.chain(std::iter::once(alt_line)));
            let mut child: Vec<T::Event> = canon[..len].iter().map(|&k| event(k)).collect();
            child.push(alt);
            children.push((key, child));
        }
    }
    out(stats, None, children)
}

/// Revisit prefixes from the class's reversible races, as indices into
/// the graph's events, computed in canonical coordinates: for a race
/// `(i, j)` the child is everything canonically before `i`, then the
/// events between them that do not causally depend on `i`, then `j`
/// itself — the shortest enabled prefix in which `j` happens without `i`
/// having happened.
fn race_reversal_prefixes<E: SchedEvent>(
    graph: &ExecutionGraph<E>,
    canon: &[usize],
) -> Vec<Vec<usize>> {
    let mut pos = vec![0usize; canon.len()];
    for (p, &orig) in canon.iter().enumerate() {
        pos[orig] = p;
    }
    let mut races = graph.reversible_races();
    races.sort_by_key(|&(i, j)| (pos[i], pos[j]));
    races
        .into_iter()
        .map(|(i, j)| {
            let (ci, cj) = (pos[i], pos[j]);
            debug_assert!(ci < cj, "canonical order must linearize happens-before");
            let mut prefix = canon[..ci].to_vec();
            prefix.extend(
                canon[ci + 1..cj]
                    .iter()
                    .copied()
                    .filter(|&k| !graph.hb(i, k)),
            );
            prefix.push(j);
            prefix
        })
        .collect()
}

/// Revisit prefixes from data-nondeterministic alternatives (crashes),
/// as `(len, alt)`: the first `len` canonical events, then `alt`.
/// Replays the canonical linearization and, before each position,
/// branches into every enabled alternative the deterministic extension
/// would never take. Race reversal only reorders events that *occur*; a
/// maximal run without a crash gives it nothing to reorder, so these
/// branches are what carries the search into the crashing part of the
/// schedule space.
fn alternative_prefixes<T: DporTarget>(
    root: &T,
    graph: &ExecutionGraph<T::Event>,
    canon: &[usize],
) -> Vec<(usize, T::Event)> {
    let mut children = Vec::new();
    let mut state = root.clone();
    for (len, &k) in canon.iter().enumerate() {
        children.extend(state.alternatives().into_iter().map(|alt| (len, alt)));
        state.apply_traced(graph.events()[k].event);
    }
    children
}
