//! Dynamic partial-order reduction (DPOR): the workspace's schedule
//! explorer.
//!
//! The tree walker ([`crate::explore`], kept as the reference oracle)
//! enumerates scheduler *interleavings*; most of them differ only in the
//! order of commuting steps and reach the same outcome. This module
//! rebuilds exploration around **execution graphs**: a completed run is
//! a set of events partially ordered by happens-before (program order
//! plus conflict order, tracked with vector clocks that the graph stores
//! as one flat `u64` buffer, [`ExecutionGraph::clock`]). Recording an
//! event costs O(objects·n): a conflict index keeps the latest event of
//! each process on each conflict object (cell sides, bank snapshots and
//! writes, oracle objects, semi-synchronous event classes), and the
//! latest conflicting event of each other process is both what the new
//! clock joins and the only candidate for a reversible race with it.
//! Runs with the same graph form one *Mazurkiewicz trace class* and are
//! outcome-equivalent, so the explorer visits **one representative per
//! class**:
//!
//! 1. A work item is an event-sequence *revisit prefix*. Processing it
//!    replays the prefix and extends it deterministically (always the
//!    first enabled option) to a maximal run.
//! 2. The run's class identity is the digest of its **canonical
//!    linearization** (greedy smallest-pid topological sort of
//!    happens-before). Already-seen classes are dropped — the sleep-set
//!    role, counted in [`ExploreStats::sleep_set_blocked`].
//! 3. A fresh class is checked, then expanded: every *reversible race*
//!    (adjacent-in-happens-before conflict between different processes)
//!    yields a revisit prefix that schedules the second event without
//!    the first, and — on substrates with data nondeterminism — every
//!    enabled crash the deterministic extension skipped yields a
//!    *choice* prefix. Children are derived from the canonical form, so
//!    they are a pure function of the class.
//! 4. Fresh prefixes (deduplicated again, by content) become new work
//!    items, distributed over a dependency-free work-stealing deque pool
//!    ([`StealPool`]).
//!
//! Each pool worker keeps one scratch — simulator state, graph, option,
//! order and race buffers, event lines, key bytes — and reuses it for
//! every item it processes. The simulators keep their live sets up to
//! date as processes decide and crash, so the enabled options of a
//! replayed state cost O(1) to find. An item allocates only what it hands
//! on: a key the memo did not hold yet, the event sequence of a fresh
//! child, and a fresh class's run report, which clones outputs and
//! process states but none of the simulator's shared memory or inboxes.
//!
//! Because the explored set is the closure of a pure `children`
//! function, every reported number except [`ExploreStats::steals`] and
//! the configured worker count is identical across worker counts, and
//! the counterexample — the failing class with the smallest canonical
//! key — is too. Certificates remain replayable
//! [`crate::trace::ScheduleTrace`]s, interchangeable with the tree
//! walker's output.
//!
//! DPOR never digests *states*, only event sequences — so it soundly
//! explores protocols with opaque oracle state (the k-set objects of
//! [`crate::shared_mem`]) that no state memo could identify.

pub mod graph;
pub mod pool;
mod revisit;

pub use graph::{Access, ExecEvent, ExecutionGraph};
pub use pool::{PoolStats, StealPool};
pub use revisit::DporError;

use crate::explore::ExploreStats;
use crate::semi_sync::{
    SemiEffect, SemiSyncEvent, SemiSyncExecution, SemiSyncProcess, SemiSyncReport, SemiSyncSim,
};
use crate::shared_mem::{
    MemEffect, MemEvent, MemExecution, MemProcess, MemRunReport, SharedMemSim,
};
use revisit::{drive_dpor, DporTarget};
use rrfd_core::ProcessId;
use rrfd_obs::Obs;

/// Environment variable overriding the default worker count
/// ([`DporConfig::from_env`]).
pub const WORKERS_ENV: &str = "RRFD_EXPLORE_WORKERS";

/// Configuration of a DPOR exploration.
#[derive(Debug, Clone)]
pub struct DporConfig {
    workers: usize,
    max_schedules: usize,
    obs: Obs,
}

impl DporConfig {
    /// A configuration with `workers` threads (clamped to at least one)
    /// and a 1 000 000-class guard.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        DporConfig {
            workers: workers.max(1),
            max_schedules: 1_000_000,
            obs: Obs::noop(),
        }
    }

    /// Worker count from the [`WORKERS_ENV`] environment variable,
    /// falling back to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
        DporConfig::new(workers)
    }

    /// Overrides the trace-class guard (the analogue of the tree
    /// walker's `max_runs`, counting classes instead of interleavings). A search that meets more classes than this
    /// returns [`DporError::ClassLimit`].
    #[must_use]
    pub fn max_schedules(mut self, max: usize) -> Self {
        self.max_schedules = max;
        self
    }

    /// Attaches an instrumentation handle; the folded [`ExploreStats`]
    /// of every search are recorded under the `rrfd_explore_*` metric
    /// names. The default no-op handle records nothing.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig::from_env()
    }
}

struct MemDporTarget<P: MemProcess<V>, V> {
    n: usize,
    exec: MemExecution<P, V>,
}

impl<P, V> Clone for MemDporTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    fn clone(&self) -> Self {
        MemDporTarget {
            n: self.n,
            exec: self.exec.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.exec.clone_from(&source.exec);
    }
}

impl<P, V> DporTarget for MemDporTarget<P, V>
where
    P: MemProcess<V> + Clone,
    P::Output: Clone,
    V: Clone,
{
    type Event = MemEvent;
    type Report = MemRunReport<P, V>;

    // Crash-free, mirroring `explore_schedules_checked`: the only
    // nondeterminism is scheduling order, fully covered by reversals.
    const HAS_ALTERNATIVES: bool = false;

    fn n(&self) -> usize {
        self.n
    }

    fn options(&self, into: &mut Vec<MemEvent>) {
        into.clear();
        into.extend(self.exec.runnable().iter().map(MemEvent::Step));
    }

    fn alternatives(&self, into: &mut Vec<MemEvent>) {
        into.clear();
    }

    fn apply_traced(&mut self, event: MemEvent) -> Access {
        let effect = self.exec.apply_traced(event);
        let effect = effect.unwrap_or_else(|err| {
            panic!("exploration requires clean, terminating protocols: {err:?}")
        });
        let pid = Self::event_pid(&event);
        match effect {
            MemEffect::Wrote { bank } => Access::Write {
                bank,
                owner: pid.index(),
            },
            MemEffect::ReadCell { bank, owner } => Access::Read {
                bank,
                owner: owner.index(),
            },
            MemEffect::Snapshotted { bank } => Access::Snapshot { bank },
            MemEffect::Proposed { object } => Access::Oracle { object },
            MemEffect::Decided => Access::Local,
            MemEffect::Crashed => Access::Crash,
            MemEffect::Ignored => unreachable!("DPOR only applies enabled events"),
        }
    }

    fn report(&self) -> MemRunReport<P, V> {
        self.exec.report()
    }

    fn event_pid(event: &MemEvent) -> ProcessId {
        match *event {
            MemEvent::Step(p) | MemEvent::Crash(p) => p,
        }
    }
}

struct SemiDporTarget<P: SemiSyncProcess> {
    n: usize,
    crash_budget: usize,
    exec: SemiSyncExecution<P>,
}

impl<P: SemiSyncProcess + Clone> Clone for SemiDporTarget<P> {
    fn clone(&self) -> Self {
        SemiDporTarget {
            n: self.n,
            crash_budget: self.crash_budget,
            exec: self.exec.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.crash_budget = source.crash_budget;
        self.exec.clone_from(&source.exec);
    }
}

impl<P> DporTarget for SemiDporTarget<P>
where
    P: SemiSyncProcess + Clone,
{
    type Event = SemiSyncEvent;
    type Report = SemiSyncReport<P>;

    // Crashes are data nondeterminism: a maximal crash-free run has no
    // crash event for a reversal to reposition, so each enabled crash is
    // branched on explicitly.
    const HAS_ALTERNATIVES: bool = true;

    fn n(&self) -> usize {
        self.n
    }

    /// Mirrors the sequential walker's option order: step each live
    /// process in id order, then (budget and liveness permitting) crash
    /// each.
    fn options(&self, into: &mut Vec<SemiSyncEvent>) {
        let live = self.exec.live();
        into.clear();
        into.extend(live.iter().map(SemiSyncEvent::Step));
        if self.crash_budget > 0 && live.len() > 1 {
            into.extend(live.iter().map(SemiSyncEvent::Crash));
        }
    }

    fn alternatives(&self, into: &mut Vec<SemiSyncEvent>) {
        let live = self.exec.live();
        into.clear();
        if self.crash_budget > 0 && live.len() > 1 {
            into.extend(live.iter().map(SemiSyncEvent::Crash));
        }
    }

    fn apply_traced(&mut self, event: SemiSyncEvent) -> Access {
        if let SemiSyncEvent::Crash(_) = event {
            self.crash_budget -= 1;
        }
        let effect = self.exec.apply_traced(event);
        let effect = effect.unwrap_or_else(|err| {
            panic!("exploration requires clean, terminating protocols: {err:?}")
        });
        match effect {
            SemiEffect::Crashed => Access::Crash,
            SemiEffect::Stepped {
                broadcasted: false,
                decided: false,
            } => Access::Local,
            SemiEffect::Stepped {
                broadcasted: true,
                decided: false,
            } => Access::Broadcast,
            SemiEffect::Stepped {
                broadcasted: false,
                decided: true,
            } => Access::Decide,
            SemiEffect::Stepped {
                broadcasted: true,
                decided: true,
            } => Access::BroadcastDecide,
            SemiEffect::Ignored => unreachable!("DPOR only applies enabled events"),
        }
    }

    fn report(&self) -> SemiSyncReport<P> {
        self.exec.report()
    }

    fn event_pid(event: &SemiSyncEvent) -> ProcessId {
        match *event {
            SemiSyncEvent::Step(p) | SemiSyncEvent::Crash(p) => p,
        }
    }
}

/// Explores one representative per Mazurkiewicz trace class of `sim`'s
/// crash-free schedules (the same space as
/// [`crate::explore::explore_schedules_checked`], partitioned by
/// commutation), invoking `check` on each representative run.
///
/// A violated predicate is found by this search **iff** the exhaustive
/// walk finds one — all members of a class produce the same run report —
/// and the returned certificate replays to the same violation. Requires
/// no state digests: class identity is an event-sequence digest, so
/// oracle-bearing protocols explore soundly.
///
/// # Errors
///
/// [`DporError::Counterexample`] carries the failing class with the
/// smallest canonical key (a deterministic choice, independent of worker
/// count) as a replayable certificate;
/// [`DporError::Misconfigured`] reports a process vector that does not
/// match the system size; [`DporError::ClassLimit`] reports a search
/// past [`DporConfig::max_schedules`] trace classes, whatever the worker
/// count, and takes precedence over a counterexample.
///
/// # Panics
///
/// Panics when a protocol errors mid-run (explorations require clean,
/// terminating protocols).
pub fn explore_shared_mem_dpor<V, P, G, F>(
    sim: &SharedMemSim,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError<MemEvent>>
where
    V: Clone + Send + Sync,
    P: MemProcess<V> + Clone + Send + Sync,
    P::Output: Clone + Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&MemRunReport<P, V>) -> Result<(), String> + Sync,
{
    let exec = MemExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    let root = MemDporTarget {
        n: sim.system_size().get(),
        exec,
    };
    drive_dpor(&root, &check, config)
}

/// Explores one representative per trace class of the semi-synchronous
/// schedules with up to `max_crashes` adversarially timed crashes — the
/// same space as
/// [`crate::explore::semi_sync::explore_semi_sync_checked`]. Crash
/// placements are data nondeterminism, handled by explicit choice
/// branches rather than race reversals; commuting step orders still
/// collapse into one class each.
///
/// # Errors
///
/// As [`explore_shared_mem_dpor`].
///
/// # Panics
///
/// As [`explore_shared_mem_dpor`].
pub fn explore_semi_sync_dpor<P, G, F>(
    sim: &SemiSyncSim,
    max_crashes: usize,
    make: G,
    check: F,
    config: &DporConfig,
) -> Result<ExploreStats, DporError<SemiSyncEvent>>
where
    P: SemiSyncProcess + Clone + Send + Sync,
    P::Msg: Send + Sync,
    P::Output: Send + Sync,
    G: Fn() -> Vec<P>,
    F: Fn(&SemiSyncReport<P>) -> Result<(), String> + Sync,
{
    let exec = SemiSyncExecution::start(sim, make())
        .map_err(|err| DporError::Misconfigured(err.to_string()))?;
    let root = SemiDporTarget {
        n: exec.live().len(),
        crash_budget: max_crashes,
        exec,
    };
    drive_dpor(&root, &check, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_schedules_checked;
    use crate::shared_mem::{Action, Observation};
    use crate::trace::ScheduleReplay;
    use rrfd_core::{Control, SystemSize};
    use std::sync::Arc;

    fn size(n: usize) -> SystemSize {
        SystemSize::new(n).unwrap()
    }

    /// Writes its own bank; never reads. All schedules commute: one
    /// class.
    #[derive(Debug, Clone)]
    struct LoneWriter {
        me: ProcessId,
    }

    impl MemProcess<u64> for LoneWriter {
        type Output = u64;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
            match obs {
                Observation::Start => Action::Write {
                    bank: self.me.index(),
                    value: 1,
                },
                Observation::Written => Action::Decide(7),
                other => unreachable!("{other:?}"),
            }
        }
    }

    fn writers(n: usize) -> Vec<LoneWriter> {
        (0..n)
            .map(|i| LoneWriter {
                me: ProcessId::new(i),
            })
            .collect()
    }

    /// Writes `me + 1` to bank 0, reads the other's cell, decides on it:
    /// read/write races make schedule order observable.
    #[derive(Debug, Clone)]
    struct WriteRead {
        me: ProcessId,
    }

    impl MemProcess<u64> for WriteRead {
        type Output = Option<u64>;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
            match obs {
                Observation::Start => Action::Write {
                    bank: 0,
                    value: self.me.index() as u64 + 1,
                },
                Observation::Written => Action::Read {
                    bank: 0,
                    owner: ProcessId::new(1 - self.me.index()),
                },
                Observation::Value(v) => Action::Decide(v),
                other => unreachable!("{other:?}"),
            }
        }
    }

    fn make_pair() -> Vec<WriteRead> {
        vec![
            WriteRead {
                me: ProcessId::new(0),
            },
            WriteRead {
                me: ProcessId::new(1),
            },
        ]
    }

    #[test]
    fn independent_writers_collapse_to_one_class() {
        let n = 4;
        let sim = SharedMemSim::new(size(n), n);
        let exhaustive =
            explore_schedules_checked(&sim, || writers(n), |_| Ok(()), 1_000_000).unwrap();
        let dpor =
            explore_shared_mem_dpor(&sim, || writers(n), |_| Ok(()), &DporConfig::new(1)).unwrap();
        assert!(exhaustive.schedules > 1000, "8 events over 4 processes");
        assert_eq!(dpor.schedules, 1, "fully commuting: a single trace class");
        assert_eq!(dpor.graphs_explored, 1);
        assert_eq!(dpor.revisits, 0);
    }

    #[test]
    fn racy_pair_explores_every_outcome() {
        // Collect the decision-vector outcomes both explorers can see.
        let sim = SharedMemSim::new(size(2), 1);
        let outcomes = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let collect = |report: &MemRunReport<WriteRead, u64>| {
            outcomes
                .lock()
                .unwrap()
                .insert(format!("{:?}", report.outputs));
            Ok(())
        };
        explore_shared_mem_dpor(&sim, make_pair, collect, &DporConfig::new(2)).unwrap();
        let dpor_outcomes = std::mem::take(&mut *outcomes.lock().unwrap());

        explore_schedules_checked(
            &sim,
            make_pair,
            |report| {
                outcomes
                    .lock()
                    .unwrap()
                    .insert(format!("{:?}", report.outputs));
                Ok(())
            },
            1_000_000,
        )
        .unwrap();
        let exhaustive_outcomes = std::mem::take(&mut *outcomes.lock().unwrap());
        assert_eq!(dpor_outcomes, exhaustive_outcomes);
        assert!(dpor_outcomes.len() > 1, "races must be visible");
    }

    #[test]
    fn counterexample_replays_to_the_same_violation() {
        let sim = SharedMemSim::new(size(2), 1);
        // "p0 never reads p1's write" fails in schedules where p1's
        // write lands before p0's read.
        let check = |report: &MemRunReport<WriteRead, u64>| match &report.outputs[0] {
            Some(Some(2)) => Err("p0 observed p1's write".to_owned()),
            _ => Ok(()),
        };
        let err = explore_shared_mem_dpor(&sim, make_pair, check, &DporConfig::new(2)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a counterexample");
        };
        let mut replay = ScheduleReplay::from_trace(&cex.schedule);
        let report = sim.run(make_pair(), &mut replay).unwrap();
        assert_eq!(report.outputs[0], Some(Some(2)));
        assert!(cex.stats.graphs_explored > 0);
    }

    #[test]
    fn stats_are_worker_count_independent() {
        let sim = SharedMemSim::new(size(3), 1);
        let make = || {
            (0..3)
                .map(|i| WriteReadRing {
                    me: ProcessId::new(i),
                })
                .collect::<Vec<_>>()
        };
        let project = |s: ExploreStats| {
            (
                s.schedules,
                s.decision_points,
                s.max_depth,
                s.graphs_explored,
                s.revisits,
                s.sleep_set_blocked,
                s.memo_entries,
                s.memo_bytes,
            )
        };
        let one = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap();
        let eight = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(8)).unwrap();
        assert_eq!(project(one), project(eight));
        assert_eq!(one.steals, 0, "a single worker cannot steal");
    }

    #[test]
    fn class_guard_is_a_typed_error_at_any_worker_count() {
        let sim = SharedMemSim::new(size(3), 1);
        let make = || {
            (0..3)
                .map(|i| WriteReadRing {
                    me: ProcessId::new(i),
                })
                .collect::<Vec<_>>()
        };
        let all = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap();
        assert!(all.schedules > 2, "the ring has more than two classes");
        for workers in [1, 2] {
            let config = DporConfig::new(workers).max_schedules(2);
            let err = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &config).unwrap_err();
            assert!(
                matches!(err, DporError::ClassLimit { max: 2 }),
                "{workers} workers: {err}"
            );
            // The guard is inclusive: exactly the class count passes.
            let exact = DporConfig::new(workers).max_schedules(all.schedules);
            assert!(explore_shared_mem_dpor(&sim, make, |_| Ok(()), &exact).is_ok());
        }
    }

    /// Three-process ring: write own value, read left neighbour.
    #[derive(Debug, Clone)]
    struct WriteReadRing {
        me: ProcessId,
    }

    impl MemProcess<u64> for WriteReadRing {
        type Output = Option<u64>;
        fn step(&mut self, obs: Observation<u64>) -> Action<u64, Option<u64>> {
            match obs {
                Observation::Start => Action::Write {
                    bank: 0,
                    value: self.me.index() as u64,
                },
                Observation::Written => Action::Read {
                    bank: 0,
                    owner: ProcessId::new((self.me.index() + 2) % 3),
                },
                Observation::Value(v) => Action::Decide(v),
                other => unreachable!("{other:?}"),
            }
        }
    }

    /// Semi-sync process that decides how many distinct senders it heard.
    #[derive(Debug, Clone)]
    struct Hearer {
        sent: bool,
        heard: std::collections::BTreeSet<usize>,
    }

    impl SemiSyncProcess for Hearer {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
            for (from, _) in received {
                self.heard.insert(from.index());
            }
            if self.sent {
                (None, Control::Decide(self.heard.len()))
            } else {
                self.sent = true;
                (Some(()), Control::Continue)
            }
        }
    }

    fn hearers(n: usize) -> Vec<Hearer> {
        (0..n)
            .map(|_| Hearer {
                sent: false,
                heard: std::collections::BTreeSet::new(),
            })
            .collect()
    }

    /// Fails every run in which a crash was scheduled.
    fn no_crash(report: &SemiSyncReport<Hearer>) -> Result<(), String> {
        if report.crashed.is_empty() {
            Ok(())
        } else {
            Err(format!("crashed {:?}", report.crashed))
        }
    }

    /// Fails every run in which `p0` read `p1`'s write.
    fn p0_missed(report: &MemRunReport<WriteRead, u64>) -> Result<(), String> {
        match &report.outputs[0] {
            Some(Some(2)) => Err("p0 observed p1's write".to_owned()),
            _ => Ok(()),
        }
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one_item_by_item() {
        let semi = SemiSyncSim::new(size(3));
        let root = SemiDporTarget {
            n: 3,
            crash_budget: 1,
            exec: SemiSyncExecution::start(&semi, hearers(3)).unwrap(),
        };
        let items = revisit::assert_scratch_reuse_is_invisible(&root, &no_crash);
        assert!(items > 20, "the crash closure has many items: {items}");

        // The three-process ring, failing the classes where p0 saw p2.
        let mem = SharedMemSim::new(size(3), 1);
        let ring = (0..3)
            .map(|i| WriteReadRing {
                me: ProcessId::new(i),
            })
            .collect();
        let root = MemDporTarget {
            n: 3,
            exec: MemExecution::start(&mem, ring).unwrap(),
        };
        let p0_missed_p2 = |report: &MemRunReport<WriteReadRing, u64>| match report.outputs[0] {
            Some(Some(2)) => Err("p0 observed p2's write".to_owned()),
            _ => Ok(()),
        };
        let items = revisit::assert_scratch_reuse_is_invisible(&root, &p0_missed_p2);
        assert!(items > 5, "the ring has several items: {items}");
    }

    #[test]
    fn back_to_back_explorations_match_separate_runs() {
        let semi = SemiSyncSim::new(size(3));
        let mem = SharedMemSim::new(size(2), 1);
        let config = DporConfig::new(1);
        let semi_run = || {
            format!(
                "{:?}",
                explore_semi_sync_dpor(&semi, 1, || hearers(3), no_crash, &config)
            )
        };
        let mem_run = || {
            format!(
                "{:?}",
                explore_shared_mem_dpor(&mem, make_pair, p0_missed, &config)
            )
        };
        let separate = std::thread::scope(|s| {
            let semi = s.spawn(semi_run);
            let mem = s.spawn(mem_run);
            (semi.join().unwrap(), mem.join().unwrap())
        });
        assert!(separate.0.contains("Counterexample"), "{}", separate.0);
        assert!(separate.1.contains("Counterexample"), "{}", separate.1);
        for round in 0..2 {
            assert_eq!((semi_run(), mem_run()), separate, "round {round}");
        }
    }

    #[test]
    fn semi_sync_reaches_crash_dependent_violations() {
        // With one crash allowed, some process can decide having heard
        // fewer than n-1 others; crash-free runs cannot show this for a
        // fully scheduled 2-process exchange where both broadcast before
        // either decides... the point: the violation needs a crash, so
        // only the alternative branches can reach it.
        let sim = SemiSyncSim::new(size(2));
        let check = |report: &SemiSyncReport<Hearer>| {
            if !report.crashed.is_empty() {
                Err("a crash was scheduled".to_owned())
            } else {
                Ok(())
            }
        };
        let err =
            explore_semi_sync_dpor(&sim, 1, || hearers(2), check, &DporConfig::new(2)).unwrap_err();
        let DporError::Counterexample(cex) = err else {
            panic!("expected a crash-bearing counterexample");
        };
        assert!(
            cex.schedule
                .events()
                .iter()
                .any(|e| matches!(e, SemiSyncEvent::Crash(_))),
            "certificate must contain the crash: {:?}",
            cex.schedule.events()
        );

        // And with a zero budget the same search is clean.
        let clean = explore_semi_sync_dpor(&sim, 0, || hearers(2), check, &DporConfig::new(2));
        assert!(clean.is_ok());
    }
}
