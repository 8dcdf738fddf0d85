//! The semi-synchronous model of Dolev, Dwork and Stockmeyer studied in §5.
//!
//! Model properties (paper's list, with the substitution recorded in
//! `DESIGN.md`):
//!
//! * processes are fully asynchronous (no relative speed bound) and may
//!   crash;
//! * a *step* is atomic: receive every message buffered since the last
//!   step, then (optionally) broadcast one message;
//! * communication is broadcast and **synchronous**: a message broadcast at
//!   global step `t` is delivered to every process before that process
//!   takes its next step after `t` — equivalently, a process stepping at
//!   time `t' > t` receives it in that step.
//!
//! The simulator assigns each atomic step a global sequence number; the
//! scheduler chooses who steps next and who crashes. Theorem 5.1 (2-step
//! rounds supporting the identical-views RRFD) is implemented over this
//! simulator in `rrfd-protocols::semi_sync_consensus` and stress-tested
//! against random schedules.

use rrfd_core::{Control, IdSet, ProcessId, SystemSize};
use std::fmt;
use std::sync::Arc;

/// A process in the semi-synchronous model: one atomic
/// receive-all/broadcast step at a time.
pub trait SemiSyncProcess {
    /// Broadcast message type.
    type Msg: Clone;
    /// Decision type.
    type Output: Clone;

    /// Performs one atomic step: consumes everything buffered since the
    /// last step, optionally broadcasts, and possibly decides. Decided
    /// processes keep stepping (their later decisions are ignored).
    ///
    /// Messages arrive behind [`Arc`]s: a broadcast buffers one shared
    /// payload in every inbox (`n` reference counts, one allocation), and
    /// the step borrows it — the simulator never deep-copies a message.
    fn step(
        &mut self,
        received: &[(ProcessId, Arc<Self::Msg>)],
    ) -> (Option<Self::Msg>, Control<Self::Output>);
}

/// Scheduler events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiSyncEvent {
    /// The given process takes the next atomic step.
    Step(ProcessId),
    /// The given process crashes.
    Crash(ProcessId),
}

/// The shared-state footprint one applied [`SemiSyncEvent`] left behind,
/// reported by [`SemiSyncExecution::apply_traced`].
///
/// Dependence rules for the DPOR explorer: same-process events are always
/// ordered (program order); a broadcasting step conflicts with every other
/// process's steps (all inboxes are appended to, and drain order is
/// observable); a deciding step shrinks the live set, which gates crash
/// *enabledness*, so it conflicts with crash events; crashes conflict with
/// each other through the shared crash budget. Everything else commutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiEffect {
    /// The event named a non-live process and was ignored.
    Ignored,
    /// The process crashed.
    Crashed,
    /// The process took an atomic step.
    Stepped {
        /// The step broadcast a message (appended to every inbox).
        broadcasted: bool,
        /// The step decided (left the live set).
        decided: bool,
    },
}

/// Chooses step order and crashes. Must be fair to live processes for
/// protocols to terminate.
///
/// The simulator only offers *undecided*, non-crashed processes for
/// scheduling: a decided process's remaining steps cannot affect anyone
/// (its decision is final), so never scheduling it again is equivalent to
/// it being arbitrarily slow — which plain asynchrony already allows.
pub trait SemiSyncScheduler {
    /// Picks the next event among `live` (undecided, non-crashed)
    /// processes.
    fn next_event(&mut self, live: IdSet, step: u64) -> SemiSyncEvent;
}

/// Errors from [`SemiSyncSim::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemiSyncError {
    /// Step budget exhausted before all correct processes decided.
    StepLimitExceeded {
        /// The configured limit.
        max_steps: u64,
    },
    /// The protocol vector does not match the system size.
    WrongProcessCount {
        /// Instances supplied.
        supplied: usize,
        /// System size.
        expected: usize,
    },
}

impl fmt::Display for SemiSyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiSyncError::StepLimitExceeded { max_steps } => {
                write!(f, "no full decision after {max_steps} atomic steps")
            }
            SemiSyncError::WrongProcessCount { supplied, expected } => {
                write!(
                    f,
                    "{supplied} processes supplied for a system of {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SemiSyncError {}

/// Outcome of a semi-synchronous run. Final process states are returned
/// so callers can extract protocol-internal logs (e.g. the `D(i,r)` views
/// of the §5 consensus algorithm).
#[derive(Debug, Clone)]
pub struct SemiSyncReport<P: SemiSyncProcess> {
    /// `outputs[i]` is `Some((value, steps_taken_by_i_at_decision))` once
    /// `p_i` decided; the per-process step count is the §5 complexity
    /// measure ("an algorithm that runs in 2 steps").
    pub outputs: Vec<Option<(P::Output, u64)>>,
    /// Crashed processes.
    pub crashed: IdSet,
    /// Total atomic steps executed system-wide.
    pub total_steps: u64,
    /// Final process states.
    pub processes: Vec<P>,
}

impl<P: SemiSyncProcess> SemiSyncReport<P> {
    /// `true` when every non-crashed process decided.
    #[must_use]
    pub fn all_correct_decided(&self) -> bool {
        self.outputs
            .iter()
            .enumerate()
            .all(|(i, o)| o.is_some() || self.crashed.contains(ProcessId::new(i)))
    }

    /// The maximum per-process step count among deciders — the headline
    /// number Theorem 5.1 bounds by 2.
    #[must_use]
    pub fn max_steps_to_decide(&self) -> Option<u64> {
        self.outputs
            .iter()
            .filter_map(|o| o.as_ref().map(|&(_, s)| s))
            .max()
    }
}

/// The semi-synchronous simulator.
#[derive(Debug, Clone)]
pub struct SemiSyncSim {
    n: SystemSize,
    max_steps: u64,
}

impl SemiSyncSim {
    /// Creates a simulator for `n` processes.
    #[must_use]
    pub fn new(n: SystemSize) -> Self {
        SemiSyncSim {
            n,
            max_steps: 1_000_000,
        }
    }

    /// Overrides the step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs until every correct process has decided.
    ///
    /// # Errors
    ///
    /// See [`SemiSyncError`].
    pub fn run<P, S>(
        &self,
        processes: Vec<P>,
        scheduler: &mut S,
    ) -> Result<SemiSyncReport<P>, SemiSyncError>
    where
        P: SemiSyncProcess,
        S: SemiSyncScheduler + ?Sized,
    {
        let mut exec = SemiSyncExecution::start(self, processes)?;
        loop {
            let live = exec.live();
            if live.is_empty() {
                return Ok(exec.into_report());
            }
            if exec.at_limit() {
                return Err(SemiSyncError::StepLimitExceeded {
                    max_steps: self.max_steps,
                });
            }
            let event = scheduler.next_event(live, exec.total_steps());
            exec.apply(event)?;
        }
    }
}

/// The state of one semi-synchronous run, advanced one scheduler event at
/// a time — the incremental form [`SemiSyncSim::run`] loops over, and the
/// state the DPOR explorer ([`crate::dpor`]) replays revisit prefixes on.
#[derive(Debug)]
pub struct SemiSyncExecution<P: SemiSyncProcess> {
    sim: SemiSyncSim,
    // Per-process inbox of messages not yet consumed by a step. Entries
    // are Arc-shared across inboxes, so cloning an execution at an
    // exploration decision point bumps reference counts instead of
    // deep-copying every buffered payload.
    inboxes: Vec<Vec<(ProcessId, Arc<P::Msg>)>>,
    outputs: Vec<Option<(P::Output, u64)>>,
    step_counts: Vec<u64>,
    crashed: IdSet,
    // Processes neither decided nor crashed, kept in step with `outputs`
    // and `crashed`.
    live: IdSet,
    total_steps: u64,
    events: u64,
    processes: Vec<P>,
}

impl<P> Clone for SemiSyncExecution<P>
where
    P: SemiSyncProcess + Clone,
{
    fn clone(&self) -> Self {
        SemiSyncExecution {
            sim: self.sim.clone(),
            inboxes: self.inboxes.clone(),
            outputs: self.outputs.clone(),
            step_counts: self.step_counts.clone(),
            crashed: self.crashed,
            live: self.live,
            total_steps: self.total_steps,
            events: self.events,
            processes: self.processes.clone(),
        }
    }

    /// Reuses this execution's buffers (inboxes included): the DPOR
    /// explorer resets one state per work item this way.
    fn clone_from(&mut self, source: &Self) {
        self.sim.clone_from(&source.sim);
        self.inboxes.clone_from(&source.inboxes);
        self.outputs.clone_from(&source.outputs);
        self.step_counts.clone_from(&source.step_counts);
        self.crashed = source.crashed;
        self.live = source.live;
        self.total_steps = source.total_steps;
        self.events = source.events;
        self.processes.clone_from(&source.processes);
    }
}

impl<P: SemiSyncProcess> SemiSyncExecution<P> {
    /// Begins a run of `processes` on `sim`, before any event.
    ///
    /// # Errors
    ///
    /// [`SemiSyncError::WrongProcessCount`] when the protocol vector does
    /// not match the system size.
    pub fn start(sim: &SemiSyncSim, processes: Vec<P>) -> Result<Self, SemiSyncError> {
        let n = sim.n.get();
        if processes.len() != n {
            return Err(SemiSyncError::WrongProcessCount {
                supplied: processes.len(),
                expected: n,
            });
        }
        Ok(SemiSyncExecution {
            sim: sim.clone(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            outputs: (0..n).map(|_| None).collect(),
            step_counts: vec![0u64; n],
            crashed: IdSet::empty(),
            live: IdSet::universe(sim.n),
            total_steps: 0,
            events: 0,
            processes,
        })
    }

    /// Undecided, non-crashed processes. Empty exactly when the run is
    /// complete. O(1): the set is kept up to date as processes decide and
    /// crash.
    #[must_use]
    pub fn live(&self) -> IdSet {
        self.live
    }

    /// Atomic steps executed system-wide so far.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    fn at_limit(&self) -> bool {
        let event_limit = self.sim.max_steps.saturating_mul(4).saturating_add(1024);
        self.total_steps >= self.sim.max_steps || self.events >= event_limit
    }

    /// Applies one scheduler event. Events naming a non-live process are
    /// counted but otherwise ignored, mirroring [`SemiSyncSim::run`].
    ///
    /// # Errors
    ///
    /// See [`SemiSyncError`].
    pub fn apply(&mut self, event: SemiSyncEvent) -> Result<(), SemiSyncError> {
        self.apply_traced(event).map(|_| ())
    }

    /// Applies one scheduler event and reports its shared-state footprint
    /// — the raw material of the DPOR independence relation
    /// ([`crate::dpor`]). A step that broadcasts appends to *every* inbox,
    /// so it conflicts with every other process's steps; a silent step
    /// touches only its own inbox and protocol state; a crash flips one
    /// liveness flag (broadcasts keep appending to crashed inboxes, so a
    /// crash commutes with other processes' steps).
    ///
    /// # Errors
    ///
    /// See [`SemiSyncError`].
    pub fn apply_traced(&mut self, event: SemiSyncEvent) -> Result<SemiEffect, SemiSyncError> {
        if self.at_limit() {
            return Err(SemiSyncError::StepLimitExceeded {
                max_steps: self.sim.max_steps,
            });
        }
        self.events += 1;
        match event {
            SemiSyncEvent::Crash(p) => {
                if self.live.remove(p) {
                    self.crashed.insert(p);
                    Ok(SemiEffect::Crashed)
                } else {
                    Ok(SemiEffect::Ignored)
                }
            }
            SemiSyncEvent::Step(p) => {
                if !self.live.contains(p) {
                    return Ok(SemiEffect::Ignored);
                }
                self.total_steps += 1;
                self.step_counts[p.index()] += 1;
                // The step reads its inbox in place; the inbox is emptied
                // before this step's own broadcast is appended to it.
                let inbox = &mut self.inboxes[p.index()];
                let (broadcast, verdict) = self.processes[p.index()].step(inbox);
                inbox.clear();
                let broadcasted = broadcast.is_some();
                if let Some(broadcast) = broadcast {
                    // Synchronous communication: buffered everywhere at
                    // once; consumed at each recipient's next step. One
                    // allocation, n reference counts.
                    let shared = Arc::new(broadcast);
                    for inbox in &mut self.inboxes {
                        inbox.push((p, Arc::clone(&shared)));
                    }
                }
                let mut decided = false;
                if let Control::Decide(v) = verdict {
                    let count = self.step_counts[p.index()];
                    self.outputs[p.index()].get_or_insert((v, count));
                    self.live.remove(p);
                    decided = true;
                }
                Ok(SemiEffect::Stepped {
                    broadcasted,
                    decided,
                })
            }
        }
    }

    /// Packages the current state as a run report — typically called once
    /// [`SemiSyncExecution::live`] is empty.
    #[must_use]
    pub fn into_report(self) -> SemiSyncReport<P> {
        SemiSyncReport {
            outputs: self.outputs,
            crashed: self.crashed,
            total_steps: self.total_steps,
            processes: self.processes,
        }
    }
}

impl<P: SemiSyncProcess + Clone> SemiSyncExecution<P> {
    /// The run report of the current state, leaving the execution in
    /// place: clones only what a report holds (outputs with their step
    /// counts, crashed set, total steps and process states), not the
    /// inboxes.
    #[must_use]
    pub fn report(&self) -> SemiSyncReport<P> {
        SemiSyncReport {
            outputs: self.outputs.clone(),
            crashed: self.crashed,
            total_steps: self.total_steps,
            processes: self.processes.clone(),
        }
    }
}

/// Round-robin fair scheduler without crashes.
#[derive(Debug, Clone, Default)]
pub struct FairSemiSync {
    cursor: usize,
}

impl FairSemiSync {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        FairSemiSync { cursor: 0 }
    }
}

impl SemiSyncScheduler for FairSemiSync {
    fn next_event(&mut self, live: IdSet, _step: u64) -> SemiSyncEvent {
        let ids: Vec<ProcessId> = live.iter().collect();
        let pick = ids
            .iter()
            .copied()
            .find(|p| p.index() >= self.cursor)
            .unwrap_or(ids[0]);
        self.cursor = pick.index() + 1;
        SemiSyncEvent::Step(pick)
    }
}

/// Seeded random scheduler with a crash budget. All but one process may
/// crash (the §5 model's resilience); the budget is the caller's choice.
#[derive(Debug, Clone)]
pub struct RandomSemiSync {
    rng: rand::rngs::StdRng,
    crash_budget: usize,
    crash_prob: f64,
}

impl RandomSemiSync {
    /// Creates a scheduler with up to `max_crashes` crashes.
    #[must_use]
    pub fn new(seed: u64, max_crashes: usize) -> Self {
        use rand::SeedableRng;
        RandomSemiSync {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            crash_budget: max_crashes,
            crash_prob: 0.02,
        }
    }

    /// Overrides the per-event crash probability (default 2%).
    #[must_use]
    pub fn crash_prob(mut self, p: f64) -> Self {
        self.crash_prob = p;
        self
    }
}

impl SemiSyncScheduler for RandomSemiSync {
    fn next_event(&mut self, live: IdSet, _step: u64) -> SemiSyncEvent {
        use rand::seq::IteratorRandom;
        use rand::Rng;
        let pick = live
            .iter()
            .choose(&mut self.rng)
            .expect("simulator guarantees live is non-empty");
        if self.crash_budget > 0 && live.len() > 1 && self.rng.gen_bool(self.crash_prob) {
            self.crash_budget -= 1;
            SemiSyncEvent::Crash(pick)
        } else {
            SemiSyncEvent::Step(pick)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: usize) -> SystemSize {
        SystemSize::new(v).unwrap()
    }

    /// Broadcasts once; decides on the set of distinct senders seen in its
    /// first `budget` steps.
    #[derive(Debug, Clone)]
    struct Listen {
        budget: u64,
        steps: u64,
        heard: IdSet,
        sent: bool,
    }

    impl Listen {
        fn new(budget: u64) -> Self {
            Listen {
                budget,
                steps: 0,
                heard: IdSet::empty(),
                sent: false,
            }
        }
    }

    impl SemiSyncProcess for Listen {
        type Msg = ();
        type Output = usize;
        fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
            self.steps += 1;
            for &(from, _) in received {
                self.heard.insert(from);
            }
            let msg = if self.sent {
                None
            } else {
                self.sent = true;
                Some(())
            };
            if self.steps >= self.budget {
                (msg, Control::Decide(self.heard.len()))
            } else {
                (msg, Control::Continue)
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_by_their_next_step() {
        let size = n(4);
        // Everyone listens for 2 steps: first step broadcasts, second step
        // must have received every first-step broadcast that happened
        // earlier — under round-robin everyone hears everyone.
        let procs: Vec<_> = (0..4).map(|_| Listen::new(2)).collect();
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairSemiSync::new())
            .unwrap();
        assert!(report.all_correct_decided());
        for out in &report.outputs {
            assert_eq!(out.as_ref().unwrap().0, 4);
        }
        assert_eq!(report.max_steps_to_decide(), Some(2));
    }

    #[test]
    fn own_broadcast_is_delivered_to_self() {
        let size = n(1);
        let procs = vec![Listen::new(2)];
        let report = SemiSyncSim::new(size)
            .run(procs, &mut FairSemiSync::new())
            .unwrap();
        assert_eq!(report.outputs[0].as_ref().unwrap().0, 1);
    }

    #[test]
    fn random_schedules_with_crashes_terminate() {
        let size = n(5);
        for seed in 0..20u64 {
            let procs: Vec<_> = (0..5).map(|_| Listen::new(3)).collect();
            let mut sched = RandomSemiSync::new(seed, 4);
            let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
            assert!(report.all_correct_decided(), "seed {seed}");
            assert!(report.crashed.len() <= 4);
        }
    }

    #[test]
    fn crashed_process_stops_stepping() {
        let size = n(2);

        struct CrashThenFair {
            crashed: bool,
            inner: FairSemiSync,
        }
        impl SemiSyncScheduler for CrashThenFair {
            fn next_event(&mut self, live: IdSet, step: u64) -> SemiSyncEvent {
                if !self.crashed {
                    self.crashed = true;
                    return SemiSyncEvent::Crash(ProcessId::new(1));
                }
                self.inner.next_event(live, step)
            }
        }

        let procs: Vec<_> = (0..2).map(|_| Listen::new(2)).collect();
        let mut sched = CrashThenFair {
            crashed: false,
            inner: FairSemiSync::new(),
        };
        let report = SemiSyncSim::new(size).run(procs, &mut sched).unwrap();
        assert!(report.crashed.contains(ProcessId::new(1)));
        assert!(report.outputs[1].is_none());
        // p0 only ever hears itself.
        assert_eq!(report.outputs[0].as_ref().unwrap().0, 1);
    }

    #[test]
    fn step_limit_is_enforced() {
        let size = n(2);
        let procs: Vec<_> = (0..2).map(|_| Listen::new(1_000_000)).collect();
        let err = SemiSyncSim::new(size)
            .max_steps(100)
            .run(procs, &mut FairSemiSync::new())
            .unwrap_err();
        assert_eq!(err, SemiSyncError::StepLimitExceeded { max_steps: 100 });
    }

    /// The live set by definition: undecided and not crashed.
    fn undecided_and_alive<P: SemiSyncProcess>(exec: &SemiSyncExecution<P>) -> IdSet {
        (0..exec.sim.n.get())
            .map(ProcessId::new)
            .filter(|&p| exec.outputs[p.index()].is_none() && !exec.crashed.contains(p))
            .collect()
    }

    #[test]
    fn liveness_matches_the_definition_on_random_schedules() {
        use rand::{Rng, SeedableRng};
        const SIZE: usize = 6;
        let sim = SemiSyncSim::new(n(SIZE));
        let start = |seed: u64| {
            let procs = (0..SIZE as u64)
                .map(|me| Listen::new(1 + (seed + me) % 4))
                .collect();
            SemiSyncExecution::start(&sim, procs).unwrap()
        };
        let (mut decided, mut crashed) = (0, 0);
        for seed in 0..50 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut exec = start(seed);
            // Reset from `exec` after every event; it starts elsewhere.
            let mut copy = start(seed + 1);
            copy.apply(SemiSyncEvent::Crash(ProcessId::new(0))).unwrap();
            while !exec.live().is_empty() {
                // Any process, live or not: the others are ignored.
                let p = ProcessId::new(rng.gen_range(0..SIZE));
                let event = if rng.gen_bool(0.1) {
                    SemiSyncEvent::Crash(p)
                } else {
                    SemiSyncEvent::Step(p)
                };
                exec.apply(event).unwrap();
                let expected = undecided_and_alive(&exec);
                assert_eq!(exec.live(), expected, "seed {seed}, {event:?}");
                copy.clone_from(&exec);
                assert_eq!(copy.live(), expected, "seed {seed}, clone_from");
                assert_eq!(undecided_and_alive(&copy), expected);
            }
            decided += exec.outputs.iter().flatten().count();
            crashed += exec.crashed.len();
        }
        assert!(
            decided > 50 && crashed > 50,
            "{decided} decided, {crashed} crashed"
        );
    }
}
