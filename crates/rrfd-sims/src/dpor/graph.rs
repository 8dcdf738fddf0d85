//! Execution graphs: events, access footprints, happens-before, and the
//! canonical linearization of a Mazurkiewicz trace class.
//!
//! One complete run of a simulator is recorded as a sequence of events,
//! each carrying the shared-state footprint ([`Access`]) its application
//! reported and a vector clock positioning it in the happens-before
//! partial order. The clocks of all events live in one flat buffer, so
//! recording an event allocates nothing once the graph has grown to a
//! run's length, and [`ExecutionGraph::clear`] keeps that capacity for
//! the next run. Two events *conflict* when swapping them can change the
//! run's outcome; happens-before is the transitive closure of program
//! order and conflict order. Everything the DPOR driver derives from a
//! run — the class identity, the race list, the revisit prefixes — is
//! computed from this partial order, never from the incidental order in
//! which the run happened to be executed. That makes the derived data a
//! pure function of the trace class, which is what keeps the exploration
//! deterministic across worker counts.
//!
//! Conflicts are found through a *conflict index* instead of a scan of
//! earlier events. Every footprint is published to one or two conflict
//! objects — a cell's read or write side, a bank's snapshots or writes,
//! an oracle object, a semi-synchronous event class — and joins the
//! objects holding the events it conflicts with. The index keeps the
//! latest event of each process on each object, so recording an event
//! finds the latest conflicting event of every other process in
//! O(objects·n), and those are also the only candidates for a reversible
//! race with it.

use crate::trace::SchedEvent;
use rrfd_core::ProcessId;
use std::fmt;

/// The shared-state footprint of one applied event, unified across the
/// shared-memory and semi-synchronous substrates. The conflict relation
/// over footprints ([`Access::conflicts`]) is exactly what the DPOR
/// equivalence proof needs: two adjacent events of different processes
/// with non-conflicting footprints commute — applying them in either
/// order reaches the same state and enables the same continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Purely process-local step: a shared-memory decision, or a
    /// semi-synchronous step that neither broadcast nor decided (it only
    /// drained its own inbox).
    Local,
    /// Wrote the single-writer cell `(bank, owner)`.
    Write {
        /// Bank written.
        bank: usize,
        /// Cell owner (always the writer — cells are single-writer).
        owner: usize,
    },
    /// Read the cell `(bank, owner)`.
    Read {
        /// Bank read.
        bank: usize,
        /// Owner of the cell read.
        owner: usize,
    },
    /// Atomically read every cell of `bank`.
    Snapshot {
        /// Bank snapshotted.
        bank: usize,
    },
    /// Proposed to the k-set-consensus oracle `object` (the oracle
    /// adjudicates first-come-first-served, so proposal order matters).
    Oracle {
        /// Oracle object index.
        object: usize,
    },
    /// Semi-synchronous step that broadcast a message (appended to every
    /// process's inbox, crashed or not).
    Broadcast,
    /// Semi-synchronous step that decided without broadcasting (shrinks
    /// the live set, which gates crash enabledness).
    Decide,
    /// Semi-synchronous step that broadcast *and* decided.
    BroadcastDecide,
    /// A crash (consumes the shared crash budget and shrinks the live
    /// set).
    Crash,
}

impl Access {
    /// Whether two footprints of **different** processes conflict, i.e.
    /// whether swapping two adjacent events carrying them can change the
    /// reachable state or the enabled event set. Same-process events are
    /// always ordered by program order and must not be passed here.
    ///
    /// The rules, substrate by substrate:
    ///
    /// * shared memory — cells are single-writer, so writes never
    ///   conflict with writes; a write conflicts with a read of the same
    ///   cell and with a snapshot of its bank; oracle proposals to the
    ///   same object conflict (first proposal wins adoption races).
    /// * semi-synchronous — a broadcast appends to *every* inbox, so it
    ///   conflicts with every other step (the other step's drain sees a
    ///   different inbox depending on order); two crashes share the
    ///   budget; a crash conflicts with a *deciding* step because the
    ///   live-set size gates crash enabledness (`live > 1`); a crash
    ///   commutes with silent and broadcasting non-deciding steps —
    ///   broadcasts reach crashed inboxes anyway.
    #[must_use]
    pub fn conflicts(self, other: Access) -> bool {
        use Access::{
            Broadcast, BroadcastDecide, Crash, Decide, Local, Oracle, Read, Snapshot, Write,
        };
        match (self, other) {
            // Shared memory.
            (
                Write {
                    bank: wb,
                    owner: wo,
                },
                Read {
                    bank: rb,
                    owner: ro,
                },
            )
            | (
                Read {
                    bank: rb,
                    owner: ro,
                },
                Write {
                    bank: wb,
                    owner: wo,
                },
            ) => wb == rb && wo == ro,
            (Write { bank: wb, .. }, Snapshot { bank: sb })
            | (Snapshot { bank: sb }, Write { bank: wb, .. }) => wb == sb,
            (Oracle { object: a }, Oracle { object: b }) => a == b,
            // Semi-synchronous: broadcasts order every inbox.
            (Broadcast | BroadcastDecide, Local | Broadcast | Decide | BroadcastDecide)
            | (Local | Decide, Broadcast | BroadcastDecide) => true,
            // Crashes: budget and live-set interplay.
            (Crash, Crash) => true,
            (Crash, Decide | BroadcastDecide) | (Decide | BroadcastDecide, Crash) => true,
            _ => false,
        }
    }

    /// The conflict-index table: the objects an event with this footprint
    /// joins, and the objects it is published to. `a.conflicts(b)` holds
    /// exactly when `a` joins an object `b` is published to (and, the
    /// relation being symmetric, the other way round).
    fn objects(self) -> Objects {
        use Access::{
            Broadcast, BroadcastDecide, Crash, Decide, Local, Oracle, Read, Snapshot, Write,
        };
        // The five semi-synchronous event classes.
        const L: Object = Object { family: 0, row: 0 };
        const B: Object = Object { family: 0, row: 1 };
        const D: Object = Object { family: 0, row: 2 };
        const BD: Object = Object { family: 0, row: 3 };
        const C: Object = Object { family: 0, row: 4 };
        match self {
            Write { bank, owner } => Objects::new(
                &[Object::cell_reads(bank, owner), Object::snapshots(bank)],
                &[Object::cell_writes(bank, owner), Object::bank_writes(bank)],
            ),
            Read { bank, owner } => Objects::new(
                &[Object::cell_writes(bank, owner)],
                &[Object::cell_reads(bank, owner)],
            ),
            Snapshot { bank } => {
                Objects::new(&[Object::bank_writes(bank)], &[Object::snapshots(bank)])
            }
            Oracle { object } => Objects::new(&[Object::oracle(object)], &[Object::oracle(object)]),
            Local => Objects::new(&[B, BD], &[L]),
            Broadcast => Objects::new(&[L, B, D, BD], &[B]),
            Decide => Objects::new(&[B, BD, C], &[D]),
            BroadcastDecide => Objects::new(&[L, B, D, BD, C], &[BD]),
            Crash => Objects::new(&[D, BD, C], &[C]),
        }
    }
}

/// A conflict object, addressed by the row that holds it in the
/// [`ConflictIndex`]: family 0 holds the five semi-synchronous event
/// classes (`Local`, `Broadcast`, `Decide`, `BroadcastDecide`, `Crash`),
/// family 1 the oracle objects, family 2 each bank's snapshots and
/// writes, and family `3 + bank` each cell of `bank`, read side then
/// write side. Rows are dense in the bank, owner and object ids, which
/// the simulators draw from their own cell and oracle vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Object {
    family: usize,
    row: usize,
}

impl Object {
    fn oracle(object: usize) -> Object {
        Object {
            family: 1,
            row: object,
        }
    }

    fn snapshots(bank: usize) -> Object {
        Object {
            family: 2,
            row: bank.saturating_mul(2),
        }
    }

    fn bank_writes(bank: usize) -> Object {
        Object {
            family: 2,
            row: bank.saturating_mul(2).saturating_add(1),
        }
    }

    fn cell_reads(bank: usize, owner: usize) -> Object {
        Object {
            family: bank.saturating_add(3),
            row: owner.saturating_mul(2),
        }
    }

    fn cell_writes(bank: usize, owner: usize) -> Object {
        Object {
            family: bank.saturating_add(3),
            row: owner.saturating_mul(2).saturating_add(1),
        }
    }
}

/// One row of [`Access::objects`]: at most five objects joined and two
/// published to.
#[derive(Debug, Clone, Copy)]
struct Objects {
    joined: [Object; 5],
    joins: usize,
    published: [Object; 2],
    publishes: usize,
}

impl Objects {
    fn new(joined: &[Object], published: &[Object]) -> Objects {
        const UNUSED: Object = Object { family: 0, row: 0 };
        let (joins, publishes) = (joined.len().min(5), published.len().min(2));
        let mut objects = Objects {
            joined: [UNUSED; 5],
            joins,
            published: [UNUSED; 2],
            publishes,
        };
        objects.joined[..joins].copy_from_slice(&joined[..joins]);
        objects.published[..publishes].copy_from_slice(&published[..publishes]);
        objects
    }

    fn joined(&self) -> &[Object] {
        &self.joined[..self.joins]
    }

    fn published(&self) -> &[Object] {
        &self.published[..self.publishes]
    }
}

/// The latest event of each process on each conflict object, as rows of
/// `n + 1` slots: slot `q < n` of an object's row is one plus the index
/// of the latest event of process `q` published to it, and slot `n` the
/// same for the latest event of any process; 0 when there is none. Slot
/// `n` lets a lookup skip an object no event was published to.
#[derive(Debug, Clone, Default)]
struct ConflictIndex {
    families: Vec<Vec<usize>>,
}

impl ConflictIndex {
    /// The per-process slots of `object`, if any event was published to
    /// it.
    fn row(&self, object: Object, n: usize) -> Option<&[usize]> {
        let start = object.row.checked_mul(n + 1)?;
        let row = self
            .families
            .get(object.family)?
            .get(start..start.checked_add(n + 1)?)?;
        let (&any, row) = row.split_last()?;
        (any != 0).then_some(row)
    }

    /// Records event `k` of process `q` as the latest of `q` on `object`.
    /// Sizes saturate, so an id too large to address fails the
    /// allocation instead of wrapping onto another object's row.
    fn publish(&mut self, object: Object, n: usize, q: usize, k: usize) {
        if self.families.len() <= object.family {
            self.families
                .resize_with(object.family.saturating_add(1), Vec::new);
        }
        let family = &mut self.families[object.family];
        let start = object.row.saturating_mul(n + 1);
        let end = start.saturating_add(n + 1);
        if family.len() < end {
            family.resize(end, 0);
        }
        family[start + q] = k + 1;
        family[start + n] = k + 1;
    }

    /// Forgets every event, keeping the rows allocated.
    fn clear(&mut self) {
        for family in &mut self.families {
            family.fill(0);
        }
    }
}

/// One event of a recorded execution: the scheduler event itself, the
/// process it names, the footprint its application reported, and its
/// position in its process's program order. Its vector clock is
/// [`ExecutionGraph::clock`].
#[derive(Debug, Clone)]
pub struct ExecEvent<E> {
    /// The scheduler event, replayable through the simulator.
    pub event: E,
    /// The process the event names.
    pub pid: ProcessId,
    /// The shared-state footprint the application reported.
    pub access: Access,
    /// Position of this event in its process's program order, from 1 —
    /// equal to component `pid` of its clock.
    pub seq: u64,
}

/// A recorded execution with its happens-before order, built
/// incrementally as events are applied.
#[derive(Debug, Clone)]
pub struct ExecutionGraph<E> {
    n: usize,
    events: Vec<ExecEvent<E>>,
    /// Vector clocks, `n` components per event: `clocks[k * n..][..n]`
    /// is the clock of event `k`.
    clocks: Vec<u64>,
    /// Event indices of each process in program order: `chains[p][s - 1]`
    /// is the event of `p` with `seq == s`.
    chains: Vec<Vec<usize>>,
    /// The latest conflicting event of each other process at the time
    /// each event was recorded, `n` slots per event like `clocks`: one
    /// plus its index, 0 when there is none.
    latest_conflicts: Vec<usize>,
    index: ConflictIndex,
}

impl<E: SchedEvent> ExecutionGraph<E> {
    /// An empty graph over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ExecutionGraph {
            n,
            events: Vec::new(),
            clocks: Vec::new(),
            chains: vec![Vec::new(); n],
            latest_conflicts: Vec::new(),
            index: ConflictIndex::default(),
        }
    }

    /// Removes every event, keeping the allocated capacity for the next
    /// run over the same processes.
    pub fn clear(&mut self) {
        self.events.clear();
        self.clocks.clear();
        for chain in &mut self.chains {
            chain.clear();
        }
        self.latest_conflicts.clear();
        self.index.clear();
    }

    /// The recorded events, in execution order.
    #[must_use]
    pub fn events(&self) -> &[ExecEvent<E>] {
        &self.events
    }

    /// The vector clock of event `k`: component `q` counts the events of
    /// process `q` in its causal past, itself included, so event `i`
    /// happens-before event `j` (or `i == j`) iff `clock(i) ≤ clock(j)`
    /// componentwise.
    ///
    /// # Panics
    ///
    /// When `k` is not an event index.
    #[must_use]
    pub fn clock(&self, k: usize) -> &[u64] {
        &self.clocks[k * self.n..(k + 1) * self.n]
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records an applied event. Its clock is the join of the process's
    /// program-order predecessor and every earlier conflicting event,
    /// ticked at `pid` — so componentwise `≤` between clocks decides
    /// happens-before.
    ///
    /// Only the latest conflicting event of each other process is joined:
    /// an earlier one precedes it in program order, so its clock is
    /// already below. The conflict index hands over exactly those events,
    /// the latest of each process on every object the footprint joins, in
    /// O(objects·n); one the clock already covers is not joined again.
    ///
    /// # Panics
    ///
    /// When `pid` is not below [`ExecutionGraph::n`], or a bank, owner or
    /// oracle id is too large for its row of the conflict index to be
    /// allocated (the index is dense in those ids).
    pub fn push(&mut self, event: E, pid: ProcessId, access: Access) {
        let (n, p) = (self.n, pid.index());
        let (k, at) = (self.events.len(), self.clocks.len());
        match self.chains[p].last() {
            Some(&last) => self.clocks.extend_from_within(last * n..(last + 1) * n),
            None => self.clocks.resize(at + n, 0),
        }
        self.latest_conflicts.resize(at + n, 0);
        let latest = &mut self.latest_conflicts[at..];
        let objects = access.objects();
        for row in objects
            .joined()
            .iter()
            .filter_map(|&o| self.index.row(o, n))
        {
            for (mine, &theirs) in latest.iter_mut().zip(row) {
                *mine = (*mine).max(theirs);
            }
        }
        // Own earlier events are program order, not conflicts.
        latest[p] = 0;
        let (prior_clocks, clock) = self.clocks.split_at_mut(at);
        for (q, &slot) in latest.iter().enumerate() {
            let Some(i) = slot.checked_sub(1) else {
                continue;
            };
            if self.events[i].seq > clock[q] {
                for (mine, &theirs) in clock.iter_mut().zip(&prior_clocks[i * n..(i + 1) * n]) {
                    *mine = (*mine).max(theirs);
                }
            }
        }
        clock[p] += 1;
        let seq = clock[p];
        for &object in objects.published() {
            self.index.publish(object, n, p, k);
        }
        self.chains[p].push(k);
        self.events.push(ExecEvent {
            event,
            pid,
            access,
            seq,
        });
    }

    /// Whether event `i` happens-before event `j` (strict: `false` when
    /// `i == j`). O(1): `j`'s clock counts the events of `i`'s process in
    /// its causal past, and those are exactly that process's first
    /// `clock_j[pid_i]` events.
    #[must_use]
    pub fn hb(&self, i: usize, j: usize) -> bool {
        let a = &self.events[i];
        i != j && self.clocks[j * self.n + a.pid.index()] >= a.seq
    }

    /// Writes the canonical linearization of this run's trace class into
    /// `order` (replacing its contents): a greedy topological sort of
    /// happens-before that always emits the hb-available event of the
    /// smallest process id. `emitted` is scratch space for the per-process
    /// frontier; both buffers are only reused, never retained.
    ///
    /// Program order makes each process a chain, so only the head of a
    /// process (its first event not yet emitted) can be available. The
    /// events of `q` that happen before the head `h` are `q`'s first
    /// `clock_h[q]` events, so `h` is available exactly when every other
    /// process `q` has emitted at least `clock_h[q]` events. Some head is
    /// always available — the earliest unemitted event in execution order
    /// has every hb-predecessor emitted — so the loop emits every event.
    /// Cost O(len·n²).
    ///
    /// Two runs in the same Mazurkiewicz class have the same event set
    /// and the same happens-before order, hence the same canonical
    /// linearization — its digest identifies the class, and data derived
    /// from it is a pure function of the class.
    pub fn canonical_order(&self, order: &mut Vec<usize>, emitted: &mut Vec<usize>) {
        order.clear();
        emitted.clear();
        emitted.resize(self.n, 0);
        let ready_head = |p: usize, emitted: &[usize]| {
            let head = *self.chains[p].get(emitted[p])?;
            let clock = self.clock(head);
            (0..self.n)
                .all(|q| q == p || clock[q] <= emitted[q] as u64)
                .then_some(head)
        };
        while let Some((p, head)) =
            (0..self.n).find_map(|p| ready_head(p, emitted).map(|head| (p, head)))
        {
            emitted[p] += 1;
            order.push(head);
        }
    }

    /// Writes the reversible races of this run into `races` (replacing
    /// its contents), as index pairs `(i, j)` into
    /// [`ExecutionGraph::events`]: conflicting events of different
    /// processes with `i` happens-before `j` and no third event between
    /// them in the order (`i →hb k →hb j`). Reversing such a pair is the
    /// smallest perturbation that reaches a different trace class; races
    /// with an intermediary are reached transitively by reversing the
    /// smaller races first.
    ///
    /// The definition mentions only the partial order, so the race list
    /// is the same for every linearization of the class. Pairs are listed
    /// by `i`, then `j`.
    ///
    /// The candidates for `j` are the ≤ n − 1 events [`ExecutionGraph::push`]
    /// found as the latest conflicting event of each other process: each
    /// happens before `j`, and an earlier conflicting event `i'` of the
    /// same process is mediated by the latest one (`i' →hb i →hb j`). So
    /// each event costs at most n − 1 O(n) mediation tests.
    pub fn reversible_races(&self, races: &mut Vec<(usize, usize)>) {
        races.clear();
        for (j, latest) in self
            .latest_conflicts
            .chunks_exact(self.n.max(1))
            .enumerate()
        {
            races.extend(
                latest
                    .iter()
                    .filter_map(|&slot| slot.checked_sub(1))
                    .filter(|&i| !self.mediated(i, j))
                    .map(|i| (i, j)),
            );
        }
        races.sort_unstable();
    }

    /// Whether some event `k` has `i →hb k →hb j`. Every such `k` is at
    /// or before, in program order, the latest event its process has in
    /// `j`'s strict causal past, and `i` happens before that one too
    /// (`hb` is strict, so the latest event being `i` itself does not
    /// count). So only those ≤ n latest events are tested: O(n).
    fn mediated(&self, i: usize, j: usize) -> bool {
        let own = self.events[j].pid.index();
        let clock = self.clock(j);
        self.chains.iter().enumerate().any(|(q, chain)| {
            // q's latest event in j's strict causal past, if any.
            let past = clock[q] as usize - usize::from(q == own);
            let Some(&k) = past.checked_sub(1).and_then(|s| chain.get(s)) else {
                return false;
            };
            self.hb(i, k)
        })
    }

    /// The process count this graph was built over.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Adapter rendering a [`SchedEvent`] through its trace encoding
/// (`step 3`, `crash 1`, …) so event sequences can be digested and
/// debugged with the same bytes the `.sched` format uses.
pub struct EventLine<E: SchedEvent>(pub E);

impl<E: SchedEvent> fmt::Display for EventLine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_event(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semi_sync::SemiSyncEvent;
    use crate::shared_mem::MemEvent;
    use rrfd_core::hb::VectorClock;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn canonical_order<E: SchedEvent>(g: &ExecutionGraph<E>) -> Vec<usize> {
        let mut order = Vec::new();
        g.canonical_order(&mut order, &mut Vec::new());
        order
    }

    fn reversible_races<E: SchedEvent>(g: &ExecutionGraph<E>) -> Vec<(usize, usize)> {
        let mut races = Vec::new();
        g.reversible_races(&mut races);
        races
    }

    /// Reference clocks, built the direct way: each event joins its
    /// program-order predecessor and *every* earlier conflicting event of
    /// another process.
    fn reference_clocks<E: SchedEvent>(g: &ExecutionGraph<E>) -> Vec<VectorClock> {
        let mut clocks: Vec<VectorClock> = Vec::new();
        for (j, b) in g.events().iter().enumerate() {
            let mut clock = VectorClock::zero(g.n());
            for (i, a) in g.events()[..j].iter().enumerate() {
                if a.pid == b.pid || a.access.conflicts(b.access) {
                    clock.join(&clocks[i]);
                }
            }
            clock.tick(b.pid.index());
            clocks.push(clock);
        }
        clocks
    }

    /// Reference happens-before: whole-clock comparison.
    fn reference_hb(clocks: &[VectorClock], i: usize, j: usize) -> bool {
        i != j && clocks[i].le(&clocks[j])
    }

    /// Reference canonical order: repeatedly scan every event for the
    /// hb-available one of smallest pid. O(len³·n).
    fn reference_canonical_order<E: SchedEvent>(g: &ExecutionGraph<E>) -> Vec<usize> {
        let clocks = reference_clocks(g);
        let len = g.len();
        let mut emitted = vec![false; len];
        let mut order = Vec::with_capacity(len);
        for _ in 0..len {
            let mut best: Option<usize> = None;
            for j in 0..len {
                if emitted[j] {
                    continue;
                }
                let ready = (0..len).all(|i| emitted[i] || !reference_hb(&clocks, i, j));
                if !ready {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bp, jp) = (g.events()[b].pid.index(), g.events()[j].pid.index());
                        jp < bp || (jp == bp && j < b)
                    }
                };
                if better {
                    best = Some(j);
                }
            }
            let next = best.expect("happens-before must stay acyclic");
            emitted[next] = true;
            order.push(next);
        }
        order
    }

    /// Reference race list: every mediator `k` is tried. O(len³·n).
    fn reference_reversible_races<E: SchedEvent>(g: &ExecutionGraph<E>) -> Vec<(usize, usize)> {
        let clocks = reference_clocks(g);
        let hb = |i, j| reference_hb(&clocks, i, j);
        let len = g.len();
        let mut races = Vec::new();
        for i in 0..len {
            for j in 0..len {
                if i == j
                    || g.events()[i].pid == g.events()[j].pid
                    || !g.events()[i].access.conflicts(g.events()[j].access)
                    || !hb(i, j)
                {
                    continue;
                }
                let mediated = (0..len).any(|k| k != i && k != j && hb(i, k) && hb(k, j));
                if !mediated {
                    races.push((i, j));
                }
            }
        }
        races
    }

    /// SplitMix64: a seeded, dependency-free generator for the random
    /// graphs below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// A footprint of the shared-memory substrate for process `p`, over
    /// `ids` banks and `ids` oracle objects.
    fn mem_access(rng: &mut SplitMix, n: usize, p: usize, ids: usize) -> Access {
        match rng.below(6) {
            0 => Access::Local,
            1 => Access::Write {
                bank: rng.below(ids),
                owner: p,
            },
            2 => Access::Read {
                bank: rng.below(ids),
                owner: rng.below(n),
            },
            3 => Access::Snapshot {
                bank: rng.below(ids),
            },
            4 => Access::Oracle {
                object: rng.below(ids),
            },
            _ => Access::Crash,
        }
    }

    /// A footprint of the semi-synchronous substrate.
    fn semi_access(rng: &mut SplitMix) -> Access {
        [
            Access::Local,
            Access::Broadcast,
            Access::Decide,
            Access::BroadcastDecide,
            Access::Crash,
        ][rng.below(5)]
    }

    /// Checks the kernels of `g` against the references: identical
    /// clocks, `hb` matrix, canonical order and race list, and a
    /// canonical order that linearizes happens-before.
    fn assert_matches_reference<E: SchedEvent>(g: &ExecutionGraph<E>, label: &str) {
        let clocks = reference_clocks(g);
        for (j, b) in g.events().iter().enumerate() {
            let expected: Vec<u64> = (0..g.n()).map(|q| clocks[j].get(q)).collect();
            assert_eq!(g.clock(j), expected, "{label}: clock of event {j}");
            assert_eq!(b.seq, clocks[j].get(b.pid.index()), "{label}: seq of {j}");
            for i in 0..g.len() {
                assert_eq!(
                    g.hb(i, j),
                    reference_hb(&clocks, i, j),
                    "{label}: hb({i}, {j})"
                );
            }
        }
        let canon = canonical_order(g);
        assert_eq!(canon, reference_canonical_order(g), "{label}: order");
        let mut pos = vec![usize::MAX; g.len()];
        for (at, &k) in canon.iter().enumerate() {
            pos[k] = at;
        }
        for i in 0..g.len() {
            for j in 0..g.len() {
                if g.hb(i, j) {
                    assert!(pos[i] < pos[j], "{label}: {i} ->hb {j} out of order");
                }
            }
        }
        assert_eq!(
            reversible_races(g),
            reference_reversible_races(g),
            "{label}: races"
        );
    }

    /// Conflicting cross-process pairs ordered by happens-before that
    /// are *not* reversible races.
    fn mediated_pairs<E: SchedEvent>(g: &ExecutionGraph<E>) -> usize {
        let ev = g.events();
        let ordered = (0..g.len())
            .flat_map(|i| (0..g.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                ev[i].pid != ev[j].pid && ev[i].access.conflicts(ev[j].access) && g.hb(i, j)
            })
            .count();
        ordered - reversible_races(g).len()
    }

    /// Records `len` random shared-memory events over `ids` banks and
    /// oracle objects into `g`.
    fn push_mem_events(
        g: &mut ExecutionGraph<MemEvent>,
        rng: &mut SplitMix,
        len: usize,
        ids: usize,
    ) {
        for _ in 0..len {
            let p = rng.below(g.n());
            let access = mem_access(rng, g.n(), p, ids);
            g.push(MemEvent::Step(pid(p)), pid(p), access);
        }
    }

    /// Records `len` random semi-synchronous events into `g`.
    fn push_semi_events(g: &mut ExecutionGraph<SemiSyncEvent>, rng: &mut SplitMix, len: usize) {
        for _ in 0..len {
            let p = rng.below(g.n());
            let access = semi_access(rng);
            let event = if access == Access::Crash {
                SemiSyncEvent::Crash(pid(p))
            } else {
                SemiSyncEvent::Step(pid(p))
            };
            g.push(event, pid(p), access);
        }
    }

    /// Every seeded graph is built into a graph that already held a
    /// different random run and was then cleared, so stale clocks,
    /// chains, conflict-index slots or capacity from an earlier run
    /// cannot leak into the kernels. The earlier runs use more banks and
    /// oracle objects (0..6) than the measured ones (0..4), so every
    /// index row the measured run reads held events before the clear.
    #[test]
    fn kernels_match_the_reference_on_random_graphs() {
        let mut rng = SplitMix(0x5EED_D0A5);
        let mut residue = SplitMix(0xD1FF_E4E7);
        let (mut races, mut mediated) = (0, 0);
        for round in 0..400 {
            let n = 2 + rng.below(7);
            let len = rng.below(49);
            let label = format!("graph {round} (n = {n}, len = {len})");
            let earlier = residue.below(49);
            if round % 2 == 0 {
                let mut g = ExecutionGraph::new(n);
                push_mem_events(&mut g, &mut residue, earlier, 6);
                g.clear();
                push_mem_events(&mut g, &mut rng, len, 4);
                assert_matches_reference(&g, &label);
                races += reversible_races(&g).len();
                mediated += mediated_pairs(&g);
            } else {
                let mut g = ExecutionGraph::new(n);
                push_semi_events(&mut g, &mut residue, earlier);
                g.clear();
                push_semi_events(&mut g, &mut rng, len);
                assert_matches_reference(&g, &label);
                races += reversible_races(&g).len();
                mediated += mediated_pairs(&g);
            }
        }
        assert!(races > 400, "the generator must produce races: {races}");
        assert!(mediated > 400, "and mediated pairs: {mediated}");
    }

    /// Every footprint over banks, owners and oracle objects 0..4.
    fn all_footprints() -> Vec<Access> {
        let mut all = vec![
            Access::Local,
            Access::Broadcast,
            Access::Decide,
            Access::BroadcastDecide,
            Access::Crash,
        ];
        for id in 0..4 {
            all.push(Access::Snapshot { bank: id });
            all.push(Access::Oracle { object: id });
            for owner in 0..4 {
                all.push(Access::Write { bank: id, owner });
                all.push(Access::Read { bank: id, owner });
            }
        }
        all
    }

    #[test]
    fn conflict_index_table_reproduces_the_conflict_relation() {
        let all = all_footprints();
        let mut conflicting = 0;
        for &a in &all {
            for &b in &all {
                let (a_objects, b_objects) = (a.objects(), b.objects());
                let joins = a_objects
                    .joined()
                    .iter()
                    .any(|o| b_objects.published().contains(o));
                assert_eq!(joins, a.conflicts(b), "{a:?} joins {b:?}");
                conflicting += usize::from(joins);
            }
        }
        assert!(
            conflicting > 50,
            "the table must see conflicts: {conflicting}"
        );
    }

    #[test]
    fn conflict_relation_is_symmetric() {
        let footprints = [
            Access::Local,
            Access::Write { bank: 0, owner: 0 },
            Access::Write { bank: 0, owner: 1 },
            Access::Read { bank: 0, owner: 0 },
            Access::Read { bank: 1, owner: 0 },
            Access::Snapshot { bank: 0 },
            Access::Snapshot { bank: 1 },
            Access::Oracle { object: 0 },
            Access::Oracle { object: 1 },
            Access::Broadcast,
            Access::Decide,
            Access::BroadcastDecide,
            Access::Crash,
        ];
        for &a in &footprints {
            for &b in &footprints {
                assert_eq!(a.conflicts(b), b.conflicts(a), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn single_writer_writes_never_conflict() {
        let w0 = Access::Write { bank: 0, owner: 0 };
        let w1 = Access::Write { bank: 0, owner: 1 };
        assert!(!w0.conflicts(w1));
        // But a write conflicts with a read of the same cell and a
        // snapshot of its bank.
        assert!(w0.conflicts(Access::Read { bank: 0, owner: 0 }));
        assert!(!w0.conflicts(Access::Read { bank: 0, owner: 1 }));
        assert!(w0.conflicts(Access::Snapshot { bank: 0 }));
        assert!(!w0.conflicts(Access::Snapshot { bank: 1 }));
    }

    #[test]
    fn crash_commutes_with_silent_steps_but_not_decisions() {
        assert!(!Access::Crash.conflicts(Access::Local));
        assert!(!Access::Crash.conflicts(Access::Broadcast));
        assert!(Access::Crash.conflicts(Access::Decide));
        assert!(Access::Crash.conflicts(Access::BroadcastDecide));
        assert!(Access::Crash.conflicts(Access::Crash));
    }

    #[test]
    fn canonical_order_is_shared_by_equivalent_runs() {
        // p0 writes bank 0; p1 writes bank 1: independent, so both
        // interleavings are one class with one canonical linearization.
        let mut ab = ExecutionGraph::new(2);
        ab.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 0, owner: 0 },
        );
        ab.push(
            MemEvent::Step(pid(1)),
            pid(1),
            Access::Write { bank: 1, owner: 1 },
        );
        let mut ba = ExecutionGraph::new(2);
        ba.push(
            MemEvent::Step(pid(1)),
            pid(1),
            Access::Write { bank: 1, owner: 1 },
        );
        ba.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 0, owner: 0 },
        );

        let canon_ab: Vec<MemEvent> = canonical_order(&ab)
            .into_iter()
            .map(|i| ab.events()[i].event)
            .collect();
        let canon_ba: Vec<MemEvent> = canonical_order(&ba)
            .into_iter()
            .map(|i| ba.events()[i].event)
            .collect();
        assert_eq!(canon_ab, canon_ba);
        assert_eq!(canon_ab[0], MemEvent::Step(pid(0)), "smallest pid first");
    }

    #[test]
    fn dependent_events_race_and_keep_execution_order() {
        // p0 writes cell (0,0); p1 reads it: a reversible race.
        let mut g = ExecutionGraph::new(2);
        g.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 0, owner: 0 },
        );
        g.push(
            MemEvent::Step(pid(1)),
            pid(1),
            Access::Read { bank: 0, owner: 0 },
        );
        assert!(g.hb(0, 1));
        assert!(!g.hb(1, 0));
        assert_eq!(reversible_races(&g), vec![(0, 1)]);
    }

    #[test]
    fn mediated_races_are_not_reversible() {
        // p0 writes; p1 snapshots (sees it); p2 snapshots after p1's
        // write... chain: w0 -> snap1 -> w1' -> snap2 gives w0 ->hb snap2
        // mediated through p1's events.
        let mut g = ExecutionGraph::new(3);
        g.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 0, owner: 0 },
        );
        g.push(MemEvent::Step(pid(1)), pid(1), Access::Snapshot { bank: 0 });
        g.push(
            MemEvent::Step(pid(1)),
            pid(1),
            Access::Write { bank: 0, owner: 1 },
        );
        g.push(MemEvent::Step(pid(2)), pid(2), Access::Snapshot { bank: 0 });
        let races = reversible_races(&g);
        assert!(races.contains(&(0, 1)), "write/snap adjacency races");
        assert!(races.contains(&(2, 3)));
        assert!(
            !races.contains(&(0, 3)),
            "w0 ->hb snap2 is mediated by p1's snapshot+write, not reversible"
        );
    }

    #[test]
    fn program_order_is_happens_before_without_racing() {
        let mut g = ExecutionGraph::new(2);
        g.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 0, owner: 0 },
        );
        g.push(
            MemEvent::Step(pid(0)),
            pid(0),
            Access::Write { bank: 1, owner: 0 },
        );
        assert!(g.hb(0, 1));
        assert!(reversible_races(&g).is_empty());
    }
}
