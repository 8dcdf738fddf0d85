//! Differential soundness/completeness battery for the DPOR explorer
//! against the exhaustive sequential walker: on random small protocols
//! and random predicates, the two must agree on (i) whether a
//! counterexample exists, (ii) the set of violating final-output
//! vectors (one representative per Mazurkiewicz class must still cover
//! every reachable outcome), and (iii) every DPOR counterexample must
//! replay — through `ScheduleReplay`, from the serialized certificate —
//! to the same violation. A determinism regression then pins the whole
//! `ExploreStats` projection and the chosen counterexample as a function
//! of the configuration, independent of worker count.

use proptest::prelude::*;
use rrfd::core::{Control, IdSet, ProcessId, SystemSize};
use rrfd::sims::dpor::{explore_semi_sync_dpor, explore_shared_mem_dpor, DporConfig, DporError};
use rrfd::sims::explore::explore_schedules_checked;
use rrfd::sims::explore::semi_sync::explore_semi_sync_checked;
use rrfd::sims::semi_sync::{SemiSyncProcess, SemiSyncReport, SemiSyncSim};
use rrfd::sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use rrfd::sims::trace::ScheduleReplay;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// One instruction of the scripted protocol. The DPOR explorer keys
/// trace classes on event sequences, so the process state needs no
/// digest at all.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Write this value to the process's own cell of bank 0.
    Write(u64),
    /// Snapshot bank 0 and add the number of filled cells to the
    /// accumulator.
    Snap,
}

/// A tiny interpreter over shared memory: execute the program one op per
/// step (folding snapshot results into an accumulator), then decide the
/// accumulator.
#[derive(Debug, Clone)]
struct Scripted {
    ops: Vec<Op>,
    pc: usize,
    acc: u64,
}

impl MemProcess<u64> for Scripted {
    type Output = u64;
    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        if let Observation::SnapshotView(view) = &obs {
            self.acc += view.iter().flatten().count() as u64;
        }
        match self.ops.get(self.pc) {
            Some(&op) => {
                self.pc += 1;
                match op {
                    Op::Write(v) => Action::Write { bank: 0, value: v },
                    Op::Snap => Action::Snapshot { bank: 0 },
                }
            }
            None => Action::Decide(self.acc),
        }
    }
}

fn program() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..3).prop_map(|t| match t {
            0 => Op::Snap,
            v => Op::Write(u64::from(v)),
        }),
        1..=2,
    )
}

/// The random predicate: "no process decides a value ≥ threshold".
/// Low thresholds produce counterexamples, high ones do not, so both
/// branches of the differential get exercised.
fn violates(report: &MemRunReport<Scripted, u64>, threshold: u64) -> bool {
    report.outputs.iter().flatten().any(|&v| v >= threshold)
}

proptest! {
    /// The headline differential: DPOR finds a counterexample **iff**
    /// exhaustive enumeration does, covers the same violating outcomes,
    /// and its certificates replay.
    #[test]
    fn dpor_matches_exhaustive_on_scripted_protocols(
        ops in program(),
        n in 2usize..=3,
        threshold in 0u64..8,
    ) {
        let size = SystemSize::new(n).unwrap();
        let sim = SharedMemSim::new(size, 1).with_snapshots();
        let make = || {
            (0..n)
                .map(|_| Scripted { ops: ops.clone(), pc: 0, acc: 0 })
                .collect::<Vec<_>>()
        };
        let check = |report: &MemRunReport<Scripted, u64>| {
            if violates(report, threshold) {
                Err(format!("an output reached {threshold}"))
            } else {
                Ok(())
            }
        };

        let seq = explore_schedules_checked(&sim, make, check, 100_000);

        // (ii) the violating final-output vectors, collected with a
        // never-failing check so both explorers cover everything. Final
        // outputs are invariant within a Mazurkiewicz class, so one
        // representative per class must still reach every vector the
        // full tree reaches.
        let seq_set = RefCell::new(BTreeSet::new());
        let collect_seq = |report: &MemRunReport<Scripted, u64>| {
            if violates(report, threshold) {
                seq_set.borrow_mut().insert(report.outputs.clone());
            }
            Ok(())
        };
        explore_schedules_checked(&sim, make, collect_seq, 100_000).unwrap();
        let seq_set = seq_set.into_inner();

        for workers in [1usize, 2, 8] {
            let config = DporConfig::new(workers);

            let dpor_set = Mutex::new(BTreeSet::new());
            let collect_dpor = |report: &MemRunReport<Scripted, u64>| {
                if violates(report, threshold) {
                    dpor_set.lock().unwrap().insert(report.outputs.clone());
                }
                Ok(())
            };
            explore_shared_mem_dpor(&sim, make, collect_dpor, &config).unwrap();
            let dpor_set = dpor_set.into_inner().unwrap();
            prop_assert!(
                dpor_set == seq_set,
                "violating outcome vectors disagree at {} workers: {:?} vs {:?}",
                workers,
                dpor_set,
                seq_set
            );

            // (i) counterexample existence agrees; (iii) the DPOR
            // certificate survives a serialize → parse → replay
            // round-trip and reproduces the violation.
            let dpor = explore_shared_mem_dpor(&sim, make, check, &config);
            match (&seq, &dpor) {
                (Ok(_), Ok(_)) => {}
                (Err(_), Err(DporError::Counterexample(cex))) => {
                    let reparsed = cex.schedule.to_string().parse().unwrap();
                    let mut replay = ScheduleReplay::from_trace(&reparsed);
                    let report = sim.run(make(), &mut replay).unwrap();
                    prop_assert!(
                        violates(&report, threshold),
                        "replayed DPOR certificate must reproduce the violation"
                    );
                }
                (s, d) => prop_assert!(
                    false,
                    "existence disagreement at {} workers: seq {:?} vs dpor {:?}",
                    workers, s.is_ok(), d.is_ok()
                ),
            }
        }
    }
}

/// A broadcast-once, decide-after-`rounds`-steps semi-synchronous
/// process, deciding on how many distinct processes it heard from (the
/// crash budget is the data nondeterminism race reversals alone cannot
/// reach).
#[derive(Debug, Clone)]
struct Hearer {
    rounds: u64,
    steps: u64,
    heard: IdSet,
    sent: bool,
}

impl SemiSyncProcess for Hearer {
    type Msg = ();
    type Output = usize;
    fn step(&mut self, received: &[(ProcessId, Arc<()>)]) -> (Option<()>, Control<usize>) {
        self.steps += 1;
        for &(from, _) in received {
            self.heard.insert(from);
        }
        let msg = (!self.sent).then(|| self.sent = true);
        if self.steps >= self.rounds {
            (msg, Control::Decide(self.heard.len()))
        } else {
            (msg, Control::Continue)
        }
    }
}

fn semi_violates(report: &SemiSyncReport<Hearer>, quorum: usize) -> bool {
    report.outputs.iter().flatten().any(|(h, _)| *h < quorum)
}

proptest! {
    /// The crash-budget adversary differential: with `crashes` crash
    /// alternatives in play, DPOR existence must still match exhaustive
    /// enumeration and certificates (which may embed `Crash` events)
    /// must replay.
    #[test]
    fn semi_sync_dpor_matches_exhaustive(
        rounds in 2u64..=3,
        crashes in 0usize..=1,
        quorum in 1usize..=2,
    ) {
        let size = SystemSize::new(2).unwrap();
        let sim = SemiSyncSim::new(size);
        let make = || {
            (0..2)
                .map(|_| Hearer {
                    rounds,
                    steps: 0,
                    heard: IdSet::empty(),
                    sent: false,
                })
                .collect::<Vec<_>>()
        };
        let check = |report: &SemiSyncReport<Hearer>| {
            if semi_violates(report, quorum) {
                Err(format!("someone heard fewer than {quorum}"))
            } else {
                Ok(())
            }
        };

        let seq = explore_semi_sync_checked(&sim, crashes, make, check, 200_000);
        for workers in [1usize, 4] {
            let dpor =
                explore_semi_sync_dpor(&sim, crashes, make, check, &DporConfig::new(workers));
            match (&seq, &dpor) {
                (Ok(_), Ok(_)) => {}
                (Err(_), Err(DporError::Counterexample(cex))) => {
                    let mut replay = ScheduleReplay::from_trace(&cex.schedule);
                    let report = sim.run(make(), &mut replay).unwrap();
                    prop_assert!(
                        semi_violates(&report, quorum),
                        "replayed semi-sync DPOR certificate must reproduce the violation"
                    );
                }
                (s, d) => prop_assert!(
                    false,
                    "semi-sync existence disagreement (crashes {}): seq {:?} vs dpor {:?}",
                    crashes, s.is_ok(), d.is_ok()
                ),
            }
        }
    }
}

/// Everything but the stealing-pool placement (`steals`, `workers`) —
/// the projection the determinism contract covers.
fn projection(stats: &rrfd::sims::explore::ExploreStats) -> impl std::fmt::Debug + PartialEq {
    (
        stats.schedules,
        stats.decision_points,
        stats.max_depth,
        stats.graphs_explored,
        stats.revisits,
        stats.sleep_set_blocked,
        stats.memo_entries,
        stats.memo_bytes,
    )
}

/// Same seed + configuration in, identical stats projection and the
/// identical counterexample out — across worker counts {1, 2, 8} and on
/// repeated runs. The frozen worker-index maps make placement the *only*
/// thing a worker count changes.
#[test]
fn dpor_results_are_worker_count_independent() {
    let size = SystemSize::new(3).unwrap();
    let sim = SharedMemSim::new(size, 1).with_snapshots();
    let make = || {
        (0..3)
            .map(|_| Scripted {
                ops: vec![Op::Write(1), Op::Snap],
                pc: 0,
                acc: 0,
            })
            .collect::<Vec<_>>()
    };
    // Fails on classes where someone's snapshot saw all three writes.
    let check = |report: &MemRunReport<Scripted, u64>| {
        if violates(report, 3) {
            Err("saw a full snapshot".to_owned())
        } else {
            Ok(())
        }
    };

    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        // Twice per worker count: determinism within a configuration
        // and across configurations in one loop.
        for _ in 0..2 {
            let err =
                explore_shared_mem_dpor(&sim, make, check, &DporConfig::new(workers)).unwrap_err();
            let DporError::Counterexample(cex) = err else {
                panic!("expected a counterexample at {workers} workers");
            };
            runs.push((workers, cex));
        }
    }
    let (_, first) = &runs[0];
    for (workers, cex) in &runs {
        assert_eq!(
            format!("{:?}", projection(&cex.stats)),
            format!("{:?}", projection(&first.stats)),
            "stats projection must not depend on worker count (got {workers} workers)"
        );
        assert_eq!(cex.choices, first.choices, "at {workers} workers");
        assert_eq!(cex.message, first.message, "at {workers} workers");
        assert_eq!(
            cex.schedule.to_string(),
            first.schedule.to_string(),
            "at {workers} workers"
        );
        assert_eq!(cex.stats.workers, *workers);
    }
}

/// The never-failing sweep is worker-count-independent too (no
/// counterexample to anchor on — the full class count must agree), and
/// a `from_env` configuration matches explicit workers so CI can pin
/// `RRFD_EXPLORE_WORKERS`.
#[test]
fn dpor_sweep_stats_agree_with_from_env() {
    let size = SystemSize::new(3).unwrap();
    let sim = SharedMemSim::new(size, 1).with_snapshots();
    let make = || {
        (0..3)
            .map(|_| Scripted {
                ops: vec![Op::Snap],
                pc: 0,
                acc: 0,
            })
            .collect::<Vec<_>>()
    };
    let baseline = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(1)).unwrap();
    for workers in [2usize, 8] {
        let stats =
            explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::new(workers)).unwrap();
        assert_eq!(
            format!("{:?}", projection(&stats)),
            format!("{:?}", projection(&baseline)),
            "sweep stats must not depend on worker count ({workers} workers)"
        );
    }
    let env = explore_shared_mem_dpor(&sim, make, |_| Ok(()), &DporConfig::from_env()).unwrap();
    assert_eq!(env.schedules, baseline.schedules);
    assert_eq!(env.revisits, baseline.revisits);
    assert!(env.workers >= 1);
}
