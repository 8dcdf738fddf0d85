//! The DPOR workload: `dpor_ring8`.
//!
//! `explore_shared_mem_dpor` on a full-information ring at n = 8: each
//! process writes its value through three banks, then reads its ring
//! successor's cell in the last bank and decides what it saw. Only the
//! eight last-bank write/read pairs race, so the trace classes are the
//! 2⁸ see/miss combinations minus the all-miss one, which the ring makes
//! infeasible: exactly 255. The check requires every one of them to be
//! reached once, every run to decide correctly, and the statistics to
//! equal a one-worker reference.

use crate::stats;
use crate::trace::{self, Layer};
use crate::{Ctx, Outcome, Setups};
use rrfd_core::{ProcessId, SystemSize};
use rrfd_engine_pool::mix::splitmix64;
use rrfd_sims::dpor::{explore_shared_mem_dpor, DporConfig};
use rrfd_sims::explore::ExploreStats;
use rrfd_sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

/// Processes on the ring.
const N: usize = 8;
/// Write rounds (one bank each) before the final read.
const BANKS: usize = 3;
/// What a process decides when its successor's last write was missed.
const MISSED: u64 = u64::MAX;
/// What a process decides on an observation the ring never produces.
const CONFUSED: u64 = u64::MAX - 1;
/// Tail percentile: an exploration takes ~60–80 ms, so a run has a few
/// hundred, not the thousand a p99 needs.
const TAIL: f64 = 90.0;

/// One ring process.
#[derive(Debug, Clone)]
pub struct RingFlood {
    id: usize,
    value: u64,
    phase: usize,
}

impl MemProcess<u64> for RingFlood {
    type Output = u64;

    fn step(&mut self, obs: Observation<u64>) -> Action<u64, u64> {
        self.phase += 1;
        match obs {
            Observation::Start => Action::Write {
                bank: 0,
                value: self.value,
            },
            Observation::Written if self.phase <= BANKS => Action::Write {
                bank: self.phase - 1,
                value: self.value,
            },
            Observation::Written => Action::Read {
                bank: BANKS - 1,
                owner: ProcessId::new((self.id + 1) % N),
            },
            Observation::Value(v) => Action::Decide(v.unwrap_or(MISSED)),
            // Fails the check instead of panicking inside the explorer.
            _ => Action::Decide(CONFUSED),
        }
    }
}

/// The processes' values: distinct, drawn from the workload seed.
#[must_use]
pub fn ring_values(seed: u64) -> Vec<u64> {
    let base = splitmix64(seed) % (1 << 40);
    (0..N as u64).map(|i| base + i).collect()
}

/// Checks one representative run; returns the see/miss mask of its
/// decisions (bit `i` set when process `i` saw its successor's value).
///
/// # Errors
///
/// When a process did not decide, or decided something other than its
/// successor's value or [`MISSED`], or every process missed.
pub fn check_run(values: &[u64], outputs: &[Option<u64>]) -> Result<u8, String> {
    let mut mask = 0u8;
    for (i, out) in outputs.iter().enumerate() {
        match *out {
            Some(v) if v == values[(i + 1) % N] => mask |= 1 << i,
            Some(MISSED) => {}
            other => return Err(format!("p{i} decided {other:?}")),
        }
    }
    if mask == 0 {
        return Err("every process missed its successor, which the ring rules out".to_owned());
    }
    Ok(mask)
}

/// `stats` with the fields that may differ between worker counts cleared.
fn comparable(stats: &ExploreStats) -> ExploreStats {
    ExploreStats {
        steals: 0,
        workers: 0,
        ..*stats
    }
}

/// Checks an exploration against the reference and the ring's class
/// count; `masks` are the see/miss masks of every representative.
///
/// # Errors
///
/// A description of the first difference.
pub fn check_exploration(
    stats: &ExploreStats,
    masks: &[u8],
    reference: &ExploreStats,
) -> Result<(), String> {
    let classes = (1usize << N) - 1;
    if comparable(stats) != comparable(reference) {
        return Err(format!(
            "stats differ from the 1-worker reference: {stats:?} vs {reference:?}"
        ));
    }
    if stats.schedules != classes || stats.graphs_explored != classes as u64 {
        return Err(format!(
            "explored {} classes ({} graphs), the ring has {classes}",
            stats.schedules, stats.graphs_explored
        ));
    }
    let distinct: BTreeSet<u8> = masks.iter().copied().collect();
    if masks.len() != classes || distinct.len() != classes {
        return Err(format!(
            "{} representatives with {} distinct outcomes, expected {classes} of each",
            masks.len(),
            distinct.len()
        ));
    }
    Ok(())
}

struct Explored {
    result: Result<(ExploreStats, Vec<u8>), String>,
    wall_ns: u64,
}

/// One exploration with `workers` workers. With `timed`, it is a span and
/// each class check is a child span.
fn explore(sim: &SharedMemSim, values: &[u64], workers: usize, timed: bool) -> Explored {
    let masks = Mutex::new(Vec::with_capacity(1 << N));
    let checks = Mutex::new(Vec::new());
    let epoch = if timed { trace::epoch() } else { None };
    let make = || {
        (0..N)
            .map(|id| RingFlood {
                id,
                value: values[id],
                phase: 0,
            })
            .collect::<Vec<_>>()
    };
    let check = |report: &MemRunReport<RingFlood, u64>| {
        let start = epoch.map(|e| e.elapsed().as_nanos() as u64);
        let verdict = check_run(values, &report.outputs).map(|mask| {
            masks.lock().expect("mask list lock").push(mask);
        });
        if let (Some(e), Some(start)) = (epoch, start) {
            let end = e.elapsed().as_nanos() as u64;
            checks.lock().expect("check span lock").push((start, end));
        }
        verdict
    };
    let config = DporConfig::new(workers);
    let root = if timed {
        trace::enter(Layer::Explore)
    } else {
        trace::NO_PARENT
    };
    let start = Instant::now();
    let result = explore_shared_mem_dpor(sim, make, check, &config);
    let wall_ns = start.elapsed().as_nanos() as u64;
    if timed {
        trace::exit(root);
        for (s, e) in checks.into_inner().expect("check span lock") {
            trace::record(Layer::ClassCheck, s, e, root);
        }
    }
    let masks = masks.into_inner().expect("mask list lock");
    Explored {
        result: result
            .map(|stats| (stats, masks))
            .map_err(|e| e.to_string()),
        wall_ns,
    }
}

fn sim() -> Result<SharedMemSim, String> {
    Ok(SharedMemSim::new(
        SystemSize::new(N).map_err(|e| e.to_string())?,
        BANKS,
    ))
}

/// Set-up: the simulator and the one-worker reference exploration.
fn setup(values: &[u64], out: &mut Outcome) -> Result<(SharedMemSim, ExploreStats), String> {
    let start = Instant::now();
    let sim = sim()?;
    let explored = explore(&sim, values, 1, false);
    let (reference, masks) = explored.result?;
    out.attempted += 1;
    // The reference must itself reach every class once.
    check_exploration(&reference, &masks, &reference)?;
    out.setup_s.push(start.elapsed().as_secs_f64());
    Ok((sim, reference))
}

/// Checks `explored` and returns its stats when it succeeded.
fn checked(
    explored: Explored,
    reference: &ExploreStats,
    out: &mut Outcome,
) -> Option<ExploreStats> {
    out.attempted += 1;
    match explored.result {
        Ok((stats, masks)) => match check_exploration(&stats, &masks, reference) {
            Ok(()) => Some(stats),
            Err(why) => {
                out.fail(1, why);
                None
            }
        },
        Err(why) => {
            out.fail(1, why);
            None
        }
    }
}

/// Runs the DPOR workload for `ctx.measure` and reports its metrics.
///
/// # Errors
///
/// When the one-worker reference exploration fails its own check.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let values = ring_values(ctx.seed);
    let (sim, reference) = setup(&values, &mut out)?;
    let mut setups = Setups::after_first(ctx.measure);
    let deadline = Instant::now() + ctx.measure;
    if !ctx.traced {
        let mut times = Vec::new();
        while Instant::now() < deadline {
            if setups.due() {
                setup(&values, &mut out)?;
            }
            let explored = explore(&sim, &values, ctx.threads, false);
            times.push(explored.wall_ns as f64);
            checked(explored, &reference, &mut out);
        }
        for _ in 0..setups.owed() {
            setup(&values, &mut out)?;
        }
        out.operations(&times, TAIL, "explorations");
        out.notes
            .push(format!("explorations ran at {} workers", ctx.threads));
        return Ok(out);
    }

    let (mut per_class, mut scaling, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut iteration = 0u64;
    while Instant::now() < deadline {
        if setups.due() {
            setup(&values, &mut out)?;
        }
        let single = explore(&sim, &values, 1, false);
        let single_ns = single.wall_ns as f64;
        checked(single, &reference, &mut out);
        let many = explore(&sim, &values, ctx.threads, false);
        let many_ns = many.wall_ns as f64;
        last = checked(many, &reference, &mut out).or(last);
        trace::begin();
        trace::set_instance(iteration);
        let traced = explore(&sim, &values, ctx.threads, true);
        let rec = trace::end();
        checked(traced, &reference, &mut out);
        per_class.push(single_ns / reference.schedules.max(1) as f64);
        scaling.push(single_ns / many_ns.max(1.0));
        overhead.push(rec.total(Layer::Explore) as f64 / many_ns.max(1.0));
        out.spans = Some(rec);
        iteration += 1;
    }
    for _ in 0..setups.owed() {
        setup(&values, &mut out)?;
    }
    let classes = reference.schedules as f64;
    let blocked = reference.sleep_set_blocked as f64;
    out.metric("dpor.ns_per_class", stats::median_of(&per_class));
    out.metric("dpor.scaling", stats::median_of(&scaling));
    out.metric("dpor.classes", classes);
    out.metric("dpor.revisits", reference.revisits as f64);
    out.metric("dpor.sleep_set_blocked", blocked);
    out.metric("dpor.useful_ratio", classes / (classes + blocked).max(1.0));
    out.metric(
        "dpor.steals",
        last.map_or(0.0, |s: ExploreStats| s.steals as f64),
    );
    out.metric("trace.overhead_ratio", stats::median_of(&overhead));
    out.notes.push(format!(
        "{iteration} traced iterations at 1 and {} workers; times are medians",
        ctx.threads
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_reached_once_and_worker_counts_agree() {
        let sim = sim().expect("sim");
        let values = ring_values(4);
        let (reference, masks) = explore(&sim, &values, 1, false).result.expect("explores");
        assert_eq!(reference.schedules, 255);
        check_exploration(&reference, &masks, &reference).expect("reference is complete");
        let (stats, masks) = explore(&sim, &values, 2, false).result.expect("explores");
        check_exploration(&stats, &masks, &reference).expect("2 workers agree");
    }

    #[test]
    fn the_checker_rejects_stats_with_one_class_missing() {
        let sim = sim().expect("sim");
        let values = ring_values(4);
        let (reference, masks) = explore(&sim, &values, 1, false).result.expect("explores");
        let mut short = reference;
        short.schedules -= 1;
        short.graphs_explored -= 1;
        assert!(check_exploration(&short, &masks, &reference).is_err());
        // Consistent stats with one class short are caught by the count...
        assert!(check_exploration(&short, &masks, &short).is_err());
        // ...and a representative missing from the outcomes is caught too.
        assert!(check_exploration(&reference, &masks[1..], &reference).is_err());
        let mut repeated = masks.clone();
        repeated[0] = repeated[1];
        assert!(check_exploration(&reference, &repeated, &reference).is_err());
        // Steals and worker counts may differ.
        let mut busy = reference;
        busy.steals += 3;
        busy.workers = 2;
        assert!(check_exploration(&busy, &masks, &reference).is_ok());
    }

    #[test]
    fn the_run_checker_rejects_wrong_decisions() {
        let values = ring_values(9);
        let saw = |i: usize| Some(values[(i + 1) % N]);
        let all_saw: Vec<Option<u64>> = (0..N).map(saw).collect();
        assert_eq!(check_run(&values, &all_saw), Ok(0xff));
        let mut wrong = all_saw.clone();
        wrong[2] = Some(values[2]);
        assert!(check_run(&values, &wrong).is_err());
        let mut undecided = all_saw.clone();
        undecided[5] = None;
        assert!(check_run(&values, &undecided).is_err());
        assert!(check_run(&values, &[Some(MISSED); N]).is_err());
    }
}
