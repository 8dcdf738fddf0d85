//! Allocation budget of the DPOR explorer.
//!
//! A counting global allocator measures one exploration of the n = 8,
//! three-bank write/read ring at one worker: 255 trace classes reached
//! through 989 work items. A work item may allocate only what it hands
//! to the shared memos or the pool (a fresh class or prefix key, a fresh
//! child's event sequence) plus the run report of a fresh class, so the
//! whole exploration stays under a fixed budget. Allocating per applied
//! event — one buffer in `ExecutionGraph::push`, say — costs about 40
//! allocations per item and fails it.
//!
//! The binary holds a single test so that no other test allocates while
//! the counter runs.

use rrfd::core::{ProcessId, SystemSize};
use rrfd::sims::dpor::{explore_shared_mem_dpor, DporConfig};
use rrfd::sims::explore::ExploreStats;
use rrfd::sims::shared_mem::{Action, MemProcess, MemRunReport, Observation, SharedMemSim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since
/// the process started, across all threads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed for one exploration of the ring.
const BUDGET: u64 = 10_000;
/// Processes on the ring.
const N: usize = 8;
/// Write rounds (one bank each) before the final read.
const BANKS: usize = 3;
/// What a process decides when its successor's last write was missed.
const MISSED: u64 = u64::MAX;
/// What a process decides on an observation the ring never produces.
const CONFUSED: u64 = u64::MAX - 1;

/// One ring process: writes its value through three banks, then reads
/// its ring successor's cell in the last bank and decides what it saw.
/// Only the eight last-bank write/read pairs race, so the classes are
/// the 2⁸ see/miss combinations minus the all-miss one: exactly 255.
#[derive(Debug, Clone)]
struct RingFlood {
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
            _ => Action::Decide(CONFUSED),
        }
    }
}

fn ring() -> Vec<RingFlood> {
    (0..N)
        .map(|id| RingFlood {
            id,
            value: 100 + id as u64,
            phase: 0,
        })
        .collect()
}

/// The see/miss mask of a run (bit `i`: process `i` saw its successor),
/// or `None` when some decision is neither.
fn mask_of(outputs: &[Option<u64>]) -> Option<u8> {
    let mut mask = 0u8;
    for (i, out) in outputs.iter().enumerate() {
        match *out {
            Some(v) if v == 100 + ((i + 1) % N) as u64 => mask |= 1 << i,
            Some(MISSED) => {}
            _ => return None,
        }
    }
    Some(mask)
}

/// One one-worker exploration: its stats, the see/miss masks of its
/// representatives, and the allocations it made.
fn explore(sim: &SharedMemSim) -> (ExploreStats, Vec<u8>, u64) {
    // Room for every class up front, so recording a mask never allocates.
    let masks = Mutex::new(Vec::with_capacity(1 << N));
    let check = |report: &MemRunReport<RingFlood, u64>| match mask_of(&report.outputs) {
        Some(mask) if mask != 0 => {
            masks.lock().unwrap().push(mask);
            Ok(())
        }
        _ => Err(format!("unexpected decisions {:?}", report.outputs)),
    };
    let config = DporConfig::new(1);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let stats = explore_shared_mem_dpor(sim, ring, check, &config).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    (stats, masks.into_inner().unwrap(), allocations)
}

#[test]
fn one_worker_ring_exploration_stays_within_the_allocation_budget() {
    let sim = SharedMemSim::new(SystemSize::new(N).unwrap(), BANKS);
    for round in 0..3 {
        let (stats, masks, allocations) = explore(&sim);
        assert_eq!(stats.schedules, 255, "round {round}: {stats:?}");
        assert_eq!(stats.graphs_explored, 255, "round {round}: {stats:?}");
        assert_eq!(stats.revisits, 988, "round {round}: {stats:?}");
        assert_eq!(stats.sleep_set_blocked, 1_778, "round {round}: {stats:?}");
        let distinct: BTreeSet<u8> = masks.iter().copied().collect();
        assert_eq!((masks.len(), distinct.len()), (255, 255), "round {round}");
        println!("round {round}: {allocations} allocations");
        assert!(
            allocations <= BUDGET,
            "round {round}: {allocations} allocations, budget {BUDGET}"
        );
    }
}
