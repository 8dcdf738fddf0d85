//! Classical *non-RRFD* system simulators — the substrates Section 2 of
//! the paper relates to the RRFD family.
//!
//! Each simulator models its system at the message/step level with its own
//! ground-truth fault semantics, independently of any predicate. The E1
//! extraction experiments then run real executions, read off the sets
//! `D(i,r)` exactly as the paper prescribes ("the set of processes from
//! which `p_i` failed to receive an r-round message"), and machine-check
//! the corresponding predicate from `rrfd-models`.
//!
//! * [`sync_net`] — lock-step synchronous message passing with
//!   send-omission and crash faults (§2 items 1, 2).
//! * [`async_net`] — event-driven asynchronous message passing with
//!   adversarial delivery order and crashes (§2 item 3); [`async_rounds`]
//!   layers communication-closed rounds on top (buffer-early /
//!   discard-late / wait-for-`n − f`).
//! * [`shared_mem`] — SWMR register banks and an atomic-snapshot object
//!   under an adversarial step scheduler (§2 items 4, 5).
//! * [`semi_sync`] — the Dolev-Dwork-Stockmeyer semi-synchronous model of
//!   §5 (atomic receive/broadcast steps, synchronous broadcast delivery).
//! * [`detector_s`] — the S-augmented asynchronous system of §2 item 6.
//! * [`explore`] — exhaustive schedule enumeration for small shared-memory
//!   and semi-synchronous instances (turns sampled tests into
//!   proofs-by-enumeration); the reference oracle for [`dpor`].
//! * [`dpor`] — dynamic partial-order reduction over
//!   execution graphs (events partially ordered by happens-before, via
//!   vector clocks stored flat in the graph), exploring one representative per
//!   Mazurkiewicz trace class, distributed over a work-stealing deque
//!   pool with worker-count-independent results.
//! * [`admissibility`] — compiled-plane admissibility checks
//!   ([`rrfd_core::ProgramBatch`] over [`rrfd_core::RrfdPredicate::compile`])
//!   for the explorers' per-run `check` closures: one streaming pass per
//!   extracted fault pattern instead of a dyn-dispatch prefix re-walk per
//!   predicate.
//! * [`trace`] — schedule capture ([`trace::Recording`]) and deterministic
//!   replay ([`trace::ScheduleReplay`]) for the adversarial simulators, so
//!   any failing run — including every `explore` counterexample — is a
//!   serializable, re-runnable artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admissibility;
pub mod async_net;
pub mod async_rounds;
pub mod detector_s;
mod digest;
pub mod dpor;
pub mod explore;
pub mod instrument;
pub mod semi_sync;
pub mod shared_mem;
pub mod sync_net;
pub mod trace;
