//! Spans recorded from outside the program.
//!
//! The traced run wraps the trait objects the engine calls —
//! [`RoundProtocol`], [`FaultDetector`], [`RrfdPredicate`] — in transparent
//! timing shims, and the benchmark times its own calls into public
//! functions the same way. Every call records a [`Span`] (layer, start,
//! end, parent, instance id) into a per-thread buffer kept in memory until
//! the pass ends; a layer's self time is its span minus the part its
//! children cover.
//!
//! Nothing inside the program changes: the shims forward every call and
//! value unchanged, which the transparency tests in `pool.rs` pin.

use rrfd_core::{
    Control, Delivery, FaultDetector, FaultPattern, PredicateProgram, Round, RoundFaults,
    RoundProtocol, RrfdPredicate, SystemSize,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One pool instance, `build` through `run_to_completion`.
    Instance,
    /// `InstanceClass::build`.
    Build,
    /// `Engine::start`.
    Start,
    /// `EngineRun::step`.
    Step,
    /// `RoundProtocol::emit`.
    Emit,
    /// `RoundProtocol::deliver`.
    Deliver,
    /// `FaultDetector::next_round`.
    NextRound,
    /// `RrfdPredicate::admits` (the engine's round validation).
    Admits,
    /// `ConformanceMonitor::observe`, from the benchmark's round hook.
    Observe,
    /// One lattice check (cold or warm half).
    Check,
    /// `zoo::compile_family`.
    Compile,
    /// `memo::fingerprint` over the whole family.
    Fingerprint,
    /// `compute_with_memo`.
    Compute,
    /// `Lattice::render_markdown`.
    Markdown,
    /// `LatticeMemo::parse`.
    MemoParse,
    /// `LatticeMemo::render`.
    MemoRender,
    /// `explore_shared_mem_dpor`.
    Explore,
    /// The check the explorer runs on each trace class's representative.
    ClassCheck,
}

impl Layer {
    /// The name spans are written out under.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Instance => "instance",
            Layer::Build => "mix.build",
            Layer::Start => "engine.start",
            Layer::Step => "engine.step",
            Layer::Emit => "protocol.emit",
            Layer::Deliver => "protocol.deliver",
            Layer::NextRound => "adversary.next_round",
            Layer::Admits => "model.admits",
            Layer::Observe => "monitor.observe",
            Layer::Check => "lattice.check",
            Layer::Compile => "lattice.compile",
            Layer::Fingerprint => "lattice.fingerprint",
            Layer::Compute => "lattice.compute",
            Layer::Markdown => "lattice.render",
            Layer::MemoParse => "memo.parse",
            Layer::MemoRender => "memo.render",
            Layer::Explore => "dpor.explore",
            Layer::ClassCheck => "dpor.check",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer boundary.
    pub layer: Layer,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The instance (or iteration) the span belongs to.
    pub instance: u64,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-round counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Senders heard, summed over every delivery.
    pub heard: u64,
    /// Suspicions `|D(i,r)|`, summed over processes and rounds.
    pub suspicions: u64,
}

/// Everything one traced pass recorded on this thread.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Counts gathered at the span boundaries.
    pub counts: Counts,
}

impl Recording {
    /// Total duration of every span of `layer`.
    #[must_use]
    pub fn total(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::duration)
            .sum()
    }

    /// Number of spans of `layer`.
    #[must_use]
    pub fn count(&self, layer: Layer) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Summed self time of every span of `layer`: its duration minus
    /// the part of it its children cover.
    #[must_use]
    pub fn self_total(&self, layer: Layer) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(list) = children.get_mut(span.parent as usize) {
                list.push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, kids)| crate::stats::self_time(s.start_ns, s.end_ns, kids))
            .sum()
    }

    /// The spans as tab-separated lines: index, layer, start, end,
    /// parent (`-` for none), instance.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tlayer\tstart_ns\tend_ns\tparent\tinstance\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.instance
            );
        }
        out
    }
}

struct Tracer {
    epoch: Instant,
    open: Vec<u32>,
    instance: u64,
    recording: Recording,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn begin() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            instance: 0,
            recording: Recording::default(),
        });
    });
}

/// Stops recording on this thread and hands back what was recorded.
#[must_use]
pub fn end() -> Recording {
    TRACER.with(|t| {
        t.borrow_mut()
            .take()
            .map(|t| t.recording)
            .unwrap_or_default()
    })
}

/// Stamps the spans opened from now on with `instance`.
pub fn set_instance(instance: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.instance = instance;
        }
    });
}

/// Opens a span of `layer` under the innermost open span. Returns a
/// handle for [`exit`]; a no-op when this thread is not recording.
pub fn enter(layer: Layer) -> u32 {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else {
            return NO_PARENT;
        };
        let index = t.recording.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.recording.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            instance: t.instance,
        });
        t.open.push(index);
        index
    })
}

/// Closes the span `enter` returned.
pub fn exit(handle: u32) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(t) = guard.as_mut() else {
            return;
        };
        let now = t.epoch.elapsed().as_nanos() as u64;
        if let Some(span) = t.recording.spans.get_mut(handle as usize) {
            span.end_ns = now;
        }
        if t.open.last() == Some(&handle) {
            t.open.pop();
        }
    });
}

/// The instant this thread's spans are measured from; `None` when this
/// thread is not recording. Lets other threads time work that is then
/// added with [`record`].
#[must_use]
pub fn epoch() -> Option<Instant> {
    TRACER.with(|t| t.borrow().as_ref().map(|t| t.epoch))
}

/// Adds a closed span timed elsewhere (against [`epoch`]) under `parent`.
pub fn record(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let instance = t.instance;
            t.recording.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                parent,
                instance,
            });
        }
    });
}

/// Runs `f` inside a span of `layer`.
pub fn timed<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let handle = enter(layer);
    let out = f();
    exit(handle);
    out
}

fn count(add: impl FnOnce(&mut Counts)) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            add(&mut t.recording.counts);
        }
    });
}

/// A protocol whose `emit` and `deliver` calls are recorded as spans.
/// Forwards every call and value unchanged.
#[derive(Debug, Clone)]
pub struct TimedProtocol<P>(pub P);

impl<P: RoundProtocol> RoundProtocol for TimedProtocol<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn emit(&mut self, round: Round) -> P::Msg {
        timed(Layer::Emit, || self.0.emit(round))
    }

    fn deliver(&mut self, delivery: Delivery<'_, P::Msg>) -> Control<P::Output> {
        timed(Layer::Deliver, || {
            let heard = delivery.heard_from().len() as u64;
            count(|c| c.heard += heard);
            self.0.deliver(delivery)
        })
    }
}

/// An adversary whose `next_round` calls are recorded as spans, with the
/// suspicions it hands out counted. Forwards every call unchanged.
#[derive(Debug, Clone)]
pub struct TimedDetector<D>(pub D);

impl<D: FaultDetector> FaultDetector for TimedDetector<D> {
    fn system_size(&self) -> SystemSize {
        self.0.system_size()
    }

    fn next_round(&mut self, round: Round, history: &FaultPattern) -> RoundFaults {
        timed(Layer::NextRound, || {
            let faults = self.0.next_round(round, history);
            let suspicions: u64 = faults.as_slice().iter().map(|d| d.len() as u64).sum();
            count(|c| c.suspicions += suspicions);
            faults
        })
    }
}

/// A model predicate whose `admits` calls are recorded as spans.
/// `compile` and `admits_pattern` are forwarded unchanged.
#[derive(Debug, Clone)]
pub struct TimedModel<Q>(pub Q);

impl<Q: RrfdPredicate> RrfdPredicate for TimedModel<Q> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn system_size(&self) -> SystemSize {
        self.0.system_size()
    }

    fn admits(&self, history: &FaultPattern, round: &RoundFaults) -> bool {
        timed(Layer::Admits, || self.0.admits(history, round))
    }

    fn compile(&self) -> Option<PredicateProgram> {
        self.0.compile()
    }

    fn admits_pattern(&self, pattern: &FaultPattern) -> bool {
        self.0.admits_pattern(pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        begin();
        set_instance(7);
        let outer = enter(Layer::Step);
        let a = enter(Layer::Emit);
        exit(a);
        let b = enter(Layer::Deliver);
        exit(b);
        exit(outer);
        let rec = end();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[0].parent, NO_PARENT);
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[2].parent, 0);
        assert!(rec.spans.iter().all(|s| s.instance == 7));
        // Children plus self time make up the parent exactly.
        let children = rec.total(Layer::Emit) + rec.total(Layer::Deliver);
        assert_eq!(
            children + rec.self_total(Layer::Step),
            rec.total(Layer::Step)
        );
        assert!(rec.to_tsv().lines().count() == 4);
    }

    #[test]
    fn nothing_is_recorded_outside_a_pass() {
        let _ = end();
        let h = enter(Layer::Emit);
        exit(h);
        assert!(end().spans.is_empty());
    }
}
