//! The batch-pool workloads: `pool_mix` and `pool_wide_monitored`.
//!
//! Each iteration draws a batch seed from the workload seed and runs the
//! same `batch` instances twice: one at a time through the public engine
//! API (`InstanceClass::build`, `Engine::start`, `run_to_completion`),
//! which times every instance and checks its decisions, and through
//! `run_batch` at `threads` shards, which is timed as a whole. The two
//! passes must agree class by class.
//!
//! The traced run repeats the one-at-a-time pass with the engine's trait
//! objects wrapped in the timing shims of `trace.rs`, times `run_batch`
//! at one shard and at `threads` shards, and reports the per-layer split.

use crate::stats::{self, Reservoir};
use crate::trace::{self, Layer, Recording, TimedDetector, TimedModel, TimedProtocol};
use crate::{Ctx, Outcome, Setups};
use rrfd_core::task::{KSetAgreement, Value};
use rrfd_core::{
    Engine, EngineError, EngineRun, EngineStep, FaultDetector, FinishedRun, IdSet, ProcessId,
    RoundHook, RoundProtocol, RrfdPredicate, RunReport, RunTrace, SystemSize,
};
use rrfd_engine_pool::mix::{
    instance_input, splitmix64, EarlyClass, FloodMinClass, KSetClass, SConsensusClass, StallClass,
};
use rrfd_engine_pool::{
    run_batch, BatchReport, ClassConformance, ClassKind, ClassSpec, ClassTotals, InstanceClass,
    InstanceConformance, MixSpec, PoolConfig, RunSummary,
};
use rrfd_models::conformance::ConformanceMonitor;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The wide mix: the default five classes at n = 32.
pub const WIDE_SPEC: &str = "kset:n=32:k=4:w=2,floodmin:n=32:f=8:k=2:w=2,sconsensus:n=32:w=2,\
                             early:n=32:f=8:w=2,stall:n=32:rounds=4:w=1";

/// The zoo resilience the pool's conformance monitors use (`zoo(n, 1)`).
const MONITOR_ZOO_F: usize = 1;

/// Instance latencies kept per run; beyond this a uniform reservoir
/// sample is kept, so memory does not grow with run length.
const LATENCY_SAMPLES: usize = 1 << 18;

/// The tail percentile of instance latency.
const TAIL: f64 = 99.0;

/// One pool workload.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// The tenant mix.
    pub mix: MixSpec,
    /// Whether every instance carries a zoo conformance monitor.
    pub monitored: bool,
    /// Instances per iteration (and per `run_batch` call).
    pub batch: u64,
    /// Instances per traced iteration.
    pub traced_batch: u64,
}

impl PoolSpec {
    /// `pool_mix`: the default mix, monitor off.
    ///
    /// # Errors
    ///
    /// Never in practice; the spec string is a constant.
    pub fn pool_mix() -> Result<Self, String> {
        Ok(PoolSpec {
            mix: MixSpec::parse(MixSpec::DEFAULT_SPEC).map_err(|e| e.to_string())?,
            monitored: false,
            batch: 20_000,
            traced_batch: 4_000,
        })
    }

    /// `pool_wide_monitored`: the wide mix with a zoo monitor per instance.
    ///
    /// # Errors
    ///
    /// Never in practice; the spec string is a constant.
    pub fn wide_monitored() -> Result<Self, String> {
        Ok(PoolSpec {
            mix: MixSpec::parse(WIDE_SPEC).map_err(|e| e.to_string())?,
            monitored: true,
            batch: 1_000,
            traced_batch: 400,
        })
    }

    fn config(&self, shards: usize, seed: u64) -> PoolConfig {
        PoolConfig::new(shards)
            .seed(seed)
            .conformance(self.monitored)
    }
}

/// Runs `$body` with `$class` bound to the concrete class `$spec` names.
macro_rules! with_class {
    ($spec:expr, $seed:expr, |$class:ident| $body:expr) => {{
        let spec: ClassSpec = $spec;
        match spec.kind {
            ClassKind::KSet => {
                let $class = KSetClass::new(spec, $seed);
                $body
            }
            ClassKind::FloodMin => {
                let $class = FloodMinClass::new(spec, $seed);
                $body
            }
            ClassKind::SConsensus => {
                let $class = SConsensusClass::new(spec, $seed);
                $body
            }
            ClassKind::Early => {
                let $class = EarlyClass::new(spec, $seed);
                $body
            }
            ClassKind::Stall => {
                let $class = StallClass::new(spec);
                $body
            }
        }
    }};
}

/// How one instance is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Attach a zoo conformance monitor through the round hook.
    pub monitored: bool,
    /// Wrap the trait objects in timing shims and record spans.
    pub timed: bool,
    /// Start with `start_traced` and keep the `RunTrace`.
    pub capture: bool,
}

/// What one instance produced.
#[derive(Debug, Clone)]
pub struct Ran {
    /// The mix class the instance belongs to.
    pub class: usize,
    /// Decisions, or the engine error that ended the run.
    pub outcome: Result<RunSummary, EngineError>,
    /// The zoo verdict when monitored.
    pub conformance: Option<InstanceConformance>,
    /// Compiled predicate evaluations the monitor made.
    pub compiled_evals: u64,
    /// Rounds the engine executed.
    pub rounds: u32,
    /// Processes suspected at some round of a decided run.
    pub crashed: IdSet,
    /// The run trace when captured (only the transparency test captures).
    #[cfg_attr(not(test), allow(dead_code))]
    pub trace: Option<RunTrace>,
    /// Wall time from `build` through `run_to_completion`.
    pub wall_ns: u64,
}

type Monitor = Arc<Mutex<ConformanceMonitor>>;

fn attach_monitor<P, D, Q>(run: &mut EngineRun<P, D, Q>, n: SystemSize, timed: bool) -> Monitor
where
    P: RoundProtocol,
    D: FaultDetector,
    Q: RrfdPredicate,
{
    let monitor = Arc::new(Mutex::new(ConformanceMonitor::zoo(n, MONITOR_ZOO_F)));
    let sink = Arc::clone(&monitor);
    run.set_round_hook(RoundHook::new(move |faults| {
        let observe = || {
            sink.lock()
                .expect("a monitor lock is only poisoned by a panic in observe")
                .observe(faults);
        };
        if timed {
            trace::timed(Layer::Observe, observe);
        } else {
            observe();
        }
    }));
    monitor
}

/// The outcome as `run_batch` summarizes it, plus the processes the run
/// ever suspected.
fn summarize(
    result: Result<RunReport<Value>, EngineError>,
) -> (Result<RunSummary, EngineError>, IdSet) {
    let crashed = result
        .as_ref()
        .map_or(IdSet::empty(), |r| r.pattern.cumulative_union());
    let summary = result.map(|report| RunSummary {
        outputs: report
            .decisions
            .iter()
            .map(|d| d.as_ref().map(|&(v, round)| (v, round.get())))
            .collect(),
        rounds_executed: report.rounds_executed,
    });
    (summary, crashed)
}

fn verdict(monitor: Option<Monitor>) -> (Option<InstanceConformance>, u64) {
    let Some(monitor) = monitor else {
        return (None, 0);
    };
    let monitor = monitor
        .lock()
        .expect("a monitor lock is only poisoned by a panic in observe");
    let verdict = monitor.verdict();
    let conformance = InstanceConformance {
        strongest: verdict
            .strongest_satisfied()
            .map(|s| (s.name.clone(), s.rank)),
        violations: verdict
            .statuses
            .iter()
            .filter_map(|s| s.first_violation.map(|r| (s.name.clone(), r.get())))
            .collect(),
    };
    (Some(conformance), monitor.compiled_evals())
}

/// Dismantles a finished (or never started) run into a [`Ran`]; runs
/// after the instance's clock has stopped.
fn finish<M>(
    finished: Result<FinishedRun<Value, M>, EngineError>,
    monitor: Option<Monitor>,
    rounds: u32,
    wall_ns: u64,
) -> Ran {
    let (result, trace) = match finished {
        Ok(f) => (f.result, f.trace),
        Err(e) => (Err(e), None),
    };
    let (conformance, compiled_evals) = verdict(monitor);
    let (outcome, crashed) = summarize(result);
    Ran {
        class: 0,
        outcome,
        conformance,
        compiled_evals,
        rounds,
        crashed,
        trace,
        wall_ns,
    }
}

/// The plain path: exactly what a caller of the public engine API does.
fn run_plain<C: InstanceClass>(class: &C, engine: &Engine, id: u64, mode: Mode) -> Ran {
    let start = Instant::now();
    let (protocols, detector, model) = class.build(id);
    let started = if mode.capture {
        engine.start_traced(protocols, detector, model)
    } else {
        engine.start(protocols, detector, model)
    };
    let (finished, monitor, rounds) = match started {
        Ok(mut run) => {
            run.set_instance(id);
            let monitor = mode
                .monitored
                .then(|| attach_monitor(&mut run, class.system_size(), false));
            let finished = run.run_to_completion();
            let rounds = finished.result.as_ref().map_or(0, |r| r.rounds_executed);
            (Ok(finished), monitor, rounds)
        }
        Err(e) => (Err(e), None, 0),
    };
    finish(finished, monitor, rounds, start.elapsed().as_nanos() as u64)
}

/// The timed path: the same calls, each recorded as a span, with the
/// protocols, adversary and model wrapped in forwarding shims. The run is
/// stepped explicitly so every `step` is its own span.
fn run_timed<C: InstanceClass>(class: &C, engine: &Engine, id: u64, mode: Mode) -> Ran {
    let start = Instant::now();
    trace::set_instance(id);
    let root = trace::enter(Layer::Instance);
    let (protocols, detector, model) = trace::timed(Layer::Build, || class.build(id));
    let protocols: Vec<TimedProtocol<C::P>> = protocols.into_iter().map(TimedProtocol).collect();
    let (detector, model) = (TimedDetector(detector), TimedModel(model));
    let started = trace::timed(Layer::Start, || {
        if mode.capture {
            engine.start_traced(protocols, detector, model)
        } else {
            engine.start(protocols, detector, model)
        }
    });
    let (finished, monitor, rounds) = match started {
        Ok(mut run) => {
            run.set_instance(id);
            let monitor = mode
                .monitored
                .then(|| attach_monitor(&mut run, class.system_size(), true));
            while trace::timed(Layer::Step, || run.step()) == EngineStep::Running {}
            let rounds = run.rounds_executed();
            (Ok(run.run_to_completion()), monitor, rounds)
        }
        Err(e) => (Err(e), None, 0),
    };
    trace::exit(root);
    finish(finished, monitor, rounds, start.elapsed().as_nanos() as u64)
}

/// The engines of one mix, one per class, as the pool configures them.
#[must_use]
pub fn engines(mix: &MixSpec) -> Vec<Engine> {
    mix.classes()
        .iter()
        .map(|spec| Engine::new(spec.n).max_rounds(spec.max_rounds()))
        .collect()
}

/// Runs instance `id` of `mix` under batch seed `seed`.
#[must_use]
pub fn run_instance(mix: &MixSpec, engines: &[Engine], seed: u64, id: u64, mode: Mode) -> Ran {
    let class = mix.class_of(id);
    let engine = &engines[class];
    let mut ran = with_class!(mix.classes()[class], seed, |c| if mode.timed {
        run_timed(&c, engine, id, mode)
    } else {
        run_plain(&c, engine, id, mode)
    });
    ran.class = class;
    ran
}

/// Checks one instance's outcome against its class's task: k-set
/// agreement (consensus for `sconsensus` and `early`) with validity
/// against `instance_input`, every process deciding; `stall` instances
/// must end in `RoundLimitExceeded` at their budget. In the crash-model
/// classes (`floodmin`, `early`) only processes never suspected in the
/// run (`crashed` holds the others) are held to agreement and validity,
/// as in the protocols' own tests: a crashed process may decide anything.
///
/// # Errors
///
/// A description of what is wrong.
pub fn check_instance(
    spec: &ClassSpec,
    seed: u64,
    id: u64,
    outcome: &Result<RunSummary, EngineError>,
    crashed: IdSet,
) -> Result<(), String> {
    match (spec.kind, outcome) {
        (ClassKind::Stall, Err(EngineError::RoundLimitExceeded { max_rounds }))
            if *max_rounds == spec.stall_rounds =>
        {
            Ok(())
        }
        (ClassKind::Stall, other) => Err(format!(
            "instance {id} ({spec}) should hit its round limit, got {other:?}"
        )),
        (_, Err(e)) => Err(format!("instance {id} ({spec}) errored: {e}")),
        (kind, Ok(summary)) => {
            if let Some(p) = summary.outputs.iter().position(Option::is_none) {
                return Err(format!("instance {id} ({spec}): p{p} never decided"));
            }
            let (k, crash_model) = match kind {
                ClassKind::KSet => (spec.k, false),
                ClassKind::FloodMin => (spec.k, true),
                ClassKind::Early => (1, true),
                _ => (1, false),
            };
            let inputs: Vec<Value> = (0..spec.n.get())
                .map(|p| instance_input(seed, id, p))
                .collect();
            let outputs: Vec<Option<Value>> = summary
                .outputs
                .iter()
                .enumerate()
                .map(|(p, o)| {
                    o.map(|(v, _)| v)
                        .filter(|_| !(crash_model && crashed.contains(ProcessId::new(p))))
                })
                .collect();
            KSetAgreement::new(k)
                .check(&inputs, &outputs)
                .map_err(|v| format!("instance {id} ({spec}): {v}"))
        }
    }
}

/// `true` when rank `b` is weaker than rank `a`: larger ranks are weaker
/// and `-1` (nothing satisfied) is weakest.
fn weaker(a: i64, b: i64) -> bool {
    match (a, b) {
        (-1, _) => false,
        (_, -1) => true,
        _ => b > a,
    }
}

/// The one-at-a-time pass folded the way `BatchReport` folds a batch.
#[derive(Debug, Clone)]
pub struct Fold {
    classes: Vec<ClassTotals>,
    conformance: Vec<ClassConformance>,
    instances: Vec<u64>,
}

impl Fold {
    /// An empty fold over `mix`'s classes.
    #[must_use]
    pub fn new(mix: &MixSpec) -> Self {
        let classes: Vec<ClassTotals> = mix
            .classes()
            .iter()
            .map(|spec| ClassTotals {
                class: spec.to_string(),
                ..ClassTotals::default()
            })
            .collect();
        let conformance = classes
            .iter()
            .map(|c| ClassConformance {
                class: c.class.clone(),
                instances: 0,
                clean: 0,
                worst_rank: 0,
                worst_name: None,
            })
            .collect();
        Fold {
            instances: vec![0; classes.len()],
            classes,
            conformance,
        }
    }

    /// Adds one instance.
    pub fn absorb(&mut self, ran: &Ran) {
        let i = ran.class;
        self.instances[i] += 1;
        let totals = &mut self.classes[i];
        match &ran.outcome {
            Ok(summary) => {
                totals.completed += 1;
                totals.rounds += u64::from(summary.rounds_executed);
            }
            Err(_) => totals.errored += 1,
        }
        if let Some(summary) = &ran.conformance {
            let acc = &mut self.conformance[i];
            let (rank, name) = summary
                .strongest
                .as_ref()
                .map_or((-1, None), |(n, r)| (*r as i64, Some(n.clone())));
            if acc.instances == 0 || weaker(acc.worst_rank, rank) {
                acc.worst_rank = rank;
                acc.worst_name = name;
            }
            acc.instances += 1;
            if summary.violations.is_empty() {
                acc.clean += 1;
            }
        }
    }

    /// Per-class conformance, as `BatchReport::conformance` lists it
    /// (classes without monitored instances omitted).
    #[must_use]
    pub fn conformance(&self) -> Vec<ClassConformance> {
        self.conformance
            .iter()
            .filter(|c| c.instances > 0)
            .cloned()
            .collect()
    }

    /// The class indices whose totals or conformance fold differ between
    /// this pass and `report`, with the instance count behind each.
    #[must_use]
    pub fn mismatches(&self, report: &BatchReport) -> Vec<(usize, u64)> {
        let ours = self.conformance();
        (0..self.classes.len())
            .filter(|&i| {
                let name = &self.classes[i].class;
                let conf =
                    |list: &[ClassConformance]| list.iter().find(|c| &c.class == name).cloned();
                report.classes.get(i) != Some(&self.classes[i])
                    || conf(&report.conformance) != conf(&ours)
            })
            .map(|i| (i, self.instances[i]))
            .collect()
    }
}

/// One batch seed per iteration, derived from the workload seed.
fn batch_seed(seed: u64, iteration: u64) -> u64 {
    splitmix64(seed ^ splitmix64(iteration))
}

/// Runs instances `0..count` one at a time, checking each and folding
/// the pass. Returns the per-instance results and the pass's wall time.
fn one_at_a_time(
    spec: &PoolSpec,
    engines: &[Engine],
    seed: u64,
    count: u64,
    mode: Mode,
    out: &mut Outcome,
) -> (Vec<Ran>, Fold, u64) {
    let mut fold = Fold::new(&spec.mix);
    let mut runs = Vec::with_capacity(count as usize);
    let start = Instant::now();
    for id in 0..count {
        runs.push(run_instance(&spec.mix, engines, seed, id, mode));
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    for (id, ran) in (0u64..).zip(&runs) {
        out.attempted += 1;
        let spec_of = &spec.mix.classes()[ran.class];
        if let Err(why) = check_instance(spec_of, seed, id, &ran.outcome, ran.crashed) {
            out.fail(1, why);
        }
        fold.absorb(ran);
    }
    (runs, fold, wall_ns)
}

/// Runs `run_batch` over instances `0..count`; returns the report and
/// its wall time.
fn timed_batch(spec: &PoolSpec, shards: usize, seed: u64, count: u64) -> (BatchReport, u64) {
    let start = Instant::now();
    let report = run_batch(&spec.mix, count, &spec.config(shards, seed));
    (report, start.elapsed().as_nanos() as u64)
}

/// Fails every instance of a class whose `run_batch` totals or
/// conformance fold differ from the one-at-a-time pass.
fn check_batch(
    spec: &PoolSpec,
    fold: &Fold,
    report: &BatchReport,
    shards: usize,
    seed: u64,
    out: &mut Outcome,
) {
    for (class, instances) in fold.mismatches(report) {
        out.fail(
            instances,
            format!(
                "run_batch at {shards} shard(s), seed {seed}: class {} differs from the \
                 one-at-a-time pass",
                spec.mix.classes()[class]
            ),
        );
    }
}

/// Runs `run_batch` and checks it against the one-at-a-time fold.
/// Returns its wall time.
fn batch_checked(
    spec: &PoolSpec,
    shards: usize,
    seed: u64,
    count: u64,
    fold: &Fold,
    out: &mut Outcome,
) -> u64 {
    let (report, wall_ns) = timed_batch(spec, shards, seed, count);
    check_batch(spec, fold, &report, shards, seed, out);
    wall_ns
}

/// Set-up: engines, then one checked warm-up iteration at a tenth of the
/// batch, which also fills caches before timing.
fn setup(spec: &PoolSpec, ctx: &Ctx, out: &mut Outcome) -> Vec<Engine> {
    let start = Instant::now();
    let engines = engines(&spec.mix);
    let mode = Mode {
        monitored: spec.monitored,
        timed: false,
        capture: false,
    };
    let seed = batch_seed(ctx.seed, u64::MAX);
    let warm = spec.batch / 10;
    let (_, fold, _) = one_at_a_time(spec, &engines, seed, warm, mode, out);
    batch_checked(spec, ctx.threads, seed, warm, &fold, out);
    out.setup_s.push(start.elapsed().as_secs_f64());
    engines
}

/// Runs a pool workload for `ctx.measure` and reports its metrics.
///
/// # Errors
///
/// None today; the signature matches the other workloads.
pub fn run(spec: &PoolSpec, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let engines = setup(spec, ctx, &mut out);
    let mut setups = Setups::after_first(ctx.measure);
    if ctx.traced {
        measure_traced(spec, ctx, &engines, &mut setups, &mut out);
    } else {
        measure(spec, ctx, &engines, &mut setups, &mut out);
    }
    for _ in 0..setups.owed() {
        setup(spec, ctx, &mut out);
    }
    Ok(out)
}

fn measure(spec: &PoolSpec, ctx: &Ctx, engines: &[Engine], setups: &mut Setups, out: &mut Outcome) {
    let mode = Mode {
        monitored: spec.monitored,
        timed: false,
        capture: false,
    };
    let mut latencies = Reservoir::new(LATENCY_SAMPLES, ctx.seed);
    let mut rates = Vec::new();
    let deadline = Instant::now() + ctx.measure;
    let mut iteration = 0u64;
    while Instant::now() < deadline {
        if setups.due() {
            setup(spec, ctx, out);
        }
        let seed = batch_seed(ctx.seed, iteration);
        // Alternate which pass goes first so drift hits both alike.
        let ((report, batch_ns), (runs, fold, _)) = if iteration % 2 == 1 {
            let batch = timed_batch(spec, ctx.threads, seed, spec.batch);
            (
                batch,
                one_at_a_time(spec, engines, seed, spec.batch, mode, out),
            )
        } else {
            let pass = one_at_a_time(spec, engines, seed, spec.batch, mode, out);
            (timed_batch(spec, ctx.threads, seed, spec.batch), pass)
        };
        check_batch(spec, &fold, &report, ctx.threads, seed, out);
        for ran in &runs {
            latencies.push(ran.wall_ns);
        }
        rates.push(spec.batch as f64 / (batch_ns.max(1) as f64 / 1e9));
        iteration += 1;
    }
    out.throughput(&rates, "run_batch calls");
    out.latency_tail(&latencies.sorted(), TAIL, "sampled instances");
    out.notes.push(format!(
        "{iteration} iterations of {} instances, each run one at a time and by run_batch at \
         {} shards; tail sampled from {} instances",
        spec.batch,
        ctx.threads,
        latencies.seen(),
    ));
}

/// Span totals summed over every traced iteration.
#[derive(Debug, Default)]
struct LayerTotals {
    instances: u64,
    rounds: u64,
    compiled_evals: u64,
    build: u64,
    start: u64,
    step: u64,
    step_self: u64,
    emit: u64,
    deliver: u64,
    next_round: u64,
    admits: u64,
    observe: u64,
    heard: u64,
    suspicions: u64,
}

impl LayerTotals {
    fn absorb(&mut self, rec: &Recording, runs: &[Ran]) {
        self.instances += runs.len() as u64;
        self.rounds += runs.iter().map(|r| u64::from(r.rounds)).sum::<u64>();
        self.compiled_evals += runs.iter().map(|r| r.compiled_evals).sum::<u64>();
        self.build += rec.total(Layer::Build);
        self.start += rec.total(Layer::Start);
        self.step += rec.total(Layer::Step);
        self.step_self += rec.self_total(Layer::Step);
        self.emit += rec.total(Layer::Emit);
        self.deliver += rec.total(Layer::Deliver);
        self.next_round += rec.total(Layer::NextRound);
        self.admits += rec.total(Layer::Admits);
        self.observe += rec.total(Layer::Observe);
        self.heard += rec.counts.heard;
        self.suspicions += rec.counts.suspicions;
    }
}

fn measure_traced(
    spec: &PoolSpec,
    ctx: &Ctx,
    engines: &[Engine],
    setups: &mut Setups,
    out: &mut Outcome,
) {
    let plain = Mode {
        monitored: spec.monitored,
        timed: false,
        capture: false,
    };
    let timed = Mode {
        timed: true,
        ..plain
    };
    let count = spec.traced_batch;
    let mut totals = LayerTotals::default();
    let (mut overhead, mut batch_over_loop, mut shard_scaling) =
        (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.measure;
    let mut iteration = 0u64;
    while Instant::now() < deadline {
        if setups.due() {
            setup(spec, ctx, out);
        }
        let seed = batch_seed(ctx.seed, iteration);
        trace::begin();
        let (timed_runs, timed_fold, timed_ns) =
            one_at_a_time(spec, engines, seed, count, timed, out);
        let rec = trace::end();
        let (plain_runs, plain_fold, plain_ns) =
            one_at_a_time(spec, engines, seed, count, plain, out);
        for (a, b) in timed_runs.iter().zip(&plain_runs) {
            if a.outcome != b.outcome || a.conformance != b.conformance {
                out.fail(
                    1,
                    format!(
                        "seed {seed}: a wrapped instance decided differently from the plain one"
                    ),
                );
            }
        }
        let one_ns = batch_checked(spec, 1, seed, count, &plain_fold, out);
        let many_ns = batch_checked(spec, ctx.threads, seed, count, &timed_fold, out);
        totals.absorb(&rec, &timed_runs);
        out.spans = Some(rec);
        overhead.push(timed_ns as f64 / plain_ns.max(1) as f64);
        batch_over_loop.push(one_ns as f64 / plain_ns.max(1) as f64);
        shard_scaling.push(one_ns as f64 / many_ns.max(1) as f64);
        iteration += 1;
    }
    let per = |total: u64, base: u64| total as f64 / base.max(1) as f64;
    let t = &totals;
    out.metric("mix.build_ns_per_instance", per(t.build, t.instances));
    out.metric("engine.start_ns_per_instance", per(t.start, t.instances));
    out.metric("engine.step_ns_per_round", per(t.step, t.rounds));
    out.metric("engine.self_ns_per_round", per(t.step_self, t.rounds));
    out.metric("engine.rounds_per_instance", per(t.rounds, t.instances));
    out.metric("protocol.emit_ns_per_round", per(t.emit, t.rounds));
    out.metric("protocol.deliver_ns_per_round", per(t.deliver, t.rounds));
    out.metric("protocol.heard_per_round", per(t.heard, t.rounds));
    out.metric(
        "adversary.next_round_ns_per_round",
        per(t.next_round, t.rounds),
    );
    out.metric(
        "adversary.suspicions_per_round",
        per(t.suspicions, t.rounds),
    );
    out.metric("model.admits_ns_per_round", per(t.admits, t.rounds));
    out.metric("monitor.observe_ns_per_round", per(t.observe, t.rounds));
    out.metric(
        "monitor.compiled_evals_per_round",
        per(t.compiled_evals, t.rounds),
    );
    out.metric("pool.batch_over_loop", stats::median_of(&batch_over_loop));
    out.metric("pool.shard_scaling", stats::median_of(&shard_scaling));
    out.metric("trace.overhead_ratio", stats::median_of(&overhead));
    let children = t.emit + t.deliver + t.next_round + t.admits + t.observe;
    out.notes.push(format!(
        "engine.step = self + children: {} ns = {} ns + {} ns over {} rounds of {} instances \
         in {iteration} traced iterations",
        t.step, t.step_self, children, t.rounds, t.instances
    ));
    if children + t.step_self != t.step {
        out.fail(
            1,
            "step spans do not decompose into self time plus children".to_owned(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_mixes() -> Vec<PoolSpec> {
        vec![
            PoolSpec::pool_mix().expect("default mix"),
            PoolSpec::wide_monitored().expect("wide mix"),
        ]
    }

    /// The first `per_class` instance ids of every class of `mix`.
    fn ids_per_class(mix: &MixSpec, per_class: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        for class in 0..mix.classes().len() {
            ids.extend(
                (0u64..)
                    .filter(|&id| mix.class_of(id) == class)
                    .take(per_class),
            );
        }
        ids
    }

    #[test]
    fn wrapped_runs_are_byte_identical_to_start_traced() {
        for spec in both_mixes() {
            let engines = engines(&spec.mix);
            let seed = 11;
            for id in ids_per_class(&spec.mix, 3) {
                let plain = run_instance(
                    &spec.mix,
                    &engines,
                    seed,
                    id,
                    Mode {
                        monitored: false,
                        timed: false,
                        capture: true,
                    },
                );
                trace::begin();
                let wrapped = run_instance(
                    &spec.mix,
                    &engines,
                    seed,
                    id,
                    Mode {
                        monitored: true,
                        timed: true,
                        capture: true,
                    },
                );
                let rec = trace::end();
                let class = &spec.mix.classes()[plain.class];
                let text = |r: &Ran| r.trace.as_ref().map(ToString::to_string);
                assert!(text(&plain).is_some(), "{class}: trace captured");
                assert_eq!(text(&wrapped), text(&plain), "{class} instance {id}");
                assert_eq!(wrapped.outcome, plain.outcome, "{class} instance {id}");
                assert_eq!(rec.count(Layer::Instance), 1);
                // A decided run finishes on its last round's step, a stalled one
                // on the step after.
                assert!(rec.count(Layer::Step) >= plain.rounds as usize);
                assert!(rec.count(Layer::Observe) >= plain.rounds as usize);
            }
        }
    }

    #[test]
    fn own_monitor_fold_equals_run_batch_conformance() {
        for spec in both_mixes() {
            let engines = engines(&spec.mix);
            let count = 60;
            let mut out = Outcome::default();
            let mode = Mode {
                monitored: true,
                timed: false,
                capture: false,
            };
            let (_, fold, _) = one_at_a_time(&spec, &engines, 5, count, mode, &mut out);
            let report = run_batch(&spec.mix, count, &spec.config(2, 5).conformance(true));
            assert!(!report.conformance.is_empty());
            assert_eq!(fold.conformance(), report.conformance);
            assert_eq!(fold.classes, report.classes);
            assert!(fold.mismatches(&report).is_empty());
            assert_eq!((out.attempted, out.failed), (count, 0), "{:?}", out.notes);
        }
    }

    #[test]
    fn a_mismatched_batch_is_reported() {
        let spec = PoolSpec::pool_mix().expect("default mix");
        let engines = engines(&spec.mix);
        let mut out = Outcome::default();
        let (_, fold, _) = one_at_a_time(
            &spec,
            &engines,
            5,
            40,
            Mode {
                monitored: false,
                timed: false,
                capture: false,
            },
            &mut out,
        );
        let mut report = run_batch(&spec.mix, 40, &spec.config(1, 5));
        assert!(fold.mismatches(&report).is_empty());
        report.classes[0].rounds += 1;
        assert_eq!(fold.mismatches(&report), vec![(0, fold.instances[0])]);
    }

    #[test]
    fn the_checker_rejects_k_plus_one_distinct_decisions() {
        let mix = MixSpec::parse("kset:n=8:k=2").expect("kset mix");
        let spec = mix.classes()[0];
        let (seed, id) = (3, 0);
        let inputs: Vec<Value> = (0..8).map(|p| instance_input(seed, id, p)).collect();
        let mut distinct = inputs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > spec.k,
            "the inputs offer k + 1 distinct values"
        );
        let decide = |values: &[Value]| -> Result<RunSummary, EngineError> {
            Ok(RunSummary {
                outputs: (0..8)
                    .map(|p| Some((values[p % values.len()], 1)))
                    .collect(),
                rounds_executed: 1,
            })
        };
        // k distinct inputs decided: accepted.
        assert!(check_instance(
            &spec,
            seed,
            id,
            &decide(&distinct[..spec.k]),
            IdSet::empty()
        )
        .is_ok());
        // k + 1 distinct inputs decided: rejected.
        assert!(check_instance(
            &spec,
            seed,
            id,
            &decide(&distinct[..=spec.k]),
            IdSet::empty()
        )
        .is_err());
        // A value nobody proposed: rejected.
        assert!(check_instance(&spec, seed, id, &decide(&[1000]), IdSet::empty()).is_err());
        // A process that never decided: rejected.
        let mut partial = decide(&distinct[..1]).expect("ok");
        partial.outputs[3] = None;
        assert!(check_instance(&spec, seed, id, &Ok(partial), IdSet::empty()).is_err());
        // An engine error on a deciding class: rejected.
        let limit = Err(EngineError::RoundLimitExceeded { max_rounds: 4 });
        assert!(check_instance(&spec, seed, id, &limit, IdSet::empty()).is_err());
        // ...but it is the expected end of a stall instance.
        let stall = MixSpec::parse("stall:n=4:rounds=4")
            .expect("stall mix")
            .classes()[0];
        assert!(check_instance(&stall, seed, id, &limit, IdSet::empty()).is_ok());
        assert!(check_instance(&stall, seed, id, &decide(&[1]), IdSet::empty()).is_err());
    }

    #[test]
    fn crash_model_classes_hold_only_unsuspected_processes_to_agreement() {
        let early = MixSpec::parse("early:n=4:f=1")
            .expect("early mix")
            .classes()[0];
        let (seed, id) = (3, 1);
        let inputs: Vec<Value> = (0..4).map(|p| instance_input(seed, id, p)).collect();
        let mut distinct = inputs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 2, "the inputs offer two distinct values");
        // p3 decides differently from everyone else.
        let outputs = (0..4)
            .map(|p| Some((distinct[usize::from(p == 3)], 2)))
            .collect();
        let split = Ok(RunSummary {
            outputs,
            rounds_executed: 2,
        });
        let p3: IdSet = [ProcessId::new(3)].into_iter().collect();
        assert!(check_instance(&early, seed, id, &split, p3).is_ok());
        assert!(check_instance(&early, seed, id, &split, IdSet::empty()).is_err());
        // Consensus classes outside the crash model hold everyone.
        let scons = MixSpec::parse("sconsensus:n=4").expect("mix").classes()[0];
        assert!(check_instance(&scons, seed, id, &split, p3).is_err());
    }

    #[test]
    fn every_class_of_both_mixes_passes_its_check() {
        for spec in both_mixes() {
            let engines = engines(&spec.mix);
            let mut out = Outcome::default();
            let mode = Mode {
                monitored: spec.monitored,
                timed: false,
                capture: false,
            };
            one_at_a_time(&spec, &engines, 9, 90, mode, &mut out);
            assert_eq!(out.failed, 0, "{:?}", out.notes);
        }
    }
}
