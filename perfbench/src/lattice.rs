//! The lattice workloads: `lattice_cold` and `lattice_warm`.
//!
//! One operation is what `rrfd-analyze lattice --check` does for the zoo
//! at n = 3, f = 1, depth 4: compute the implication lattice with
//! `compute_with_memo`, render the witness memo and the markdown table,
//! and compare the table with the block committed in `EXPERIMENTS.md`.
//! The cold half starts without a memo; the warm half first parses the
//! cold memo text and seeds the computation with it, and must reproduce
//! that text byte for byte.

use crate::stats;
use crate::trace::{self, Layer};
use crate::{Ctx, Outcome, Setups};
use rrfd_analyze::lattice::{zoo, SharedPredicate};
use rrfd_analyze::memo::{compute_with_memo, fingerprint, LatticeMemo, MemoStats};
use rrfd_core::SystemSize;
use rrfd_models::zoo::compile_family;
use std::time::Instant;

/// System size of the checked zoo.
const N: usize = 3;
/// Resilience of the checked zoo.
const F: usize = 1;
/// Search depth: every fault pattern with at most this many rounds.
const DEPTH: u32 = 4;
/// Where the committed lattice block lives, relative to the repository root.
const EXPERIMENTS: &str = "EXPERIMENTS.md";
/// Tail percentiles: a cold check takes ~20 ms, so a run has hundreds,
/// not the thousand a p99 needs; a warm check takes ~2 ms.
const TAIL_COLD: f64 = 90.0;
const TAIL_WARM: f64 = 99.0;
const BEGIN: &str = "<!-- lattice:begin -->";
const END: &str = "<!-- lattice:end -->";

/// Which half of the check a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// No prior memo: every pair is searched.
    Cold,
    /// Seeded with the cold memo: pairs are reused and re-verified.
    Warm,
}

/// The text between the lattice markers of `experiments`.
///
/// # Errors
///
/// When a marker is missing.
pub fn committed_block(experiments: &str) -> Result<String, String> {
    let (_, rest) = experiments
        .split_once(BEGIN)
        .ok_or_else(|| format!("{EXPERIMENTS} has no `{BEGIN}` marker"))?;
    let (inside, _) = rest
        .split_once(END)
        .ok_or_else(|| format!("{EXPERIMENTS} has no `{END}` marker"))?;
    Ok(inside.to_owned())
}

/// `true` when `markdown` is exactly the committed block, as
/// `lattice --check` compares it.
#[must_use]
pub fn block_matches(markdown: &str, committed: &str) -> bool {
    committed.strip_prefix('\n') == Some(markdown)
}

/// Everything an operation needs.
struct Prepared {
    family: Vec<SharedPredicate>,
    committed: String,
    cold_memo: String,
}

/// What one operation produced.
struct Checked {
    markdown: String,
    memo: String,
    stats: MemoStats,
}

/// One operation. With `timed`, each public call is a span.
fn operation(half: Half, prep: &Prepared, timed: bool) -> Result<Checked, String> {
    let span = |layer: Layer| {
        if timed {
            trace::enter(layer)
        } else {
            trace::NO_PARENT
        }
    };
    let close = |handle: u32| {
        if timed {
            trace::exit(handle);
        }
    };
    let root = span(Layer::Check);
    let prior = match half {
        Half::Cold => None,
        Half::Warm => {
            let h = span(Layer::MemoParse);
            let parsed = LatticeMemo::parse(&prep.cold_memo);
            close(h);
            Some(parsed.ok_or("the cold memo text does not parse")?)
        }
    };
    let h = span(Layer::Compute);
    let (lattice, memo, stats) = compute_with_memo(&prep.family, DEPTH, prior.as_ref());
    close(h);
    let h = span(Layer::MemoRender);
    let memo = memo.render();
    close(h);
    let h = span(Layer::Markdown);
    let markdown = lattice.render_markdown();
    close(h);
    close(root);
    Ok(Checked {
        markdown,
        memo,
        stats,
    })
}

/// Checks one operation's output; returns why it is wrong.
fn check(half: Half, prep: &Prepared, got: &Checked) -> Option<String> {
    if !block_matches(&got.markdown, &prep.committed) {
        return Some(format!(
            "the lattice differs from the block in {EXPERIMENTS}"
        ));
    }
    if !prep.cold_memo.is_empty() && got.memo != prep.cold_memo {
        return Some("the memo is not byte-identical to the cold memo".to_owned());
    }
    let s = got.stats;
    let expected = match half {
        Half::Cold => (0, s.pairs),
        Half::Warm => (s.pairs, 0),
    };
    ((s.hits, s.misses) != expected).then(|| {
        format!(
            "{half:?} run reused {} and searched {} of {} pairs",
            s.hits, s.misses, s.pairs
        )
    })
}

fn run_checked(half: Half, prep: &Prepared, timed: bool, out: &mut Outcome) -> Option<Checked> {
    out.attempted += 1;
    match operation(half, prep, timed) {
        Ok(got) => {
            if let Some(why) = check(half, prep, &got) {
                out.fail(1, why);
            }
            Some(got)
        }
        Err(why) => {
            out.fail(1, why);
            None
        }
    }
}

/// Set-up: read the committed block, build the zoo, and run one checked
/// cold operation, whose memo the warm half starts from (and every later
/// operation must reproduce).
fn setup(half: Half, out: &mut Outcome) -> Result<Prepared, String> {
    let start = Instant::now();
    let experiments = std::fs::read_to_string(EXPERIMENTS)
        .map_err(|e| format!("cannot read {EXPERIMENTS} (run from the repository root): {e}"))?;
    let n = SystemSize::new(N).map_err(|e| e.to_string())?;
    let mut prep = Prepared {
        family: zoo(n, F),
        committed: committed_block(&experiments)?,
        cold_memo: String::new(),
    };
    let cold = run_checked(Half::Cold, &prep, false, out).ok_or("the cold check failed")?;
    prep.cold_memo = cold.memo;
    if half == Half::Warm {
        run_checked(Half::Warm, &prep, false, out);
    }
    out.setup_s.push(start.elapsed().as_secs_f64());
    Ok(prep)
}

/// Runs a lattice workload for `ctx.measure` and reports its metrics.
///
/// # Errors
///
/// When `EXPERIMENTS.md` cannot be read or has no lattice block, or the
/// set-up's cold check fails outright.
pub fn run(half: Half, ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = setup(half, &mut out)?;
    let mut setups = Setups::after_first(ctx.measure);
    if ctx.traced {
        measure_traced(half, ctx, &prep, &mut setups, &mut out)?;
    } else {
        measure(half, ctx, &prep, &mut setups, &mut out)?;
    }
    for _ in 0..setups.owed() {
        setup(half, &mut out)?;
    }
    Ok(out)
}

fn measure(
    half: Half,
    ctx: &Ctx,
    prep: &Prepared,
    setups: &mut Setups,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut times = Vec::new();
    let deadline = Instant::now() + ctx.measure;
    while Instant::now() < deadline {
        if setups.due() {
            setup(half, out)?;
        }
        let start = Instant::now();
        let got = operation(half, prep, false);
        times.push(start.elapsed().as_nanos() as f64);
        out.attempted += 1;
        match got {
            Ok(got) => {
                if let Some(why) = check(half, prep, &got) {
                    out.fail(1, why);
                }
            }
            Err(why) => out.fail(1, why),
        }
    }
    let tail = match half {
        Half::Cold => TAIL_COLD,
        Half::Warm => TAIL_WARM,
    };
    out.operations(&times, tail, "lattice checks");
    Ok(())
}

fn measure_traced(
    half: Half,
    ctx: &Ctx,
    prep: &Prepared,
    setups: &mut Setups,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut compile = Vec::new();
    let mut prints = Vec::new();
    let mut walk = Vec::new();
    let mut markdown = Vec::new();
    let mut parse = Vec::new();
    let mut render = Vec::new();
    let mut overhead = Vec::new();
    let mut memo_stats = None;
    let deadline = Instant::now() + ctx.measure;
    let mut iteration = 0u64;
    while Instant::now() < deadline {
        if setups.due() {
            setup(half, out)?;
        }
        trace::begin();
        trace::set_instance(iteration);
        let programs = trace::timed(Layer::Compile, || compile_family(&prep.family));
        let fingerprints = trace::timed(Layer::Fingerprint, || {
            prep.family
                .iter()
                .map(|p| fingerprint(p.as_ref()))
                .collect::<Vec<u64>>()
        });
        let got = run_checked(half, prep, true, out);
        let rec = trace::end();
        let start = Instant::now();
        run_checked(half, prep, false, out);
        let plain_ns = start.elapsed().as_nanos() as f64;
        if programs.iter().any(Option::is_none) || fingerprints.len() != prep.family.len() {
            out.fail(1, "a zoo predicate declined to compile".to_owned());
        }
        let (c, f) = (
            rec.total(Layer::Compile) as f64,
            rec.total(Layer::Fingerprint) as f64,
        );
        compile.push(c);
        prints.push(f);
        walk.push((rec.total(Layer::Compute) as f64 - c - f).max(0.0));
        markdown.push(rec.total(Layer::Markdown) as f64);
        parse.push(rec.total(Layer::MemoParse) as f64);
        render.push(rec.total(Layer::MemoRender) as f64);
        overhead.push(rec.total(Layer::Check) as f64 / plain_ns.max(1.0));
        memo_stats = got.map(|g| g.stats).or(memo_stats);
        out.spans = Some(rec);
        iteration += 1;
    }
    out.metric("lattice.compile_ns", stats::median_of(&compile));
    out.metric("lattice.fingerprint_ns", stats::median_of(&prints));
    out.metric("lattice.walk_ns", stats::median_of(&walk));
    out.metric("lattice.render_ns", stats::median_of(&markdown));
    if half == Half::Warm {
        out.metric("memo.parse_ns", stats::median_of(&parse));
    }
    out.metric("memo.render_ns", stats::median_of(&render));
    if let Some(s) = memo_stats {
        out.metric("memo.hits", s.hits as f64);
        out.metric("memo.misses", s.misses as f64);
    }
    out.metric("trace.overhead_ratio", stats::median_of(&overhead));
    out.notes.push(format!(
        "{iteration} traced iterations; per-layer times are medians"
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../",
            "EXPERIMENTS.md"
        ))
        .expect("EXPERIMENTS.md is committed next to the benchmark");
        committed_block(&text).expect("the lattice block is committed")
    }

    #[test]
    fn the_committed_block_passes_and_one_flipped_cell_fails() {
        let block = committed();
        let markdown = block
            .strip_prefix('\n')
            .expect("block starts on a new line");
        assert!(block_matches(markdown, &block));
        // Flip the first ✓ cell of the table to ×.
        let cell = markdown.find("| ✓ |").expect("the table has a ✓ cell");
        let mut flipped = markdown.to_owned();
        flipped.replace_range(cell..cell + "| ✓ |".len(), "| × |");
        assert_ne!(flipped, markdown);
        assert!(!block_matches(&flipped, &block));
    }

    #[test]
    fn missing_markers_are_errors() {
        assert!(committed_block("no markers here").is_err());
        assert!(committed_block("<!-- lattice:begin --> but no end").is_err());
        assert_eq!(
            committed_block("a<!-- lattice:begin -->\nX\n<!-- lattice:end -->b").as_deref(),
            Ok("\nX\n")
        );
    }

    #[test]
    fn the_checker_rejects_a_warm_memo_that_differs_from_the_cold_one() {
        let n = SystemSize::new(3).expect("size");
        let family = zoo(n, 1);
        let (lattice, memo, stats) = compute_with_memo(&family, 1, None);
        let mut prep = Prepared {
            family,
            committed: format!("\n{}", lattice.render_markdown()),
            cold_memo: memo.render(),
        };
        let good = Checked {
            markdown: lattice.render_markdown(),
            memo: memo.render(),
            stats,
        };
        assert_eq!(check(Half::Cold, &prep, &good), None);
        // A warm run that searched instead of reusing is caught...
        assert!(check(Half::Warm, &prep, &good).is_some());
        // ...and so is a memo that is not byte-identical.
        prep.cold_memo.push('\n');
        assert!(check(Half::Cold, &prep, &good).is_some());
    }
}
