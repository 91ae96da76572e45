#![warn(missing_docs)]
//! Shared helpers for the benchmark harness (the paper's §4 evaluation).
//!
//! The `figures` binary (`src/bin/figures.rs`) regenerates every table and
//! figure of the evaluation section — Figs. 16–22, Table IV, plus the
//! beyond-the-paper `threads` scaling figure for the morsel-driven parallel
//! engine — via [`time_query`] (median-of-N timings over a pre-loaded
//! database), and runs the CI perf gate on [`interleaved_minima`] and
//! [`bench_regressions`]. The Criterion benches under `benches/` provide
//! statistically robust timings for representative queries and for the
//! storage substrate's micro-operations. `EXPERIMENTS.md` records the
//! paper-vs-measured outcome of every figure.

use legobase::{LegoBase, Settings};
use std::time::{Duration, Instant};

/// Scale factor used by the harness; override with `LEGOBASE_SF`.
pub fn scale_factor() -> f64 {
    scale_factor_or(0.02)
}

/// `LEGOBASE_SF`, or `default` when it is unset or invalid.
pub fn scale_factor_or(default: f64) -> f64 {
    std::env::var("LEGOBASE_SF").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Number of timed repetitions; override with `LEGOBASE_RUNS`.
pub fn runs() -> usize {
    std::env::var("LEGOBASE_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Loads once, executes `runs()+1` times, returns the median-of-timed
/// execution duration (first run is warm-up).
pub fn time_query(system: &LegoBase, n: usize, settings: &Settings) -> Duration {
    time_plan(system, &system.plan(n), settings)
}

/// [`time_query`] for an arbitrary plan (the optimizer figure times naive,
/// optimized, and hand-built plans of the same query side by side).
pub fn time_plan(
    system: &LegoBase,
    plan: &legobase::engine::QueryPlan,
    settings: &Settings,
) -> Duration {
    let loaded = system.load(plan, settings);
    let _ = loaded.execute(); // warm-up
    let mut times: Vec<Duration> = (0..runs())
        .map(|_| {
            let t0 = Instant::now();
            let r = loaded.execute();
            let dt = t0.elapsed();
            std::hint::black_box(r.len());
            dt
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `run` on every item once per round, in order — one untimed warm-up
/// round, then timed ones until there were `max(runs(), 9)` of them and
/// they took a second — and returns each item's minimum time.
///
/// This is the measurement behind the CI perf gate. Scheduler noise only
/// ever adds time, so the minimum is the stable statistic; and because the
/// items alternate inside every round, a busy period on a shared box lands
/// on all of them instead of on a contiguous block, so the ratio of two
/// items' minima cancels the box's speed. Nine rounds of sub-millisecond
/// items fit inside one busy period; a second of them reaches past it
/// (EXPERIMENTS.md, "CI performance baseline").
pub fn interleaved_minima<T>(items: &[T], mut run: impl FnMut(&T)) -> Vec<Duration> {
    items.iter().for_each(&mut run);
    let mut best = vec![Duration::MAX; items.len()];
    let (start, min_rounds) = (Instant::now(), runs().max(9));
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < Duration::from_secs(1) {
        rounds += 1;
        for (best, item) in best.iter_mut().zip(items) {
            let t0 = Instant::now();
            run(item);
            *best = (*best).min(t0.elapsed());
        }
    }
    best
}

/// How far a ratio may grow over its baseline value before the gate fails
/// (+25%). The one threshold: every row is held to it, and a row that
/// cannot pass at it is dropped rather than given its own.
pub const THRESHOLD: f64 = 0.25;

/// The trajectory file's schema: ratio rows only, no absolute times.
const SCHEMA: &str = "legobase-bench-v2";

/// One row of the CI perf gate: a ratio of two measurements taken in the
/// same [`interleaved_minima`] round-robin, so the box's speed cancels.
#[derive(Debug, PartialEq)]
pub struct Ratio {
    /// `<numerator>/<denominator>`, e.g. `Q5-sql/hand`, `miss/hit`,
    /// `Q1-sf1/sf0.1`.
    pub row: String,
    /// Numerator ÷ denominator.
    pub ratio: f64,
}

impl Ratio {
    /// The ratio of two measurements in the same unit.
    pub fn new(row: impl Into<String>, numerator: f64, denominator: f64) -> Ratio {
        Ratio { row: row.into(), ratio: numerator / denominator }
    }
}

/// Serializes a gate run as `legobase-bench-v2` JSON — hand-rolled since
/// the build environment has no serde; one row per line, the layout
/// [`parse_bench_json`] reads back. A run's file *is* a baseline:
/// re-recording `bench/baseline.json` is copying it.
pub fn bench_json(scale_factor: f64, rows: &[Ratio]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| format!("    {{\"row\": \"{}\", \"ratio\": {:.4}}}", r.row, r.ratio))
        .collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"scale_factor\": {scale_factor},\n  \
         \"ratios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// The raw text of `"key": value` on one line, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line[line.find(&format!("\"{key}\":"))? + key.len() + 3..].trim_start();
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// Parses the rows back out of [`bench_json`]'s layout. A file of another
/// schema — notably a `legobase-bench-v1` baseline of absolute `min_ms`
/// rows — or a malformed or empty one is an error: the gate must fail
/// loudly, not compare the wrong quantities or pass silently.
pub fn parse_bench_json(text: &str) -> Result<Vec<Ratio>, String> {
    let schema = text.lines().find_map(|l| field(l, "schema")).unwrap_or("none");
    if schema != SCHEMA {
        return Err(format!(
            "schema `{schema}` is not `{SCHEMA}`; the gate compares ratios only, so re-record \
             the baseline by copying a `figures -- baseline` run's output"
        ));
    }
    let mut rows = Vec::new();
    for line in text.lines() {
        let Some(row) = field(line, "row") else { continue };
        let ratio = field(line, "ratio").and_then(|v| v.parse().ok());
        let Some(ratio) = ratio else { return Err(format!("row `{row}` has no ratio")) };
        rows.push(Ratio { row: row.to_string(), ratio });
    }
    if rows.is_empty() {
        return Err("no rows".into());
    }
    Ok(rows)
}

/// Compares a fresh run against a committed baseline and returns one
/// diagnostic line per failure (empty = gate passes): a ratio more than
/// [`THRESHOLD`] above its baseline value, a baseline row the run lacks,
/// and a run row the baseline lacks (it would otherwise never be gated).
pub fn bench_regressions(old: &[Ratio], new: &[Ratio]) -> Vec<String> {
    let find = |rows: &[Ratio], row: &str| rows.iter().find(|r| r.row == row).map(|r| r.ratio);
    let mut out = Vec::new();
    for o in old {
        match find(new, &o.row) {
            None => out.push(format!("{}: in the baseline but missing from this run", o.row)),
            Some(n) if n > o.ratio * (1.0 + THRESHOLD) => out.push(format!(
                "{}: ratio {n:.3} vs baseline {:.3}, grew {:.0}% (> {:.0}% allowed)",
                o.row,
                o.ratio,
                (n / o.ratio - 1.0) * 100.0,
                THRESHOLD * 100.0
            )),
            Some(_) => {}
        }
    }
    for n in new.iter().filter(|n| find(old, &n.row).is_none()) {
        out.push(format!("{}: not in baseline (re-record it from this run)", n.row));
    }
    out
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn env_defaults() {
        assert!(scale_factor() > 0.0);
        assert!(runs() >= 1);
    }

    /// A gate run from measured (numerator, denominator) times: row `R<i>`.
    fn run(times: &[(f64, f64)]) -> Vec<Ratio> {
        times
            .iter()
            .enumerate()
            .map(|(i, &(n, d))| Ratio::new(format!("R{}", i + 1), n, d))
            .collect()
    }

    const BASE: [(f64, f64); 3] = [(10.0, 5.0), (3.0, 4.0), (0.2, 0.1)];

    #[test]
    fn bench_json_roundtrips() {
        let rows = run(&BASE);
        let text = bench_json(0.01, &rows);
        assert!(text.contains("legobase-bench-v2") && !text.contains("ms"), "{text}");
        assert_eq!(parse_bench_json(&text), Ok(rows));
        assert!(parse_bench_json("not json at all").is_err());
        let empty = bench_json(0.01, &[]);
        assert_eq!(parse_bench_json(&empty), Err("no rows".into()));
        let bad = text.replace("\"ratio\": 0.7500", "\"ratio\": x");
        assert!(parse_bench_json(&bad).unwrap_err().contains("R2"), "{bad}");
    }

    #[test]
    fn uniformly_slower_run_is_green() {
        let slow: Vec<_> = BASE.iter().map(|&(n, d)| (2.0 * n, 2.0 * d)).collect();
        assert_eq!(bench_regressions(&run(&BASE), &run(&slow)), Vec::<String>::new());
    }

    #[test]
    fn one_ratio_up_half_is_red_and_named() {
        let mut worse = BASE;
        worse[1].0 *= 1.5;
        let regs = bench_regressions(&run(&BASE), &run(&worse));
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("R2:") && regs[0].contains("grew 50%"), "{regs:?}");
        // Within the threshold, and any improvement, passes.
        worse[1].0 = BASE[1].0 * 1.2;
        worse[2].0 = BASE[2].0 * 0.5;
        assert!(bench_regressions(&run(&BASE), &run(&worse)).is_empty());
    }

    #[test]
    fn both_sides_slowing_together_is_green() {
        let mut both = BASE;
        both[0] = (BASE[0].0 * 1.6, BASE[0].1 * 1.6);
        assert!(bench_regressions(&run(&BASE), &run(&both)).is_empty());
    }

    #[test]
    fn missing_row_is_red() {
        let regs = bench_regressions(&run(&BASE), &run(&BASE[..2]));
        assert_eq!(regs, vec!["R3: in the baseline but missing from this run".to_string()]);
    }

    #[test]
    fn unbaselined_row_is_red() {
        let regs = bench_regressions(&run(&BASE[..2]), &run(&BASE));
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("R3: not in baseline"), "{regs:?}");
    }

    #[test]
    fn absolute_v1_baseline_is_rejected() {
        let v1 = "{\n  \"schema\": \"legobase-bench-v1\",\n  \"queries\": [\n    \
                  {\"query\": \"Q1\", \"min_ms\": 1.5050}\n  ]\n}\n";
        let err = parse_bench_json(v1).unwrap_err();
        assert!(err.contains("legobase-bench-v1") && err.contains("re-record"), "{err}");
    }
}
