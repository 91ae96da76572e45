//! Portable proxy counters for the paper's hardware-counter experiment.
//!
//! Figure 18 reports LLC cache misses and branch mispredictions measured with
//! `perf`. Hardware counters are neither portable nor available in this
//! environment (see DESIGN.md), so the engines instrument the *mechanisms*
//! those counters capture: pointer-chasing steps in hash chains (cache-miss
//! proxy), data-dependent branch evaluations (misprediction proxy), heap
//! allocations, and materialized tuples.
//!
//! Counting is compiled out entirely unless the `metrics` cargo feature is
//! enabled, so timing benchmarks are unaffected.

use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of all proxy counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Hash-bucket probes (one per lookup).
    pub hash_probes: u64,
    /// Steps taken along hash chains / bucket lists (pointer chasing:
    /// cache-miss proxy).
    pub chain_steps: u64,
    /// Data-dependent branch evaluations in operator inner loops
    /// (branch-misprediction proxy).
    pub branch_evals: u64,
    /// Intermediate tuples materialized (copies between operators).
    pub tuples_materialized: u64,
    /// Explicit heap allocations on the critical path.
    pub allocations: u64,
}

static HASH_PROBES: AtomicU64 = AtomicU64::new(0);
static CHAIN_STEPS: AtomicU64 = AtomicU64::new(0);
static BRANCH_EVALS: AtomicU64 = AtomicU64::new(0);
static TUPLES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

macro_rules! bump {
    ($counter:ident, $n:expr) => {
        #[cfg(feature = "metrics")]
        $counter.fetch_add($n, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = $n;
    };
}

/// Records a hash-bucket probe.
#[inline(always)]
pub fn hash_probe() {
    bump!(HASH_PROBES, 1);
}

/// Records `n` hash-bucket probes at once (block-at-a-time operators count
/// per block, not per row).
#[inline(always)]
pub fn hash_probes(n: u64) {
    bump!(HASH_PROBES, n);
}

/// Records `n` chain-traversal steps.
#[inline(always)]
pub fn chain_steps(n: u64) {
    bump!(CHAIN_STEPS, n);
}

/// Records a data-dependent branch evaluation.
#[inline(always)]
pub fn branch_eval() {
    bump!(BRANCH_EVALS, 1);
}

/// Records `n` branch evaluations at once (block-at-a-time selection counts
/// per block, not per row).
#[inline(always)]
pub fn branch_evals(n: u64) {
    bump!(BRANCH_EVALS, n);
}

/// Records a materialized intermediate tuple.
#[inline(always)]
pub fn tuple_materialized() {
    bump!(TUPLES, 1);
}

/// Records a heap allocation on the critical path.
#[inline(always)]
pub fn allocation() {
    bump!(ALLOCS, 1);
}

/// Records `n` heap allocations at once.
#[inline(always)]
pub fn allocations(n: u64) {
    bump!(ALLOCS, n);
}

/// Resets all counters to zero.
pub fn reset() {
    for c in [&HASH_PROBES, &CHAIN_STEPS, &BRANCH_EVALS, &TUPLES, &ALLOCS] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Reads the current counter values.
pub fn snapshot() -> Counters {
    Counters {
        hash_probes: HASH_PROBES.load(Ordering::Relaxed),
        chain_steps: CHAIN_STEPS.load(Ordering::Relaxed),
        branch_evals: BRANCH_EVALS.load(Ordering::Relaxed),
        tuples_materialized: TUPLES.load(Ordering::Relaxed),
        allocations: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Runs `f` with freshly reset counters and returns its result together with
/// the counters it accumulated.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    reset();
    let out = f();
    (out, snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_isolates_counts() {
        let (_, c) = measure(|| {
            hash_probe();
            chain_steps(3);
            branch_eval();
            tuple_materialized();
            allocation();
        });
        #[cfg(feature = "metrics")]
        assert_eq!(
            c,
            Counters {
                hash_probes: 1,
                chain_steps: 3,
                branch_evals: 1,
                tuples_materialized: 1,
                allocations: 1
            }
        );
        #[cfg(not(feature = "metrics"))]
        assert_eq!(c, Counters::default());
    }
}
