//! Stdlib-only micro-benchmark harness (no external dependencies).
//!
//! A tiny replacement for the slice of Criterion the workspace used:
//! each benchmark's batch size is calibrated so one batch takes a
//! measurable slice of wall time, the op is warmed for a pinned
//! wall-time budget (cache/branch-predictor/frequency settle), then a
//! fixed number of batches is timed and per-operation mean/median/std
//! are reported. The median is the headline number: on a shared host
//! the batch-time distribution is one-sided (occasional scheduler
//! preemptions make some batches much slower, never faster), so the
//! median is stable where the mean swings with the worst batch.
//!
//! # Example
//!
//! ```no_run
//! let mut harness = afa_bench::micro::Harness::from_args();
//! let mut x = 0u64;
//! harness.bench("wrapping_mul", || {
//!     x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
//!     std::hint::black_box(x);
//! });
//! harness.report();
//! ```

use std::time::Instant;

/// Per-benchmark timing summary, in nanoseconds per operation.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Operations per timed batch.
    pub batch: u64,
    /// Number of timed batches.
    pub samples: usize,
    /// Mean ns/op across batches.
    pub mean_ns: f64,
    /// Median ns/op across batches.
    pub median_ns: f64,
    /// Population std dev of ns/op across batches.
    pub std_ns: f64,
    /// Fastest batch, ns/op.
    pub min_ns: f64,
    /// Slowest batch, ns/op.
    pub max_ns: f64,
}

/// Runs micro-benchmarks and collects [`BenchResult`]s.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    target_batch_nanos: u64,
    warmup_nanos: u64,
    results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            filter: None,
            samples: 25,
            target_batch_nanos: 2_000_000,
            // Pinned warmup budget per bench: long enough for the
            // first-touch page faults, cache fills and CPU frequency
            // ramp to finish before the first timed batch, short
            // enough that a full micro suite stays under a second of
            // overhead. Without it the early batches of the
            // queue-churn benches ran up to 2x slower than steady
            // state and dragged the reported numbers around run to
            // run.
            warmup_nanos: 100_000_000,
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// A harness taking the first non-flag CLI argument as a substring
    /// filter (cargo's bench runner passes flags like `--bench`).
    pub fn from_args() -> Self {
        Harness {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
            ..Harness::default()
        }
    }

    /// Whether `name` passes the filter.
    pub fn wants(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }

    /// Times `op` (skipped unless [`Harness::wants`]) and records the
    /// result.
    pub fn bench(&mut self, name: &str, mut op: impl FnMut()) {
        if !self.wants(name) {
            return;
        }
        // Calibrate: double the batch until one batch takes a
        // measurable slice of wall time.
        let mut batch = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            if t0.elapsed().as_nanos() as u64 >= self.target_batch_nanos || batch >= 1 << 30 {
                break;
            }
            batch *= 2;
        }
        // Pinned warmup: run untimed batches until the wall-time
        // budget is spent, so the timed samples below all observe the
        // op in steady state.
        let warm0 = Instant::now();
        while (warm0.elapsed().as_nanos() as u64) < self.warmup_nanos {
            for _ in 0..batch {
                op();
            }
        }
        // Measure.
        let mut per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    op();
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = per_op.len();
        let mean = per_op.iter().sum::<f64>() / n as f64;
        let var = per_op.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        let median = if n.is_multiple_of(2) {
            (per_op[n / 2 - 1] + per_op[n / 2]) / 2.0
        } else {
            per_op[n / 2]
        };
        let result = BenchResult {
            name: name.to_owned(),
            batch,
            samples: n,
            mean_ns: mean,
            median_ns: median,
            std_ns: var.sqrt(),
            min_ns: per_op[0],
            max_ns: per_op[n - 1],
        };
        println!(
            "{:<28} {:>10.1} ns/op median  (mean {:.1}, std {:.1}, {} x {} ops)",
            result.name,
            result.median_ns,
            result.mean_ns,
            result.std_ns,
            result.samples,
            result.batch
        );
        self.results.push(result);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints a summary table of every recorded result.
    pub fn report(&self) {
        if self.results.is_empty() {
            println!("no benchmarks matched the filter");
            return;
        }
        println!();
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "benchmark", "mean(ns)", "median(ns)", "std(ns)", "min(ns)", "max(ns)"
        );
        for r in &self.results {
            println!(
                "{:<28} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                r.name, r.mean_ns, r.median_ns, r.std_ns, r.min_ns, r.max_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_harness() -> Harness {
        Harness {
            filter: None,
            samples: 3,
            target_batch_nanos: 1_000,
            warmup_nanos: 10_000,
            results: Vec::new(),
        }
    }

    #[test]
    fn bench_records_a_result() {
        let mut h = quick_harness();
        let mut x = 1u64;
        h.bench("mul", || {
            x = x.wrapping_mul(3);
            std::hint::black_box(x);
        });
        assert_eq!(h.results().len(), 1);
        let r = &h.results()[0];
        assert_eq!(r.samples, 3);
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut h = Harness {
            filter: Some("histogram".to_owned()),
            ..quick_harness()
        };
        h.bench("rng_next_u64", || {});
        assert!(h.results().is_empty());
        assert!(h.wants("histogram_record"));
        assert!(!h.wants("rng_next_u64"));
    }
}
