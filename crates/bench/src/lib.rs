//! Benchmark and figure-regeneration harness for the AFA reproduction.
//!
//! Two kinds of targets live here:
//!
//! * **Figure/table regeneration** — `cargo bench -p afa-bench --bench
//!   figures` iterates the experiment registry
//!   ([`afa_core::experiment::registry`]) and prints paper-style
//!   tables. To regenerate one artifact and write its CSV and JSON,
//!   use `afactl exp <name> --out target/afa-results`.
//! * **Micro-benchmarks** — `cargo bench -p afa-bench --bench micro`
//!   (stdlib [`micro`] harness) measures the substrate hot paths the
//!   whole-array simulation leans on.
//!
//! Scaling: the figures bench honours `AFA_SECONDS`, `AFA_SSDS`,
//! `AFA_SEED` and `AFA_FULL=1` (the paper's full 120 s × 64-SSD runs);
//! see [`afa_core::experiment::ExperimentScale::from_env`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;

pub use afa_core::experiment::ExperimentScale;

/// Prints a standard header naming the artifact being regenerated.
pub fn banner(artifact: &str, scale: ExperimentScale) {
    println!("=== {artifact} ===");
    println!(
        "scale: {:.1}s per job, {} SSDs, seed {} (paper: 120s, 64 SSDs)\n",
        scale.runtime.as_secs_f64(),
        scale.ssds,
        scale.seed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_does_not_panic() {
        banner("test", ExperimentScale::quick());
    }
}
