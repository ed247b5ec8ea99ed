//! Deterministic engine budgets: events scheduled per latency sample
//! on pinned grids.
//!
//! Event counts are a pure function of (config, scale, seed), so these
//! ceilings hold on any host. They catch an engine or fusion regression
//! that leaves every artifact byte-identical: a fusion gate that
//! declines every chain, or a stage that starts scheduling an extra
//! event per I/O. Wall-clock cost is `perfbench`'s job, not this file's.
//!
//! Each ceiling is the exact `(events, samples)` pair measured at its
//! scale, compared in integers: there is no headroom, so any growth
//! fails. A change that lowers a grid's count should lower its pair.
//!
//! On the two grids where chains fuse, the fusion tally must also add
//! up: events popped plus events reported elided equal the events the
//! same grid pops with fusion forced off.
//!
//! The file holds a single `#[test]` so it runs in a test binary of its
//! own: the counters it reads are process-global (`afa_sim::metrics`),
//! and a sibling test on another thread would leak events into them.

use afa::core::experiment::{self, Experiment, ExperimentScale};
use afa::core::{AfaConfig, AfaSystem, FusionOverride, TuningStage};
use afa::sim::metrics::{self, FusionCounters};
use afa::sim::SimDuration;
use afa::ssd::DeviceProfile;
use afa::workload::{IoEngine, RwPattern};

/// A ceiling of `events / samples`, kept as the measured integer pair
/// `(events, samples)`.
#[derive(Clone, Copy)]
struct Budget(u64, u64);

/// The counter deltas around one grid and the samples it produced.
struct Measured {
    events: u64,
    samples: u64,
    fusion: FusionCounters,
}

impl Measured {
    /// Runs `grid`, which returns its sample count, and differences the
    /// process-wide counters around it.
    fn around(grid: impl FnOnce() -> u64) -> Measured {
        let events_before = metrics::events_processed_total();
        let fusion_before = metrics::fusion_totals();
        let samples = grid();
        Measured {
            events: metrics::events_processed_total() - events_before,
            samples,
            fusion: metrics::fusion_totals().since(&fusion_before),
        }
    }
}

/// Checks `events / samples ≤ budget` and records a failure line.
fn check(failures: &mut Vec<String>, grid: &str, events: u64, samples: u64, budget: Budget) {
    let Budget(budget_events, budget_samples) = budget;
    if samples == 0
        || events as u128 * budget_samples as u128 > budget_events as u128 * samples as u128
    {
        failures.push(format!(
            "{grid}: {events} events over {samples} samples ({:.4}/sample) exceeds the \
             budget of {budget_events} over {budget_samples} ({:.4}/sample)",
            events as f64 / samples.max(1) as f64,
            budget_events as f64 / budget_samples as f64,
        ));
    }
}

/// Checks that `fused` pops plus the events it reports elided equal
/// the pops of the same grid with fusion forced off (`unfused`).
fn check_elided(failures: &mut Vec<String>, grid: &str, fused: &Measured, unfused: &Measured) {
    let logical = fused.events + fused.fusion.elided_events;
    if fused.samples != unfused.samples || logical != unfused.events {
        failures.push(format!(
            "{grid}: {} popped + {} elided = {logical} events over {} samples, but {} events \
             over {} samples with fusion off",
            fused.events,
            fused.fusion.elided_events,
            fused.samples,
            unfused.events,
            unfused.samples,
        ));
    }
}

fn registry_grid(name: &str, scale: ExperimentScale) -> Measured {
    let def = experiment::find(name).expect("registered experiment");
    Measured::around(|| def.run(scale).samples())
}

fn scale(seconds: f64, ssds: usize) -> ExperimentScale {
    ExperimentScale::new(SimDuration::from_secs_f64(seconds), ssds, 42)
}

#[test]
fn engine_budgets_hold() {
    let mut failures = Vec::new();

    // fig06 at 64 SSDs packs eight jobs onto each worker LP, so no
    // chain fuses: this is the per-stage interrupt chain, 5 events
    // per I/O.
    let fig06_64 = scale(0.05, 64);
    let unfused = registry_grid("fig06", fig06_64);
    check(
        &mut failures,
        "fig06 x64",
        unfused.events,
        unfused.samples,
        Budget(262_037, 52_389),
    );

    // The manifest's event and fusion rows are scoped to the
    // experiment: the attribution probe `run_experiment` adds (8 SSDs,
    // where chains do fuse) must not leak into them.
    let run = experiment::run_experiment(
        experiment::find("fig06").expect("fig06 registered"),
        fig06_64,
    );
    assert_eq!(run.manifest.events_processed, unfused.events);
    assert_eq!(run.manifest.fusion, unfused.fusion);

    // fig06 at 8 SSDs is one job per worker LP: the interrupt chains
    // fuse into one settlement event each.
    let probe = registry_grid("fig06", scale(0.25, 8));
    let probe_unfused = {
        let _off = FusionOverride::set(false);
        registry_grid("fig06", scale(0.25, 8))
    };
    check_elided(
        &mut failures,
        "fig06 x8 (fusion probe)",
        &probe,
        &probe_unfused,
    );
    check(
        &mut failures,
        "fig06 x8 (fusion probe)",
        probe.events,
        probe.samples,
        Budget(129_305, 44_774),
    );
    if probe.fusion.fused_chains == 0 {
        failures.push("fig06 x8 (fusion probe): no chain fused".to_owned());
    }

    // ULL devices under hybrid polling, 70/30 read/write: polled
    // chains fuse, and writes take the FTL path.
    let tuned_config = AfaConfig::paper(TuningStage::ExperimentalFirmware)
        .with_device_profile(DeviceProfile::UltraLowLatency)
        .with_engine(IoEngine::HybridPoll)
        .with_rw(RwPattern::RandRw { read_pct: 70 })
        .with_ssds(8)
        .with_runtime(SimDuration::millis(250))
        .with_seed(42);
    let run_tuned = || {
        Measured::around(|| {
            let result = AfaSystem::run(&tuned_config);
            result.reports.iter().map(|r| r.completed()).sum()
        })
    };
    let tuned_unfused = {
        let _off = FusionOverride::set(false);
        run_tuned()
    };
    let tuned = run_tuned();
    check_elided(&mut failures, "tuned-8-poll-rw", &tuned, &tuned_unfused);
    check(
        &mut failures,
        "tuned-8-poll-rw",
        tuned.events,
        tuned.samples,
        Budget(257_857, 114_993),
    );
    if tuned.fusion.fused_chains == 0 {
        failures.push("tuned-8-poll-rw: no polled chain fused".to_owned());
    }

    // The registry grids at the golden scale.
    for (name, budget) in [
        ("ull-crossover", Budget(5_473_261, 2_372_451)),
        ("fleet-failover", Budget(79_145, 15_480)),
        ("tailscale-fanout", Budget(265_205, 22_560)),
    ] {
        let grid = registry_grid(name, scale(0.25, 8));
        check(&mut failures, name, grid.events, grid.samples, budget);
    }

    // The tenant ladder at 1 s reaches the million-tenant rung. Serving
    // memory and per-request work must not grow with the population:
    // the peak slab stays at the 10³ rung's 6,848 bytes, and events per
    // admitted request stay flat (within 1 %; they measure 8.377–8.381).
    let ladder = experiment::fleet_arrival(scale(1.0, 8));
    let rungs = [
        (1_000, Budget(199_735, 23_840)),
        (10_000, Budget(200_108, 23_878)),
        (100_000, Budget(201_180, 24_015)),
        (1_000_000, Budget(200_066, 23_871)),
    ];
    let tenants: Vec<u64> = ladder.cells.iter().map(|c| c.tenants).collect();
    assert_eq!(tenants, rungs.map(|(t, _)| t), "fleet-arrival ladder rungs");
    for (cell, (t, budget)) in ladder.cells.iter().zip(rungs) {
        let grid = format!("fleet-arrival {t} tenants");
        check(&mut failures, &grid, cell.sim_events, cell.admitted, budget);
    }
    let peak_slab = ladder
        .cells
        .iter()
        .map(|c| c.slab_footprint_bytes)
        .max()
        .unwrap_or(0);
    if peak_slab > 6_848 {
        failures.push(format!(
            "fleet-arrival: peak slab {peak_slab} bytes exceeds 6848"
        ));
    }
    let per_request: Vec<f64> = ladder
        .cells
        .iter()
        .map(|c| c.sim_events as f64 / c.admitted.max(1) as f64)
        .collect();
    let (lo, hi) = per_request
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if hi > 1.01 * lo {
        failures.push(format!(
            "fleet-arrival: events per admitted request range {lo:.4}–{hi:.4} across rungs"
        ));
    }

    assert!(
        failures.is_empty(),
        "engine budgets:\n{}",
        failures.join("\n")
    );
}
