//! System assembly: builds the host, fabric, devices and jobs from an
//! [`AfaConfig`] and drives the staged I/O path
//! ([`crate::io_path`]) to completion on the single-wheel LP engine
//! ([`afa_sim::shard`]).
//!
//! The lifecycle of one I/O — submit syscall, fabric legs, device
//! service, interrupt, scheduler wake-up, reap — lives in the
//! [`crate::io_path`] stage modules; this module only resolves the
//! geometry, builds the world, runs the simulation and reads the
//! result out of the finished world.

use afa_host::{BackgroundConfig, CpuTopology, HostModel};
use afa_pcie::{FabricStats, PcieFabric};
use afa_sim::metrics::CompletionCounters;
use afa_sim::{ShardedSim, SimDuration, SimRng, SimTime};
use afa_ssd::{DeviceStats, FtlStats, SsdDevice};
use afa_workload::{JobReport, JobSpec, JobState};

use crate::config::AfaConfig;
use crate::geometry::CpuSsdGeometry;
use crate::io_path::{lp_of_cpu, IoPathWorld, LedgerLog, Local, HUB_LP, LP_COUNT};

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// Per-device job reports, indexed like the geometry.
    pub reports: Vec<JobReport>,
    /// Per-cause latency attribution, when
    /// [`AfaConfig::attribute_causes`] was set.
    pub causes: Option<afa_sim::trace::CauseAccumulator>,
    /// blktrace-style stage traces, when [`AfaConfig::trace_ios`] was
    /// non-zero.
    pub traces: Option<crate::blktrace::TraceRecorder>,
    /// Settled per-I/O ledgers, when [`AfaConfig::ledger_log`] was
    /// non-zero.
    pub ledgers: Option<LedgerLog>,
    /// Simulated time at which the last completion landed.
    pub elapsed: SimTime,
    /// Simulation events processed by the run (5 per I/O on the
    /// unfused interrupt path, 4 on the polled one; fused chains pop
    /// fewer).
    pub events_processed: u64,
    /// Events that were scheduled into the past and clamped (0 for a
    /// healthy model; see [`afa_sim::ShardedSim::clamped_past_schedules`]).
    pub clamped_past_schedules: u64,
    /// The final host model (scheduler/IRQ counters via
    /// [`HostModel::stats`]).
    pub host: HostModel,
    /// Fabric counters.
    pub fabric_stats: FabricStats,
    /// Per-device counters.
    pub device_stats: Vec<(DeviceStats, FtlStats)>,
    /// How completions were reaped (interrupt / poll / hybrid
    /// oversleep); also flushed to [`afa_sim::metrics`] so harnesses
    /// can delta the process-wide totals around an experiment.
    pub completions: CompletionCounters,
}

impl RunResult {
    /// Aggregate IOPS across all devices.
    pub fn aggregate_iops(&self, runtime: SimDuration) -> f64 {
        let secs = runtime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.reports.iter().map(|r| r.completed()).sum::<u64>() as f64 / secs
    }

    /// Aggregate read throughput in GB/s across all devices.
    pub fn aggregate_gbps(&self, runtime: SimDuration) -> f64 {
        let secs = runtime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.reports
            .iter()
            .map(|r| r.bytes_transferred())
            .sum::<u64>() as f64
            / secs
            / 1e9
    }
}

/// The AFA system simulator.
pub struct AfaSystem;

impl AfaSystem {
    /// Runs one experiment to completion and returns the results.
    pub fn run(config: &AfaConfig) -> RunResult {
        // Resolve the geometry: explicit jobs derive it from their
        // pinning; otherwise the config's geometry stands.
        let geometry = match &config.jobs_override {
            None => config.geometry.clone(),
            Some(specs) => {
                assert!(!specs.is_empty(), "job list must not be empty");
                let n = 1 + specs.iter().map(|s| s.device()).max().expect("non-empty");
                assert!(n <= 64, "jobfile addresses a device beyond 64");
                let mut seen = vec![false; n];
                for spec in specs {
                    assert!(
                        !seen[spec.device()],
                        "two jobs target device {}",
                        spec.device()
                    );
                    seen[spec.device()] = true;
                }
                let paper = CpuSsdGeometry::paper(n);
                let mut assignment = paper.assignment().to_vec();
                for spec in specs {
                    if let Some(cpu) = spec.pinned_cpu() {
                        assignment[spec.device()] = cpu;
                    }
                }
                CpuSsdGeometry::with_assignment(assignment)
            }
        };
        let n = geometry.ssds();
        assert!(n > 0, "need at least one SSD");

        let topo = CpuTopology::xeon_e5_2690_v2_dual();
        let io_set = geometry.io_cpu_set();
        let mut kernel = config
            .kernel_override
            .unwrap_or_else(|| config.tuning.kernel_config(io_set));
        if let Some(hz) = config.tick_override {
            kernel.tick_hz = hz;
        }
        if let Some(idle) = config.idle_override {
            kernel.idle = idle;
        }
        if let Some(rcu) = config.rcu_override {
            kernel.rcu_nocbs = rcu;
        }
        // Every run carries the paper's CentOS-7 desktop daemons.
        let background = BackgroundConfig::centos7_desktop();
        let mut host = HostModel::new(topo, kernel, background, config.seed);
        host.init_vectors(geometry.assignment().to_vec(), config.seed);

        let fabric = PcieFabric::paper_single_host(n);
        let firmware = config
            .firmware_override
            .clone()
            .unwrap_or_else(|| config.tuning.firmware());
        let devices: Vec<SsdDevice> = (0..n)
            .map(|d| {
                SsdDevice::new(
                    config.device_profile.spec(),
                    firmware.clone(),
                    config.seed ^ (d as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();

        let policy = config.tuning.fio_policy();
        let specs: Vec<JobSpec> = match &config.jobs_override {
            Some(specs) => specs.clone(),
            None => (0..n)
                .map(|d| {
                    let mut spec = JobSpec::paper_default(d)
                        .rw(config.rw)
                        .block_size_bytes(config.block_size)
                        .iodepth_n(config.iodepth)
                        .runtime(config.runtime)
                        .cpus_allowed(geometry.cpu_of_ssd(d))
                        .sched(policy)
                        .ioengine(config.engine)
                        .log_latency(config.log_latency);
                    if let Some(iops) = config.rate_iops {
                        spec = spec.rate_iops_cap(iops);
                    }
                    spec
                })
                .collect(),
        };
        let jobs: Vec<JobState> = specs
            .into_iter()
            .enumerate()
            .map(|(j, spec)| {
                JobState::new(
                    spec,
                    SimTime::ZERO,
                    SimRng::from_seed_and_stream(config.seed, 0x10_000 + j as u64),
                )
            })
            .collect();

        let horizon = jobs
            .iter()
            .map(JobState::deadline)
            .fold(SimTime::ZERO, SimTime::max)
            + SimDuration::millis(50);
        // Which worker LP drives each job, captured before the geometry
        // moves into the world.
        let job_lps: Vec<usize> = jobs
            .iter()
            .map(|j| lp_of_cpu(geometry.cpu_of_ssd(j.spec().device())))
            .collect();
        let mut world = IoPathWorld::new(
            host,
            fabric,
            devices,
            jobs,
            geometry,
            horizon,
            config.afa_socket,
            config
                .attribute_causes
                .then(afa_sim::trace::CauseAccumulator::new),
            (config.trace_ios > 0).then(|| crate::blktrace::TraceRecorder::new(config.trace_ios)),
            (config.ledger_log > 0).then(|| LedgerLog::new(config.ledger_log)),
            config.irq_coalescing,
            config.hybrid_sleep(),
            config.device_profile.per_cpu_queue_pairs(),
        );
        // Macro-event fusion: on unless `AFA_NO_FUSION` / a
        // `FusionOverride` says otherwise. The fast path additionally
        // gates itself per submit (QD1, uncontended resources — see
        // `IoPathWorld::fusion_candidate`), and is byte-exact, so the
        // knob only exists for A/B verification.
        world.set_fusion(crate::io_path::fusion_enabled());
        let mut sim = ShardedSim::new(world, LP_COUNT);

        // fio staggers thread start-up by a few µs per thread; the
        // stagger also prevents an artificial phase-lock between
        // perfectly symmetric QD1 loops.
        for (job, &lp) in job_lps.iter().enumerate() {
            sim.schedule(
                lp,
                SimTime::ZERO + SimDuration::micros(job as u64 * 13 % 97),
                Local::Issue { job },
            );
        }
        sim.schedule(HUB_LP, SimTime::ZERO, Local::BgArrival);
        sim.run();

        let elapsed = sim.now();
        let events_processed = sim.events_processed();
        let clamped_past_schedules = sim.clamped_past_schedules();
        let world = sim.into_world();

        let device_stats: Vec<(DeviceStats, FtlStats)> = world
            .devices
            .iter()
            .map(|d| (d.stats(), d.ftl_stats()))
            .collect();
        let mut completions = CompletionCounters::default();
        for tally in &world.completions {
            completions.absorb(tally);
        }
        afa_sim::metrics::add_completion(completions);
        // The elided events keep the *logical* event total comparable
        // across fusion settings: popped events + elided = the un-fused
        // count (a run whose fusion added events on net reports none).
        let fusion = world.fusion_tally();
        afa_sim::metrics::add_fusion(afa_sim::metrics::FusionCounters {
            fused_chains: fusion.fused,
            defused_chains: fusion.defused,
            elided_events: fusion.elided.max(0) as u64,
        });
        RunResult {
            reports: world.jobs.into_iter().map(JobState::into_report).collect(),
            causes: world.causes,
            traces: world
                .tracers
                .map(|parts| crate::blktrace::TraceRecorder::merged(config.trace_ios, parts)),
            ledgers: world
                .ledger_logs
                .map(|parts| LedgerLog::merged(config.ledger_log, parts)),
            elapsed,
            events_processed,
            clamped_past_schedules,
            fabric_stats: world.fabric.stats(),
            host: world.host,
            device_stats,
            completions,
        }
    }
}
