//! The four benchmark workloads and the correctness checks on their
//! outputs.
//!
//! Two drive the whole-array simulator directly (`AfaConfig` builders +
//! `AfaSystem::run`); two drive serving experiments through the
//! registry (`experiment::find(name).run(scale)`). None goes through
//! `run_experiment`, whose attribution probe would add its own events
//! and counters to the run's. Every `afa_sim::metrics` counter is read
//! as a delta around the single workload call, and workloads run one at
//! a time, so each delta belongs to exactly one run.

use afa_core::experiment::{self, Experiment, ExperimentScale};
use afa_core::{AfaConfig, AfaSystem, RunResult, TuningStage};
use afa_sim::metrics::{self, CompletionCounters, FleetCounters, FrontendCounters, FusionCounters};
use afa_sim::SimDuration;
use afa_ssd::DeviceProfile;
use afa_stats::{Json, NinesPoint};
use afa_workload::{IoEngine, RwPattern};

use crate::measure::Digest;

/// The paper's Fig. 6 worst case: ≈5,000 µs per SSD at the default
/// configuration (EXPERIMENTS.md, the repository's one reference
/// figure).
pub const PAPER_FIG6_MAX_US: f64 = 5_000.0;

/// Ledger/trace capacity of a traced run (first N I/Os).
pub const TRACE_CAPACITY: usize = 1 << 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6: 64 SSDs, default stage, libaio interrupts, random reads.
    Fig06Default64,
    /// 8 ULL SSDs, experimental firmware, hybrid polling, 70/30 mix.
    Tuned8PollRw,
    /// Registry `tailscale-fanout` at 16 SSDs (open-loop serving).
    ServeFanout16,
    /// Registry `fleet-failover` at 8 SSDs per array.
    FleetFailover8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig06Default64,
        Workload::Tuned8PollRw,
        Workload::ServeFanout16,
        Workload::FleetFailover8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig06Default64 => "fig06-default-64",
            Workload::Tuned8PollRw => "tuned-8-poll-rw",
            Workload::ServeFanout16 => "serve-fanout-16",
            Workload::FleetFailover8 => "fleet-failover-8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated run time of one measured call: 80–100 ms of host time,
    /// so a run makes hundreds of calls and its fastest tenth lands in
    /// the quiet moments of a shared host, while the 10 ms resolution
    /// of a call's CPU time stays a small share of it.
    pub fn runtime(self) -> SimDuration {
        SimDuration::from_secs_f64(match self {
            Workload::Fig06Default64 => 0.08,
            Workload::Tuned8PollRw => 0.25,
            Workload::ServeFanout16 => 0.4,
            Workload::FleetFailover8 => 1.5,
        })
    }

    pub fn ssds(self) -> usize {
        match self {
            Workload::Fig06Default64 => 64,
            Workload::ServeFanout16 => 16,
            Workload::Tuned8PollRw | Workload::FleetFailover8 => 8,
        }
    }

    /// The array configuration, for the two workloads that drive
    /// `AfaSystem::run` directly.
    pub fn array_config(self, seed: u64, runtime: SimDuration) -> Option<AfaConfig> {
        let config = match self {
            Workload::Fig06Default64 => AfaConfig::paper(TuningStage::Default),
            Workload::Tuned8PollRw => AfaConfig::paper(TuningStage::ExperimentalFirmware)
                .with_device_profile(DeviceProfile::UltraLowLatency)
                .with_engine(IoEngine::HybridPoll)
                .with_rw(RwPattern::RandRw { read_pct: 70 }),
            Workload::ServeFanout16 | Workload::FleetFailover8 => return None,
        };
        Some(
            config
                .with_ssds(self.ssds())
                .with_runtime(runtime)
                .with_seed(seed),
        )
    }

    fn registry_name(self) -> Option<&'static str> {
        match self {
            Workload::ServeFanout16 => Some("tailscale-fanout"),
            Workload::FleetFailover8 => Some("fleet-failover"),
            Workload::Fig06Default64 | Workload::Tuned8PollRw => None,
        }
    }

    /// Runs the workload once. `traced` turns on the array run's public
    /// recorders (ledger log, blktrace-style stage stamps, cause
    /// attribution); the serving experiments always keep per-request
    /// ledgers, so the flag changes nothing for them.
    pub fn run(self, seed: u64, runtime: SimDuration, traced: bool) -> Raw {
        let before = Deltas::snapshot();
        let output = match self.array_config(seed, runtime) {
            Some(config) => {
                let config = if traced {
                    config
                        .with_ledger_log(TRACE_CAPACITY)
                        .with_io_tracing(TRACE_CAPACITY)
                        .with_cause_attribution(true)
                } else {
                    config
                };
                Output::Array(Box::new(AfaSystem::run(&config)))
            }
            None => {
                let name = self.registry_name().expect("serving workload");
                let def = experiment::find(name).expect("workload is registered");
                let scale = ExperimentScale::new(runtime, self.ssds(), seed);
                Output::Serving(def.run(scale).to_json())
            }
        };
        Raw {
            workload: self,
            runtime,
            output,
            deltas: Deltas::snapshot().since(&before),
        }
    }
}

/// Process-wide `afa_sim::metrics` totals, differenced around one call.
#[derive(Clone, Debug, Default)]
pub struct Deltas {
    pub events: u64,
    pub clamped_past: u64,
    pub frontend: FrontendCounters,
    pub completion: CompletionCounters,
    pub fleet: FleetCounters,
    pub fusion: FusionCounters,
}

impl Deltas {
    fn snapshot() -> Deltas {
        Deltas {
            events: metrics::events_processed_total(),
            clamped_past: metrics::clamped_past_total(),
            frontend: metrics::frontend_totals(),
            completion: metrics::completion_totals(),
            fleet: metrics::fleet_totals(),
            fusion: metrics::fusion_totals(),
        }
    }

    fn since(&self, earlier: &Deltas) -> Deltas {
        Deltas {
            events: self.events - earlier.events,
            clamped_past: self.clamped_past - earlier.clamped_past,
            frontend: self.frontend.since(&earlier.frontend),
            completion: self.completion.since(&earlier.completion),
            fleet: self.fleet.since(&earlier.fleet),
            fusion: self.fusion.since(&earlier.fusion),
        }
    }
}

pub enum Output {
    Array(Box<RunResult>),
    /// The experiment's JSON artifact (a pure function of the scale).
    Serving(Json),
}

/// One workload call's outputs and counter deltas.
pub struct Raw {
    pub workload: Workload,
    /// Simulated run time the call ran at.
    pub runtime: SimDuration,
    pub output: Output,
    pub deltas: Deltas,
}

impl Raw {
    /// Simulated I/Os behind the call: latency samples for the array
    /// workloads, admitted requests for the serving ones.
    pub fn ios(&self) -> u64 {
        match &self.output {
            Output::Array(r) => r.reports.iter().map(|j| j.completed()).sum(),
            Output::Serving(_) => self.deltas.frontend.requests_admitted,
        }
    }

    /// Digest of the deterministic output: every simulated statistic
    /// the call returns, none of the simulator's own cost counters
    /// (event counts and fusion tallies may change while the simulated
    /// results must not).
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        match &self.output {
            Output::Array(r) => {
                for (j, report) in r.reports.iter().enumerate() {
                    d.field("job", j as u64);
                    d.field("completed", report.completed());
                    d.field("bytes", report.bytes_transferred());
                    for (edge, count) in report.histogram().iter_buckets() {
                        d.field("bucket", edge);
                        d.field("count", count);
                    }
                    d.field("min", report.histogram().min());
                    d.field("max", report.histogram().max());
                }
                d.field("elapsed_ns", r.elapsed.as_nanos());
                let h = r.host.stats();
                for (label, v) in [
                    ("bg_bursts", h.bg_bursts),
                    ("wakes", h.wakes),
                    ("wakes_preempting_bg", h.wakes_preempting_bg),
                    ("irqs", h.irqs),
                    ("remote_irqs", h.remote_irqs),
                    ("io_cpu_busy_ns", h.io_cpu_busy_ns),
                    ("rcu_softirq_hits", h.rcu_softirq_hits),
                ] {
                    d.field(label, v);
                }
                let f = r.fabric_stats;
                for (label, v) in [
                    ("uplink_bytes", f.uplink_bytes),
                    ("device_bytes", f.device_bytes),
                    ("interrupts", f.interrupts),
                    ("commands", f.commands),
                ] {
                    d.field(label, v);
                }
                for (dev, ftl) in &r.device_stats {
                    for (label, v) in [
                        ("reads", dev.reads),
                        ("writes", dev.writes),
                        ("admin", dev.admin),
                        ("retries", dev.retries),
                        ("housekeeping_hits", dev.housekeeping_hits),
                        ("host_slots_written", ftl.host_slots_written),
                        ("gc_slots_copied", ftl.gc_slots_copied),
                        ("blocks_erased", ftl.blocks_erased),
                    ] {
                        d.field(label, v);
                    }
                }
                let c = r.completions;
                d.field("reap_interrupts", c.interrupts);
                d.field("reap_polls", c.polls);
                d.field("reap_hybrid_sleeps", c.hybrid_sleeps);
            }
            Output::Serving(json) => d.bytes(json.to_string().as_bytes()),
        }
        d.hex()
    }

    /// Violations of the run's conservation laws; empty when correct.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.deltas.clamped_past != 0 {
            out.push(format!(
                "{} events scheduled into the past",
                self.deltas.clamped_past
            ));
        }
        match &self.output {
            Output::Array(r) => {
                let samples = self.ios();
                let reaps = r.completions.interrupts + r.completions.polls;
                if samples != reaps {
                    out.push(format!(
                        "{samples} job samples but {reaps} reaps (interrupts + polls)"
                    ));
                }
                if let Some(log) = &r.ledgers {
                    let bad = log
                        .entries()
                        .iter()
                        .filter(|io| io.ledger.total() - io.ledger.pre_issue() != io.latency())
                        .count();
                    if bad > 0 {
                        out.push(format!("{bad} ledgers do not tile their latency"));
                    }
                }
            }
            Output::Serving(json) => {
                let cells = cells(json);
                let mismatches: u64 = cells.iter().map(|c| u(c, &["ledger_mismatches"])).sum();
                if mismatches != 0 {
                    out.push(format!("{mismatches} request ledgers do not tile"));
                }
                let admitted = self.deltas.frontend.requests_admitted;
                let settled = self.settled();
                // The serving frontend sheds at admission (a shed
                // request is never admitted); the fleet admits first
                // and sheds requests that find no surviving replica.
                let shed_after_admission = match self.workload {
                    Workload::FleetFailover8 => self.deltas.frontend.requests_shed,
                    _ => 0,
                };
                if admitted != settled + shed_after_admission {
                    out.push(format!(
                        "{admitted} admitted but {settled} settled + {shed_after_admission} shed"
                    ));
                }
            }
        }
        out
    }

    /// Requests that settled with a latency sample (serving workloads).
    pub fn settled(&self) -> u64 {
        let Output::Serving(json) = &self.output else {
            return self.ios();
        };
        cells(json)
            .iter()
            .map(|c| cell_settled(self.workload, c))
            .sum()
    }

    /// Mean over SSDs of each SSD's worst latency, µs (array runs).
    pub fn mean_max_us(&self) -> Option<f64> {
        let Output::Array(r) = &self.output else {
            return None;
        };
        let maxes: Vec<f64> = r
            .reports
            .iter()
            .map(|j| j.profile().get_micros(NinesPoint::Max))
            .collect();
        Some(maxes.iter().sum::<f64>() / maxes.len() as f64)
    }
}

/// Requests one serving cell settled with a latency sample: the fleet
/// splits them into before/during/after-failure profiles.
pub fn cell_settled(workload: Workload, cell: &Json) -> u64 {
    match workload {
        Workload::FleetFailover8 => ["before", "during", "after"]
            .iter()
            .map(|p| u(cell, &[p, "samples"]))
            .sum(),
        _ => u(cell, &["client", "samples"]),
    }
}

/// The `cells` array of a serving experiment's artifact.
pub fn cells(json: &Json) -> &[Json] {
    match json.get("cells") {
        Some(Json::Arr(cells)) => cells,
        _ => panic!("serving artifact has a cells array"),
    }
}

/// The unsigned integer at `path` below `json`; 0 when absent (an
/// artifact omits counters that never moved).
pub fn u(json: &Json, path: &[&str]) -> u64 {
    let mut at = json;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0,
        }
    }
    match at {
        Json::U64(v) => *v,
        other => panic!("{path:?} is not an unsigned integer: {other:?}"),
    }
}
