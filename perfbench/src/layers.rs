//! Per-layer metrics of a traced run.
//!
//! Counts come from the run's public outputs (`RunResult`, `HostStats`,
//! `FabricStats`, `DeviceStats`/`FtlStats`, the cause budget, the
//! serving artifacts' cells and `afa_sim::metrics` deltas). Host time
//! per layer is measured from outside: the benchmark replays the traced
//! run's inputs — device ids, LBAs, op mix, stage timestamps, latencies
//! — through each layer's public calls, times them, and reports
//! `<layer>.host_ns_per_io = ns per call × calls per I/O`. Whatever the
//! layers do not account for of the run's CPU time per I/O is
//! `glue_ns_per_io`: the I/O-path conductor, event dispatch and cross-LP
//! hops, which have no public call to replay.
//!
//! The serving worlds keep no per-I/O stage stamps, so on those
//! workloads the event-queue, host, fabric, device and statistics layers
//! report counts only: their timings read 0 and glue is not decomposed
//! (0). The replays omit background-daemon placement on every workload.

use std::time::{Duration, Instant};

use afa_core::{CpuSsdGeometry, Tuning, TuningStage};
use afa_fleet::{place_among, HopSpec, NetHop};
use afa_frontend::{AdmissionQueue, RequestBook, TokenBucket};
use afa_host::{BackgroundConfig, CpuTopology, HostModel};
use afa_pcie::PcieFabric;
use afa_sim::trace::Cause;
use afa_sim::{EventQueue, SimDuration, SimRng, SimTime};
use afa_ssd::{DeviceProfile, NvmeCommand, SsdDevice};
use afa_stats::{Json, LatencyHistogram, QuantileSketch};
use afa_volume::{StripeConfig, StripedVolume, SubIo};

use crate::workload::{cell_settled, cells, u, Output, Raw, Workload};

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric; a ratio with nothing to divide reads 0, never NaN.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Replayed requests per serving layer: enough calls that a pass takes
/// milliseconds.
const REPLAY_IOS: usize = 1 << 16;

/// Host time spent timing each layer; the median pass is kept.
const TIMING_BUDGET: Duration = Duration::from_millis(60);

/// Per-I/O CPU charges the array path makes besides polling: one at
/// submit, one at reap (`io_path::submit` / `io_path::complete`).
const CHARGES_PER_IO: f64 = 2.0;

/// One I/O as the replays see it.
#[derive(Clone, Copy, Debug)]
struct ReplayIo {
    device: usize,
    lba: u64,
    write: bool,
    polled: bool,
    queued: SimTime,
    dispatched: SimTime,
    device_done: SimTime,
    at_host: SimTime,
}

/// Everything the array layers' timings need about a traced run.
struct Shape {
    stage: TuningStage,
    profile: DeviceProfile,
    ssds: usize,
    ios: Vec<ReplayIo>,
    /// Host-path calls per simulated I/O.
    charges: f64,
    irqs: f64,
    wakes: f64,
}

/// Host ns per call of `pass`, which runs `calls` calls and returns the
/// time they took (state set-up stays outside the returned duration).
/// Passes repeat for [`TIMING_BUDGET`], at least three; the median is
/// kept.
fn ns_per_call(calls: usize, mut pass: impl FnMut() -> Duration) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed() < TIMING_BUDGET || per_call.len() < 3 {
        per_call.push(pass().as_nanos() as f64 / calls as f64);
    }
    crate::measure::median(&per_call)
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The serving artifacts' summed per-cause time, or the array run's
/// cause accumulator.
fn cause_total_ns(traced: &Raw, cause: Cause) -> f64 {
    match &traced.output {
        Output::Array(r) => r
            .causes
            .as_ref()
            .map_or(0.0, |acc| acc.total(cause).as_nanos() as f64),
        Output::Serving(json) => cells(json)
            .iter()
            .map(|c| u(c, &["causes", cause.label()]) as f64)
            .sum(),
    }
}

/// Builds the replay stream and call counts of an array run from its
/// traced call's stage stamps; `None` on the serving workloads, whose
/// worlds keep no per-I/O stamps to replay.
fn shape(plain: &Raw, traced: &Raw, seed: u64) -> Option<Shape> {
    let (Output::Array(p), Output::Array(t)) = (&plain.output, &traced.output) else {
        return None;
    };
    let w = plain.workload;
    let ios = plain.ios() as f64;
    let polls = plain.deltas.completion.polls as f64;
    let oversleep = per(plain.deltas.completion.hybrid_sleeps as f64, polls);
    let mut rng = SimRng::from_seed_and_stream(seed, 0xBE4C);
    let config = w.array_config(seed, plain.runtime).expect("array workload");
    let writes: u64 = p.device_stats.iter().map(|(d, _)| d.writes).sum();
    let write_frac = per(writes as f64, ios);
    let polled = plain.deltas.completion.polls > 0;
    let mut replay: Vec<ReplayIo> = t
        .traces
        .as_ref()
        .expect("traced run records stage stamps")
        .traces()
        .iter()
        .map(|tr| {
            let [queued, dispatched, device_done, irq, _reaped] = tr.stamps;
            ReplayIo {
                device: tr.device,
                lba: tr.lba,
                write: rng.chance(write_frac),
                polled,
                queued,
                dispatched,
                device_done,
                at_host: if polled { device_done } else { irq },
            }
        })
        .collect();
    replay.sort_by_key(|io| io.queued);
    let h = p.host.stats();
    Some(Shape {
        stage: config.tuning.stage(),
        profile: config.device_profile,
        ssds: w.ssds(),
        ios: replay,
        charges: CHARGES_PER_IO + per(polls, ios) * (1.0 - oversleep),
        irqs: per(h.irqs as f64, ios),
        wakes: per(h.wakes as f64, ios),
    })
}

/// Mean fan-out of a serving request (0 off the striped serving path).
fn sub_ios_per_request(raw: &Raw) -> f64 {
    match (&raw.output, raw.workload) {
        (Output::Serving(json), Workload::ServeFanout16) => {
            let (mut subs, mut requests) = (0.0, 0.0);
            for c in cells(json) {
                let n = u(c, &["client", "samples"]) as f64;
                subs += u(c, &["width"]) as f64 * n;
                requests += n;
            }
            per(subs, requests)
        }
        _ => 0.0,
    }
}

/// Host ns per I/O in the host model: interrupt delivery, wake-up and
/// CPU charging, each timed in its own pass over the replay stream.
fn host_ns(shape: &Shape, seed: u64) -> f64 {
    let geometry = CpuSsdGeometry::paper(shape.ssds);
    let tuning = Tuning::new(shape.stage);
    let mut proto = HostModel::new(
        CpuTopology::xeon_e5_2690_v2_dual(),
        tuning.kernel_config(geometry.io_cpu_set()),
        BackgroundConfig::centos7_desktop(),
        seed,
    );
    proto.init_vectors(geometry.assignment().to_vec(), seed);
    let policy = tuning.fio_policy();
    let ios = &shape.ios;
    let work = SimDuration::nanos(1_500);
    let charge = ns_per_call(2 * ios.len(), || {
        let mut host = proto.clone();
        let t0 = Instant::now();
        for io in ios {
            let cpu = geometry.cpu_of_ssd(io.device);
            std::hint::black_box(host.charge_cpu(cpu, io.queued, work));
            std::hint::black_box(host.charge_cpu(cpu, io.at_host, work));
        }
        t0.elapsed()
    });
    let irq = ns_per_call(ios.len(), || {
        let mut host = proto.clone();
        let t0 = Instant::now();
        for io in ios {
            std::hint::black_box(host.deliver_irq(io.device, io.at_host));
        }
        t0.elapsed()
    });
    let wake = ns_per_call(ios.len(), || {
        let mut host = proto.clone();
        let t0 = Instant::now();
        for io in ios {
            let cpu = geometry.cpu_of_ssd(io.device);
            std::hint::black_box(host.wake_io_task(cpu, io.at_host, policy));
        }
        t0.elapsed()
    });
    charge * shape.charges + irq * shape.irqs + wake * shape.wakes
}

/// Host ns per I/O of the fabric: `submit_command` plus the completion
/// legs (MSI-carrying or polled, as the run reaped).
fn pcie_ns(shape: &Shape) -> f64 {
    let proto = PcieFabric::paper_single_host(shape.ssds);
    let ios = &shape.ios;
    ns_per_call(ios.len(), || {
        let mut fabric = proto.clone();
        let t0 = Instant::now();
        for io in ios {
            std::hint::black_box(fabric.submit_command(io.device, io.queued));
            if io.polled {
                let leaf = fabric.poll_completion_device_leg(io.device, io.device_done, 4096);
                std::hint::black_box(fabric.poll_completion_shared_legs(io.device, leaf, 4096));
            } else {
                std::hint::black_box(fabric.deliver_completion(io.device, io.device_done, 4096));
            }
        }
        t0.elapsed()
    })
}

/// Host ns per `SsdDevice::submit`, with the run's op mix and LBAs.
fn ssd_ns(shape: &Shape, seed: u64) -> f64 {
    let firmware = Tuning::new(shape.stage).firmware();
    let proto: Vec<SsdDevice> = (0..shape.ssds)
        .map(|d| {
            SsdDevice::new(
                shape.profile.spec(),
                firmware.clone(),
                seed ^ (d as u64).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect();
    let ios = &shape.ios;
    ns_per_call(ios.len(), || {
        let mut devices = proto.clone();
        let t0 = Instant::now();
        for io in ios {
            let cmd = if io.write {
                NvmeCommand::write(io.lba, 4096)
            } else {
                NvmeCommand::read(io.lba, 4096)
            };
            std::hint::black_box(devices[io.device].submit(io.dispatched, cmd));
        }
        t0.elapsed()
    })
}

/// Host ns per event of the DES queue: one pop and one push (a hold
/// step) at the run's occupancy — one pending event per SSD plus the
/// background-arrival event — with the run's event spacing.
fn queue_ns(shape: &Shape, events_per_io: f64) -> f64 {
    let spacing: Vec<u64> = shape
        .ios
        .iter()
        .map(|io| (io.at_host.saturating_since(io.queued).as_nanos() as f64 / events_per_io) as u64)
        .collect();
    let occupancy = shape.ssds + 1;
    ns_per_call(spacing.len(), || {
        let mut queue = EventQueue::with_capacity(occupancy);
        for (i, s) in spacing.iter().take(occupancy).enumerate() {
            queue.push(SimTime::from_nanos(*s), i);
        }
        let t0 = Instant::now();
        for s in &spacing {
            let (at, e) = queue.pop().expect("occupancy stays constant");
            queue.push(at + SimDuration::nanos(*s), std::hint::black_box(e));
        }
        t0.elapsed()
    })
}

/// Host ns per latency record in the exact histogram and the sketch.
fn stats_ns(shape: &Shape) -> (f64, f64) {
    let values: Vec<u64> = shape
        .ios
        .iter()
        .map(|io| io.at_host.saturating_since(io.queued).as_nanos())
        .collect();
    let histogram = ns_per_call(values.len(), || {
        let mut h = LatencyHistogram::new();
        let t0 = Instant::now();
        for &v in &values {
            h.record(v);
        }
        std::hint::black_box(&h);
        t0.elapsed()
    });
    let sketch = ns_per_call(values.len(), || {
        let mut s = QuantileSketch::new();
        let t0 = Instant::now();
        for &v in &values {
            s.record(v);
        }
        std::hint::black_box(&s);
        t0.elapsed()
    });
    (histogram, sketch)
}

/// The serving fan-out's request mix: one width per replayed request,
/// in proportion to the requests each cell settled.
fn request_widths(raw: &Raw) -> Vec<usize> {
    let Output::Serving(json) = &raw.output else {
        return Vec::new();
    };
    let cells = cells(json);
    let settled = |c: &Json| cell_settled(raw.workload, c);
    let total: u64 = cells.iter().map(settled).sum();
    let mut widths = Vec::new();
    for c in cells {
        let width = match raw.workload {
            Workload::ServeFanout16 => u(c, &["width"]) as usize,
            _ => 1,
        };
        let share = settled(c) as f64 / total.max(1) as f64;
        widths.extend(std::iter::repeat_n(
            width,
            (share * REPLAY_IOS as f64) as usize,
        ));
    }
    widths
}

/// Host ns per request of `StripedVolume::map_read_into`.
fn volume_ns(widths: &[usize], seed: u64) -> f64 {
    let mut rng = SimRng::from_seed_and_stream(seed, 0x701);
    let requests: Vec<(StripedVolume, u64)> = widths
        .iter()
        .map(|&w| {
            let volume = StripedVolume::new((0..w).collect(), StripeConfig::new(4096));
            (volume, rng.below(4_000_000 / w as u64) * w as u64)
        })
        .collect();
    let mut subs = Vec::new();
    ns_per_call(requests.len(), || {
        let t0 = Instant::now();
        for (volume, page) in &requests {
            volume.map_read_into(*page, 4096 * volume.width() as u32, &mut subs);
            std::hint::black_box(&subs);
        }
        t0.elapsed()
    })
}

/// Host ns per request of the serving front end: token-bucket
/// admission, the bounded admission queue, and the request book's
/// `begin` plus one `complete_sub` per sub-I/O.
fn frontend_ns(widths: &[usize], rate_per_sec: f64) -> f64 {
    let gap = SimDuration::from_secs_f64(1.0 / rate_per_sec.max(1.0));
    let subs: Vec<Vec<SubIo>> = widths
        .iter()
        .map(|&w| {
            let volume = StripedVolume::new((0..w).collect(), StripeConfig::new(4096));
            volume.map_read(0, 4096 * w as u32)
        })
        .collect();
    ns_per_call(subs.len(), || {
        // Twice the offered rate: the replay measures the admission
        // path, not shedding.
        let mut bucket = TokenBucket::new(2.0 * rate_per_sec.max(1.0), 64.0);
        let mut queue = AdmissionQueue::new(1024);
        let mut book = RequestBook::new();
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for request in &subs {
            now += gap;
            if bucket.try_take(now) && queue.offer(now) {
                let arrived = queue.pop().expect("just offered");
                let id = book.begin(0, arrived, now, request);
                for sub in 0..request.len() {
                    std::hint::black_box(book.complete_sub(id, sub, now + gap, false));
                }
            }
        }
        t0.elapsed()
    })
}

/// Host ns per fleet request: rendezvous placement among the live
/// arrays plus the request and completion network legs.
fn fleet_ns(arrays: usize, rate_per_sec: f64, seed: u64) -> f64 {
    let gap = SimDuration::from_secs_f64(1.0 / rate_per_sec.max(1.0));
    let alive: Vec<usize> = (0..arrays.max(1)).collect();
    let proto: Vec<NetHop> = alive
        .iter()
        .map(|&a| NetHop::new(HopSpec::datacenter(), seed, a as u64))
        .collect();
    let mut rng = SimRng::from_seed_and_stream(seed, 0xF1EE7);
    let volumes: Vec<u64> = (0..REPLAY_IOS).map(|_| rng.below(128)).collect();
    ns_per_call(volumes.len(), || {
        let mut hops = proto.clone();
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for &volume in &volumes {
            now += gap;
            let array = place_among(volume, &alive, 2)[0];
            let at_array = hops[array].request.reserve(now, 256);
            std::hint::black_box(hops[array].completion.reserve(at_array, 4096 + 256));
        }
        t0.elapsed()
    })
}

/// The per-layer metrics of one traced invocation. `plain` is an
/// untraced call (fusion only engages without recorders), `traced` the
/// recorded one (the same call on the serving workloads, which have no
/// recorders); `cpu_ns_per_io` and `cpu_over_wall` come from the
/// untraced calls. Glue is taken against CPU time, not wall time: the
/// layer replays are single-threaded CPU work.
pub fn per_layer(
    plain: &Raw,
    traced: &Raw,
    seed: u64,
    cpu_ns_per_io: f64,
    cpu_over_wall: f64,
    trace_overhead_pct: f64,
) -> Vec<Metric> {
    let w = plain.workload;
    let d = &plain.deltas;
    let ios = plain.ios() as f64;
    let events_per_io = per(d.events as f64, ios);

    // Layers replayed from the traced call's stage stamps; 0 on the
    // serving workloads, which record none.
    let shape = shape(plain, traced, seed);
    let (sim_event_ns, host, pcie, ssd, (hist_ns, sketch_ns)) = match &shape {
        Some(shape) => (
            queue_ns(shape, events_per_io.max(1.0)),
            host_ns(shape, seed),
            pcie_ns(shape),
            ssd_ns(shape, seed),
            stats_ns(shape),
        ),
        None => (0.0, 0.0, 0.0, 0.0, (0.0, 0.0)),
    };
    let sim = sim_event_ns * events_per_io;
    let widths = request_widths(plain);
    let rate = per(ios, plain.runtime.as_secs_f64());
    let (volume, frontend, fleet) = match w {
        Workload::ServeFanout16 => (volume_ns(&widths, seed), frontend_ns(&widths, rate), 0.0),
        Workload::FleetFailover8 => {
            let arrays = match &plain.output {
                Output::Serving(json) => u(&cells(json)[0], &["arrays"]) as usize,
                Output::Array(_) => unreachable!("fleet is a serving workload"),
            };
            let retries = per(d.fleet.retries as f64, ios);
            (
                0.0,
                frontend_ns(&widths, rate),
                fleet_ns(arrays, rate, seed) * (1.0 + retries),
            )
        }
        Workload::Fig06Default64 | Workload::Tuned8PollRw => (0.0, 0.0, 0.0),
    };
    // One histogram record per latency sample. Glue is what the timed
    // layers leave of the CPU time; with most layers untimed on the
    // serving workloads it would not be glue, so it reads 0 there.
    let glue = match shape {
        Some(_) => cpu_ns_per_io - (sim + host + pcie + ssd + hist_ns),
        None => 0.0,
    };

    let (counts, writes, retries, hk_hits, host_w, gc_w) = match &plain.output {
        Output::Array(r) => {
            let h = r.host.stats();
            let mut dev = (0u64, 0u64, 0u64, 0u64, 0u64);
            for (s, f) in &r.device_stats {
                dev.0 += s.writes;
                dev.1 += s.retries;
                dev.2 += s.housekeeping_hits;
                dev.3 += f.host_slots_written;
                dev.4 += f.gc_slots_copied;
            }
            (
                Some((h.clone(), r.fabric_stats.uplink_bytes)),
                dev.0,
                dev.1,
                dev.2,
                dev.3,
                dev.4,
            )
        }
        Output::Serving(_) => (None, 0, 0, 0, 0, 0),
    };
    let (irqs_per_io, remote_irq_frac, wakes_per_io, bg_per_s, uplink_per_io) = match &counts {
        Some((h, uplink)) => (
            per(h.irqs as f64, ios),
            per(h.remote_irqs as f64, h.irqs as f64),
            per(h.wakes as f64, ios),
            per(h.bg_bursts as f64, plain.runtime.as_secs_f64()),
            per(*uplink as f64, ios),
        ),
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let us_per_io = |cause: Cause| per(cause_total_ns(traced, cause), ios) / 1_000.0;
    let (shed_frac, stale_drops) = match &plain.output {
        Output::Serving(json) => {
            let shed = d.frontend.requests_shed as f64;
            let frac = match w {
                Workload::FleetFailover8 => per(shed, ios),
                _ => per(shed, ios + shed),
            };
            let stale: u64 = cells(json)
                .iter()
                .map(|c| u(c, &["counters", "stale_drops"]))
                .sum();
            (frac, stale as f64)
        }
        Output::Array(_) => (0.0, 0.0),
    };
    let polls = d.completion.polls as f64;

    vec![
        metric("sim.events_per_io", events_per_io, "count"),
        metric("sim.host_ns_per_event", sim_event_ns, "ns"),
        metric("sim.host_ns_per_io", sim, "ns"),
        metric("sim.clamped_past", d.clamped_past as f64, "count"),
        metric(
            "io_path.fused_frac",
            per(d.fusion.fused_chains as f64, ios),
            "ratio",
        ),
        metric(
            "io_path.defused_per_fused",
            per(d.fusion.defused_chains as f64, d.fusion.fused_chains as f64),
            "ratio",
        ),
        metric("glue_ns_per_io", glue, "ns"),
        metric("host.host_ns_per_io", host, "ns"),
        metric("host.irqs_per_io", irqs_per_io, "count"),
        metric("host.remote_irq_frac", remote_irq_frac, "ratio"),
        metric("host.wakes_per_io", wakes_per_io, "count"),
        metric("host.bg_bursts_per_sim_s", bg_per_s, "1/s"),
        metric(
            "sim_us_per_io.sched_delay",
            us_per_io(Cause::SchedulerDelay),
            "us",
        ),
        metric(
            "sim_us_per_io.cstate_exit",
            us_per_io(Cause::CStateExit),
            "us",
        ),
        metric(
            "sim_us_per_io.ctx_switch",
            us_per_io(Cause::ContextSwitch),
            "us",
        ),
        metric("sim_us_per_io.irq", us_per_io(Cause::IrqHandling), "us"),
        metric(
            "sim_us_per_io.remote_completion",
            us_per_io(Cause::RemoteCompletion),
            "us",
        ),
        metric("sim_us_per_io.cpu_work", us_per_io(Cause::CpuWork), "us"),
        metric("pcie.host_ns_per_io", pcie, "ns"),
        metric("pcie.uplink_bytes_per_io", uplink_per_io, "B"),
        metric("sim_us_per_io.fabric", us_per_io(Cause::Fabric), "us"),
        metric("ssd.host_ns_per_io", ssd, "ns"),
        metric("ssd.writes_per_io", per(writes as f64, ios), "count"),
        metric("ssd.retries_per_io", per(retries as f64, ios), "count"),
        metric("ssd.housekeeping_hits", hk_hits as f64, "count"),
        metric(
            "ssd.write_amp",
            if host_w > 0 {
                per((host_w + gc_w) as f64, host_w as f64)
            } else {
                1.0
            },
            "ratio",
        ),
        metric(
            "sim_us_per_io.device_service",
            us_per_io(Cause::DeviceService),
            "us",
        ),
        metric(
            "sim_us_per_io.device_queueing",
            us_per_io(Cause::DeviceQueueing),
            "us",
        ),
        metric(
            "sim_us_per_io.housekeeping",
            us_per_io(Cause::Housekeeping),
            "us",
        ),
        metric(
            "sim_us_per_io.gc",
            us_per_io(Cause::GarbageCollection),
            "us",
        ),
        metric("completion.polls_per_io", per(polls, ios), "count"),
        metric(
            "completion.interrupts_per_io",
            per(d.completion.interrupts as f64, ios),
            "count",
        ),
        metric(
            "completion.hybrid_oversleep_frac",
            per(d.completion.hybrid_sleeps as f64, polls),
            "ratio",
        ),
        metric(
            "sim_us_per_io.poll_sleep",
            us_per_io(Cause::PollSleep),
            "us",
        ),
        metric("stats.host_ns_per_record.histogram", hist_ns, "ns"),
        metric("stats.host_ns_per_record.sketch", sketch_ns, "ns"),
        metric(
            "stats.sketch_merges",
            d.frontend.sketch_merges as f64,
            "count",
        ),
        metric(
            "volume.sub_ios_per_request",
            sub_ios_per_request(plain),
            "count",
        ),
        metric("volume.host_ns_per_io", volume, "ns"),
        metric("frontend.shed_frac", shed_frac, "ratio"),
        metric(
            "frontend.slab_peak_live",
            d.frontend.slab_peak_live as f64,
            "count",
        ),
        metric("frontend.host_ns_per_io", frontend, "ns"),
        metric(
            "sim_us_per_io.frontend_queue",
            us_per_io(Cause::FrontendQueue),
            "us",
        ),
        metric("fleet.failovers", d.fleet.failovers as f64, "count"),
        metric(
            "fleet.retries_per_request",
            per(d.fleet.retries as f64, ios),
            "count",
        ),
        metric("fleet.stale_drops", stale_drops, "count"),
        metric(
            "fleet.rereplication_ios",
            d.fleet.rereplication_ios as f64,
            "count",
        ),
        metric("fleet.host_ns_per_io", fleet, "ns"),
        metric("sim_us_per_io.network", us_per_io(Cause::Network), "us"),
        metric("pool.cpu_over_wall", cpu_over_wall, "ratio"),
        metric("trace_overhead_pct", trace_overhead_pct, "%"),
    ]
}
