//! Micro-benchmarks of the substrate hot paths (stdlib harness).
//!
//! The whole-array simulation's throughput is set by: histogram
//! recording (once per I/O), event-queue churn (once per I/O),
//! device-command reservation (once per I/O), the RNG, and the
//! scheduler wake path. These benches keep those paths honest.
//!
//! Run with `cargo bench -p afa-bench --bench micro`; pass a substring
//! filter as the first CLI argument to run a subset, e.g.
//! `cargo bench -p afa-bench --bench micro -- rng`.

use std::hint::black_box;

use afa_bench::micro::Harness;
use afa_frontend::RequestBook;
use afa_host::{BackgroundConfig, CpuId, CpuTopology, HostModel, KernelConfig, SchedPolicy};
use afa_sim::{EventQueue, SimDuration, SimRng, SimTime};
use afa_ssd::{FirmwareProfile, NvmeCommand, SsdDevice, SsdSpec};
use afa_stats::LatencyHistogram;
use afa_volume::{StripeConfig, StripedVolume};

fn bench_histogram(harness: &mut Harness) {
    // One `record` per iteration over a pseudo-random latency stream:
    // the once-per-I/O cost every simulated sample pays.
    let mut h = LatencyHistogram::new();
    let mut x = 12345u64;
    harness.bench("histogram_record", || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        h.record(black_box(20_000 + (x >> 40)));
    });
    let mut h = LatencyHistogram::new();
    for v in 0..1_000_000u64 {
        h.record(25_000 + v % 10_000);
    }
    harness.bench("histogram_percentile", || {
        black_box(h.value_at_percentile(black_box(99.999)));
    });
}

fn bench_event_queue(harness: &mut Harness) {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1024);
    let mut t = 0u64;
    for i in 0..512 {
        q.push(SimTime::from_nanos(i * 1000), i);
    }
    harness.bench("event_queue_push_pop", || {
        t += 997;
        q.push(SimTime::from_nanos(black_box(t)), t);
        black_box(q.pop());
    });
    // Steady-state churn at fixed occupancy: pop-then-push with
    // pseudo-random inter-event gaps mimicking the ~0.1–50 µs spread of
    // completion/interrupt events in a real run. The whole-array
    // simulation holds ~2 events per outstanding I/O, so 1 K ≈ a small
    // array and 64 K ≈ far beyond the paper's 64-SSD full-scale run.
    for &(name, depth) in &[
        ("queue_push_pop_1k", 1_024u64),
        ("queue_push_pop_64k", 65_536),
    ] {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(depth as usize);
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut gap = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            1 + (x >> 48) % 50_000
        };
        let mut horizon = 0u64;
        for i in 0..depth {
            horizon += gap();
            q.push(SimTime::from_nanos(horizon), i);
        }
        harness.bench(name, || {
            let (t, e) = q.pop().expect("queue stays at fixed depth");
            horizon = horizon.max(t.as_nanos()) + gap();
            q.push(SimTime::from_nanos(black_box(horizon)), e);
            black_box(t);
        });
    }
}

fn bench_rng(harness: &mut Harness) {
    let mut rng = SimRng::from_seed(7);
    harness.bench("rng_next_u64", || {
        black_box(rng.next_u64());
    });
    harness.bench("rng_exponential", || {
        black_box(rng.exponential(black_box(30.0)));
    });
}

fn bench_device(harness: &mut Harness) {
    let mut dev = SsdDevice::new(SsdSpec::table1(), FirmwareProfile::production(), 3);
    let mut now = SimTime::ZERO;
    let mut lba = 0u64;
    harness.bench("ssd_submit_read_4k", || {
        lba = (lba + 7_919) % 1_000_000;
        let info = dev.submit(now, NvmeCommand::read(black_box(lba), 4096));
        now = info.completes_at + SimDuration::micros(5);
        black_box(info);
    });
}

fn bench_scheduler(harness: &mut Harness) {
    let mut host = HostModel::new(
        CpuTopology::xeon_e5_2690_v2_dual(),
        KernelConfig::stock(),
        BackgroundConfig::centos7_desktop(),
        11,
    );
    host.init_vectors((0..64u16).map(|d| CpuId(4 + d % 32)).collect(), 11);
    let mut now = SimTime::ZERO;
    let mut d = 0usize;
    harness.bench("host_irq_wake_charge", || {
        d = (d + 1) % 64;
        let out = host.deliver_irq(d, now);
        let cpu = CpuId(4 + (d % 32) as u16);
        let (start, _) = host.wake_io_task(cpu, out.wake_ready, SchedPolicy::chrt_fifo_99());
        let end = host.charge_cpu(cpu, start, SimDuration::nanos(1_300));
        now += SimDuration::nanos(520);
        black_box(end);
    });
}

fn bench_frontend(harness: &mut Harness) {
    // One full 64-wide request per iteration: stripe mapping into 64
    // sub-I/Os, `RequestBook` open, and all 64 sub completions. This is
    // the per-request bookkeeping the `tailscale-fanout` /
    // `tailscale-hedge` experiments pay on top of the device/host
    // substrate.
    let volume = StripedVolume::new((0..64).collect(), StripeConfig::new(4096));
    let mut book = RequestBook::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut now = 0u64;
    harness.bench("frontend_fanout_64", || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let page = (x >> 33) % 4_000_000;
        let subs = volume.map_read(page, 64 * 4096);
        now += 1_000;
        let arrived = SimTime::from_nanos(now);
        let id = book.begin(0, arrived, SimTime::from_nanos(now + 200), &subs);
        for sub in 0..subs.len() {
            now += 10;
            black_box(book.complete_sub(id, sub, SimTime::from_nanos(now), false));
        }
    });
}

fn main() {
    let mut harness = Harness::from_args();
    bench_histogram(&mut harness);
    bench_event_queue(&mut harness);
    bench_rng(&mut harness);
    bench_device(&mut harness);
    bench_scheduler(&mut harness);
    bench_frontend(&mut harness);
    harness.report();
}
