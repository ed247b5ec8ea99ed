//! The reference kernel: a frozen toy discrete-event loop that the
//! benchmark times next to every workload call, so that host time can
//! be reported relative to how fast the host runs simulator-like code
//! at that moment.
//!
//! On a shared host the same call slows by up to 1.9× for phases of
//! seconds to minutes (other tenants' load); a whole run can sit inside
//! such a phase, and no estimator over the run's own calls can see it.
//! The kernel — a binary-heap event queue, 1 MiB of per-device state
//! and a hash map of in-flight ids — slows with the simulator: on the
//! reference host, between the fastest and slowest tenth of calls,
//! `tuned-8-poll-rw` slowed 1.58× and the kernel 1.45× (log-log
//! correlation 0.81), `fig06-default-64` 1.37× and the kernel 1.34×
//! (0.73), while a register-only loop slowed 1.1× and pointer chases
//! over 4–16 MiB 1.1×. The kernel belongs to the benchmark, not to the
//! repository, so no change to the simulator changes it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use crate::measure::median;

/// Nominal time per reference event: the kernel's speed in a quiet
/// moment of the reference host (2 vCPUs of an `Intel(R) Xeon(R)
/// Processor`, rustc 1.95.0, release), about its 5th-percentile chunk.
/// A fixed scale only: normalised figures read close to raw ones when
/// the host is quiet, and never depend on it otherwise.
pub const NOMINAL_NS_PER_EVENT: f64 = 90.0;

/// How a workload call's time scales with the kernel's: the mean, over
/// the four workloads, of the slope of log call time on log reference
/// ns per event across 20 runs each on the reference host — 1.09
/// (`fig06-default-64`), 1.50 (`tuned-8-poll-rw`), 1.16
/// (`serve-fanout-16`), 1.22 (`fleet-failover-8`).
pub const SENSITIVITY: f64 = 1.25;

/// Simulated devices, each with a table of `SLOTS` words: 1 MiB of
/// state, as hot as the simulator's per-device state.
const DEVICES: u64 = 64;
const SLOTS: usize = 2048;

/// Events in flight in the hash map before the oldest is retired.
const IN_FLIGHT: u64 = 256;

/// Events per timed chunk (≈0.35 ms at nominal speed), and chunks per
/// sample: the median chunk drops the ones a preemption landed in.
const CHUNK_EVENTS: u64 = 4_000;
const CHUNKS: usize = 9;

/// Runs `events` events of the toy loop and returns a checksum of its
/// state (the caller black-boxes it, so nothing is optimised away).
fn run_events(events: u64) -> u64 {
    let mut devices: Vec<Vec<u64>> = (0..DEVICES).map(|d| vec![d; SLOTS]).collect();
    let mut queue = BinaryHeap::new();
    let mut in_flight: HashMap<u64, u64> = HashMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for d in 0..DEVICES {
        queue.push(Reverse((d, d)));
    }
    let mut acc = 0u64;
    for id in 0..events {
        let Reverse((at, device)) = queue.pop().expect("one event per device is always queued");
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slot = ((x >> 40) % SLOTS as u64) as usize;
        let state = &mut devices[device as usize];
        state[slot] = state[slot].wrapping_add(at);
        acc ^= state[(slot * 7) % SLOTS];
        in_flight.insert(id, at);
        if id >= IN_FLIGHT {
            acc ^= in_flight.remove(&(id - IN_FLIGHT)).unwrap_or(0);
        }
        queue.push(Reverse((at + 1 + (x >> 54), (x >> 20) % DEVICES)));
    }
    acc
}

/// Host time per reference event right now, ns: the median of
/// [`CHUNKS`] timed chunks (≈3 ms in all).
pub fn ns_per_event() -> f64 {
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run_events(std::hint::black_box(CHUNK_EVENTS)));
            t0.elapsed().as_secs_f64() * 1e9 / CHUNK_EVENTS as f64
        })
        .collect();
    median(&chunks)
}

/// `value` rescaled from a host running the reference kernel at
/// `ns_per_event` to one running it at [`NOMINAL_NS_PER_EVENT`]. Linear
/// in `value`: a call that gets k× faster reads k× lower.
pub fn normalise(value: f64, ns_per_event: f64) -> f64 {
    value * (NOMINAL_NS_PER_EVENT / ns_per_event).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(run_events(CHUNK_EVENTS), run_events(CHUNK_EVENTS));
        assert_ne!(run_events(CHUNK_EVENTS), run_events(CHUNK_EVENTS + 1));
    }

    #[test]
    fn a_sample_is_a_plausible_time() {
        let ns = ns_per_event();
        assert!(ns > 1.0 && ns < 100_000.0, "{ns} ns per reference event");
    }

    #[test]
    fn normalising_scales_by_the_host_speed() {
        assert_eq!(normalise(100.0, NOMINAL_NS_PER_EVENT), 100.0);
        let slow = normalise(100.0, 2.0 * NOMINAL_NS_PER_EVENT);
        assert!((slow - 100.0 * 0.5f64.powf(SENSITIVITY)).abs() < 1e-9);
    }
}
