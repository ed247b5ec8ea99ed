//! Host-side measurement helpers: order statistics, the output digest,
//! the process CPU clock and the peak-RSS reader (`/proc/self`), std
//! only.

use std::fs;

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least
/// one run.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones computed from the
/// printed values. With a single value both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// 64-bit FNV-1a over a canonical byte rendering of a workload's
/// deterministic output. Not cryptographic: it only has to change when
/// any simulated statistic changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Adds one labelled integer (`label=value;`), so two fields can
    /// never trade values without changing the digest.
    pub fn field(&mut self, label: &str, value: u64) {
        self.bytes(label.as_bytes());
        self.bytes(b"=");
        self.bytes(value.to_string().as_bytes());
        self.bytes(b";");
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// From the C library the standard library already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, live or exited, in seconds (nanosecond resolution).
pub fn process_cpu_s() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Resets the peak-RSS watermark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs accepts 5");
}

/// Peak resident set (`VmHWM`) since the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("status has a VmHWM line in kB");
    kb as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn digest_catches_a_one_byte_change() {
        let text = b"reads=1037790;writes=0;irqs=1037790;".to_vec();
        let mut a = Digest::new();
        a.bytes(&text);
        for i in 0..text.len() {
            let mut changed = text.clone();
            changed[i] ^= 1;
            let mut b = Digest::new();
            b.bytes(&changed);
            assert_ne!(a, b, "flipping byte {i} must change the digest");
        }
        let mut again = Digest::new();
        again.bytes(&text);
        assert_eq!(a, again, "the digest is a pure function of the bytes");
    }

    #[test]
    fn procfs_readers_see_this_process() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > before, "a 60 ms spin shows as CPU time");
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
