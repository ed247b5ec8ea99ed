//! Host-cost benchmark of the AFA simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig06-default-64 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload call for `--seconds` and prints the
//! end-to-end metrics (host and CPU ns per simulated I/O and set-up
//! time, each normalised to the reference kernel's speed around the
//! call, and peak RSS); `--trace 1` prints the per-layer metrics of a
//! traced run instead. Every call's outputs are checked (see
//! [`Checker`]); the last line of standard output is one JSON object
//! with the verdict and the metrics. See `perfbench/README.md`.

mod layers;
mod measure;
mod reference;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use afa_sim::SimDuration;

use crate::layers::{metric, Metric};
use crate::measure::{median, peak_rss_mb, process_cpu_s, quartiles, reset_peak_rss};
use crate::reference::normalise;
use crate::workload::{Raw, Workload, PAPER_FIG6_MAX_US};

/// Share of an untraced run's host time spent on set-up calls (the
/// workload at zero simulated runtime), interleaved with the measured
/// calls so that both sample the same quiet and busy moments.
const SETUP_SHARE: f64 = 0.2;

/// Measured (and set-up) calls per phase, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// Digests recorded for some seeds (`<workload> <seed> <digest>`).
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Simulated run time of one measured call (the workload's own;
    /// the self-tests shrink it).
    runtime: SimDuration,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value).ok_or(bad(&format!("expected one of {names:?}")))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: Workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        runtime: workload.runtime(),
    })
}

/// Checks every call of one invocation: the conservation laws of
/// [`Raw::problems`], the digest equal across repeats, and equal to the
/// recorded digest when the seed has one.
struct Checker {
    expected: Option<String>,
    first: Option<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        let expected = RECORDED_DIGESTS.lines().find_map(|line| {
            let mut f = line.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            (w == workload.name() && s.parse() == Ok(seed)).then(|| d.to_owned())
        });
        Checker {
            expected,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, raw: &Raw) {
        self.attempted += 1;
        let mut problems = raw.problems();
        let digest = raw.digest();
        let first = self.first.get_or_insert_with(|| digest.clone());
        if *first != digest {
            problems.push(format!(
                "digest {digest} differs from the first call's {first}"
            ));
        }
        if let Some(expected) = &self.expected {
            if *expected != digest {
                problems.push(format!("digest {digest}, recorded {expected}"));
            }
        }
        if !problems.is_empty() {
            self.failed += 1;
            // The first few failures say what is wrong; the count in
            // the result says how often.
            if self.failed <= 3 {
                eprintln!(
                    "perfbench: call {} failed: {}",
                    self.attempted,
                    problems.join("; ")
                );
            }
        }
    }
}

/// Per-call measurements of one phase, plus its last call.
struct Phase {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Reference ns per event around each measured call: the mean of
    /// the samples taken just before and just after it.
    refs: Vec<f64>,
    /// Wall time of each set-up call, with the reference ns per event
    /// around its batch (taken like `refs`).
    setups: Vec<(f64, f64)>,
    last: Raw,
}

impl Phase {
    fn ns_per_io(&self, per_call: &[f64]) -> Vec<f64> {
        let ios = self.last.ios().max(1) as f64;
        per_call.iter().map(|s| s * 1e9 / ios).collect()
    }

    /// `per_call`, each value normalised by the reference speed around
    /// its call.
    fn normalised(&self, per_call: &[f64]) -> Vec<f64> {
        per_call
            .iter()
            .zip(&self.refs)
            .map(|(&v, &r)| normalise(v, r))
            .collect()
    }

    /// Mean of `per_call` over the fastest tenth of the calls.
    fn quiet_mean(&self, per_call: &[f64]) -> f64 {
        quiet_mean(&self.walls, per_call)
    }
}

/// Indices of the fastest tenth of the calls by wall time (at least
/// one). Noise on a shared host only ever adds time, and it comes in
/// phases of tens of seconds: over short calls the quiet tenth of a run
/// is far steadier between runs than its median.
fn quiet_calls(walls: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order.truncate((walls.len() / 10).max(1));
    order
}

/// Mean of `per_call` over [`quiet_calls`] of `walls`.
fn quiet_mean(walls: &[f64], per_call: &[f64]) -> f64 {
    let quiet = quiet_calls(walls);
    quiet.iter().map(|&i| per_call[i]).sum::<f64>() / quiet.len() as f64
}

/// Repeats the workload call until `budget_s` of host time has passed
/// (at least [`MIN_RUNS`] calls), strictly one call at a time. With
/// `with_setup`, set-up calls — the workload at the smallest simulated
/// runtime the API accepts, zero — follow each measured call until they
/// hold [`SETUP_SHARE`] of the elapsed time. The reference kernel is
/// sampled before the first call and after each call's set-up batch.
fn measure(
    args: &Args,
    traced: bool,
    budget_s: f64,
    checker: &mut Checker,
    with_setup: bool,
) -> Phase {
    let (mut walls, mut cpus, mut rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut refs, mut setups) = (Vec::new(), Vec::new());
    let mut setup_total = 0.0;
    let start = Instant::now();
    let mut ref_before = reference::ns_per_event();
    loop {
        reset_peak_rss();
        let cpu0 = process_cpu_s();
        let t0 = Instant::now();
        let raw = args.workload.run(args.seed, args.runtime, traced);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(process_cpu_s() - cpu0);
        rss_mb.push(peak_rss_mb());
        checker.check(&raw);
        let batch = setups.len();
        while with_setup
            && (setups.len() < MIN_RUNS
                || setup_total < SETUP_SHARE * start.elapsed().as_secs_f64())
        {
            let t0 = Instant::now();
            drop(args.workload.run(args.seed, SimDuration::ZERO, false));
            let wall = t0.elapsed().as_secs_f64();
            setups.push((wall, 0.0));
            setup_total += wall;
        }
        let ref_after = reference::ns_per_event();
        let around = (ref_before + ref_after) / 2.0;
        refs.push(around);
        for setup in &mut setups[batch..] {
            setup.1 = around;
        }
        ref_before = ref_after;
        if walls.len() >= MIN_RUNS && start.elapsed().as_secs_f64() >= budget_s {
            return Phase {
                walls,
                cpus,
                rss_mb,
                refs,
                setups,
                last: raw,
            };
        }
    }
}

fn host_manifest() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

fn describe(name: &str, value: f64, unit: &str, per_call: &[f64], note: &str) -> String {
    let (q1, q3) = quartiles(per_call);
    format!(
        "  {name:<20} {value:>14.4} {unit:<5} {note}; all {} calls: median {:.4}, q1 {q1:.4}, q3 {q3:.4}",
        per_call.len(),
        median(per_call)
    )
}

fn json_line(checker: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

fn end_to_end(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    let phase = measure(args, false, args.seconds, checker, true);
    let host = phase.ns_per_io(&phase.walls);
    let cpu = phase.ns_per_io(&phase.cpus);
    let (norm_host, norm_cpu) = (phase.normalised(&host), phase.normalised(&cpu));
    let setup: Vec<f64> = phase.setups.iter().map(|&(wall, _)| wall).collect();
    let norm_setup: Vec<f64> = phase
        .setups
        .iter()
        .map(|&(wall, r)| normalise(wall, r))
        .collect();
    let (host_ns, cpu_ns) = (median(&norm_host), median(&norm_cpu));
    let setup_s = median(&norm_setup);
    println!("end-to-end, {} simulated I/Os per call:", phase.last.ios());
    let norm = "median, normalised to the reference speed";
    let raw = "raw, not normalised";
    let around = "the reference kernel around each call";
    for (name, value, unit, per_call, note) in [
        ("norm_host_ns_per_io", host_ns, "ns", &norm_host, norm),
        ("host_ns_per_io", median(&host), "ns", &host, raw),
        ("norm_cpu_ns_per_io", cpu_ns, "ns", &norm_cpu, norm),
        ("cpu_ns_per_io", median(&cpu), "ns", &cpu, raw),
        ("setup_s", setup_s, "s", &norm_setup, norm),
        ("raw setup_s", median(&setup), "s", &setup, raw),
        (
            "ref_ns_per_event",
            median(&phase.refs),
            "ns",
            &phase.refs,
            around,
        ),
    ] {
        println!("{}", describe(name, value, unit, per_call, note));
    }
    // The first call's peak, in a fresh process: later calls inherit
    // whatever the allocator kept or returned (the pool threads'
    // arenas), which moves their peaks by −30 % to +45 % at random.
    let rss_mb = phase.rss_mb[0];
    println!(
        "{}",
        describe("peak_rss_mb", rss_mb, "MB", &phase.rss_mb, "first call")
    );
    println!(
        "  {:<20} {:>14.4} {:<5} ({} of {} calls failed their checks)",
        "failed_frac",
        checker.failed as f64 / checker.attempted as f64,
        "ratio",
        checker.failed,
        checker.attempted
    );
    match phase.last.mean_max_us().filter(|_| args.workload == Workload::Fig06Default64) {
        Some(max_us) => println!(
            "  {:<20} {:>14.4} {:<5} mean per-SSD max {max_us:.1} us vs the paper's {PAPER_FIG6_MAX_US} us",
            "paper_err_pct",
            (max_us - PAPER_FIG6_MAX_US).abs() / PAPER_FIG6_MAX_US * 100.0,
            "%"
        ),
        None => println!(
            "  {:<20} {:>14} {:<5} (no reference figure for this workload)",
            "paper_err_pct", "n/a", "%"
        ),
    }
    println!("digest {}", phase.last.digest());
    vec![
        metric("norm_host_ns_per_io", host_ns, "ns"),
        metric("norm_cpu_ns_per_io", cpu_ns, "ns"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

fn traced(args: &Args, checker: &mut Checker) -> Vec<Metric> {
    // The serving experiments have no recorder to turn on: their traced
    // run is the untraced one, and costs nothing over it.
    let has_recorders = args
        .workload
        .array_config(args.seed, args.runtime)
        .is_some();
    let share = if has_recorders { 0.5 } else { 1.0 };
    let plain = measure(args, false, args.seconds * share, checker, false);
    let recorded = has_recorders.then(|| measure(args, true, args.seconds * share, checker, false));
    let host_ns_per_io = plain.quiet_mean(&plain.ns_per_io(&plain.walls));
    let cpu_ns_per_io = plain.quiet_mean(&plain.ns_per_io(&plain.cpus));
    let cpu_over_wall = plain.cpus.iter().sum::<f64>() / plain.walls.iter().sum::<f64>();
    let overhead_pct = recorded.as_ref().map_or(0.0, |recorded| {
        (recorded.quiet_mean(&recorded.walls) / plain.quiet_mean(&plain.walls) - 1.0) * 100.0
    });
    let metrics = layers::per_layer(
        &plain.last,
        recorded.as_ref().map_or(&plain.last, |r| &r.last),
        args.seed,
        cpu_ns_per_io,
        cpu_over_wall,
        overhead_pct,
    );
    println!(
        "per-layer, {} untraced and {} traced calls, {} simulated I/Os per call \
         (untraced host_ns_per_io {host_ns_per_io:.1} ns, cpu_ns_per_io {cpu_ns_per_io:.1} ns):",
        plain.walls.len(),
        recorded.as_ref().map_or(0, |r| r.walls.len()),
        plain.last.ios()
    );
    for m in &metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    metrics
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every AFA_* knob changes what is measured (engine threads, shard
    // plan, fusion) or is read by no workload here; refuse them all.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("AFA_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {knobs:?} set; unset every AFA_* variable");
        return ExitCode::from(2);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_manifest());
    let mut checker = Checker::new(args.workload, args.seed);
    let metrics = if args.trace {
        traced(&args, &mut checker)
    } else {
        end_to_end(&args, &mut checker)
    };
    println!("{}", json_line(&checker, &metrics));
    if checker.failed > 0 {
        // The result is printed, but a run whose outputs failed their
        // checks is not a pass.
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Workload calls read process-wide counters as deltas, so the
    /// tests that make them run one at a time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    /// `(name, unit)` of every metric in one section of the repository's
    /// `BENCHMARK.json` (written with one metric object per line).
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &doc[start..start + doc[start..].find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            line[at..at + line[at..].find('"').expect("closing quote")].to_owned()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            // No digest is recorded for this seed: recorded digests hold
            // at the workloads' own call sizes only.
            seed: 1234,
            seconds: 0.01,
            trace,
            runtime: SimDuration::from_secs_f64(match workload {
                Workload::Fig06Default64 => 0.002,
                _ => 0.02,
            }),
        }
    }

    #[test]
    fn smoke_every_workload_prints_every_declared_metric() {
        let _serial = ONE_AT_A_TIME.lock().expect("no test panicked holding it");
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        for workload in Workload::ALL {
            let args = tiny(workload, false);
            let mut checker = Checker::new(workload, args.seed);
            let metrics = super::end_to_end(&args, &mut checker);
            assert_eq!(printed(&metrics), end_to_end, "{}", workload.name());
            assert!(metrics.iter().all(|m| m.value > 0.0), "{}", workload.name());

            let args = tiny(workload, true);
            let metrics = traced(&args, &mut checker);
            assert_eq!(printed(&metrics), per_layer, "{}", workload.name());
            assert!(checker.attempted >= 2 * MIN_RUNS as u64);
            assert_eq!(checker.failed, 0, "{}", workload.name());
            let line = json_line(&checker, &metrics);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn a_wrong_recorded_digest_fails_the_run() {
        let _serial = ONE_AT_A_TIME.lock().expect("no test panicked holding it");
        let args = tiny(Workload::Tuned8PollRw, false);
        let mut checker = Checker::new(args.workload, args.seed);
        checker.expected = Some("0000000000000000".to_owned());
        let raw = args.workload.run(args.seed, args.runtime, false);
        checker.check(&raw);
        assert_eq!((checker.attempted, checker.failed), (1, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload tuned-8-poll-rw --seed 7 --seconds 2.5 --trace 1")
            .expect("valid arguments");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.5, true));
        assert!(parse("--workload nope --seed 7 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload tuned-8-poll-rw --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload tuned-8-poll-rw --seed 7 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload tuned-8-poll-rw --seconds 1 --trace 0").is_err());
    }
}
