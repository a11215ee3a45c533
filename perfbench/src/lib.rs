//! Same-host benchmark of `tiresias serve`: three workloads driven
//! through the real daemon, checked against an offline replay, plus an
//! in-process traced replay for per-layer costs. See README.md.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod drive;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use drive::{Failures, Rep, Setup};
use stats::{json_num, json_str, median, quantile, supports, Metric};
use workload::Spec;

/// Extra daemon starts per invocation for the set-up time.
pub const SETUP_PROBES: usize = 4;

/// A step sent more than this after its due time counts as late.
pub const LATE_MS: f64 = 1.0;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload's size and shape.
    pub spec: Spec,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether to add the traced run and report per-layer metrics.
    pub trace: bool,
    /// The `tiresias` binary.
    pub bin: PathBuf,
    /// Scratch directory (created; reused across invocations).
    pub work: PathBuf,
}

/// What an invocation produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every repetition passed the output check.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Provenance, sample counts and failure accounting, as one JSON
    /// object.
    pub report: String,
    /// The repetitions, for tests.
    pub reps: Vec<Rep>,
    /// The oracle's events, for tests.
    pub expected: Vec<tiresias_core::AnomalyEvent>,
}

fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc)
    )
}

/// Runs one invocation: generate, replay offline, drive the daemon
/// for the run's time, check every repetition, and (traced) replay in
/// process.
pub fn run(o: &Opts) -> io::Result<Outcome> {
    let spec = &o.spec;
    std::fs::create_dir_all(&o.work)?;
    let gen = workload::generate(spec, o.seed);
    let expected = oracle::replay(&gen.records).map_err(|e| io::Error::other(e.to_string()))?;
    let n = gen.records.len();
    let (crash_image, chunks) = if spec.durable() {
        let prep_end = gen.unit_start[spec.prep_units as usize];
        let image = o.work.join("crash-image");
        let _ = std::fs::remove_dir_all(&image);
        let prep = drive::encode(spec, &gen.records, 0..prep_end);
        let args = drive::daemon_args(Some(&image), "none");
        let d = daemon::Daemon::start(&o.bin, &args, &o.work.join("daemon.log"))?;
        drive::feed_plain(&d, spec, &prep, spec.prep_units - 2)?;
        // Dropping the daemon SIGKILLs it: the WAL is left unconsumed.
        drop(d);
        (Some(image), drive::encode(spec, &gen.records, prep_end..n))
    } else {
        (None, drive::encode(spec, &gen.records, 0..n))
    };
    let setup = Setup {
        bin: &o.bin,
        spec,
        gen: &gen,
        chunks: &chunks,
        expected: &expected,
        crash_image,
        work: &o.work,
    };
    // Open loop: whole repetitions of the fixed schedule that fit the
    // run's time; closed loop: repeat until the time is used.
    let open_reps = if spec.open_loop() {
        let rep_s = n as f64 / spec.rate_rps;
        ((o.seconds / rep_s).round() as usize).max(1)
    } else {
        0
    };
    let t_run = Instant::now();
    // Set-up is short and noisy: besides each repetition's own start,
    // take a few extra starts and report the median of all.
    let mut setups = Vec::new();
    for _ in 0..SETUP_PROBES {
        setups.push(drive::setup_probe(&setup)?);
    }
    let mut reps = Vec::new();
    let mut failures = Failures::default();
    let mut problems = Vec::new();
    loop {
        match drive::run_rep(&setup) {
            Ok(rep) => {
                if let Err(e) = oracle::check(&rep.delivered, &expected.events) {
                    problems.push(e);
                }
                problems.extend(rep.problems.iter().cloned());
                failures.add(&rep.failures);
                reps.push(rep);
            }
            Err(e) => {
                failures.io_errors += 1;
                problems.push(format!("repetition {} failed: {e}", reps.len()));
                break;
            }
        }
        let done = if spec.open_loop() {
            reps.len() >= open_reps
        } else {
            t_run.elapsed() >= Duration::from_secs_f64(o.seconds)
        };
        if done {
            break;
        }
    }
    let attempted = reps.iter().map(|r| r.attempted).sum::<u64>().max(1);
    let failed = failures.total();
    let correct = problems.is_empty() && !reps.is_empty();
    let pool = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (ack, alert, query, late) =
        (pool(|r| &r.ack_ms), pool(|r| &r.alert_ms), pool(|r| &r.query_ms), pool(|r| &r.late_ms));
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    // Ack and query medians: per repetition, then the median across
    // repetitions, so one noisy repetition does not set the run's
    // figure. Alerts and the ungated tails need the pooled sample.
    let rep_q = |f: fn(&Rep) -> &Vec<f64>, p: f64| per_rep(&|r| q(f(r), p));
    setups.extend(reps.iter().map(|r| r.setup_s));
    let records: u64 = reps.iter().map(|r| r.records).sum();
    let cpu: f64 = reps.iter().map(|r| r.cpu_s).sum();
    let late_p99 = q(&late, 0.99);
    let late_share =
        late.iter().filter(|&&l| l > LATE_MS).count() as f64 / late.len().max(1) as f64;
    let behind = spec.open_loop() && (late_share > 0.01 || late_p99 > 10.0 * LATE_MS);
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = if o.trace {
        let spans = o.work.join(format!("spans-{}.csv", spec.kind.name()));
        let mut v = trace::run(spec, &gen, &o.work, &spans)?;
        v.push(m("loadgen.late_p99_ms", late_p99, "ms"));
        v.push(m("loadgen.late_pct", late_share * 100.0, "%"));
        v
    } else {
        vec![
            m("setup_s", median(&setups).unwrap_or(0.0), "s"),
            m("throughput_rps", per_rep(&|r| r.records as f64 / r.elapsed_s.max(1e-9)), "1/s"),
            m("ack_p50_ms", rep_q(|r| &r.ack_ms, 0.5), "ms"),
            m("alert_p50_ms", q(&alert, 0.5), "ms"),
            m("alert_p90_ms", q(&alert, 0.9), "ms"),
            m("query_p50_ms", rep_q(|r| &r.query_ms, 0.5), "ms"),
            m("peak_rss_mb", per_rep(&|r| r.peak_rss_mb), "MiB"),
            m("cpu_us_per_rec", cpu / records.max(1) as f64 * 1e6, "us"),
        ]
    };
    if behind {
        eprintln!(
            "perfbench: the generator fell behind its schedule \
             ({:.1}% of steps late, p99 {late_p99:.2} ms)",
            late_share * 100.0
        );
    }
    let p = &gen.props;
    let samples = format!(
        "{{\"setup\": {}, \"ack\": {}, \"alert\": {}, \"query\": {}, \
         \"ack_p99_supported\": {}, \"alert_p90_supported\": {}, \"query_p90_supported\": {}}}",
        setups.len(),
        ack.len(),
        alert.len(),
        query.len(),
        supports(ack.len(), 0.99),
        supports(alert.len(), 0.9),
        supports(query.len(), 0.9)
    );
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"reps\": {}, \"host\": {}, \
         \"props\": {{\"tree_nodes\": {}, \"leaves\": {}, \"records\": {}, \"units\": {}, \
         \"heavy_hitters\": {}, \"injected_spans\": {}, \"expected_events\": {}, \
         \"leaf_units_le1\": {}, \"hit_leaf_units_single\": {}}}, \"samples\": {samples}, \
         \"failures\": {{\"err_replies\": {}, \"refused\": {}, \"sub_dropped\": {}, \
         \"io_errors\": {}}}, \"error_rate\": {{\"value\": {}, \"unit\": \"ratio\"}}, \
         \"loadgen\": {{\"late_p99_ms\": {}, \"late_share\": {}, \"behind\": {behind}}}, \
         \"tails\": {{\"ack_p90_ms\": {}, \"ack_p99_ms\": {}, \"query_p90_ms\": {}}}, \
         \"check\": {}}}",
        json_str(spec.kind.name()),
        o.seed,
        json_num(o.seconds),
        reps.len(),
        host(),
        p.tree_nodes,
        p.leaves,
        p.records,
        p.units,
        expected.heavy_hitters,
        p.spans,
        expected.events.len(),
        json_num(p.leaf_units_le1),
        json_num(p.hit_leaf_units_single),
        failures.err_replies,
        failures.refused,
        failures.sub_dropped,
        failures.io_errors,
        json_num(failed as f64 / attempted as f64),
        json_num(late_p99),
        json_num(late_share),
        json_num(q(&ack, 0.9)),
        json_num(q(&ack, 0.99)),
        json_num(q(&query, 0.9)),
        json_str(&if problems.is_empty() { "ok".to_string() } else { problems.join("; ") }),
    );
    Ok(Outcome { correct, attempted, failed, metrics, report, reps, expected: expected.events })
}
