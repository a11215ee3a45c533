//! Self-test: a tiny run of every workload passes the output check, the
//! check catches a single missing event, and both result lines carry
//! exactly the metrics `BENCHMARK.json` lists.
//!
//! Builds the daemon first, like `run.py`:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use perfbench::workload::{Kind, Spec};
use perfbench::{oracle, run, Opts, Outcome};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").into()
}

fn target() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| repo().join(".bench_build"), PathBuf::from)
}

/// The release daemon, built once per test binary.
fn daemon() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let status = Command::new("cargo")
            .args(["build", "--release", "--offline", "--quiet", "--bin", "tiresias"])
            .current_dir(repo())
            .env("CARGO_TARGET_DIR", target())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the daemon failed");
        target().join("release").join("tiresias")
    })
}

fn tiny(kind: Kind, trace: bool) -> Outcome {
    let opts = Opts {
        spec: Spec::tiny(kind),
        seed: 5,
        seconds: 0.2,
        trace,
        bin: daemon().to_path_buf(),
        work: target().join(format!("perfbench-test-{}-{trace}", kind.name())),
    };
    run(&opts).expect("the run completes")
}

/// The metric names of one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_passes_the_output_check() {
    for kind in Kind::ALL {
        let out = tiny(kind, false);
        assert!(out.correct, "{}: {}", kind.name(), out.report);
        assert_eq!(out.failed, 0, "{}: {}", kind.name(), out.report);
        assert!(!out.expected.is_empty(), "{}: the tiny run must detect something", kind.name());
        assert_eq!(names(&out), listed("end_to_end"), "{}", kind.name());
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn dropping_one_event_fails_the_check() {
    let out = tiny(Kind::CcdLive, false);
    let mut delivered = out.reps[0].delivered.clone();
    assert!(oracle::check(&delivered, &out.expected).is_ok());
    delivered.remove(delivered.len() / 2);
    assert!(oracle::check(&delivered, &out.expected).is_err());
}

#[test]
fn traced_run_reports_every_layer() {
    for kind in [Kind::ScdBulk, Kind::CcdDurable] {
        let out = tiny(kind, true);
        assert!(out.correct, "{}: {}", kind.name(), out.report);
        assert_eq!(names(&out), listed("per_layer"), "{}", kind.name());
    }
}
