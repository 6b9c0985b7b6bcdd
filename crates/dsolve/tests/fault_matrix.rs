//! The fault matrix: every deterministic injection point run against the
//! figure-10 smoke benchmarks, asserting the robustness contract — a
//! faulted run either reports the same verdict as the clean run or
//! degrades to `UNKNOWN` (exit 2). It must never flip a definite verdict
//! (`SAFE` ↔ `UNSAFE`), and it must terminate within the budget.
//!
//! One test per benchmark so the matrix parallelizes under the default
//! test harness.

use std::path::PathBuf;
use std::process::Command;

/// Per-row SMT query cap, the fleet's `fleet_budget()`: a deterministic
/// budget, so a verdict never depends on host speed or load.
const MAX_SMT_QUERIES: &str = "50000";

/// Every fault point, with an occurrence chosen to land inside a short
/// run (`@1` for round/session-keyed points, a small `@N` for the
/// occurrence-counted query timeout).
const FAULTS: &[&str] = &[
    "worker-panic@1",
    "session-fail@1",
    "cache-poison",
    "trace-io",
    "query-timeout@3",
];

fn bench_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../benchmarks")
        .join(format!("{name}.ml"))
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Safe,
    Unsafe,
    Unknown,
}

fn run(bench: &str, extra: &[&str]) -> (Option<i32>, Verdict, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsolve"))
        .arg(bench_path(bench))
        .args(["--max-smt-queries", MAX_SMT_QUERIES, "--jobs", "2", "--quiet"])
        .args(extra)
        .output()
        .expect("spawn dsolve");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // Probe UNSAFE/UNKNOWN before SAFE: "UNSAFE" contains "SAFE".
    let verdict = if stdout.contains("UNSAFE") {
        Verdict::Unsafe
    } else if stdout.contains("UNKNOWN") {
        Verdict::Unknown
    } else if stdout.contains("SAFE") {
        Verdict::Safe
    } else {
        panic!(
            "no verdict from `{bench}` with {extra:?}: stdout={stdout} stderr={}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    (out.status.code(), verdict, stdout)
}

/// Runs the whole fault matrix for one benchmark.
fn fault_matrix(bench: &str) {
    let (clean_code, clean, _) = run(bench, &[]);
    match clean {
        Verdict::Safe => assert_eq!(clean_code, Some(0), "{bench} clean exit"),
        Verdict::Unsafe => assert_eq!(clean_code, Some(1), "{bench} clean exit"),
        Verdict::Unknown => assert_eq!(clean_code, Some(2), "{bench} clean exit"),
    }
    for fault in FAULTS {
        // `trace-io` is a no-op without a sink; give it one.
        let trace = std::env::temp_dir().join(format!(
            "fault-matrix-{bench}-trace-{}.json",
            std::process::id()
        ));
        let extra: Vec<&str> = if *fault == "trace-io" {
            vec!["--inject-fault", fault, "--trace-out", trace.to_str().unwrap()]
        } else {
            vec!["--inject-fault", fault]
        };
        let (code, verdict, stdout) = run(bench, &extra);
        let _ = std::fs::remove_file(&trace);
        // The contract: same verdict as the clean run, or a degraded
        // UNKNOWN — never a flipped definite answer.
        assert!(
            verdict == clean || verdict == Verdict::Unknown,
            "{bench} + {fault}: clean={clean:?} faulted={verdict:?}\n{stdout}"
        );
        match verdict {
            Verdict::Safe => assert_eq!(code, Some(0), "{bench} + {fault}\n{stdout}"),
            Verdict::Unsafe => assert_eq!(code, Some(1), "{bench} + {fault}\n{stdout}"),
            Verdict::Unknown => assert_eq!(code, Some(2), "{bench} + {fault}\n{stdout}"),
        }
    }
}

#[test]
fn fault_matrix_ralist() {
    fault_matrix("ralist");
}

#[test]
fn fault_matrix_stablesort() {
    fault_matrix("stablesort");
}

#[test]
fn fault_matrix_subvsolve() {
    fault_matrix("subvsolve");
}

#[test]
fn fault_matrix_malloc() {
    fault_matrix("malloc");
}

/// A panicking worker must quarantine, not abort: the process exits 2
/// with an UNKNOWN verdict that names the panic, and stdout still
/// carries the report line.
#[test]
fn worker_panic_degrades_not_aborts() {
    let (code, verdict, stdout) = run("malloc", &["--inject-fault", "worker-panic@1"]);
    assert_eq!(verdict, Verdict::Unknown, "{stdout}");
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("panic"), "reason names the panic: {stdout}");
}

/// Certification on a clean run must not change the verdict, and every
/// definite verdict must carry a replayed certificate.
#[test]
fn certify_preserves_smoke_verdicts() {
    for bench in ["ralist", "malloc"] {
        let (_, clean, _) = run(bench, &[]);
        let (code, certified, stdout) = run(bench, &["--certify"]);
        assert_eq!(certified, clean, "{bench} --certify flipped: {stdout}");
        if certified == Verdict::Safe {
            assert_eq!(code, Some(0), "{stdout}");
        }
    }
}
