//! Time-to-verdict benchmark worker.
//!
//! Runs one workload's programs in interleaved passes through the
//! pipeline's public entry points and prints one JSON object per line:
//! a `setup` record per pass, a `program` record per program per pass
//! (verdict, wall time, and the work counts and layer times the
//! `JobResult` exports), and a closing `done` record. `run.py` turns the
//! lines into metrics; nothing here estimates or judges.
//!
//! ```text
//! verdictbench-worker --workload fleet --order-seed 1 --seconds 40 --fleet-seed 7 \
//!     [--trace-dir DIR]
//! ```
//!
//! With `--trace-dir`, every odd pass gives each job an
//! `Obs::with_trace` sink in that directory, wraps the benchmark's call
//! into the job in spans, and folds the trace into self time per layer
//! with `dsolve::profile::collapse_trace`.

use dsolve::fleet::fleet_budget;
use dsolve::{run_program, JobError, JobResult};
use dsolve_liquid::SolveConfig;
use dsolve_logic::{Budget, Outcome};
use dsolve_nanoml::genprog::{generate, Expectation};
use dsolve_obs::{validate_trace, MicroCounter, Obs, ObsPhase, TheoryKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The Fig. 10 rows that verify today.
const DECIDED: [&str; 5] = ["ralist", "stablesort", "malloc", "bdd", "subvsolve"];

/// Safety cap for the decided rows: far above the iterations any of
/// them needs, so it only stops a hang. Hitting it is a failure.
const DECIDED_SAFETY_ITERATIONS: u64 = 200_000;

/// The Fig. 10 rows that do not finish, each stopped by its own
/// fixpoint-iteration cap (see README.md for how the caps were sized).
const CAPPED: [(&str, u64); 7] = [
    ("listsort", 120),
    ("map", 40),
    ("redblack", 80),
    ("vec", 30),
    ("heap", 45),
    ("splayheap", 40),
    ("unionfind", 80),
];

/// Programs in the fleet workload: enough that ten lie beyond the 90th
/// percentile.
const FLEET_COUNT: u64 = 100;

/// Passes every run makes, whatever `--seconds` says: the minimum across
/// passes needs two, and a traced run needs an untraced and a traced one.
const MIN_PASSES: u64 = 2;

/// Set-up measurements before each pass: at least `SETUP_REPS_MIN`,
/// then more while they take under `SETUP_TIME`, up to `SETUP_REPS_MAX`.
/// Each one times back-to-back set-ups for at least `SETUP_BATCH`.
const SETUP_REPS_MIN: u32 = 3;
const SETUP_REPS_MAX: u32 = 20;
const SETUP_TIME: Duration = Duration::from_millis(100);
const SETUP_BATCH: Duration = Duration::from_millis(10);

/// One program of a workload, with the verdict the oracle expects.
struct Program {
    name: String,
    /// `safe` (must be SAFE), `not-unsafe` (must not be UNSAFE),
    /// `holds` (fleet ground truth: every assertion holds), or
    /// `violating` (fleet ground truth: an assertion fails).
    expect: &'static str,
    source: String,
    mlq: String,
    quals: String,
    budget: Budget,
    /// The fixpoint-iteration cap, for the run record.
    cap: u64,
}

struct Args {
    workload: String,
    order_seed: u64,
    seconds: f64,
    trace_dir: Option<PathBuf>,
    fleet_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        order_seed: 0,
        seconds: 10.0,
        trace_dir: None,
        fleet_seed: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--order-seed" => args.order_seed = num(&value)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            "--fleet-seed" => args.fleet_seed = num(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Loads or generates the workload's inputs: the set-up step `setup_s`
/// times.
fn setup(args: &Args) -> Result<Vec<Program>, String> {
    let fig10 = |name: &str, expect, budget, cap| -> Result<Program, String> {
        let job = dsolve_bench::load(name).map_err(|e| format!("{name}: {e}"))?;
        Ok(Program {
            name: name.to_string(),
            expect,
            source: job.source,
            mlq: job.mlq,
            quals: job.quals,
            budget,
            cap,
        })
    };
    let safety = Budget { max_fixpoint_iterations: DECIDED_SAFETY_ITERATIONS, ..Budget::default() };
    match args.workload.as_str() {
        "fig10-decided" => DECIDED.iter().map(|n| fig10(n, "safe", safety, DECIDED_SAFETY_ITERATIONS)).collect(),
        "fig10-capped" => CAPPED
            .iter()
            .map(|&(n, cap)| {
                let budget = Budget { max_fixpoint_iterations: cap, ..Budget::default() };
                fig10(n, "not-unsafe", budget, cap)
            })
            .collect(),
        "fleet" => {
            let budget = fleet_budget();
            Ok((0..FLEET_COUNT)
                .map(|i| {
                    let p = generate(args.fleet_seed, i);
                    Program {
                        name: p.name,
                        expect: match p.expectation {
                            Expectation::Safe => "holds",
                            Expectation::Violating { .. } => "violating",
                        },
                        source: p.source,
                        mlq: p.mlq,
                        quals: p.quals,
                        budget,
                        cap: budget.max_fixpoint_iterations,
                    }
                })
                .collect())
        }
        w => Err(format!("unknown workload `{w}`")),
    }
}

/// Extra runs in every pass after the first take at most `EXTRA_S`
/// seconds, by the first pass's times, and no program runs more than
/// `MAX_RUNS` times a pass.
const EXTRA_S: f64 = 2.0;
const MAX_RUNS: usize = 5;

/// The programs a pass after the first runs: each once, then the cheapest
/// again, round by round, while the extra runs fit in `EXTRA_S`. A
/// program's time is a median over its runs, so a short program sampled
/// at more moments gets a steadier time at little cost, while a long one
/// keeps one run a pass.
fn pass_slots(first_wall: &[f64]) -> Vec<usize> {
    let mut by_cost: Vec<usize> = (0..first_wall.len()).collect();
    by_cost.sort_by(|&a, &b| first_wall[a].total_cmp(&first_wall[b]));
    let mut slots: Vec<usize> = (0..first_wall.len()).collect();
    let mut spent = 0.0;
    for _ in 1..MAX_RUNS {
        let before = slots.len();
        for &i in &by_cost {
            if spent + first_wall[i] <= EXTRA_S {
                spent += first_wall[i];
                slots.push(i);
            }
        }
        if slots.len() == before {
            break;
        }
    }
    slots
}

/// SplitMix64: the pass order is a pure function of the order seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The program order of one pass. The first pass keeps the workload's
/// own order: engine work depends on symbol ids, which the process-wide
/// interner hands out in order of first use, so every run must meet the
/// programs' names in the same order. Later passes are a seeded
/// Fisher–Yates shuffle, so no program always runs in the same part of a
/// pass.
fn pass_order(n: usize, order_seed: u64, pass: u64) -> Vec<usize> {
    if pass == 0 {
        return (0..n).collect();
    }
    let mut state = order_seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The layer a collapsed-stack line's self time belongs to, by its
/// innermost frame.
fn trace_layer(stack: &str) -> &'static str {
    let leaf = stack.rsplit(';').next().unwrap_or("");
    match leaf {
        "bench.program" => "harness",
        "dsolve.job" => "job_other",
        "parse" | "resolve" | "infer" | "spec" => "frontend",
        "constraint_gen" => "gen",
        "fixpoint" => "fixpoint",
        "obligations" => "obligations",
        l if l.starts_with("round ") => "fixpoint",
        _ => "smt_query",
    }
}

/// Self-time layers of the traced run. `job_other` is time inside the
/// job that no span of the program covers.
const TRACE_LAYERS: [&str; 7] =
    ["harness", "job_other", "frontend", "gen", "fixpoint", "obligations", "smt_query"];

/// Runs one program once and renders its `program` record.
fn run_one(p: &Program, pass: u64, trace_path: Option<&Path>) -> String {
    let obs = match trace_path {
        Some(path) => match Obs::with_trace(path) {
            Ok(o) => o,
            Err(e) => return error_record(p, pass, &format!("trace sink: {e}")),
        },
        None => Obs::new(),
    };
    let root = obs.span("bench", "bench.program");
    let config = SolveConfig { jobs: 1, budget: p.budget, obs: obs.clone(), ..SolveConfig::default() };
    let start = Instant::now();
    let result = {
        let _s = obs.span("bench", "dsolve.job");
        run_program(&p.name, &p.source, &p.mlq, &p.quals, config)
    };
    let wall = secs(start.elapsed());
    drop(root);
    obs.finish();

    let mut rec = format!(
        "{{\"kind\": \"program\", \"name\": {}, \"expect\": {}, \"pass\": {pass}, \"traced\": {}, \
         \"cap\": {}, \"wall_s\": {wall:.9}",
        json_str(&p.name),
        json_str(p.expect),
        trace_path.is_some(),
        p.cap
    );
    match &result {
        Ok(r) => result_fields(&mut rec, r),
        Err(e) => {
            let verdict = if matches!(e, JobError::Panic(_)) { "PANIC" } else { "ERROR" };
            let _ = write!(rec, ", \"verdict\": \"{verdict}\", \"detail\": {}", json_str(&e.to_string()));
        }
    }
    if let Some(path) = trace_path {
        trace_fields(&mut rec, path);
    }
    rec.push('}');
    rec
}

fn error_record(p: &Program, pass: u64, msg: &str) -> String {
    format!(
        "{{\"kind\": \"program\", \"name\": {}, \"expect\": {}, \"pass\": {pass}, \"verdict\": \"ERROR\", \"detail\": {}}}",
        json_str(&p.name),
        json_str(p.expect),
        json_str(msg)
    )
}

fn result_fields(rec: &mut String, r: &JobResult) {
    let (verdict, detail) = match r.outcome() {
        Outcome::Safe => ("SAFE", String::new()),
        Outcome::Unsafe => ("UNSAFE", String::new()),
        Outcome::Unknown(e) => ("UNKNOWN", e.to_string()),
    };
    let st = &r.result.stats;
    let m = &r.metrics;
    let named = |names: &[&str], vals: &[u64]| -> String {
        names.iter().zip(vals).map(|(n, v)| format!("\"{n}\": {v}")).collect::<Vec<_>>().join(", ")
    };
    let _ = write!(
        rec,
        ", \"verdict\": \"{verdict}\", \"detail\": {}, \
         \"frontend_s\": {:.9}, \"gen_s\": {:.9}, \"fixpoint_s\": {:.9}, \"obligations_s\": {:.9}, \
         \"kvars\": {}, \"initial_quals\": {}, \"constraints\": {}, \"iterations\": {}, \"rounds\": {}, \
         \"queries\": {}, \"refused\": {}, \"checks\": {}, \"cache_hits\": {}, \"sessions\": {}, \
         \"scoped_checks\": {}, \"query_time_count\": {}, \"query_time_sum_ns\": {}, \
         \"phase_ns\": {{{}}}, \"theory_ns\": {{{}}}, \"micro\": {{{}}}",
        json_str(&detail),
        secs(r.frontend_time),
        secs(r.result.gen_time),
        secs(st.fixpoint_time),
        secs(st.obligation_time),
        st.kvars,
        st.initial_quals,
        r.result.num_constraints,
        st.iterations,
        st.rounds,
        m.queries,
        m.refused,
        m.checks,
        m.cache_hits,
        m.sessions,
        m.scoped_checks,
        m.query_time_count,
        m.query_time_sum_ns,
        named(&ObsPhase::NAMES, &m.phase_ns),
        named(&TheoryKind::NAMES, &m.theory_ns),
        named(&MicroCounter::NAMES, &m.micro),
    );
}

/// Adds the trace's event count and its self time per layer.
fn trace_fields(rec: &mut String, path: &Path) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            let _ = write!(rec, ", \"trace_error\": {}", json_str(&e.to_string()));
            return;
        }
    };
    let events = match validate_trace(&text) {
        Ok(s) => s.events,
        Err(e) => {
            let _ = write!(rec, ", \"trace_error\": {}", json_str(&e));
            return;
        }
    };
    let folded = match dsolve::profile::collapse_trace(&text) {
        Ok(f) => f,
        Err(e) => {
            let _ = write!(rec, ", \"trace_error\": {}", json_str(&e));
            return;
        }
    };
    let mut self_us = [0u64; TRACE_LAYERS.len()];
    for line in folded.lines() {
        let Some((stack, value)) = line.rsplit_once(' ') else { continue };
        let layer = trace_layer(stack);
        let i = TRACE_LAYERS.iter().position(|l| *l == layer).unwrap_or(0);
        self_us[i] += value.parse::<u64>().unwrap_or(0);
    }
    let _ = write!(rec, ", \"trace_events\": {events}, \"trace_self_us\": {{{}}}", {
        TRACE_LAYERS
            .iter()
            .zip(self_us)
            .map(|(l, v)| format!("\"{l}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    });
}

/// A fixed reference kernel that shares no code with the verifier:
/// sort pseudo-random keys, then build and probe a hash map.
fn reference_kernel() -> u64 {
    let mut state = 0x5eed;
    let mut keys: Vec<u64> = (0..20_000).map(|_| splitmix(&mut state)).collect();
    keys.sort_unstable();
    let index: std::collections::HashMap<u64, usize> =
        keys.iter().enumerate().map(|(i, k)| (k >> 40, i)).collect();
    keys.iter().map(|k| index.get(&(k >> 40)).copied().unwrap_or(0) as u64).sum()
}

/// The host-speed probe taken between measurements: the fastest of
/// three reference-kernel runs, in seconds. The host's speed swings
/// about 1.8× every few seconds; `run.py` scales each measurement by the
/// probes taken just before and just after it.
fn probe() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(reference_kernel());
            secs(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("verdictbench-worker: {e}");
            return ExitCode::from(3);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut before = probe();
    let mut pass = 0u64;
    let mut first_wall: Vec<f64> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    loop {
        // Set-up is repeated a few times before every pass, so its samples
        // are spread over the run like the verdict samples.
        let reps_start = Instant::now();
        let mut reps = 0;
        let programs = loop {
            // One measurement repeats the set-up until it has taken
            // `SETUP_BATCH`, so sub-millisecond set-ups are timed over
            // many calls.
            let t = Instant::now();
            let mut calls = 0u32;
            let programs = loop {
                let programs = match setup(&args) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("verdictbench-worker: set-up failed: {e}");
                        return ExitCode::from(3);
                    }
                };
                calls += 1;
                if t.elapsed() >= SETUP_BATCH {
                    break programs;
                }
            };
            let took = secs(t.elapsed()) / f64::from(calls);
            let after = probe();
            println!(
                "{{\"kind\": \"setup\", \"pass\": {pass}, \"setup_s\": {took:.9}, \
                 \"probe_before_s\": {before:.9}, \"probe_after_s\": {after:.9}, \"programs\": {}}}",
                programs.len()
            );
            before = after;
            reps += 1;
            if reps >= SETUP_REPS_MAX || (reps >= SETUP_REPS_MIN && reps_start.elapsed() > SETUP_TIME) {
                break programs;
            }
        };
        if pass == 0 {
            slots = (0..programs.len()).collect();
            first_wall = vec![0.0; programs.len()];
        }
        // With tracing, passes alternate untraced and traced.
        let traced_pass = args.trace_dir.is_some() && pass % 2 == 1;
        for slot in pass_order(slots.len(), args.order_seed, pass) {
            let i = slots[slot];
            let p = &programs[i];
            let trace_path = traced_pass
                .then(|| args.trace_dir.as_ref().map(|d| d.join(format!("{}.trace.json", p.name))))
                .flatten();
            let t = Instant::now();
            let rec = run_one(p, pass, trace_path.as_deref());
            if pass == 0 {
                first_wall[i] = secs(t.elapsed());
            }
            let after = probe();
            println!(
                "{}, \"probe_before_s\": {before:.9}, \"probe_after_s\": {after:.9}}}",
                rec.strip_suffix('}').unwrap_or(&rec)
            );
            before = after;
        }
        if pass == 0 {
            slots = pass_slots(&first_wall);
        }
        pass += 1;
        let elapsed = start.elapsed();
        let per_pass = elapsed / pass as u32;
        if pass >= MIN_PASSES && elapsed + per_pass > budget {
            break;
        }
    }
    println!(
        "{{\"kind\": \"done\", \"passes\": {pass}, \"elapsed_s\": {:.6}, \"peak_rss_kb\": {}}}",
        secs(start.elapsed()),
        peak_rss_kb()
    );
    ExitCode::SUCCESS
}
