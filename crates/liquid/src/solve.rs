//! The liquid fixpoint solver: iterative weakening over qualifier
//! instantiations [Rondon et al., PLDI 2008], with the SMT solver
//! discharging each implication.
//!
//! Each liquid variable `κ` starts at the strongest conjunction of
//! well-sorted instantiations of the qualifier set in its scope. Every
//! constraint whose right side is `θ·κ` removes from `A(κ)` the
//! qualifiers the left side fails to imply; the process is monotone and
//! terminates. Constraints with concrete right sides are verified under
//! the final assignment and produce the reported errors.
//!
//! # Rounds and workers
//!
//! One engine serves every `--jobs` value. The fixpoint runs in
//! *rounds*: each round takes the pending queue in FIFO order and splits
//! it into partitions with disjoint **write** κ-sets (constraints writing
//! a common κ always land in the same partition; each partition keeps
//! round order). Each partition is checked Gauss–Seidel by one worker
//! against the round-start assignment plus a local overlay of the
//! worker's own weakenings. When a constraint weakens a κ, a reader
//! still pending later in the same partition is left alone (it will read
//! the overlay); every other reader, and the weakening constraint
//! itself, joins the next round's queue in event order.
//!
//! With one worker there is one partition per round, so the schedule is
//! the classic worklist with its BFS levels as rounds. With more, reads
//! may cross partitions and see a one-round-stale value; that is ordinary
//! chaotic iteration of a monotone operator — every constraint reading a
//! changed κ is re-enqueued after the merge, so the iteration converges
//! to the same greatest fixpoint. Weakenings are merged in deterministic
//! (worker, event) order, and all workers share one [`QueryCache`] and
//! one query counter so `--max-smt-queries` caps the *total* across
//! threads. A round or obligation chunk with a single partition runs on
//! the calling thread.

use crate::constraint::{LiquidError, SubC};
use crate::env::{GlobalEnv, KEnv};
use crate::rtype::{KVar, RefAtom};
use dsolve_logic::{
    deadline_expired, instantiate_all, Budget, Exhaustion, FaultPlan, FaultPoint, Outcome, Phase,
    Pred, Qualifier, Resource, Symbol,
};
use dsolve_obs::{log_debug, log_info, Obs, ObsPhase, QueryOrigin};
use dsolve_smt::{QueryCache, SmtSolver, SolverConfig, Validity};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics from a solver run.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Number of liquid variables.
    pub kvars: usize,
    /// Total initial qualifier instantiations.
    pub initial_quals: usize,
    /// SMT queries actually *solved* during this run (each charged one
    /// unit against `--max-smt-queries`). Sourced from the metrics
    /// registry — the single accounting authority — so cache hits are
    /// excluded and the total always equals the sum of
    /// `worker_queries`.
    pub smt_queries: u64,
    /// Fixpoint iterations: constraints actually checked (never more
    /// than the iteration cap).
    pub iterations: u64,
    /// Wall-clock time spent in the weakening fixpoint.
    pub fixpoint_time: Duration,
    /// Wall-clock time spent checking concrete obligations.
    pub obligation_time: Duration,
    /// Fixpoint workers used.
    pub jobs: usize,
    /// Fixpoint rounds (0 when no constraint was ever queued). At one
    /// worker these are the BFS levels of the worklist.
    pub rounds: u64,
    /// Constraints in the largest single partition of any round.
    pub max_partition: usize,
    /// SMT queries issued per worker (index = worker id).
    pub worker_queries: Vec<u64>,
    /// Constraint checks per worker (aggregate partition sizes).
    pub worker_checks: Vec<u64>,
    /// Validity checks answered from the query cache, across all
    /// workers (from the metrics registry).
    pub cache_hits: u64,
    /// Validity checks requested of the SMT layer across all workers
    /// (from the metrics registry): `cache_hits + cache_misses`.
    pub cache_lookups: u64,
    /// Incremental SMT sessions opened across all workers (0 when
    /// incremental solving is disabled).
    pub smt_sessions: u64,
    /// Consequents decided under an assertion scope inside those
    /// sessions; `smt_scoped_checks / smt_sessions` is the average
    /// batch size — how much antecedent encoding was reused.
    pub smt_scoped_checks: u64,
    /// Per-round, per-partition fixpoint work.
    pub partition_stats: Vec<PartitionStat>,
    /// Qualifier-count trajectory per weakened κ: `(name, points)` where
    /// each point is `(round, count)` and the first point is the initial
    /// instantiation count at round 0. κs that never weaken are omitted.
    /// Sorted by κ name.
    pub kvar_trajectories: Vec<(String, Vec<(u64, usize)>)>,
    /// κs that were still in motion when the fixpoint was cut short:
    /// everything written by constraints left on the worklist. Empty on
    /// a converged run.
    pub churning_kvars: Vec<String>,
}

/// One partition's share of one fixpoint round: how many constraints a
/// worker checked and how long that took wall-clock.
#[derive(Clone, Debug)]
pub struct PartitionStat {
    /// 1-based fixpoint round.
    pub round: u64,
    /// Worker index within the round.
    pub worker: usize,
    /// Constraints checked in this partition.
    pub constraints: u64,
    /// Wall-clock time spent on this partition.
    pub wall: Duration,
}

impl SolveStats {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// The result of solving.
pub struct Solution {
    /// Final qualifier assignment per liquid variable.
    pub assignment: HashMap<KVar, Vec<Pred>>,
    /// Errors from concrete obligations that failed.
    pub errors: Vec<LiquidError>,
    /// Run statistics.
    pub stats: SolveStats,
    /// The first budget exhaustion that tainted the run, if any. When
    /// set, an empty `errors` list does **not** mean the module was
    /// proven safe.
    pub exhaustion: Option<Exhaustion>,
}

impl Solution {
    /// The solved refinement of `κ` as a single predicate.
    pub fn pred_of(&self, k: KVar) -> Pred {
        Pred::and(self.assignment.get(&k).cloned().unwrap_or_default())
    }

    /// The three-valued outcome of the run. Any exhaustion forces
    /// `Unknown`: a fixpoint cut short leaves the assignment too strong,
    /// so even clean obligations cannot be trusted as `Safe`.
    pub fn outcome(&self) -> Outcome {
        if let Some(e) = &self.exhaustion {
            Outcome::Unknown(e.clone())
        } else if self.errors.is_empty() {
            Outcome::Safe
        } else {
            Outcome::Unsafe
        }
    }
}

/// Solver configuration.
#[derive(Clone, Debug, Default)]
pub struct SolveConfig {
    /// SMT configuration. Its `budget` field is ignored: `budget` below
    /// is the single source of truth and is pushed into the SMT solver.
    pub smt: SolverConfig,
    /// Resource limits for the whole run (deadline, query cap, fixpoint
    /// iteration cap, per-query search caps).
    pub budget: Budget,
    /// Fixpoint workers: `0` = one per available CPU, `n` = at most `n`
    /// partitions per round.
    pub jobs: usize,
    /// Disables incremental (assertion-scope) SMT batching: every
    /// implication goes through the scratch `check_valid` path
    /// (`dsolve --no-incremental`).
    pub no_incremental: bool,
    /// Observability handle: the metrics registry every SMT query and
    /// fixpoint event records into, plus the optional trace sink.
    /// Cloning the config shares the handle (it is an `Arc`), so one
    /// registry spans all phases of a verification job.
    pub obs: Obs,
    /// Deterministic fault-injection plan (`--inject-fault` /
    /// `DSOLVE_FAULT`), shared with every SMT solver this run creates so
    /// occurrence counts span workers. `None` in production runs.
    pub fault: Option<Arc<FaultPlan>>,
}

/// Stack size of each spawned fixpoint or obligation worker.
const WORKER_STACK: usize = 2 << 20;

/// Runs the iterative-weakening fixpoint, then checks the concrete
/// obligations under the solved assignment.
pub fn solve(
    genv: &GlobalEnv,
    kenv: &KEnv,
    subs: &[SubC],
    quals: &[Qualifier],
    config: &SolveConfig,
) -> Solution {
    let obs = config.obs.clone();
    let base = MetricsBaseline::capture(&obs);
    let engine = Engine::new(genv, subs, config);
    let jobs = engine.jobs;
    let mut exhaustion: Option<Exhaustion> = None;
    let fixpoint_start = Instant::now();
    let mut stats = SolveStats {
        jobs,
        worker_queries: vec![0; jobs],
        worker_checks: vec![0; jobs],
        ..SolveStats::default()
    };
    log_info!(
        "solve: {} constraints, {} kvars, {jobs} jobs",
        subs.len(),
        kenv.len()
    );
    let mut assignment = initial_assignment(kenv, quals, &mut stats);
    log_info!("solve: initial quals = {}", stats.initial_quals);
    {
        let _fixpoint_span = obs.phase_span(ObsPhase::Fixpoint);
        engine.fixpoint(&mut assignment, &mut stats, &mut exhaustion);
    }
    stats.fixpoint_time = fixpoint_start.elapsed();

    let obligation_start = Instant::now();
    let errors = {
        let _obligation_span = obs.phase_span(ObsPhase::Obligations);
        engine.obligations(&assignment, &mut stats, &mut exhaustion)
    };
    stats.obligation_time = obligation_start.elapsed();
    base.fill(&obs, &mut stats);
    obs.metrics()
        .cache_poison_recoveries
        .add(engine.cache.poison_recoveries());
    taint_refused_unsafe(&base, &obs, &errors, &mut exhaustion);

    Solution {
        assignment,
        errors,
        stats,
        exhaustion,
    }
}

/// One solve's fixed inputs and shared resources, read by every worker:
/// the constraint indices, one absolute deadline, and the one query cache
/// and query counter that every round and the obligation pass draw on.
struct Engine<'a> {
    genv: &'a GlobalEnv,
    subs: &'a [SubC],
    config: &'a SolveConfig,
    /// Workers, resolved from `config.jobs` (`0` = one per CPU).
    jobs: usize,
    deadline: Option<Instant>,
    /// Provenance label per constraint.
    labels: Vec<Arc<str>>,
    /// κs each constraint writes (the κs on its right side).
    writes: Vec<Vec<KVar>>,
    /// κ → constraints that read it, in constraint order.
    readers: HashMap<KVar, Vec<usize>>,
    cache: Arc<QueryCache>,
    queries: Arc<AtomicU64>,
}

/// What one worker reports back for its partition of a round.
struct WorkerReport {
    /// Constraints checked: a prefix of the partition, shorter than it
    /// only when the deadline cut the round short.
    checked: usize,
    /// SMT queries solved by this worker's solvers.
    queries: u64,
    /// `(constraint, κ, survivors)` for every weakening, in event order.
    weakened: Vec<(usize, KVar, Vec<Pred>)>,
    /// First exhaustion this worker hit (deadline or a caught panic).
    exhaustion: Option<Exhaustion>,
    /// Wall-clock time this worker spent on its partition.
    wall: Duration,
}

impl<'a> Engine<'a> {
    fn new(genv: &'a GlobalEnv, subs: &'a [SubC], config: &'a SolveConfig) -> Engine<'a> {
        let jobs = match config.jobs {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let cache = QueryCache::shared();
        // Cache-poison injection: poison every shard, exercising the
        // lock-recovery path end to end.
        if config
            .fault
            .as_ref()
            .is_some_and(|f| f.fire(FaultPoint::CachePoison))
        {
            cache.poison_all_shards();
        }
        let mut readers: HashMap<KVar, Vec<usize>> = HashMap::new();
        for (i, c) in subs.iter().enumerate() {
            for k in c.reads() {
                readers.entry(k).or_default().push(i);
            }
        }
        Engine {
            genv,
            subs,
            config,
            jobs,
            deadline: config.budget.deadline_from_now(),
            labels: constraint_labels(subs, &config.obs),
            writes: subs.iter().map(SubC::writes).collect(),
            readers,
            cache,
            queries: Arc::new(AtomicU64::new(0)),
        }
    }

    fn make_solver(&self) -> SmtSolver {
        let mut smt = SmtSolver::with_config(SolverConfig {
            budget: self.config.budget,
            ..self.config.smt
        });
        // Pin the absolute deadline so the SMT clock does not restart at
        // the first query.
        smt.set_deadline(self.deadline);
        smt.share_cache(Arc::clone(&self.cache));
        smt.share_query_counter(Arc::clone(&self.queries));
        smt.set_obs(self.config.obs.clone());
        smt.set_fault(self.config.fault.clone());
        smt
    }

    fn origin(&self, ci: usize, round: u64, worker: usize) -> Option<QueryOrigin> {
        Some(QueryOrigin {
            constraint: ci as u32,
            label: self.labels[ci].clone(),
            round,
            worker: worker as u32,
        })
    }

    /// The weakening fixpoint, round by round (see the module docs),
    /// until the queue drains or the iteration cap or the deadline cuts
    /// it short.
    fn fixpoint(
        &self,
        assignment: &mut HashMap<KVar, Vec<Pred>>,
        stats: &mut SolveStats,
        exhaustion: &mut Option<Exhaustion>,
    ) {
        let obs = &self.config.obs;
        let cap = self.config.budget.max_fixpoint_iterations;
        let n = self.subs.len();
        let mut queue: Vec<usize> = (0..n).filter(|&i| !self.writes[i].is_empty()).collect();
        let mut queued = vec![false; n];
        for &ci in &queue {
            queued[ci] = true;
        }
        // `(partition, position)` of each constraint in the current round.
        let mut place: Vec<Option<(usize, usize)>> = vec![None; n];
        // Constraints left unchecked when the fixpoint is cut short.
        let mut unchecked: Vec<usize> = Vec::new();
        let mut traj: HashMap<KVar, Vec<(u64, usize)>> = HashMap::new();
        while !queue.is_empty() {
            let mut round = std::mem::take(&mut queue);
            for &ci in &round {
                queued[ci] = false;
            }
            // Iteration cap: check only what the cap still allows; the
            // tail stays unchecked and feeds the churn report.
            let allowance =
                usize::try_from(cap.saturating_sub(stats.iterations)).unwrap_or(usize::MAX);
            if round.len() > allowance {
                unchecked = round.split_off(allowance);
            }
            if round.is_empty() {
                break;
            }
            let partitions = partition_round(&round, &self.writes, self.jobs);
            for (w, part) in partitions.iter().enumerate() {
                for (i, &ci) in part.iter().enumerate() {
                    place[ci] = Some((w, i));
                }
            }
            stats.rounds += 1;
            obs.metrics().fixpoint_rounds.incr();
            let round_no = stats.rounds;
            let largest = partitions.iter().map(Vec::len).max().unwrap_or(0);
            stats.max_partition = stats.max_partition.max(largest);
            log_info!(
                "fixpoint round {round_no}: {} constraints in {} partitions (max {largest})",
                round.len(),
                partitions.len()
            );
            let round_span = obs.tracing().then(|| {
                obs.span("fixpoint", format!("round {round_no}"))
                    .arg("constraints", round.len() as u64)
                    .arg("partitions", partitions.len() as u64)
            });
            let snapshot: &HashMap<KVar, Vec<Pred>> = assignment;
            let reports = fan_out(&partitions, |w, part| {
                self.check_partition(w, part, round_no, snapshot)
            });
            drop(round_span);

            // Merge in (worker, event) order. Partitions write disjoint κs,
            // so the final value of every κ is unambiguous.
            for (w, (report, part)) in reports.into_iter().zip(&partitions).enumerate() {
                let report = report.unwrap_or_else(|p| std::panic::resume_unwind(p));
                stats.iterations += report.checked as u64;
                stats.worker_queries[w] += report.queries;
                stats.worker_checks[w] += report.checked as u64;
                stats.partition_stats.push(PartitionStat {
                    round: round_no,
                    worker: w,
                    constraints: report.checked as u64,
                    wall: report.wall,
                });
                if let Some(e) = report.exhaustion {
                    exhaustion.get_or_insert(e);
                }
                unchecked.extend_from_slice(&part[report.checked..]);
                for (ci, k, kept) in report.weakened {
                    let kept_len = kept.len();
                    let prev = assignment.insert(k, kept);
                    let prev_len = prev.map_or(0, |v| v.len());
                    record_trajectory(&mut traj, k, round_no, prev_len, kept_len);
                    // A reader pending later in this partition reads the
                    // overlay; every other reader, and `ci` itself, is
                    // re-checked next round.
                    let at = place[ci].map_or(0, |(_, i)| i);
                    let readers = self.readers.get(&k).map_or(&[][..], Vec::as_slice);
                    for &r in readers.iter().chain(std::iter::once(&ci)) {
                        let later_here = matches!(place[r], Some((pw, pi)) if pw == w && pi > at);
                        if !later_here && !queued[r] && !self.writes[r].is_empty() {
                            queued[r] = true;
                            queue.push(r);
                        }
                    }
                }
            }
            for &ci in &round {
                place[ci] = None;
            }
            obs.metrics().queue_depth.set(queue.len() as i64);
            if !unchecked.is_empty() {
                break;
            }
        }
        // Cut short with the cap used up (a deadline already reported
        // itself through the worker that hit it).
        if !unchecked.is_empty() && stats.iterations >= cap {
            exhaustion.get_or_insert(Exhaustion::with_detail(
                Phase::Fixpoint,
                Resource::FixpointIterations,
                format!("cap {cap}"),
            ));
        }
        stats.kvar_trajectories = finish_trajectories(traj);
        if exhaustion.is_some() {
            stats.churning_kvars = churn_names(self.subs, queue.into_iter().chain(unchecked));
            name_churn(exhaustion, &stats.churning_kvars);
        }
    }

    /// Checks one partition of round `round` in order, Gauss–Seidel
    /// against `base` plus the worker's own weakenings. A constraint whose
    /// check panics is quarantined: the κs it writes are weakened to ⊤
    /// (sound — weakening is monotone), the run is tainted, and the
    /// solver is rebuilt in case the panic left it mid-session.
    fn check_partition(
        &self,
        w: usize,
        part: &[usize],
        round: u64,
        base: &HashMap<KVar, Vec<Pred>>,
    ) -> WorkerReport {
        let started = Instant::now();
        let obs = &self.config.obs;
        let mut smt = self.make_solver();
        let mut local: HashMap<KVar, Vec<Pred>> = HashMap::new();
        let mut report = WorkerReport {
            checked: 0,
            queries: 0,
            weakened: Vec::new(),
            exhaustion: None,
            wall: Duration::ZERO,
        };
        for (i, &ci) in part.iter().enumerate() {
            if deadline_expired(self.deadline) {
                report
                    .exhaustion
                    .get_or_insert(Exhaustion::new(Phase::Fixpoint, Resource::Deadline));
                break;
            }
            report.checked += 1;
            obs.metrics().fixpoint_iterations.incr();
            smt.set_origin(self.origin(ci, round, w));
            // Injected worker panic: fires on worker 0's first constraint
            // of round `at`, caught and quarantined like a real one.
            let inject = w == 0
                && i == 0
                && self
                    .config
                    .fault
                    .as_ref()
                    .is_some_and(|f| f.fire_at(FaultPoint::WorkerPanic, round));
            let view = View {
                base,
                local: &local,
            };
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject {
                    panic!("injected worker panic (round {round})");
                }
                let incremental = !self.config.no_incremental;
                weaken_constraint(self.genv, &self.subs[ci], &view, &mut smt, incremental)
            }));
            let weakened = checked.unwrap_or_else(|_| {
                obs.metrics().workers_quarantined.incr();
                report.exhaustion.get_or_insert(Exhaustion::with_detail(
                    Phase::Fixpoint,
                    Resource::Panic,
                    format!(
                        "constraint check panicked at [{}]; its κs weakened to true",
                        self.subs[ci].origin
                    ),
                ));
                report.queries += smt.stats.solved_queries;
                smt = self.make_solver();
                self.writes[ci].iter().map(|&k| (k, Vec::new())).collect()
            });
            for (k, kept) in weakened {
                local.insert(k, kept.clone());
                report.weakened.push((ci, k, kept));
            }
        }
        report.queries += smt.stats.solved_queries;
        report.wall = started.elapsed();
        report
    }

    /// Checks the concrete obligations under the solved assignment in
    /// `jobs` contiguous chunks. Errors come back in constraint order.
    fn obligations(
        &self,
        assignment: &HashMap<KVar, Vec<Pred>>,
        stats: &mut SolveStats,
        exhaustion: &mut Option<Exhaustion>,
    ) -> Vec<LiquidError> {
        let targets: Vec<usize> = (0..self.subs.len())
            .filter(|&i| {
                self.subs[i]
                    .rhs
                    .atoms
                    .iter()
                    .any(|(_, a)| matches!(a, RefAtom::Conc(_)))
            })
            .collect();
        let chunks: Vec<&[usize]> = targets
            .chunks(targets.len().div_ceil(self.jobs).max(1))
            .collect();
        let results = fan_out(&chunks, |w, chunk| {
            let mut smt = self.make_solver();
            let mut errors = Vec::new();
            let mut first: Option<Exhaustion> = None;
            for &ci in *chunk {
                smt.set_origin(self.origin(ci, 0, w));
                let (errs, exh) = check_obligations(
                    self.genv,
                    &self.subs[ci],
                    assignment,
                    &mut smt,
                    !self.config.no_incremental,
                );
                errors.extend(errs);
                if let Some(e) = exh {
                    first.get_or_insert(e);
                }
            }
            (errors, first, smt.stats.solved_queries)
        });
        let mut errors = Vec::new();
        for (w, result) in results.into_iter().enumerate() {
            match result {
                Ok((errs, exh, queries)) => {
                    stats.worker_queries[w] += queries;
                    errors.extend(errs);
                    if let Some(e) = exh {
                        exhaustion.get_or_insert(e);
                    }
                }
                Err(_) => {
                    // The chunk is unchecked, so the run cannot claim
                    // Safe: taint it and degrade to Unknown.
                    self.config.obs.metrics().workers_quarantined.incr();
                    exhaustion.get_or_insert(Exhaustion::with_detail(
                        Phase::ObligationCheck,
                        Resource::Panic,
                        "obligation check panicked; its chunk is unchecked".to_string(),
                    ));
                }
            }
        }
        errors
    }
}

/// Runs `work` on every part, returning the results in part order with a
/// panic caught as `Err`. A single part runs on the calling thread; more
/// run on one scoped thread each.
fn fan_out<P: Sync, T: Send>(
    parts: &[P],
    work: impl Fn(usize, &P) -> T + Sync,
) -> Vec<std::thread::Result<T>> {
    if let [only] = parts {
        return vec![std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0, only)))];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(w, part)| {
                let work = &work;
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(s, move || work(w, part))
                    .expect("spawn fixpoint worker")
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// The initial assignment: all well-sorted qualifier instantiations per
/// κ scope.
fn initial_assignment(
    kenv: &KEnv,
    quals: &[Qualifier],
    stats: &mut SolveStats,
) -> HashMap<KVar, Vec<Pred>> {
    let mut assignment: HashMap<KVar, Vec<Pred>> = HashMap::new();
    for k in kenv.kvars() {
        let info = kenv.info(k).expect("registered kvar");
        let insts = instantiate_all(quals, &info.scope, &info.nu_sort);
        stats.initial_quals += insts.len();
        assignment.insert(k, insts);
    }
    stats.kvars = assignment.len();
    assignment
}

/// A worker's read view over the assignment: the round-start map plus a
/// local overlay holding this partition's own weakenings.
struct View<'a> {
    base: &'a HashMap<KVar, Vec<Pred>>,
    local: &'a HashMap<KVar, Vec<Pred>>,
}

impl View<'_> {
    fn get(&self, k: KVar) -> Vec<Pred> {
        self.local
            .get(&k)
            .or_else(|| self.base.get(&k))
            .cloned()
            .unwrap_or_default()
    }

    fn pred_of(&self, k: KVar) -> Pred {
        Pred::and(self.get(k))
    }
}

/// Checks one constraint, weakening the κs on its right side. Returns
/// `(κ, survivors)` for every κ whose candidate set shrank.
///
/// Query accounting happens inside the SMT solver (metrics registry +
/// per-solver `solved_queries`); this function no longer counts.
fn weaken_constraint(
    genv: &GlobalEnv,
    c: &SubC,
    view: &View<'_>,
    smt: &mut SmtSolver,
    incremental: bool,
) -> Vec<(KVar, Vec<Pred>)> {
    let lookup = |k: KVar| view.pred_of(k);
    let (mut sorts, antecedent) = c.env.embed(genv, &lookup);
    bind_nu(&mut sorts, &c.nu_shape);
    let lhs = filter_wellsorted(&sorts, c.lhs.concretize(&lookup));

    // Check each κ atom on the right; collect survivors.
    let mut weakened: Vec<(KVar, Vec<Pred>)> = Vec::new();
    for (theta, atom) in &c.rhs.atoms {
        let RefAtom::KVar(k) = atom else { continue };
        let quals_k = view.get(*k);
        if quals_k.is_empty() {
            continue;
        }
        // Relevance pruning: during weakening, restrict the
        // antecedent to conjuncts transitively sharing variables
        // with the left side and the candidate qualifiers. Always
        // sound (weakens the antecedent); dramatically shrinks the
        // per-query formulas.
        let rhs_preds: Vec<Pred> = quals_k.iter().map(|q| theta.apply_pred(q)).collect();
        let mut seeds: std::collections::BTreeSet<Symbol> = lhs.free_vars();
        for p in &rhs_preds {
            seeds.extend(p.free_vars());
        }
        let pruned = prune_conjuncts(antecedent.clone(), &mut seeds);
        let lhs_full = Pred::and(vec![pruned, lhs.clone()]);
        // Pruning is a fast path, not a semantics: failures are
        // retried against the full antecedent before a qualifier is
        // dropped for good.
        let lhs_unpruned = Pred::and(vec![antecedent.clone(), lhs.clone()]);
        let lhs_conjuncts: std::collections::HashSet<Pred> =
            lhs_full.clone().conjuncts().into_iter().collect();
        // Partition the candidates: syntactic hits, ill-sorted
        // transports, and the rest — checked in bisected groups
        // (most candidates survive most checks, so testing the whole
        // conjunction first usually costs a single query).
        let mut kept = Vec::with_capacity(quals_k.len());
        let mut to_check: Vec<(Pred, Pred)> = Vec::new();
        let prev_len = quals_k.len();
        for (q, rhs_q) in quals_k.into_iter().zip(rhs_preds) {
            if lhs_conjuncts.contains(&rhs_q) {
                kept.push(q);
            } else if sorts.wellsorted(&rhs_q) {
                to_check.push((q, rhs_q));
            }
        }
        if incremental {
            check_group_batched(smt, &sorts, &lhs_full, Some(&lhs_unpruned), &to_check, &mut kept);
        } else {
            check_group(smt, &sorts, &lhs_full, Some(&lhs_unpruned), &to_check, &mut kept);
        }
        if kept.len() < prev_len {
            if dsolve_obs::log::enabled(dsolve_obs::log::Level::Debug) {
                let removed: Vec<String> = view
                    .get(*k)
                    .iter()
                    .filter(|q| !kept.contains(q))
                    .map(ToString::to_string)
                    .collect();
                let lhs_state: Vec<String> = c
                    .lhs
                    .kvars()
                    .iter()
                    .map(|lk| format!("{lk}={}", view.pred_of(*lk)))
                    .collect();
                log_debug!(
                    "weaken {k} at [{}]: drop {removed:?}\n    lhs: {lhs_full}\n    raw-lhs: {} raw-rhs: {}\n    lhs-assignment: {lhs_state:?}",
                    c.origin, c.lhs, c.rhs
                );
            }
            weakened.push((*k, kept));
        }
    }
    weakened
}

/// Checks the concrete right-hand conjuncts of one constraint under the
/// final assignment. Returns the errors and the first exhaustion hit.
fn check_obligations(
    genv: &GlobalEnv,
    c: &SubC,
    assignment: &HashMap<KVar, Vec<Pred>>,
    smt: &mut SmtSolver,
    incremental: bool,
) -> (Vec<LiquidError>, Option<Exhaustion>) {
    let mut errors = Vec::new();
    let mut exhaustion: Option<Exhaustion> = None;
    let lookup =
        |k: KVar| Pred::and(assignment.get(&k).cloned().unwrap_or_default());
    let (mut sorts, antecedent) = c.env.embed(genv, &lookup);
    bind_nu(&mut sorts, &c.nu_shape);
    let lhs = filter_wellsorted(&sorts, c.lhs.concretize(&lookup));
    let lhs_full = Pred::and(vec![antecedent, lhs]);
    // Collect the concrete conjuncts first so the incremental path can
    // decide them all in one session (the antecedent is encoded once);
    // errors are still emitted in atom order, identical to the scalar
    // path.
    let mut obligations: Vec<(Pred, bool)> = Vec::new();
    for (theta, atom) in &c.rhs.atoms {
        let RefAtom::Conc(p) = atom else { continue };
        let rhs = theta.apply_pred(p);
        let wellsorted = sorts.wellsorted(&rhs);
        obligations.push((rhs, wellsorted));
    }
    let mut batched = if incremental {
        let rhss: Vec<Pred> = obligations
            .iter()
            .filter(|(_, ws)| *ws)
            .map(|(rhs, _)| rhs.clone())
            .collect();
        if rhss.len() > 1 {
            Some(smt.check_valid_many(&sorts, &lhs_full, &rhss).into_iter())
        } else {
            None
        }
    } else {
        None
    };
    for (rhs, wellsorted) in obligations {
        if !wellsorted {
            errors.push(LiquidError {
                msg: format!("obligation `{rhs}` is ill-sorted"),
                origin: Some(c.origin.clone()),
            });
            continue;
        }
        let verdict = match batched.as_mut().and_then(Iterator::next) {
            Some(v) => v,
            None => smt.check_valid(&sorts, &lhs_full, &rhs),
        };
        match verdict {
            Validity::Valid => continue,
            Validity::Unknown(e) => {
                // The obligation is neither proven nor refuted:
                // report it as unproven and taint the outcome.
                errors.push(LiquidError {
                    msg: format!("obligation `{rhs}` unproven: {e}"),
                    origin: Some(c.origin.clone()),
                });
                exhaustion.get_or_insert(e);
                continue;
            }
            Validity::Invalid => {}
        }
        {
            let msg = if dsolve_obs::log::enabled(dsolve_obs::log::Level::Debug) {
                let ks: Vec<String> = c
                    .lhs
                    .kvars()
                    .iter()
                    .map(|lk| {
                        format!(
                            "{lk}={}",
                            Pred::and(assignment.get(lk).cloned().unwrap_or_default())
                        )
                    })
                    .collect();
                format!(
                    "cannot prove `{rhs}`\n    from: {lhs_full}\n    raw: {} | {ks:?}",
                    c.lhs
                )
            } else {
                format!("cannot prove `{rhs}`")
            };
            errors.push(LiquidError {
                msg,
                origin: Some(c.origin.clone()),
            });
        }
    }
    (errors, exhaustion)
}

/// Counter values at solve entry: per-solve stats are reported as deltas
/// against these, so a driver-level `Obs` shared across several `verify`
/// calls (spec specialization retries the whole pipeline) still yields
/// correct per-solve numbers.
struct MetricsBaseline {
    queries: u64,
    checks: u64,
    hits: u64,
    sessions: u64,
    scoped: u64,
    refused: u64,
}

impl MetricsBaseline {
    fn capture(obs: &Obs) -> MetricsBaseline {
        let m = obs.metrics();
        MetricsBaseline {
            queries: m.smt_queries.get(),
            checks: m.smt_checks.get(),
            hits: m.smt_cache_hits.get(),
            sessions: m.smt_sessions.get(),
            scoped: m.smt_scoped_checks.get(),
            refused: m.smt_refused.get(),
        }
    }

    /// Whether any SMT query was refused (expired deadline, exhausted
    /// cap, or an injected `query-timeout`) since solve entry.
    fn any_refused(&self, obs: &Obs) -> bool {
        obs.metrics().smt_refused.get() > self.refused
    }

    /// Writes the registry deltas into `stats` — the metrics registry is
    /// the single accounting authority for query counts.
    fn fill(&self, obs: &Obs, stats: &mut SolveStats) {
        let m = obs.metrics();
        stats.smt_queries = m.smt_queries.get() - self.queries;
        stats.cache_hits = m.smt_cache_hits.get() - self.hits;
        stats.cache_lookups = m.smt_checks.get() - self.checks;
        stats.smt_sessions = m.smt_sessions.get() - self.sessions;
        stats.smt_scoped_checks = m.smt_scoped_checks.get() - self.scoped;
    }
}

/// Degrades an `Unsafe`-bound run to `Unknown` when any SMT query was
/// refused. A refused weakening query drops its qualifier — sound for
/// inference, but the resulting assignment can be strictly weaker than
/// the true fixpoint, so a failing obligation under it is not evidence
/// of a bug. A clean run is unaffected: every kept qualifier and every
/// obligation was genuinely proven, so `Safe` stands even after
/// refusals.
fn taint_refused_unsafe(
    base: &MetricsBaseline,
    obs: &Obs,
    errors: &[LiquidError],
    exhaustion: &mut Option<Exhaustion>,
) {
    if exhaustion.is_none() && !errors.is_empty() && base.any_refused(obs) {
        *exhaustion = Some(Exhaustion::with_detail(
            Phase::Fixpoint,
            Resource::SmtQueries,
            "refused SMT queries may have over-weakened the assignment; \
             failed obligations are unreliable"
                .to_string(),
        ));
    }
}

/// Appends a `(round, count)` trajectory point for `k`, seeding the
/// series with the pre-weakening count at round 0 and collapsing
/// multiple updates within one round to the last value.
fn record_trajectory(
    traj: &mut HashMap<KVar, Vec<(u64, usize)>>,
    k: KVar,
    round: u64,
    prev_len: usize,
    new_len: usize,
) {
    let points = traj.entry(k).or_insert_with(|| vec![(0, prev_len)]);
    match points.last_mut() {
        Some(last) if last.0 == round => last.1 = new_len,
        _ => points.push((round, new_len)),
    }
}

/// Renders the trajectory map as name-sorted `SolveStats` rows.
fn finish_trajectories(
    traj: HashMap<KVar, Vec<(u64, usize)>>,
) -> Vec<(String, Vec<(u64, usize)>)> {
    let mut out: Vec<(String, Vec<(u64, usize)>)> = traj
        .into_iter()
        .map(|(k, pts)| (k.to_string(), pts))
        .collect();
    out.sort();
    out
}

/// Names the κs written by constraints still pending when the fixpoint
/// was cut short. κs that changed in the current round are covered too:
/// their writers and readers are re-enqueued on every change, so the
/// pending worklist's write-set is exactly the set still in motion.
fn churn_names(subs: &[SubC], pending: impl IntoIterator<Item = usize>) -> Vec<String> {
    let mut ks: std::collections::BTreeSet<KVar> = std::collections::BTreeSet::new();
    for ci in pending {
        ks.extend(subs[ci].writes());
    }
    ks.into_iter().map(|k| k.to_string()).collect()
}

/// Folds the still-churning κ names into a fixpoint exhaustion's detail
/// text so an UNKNOWN verdict names the variables that refused to
/// converge.
fn name_churn(exhaustion: &mut Option<Exhaustion>, churning: &[String]) {
    let Some(e) = exhaustion else { return };
    if e.phase != Phase::Fixpoint || churning.is_empty() {
        return;
    }
    let shown = churning.len().min(8);
    let mut list = churning[..shown].join(", ");
    if churning.len() > shown {
        use std::fmt::Write as _;
        let _ = write!(list, " (+{} more)", churning.len() - shown);
    }
    if e.detail.is_empty() {
        e.detail = format!("still-churning: {list}");
    } else {
        e.detail = format!("{}; still-churning: {list}", e.detail);
    }
}

/// Formats one provenance label per constraint. Skipped entirely (empty
/// `Arc<str>`s) on a disabled handle so label formatting never shows up
/// in un-observed runs.
fn constraint_labels(subs: &[SubC], obs: &Obs) -> Vec<std::sync::Arc<str>> {
    if obs.enabled() {
        subs.iter()
            .map(|c| std::sync::Arc::from(c.origin.to_string().as_str()))
            .collect()
    } else {
        let empty: std::sync::Arc<str> = std::sync::Arc::from("");
        vec![empty; subs.len()]
    }
}

/// Groups a round's constraints so that any two constraints writing a
/// common κ share a partition (union–find over written κs), then bins
/// the groups onto `jobs` workers, largest first. Returns the non-empty
/// partitions, each in round order.
fn partition_round(round: &[usize], writes: &[Vec<KVar>], jobs: usize) -> Vec<Vec<usize>> {
    // Union–find over positions in `round`.
    let mut parent: Vec<usize> = (0..round.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut owner: HashMap<KVar, usize> = HashMap::new();
    for (pos, &ci) in round.iter().enumerate() {
        for &k in &writes[ci] {
            match owner.get(&k) {
                None => {
                    owner.insert(k, pos);
                }
                Some(&prev) => {
                    let a = find(&mut parent, prev);
                    let b = find(&mut parent, pos);
                    if a != b {
                        // Attach the later root to the earlier one so
                        // component ids stay deterministic.
                        parent[b.max(a)] = a.min(b);
                    }
                }
            }
        }
    }
    // Component of each position, numbered in first-appearance order.
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    let mut sizes: Vec<usize> = Vec::new();
    let comp: Vec<usize> = (0..round.len())
        .map(|pos| {
            let root = find(&mut parent, pos);
            let c = *comp_of_root.entry(root).or_insert_with(|| {
                sizes.push(0);
                sizes.len() - 1
            });
            sizes[c] += 1;
            c
        })
        .collect();
    // Longest-processing-time binning: components by size (descending,
    // stable), each to the least-loaded worker.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(sizes[c]));
    let mut bin_of = vec![0usize; sizes.len()];
    let mut load = vec![0usize; jobs.max(1)];
    for c in order {
        let w = (0..load.len()).min_by_key(|&b| load[b]).unwrap_or(0);
        load[w] += sizes[c];
        bin_of[c] = w;
    }
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); load.len()];
    for (pos, &ci) in round.iter().enumerate() {
        bins[bin_of[comp[pos]]].push(ci);
    }
    bins.retain(|b| !b.is_empty());
    bins
}

/// Checks a group of candidate qualifiers against one antecedent,
/// bisecting on failure: valid groups cost one query regardless of size.
/// Individual failures are retried against `full` (the unpruned
/// antecedent) when provided.
fn check_group(
    smt: &mut SmtSolver,
    sorts: &dsolve_logic::SortEnv,
    lhs: &Pred,
    full: Option<&Pred>,
    group: &[(Pred, Pred)],
    kept: &mut Vec<Pred>,
) {
    match group {
        [] => {}
        [(q, rhs_q)] => {
            let mut ok = smt.is_valid(sorts, lhs, rhs_q);
            if !ok {
                if let Some(full) = full {
                    if full != lhs {
                        ok = smt.is_valid(sorts, full, rhs_q);
                    }
                }
            }
            if ok {
                kept.push(q.clone());
            }
        }
        _ => {
            let all = Pred::and(group.iter().map(|(_, r)| r.clone()).collect());
            if smt.is_valid(sorts, lhs, &all) {
                kept.extend(group.iter().map(|(q, _)| q.clone()));
            } else {
                let mid = group.len() / 2;
                check_group(smt, sorts, lhs, full, &group[..mid], kept);
                check_group(smt, sorts, lhs, full, &group[mid..], kept);
            }
        }
    }
}

/// The incremental counterpart of [`check_group`]: the all-survive case
/// still costs one (cacheable) conjunction query, but a mixed group is
/// decided candidate-by-candidate in a single SMT session — the
/// antecedent is encoded once and each consequent checked under its own
/// assertion scope — instead of bisecting (which re-encodes the
/// antecedent at every split). Failures are retried against `full`, again
/// as one batch.
fn check_group_batched(
    smt: &mut SmtSolver,
    sorts: &dsolve_logic::SortEnv,
    lhs: &Pred,
    full: Option<&Pred>,
    group: &[(Pred, Pred)],
    kept: &mut Vec<Pred>,
) {
    if group.len() <= 1 {
        return check_group(smt, sorts, lhs, full, group, kept);
    }
    let all = Pred::and(group.iter().map(|(_, r)| r.clone()).collect());
    if smt.is_valid(sorts, lhs, &all) {
        kept.extend(group.iter().map(|(q, _)| q.clone()));
        return;
    }
    let rhss: Vec<Pred> = group.iter().map(|(_, r)| r.clone()).collect();
    let verdicts = smt.check_valid_many(sorts, lhs, &rhss);
    let mut failed: Vec<&(Pred, Pred)> = Vec::new();
    for (pair, v) in group.iter().zip(&verdicts) {
        if matches!(v, Validity::Valid) {
            kept.push(pair.0.clone());
        } else {
            failed.push(pair);
        }
    }
    // Pruning is a fast path, not a semantics: retry failures against
    // the unpruned antecedent before dropping a qualifier for good.
    if failed.is_empty() {
        return;
    }
    let Some(full) = full else { return };
    if full == lhs {
        return;
    }
    let retry: Vec<Pred> = failed.iter().map(|(_, r)| r.clone()).collect();
    let verdicts = smt.check_valid_many(sorts, full, &retry);
    for (pair, v) in failed.into_iter().zip(&verdicts) {
        if matches!(v, Validity::Valid) {
            kept.push(pair.0.clone());
        }
    }
}

/// Keeps the conjuncts transitively relevant to the seed variables
/// (variable-free conjuncts such as `false` are always kept).
fn prune_conjuncts(
    p: Pred,
    seeds: &mut std::collections::BTreeSet<Symbol>,
) -> Pred {
    let conjuncts = p.conjuncts();
    if conjuncts.len() <= 12 {
        return Pred::and(conjuncts);
    }
    let fvs: Vec<std::collections::BTreeSet<Symbol>> =
        conjuncts.iter().map(Pred::free_vars).collect();
    let mut keep = vec![false; conjuncts.len()];
    // Variable-free conjuncts carry reachability information (`false`).
    for (i, fv) in fvs.iter().enumerate() {
        if fv.is_empty() {
            keep[i] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (i, fv) in fvs.iter().enumerate() {
            if keep[i] || fv.is_empty() {
                continue;
            }
            if fv.iter().any(|v| seeds.contains(v)) {
                keep[i] = true;
                seeds.extend(fv.iter().copied());
                changed = true;
            }
        }
    }
    Pred::and(
        conjuncts
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| if k { Some(c) } else { None })
            .collect(),
    )
}

fn bind_nu(sorts: &mut dsolve_logic::SortEnv, shape: &dsolve_nanoml::MlType) {
    sorts.bind(
        Symbol::value_var(),
        crate::measure::sort_of_mltype(shape),
    );
}

fn filter_wellsorted(sorts: &dsolve_logic::SortEnv, p: Pred) -> Pred {
    Pred::and(
        p.conjuncts()
            .into_iter()
            .filter(|c| sorts.wellsorted(c))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Origin;
    use crate::env::{fresh_refinement, LiquidEnv};
    use crate::measure::MeasureEnv;
    use crate::rtype::{RType, Refinement};
    use dsolve_logic::{parse_pred, Sort, SortEnv};
    use dsolve_nanoml::{DataEnv, MlType};

    fn genv() -> GlobalEnv {
        GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new())
    }

    fn quals() -> Vec<Qualifier> {
        vec![
            Qualifier::new("Pos", parse_pred("0 < VV").unwrap()),
            Qualifier::new("UB", parse_pred("_ <= VV").unwrap()),
        ]
    }

    fn seq_config() -> SolveConfig {
        SolveConfig {
            jobs: 1,
            ..SolveConfig::default()
        }
    }

    #[test]
    fn single_kvar_keeps_implied_qualifiers() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let mut scope = SortEnv::new();
        scope.bind(Symbol::new("i"), Sort::Int);
        let r = fresh_refinement(&mut kenv, scope, &MlType::Int);
        let env = LiquidEnv::new().bind(Symbol::new("i"), RType::int());
        // {ν = i + 1} with i ≥ 1 flows into κ.
        let sub = SubC {
            env: env.bind(
                Symbol::new("i"),
                RType::int_pred(parse_pred("1 <= VV").unwrap()),
            ),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("VV = i + 1").unwrap()),
            rhs: r.clone(),
            origin: Origin::Flow("test"),
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert!(sol.errors.is_empty());
        let k = r.kvars()[0];
        let p = sol.pred_of(k).to_string();
        // Both 0 < ν and i ≤ ν survive.
        assert!(p.contains("(0 < VV)"), "{p}");
        assert!(p.contains("(i <= VV)"), "{p}");
    }

    #[test]
    fn unimplied_qualifiers_are_weakened_away() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let scope = SortEnv::new();
        let r = fresh_refinement(&mut kenv, scope, &MlType::Int);
        // ⊤ flows into κ: nothing survives.
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::top(),
            rhs: r.clone(),
            origin: Origin::Flow("test"),
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert_eq!(sol.pred_of(r.kvars()[0]), Pred::True);
    }

    #[test]
    fn chained_kvars_propagate() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r1 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let r2 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        // {0 < ν} <: κ1, κ1 <: κ2: both keep Pos.
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("0 < VV && VV = 3").unwrap()),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r1.clone(),
                rhs: r2.clone(),
                origin: Origin::Flow("t"),
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert_eq!(sol.pred_of(r2.kvars()[0]).to_string(), "(0 < VV)");
    }

    #[test]
    fn weakening_is_transitive_through_cycles() {
        // κ1 <: κ2 and κ2 <: κ1 with {0 < ν} into κ1 only via a
        // weaker source {ν = 0} — everything must drain.
        let genv = genv();
        let mut kenv = KEnv::new();
        let r1 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let r2 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("VV = 0").unwrap()),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r1.clone(),
                rhs: r2.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r2.clone(),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        // 0 < ν does not hold of ν = 0.
        assert_eq!(sol.pred_of(r1.kvars()[0]), Pred::True);
        assert_eq!(sol.pred_of(r2.kvars()[0]), Pred::True);
        // Round 1 checks all three; the readers weakened under (c1 by c0,
        // c2 by c1) are still pending later in the round and read the
        // overlay, so only the two weakening constraints are re-checked,
        // in round 2.
        assert_eq!((sol.stats.iterations, sol.stats.rounds), (5, 2));
    }

    #[test]
    fn concrete_obligations_reported() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            origin: Origin::Assert { line: 42 },
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert_eq!(sol.errors.len(), 1);
        assert!(sol.errors[0].to_string().contains("line 42"));
    }

    #[test]
    fn zero_timeout_reports_unknown_deadline_not_hang() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            origin: Origin::Assert { line: 7 },
        };
        let config = SolveConfig {
            budget: Budget::with_timeout(std::time::Duration::from_secs(0)),
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::Deadline);
        assert!(sol.outcome().is_unknown());
        // The undecided obligation is surfaced, not silently dropped.
        assert_eq!(sol.errors.len(), 1);
        assert!(sol.errors[0].to_string().contains("unproven"), "{}", sol.errors[0]);
    }

    #[test]
    fn exhausted_fixpoint_taints_outcome() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: r,
            origin: Origin::Flow("t"),
        };
        let config = SolveConfig {
            budget: Budget {
                max_fixpoint_iterations: 0,
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.phase, dsolve_logic::Phase::Fixpoint);
        assert_eq!(e.resource, dsolve_logic::Resource::FixpointIterations);
        // No obligation failed, yet the run must not claim Safe.
        assert!(sol.errors.is_empty());
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn exhausted_query_budget_reports_unproven_obligation() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            origin: Origin::Assert { line: 9 },
        };
        let config = SolveConfig {
            budget: Budget {
                max_smt_queries: Some(0),
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::SmtQueries);
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn concrete_obligation_uses_solved_kvars() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("VV = 5").unwrap()),
                rhs: r.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r.clone(),
                rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
                origin: Origin::Assert { line: 1 },
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert!(sol.errors.is_empty(), "{:?}", sol.errors.first().map(|e| e.to_string()));
    }

    /// A chain/diamond of κ constraints exercising multi-round parallel
    /// weakening with cross-partition reads.
    fn diamond_case() -> (GlobalEnv, KEnv, Vec<SubC>) {
        let genv = genv();
        let mut kenv = KEnv::new();
        let mut rs = Vec::new();
        for _ in 0..6 {
            rs.push(fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int));
        }
        let mut subs = vec![SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV && VV = 7").unwrap()),
            rhs: rs[0].clone(),
            origin: Origin::Flow("source"),
        }];
        // κ0 → κ1, κ0 → κ2, κ1 → κ3, κ2 → κ3, κ3 → κ4, κ4 → κ5.
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)] {
            subs.push(SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: rs[a].clone(),
                rhs: rs[b].clone(),
                origin: Origin::Flow("edge"),
            });
        }
        // A weaker source into κ2 forces weakening down one diamond leg.
        subs.push(SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("VV = 0").unwrap()),
            rhs: rs[2].clone(),
            origin: Origin::Flow("weak-source"),
        });
        // A concrete obligation at the sink.
        subs.push(SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: rs[5].clone(),
            rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            origin: Origin::Assert { line: 99 },
        });
        (genv, kenv, subs)
    }

    #[test]
    fn parallel_matches_sequential_on_diamond() {
        let (genv, kenv, subs) = diamond_case();
        let seq = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        let par = solve(
            &genv,
            &kenv,
            &subs,
            &quals(),
            &SolveConfig {
                jobs: 4,
                ..SolveConfig::default()
            },
        );
        assert_eq!(par.stats.jobs, 4);
        assert!(par.stats.rounds > 0);
        // Same assignment, same verdict, same error list.
        let dump = |s: &Solution| {
            let mut ks: Vec<_> = s.assignment.keys().copied().collect();
            ks.sort();
            ks.iter().map(|k| format!("{k}={}", s.pred_of(*k))).collect::<Vec<_>>()
        };
        assert_eq!(dump(&seq), dump(&par));
        assert_eq!(
            seq.errors.iter().map(ToString::to_string).collect::<Vec<_>>(),
            par.errors.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(seq.outcome(), par.outcome());
    }

    #[test]
    fn sequential_counts_rounds_and_trajectories() {
        let (genv, kenv, subs) = diamond_case();
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        // Satellite fix: rounds are counted at --jobs 1 too.
        assert!(sol.stats.rounds > 0);
        assert!(!sol.stats.partition_stats.is_empty());
        let covered: u64 = sol.stats.partition_stats.iter().map(|p| p.constraints).sum();
        assert_eq!(covered, sol.stats.iterations);
        assert!(!sol.stats.kvar_trajectories.is_empty());
        for (k, pts) in &sol.stats.kvar_trajectories {
            assert_eq!(pts[0].0, 0, "{k} baseline is at round 0");
            for w in pts.windows(2) {
                assert!(w[0].0 < w[1].0, "{k} rounds strictly increase");
                assert!(w[0].1 >= w[1].1, "{k} weakening is monotone");
            }
        }
        // A converged run has no churn.
        assert!(sol.stats.churning_kvars.is_empty());
    }

    #[test]
    fn exhausted_fixpoint_names_churning_kvars() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            budget: Budget {
                max_fixpoint_iterations: 2,
                ..Budget::default()
            },
            ..seq_config()
        };
        for jobs in [1, 2] {
            let config = SolveConfig { jobs, ..config.clone() };
            let sol = solve(&genv, &kenv, &subs, &quals(), &config);
            let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
            assert_eq!(e.resource, Resource::FixpointIterations);
            // Only constraints actually checked count, so the count
            // stops at the cap.
            assert_eq!(sol.stats.iterations, 2, "jobs={jobs}");
            assert!(!sol.stats.churning_kvars.is_empty());
            assert!(e.detail.contains("still-churning"), "{}", e.detail);
        }
    }

    #[test]
    fn parallel_partition_stats_cover_rounds() {
        let (genv, kenv, subs) = diamond_case();
        let par = solve(
            &genv,
            &kenv,
            &subs,
            &quals(),
            &SolveConfig {
                jobs: 4,
                ..SolveConfig::default()
            },
        );
        assert!(!par.stats.partition_stats.is_empty());
        let covered: u64 = par.stats.partition_stats.iter().map(|p| p.constraints).sum();
        assert_eq!(covered, par.stats.iterations);
        let max_round = par.stats.partition_stats.iter().map(|p| p.round).max().unwrap();
        assert_eq!(max_round, par.stats.rounds);
        assert!(!par.stats.kvar_trajectories.is_empty());
        assert!(par.stats.churning_kvars.is_empty());
    }

    #[test]
    fn partition_round_keeps_shared_writers_together_in_round_order() {
        // Constraints 0 and 2 write κ0; constraint 1 writes κ1. The
        // round is not in index order, and neither is any partition.
        let k0 = KVar(0);
        let k1 = KVar(1);
        let writes = vec![vec![k0], vec![k1], vec![k0]];
        assert_eq!(partition_round(&[2, 1, 0], &writes, 2), vec![vec![2, 0], vec![1]]);
        // One worker: the whole round, FIFO.
        assert_eq!(partition_round(&[2, 1, 0], &writes, 1), vec![vec![2, 1, 0]]);
    }

    #[test]
    fn parallel_zero_iteration_budget_exhausts() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 2,
            budget: Budget {
                max_fixpoint_iterations: 0,
                ..Budget::default()
            },
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::FixpointIterations);
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn injected_worker_panic_degrades_sequentially() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            fault: Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap())),
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("panic taints the run");
        assert_eq!(e.resource, Resource::Panic);
        assert_eq!(e.phase, Phase::Fixpoint);
        // The run degrades to Unknown — never a flipped definite verdict.
        assert!(sol.outcome().is_unknown());
        assert!(config.obs.metrics().workers_quarantined.get() >= 1);
    }

    #[test]
    fn injected_worker_panic_quarantines_parallel_partition() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 4,
            fault: Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap())),
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("panic taints the run");
        assert_eq!(e.resource, Resource::Panic);
        assert!(sol.outcome().is_unknown());
        assert!(config.obs.metrics().workers_quarantined.get() >= 1);
    }

    #[test]
    fn injected_cache_poison_is_recovered_transparently() {
        let (genv, kenv, subs) = diamond_case();
        let clean = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        let config = SolveConfig {
            jobs: 2,
            fault: Some(Arc::new(FaultPlan::parse("cache-poison").unwrap())),
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        // Poisoned shards recover; the verdict is unchanged.
        assert_eq!(sol.outcome(), clean.outcome());
        assert!(config.obs.metrics().cache_poison_recoveries.get() >= 1);
    }

    #[test]
    fn parallel_query_cap_is_global_across_workers() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 4,
            budget: Budget {
                max_smt_queries: Some(3),
                ..Budget::default()
            },
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        // The cap covers the sum across workers (a per-worker cap of 3
        // would allow 12 solves). Only solved queries charge the cap —
        // cache hits are free — so depending on what the shared cache
        // holds when the cap trips, the sink obligation is either left
        // undecided (Unknown tainted by the query cap) or refuted
        // against the over-weakened assignment (Unsafe). It can never
        // be proven Safe on 3 queries.
        match sol.outcome() {
            Outcome::Safe => panic!("3 queries cannot prove the diamond safe"),
            Outcome::Unknown(e) => {
                assert_eq!(e.resource, dsolve_logic::Resource::SmtQueries);
            }
            Outcome::Unsafe => assert!(!sol.errors.is_empty()),
        }
    }
}
