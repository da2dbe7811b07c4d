//! LP-based branch and bound.
//!
//! The driver presolves the problem, builds the computational LP form once,
//! and explores a tree of bound-tightened LP relaxations. Nodes carry their
//! bound *deltas* from the root plus a shared warm-start basis, so node
//! storage stays small. Node selection is best-bound with depth-first
//! plunging by default; branching uses pseudo-costs with a most-fractional
//! fallback.
//!
//! # One worker loop
//!
//! The search is one worker loop over a shared open-node pool: a best-bound
//! heap behind a `Mutex` plus one in-flight slot per worker. `threads: 1`
//! runs one worker of that loop inline; with [`Config::threads`] above 1 the
//! same loop runs on scoped worker threads. The incumbent objective is
//! published through an `AtomicU64` (f64 bits) so every worker prunes
//! against the freshest bound, the base bounds tightened by reduced-cost
//! fixing are shared so one worker's incumbent tightens every later node,
//! and each worker runs its own simplex instance with the shared warm-start
//! bases (`Arc`). Node processing order differs run to run at more than one
//! worker, so pseudo-cost learning and node counts vary — but pruning only
//! ever discards nodes whose LP bound cannot beat the incumbent, so the
//! *objective value* of the result is deterministic to within the
//! configured gap tolerances at any thread count.
//!
//! # Resume
//!
//! A checkpointed solve resumes through the same setup as a cold one
//! ([`solve_milp_with`] with a [`SearchFrame`] seed): the frame only swaps
//! in its pricing batches, root cuts, cut pool, incumbent, base bounds and
//! open nodes.

use crate::checkpoint::{self, CkptRuntime, FrameError, FrameNode, SearchFrame};
use crate::config::{Branching, Config, NodeSelection};
use crate::cuts;
use crate::error::relock;
use crate::heur;
use crate::presolve::{presolve, Presolved};
use crate::pricing::{self, ColumnSource};
use crate::problem::{Problem, Sense, VarId, VarType};
use crate::simplex::{solve_lp, LpData, LpStatus, VStat};
use crate::solution::{Solution, Stats, Status};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One open node: bound changes relative to the root plus bookkeeping.
/// `Clone` lets the node pool keep an in-flight copy per worker so a
/// panicking worker's node can be re-queued instead of lost.
#[derive(Clone)]
struct Node {
    /// `(var, new_lb, new_ub)` tightenings along the path from the root.
    changes: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (internal minimize sense).
    bound: f64,
    depth: usize,
    /// Warm-start statuses shared with the sibling (and across worker
    /// threads).
    warm: Option<Arc<Vec<VStat>>>,
}

/// Max-heap adapter: we want the node with the *smallest* bound on top.
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: smaller bound = greater priority
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.0.depth.cmp(&self.0.depth))
    }
}

/// Per-variable pseudo-cost records. Each worker keeps its own copy:
/// the records steer branching, not correctness, so they need no sharing.
struct PseudoCosts {
    up_sum: Vec<f64>,
    up_cnt: Vec<usize>,
    down_sum: Vec<f64>,
    down_cnt: Vec<usize>,
}

impl PseudoCosts {
    fn new(n: usize) -> Self {
        PseudoCosts {
            up_sum: vec![0.0; n],
            up_cnt: vec![0; n],
            down_sum: vec![0.0; n],
            down_cnt: vec![0; n],
        }
    }

    fn record(&mut self, var: usize, up: bool, degradation_per_frac: f64) {
        let d = degradation_per_frac.max(0.0);
        if up {
            self.up_sum[var] += d;
            self.up_cnt[var] += 1;
        } else {
            self.down_sum[var] += d;
            self.down_cnt[var] += 1;
        }
    }

    fn score(&self, var: usize, frac: f64) -> f64 {
        let eps = 1e-6;
        let up = if self.up_cnt[var] > 0 {
            self.up_sum[var] / self.up_cnt[var] as f64
        } else {
            1.0
        };
        let down = if self.down_cnt[var] > 0 {
            self.down_sum[var] / self.down_cnt[var] as f64
        } else {
            1.0
        };
        (up * (1.0 - frac)).max(eps) * (down * frac).max(eps)
    }

    fn initialized(&self, var: usize) -> bool {
        self.up_cnt[var] > 0 || self.down_cnt[var] > 0
    }
}

/// Read-only problem data shared by every search worker.
struct SearchCtx<'a> {
    lp: &'a LpData,
    root_lb: &'a [f64],
    root_ub: &'a [f64],
    int_vars: &'a [usize],
    reduced: &'a Problem,
    cfg: &'a Config,
    deadline: Option<Instant>,
    /// `+1.0` when the user problem minimizes, `-1.0` when it maximizes.
    sign: f64,
    obj_offset: f64,
    /// Problem structure the separators work from.
    cut_ctx: &'a cuts::CutContext,
    /// Shared cut pool; its applied list is append-only and globally
    /// ordered, so workers can extend local LP copies by prefix.
    cut_pool: &'a Mutex<cuts::CutPool>,
    /// Lock-free mirror of the pool's applied length, written under the
    /// pool lock by whoever applies cuts. Workers check it before locking,
    /// so the common no-new-cuts node solve never touches the pool mutex.
    cuts_applied_hint: &'a AtomicUsize,
    /// Cuts already baked into `lp` (the root cuts); node-level syncing
    /// starts from this prefix.
    root_cuts: usize,
    /// Durable-solve runtime, when [`Config::checkpoint`] is set: snapshot
    /// cadence claims, the frame hand-off slot, the write-time debit, and
    /// the stall watchdog's abort flag.
    ckpt: Option<&'a CkptRuntime>,
    /// Shared incumbent: tree workers, dives, and the LNS engine all
    /// publish through (and prune against) this one state.
    inc: &'a Incumbent,
}

// The context crosses scoped-thread boundaries; keep that statically true.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SearchCtx<'_>>();
};

impl SearchCtx<'_> {
    /// Translates an internal (minimize-sense) objective to the user sense.
    fn user_obj(&self, internal: f64) -> f64 {
        self.sign * internal + self.obj_offset
    }
}

/// Shared incumbent state: the objective as atomic f64 bits for lock-free
/// pruning, the full vector behind a mutex, and a timestamped publication
/// trace for the anytime metrics. One instance is shared by the tree search
/// (every worker), the dive heuristics, and the LNS + tabu engine,
/// so an improvement from any of them immediately tightens every worker's
/// pruning bound.
pub(crate) struct Incumbent {
    /// Incumbent objective as f64 bits (∞ = none), internal minimize sense.
    bound: AtomicU64,
    /// Incumbent vector; `bound` is only written while holding this.
    full: Mutex<Option<(f64, Vec<f64>)>>,
    /// `(seconds since solve start, internal objective)` per accepted
    /// improvement, in publication order (objectives strictly decrease).
    trace: Mutex<Vec<(f64, f64)>>,
    /// Solve start: the zero point of the trace timestamps.
    start: Instant,
}

impl Incumbent {
    pub(crate) fn new(start: Instant) -> Self {
        Incumbent {
            bound: AtomicU64::new(INF_BITS),
            full: Mutex::new(None),
            trace: Mutex::new(Vec::new()),
            start,
        }
    }

    /// The incumbent objective (∞ when none), for lock-free pruning.
    pub(crate) fn bound(&self) -> f64 {
        f64::from_bits(self.bound.load(AtomicOrdering::SeqCst))
    }

    /// Installs `(obj, x)` as the incumbent if it improves; returns whether
    /// it did. Callers are responsible for only offering feasible points.
    pub(crate) fn offer(&self, obj: f64, x: Vec<f64>) -> bool {
        let mut guard = relock(&self.full);
        let improves = guard.as_ref().is_none_or(|(o, _)| obj < *o);
        if improves {
            *guard = Some((obj, x));
            self.bound.store(obj.to_bits(), AtomicOrdering::SeqCst);
            relock(&self.trace).push((self.start.elapsed().as_secs_f64(), obj));
        }
        improves
    }

    /// A clone of the current best `(objective, x)`.
    pub(crate) fn best(&self) -> Option<(f64, Vec<f64>)> {
        relock(&self.full).clone()
    }

    /// Consumes the state: the final incumbent plus the publication trace.
    #[allow(clippy::type_complexity)]
    fn into_parts(self) -> (Option<(f64, Vec<f64>)>, Vec<(f64, f64)>) {
        (
            self.full.into_inner().unwrap_or_else(PoisonError::into_inner),
            self.trace.into_inner().unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// What a tree search hands back to the wrap-up code. The incumbent itself
/// lives in the shared [`Incumbent`] (read by [`wrap_up`] after the search
/// and the heuristic engine have both stopped).
struct SearchOutcome {
    /// Smallest bound among still-open nodes (∞ when the tree is exhausted).
    open_bound: f64,
    hit_limit: bool,
    /// A node LP was unbounded (only possible if the root was; defensive).
    unbounded: bool,
    /// Smallest bound among nodes dropped after unrecoverable LP errors
    /// (∞ when none). Folded into the final bound so a solve that lost
    /// subtrees never claims optimality past them.
    dropped_bound: f64,
}

impl SearchCtx<'_> {
    /// Whether the solve should wind down: wall-clock deadline (net of the
    /// checkpoint-time debit), cooperative cancellation, a watchdog stall
    /// abort, or an injected (simulated) deadline expiry.
    fn should_stop(&self, nodes: usize) -> bool {
        self.effective_deadline().is_some_and(|d| Instant::now() >= d)
            || self.cfg.is_cancelled()
            || self.ckpt.is_some_and(CkptRuntime::stall_abort_requested)
            || self
                .cfg
                .faults
                .as_ref()
                .is_some_and(|f| f.deadline_expired(nodes))
    }

    /// The wall-clock deadline with checkpoint assembly/write time debited:
    /// durability overhead shrinks the search budget instead of silently
    /// extending the wall time, mirroring how the exploration layer charges
    /// encode time against a shared limit.
    fn effective_deadline(&self) -> Option<Instant> {
        let d = self.deadline?;
        match self.ckpt {
            Some(rt) => Some(d.checked_sub(rt.debit()).unwrap_or(d)),
            None => Some(d),
        }
    }
}

/// Most fractional integer variable of `x`, if any. Fractionality ties are
/// broken by larger objective coefficient magnitude (branching on a
/// variable the objective actually cares about moves the bound faster on
/// symmetric routing models), then by lower index for determinism.
fn most_fractional(x: &[f64], c: &[f64], int_vars: &[usize], int_tol: f64) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64, f64)> = None; // (j, frac, dist, |c_j|)
    for &j in int_vars {
        let f = x[j] - x[j].floor();
        let dist = (f - 0.5).abs();
        if f > int_tol && f < 1.0 - int_tol {
            let mag = c[j].abs();
            let better = match best {
                None => true,
                Some((_, _, d, m)) => dist < d - 1e-12 || (dist < d + 1e-12 && mag > m),
            };
            if better {
                best = Some((j, f, dist, mag));
            }
        }
    }
    best.map(|(j, f, _, _)| (j, f))
}

/// Reduced-cost variable fixing: given the root LP bound `lp_bound` and an
/// incumbent objective `inc_obj` (both internal minimize sense) plus the
/// root reduced costs `dj`, any solution better than the incumbent keeps a
/// nonbasic variable within `gap / |dj|` of the bound it rests at, so the
/// opposite bound can be pulled in globally. Returns the number of bounds
/// tightened. A small cushion keeps incumbent-equal solutions reachable.
fn fix_by_reduced_costs(
    lb: &mut [f64],
    ub: &mut [f64],
    dj: &[f64],
    int_vars: &[usize],
    lp_bound: f64,
    inc_obj: f64,
) -> Vec<(usize, f64, f64)> {
    let mut fixed: Vec<(usize, f64, f64)> = Vec::new();
    if dj.is_empty() || !lp_bound.is_finite() || !inc_obj.is_finite() {
        return fixed;
    }
    let gap = (inc_obj - lp_bound).max(0.0);
    let cushion = 1e-6 * (1.0 + gap.abs());
    for &j in int_vars {
        if lb[j] >= ub[j] {
            continue; // already fixed
        }
        let d = dj[j];
        // At optimality d > 0 only at a lower bound and d < 0 only at an
        // upper bound, so the sign identifies the resting bound.
        if d > 1e-9 && lb[j].is_finite() {
            let limit = lb[j] + ((gap + cushion) / d).floor();
            if limit < ub[j] - 1e-9 {
                ub[j] = limit.max(lb[j]);
                fixed.push((j, f64::NEG_INFINITY, ub[j]));
            }
        } else if d < -1e-9 && ub[j].is_finite() {
            let limit = ub[j] - ((gap + cushion) / -d).floor();
            if limit > lb[j] + 1e-9 {
                lb[j] = limit.min(ub[j]);
                fixed.push((j, lb[j], f64::INFINITY));
            }
        }
    }
    fixed
}

/// Bounded time window for one dive, clamped to the remaining solver
/// budget: a dive may want `want_secs`, but it never gets more than half
/// of what is left before `deadline`, and is skipped outright (`None`)
/// when the budget is nearly exhausted — so a last-gasp dive cannot
/// overshoot a small `time_limit`.
fn dive_window(deadline: Option<Instant>, want_secs: f64) -> Option<Instant> {
    let now = Instant::now();
    match deadline {
        None => Some(now + Duration::from_secs_f64(want_secs)),
        Some(d) => {
            let remaining = d.saturating_duration_since(now).as_secs_f64();
            if remaining <= 0.05 {
                return None;
            }
            Some(now + Duration::from_secs_f64(want_secs.min(remaining * 0.5)))
        }
    }
}

/// Solves `problem` by presolve + branch and bound. `start` anchors the time
/// limit. Called through [`crate::Solver::solve`].
pub fn solve_milp(problem: &Problem, cfg: &Config, start: Instant) -> Solution {
    cold(solve_milp_with(problem, cfg, start, None, None))
}

/// Unwraps a solve without a frame seed, which has no frame to mismatch.
pub(crate) fn cold(r: Result<Solution, FrameError>) -> Solution {
    r.unwrap_or_else(|e| unreachable!("an unseeded solve cannot mismatch a frame: {e}"))
}

/// [`solve_milp`] with an optional column source and an optional
/// checkpoint frame to resume from.
///
/// When a source is supplied (and [`Config::colgen`] is enabled), presolve
/// is forced to the identity so the row indices the source prices against
/// are exactly the caller's encode-time indices, and the root LP is grown
/// by a solve-price-reoptimize loop before cut separation. Called through
/// [`crate::Solver::solve_with_columns`].
///
/// A `seed` frame resumes a checkpointed solve through the same setup: the
/// root LP is solved cold as usual, then the frame swaps in its own inputs —
/// its pricing batches are replayed instead of generated, its root cuts are
/// appended to the solved root and reoptimized exactly like a cut round,
/// and its cut pool, incumbent, base bounds and open nodes replace the
/// root's. Resuming from *any* valid frame — even a stale one — yields the
/// same final objective and proof status as an uninterrupted run; staleness
/// only re-does work. Called through [`crate::Solver::resume`].
///
/// Fails with [`FrameError::Mismatch`] only when `seed` does not belong to
/// this problem/configuration pairing; callers typically fall back to a
/// cold solve.
pub fn solve_milp_with(
    problem: &Problem,
    cfg: &Config,
    start: Instant,
    mut columns: Option<&mut dyn ColumnSource>,
    seed: Option<SearchFrame>,
) -> Result<Solution, FrameError> {
    let deadline = cfg.time_limit.map(|d| start + d);
    let minimize = problem.sense() == Sense::Minimize;
    let mut stats = Stats {
        resumed: seed.is_some(),
        ..Stats::default()
    };

    // --- Presolve ---
    // Pricing requires stable row indices (the source addresses rows by
    // their encode-time position), so a column source forces the identity.
    let mut ps: Presolved = if cfg.presolve && columns.is_none() {
        presolve(problem, minimize)
    } else {
        Presolved::identity(problem)
    };
    stats.presolve_rows_removed = ps.rows_removed;
    stats.presolve_vars_removed = ps.vars_removed;
    if let Some(conclusion) = ps.conclusion {
        if seed.is_some() {
            // The original solve never searched (so never wrote a frame)
            // for a presolve-concluded problem; this frame is someone else's.
            return Err(FrameError::Mismatch("presolve concluded the problem"));
        }
        stats.elapsed = start.elapsed();
        return Ok(match conclusion {
            Status::Infeasible => Solution::infeasible(stats),
            Status::Unbounded => Solution::unbounded(stats),
            _ => unreachable!("presolve only concludes infeasible/unbounded"),
        });
    }

    // --- Build internal (minimize) LP form ---
    // (`ps.reduced` is still mutable here: the pricing loop below may append
    // columns to it; the long-lived `reduced` borrow is taken afterwards.)
    let n = ps.reduced.num_vars();
    let sign = if minimize { 1.0 } else { -1.0 };
    let c: Vec<f64> = ps.reduced.objective().iter().map(|&v| sign * v).collect();
    let (row_lb, row_ub): (Vec<f64>, Vec<f64>) = ps
        .reduced
        .row_ids()
        .map(|r| ps.reduced.row_bounds(r))
        .unzip();
    let mut lp = LpData {
        a: ps.reduced.matrix(),
        c,
        row_lb,
        row_ub,
    };
    let mut root_lb: Vec<f64> = (0..n).map(|j| ps.reduced.var_bounds(VarId(j)).0).collect();
    let mut root_ub: Vec<f64> = (0..n).map(|j| ps.reduced.var_bounds(VarId(j)).1).collect();
    let mut int_vars: Vec<usize> = (0..n)
        .filter(|&j| ps.reduced.var_type(VarId(j)) != VarType::Continuous)
        .collect();
    let obj_offset = ps.reduced.obj_offset();
    let user_obj = |internal: f64| sign * internal + obj_offset;

    // Fingerprint the base LP before pricing or cuts mutate it: checkpoint
    // frames carry this hash, and a seeded solve recomputes it from a fresh
    // encode so a frame can never be applied to a different problem.
    let fingerprint = if cfg.checkpoint.is_some() || seed.is_some() {
        frame_fingerprint(&lp, &root_lb, &root_ub, &int_vars)
    } else {
        0
    };
    if let Some(frame) = &seed {
        if frame.fingerprint != fingerprint {
            return Err(FrameError::Mismatch("problem fingerprint differs"));
        }
        if !frame.batches.is_empty() && (columns.is_none() || !cfg.colgen.enabled) {
            return Err(FrameError::Mismatch(
                "frame carries priced columns but column generation is off",
            ));
        }
    }

    // --- Root LP ---
    stats.lp_solves += 1;
    let mut root = match solve_lp(&lp, &root_lb, &root_ub, cfg, None, deadline) {
        Ok(r) => r,
        Err(e) => {
            // Even the recovery ladder could not solve the root relaxation:
            // there is nothing to search, so surface the failure.
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return Ok(Solution::numeric_failure(stats, e));
        }
    };
    stats.simplex_iters += root.iters;
    stats.phase1_iters += root.phase1_iters;
    stats.dual_iters += root.dual_iters;
    if root.recoveries > 0 {
        stats.lp_recoveries += 1;
    }
    match root.status {
        LpStatus::Infeasible => {
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return Ok(Solution::infeasible(stats));
        }
        LpStatus::Unbounded => {
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return Ok(Solution::unbounded(stats));
        }
        LpStatus::Limit => {
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return Ok(Solution {
                status: Status::LimitNoSolution,
                objective: f64::INFINITY,
                best_bound: user_obj(f64::NEG_INFINITY),
                values: Vec::new(),
                stats,
                error: None,
            });
        }
        LpStatus::Optimal => {}
    }

    // --- Root column generation ---
    // The pricing loop runs before cut separation: every Gomory cut below
    // is derived on the final column set, so no cut is ever missing a
    // coefficient for a priced-in variable. The loop grows `ps.reduced`,
    // `lp`, the root bound vectors, and `int_vars` in lockstep, and leaves
    // `root` optimal over the grown LP. A seed replays its accepted batches
    // (batch by batch, so side-row column indices resolve exactly as they
    // did when first accepted) and restores the source's bookkeeping.
    let mut accepted_batches: Vec<checkpoint::FrameBatch> = Vec::new();
    if let Some(frame) = &seed {
        if !frame.batches.is_empty() {
            pricing::replay_batches(
                &mut ps,
                &mut lp,
                &mut root_lb,
                &mut root_ub,
                &mut int_vars,
                &frame.batches,
                cfg,
                &mut root,
                deadline,
                sign,
                &mut stats,
            )?;
        }
        accepted_batches = frame.batches.clone();
        if let Some(source) = columns.as_deref_mut() {
            source.restore_state(&frame.user_data);
        }
    } else if let Some(source) = columns.as_deref_mut() {
        if cfg.colgen.enabled {
            pricing::run_root_pricing(
                source,
                &mut ps,
                &mut lp,
                &mut root_lb,
                &mut root_ub,
                &mut int_vars,
                cfg,
                &mut root,
                deadline,
                sign,
                &mut stats,
                &mut accepted_batches,
            );
        }
    }
    let reduced = &ps.reduced;
    let int_vars = int_vars;

    // --- Root cutting planes ---
    // Separation rounds tighten the relaxation before any branching: each
    // round appends the pool's surviving cuts and dual-reoptimizes from the
    // old basis (cut slacks enter basic, which keeps it dual-feasible).
    // Gomory cuts are derived here, at the root bounds, so every cut below
    // is globally valid and the pool can be shared across workers. A seed
    // appends its root cuts the same way, in one step; its later cuts go
    // into the pool only, and node LPs catch them up lazily through
    // `sync_cut_lp` — the pool being ahead of an LP is the normal, tolerated
    // state of the append-only global order. Should the seed's root cuts
    // fail to reoptimize, they stay in the pool only and the search runs on
    // the uncut root: cuts are valid inequalities, so only strength is lost.
    let cut_ctx = cuts::CutContext::from_problem(reduced);
    let mut cut_pool = cuts::CutPool::new();
    let pre = (root.iters, root.phase1_iters, root.dual_iters, root.recoveries);
    let root_cuts = match &seed {
        Some(frame) => {
            if frame
                .cuts
                .iter()
                .any(|cut| cut.coefs.iter().any(|&(j, _)| j >= lp.num_vars()))
            {
                return Err(FrameError::Mismatch("cut references an unknown column"));
            }
            cut_pool.restore_applied(frame.cuts.clone());
            let baked = &frame.cuts[..frame.root_cuts];
            stats.lp_solves += usize::from(!baked.is_empty());
            if baked.is_empty()
                || cuts::append_and_reoptimize(
                    &mut lp, &root_lb, &root_ub, cfg, &mut root, baked, deadline,
                )
            {
                baked.len()
            } else {
                0
            }
        }
        None => {
            if cfg.cuts.enabled && !int_vars.is_empty() {
                cuts::run_root_cuts(
                    &mut lp,
                    &root_lb,
                    &root_ub,
                    cfg,
                    &cut_ctx,
                    &mut root,
                    &mut cut_pool,
                    deadline,
                );
                stats.lp_solves += cut_pool.rounds;
            }
            cut_pool.applied_len()
        }
    };
    stats.simplex_iters += root.iters - pre.0;
    stats.phase1_iters += root.phase1_iters - pre.1;
    stats.dual_iters += root.dual_iters - pre.2;
    if root.recoveries > pre.3 {
        stats.lp_recoveries += 1;
    }
    let cuts_applied_hint = AtomicUsize::new(cut_pool.applied_len());
    // Root LP bound after the cut rounds; the reported root gap measures
    // the incumbent against this tightened bound.
    let root_cut_bound = root.obj;
    let cut_pool = Mutex::new(cut_pool);

    // --- Incumbent state (internal minimize sense) ---
    // One shared instance for the whole solve: tree workers, dives, and the
    // LNS engine publish through it, and its timestamped trace yields the
    // anytime metrics in `wrap_up`. A seed's incumbent is whatever the
    // interrupted run had found by its snapshot.
    let inc = Incumbent::new(start);
    if let Some((obj, x)) = seed.as_ref().and_then(|f| f.incumbent.clone()) {
        if x.len() != lp.num_vars() {
            return Err(FrameError::Mismatch("incumbent length differs"));
        }
        inc.offer(obj, x);
    }

    // A caller-supplied warm-start point (the previous optimum of a nearby
    // problem, in original variable order) seeds the incumbent when it
    // still satisfies every row, bound, and integrality constraint of
    // *this* problem: the search then opens with a proven primal bound and
    // reduced-cost fixing bites from the root. Validation happens against
    // both the original and the reduced problem — presolve may have fixed
    // variables by dominance arguments that exclude feasible-but-worse
    // points, in which case the hint is dropped rather than trusted. After
    // pricing grew the variable space the size check fails and the hint is
    // ignored (priced columns have no value in the caller's vector).
    if let Some(warm) = cfg.warm_start.as_deref() {
        if problem.check_feasible(warm, cfg.int_tol).is_none() {
            if let Some(red) = ps.map_to_reduced(warm, cfg.int_tol) {
                if reduced.check_feasible(&red, cfg.int_tol).is_none() {
                    let obj: f64 = lp.c.iter().zip(&red).map(|(&c, &x)| c * x).sum();
                    if inc.offer(obj, red) {
                        stats.warm_seeded = true;
                    }
                }
            }
        }
    }

    // Root heuristics. On a resumed solve they can still beat the frame's
    // incumbent, which drives all pruning below; the better one is kept.
    if cfg.heuristics.enabled && !int_vars.is_empty() {
        if let Some((obj, x)) = heur::try_rounding(reduced, &lp, &root.x, cfg.int_tol) {
            if inc.offer(obj, x) {
                stats.heuristic_solutions += 1;
            }
        }
        let root_dive_budget = cfg
            .time_limit
            .map(|t| (t.as_secs_f64() * 0.1).clamp(1.0, 15.0))
            .unwrap_or(15.0);
        for strategy in [
            heur::DiveStrategy::NearestInteger,
            heur::DiveStrategy::MostFractionalUp,
        ] {
            let Some(dd) = dive_window(deadline, root_dive_budget) else {
                break;
            };
            if let Some((obj, x)) = heur::dive_with(
                strategy,
                reduced,
                &lp,
                &int_vars,
                &root_lb,
                &root_ub,
                cfg,
                Some(&root.statuses),
                Some(dd),
            ) {
                if inc.offer(obj, x) {
                    stats.heuristic_solutions += 1;
                }
            }
        }
    }

    // --- Base bounds ---
    // A seed's base bounds carry every reduced-cost fixing of the
    // interrupted run. Fixing again against them stays valid: bounds
    // tighter than the root LP's only weaken each implied limit.
    if let Some(frame) = &seed {
        if frame.base_lb.len() != root_lb.len() || frame.base_ub.len() != root_ub.len() {
            return Err(FrameError::Mismatch("bound vector length differs"));
        }
        root_lb.clone_from(&frame.base_lb);
        root_ub.clone_from(&frame.base_ub);
    }

    // --- Root reduced-cost fixing ---
    // With an incumbent in hand the root reduced costs bound how far any
    // nonbasic integer can move in a better solution; pull the opposite
    // bounds in before the tree search ever sees them.
    if cfg.reduced_cost_fixing && !int_vars.is_empty() {
        let inc_obj = inc.bound();
        if inc_obj.is_finite() {
            stats.rc_fixed += fix_by_reduced_costs(
                &mut root_lb,
                &mut root_ub,
                &root.dj,
                &int_vars,
                root.obj,
                inc_obj,
            )
            .len();
        }
    }

    // --- Open nodes ---
    // Every node warm-starts from the root basis: a seed's nodes are just
    // bound deltas from this root, so the basis stays dual-feasible for all
    // of them and their first solves are short dual reoptimizations.
    let root_warm = Arc::new(root.statuses.clone());
    let roots: Vec<Node> = match &seed {
        Some(frame) => {
            if frame
                .open_nodes
                .iter()
                .any(|nd| nd.changes.iter().any(|&(j, _, _)| j >= root_lb.len()))
            {
                return Err(FrameError::Mismatch("node change references an unknown column"));
            }
            stats.nodes = frame.nodes_done;
            frame
                .open_nodes
                .iter()
                .map(|nd| Node {
                    changes: nd.changes.clone(),
                    bound: nd.bound,
                    depth: nd.depth,
                    warm: Some(Arc::clone(&root_warm)),
                })
                .collect()
        }
        None => vec![Node {
            changes: Vec::new(),
            bound: root.obj,
            depth: 0,
            warm: Some(root_warm),
        }],
    };

    // --- Durable-solve runtime ---
    // Everything static for the rest of the search goes into the frame
    // base; the watchdog thread (spawned around the dispatch below) arms
    // the snapshot cadence, persists frames the search threads assemble,
    // and turns a stalled worker pool into a clean checkpointed abort.
    let ckpt_rt = cfg.checkpoint.as_ref().map(|ck| {
        let base = checkpoint::FrameBase {
            fingerprint,
            root_bound: root_cut_bound,
            base_lb: root_lb.clone(),
            base_ub: root_ub.clone(),
            batches: accepted_batches,
            user_data: columns
                .as_ref()
                .map(|s| s.snapshot_state())
                .unwrap_or_default(),
        };
        CkptRuntime::new(ck.clone(), base, cfg.faults.clone())
    });

    let ctx = SearchCtx {
        lp: &lp,
        root_lb: &root_lb,
        root_ub: &root_ub,
        int_vars: &int_vars,
        reduced,
        cfg,
        deadline,
        sign,
        obj_offset,
        cut_ctx: &cut_ctx,
        cut_pool: &cut_pool,
        cuts_applied_hint: &cuts_applied_hint,
        root_cuts,
        ckpt: ckpt_rt.as_ref(),
        inc: &inc,
    };

    // --- Search ---
    let nthreads = cfg.effective_threads();
    let root_djb = (cfg.reduced_cost_fixing && !int_vars.is_empty())
        .then_some((root.dj.as_slice(), root.obj));

    // --- LNS + tabu primal engine ---
    // Destroy units come from the encoder's GUB annotations (route
    // candidate disjunctions, device-placement rows); integer variables
    // outside every group are chunked so the whole space stays reachable.
    let lns_in = (cfg.heuristics.enabled && cfg.heuristics.lns && !int_vars.is_empty())
        .then(|| heur::LnsInput {
            reduced,
            lp: &lp,
            int_vars: &int_vars,
            base_lb: &root_lb,
            base_ub: &root_ub,
            root_x: &root.x,
            root_warm: Some(&root.statuses),
            neighborhoods: heur::build_neighborhoods(&cut_ctx.gub_groups, &int_vars),
            cfg,
            deadline,
        });
    let outcome = run_search_with_lns(&ctx, roots, root_djb, nthreads, lns_in, &mut stats);

    Ok(wrap_up(
        outcome,
        inc,
        &ps,
        cfg,
        &cut_pool,
        ckpt_rt.as_ref(),
        root_cut_bound,
        sign,
        obj_offset,
        start,
        stats,
    ))
}

/// Runs the tree search with the LNS engine riding shotgun: in async mode
/// (the default) the engine gets its own scoped thread, publish-only
/// against the shared incumbent, stopped and joined when the exact search
/// finishes; in [`crate::HeurConfig::sync`] mode it runs to completion
/// inline *before* the search, which makes the full engine trace
/// deterministic at any thread count. An engine panic is isolated exactly
/// like a worker panic: counted, and the exact search result stands.
fn run_search_with_lns(
    ctx: &SearchCtx<'_>,
    roots: Vec<Node>,
    root_djb: Option<(&[f64], f64)>,
    nthreads: usize,
    lns_in: Option<heur::LnsInput<'_>>,
    stats: &mut Stats,
) -> SearchOutcome {
    let record = |stats: &mut Stats, l: heur::LnsOutcome| {
        stats.lns_iters += l.iters;
        stats.lns_published += l.published;
        stats.heuristic_solutions += l.published;
        let user = |o: f64| ctx.sign * o + ctx.obj_offset;
        stats.lns_trace = l.trace.iter().map(|&o| user(o)).collect();
    };
    match lns_in {
        Some(lns) if ctx.cfg.heuristics.sync => {
            match catch_unwind(AssertUnwindSafe(|| heur::run_lns(&lns, ctx.inc, None))) {
                Ok(l) => record(stats, l),
                Err(_) => stats.worker_panics += 1,
            }
            run_search(ctx, roots, root_djb, nthreads, stats)
        }
        Some(lns) => {
            let lns_stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                let engine = s.spawn(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        heur::run_lns(&lns, ctx.inc, Some(&lns_stop))
                    }))
                });
                let outcome = run_search(ctx, roots, root_djb, nthreads, stats);
                lns_stop.store(true, AtomicOrdering::SeqCst);
                match engine.join() {
                    Ok(Ok(l)) => record(stats, l),
                    // Engine panicked (injected or real): the exact search
                    // result stands — the engine only ever publishes, so
                    // losing it costs speed, never correctness.
                    _ => stats.worker_panics += 1,
                }
                outcome
            })
        }
        None => run_search(ctx, roots, root_djb, nthreads, stats),
    }
}

/// Runs the tree search over `roots` and, when durable solves are
/// configured, wraps it with the checkpoint watchdog thread; the watchdog
/// runs for the whole search and flushes any pending frame on shutdown, so
/// even a limit-stopped solve leaves its final frame on disk.
///
/// The search is one worker loop over a shared [`NodePool`]: run inline as
/// a single worker at `threads: 1` (or with no integer variables), else on
/// `nthreads` scoped threads whose per-worker [`Stats`] are merged at join.
/// A panicking thread surrenders its node to the pool; if every thread dies
/// with open nodes left, one inline worker finishes the search so the
/// result is still exact.
fn run_search(
    ctx: &SearchCtx<'_>,
    roots: Vec<Node>,
    root_info: Option<(&[f64], f64)>,
    nthreads: usize,
    stats: &mut Stats,
) -> SearchOutcome {
    let threaded = nthreads > 1 && !ctx.int_vars.is_empty();
    let pool = NodePool {
        heap: Mutex::new(roots.into_iter().map(HeapNode).collect()),
        inflight: (0..if threaded { nthreads } else { 1 })
            .map(|_| Mutex::new(None))
            .collect(),
        base: Mutex::new((ctx.root_lb.to_vec(), ctx.root_ub.to_vec())),
        root_info,
        nodes: AtomicUsize::new(stats.nodes),
        stop: AtomicBool::new(false),
        hit_limit: AtomicBool::new(false),
        unbounded: AtomicBool::new(false),
        dropped_bound: Mutex::new(f64::INFINITY),
    };
    let search = |stats: &mut Stats| {
        if threaded {
            // Worker 0 starts out holding the best open node, so which
            // thread gets the first node never races thread start-up.
            if let Some(HeapNode(nd)) = relock(&pool.heap).pop() {
                *relock(&pool.inflight[0]) = Some(nd);
            }
            let panics: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..nthreads)
                    .map(|id| {
                        let pool = &pool;
                        s.spawn(move || {
                            // Isolate panics: the per-worker stats live
                            // outside the unwind boundary, and every shared
                            // structure is either atomic or repaired by
                            // relock(), which justifies AssertUnwindSafe.
                            let mut own = Stats::default();
                            let panicked =
                                catch_unwind(AssertUnwindSafe(|| worker(ctx, pool, id, &mut own)))
                                    .is_err();
                            if panicked {
                                pool.recover_after_panic(id);
                            }
                            (own, panicked)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .filter_map(|h| h.join().ok())
                    .map(|(own, panicked)| {
                        absorb(stats, &own);
                        usize::from(panicked)
                    })
                    .sum()
            });
            stats.worker_panics += panics;
            let open = relock(&pool.heap).len();
            if panics > 0 && !pool.stop.load(AtomicOrdering::SeqCst) && open > 0 {
                if ctx.cfg.verbose {
                    eprintln!(
                        "[milp] {panics} worker(s) panicked with {open} open nodes; continuing with one worker"
                    );
                }
                worker(ctx, &pool, 0, stats);
            }
        } else {
            worker(ctx, &pool, 0, stats);
        }
        // Limit wind-down: every worker parked its node before exiting, so
        // the heap is the complete open set — deposit it as the final frame
        // for the watchdog's exit drain, so a deadline-expired or
        // stall-aborted solve resumes from exactly where it stopped.
        if pool.hit_limit.load(AtomicOrdering::SeqCst) {
            if let Some(rt) = ctx.ckpt {
                let t0 = Instant::now();
                let open = pool.open_nodes(&relock(&pool.heap));
                rt.offer(snapshot_frame(ctx, rt, &pool, open), t0.elapsed());
            }
        }
    };
    match ctx.ckpt {
        Some(rt) => std::thread::scope(|s| {
            let wd = s.spawn(|| rt.watchdog());
            search(stats);
            rt.shutdown();
            let _ = wd.join();
        }),
        None => search(stats),
    }
    // Every worker released its slot on the way out, so the heap holds
    // every still-open node.
    stats.nodes = pool.nodes.into_inner();
    let heap = pool.heap.into_inner().unwrap_or_else(PoisonError::into_inner);
    SearchOutcome {
        open_bound: heap.peek().map_or(f64::INFINITY, |h| h.0.bound),
        hit_limit: pool.hit_limit.into_inner(),
        unbounded: pool.unbounded.into_inner(),
        dropped_bound: pool
            .dropped_bound
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

/// Adds one worker's search counters into the solve's [`Stats`].
fn absorb(stats: &mut Stats, own: &Stats) {
    stats.lp_solves += own.lp_solves;
    stats.simplex_iters += own.simplex_iters;
    stats.phase1_iters += own.phase1_iters;
    stats.dual_iters += own.dual_iters;
    stats.lp_recoveries += own.lp_recoveries;
    stats.rc_fixed += own.rc_fixed;
    stats.heuristic_solutions += own.heuristic_solutions;
    stats.dropped_nodes += own.dropped_nodes;
}

/// The open-node pool every search worker draws from: the best-bound heap
/// plus one in-flight slot per worker. Children are pushed before their
/// parent's slot is cleared, so heap ∪ slots always covers every open node
/// (a node seen in both is harmless: resumed work is re-done) — the gap
/// check and checkpoint frames read exactly that union.
struct NodePool<'a> {
    /// Open nodes, best bound on top.
    heap: Mutex<BinaryHeap<HeapNode>>,
    /// The node each worker holds: the one it is processing, or its next
    /// plunge child. A panicking worker's node is re-queued from here. Lock
    /// order is heap → slot everywhere.
    inflight: Vec<Mutex<Option<Node>>>,
    /// Base bounds every node is rebuilt from, tightened by reduced-cost
    /// fixing whenever any worker improves the incumbent (globally valid:
    /// the argument uses the root bound and the global incumbent).
    base: Mutex<(Vec<f64>, Vec<f64>)>,
    /// Root reduced costs and root LP bound for that fixing.
    root_info: Option<(&'a [f64], f64)>,
    /// Nodes processed; shared because `node_limit`, the dive period and
    /// checkpoint frames read it.
    nodes: AtomicUsize,
    /// All workers drain and exit (gap reached, limit hit, or unbounded).
    stop: AtomicBool,
    hit_limit: AtomicBool,
    unbounded: AtomicBool,
    /// Smallest bound among nodes dropped after unrecoverable LP errors
    /// (∞ when none). Folded into the final bound so a solve that lost
    /// subtrees never claims optimality past them.
    dropped_bound: Mutex<f64>,
}

impl NodePool<'_> {
    /// Smallest bound among open nodes (∞ when none). The caller holds the
    /// heap lock, under which claims fill their slot, so a node is never
    /// missed mid-handoff.
    fn open_bound(&self, heap: &BinaryHeap<HeapNode>) -> f64 {
        self.inflight
            .iter()
            .filter_map(|slot| relock(slot).as_ref().map(|n| n.bound))
            .fold(heap.peek().map_or(f64::INFINITY, |h| h.0.bound), f64::min)
    }

    /// Every open node, heap first, as checkpoint frame nodes.
    fn open_nodes(&self, heap: &BinaryHeap<HeapNode>) -> Vec<FrameNode> {
        heap.iter()
            .map(|h| frame_node(&h.0))
            .chain(
                self.inflight
                    .iter()
                    .filter_map(|slot| relock(slot).as_ref().map(frame_node)),
            )
            .collect()
    }

    /// Claims worker `id`'s next node, in the order the search has always
    /// used: gap check, checkpoint snapshot, then the worker's plunge child
    /// or else the best heap node. `None` ends this worker: the search
    /// stopped, the gap closed, or the tree is exhausted. While the heap is
    /// empty but peers still hold nodes, the worker waits for their
    /// children.
    fn claim(&self, ctx: &SearchCtx<'_>, id: usize, mut plunge: Option<Node>) -> Option<Node> {
        let cfg = ctx.cfg;
        // Starvation backoff: on an oversubscribed host a tight fixed-period
        // poll steals the core from whichever worker is producing children,
        // so the wait doubles (capped) each empty round.
        let mut wait = Duration::from_micros(50);
        loop {
            let mut heap = relock(&self.heap);
            // Gap-based termination (the incumbent may have just improved
            // via an LNS publication — the same check picks that up).
            let inc_obj = ctx.inc.bound();
            if inc_obj.is_finite() {
                let gap = inc_obj - self.open_bound(&heap);
                if gap <= cfg.abs_gap || gap <= cfg.rel_gap * inc_obj.abs().max(1e-10) {
                    self.stop.store(true, AtomicOrdering::SeqCst);
                }
            }
            if self.stop.load(AtomicOrdering::SeqCst) {
                if let Some(nd) = plunge {
                    heap.push(HeapNode(nd));
                }
                drop(heap);
                self.release(id);
                return None;
            }
            // Snapshot at the claim boundary: this worker holds no node
            // in process, and every peer's node sits in its slot.
            let snapshot = ctx
                .ckpt
                .filter(|rt| rt.take_due())
                .map(|rt| (rt, Instant::now(), self.open_nodes(&heap)));
            let node = plunge.take().or_else(|| {
                let HeapNode(nd) = heap.pop()?;
                *relock(&self.inflight[id]) = Some(nd.clone());
                Some(nd)
            });
            let exhausted =
                node.is_none() && self.inflight.iter().all(|slot| relock(slot).is_none());
            drop(heap);
            if let Some((rt, t0, open)) = snapshot {
                rt.offer(snapshot_frame(ctx, rt, self, open), t0.elapsed());
            }
            if node.is_some() || exhausted {
                return node;
            }
            std::thread::sleep(wait);
            wait = (wait * 2).min(Duration::from_millis(1));
        }
    }

    /// Marks worker `id` idle after it finished (or parked) its node.
    fn release(&self, id: usize) {
        relock(&self.inflight[id]).take();
    }

    /// Winds the search down on a limit: the unprocessed node goes back to
    /// the heap so the final bound — and the final frame — still cover it.
    fn halt(&self, id: usize, node: Node) {
        self.hit_limit.store(true, AtomicOrdering::SeqCst);
        self.stop.store(true, AtomicOrdering::SeqCst);
        relock(&self.heap).push(HeapNode(node));
        self.release(id);
    }

    /// Cleans up after worker `id` unwound from a panic: its node goes back
    /// to the heap, so surviving workers never wait on the dead one. The
    /// slot is cleared only after the push, so peers never see the tree
    /// empty while the node is in between.
    fn recover_after_panic(&self, id: usize) {
        let taken = relock(&self.inflight[id]).clone();
        if let Some(node) = taken {
            relock(&self.heap).push(HeapNode(node));
        }
        self.release(id);
    }

    /// Reduced-cost fixing of the shared base bounds against a new
    /// incumbent `obj`; every node claimed afterwards, by any worker,
    /// starts from the tightened bounds.
    fn refix(&self, ctx: &SearchCtx<'_>, obj: f64, stats: &mut Stats) {
        if let Some((dj, root_bound)) = self.root_info {
            let (lb, ub) = &mut *relock(&self.base);
            stats.rc_fixed += fix_by_reduced_costs(lb, ub, dj, ctx.int_vars, root_bound, obj).len();
        }
    }
}

/// One search worker: claims nodes from the pool, solves their LP
/// relaxations with a private simplex instance, publishes incumbents, and
/// plunges depth-first into the child nearer the LP value while the
/// sibling goes to the shared heap. Run inline as the only worker, it is
/// the whole `threads: 1` search.
fn worker(ctx: &SearchCtx<'_>, pool: &NodePool<'_>, id: usize, stats: &mut Stats) {
    let cfg = ctx.cfg;
    let mut pc = PseudoCosts::new(ctx.root_lb.len());
    let mut lb_buf = ctx.root_lb.to_vec();
    let mut ub_buf = ctx.root_ub.to_vec();
    // A worker resumes whatever node its slot already holds.
    let mut plunge: Option<Node> = relock(&pool.inflight[id]).clone();
    // Adaptive dive throttle: each dive that fails to improve the incumbent
    // doubles the node period before the next one (capped), an improvement
    // resets it — so dives stop eating wall clock once the tree has a good
    // incumbent they cannot beat.
    let mut dive_backoff = 1usize;
    // Node-level cuts (opt-in): worker-local LP copy synced to the shared
    // pool's append-only applied prefix before each node solve.
    let node_cuts = cfg.cuts.enabled && cfg.cuts.node_cuts && !ctx.int_vars.is_empty();
    let mut local_lp: Option<LpData> = None;
    let mut local_cuts = ctx.root_cuts;

    while let Some(mut node) = pool.claim(ctx, id, plunge.take()) {
        // Injected fault: a threaded worker panics exactly here, with its
        // node in flight, so tests prove the recovery path re-queues it.
        if pool.inflight.len() > 1 && cfg.faults.as_ref().is_some_and(|f| f.should_panic_worker(id))
        {
            panic!("injected panic in worker {id}");
        }
        // Prune against the freshest shared incumbent (∞ when none).
        if node.bound >= ctx.inc.bound() - cfg.abs_gap {
            pool.release(id);
            continue;
        }
        // Limits (wall-clock, cancellation, injected expiry, stall abort,
        // node count).
        let done = pool.nodes.load(AtomicOrdering::SeqCst);
        if ctx.should_stop(done) || cfg.node_limit.is_some_and(|nl| done >= nl) {
            pool.halt(id, node);
            break;
        }
        let node_idx = pool.nodes.fetch_add(1, AtomicOrdering::SeqCst) + 1;
        if let Some(rt) = ctx.ckpt {
            rt.bump_progress();
        }

        // Reconstruct bounds from the (possibly rc-tightened) base bounds.
        {
            let base = relock(&pool.base);
            lb_buf.copy_from_slice(&base.0);
            ub_buf.copy_from_slice(&base.1);
        }
        for &(j, lo, hi) in &node.changes {
            lb_buf[j] = lb_buf[j].max(lo);
            ub_buf[j] = ub_buf[j].min(hi);
        }

        stats.lp_solves += 1;
        let node_lp = if node_cuts {
            sync_cut_lp(ctx, &mut local_lp, &mut local_cuts)
        } else {
            ctx.lp
        };
        let nn_now = node_lp.num_vars() + node_lp.num_rows();
        let padded;
        let warm: Option<&[VStat]> = match node.warm.as_deref() {
            Some(w) if w.len() < nn_now => {
                padded = pad_warm(w, nn_now);
                Some(&padded)
            }
            Some(w) => Some(&w[..]),
            None => None,
        };
        let r = match solve_lp(node_lp, &lb_buf, &ub_buf, cfg, warm, ctx.deadline) {
            Ok(r) => r,
            Err(_) => {
                // Recovery ladder exhausted on this node: drop its subtree
                // but remember its bound so the final status stays honest.
                stats.dropped_nodes += 1;
                let mut dropped = relock(&pool.dropped_bound);
                *dropped = dropped.min(node.bound);
                drop(dropped);
                pool.release(id);
                continue;
            }
        };
        stats.simplex_iters += r.iters;
        stats.phase1_iters += r.phase1_iters;
        stats.dual_iters += r.dual_iters;
        if r.recoveries > 0 {
            stats.lp_recoveries += 1;
        }
        match r.status {
            LpStatus::Infeasible => {
                pool.release(id);
                continue;
            }
            LpStatus::Unbounded => {
                pool.unbounded.store(true, AtomicOrdering::SeqCst);
                pool.stop.store(true, AtomicOrdering::SeqCst);
                pool.release(id);
                break;
            }
            LpStatus::Limit => {
                pool.halt(id, node);
                break;
            }
            LpStatus::Optimal => {}
        }
        if r.obj >= ctx.inc.bound() - cfg.abs_gap {
            pool.release(id);
            continue; // bound-dominated
        }

        let Some((mf_var, mf_frac)) = most_fractional(&r.x, &ctx.lp.c, ctx.int_vars, cfg.int_tol)
        else {
            // Integral: new incumbent.
            let mut x = r.x.clone();
            for &j in ctx.int_vars {
                x[j] = x[j].round();
            }
            let obj = ctx.lp.c.iter().zip(&x).map(|(cc, v)| cc * v).sum::<f64>();
            if ctx.inc.offer(obj, x) {
                if cfg.verbose {
                    eprintln!(
                        "[milp] node {:>6} (worker {}): incumbent {:.6}",
                        node_idx,
                        id,
                        ctx.user_obj(obj)
                    );
                }
                pool.refix(ctx, obj, stats);
            }
            pool.release(id);
            continue;
        };
        // Node-level separation (opt-in): globally valid cover and clique
        // cuts at this node's fractional point, applied to future node
        // solves through the shared pool.
        if node_cuts {
            let mut cut_pool = relock(ctx.cut_pool);
            cuts::separate_node(
                ctx.cut_ctx,
                &r.x,
                ctx.root_lb,
                ctx.root_ub,
                &mut cut_pool,
                cfg.cuts.max_cuts_per_round,
            );
            let _ = cut_pool.select(&r.x, &cfg.cuts);
            ctx.cuts_applied_hint
                .store(cut_pool.applied_len(), AtomicOrdering::Release);
        }
        let (bvar, _bfrac) = choose_branch(cfg, &pc, &r.x, ctx.int_vars, mf_var, mf_frac);
        let xval = r.x[bvar];
        let floor = xval.floor();
        // Node-level reduced-cost fixing: this node's reduced costs bound
        // the cost of moving any nonbasic integer off its bound, so against
        // the incumbent the tightening is valid for the whole subtree —
        // record it on the node so both children (and the dive below)
        // inherit it. Fractional variables are basic (dj = 0), so the
        // branch variable is never touched. A stale (worse) incumbent only
        // under-fixes, so the tightening stays valid under races.
        if cfg.reduced_cost_fixing {
            let inc_obj = ctx.inc.bound();
            if inc_obj.is_finite() {
                let fixed = fix_by_reduced_costs(
                    &mut lb_buf,
                    &mut ub_buf,
                    &r.dj,
                    ctx.int_vars,
                    r.obj,
                    inc_obj,
                );
                if !fixed.is_empty() {
                    stats.rc_fixed += fixed.len();
                    node.changes.extend_from_slice(&fixed);
                }
            }
        }
        let warm = Arc::new(r.statuses);
        // Occasional in-tree diving heuristic; dive more eagerly (and with
        // both strategies) while no incumbent exists, and back off
        // exponentially while dives keep coming up empty.
        let have_inc = ctx.inc.bound().is_finite();
        let dive_period = if have_inc { 64 * dive_backoff } else { 16 };
        if cfg.heuristics.enabled && node_idx % dive_period == 1 && node_idx > 1 {
            let mut improved = false;
            let strategies: &[heur::DiveStrategy] = if have_inc {
                &[heur::DiveStrategy::NearestInteger]
            } else {
                &[
                    heur::DiveStrategy::NearestInteger,
                    heur::DiveStrategy::MostFractionalUp,
                ]
            };
            for &strategy in strategies {
                let Some(dd) = dive_window(ctx.deadline, 3.0) else {
                    break;
                };
                if let Some((obj, x)) = heur::dive_with(
                    strategy,
                    ctx.reduced,
                    node_lp,
                    ctx.int_vars,
                    &lb_buf,
                    &ub_buf,
                    cfg,
                    Some(&warm),
                    Some(dd),
                ) {
                    if ctx.inc.offer(obj, x) {
                        stats.heuristic_solutions += 1;
                        improved = true;
                        pool.refix(ctx, obj, stats);
                    }
                }
            }
            dive_backoff = if improved { 1 } else { (dive_backoff * 2).min(4) };
        }
        let (down_child, up_child) = make_children(&node, bvar, floor, r.obj, warm);
        // Attribute this node's LP degradation to the parent's branch
        // direction (online pseudo-cost proxy).
        let parent_frac_gain = (r.obj - node.bound).max(0.0);
        if let Some(&(pvar, plo, _phi)) = node.changes.last() {
            let went_up = plo.is_finite();
            pc.record(pvar, went_up, parent_frac_gain.max(1e-9));
        }
        // Children reach the heap before this worker's slot changes, so the
        // open set never loses them.
        match cfg.node_selection {
            NodeSelection::BestBound => {
                let mut heap = relock(&pool.heap);
                heap.push(HeapNode(down_child));
                heap.push(HeapNode(up_child));
                drop(heap);
                pool.release(id);
            }
            NodeSelection::BestBoundPlunge => {
                // Plunge into the child nearer the LP value; the sibling
                // goes to the shared heap for any worker.
                let (keep, push) = if xval - floor < 0.5 {
                    (down_child, up_child)
                } else {
                    (up_child, down_child)
                };
                relock(&pool.heap).push(HeapNode(push));
                *relock(&pool.inflight[id]) = Some(keep.clone());
                plunge = Some(keep);
            }
        }
    }
}

/// Shared wrap-up of both the cold and the resumed solve: cut-pool and
/// checkpoint statistics, bound/status reconciliation, and postsolve of
/// the incumbent back to the original variable space.
#[allow(clippy::too_many_arguments)]
fn wrap_up(
    outcome: SearchOutcome,
    inc: Incumbent,
    ps: &Presolved,
    cfg: &Config,
    cut_pool: &Mutex<cuts::CutPool>,
    ckpt_rt: Option<&CkptRuntime>,
    root_cut_bound: f64,
    sign: f64,
    obj_offset: f64,
    start: Instant,
    mut stats: Stats,
) -> Solution {
    {
        let pool = relock(cut_pool);
        stats.cuts_generated = pool.generated;
        stats.cuts_applied = pool.applied_len();
        stats.cut_rounds = pool.rounds;
    }
    if let Some(rt) = ckpt_rt {
        stats.checkpoint_time = rt.debit();
        stats.checkpoints_written = rt.frames_written();
        stats.stalls_detected = rt.stalls();
    }
    stats.elapsed = start.elapsed();
    let user_obj = |internal: f64| sign * internal + obj_offset;
    // Anytime metrics from the incumbent trace: when the first feasible
    // point landed, and when the incumbent first came within 1% of the
    // final objective (in user space — the headline number of the LNS
    // engine and the `heur_on`/`heur_off` ablation).
    let (incumbent, trace) = inc.into_parts();
    if let Some(&(t, _)) = trace.first() {
        stats.time_to_first_incumbent = Some(Duration::from_secs_f64(t));
    }
    if let Some((obj, _)) = &incumbent {
        let fin = user_obj(*obj);
        let tol = 0.01 * fin.abs().max(1e-10);
        stats.time_to_within_1pct = trace
            .iter()
            .find(|&&(_, o)| (user_obj(o) - fin).abs() <= tol)
            .map(|&(t, _)| Duration::from_secs_f64(t));
    }
    if outcome.unbounded {
        return Solution::unbounded(stats);
    }
    // Subtrees dropped after LP errors count as open: their bound caps the
    // proven bound, and their loss forbids an optimality claim.
    let open_bound = outcome.open_bound.min(outcome.dropped_bound);
    let hit_limit = outcome.hit_limit || outcome.dropped_bound.is_finite();
    match incumbent {
        Some((obj, x)) => {
            let values = ps.postsolve(&x);
            stats.root_gap = ((obj - root_cut_bound) / obj.abs().max(1e-10)).max(0.0);
            let bound_internal = if hit_limit || open_bound.is_finite() {
                open_bound.min(obj)
            } else {
                obj
            };
            let status = if hit_limit
                && (obj - bound_internal > cfg.abs_gap
                    && obj - bound_internal > cfg.rel_gap * obj.abs().max(1e-10))
            {
                Status::LimitFeasible
            } else {
                Status::Optimal
            };
            Solution {
                status,
                objective: user_obj(obj),
                best_bound: user_obj(bound_internal),
                values,
                stats,
                error: None,
            }
        }
        None => {
            if hit_limit {
                Solution {
                    status: Status::LimitNoSolution,
                    objective: f64::INFINITY,
                    best_bound: user_obj(open_bound),
                    values: Vec::new(),
                    stats,
                    error: None,
                }
            } else {
                Solution::infeasible(stats)
            }
        }
    }
}

/// Hash of the base LP (before any pricing or cut appends) plus the root
/// bounds and integrality pattern. Checkpoint frames carry it; resume
/// recomputes it from a fresh encode and refuses frames whose hash
/// differs, so a snapshot can never silently continue a different model.
fn frame_fingerprint(lp: &LpData, root_lb: &[f64], root_ub: &[f64], int_vars: &[usize]) -> u64 {
    let mut w = checkpoint::ByteWriter::new();
    w.put_usize(lp.num_vars());
    w.put_usize(lp.num_rows());
    for &v in &lp.c {
        w.put_f64(v);
    }
    for &v in &lp.row_lb {
        w.put_f64(v);
    }
    for &v in &lp.row_ub {
        w.put_f64(v);
    }
    for &v in root_lb {
        w.put_f64(v);
    }
    for &v in root_ub {
        w.put_f64(v);
    }
    w.put_usize(int_vars.len());
    for &j in int_vars {
        w.put_usize(j);
    }
    checkpoint::fnv1a64(&w.into_bytes())
}

/// A [`FrameNode`] snapshot of one open node (the warm basis is dropped;
/// a resumed node cold-solves once and re-warms its subtree).
fn frame_node(n: &Node) -> FrameNode {
    FrameNode {
        bound: n.bound,
        depth: n.depth,
        changes: n.changes.clone(),
    }
}

/// Assembles a complete [`SearchFrame`] from the runtime's static base
/// plus the pool's dynamic state (node count, base bounds) and the open
/// nodes the caller collected. The cut pool is read here: its applied list
/// is append-only and globally ordered, so a snapshot taken between a
/// peer's append and its hint publish is still consistent (the restored LP
/// simply catches the extras up lazily).
fn snapshot_frame(
    ctx: &SearchCtx<'_>,
    rt: &CkptRuntime,
    pool: &NodePool<'_>,
    open_nodes: Vec<FrameNode>,
) -> SearchFrame {
    let mut frame = rt.base_frame();
    frame.nodes_done = pool.nodes.load(AtomicOrdering::SeqCst);
    // Read the shared incumbent *after* the open set was collected: every
    // pruning decision reflected in that set used an incumbent at least as
    // old as this one, so the frame never pairs a pruned-down tree with a
    // weaker incumbent. LNS publications land here automatically.
    frame.incumbent = ctx.inc.best();
    {
        let base = relock(&pool.base);
        frame.base_lb.clone_from(&base.0);
        frame.base_ub.clone_from(&base.1);
    }
    frame.cuts = relock(ctx.cut_pool).applied().to_vec();
    frame.root_cuts = ctx.root_cuts;
    frame.open_nodes = open_nodes;
    frame
}

/// Pads a warm-start vector produced against an LP with fewer cut rows:
/// every appended cut row contributes one slack, and making those slacks
/// basic keeps the basis square and dual-feasible (see
/// [`LpData::append_rows`]).
fn pad_warm(w: &[VStat], nn_now: usize) -> Vec<VStat> {
    let mut v = Vec::with_capacity(nn_now);
    v.extend_from_slice(w);
    v.resize(nn_now, VStat::Basic);
    v
}

/// The LP a node should be solved against when node cuts are enabled: a
/// worker-local clone of the root LP extended with every cut the shared
/// pool has applied so far. The pool's applied list is append-only and
/// globally ordered, so the local copy catches up by appending the missing
/// suffix — row indices never shift and older warm bases stay valid after
/// [`pad_warm`].
fn sync_cut_lp<'b>(
    ctx: &'b SearchCtx<'_>,
    local_lp: &'b mut Option<LpData>,
    local_cuts: &mut usize,
) -> &'b LpData {
    // Lock-free fast path: the hint is monotone and published (under the
    // pool lock) by whoever applies cuts, so the steady state — no cuts
    // since this worker last caught up — never touches the pool mutex. A
    // stale read only delays the catch-up by one node; the cuts are
    // globally valid either way.
    if ctx.cuts_applied_hint.load(AtomicOrdering::Acquire) > *local_cuts {
        let pool = relock(ctx.cut_pool);
        let total = pool.applied_len();
        // `catch_up_rows` tolerates every relative position the append-only
        // order allows — including a pool already ahead of a restored LP
        // (the resume case) and a stale hint past the pool's length.
        let rows = cuts::catch_up_rows(pool.applied(), *local_cuts);
        drop(pool);
        if !rows.is_empty() {
            let lp = local_lp.get_or_insert_with(|| ctx.lp.clone());
            lp.append_rows(&rows);
            *local_cuts = total;
        }
    }
    match local_lp {
        Some(lp) => lp,
        None => ctx.lp,
    }
}

/// Picks the branching variable per the configured rule.
fn choose_branch(
    cfg: &Config,
    pc: &PseudoCosts,
    x: &[f64],
    int_vars: &[usize],
    mf_var: usize,
    mf_frac: f64,
) -> (usize, f64) {
    match cfg.branching {
        Branching::MostFractional => (mf_var, mf_frac),
        Branching::PseudoCost => {
            let mut best = (mf_var, mf_frac, -1.0f64);
            for &j in int_vars {
                let f = x[j] - x[j].floor();
                if f <= cfg.int_tol || f >= 1.0 - cfg.int_tol {
                    continue;
                }
                let s = if pc.initialized(j) {
                    pc.score(j, f)
                } else {
                    // uninitialized: prefer most fractional
                    0.25 - (f - 0.5) * (f - 0.5)
                };
                if s > best.2 {
                    best = (j, f, s);
                }
            }
            (best.0, best.1)
        }
    }
}

/// Builds the two children of a branch on `bvar` at `floor`.
fn make_children(
    node: &Node,
    bvar: usize,
    floor: f64,
    bound: f64,
    warm: Arc<Vec<VStat>>,
) -> (Node, Node) {
    let down_child = Node {
        changes: {
            let mut ch = node.changes.clone();
            ch.push((bvar, f64::NEG_INFINITY, floor));
            ch
        },
        bound,
        depth: node.depth + 1,
        warm: Some(Arc::clone(&warm)),
    };
    let up_child = Node {
        changes: {
            let mut ch = node.changes.clone();
            ch.push((bvar, floor + 1.0, f64::INFINITY));
            ch
        },
        bound,
        depth: node.depth + 1,
        warm: Some(warm),
    };
    (down_child, up_child)
}

const INF_BITS: u64 = f64::INFINITY.to_bits();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Row, Var};

    fn cfg() -> Config {
        Config::default()
    }

    #[test]
    fn most_fractional_breaks_ties_by_objective_magnitude() {
        // Both variables sit exactly at 0.5; the larger |c| must win.
        let x = [0.5, 0.5];
        let c = [1.0, -3.0];
        let got = most_fractional(&x, &c, &[0, 1], 1e-6);
        assert_eq!(got, Some((1, 0.5)));
        // Equal magnitudes: the lower index wins for determinism.
        let c_eq = [2.0, -2.0];
        let got = most_fractional(&x, &c_eq, &[0, 1], 1e-6);
        assert_eq!(got, Some((0, 0.5)));
        // No tie: fractionality still dominates the coefficient.
        let x2 = [0.5, 0.9];
        let got = most_fractional(&x2, &c, &[0, 1], 1e-6);
        assert_eq!(got, Some((0, 0.5)));
    }

    #[test]
    fn reduced_cost_fixing_tightens_and_respects_gap() {
        // gap = 10 - 8 = 2; d = 3 allows floor((2+eps)/3) = 0 above lb.
        let mut lb = vec![0.0, 0.0, 0.0];
        let mut ub = vec![10.0, 10.0, 10.0];
        let dj = [3.0, -3.0, 0.1];
        let fixed = fix_by_reduced_costs(&mut lb, &mut ub, &dj, &[0, 1, 2], 8.0, 10.0);
        assert_eq!(fixed.len(), 2);
        assert_eq!(ub[0], 0.0); // at-lower var pinned to its bound
        assert_eq!(lb[1], 10.0); // at-upper var pinned to its bound
        assert_eq!((lb[2], ub[2]), (0.0, 10.0)); // small |d|: gap/d >= span
        // The returned tightenings mirror the in-place updates, one-sided.
        assert_eq!(fixed[0], (0, f64::NEG_INFINITY, 0.0));
        assert_eq!(fixed[1], (1, 10.0, f64::INFINITY));
        // Infinite gap (no incumbent bound) must never fix anything.
        let mut lb2 = vec![0.0];
        let mut ub2 = vec![1.0];
        assert!(
            fix_by_reduced_costs(&mut lb2, &mut ub2, &[5.0], &[0], f64::NEG_INFINITY, 1.0)
                .is_empty()
        );
    }

    #[test]
    fn pure_lp_minimize() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(0.0, 10.0).obj(2.0));
        let y = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(4.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 8.0).abs() < 1e-6, "obj {}", s.objective());
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_maximize() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::cont().bounds(0.0, 4.0).obj(3.0));
        let y = p.add_var(Var::cont().bounds(0.0, 4.0).obj(2.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).le(5.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 14.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn small_knapsack() {
        // max 8x + 11y + 6z + 4w, 5x + 7y + 4z + 3w <= 14, binary
        // optimum: y + z + w = 21 weight 14
        let mut p = Problem::new(Sense::Maximize);
        let vals = [8.0, 11.0, 6.0, 4.0];
        let wts = [5.0, 7.0, 4.0, 3.0];
        let vars: Vec<VarId> = vals
            .iter()
            .map(|&v| p.add_var(Var::binary().obj(v)))
            .collect();
        let mut row = Row::new().le(14.0);
        for (v, &w) in vars.iter().zip(&wts) {
            row = row.coef(*v, w);
        }
        p.add_row(row);
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 21.0).abs() < 1e-6, "obj {}", s.objective());
        assert!(!s.is_one(vars[0]));
        assert!(s.is_one(vars[1]) && s.is_one(vars[2]) && s.is_one(vars[3]));
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 3, integer -> optimum 1 (not 1.5)
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(Var::integer().bounds(0.0, 5.0).obj(1.0));
        let y = p.add_var(Var::integer().bounds(0.0, 5.0).obj(1.0));
        p.add_row(Row::new().coef(x, 2.0).coef(y, 2.0).le(3.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 1.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn infeasible_milp() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().obj(1.0));
        let y = p.add_var(Var::binary().obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(3.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn equality_partition() {
        // choose exactly one of three options with different costs
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(Var::binary().obj(5.0));
        let b = p.add_var(Var::binary().obj(3.0));
        let c = p.add_var(Var::binary().obj(7.0));
        p.add_row(Row::new().coef(a, 1.0).coef(b, 1.0).coef(c, 1.0).eq(1.0));
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 3.0).abs() < 1e-6);
        assert!(s.is_one(b));
    }

    #[test]
    fn node_limit_reports_limit_status() {
        // a knapsack too hard for 1 node without heuristics
        let mut p = Problem::new(Sense::Maximize);
        let n = 12;
        let mut row = Row::new().le(17.0);
        for i in 0..n {
            let v = p.add_var(Var::binary().obj(3.0 + (i as f64 % 5.0)));
            row = row.coef(v, 2.0 + (i as f64 % 3.0));
        }
        p.add_row(row);
        let mut c = cfg().with_node_limit(1).with_heuristics(false);
        c.presolve = false;
        let s = solve_milp(&p, &c, Instant::now());
        assert!(matches!(
            s.status(),
            Status::LimitFeasible | Status::LimitNoSolution | Status::Optimal
        ));
    }

    #[test]
    fn objective_offset_respected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::cont().bounds(1.0, 2.0).obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).ge(1.0));
        p.shift_objective(100.0);
        let s = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 101.0).abs() < 1e-6, "obj {}", s.objective());
    }

    /// Builds a moderately hard knapsack-style MILP for the thread tests.
    fn hard_knapsack(n: usize) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let mut row = Row::new().le((2 * n) as f64 * 0.6);
        for i in 0..n {
            let v = p.add_var(Var::binary().obj(1.0 + ((i * 31) % 11) as f64 / 3.0));
            row = row.coef(v, 1.0 + ((i * 17) % 7) as f64 / 2.0);
        }
        p.add_row(row);
        p
    }

    #[test]
    fn parallel_agrees_with_sequential_objective() {
        for n in [10usize, 16, 22] {
            let p = hard_knapsack(n);
            let seq = solve_milp(&p, &cfg(), Instant::now());
            assert_eq!(seq.status(), Status::Optimal);
            for threads in [2usize, 4, 8] {
                let c = cfg().with_threads(threads);
                let par = solve_milp(&p, &c, Instant::now());
                assert_eq!(par.status(), Status::Optimal, "threads = {threads}");
                assert!(
                    (par.objective() - seq.objective()).abs() < 1e-6,
                    "threads {}: {} vs {}",
                    threads,
                    par.objective(),
                    seq.objective()
                );
                // the reported vector must itself be feasible and integral
                assert!(p.check_feasible(par.values(), 1e-6).is_none());
            }
        }
    }

    #[test]
    fn parallel_infeasible_detected() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(Var::binary().obj(1.0));
        let y = p.add_var(Var::binary().obj(1.0));
        p.add_row(Row::new().coef(x, 1.0).coef(y, 1.0).ge(3.0));
        let s = solve_milp(&p, &cfg().with_threads(4), Instant::now());
        assert_eq!(s.status(), Status::Infeasible);
    }

    #[test]
    fn parallel_respects_node_limit() {
        let p = hard_knapsack(12);
        let mut c = cfg().with_node_limit(1).with_heuristics(false).with_threads(4);
        c.presolve = false;
        let s = solve_milp(&p, &c, Instant::now());
        assert!(matches!(
            s.status(),
            Status::LimitFeasible | Status::LimitNoSolution | Status::Optimal
        ));
    }

    #[test]
    fn parallel_pure_best_bound_selection() {
        let p = hard_knapsack(14);
        let mut c = cfg().with_threads(3);
        c.node_selection = NodeSelection::BestBound;
        let s = solve_milp(&p, &c, Instant::now());
        let seq = solve_milp(&p, &cfg(), Instant::now());
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - seq.objective()).abs() < 1e-6);
    }
}
