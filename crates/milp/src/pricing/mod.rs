//! Column generation: root-level pricing of new variables on demand.
//!
//! The solver core knows nothing about what a column *means* — a caller
//! supplies a [`ColumnSource`] that, given the optimal row duals of the
//! restricted LP, proposes improving columns (and any side rows those
//! columns need). [`run_root_pricing`] drives the classic restricted-master
//! loop at the root of the branch-and-bound tree:
//!
//! 1. solve the restricted LP over the current column set;
//! 2. hand the row duals to the source; it returns columns with negative
//!    reduced cost `c_j - y^T a_j < -rc_tol` (internal minimize sense);
//! 3. append the columns (and side rows) to the live LP, splice the old
//!    optimal basis — new columns enter nonbasic at a feasibility-preserving
//!    bound, new row slacks enter basic — and reoptimize warm;
//! 4. repeat until the source returns no column, proving LP optimality over
//!    the *full* (implicit) column set.
//!
//! This is the column mirror of `run_root_cuts`: rows there, variables
//! here, the same append-and-warm-reoptimize discipline. Pricing runs
//! before cut separation so every Gomory cut is derived on the final column
//! set, and it forces an identity presolve so the row indices the source
//! sees are exactly the caller's encode-time indices.

use crate::checkpoint::{FrameBatch, FrameError};
use crate::config::Config;
use crate::presolve::Presolved;
use crate::problem::{Row, RowId, Var, VarId};
use crate::simplex::{solve_lp, LpData, LpResult, LpStatus, SparseCol, SparseRow, VStat};
use crate::solution::Stats;
use std::time::Instant;

/// Everything a [`ColumnSource`] gets to see when asked to price: the
/// restricted LP's optimal duals plus the dimensions needed to index them.
#[derive(Debug)]
pub struct PriceInput<'a> {
    /// Row duals of the restricted LP at its optimum, in row order
    /// (internal **minimize** sense: the reduced cost of a candidate column
    /// with user-sense objective coefficient `c` and entries `a` is
    /// `sign * c - y^T a`).
    pub y: &'a [f64],
    /// Reduced costs of the *existing* variables at the restricted optimum
    /// (internal minimize sense), indexed like the LP columns. A source
    /// pricing compound moves that force an existing nonbasic variable off
    /// its lower bound should charge at least that variable's (nonnegative)
    /// reduced cost — by LP convexity the objective rises by no less. May be
    /// shorter than `num_vars` (even empty) when the last solve went through
    /// a perturbed recovery rung; missing entries must be treated as zero,
    /// which is always optimistic and therefore sound.
    pub dj: &'a [f64],
    /// Number of structural variables currently in the LP. A side row
    /// returned this round addresses the round's `i`-th new column as
    /// `num_vars + i`.
    pub num_vars: usize,
    /// Number of rows currently in the LP (valid entry indices for new
    /// columns are `0..num_rows`).
    pub num_rows: usize,
    /// Optimal objective of the restricted LP (internal minimize sense).
    pub obj: f64,
    /// `+1.0` when the user problem minimizes, `-1.0` when it maximizes;
    /// multiply user-sense objective coefficients by this before comparing
    /// against `y`.
    pub sign: f64,
    /// Accept a column only when its reduced cost is below `-rc_tol`.
    pub rc_tol: f64,
    /// At most this many columns should be returned (most negative reduced
    /// cost first).
    pub max_cols: usize,
}

/// One column proposed by a [`ColumnSource`].
#[derive(Debug, Clone)]
pub struct NewColumn {
    /// Objective coefficient in the **user** sense (the driver applies the
    /// minimize-sign internally).
    pub obj: f64,
    /// Lower bound. For the warm-basis splice to stay primal-feasible the
    /// column must be harmless at this bound: every existing row must remain
    /// satisfied with the column resting here (pricing sources use 0).
    pub lb: f64,
    /// Upper bound.
    pub ub: f64,
    /// Whether the variable is integral (branched on like any other).
    pub integer: bool,
    /// Diagnostic name.
    pub name: Option<String>,
    /// `(existing row index, coefficient)` entries of the column.
    pub entries: Vec<(usize, f64)>,
}

/// A side row accompanying a batch of priced columns (e.g. a disjointness
/// row linking a new path variable to an existing one).
#[derive(Debug, Clone)]
pub struct NewRow {
    /// `(variable index, coefficient)` pairs; indices `< num_vars` address
    /// existing variables, `num_vars + i` addresses the batch's `i`-th new
    /// column. The row must be satisfied by the current LP optimum with
    /// every new column at its lower bound, or the warm splice loses primal
    /// feasibility.
    pub coefs: Vec<(usize, f64)>,
    /// Row lower bound.
    pub lb: f64,
    /// Row upper bound.
    pub ub: f64,
    /// Annotate the row as a GUB disjunction for the clique separator.
    pub gub: bool,
    /// Diagnostic name.
    pub name: Option<String>,
}

/// What a [`ColumnSource`] returns for one pricing round. An empty `cols`
/// terminates the loop (and certifies LP optimality over the full column
/// set, provided the source's reduced-cost test is exact or optimistic).
#[derive(Debug, Clone, Default)]
pub struct PricedBatch {
    /// New columns, most negative reduced cost first.
    pub cols: Vec<NewColumn>,
    /// Side rows over existing variables and this batch's columns.
    pub rows: Vec<NewRow>,
}

/// A supplier of priced columns, implemented by the modeling layer (the
/// archex path-pricing oracle) and handed to
/// [`crate::Solver::solve_with_columns`].
pub trait ColumnSource {
    /// Proposes improving columns for the current restricted optimum.
    /// Returning an empty batch ends the pricing loop.
    fn price(&mut self, input: &PriceInput<'_>) -> PricedBatch;

    /// Serializes whatever bookkeeping the source needs to survive a
    /// checkpoint/resume cycle (stored opaquely in the frame). Stateless
    /// sources keep the default empty payload.
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores bookkeeping captured by [`ColumnSource::snapshot_state`]
    /// before a resumed solve. The default ignores the payload.
    fn restore_state(&mut self, _bytes: &[u8]) {}
}

/// Splices a warm-status vector for an LP that grew by `k` columns and `r`
/// rows: `[old structural | k new columns nonbasic | old slacks | r new
/// slacks basic]`. New columns rest at their lower bound (finite) or free at
/// zero; new row slacks enter the basis, keeping it square.
fn splice_statuses(old: &[VStat], n0: usize, new_lb: &[f64], r: usize) -> Vec<VStat> {
    let mut v = Vec::with_capacity(old.len() + new_lb.len() + r);
    v.extend_from_slice(&old[..n0]);
    v.extend(new_lb.iter().map(|lb| {
        if lb.is_finite() {
            VStat::AtLower
        } else {
            VStat::Free
        }
    }));
    v.extend_from_slice(&old[n0..]);
    v.resize(v.len() + r, VStat::Basic);
    v
}

/// Checks one batch against an LP with `n0` columns and `m0` rows before
/// anything grows: every column entry must name an existing row, every
/// side-row coefficient an existing or same-batch column, every number must
/// be finite and every bound pair ordered. Returns what is wrong, if
/// anything.
fn check_batch(batch: &FrameBatch, n0: usize, m0: usize) -> Result<(), &'static str> {
    let n1 = n0 + batch.cols.len();
    let bad_range = |lo: f64, hi: f64| lo.is_nan() || hi.is_nan() || lo > hi;
    for col in &batch.cols {
        if !col.obj.is_finite() || bad_range(col.lb, col.ub) {
            return Err("priced column has a bad objective or bounds");
        }
        if col.entries.iter().any(|&(r, v)| r >= m0 || !v.is_finite()) {
            return Err("priced column entry names an unknown row or is not finite");
        }
    }
    for row in &batch.rows {
        if bad_range(row.lb, row.ub) {
            return Err("side row has bad bounds");
        }
        if row.coefs.iter().any(|&(j, v)| j >= n1 || !v.is_finite()) {
            return Err("side row names an unknown column or is not finite");
        }
    }
    Ok(())
}

/// Grows the root problem by one priced batch, in lockstep: the reduced
/// problem (variables, their entries in existing rows, then side rows that
/// may reference them) and its postsolve map, the computational LP (columns
/// first, so side-row coefficients over the new variables are in range,
/// then rows), the root bound vectors, and `int_vars`. The batch is checked
/// first; on an error nothing has been mutated.
fn append_batch(
    ps: &mut Presolved,
    lp: &mut LpData,
    root_lb: &mut Vec<f64>,
    root_ub: &mut Vec<f64>,
    int_vars: &mut Vec<usize>,
    batch: &FrameBatch,
    sign: f64,
) -> Result<(), &'static str> {
    check_batch(batch, lp.num_vars(), lp.num_rows())?;
    for col in &batch.cols {
        let mut builder = if !col.integer {
            Var::cont()
        } else if col.lb >= 0.0 && col.ub <= 1.0 {
            Var::binary()
        } else {
            Var::integer()
        }
        .bounds(col.lb, col.ub)
        .obj(col.obj);
        if let Some(name) = &col.name {
            builder = builder.name(name.clone());
        }
        let vid = ps.reduced.add_var(builder);
        for &(r, v) in &col.entries {
            ps.reduced.add_row_coef(RowId(r), vid, v);
        }
        root_lb.push(col.lb);
        root_ub.push(col.ub);
        if col.integer {
            int_vars.push(vid.index());
        }
    }
    for row in &batch.rows {
        let mut builder = Row::new()
            .range(row.lb, row.ub)
            .coefs(row.coefs.iter().map(|&(j, v)| (VarId(j), v)));
        if let Some(name) = &row.name {
            builder = builder.name(name.clone());
        }
        let rid = ps.reduced.add_row(builder);
        if row.gub {
            ps.reduced.mark_gub(rid);
        }
    }
    ps.register_appended_vars(batch.cols.len());
    let cols: Vec<SparseCol> = batch
        .cols
        .iter()
        .map(|c| (c.entries.clone(), sign * c.obj))
        .collect();
    lp.append_cols(&cols);
    let rows: Vec<SparseRow> = batch
        .rows
        .iter()
        .map(|r| (r.coefs.clone(), r.lb, r.ub))
        .collect();
    lp.append_rows(&rows);
    Ok(())
}

/// Runs the root pricing loop. On entry `root` holds the optimal result of
/// the restricted root LP; on exit it holds the optimal result over every
/// column the source priced in, and `ps`, `lp`, the bound vectors, and
/// `int_vars` have grown consistently. A malformed batch or a failed
/// reoptimization stops the loop (the latter after rolling its round back):
/// the restricted optimum before the round stays valid, pricing is only
/// ever an improvement pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_root_pricing(
    source: &mut dyn ColumnSource,
    ps: &mut Presolved,
    lp: &mut LpData,
    root_lb: &mut Vec<f64>,
    root_ub: &mut Vec<f64>,
    int_vars: &mut Vec<usize>,
    cfg: &Config,
    root: &mut LpResult,
    deadline: Option<Instant>,
    sign: f64,
    stats: &mut Stats,
    accepted: &mut Vec<FrameBatch>,
) {
    let t0 = Instant::now();
    let mut stalled = 0usize;
    for _round in 0..cfg.colgen.max_rounds {
        if deadline.is_some_and(|d| Instant::now() >= d) || cfg.is_cancelled() {
            break;
        }
        if root.y.len() != lp.num_rows() {
            break; // duals unavailable (perturbed recovery rung)
        }
        let input = PriceInput {
            y: &root.y,
            dj: &root.dj,
            num_vars: lp.num_vars(),
            num_rows: lp.num_rows(),
            obj: root.obj,
            sign,
            rc_tol: cfg.colgen.rc_tol,
            max_cols: cfg.colgen.max_cols_per_round,
        };
        stats.pricing_rounds += 1;
        let PricedBatch { mut cols, rows } = source.price(&input);
        // Mid-round cancellation point: a cancel that lands while the
        // oracle prices must abort here, before the splice + reoptimize.
        // The fault hook fires scheduled test cancellations at this spot.
        if let Some(f) = cfg.faults.as_ref() {
            f.mark_pricing_round();
        }
        if cfg.is_cancelled() {
            break;
        }
        if cols.is_empty() {
            break; // no improving column: optimal over the full set
        }
        cols.truncate(cfg.colgen.max_cols_per_round);
        let batch = FrameBatch { cols, rows };
        let (n0, m0) = (lp.num_vars(), lp.num_rows());

        // Snapshot for rollback; mirrors run_root_cuts' per-round backup.
        let lp_backup = lp.clone();
        let ps_backup = ps.clone();
        if append_batch(ps, lp, root_lb, root_ub, int_vars, &batch, sign).is_err() {
            break; // malformed batch: keep the restricted optimum
        }

        // Warm reoptimize from the spliced basis: new columns at their
        // resting bound keep every old row satisfied, new row slacks enter
        // basic, so the primal simplex restarts feasible in Phase 2.
        let spliced = splice_statuses(&root.statuses, n0, &root_lb[n0..], lp.num_rows() - m0);
        stats.lp_solves += 1;
        let prev_obj = root.obj;
        let reopt = solve_lp(lp, root_lb, root_ub, cfg, Some(&spliced), deadline);
        // Fault injection: treat this round's reoptimization as failed so
        // the splice rollback below runs under test control.
        let forced_failure = cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.take_pricing_reopt_failure());
        match reopt {
            Ok(mut r) if r.status == LpStatus::Optimal && !forced_failure => {
                stats.take_lp_work(&mut r);
                *root = r;
                stats.cols_priced += batch.cols.len();
                accepted.push(batch);
                let tol = cfg.colgen.rc_tol * (1.0 + prev_obj.abs());
                if prev_obj - root.obj <= tol {
                    stalled += 1;
                    if stalled >= cfg.colgen.stall_rounds {
                        break;
                    }
                } else {
                    stalled = 0;
                }
            }
            _ => {
                // Reoptimization failed (limit, numeric trouble, or an
                // impossible infeasible/unbounded flip): roll the round
                // back and stop pricing — the pre-round optimum stands.
                *lp = lp_backup;
                *ps = ps_backup;
                root_lb.truncate(n0);
                root_ub.truncate(n0);
                int_vars.retain(|&j| j < n0);
                break;
            }
        }
    }
    stats.pricing_time += t0.elapsed();
}

/// Replays accepted pricing rounds from a checkpoint frame in place of
/// [`run_root_pricing`]: grows the root problem through the same
/// [`append_batch`] step, batch by batch so side-row variable indices
/// resolve the same way, then reoptimizes `root` warm from the spliced
/// basis, as one round would. Fails with [`FrameError::Mismatch`] when a
/// batch is malformed (a frame written by different code) or the grown LP
/// does not reoptimize.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_batches(
    ps: &mut Presolved,
    lp: &mut LpData,
    root_lb: &mut Vec<f64>,
    root_ub: &mut Vec<f64>,
    int_vars: &mut Vec<usize>,
    batches: &[FrameBatch],
    cfg: &Config,
    root: &mut LpResult,
    deadline: Option<Instant>,
    sign: f64,
    stats: &mut Stats,
) -> Result<(), FrameError> {
    let (n_base, rows_base) = (lp.num_vars(), lp.num_rows());
    for batch in batches {
        append_batch(ps, lp, root_lb, root_ub, int_vars, batch, sign)
            .map_err(FrameError::Mismatch)?;
    }
    stats.cols_priced = lp.num_vars() - n_base;
    let spliced = splice_statuses(
        &root.statuses,
        n_base,
        &root_lb[n_base..],
        lp.num_rows() - rows_base,
    );
    stats.lp_solves += 1;
    match solve_lp(lp, root_lb, root_ub, cfg, Some(&spliced), deadline) {
        Ok(mut r) if r.status == LpStatus::Optimal => {
            stats.take_lp_work(&mut r);
            *root = r;
            Ok(())
        }
        _ => Err(FrameError::Mismatch("replayed pricing batches do not reoptimize")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::solve_milp_with;
    use crate::problem::{Problem, Sense};
    use crate::solution::Status;

    /// A scripted source: each call pops the next batch.
    struct Scripted {
        batches: Vec<PricedBatch>,
        seen_duals: Vec<Vec<f64>>,
    }

    impl ColumnSource for Scripted {
        fn price(&mut self, input: &PriceInput<'_>) -> PricedBatch {
            self.seen_duals.push(input.y.to_vec());
            if self.batches.is_empty() {
                PricedBatch::default()
            } else {
                self.batches.remove(0)
            }
        }
    }

    /// min 2x1 + 3x2 s.t. x1 + x2 >= 2: dual y0 = 2 at the optimum (4.0).
    fn cover_problem() -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let x1 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(2.0).name("x1"));
        let x2 = p.add_var(Var::cont().bounds(0.0, 10.0).obj(3.0).name("x2"));
        p.add_row(Row::new().coef(x1, 1.0).coef(x2, 1.0).ge(2.0));
        p
    }

    #[test]
    fn priced_column_improves_objective() {
        let p = cover_problem();
        // Column x3 with cost 1 covering the same row: rc = 1 - 2 = -1.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 10.0,
                    integer: false,
                    name: Some("x3".into()),
                    entries: vec![(0, 1.0)],
                }],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = crate::branch::cold(solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src), None));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 2.0).abs() < 1e-6, "obj {}", s.objective());
        assert_eq!(s.stats().cols_priced, 1);
        assert!(s.stats().pricing_rounds >= 2, "needs a terminal empty round");
        // The first duals the source saw price the covering row at 2.
        assert!((src.seen_duals[0][0] - 2.0).abs() < 1e-6);
        // Solution vector covers the appended variable.
        assert_eq!(s.values().len(), 3);
        assert!((s.values()[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn side_row_caps_priced_column() {
        let p = cover_problem();
        // Same improving column, but a side row caps it at 1: the optimum
        // splits 1 unit at cost 1 and 1 unit at cost 2.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 10.0,
                    integer: false,
                    name: None,
                    entries: vec![(0, 1.0)],
                }],
                rows: vec![NewRow {
                    coefs: vec![(2, 1.0)], // num_vars + 0 = 2
                    lb: f64::NEG_INFINITY,
                    ub: 1.0,
                    gub: false,
                    name: None,
                }],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = crate::branch::cold(solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src), None));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 3.0).abs() < 1e-6, "obj {}", s.objective());
    }

    #[test]
    fn disabled_colgen_skips_the_source() {
        let p = cover_problem();
        let mut src = Scripted {
            batches: vec![],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default().with_colgen(crate::ColGenConfig::off());
        let s = crate::branch::cold(solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src), None));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 4.0).abs() < 1e-6);
        assert!(src.seen_duals.is_empty(), "source must not be consulted");
        assert_eq!(s.stats().cols_priced, 0);
    }

    #[test]
    fn integer_priced_column_is_branched() {
        // min 2a + 3b, a + b >= 2, binaries: optimum a = b = 1, obj 5.
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_var(Var::binary().obj(2.0));
        let b = p.add_var(Var::binary().obj(3.0));
        p.add_row(Row::new().coef(a, 1.0).coef(b, 1.0).ge(2.0));
        // Price in a cheaper binary c (covers 2 units at once, cost 1):
        // optimum becomes c = 1, obj 1 — and c must come out integral.
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![NewColumn {
                    obj: 1.0,
                    lb: 0.0,
                    ub: 1.0,
                    integer: true,
                    name: Some("c".into()),
                    entries: vec![(0, 2.0)],
                }],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = crate::branch::cold(solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src), None));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 1.0).abs() < 1e-6, "obj {}", s.objective());
        let v = s.values();
        assert!((v[2] - 1.0).abs() < 1e-6, "priced binary must be 1: {v:?}");
    }

    /// A column with the given entries, cost 1, bounds `[0, 10]`.
    fn col(entries: Vec<(usize, f64)>) -> NewColumn {
        NewColumn {
            obj: 1.0,
            lb: 0.0,
            ub: 10.0,
            integer: false,
            name: None,
            entries,
        }
    }

    #[test]
    fn malformed_priced_column_stops_with_the_restricted_optimum() {
        // The column names row 7 of a one-row problem: the loop must stop
        // with the restricted optimum instead of growing anything.
        let p = cover_problem();
        let mut src = Scripted {
            batches: vec![PricedBatch {
                cols: vec![col(vec![(7, 1.0)])],
                rows: vec![],
            }],
            seen_duals: Vec::new(),
        };
        let cfg = Config::default();
        let s = crate::branch::cold(solve_milp_with(&p, &cfg, Instant::now(), Some(&mut src), None));
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 4.0).abs() < 1e-6, "obj {}", s.objective());
        assert_eq!(s.stats().cols_priced, 0);
        assert_eq!(s.values().len(), 2);
    }

    #[test]
    fn check_batch_rejects_every_malformed_shape() {
        let side = |coefs: Vec<(usize, f64)>, lb: f64| NewRow {
            coefs,
            lb,
            ub: 1.0,
            gub: false,
            name: None,
        };
        let batch = |col: NewColumn, rows: Vec<NewRow>| FrameBatch {
            cols: vec![col],
            rows,
        };
        // Two columns and one row: the batch's own column is index 2.
        let ok = batch(col(vec![(0, 1.0)]), vec![side(vec![(2, 1.0)], 0.0)]);
        assert!(check_batch(&ok, 2, 1).is_ok());
        let bad = [
            batch(col(vec![(1, 1.0)]), vec![]),
            batch(col(vec![(0, f64::NAN)]), vec![]),
            batch(NewColumn { obj: f64::INFINITY, ..col(vec![]) }, vec![]),
            batch(NewColumn { lb: 20.0, ..col(vec![]) }, vec![]),
            batch(col(vec![]), vec![side(vec![(3, 1.0)], 0.0)]),
            batch(col(vec![]), vec![side(vec![(0, f64::INFINITY)], 0.0)]),
            batch(col(vec![]), vec![side(vec![(0, 1.0)], f64::NAN)]),
        ];
        for (i, b) in bad.iter().enumerate() {
            assert!(check_batch(b, 2, 1).is_err(), "malformed batch {i}");
        }
    }

    #[test]
    fn replay_rejects_a_malformed_batch_before_growing() {
        let p = cover_problem();
        let cfg = Config::default();
        let mut ps = Presolved::identity(&p);
        let (row_lb, row_ub) = ps.reduced.row_ids().map(|r| ps.reduced.row_bounds(r)).unzip();
        let mut lp = LpData {
            a: ps.reduced.matrix(),
            c: ps.reduced.objective(),
            row_lb,
            row_ub,
        };
        let (mut lb, mut ub): (Vec<f64>, Vec<f64>) =
            ps.reduced.var_ids().map(|v| ps.reduced.var_bounds(v)).unzip();
        let mut int_vars = Vec::new();
        let mut root = solve_lp(&lp, &lb, &ub, &cfg, None, None).expect("root LP solves");
        let mut stats = Stats::default();
        // The second batch's column names a row that does not exist.
        let batches = [(0, 1.0), (4, 1.0)].map(|entry| FrameBatch {
            cols: vec![col(vec![entry])],
            rows: vec![],
        });
        let got = replay_batches(
            &mut ps,
            &mut lp,
            &mut lb,
            &mut ub,
            &mut int_vars,
            &batches,
            &cfg,
            &mut root,
            None,
            1.0,
            &mut stats,
        );
        assert!(matches!(got, Err(FrameError::Mismatch(_))), "{got:?}");
        // The well-formed first batch grew everything in lockstep; the
        // malformed second one grew nothing.
        assert_eq!(ps.reduced.num_vars(), 3);
        assert_eq!(lp.num_vars(), 3);
        assert_eq!((lb.len(), ub.len()), (3, 3));
        assert_eq!(ps.postsolve(&[0.0, 0.0, 1.0]).len(), 3);
    }

    #[test]
    fn splice_statuses_shapes() {
        let old = vec![VStat::Basic, VStat::AtLower, VStat::Basic]; // n0=2, m0=1
        let got = splice_statuses(&old, 2, &[0.0, f64::NEG_INFINITY], 1);
        assert_eq!(
            got,
            vec![
                VStat::Basic,
                VStat::AtLower,
                VStat::AtLower, // new col, finite lb
                VStat::Free,    // new col, free
                VStat::Basic,   // old slack
                VStat::Basic,   // new row slack
            ]
        );
    }
}
