//! Layer probes: the benchmark re-runs the solver's root phases on an
//! encoded problem through their public entry points — presolve, the root
//! LP relaxation and the root cut loop — and times each call. The solver
//! does the same work inside `Model::solve`; the probes make it visible
//! without touching solver code. They run outside the spans that are
//! compared with the untraced run.

use crate::stats::ms;
use crate::trace::Tracer;
use milp::cuts::{run_root_cuts, CutContext, CutPool};
use milp::presolve::presolve;
use milp::simplex::{solve_lp, LpData, LpStatus};
use milp::{Config, Problem, Sense, VarType};
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default)]
pub struct RootProbe {
    pub presolve_ms: f64,
    pub rows_removed: usize,
    pub root_ms: f64,
    pub root_pivots: usize,
    pub recoveries: usize,
    /// Objective of the root LP relaxation of the presolved problem, in the
    /// problem's own sense and units. Every integer solution of a
    /// minimization is at least this value.
    pub root_bound: f64,
    pub cuts_ms: f64,
}

pub fn root_probe(problem: &Problem, cfg: &Config, tracer: &Tracer, op: u64) -> Option<RootProbe> {
    let mut p = RootProbe::default();
    let minimize = problem.sense() == Sense::Minimize;
    let t = Instant::now();
    let ps = tracer.span("probe.presolve", op, || presolve(problem, minimize));
    p.presolve_ms = ms(t.elapsed());
    p.rows_removed = ps.rows_removed;
    if ps.conclusion.is_some() {
        return None;
    }
    let red = &ps.reduced;
    let sign = if minimize { 1.0 } else { -1.0 };
    let (row_lb, row_ub): (Vec<f64>, Vec<f64>) = red.row_ids().map(|r| red.row_bounds(r)).unzip();
    let mut lp = LpData {
        a: red.matrix(),
        c: red.objective().iter().map(|&v| sign * v).collect(),
        row_lb,
        row_ub,
    };
    let (lb, ub): (Vec<f64>, Vec<f64>) = red.var_ids().map(|v| red.var_bounds(v)).unzip();
    let t = Instant::now();
    let mut root = tracer
        .span("probe.solve_lp", op, || {
            solve_lp(&lp, &lb, &ub, cfg, None, None)
        })
        .ok()?;
    p.root_ms = ms(t.elapsed());
    if root.status != LpStatus::Optimal {
        return None;
    }
    p.root_pivots = root.iters;
    p.recoveries = root.recoveries;
    p.root_bound = sign * root.obj + red.obj_offset();
    let has_ints = red
        .var_ids()
        .any(|v| red.var_type(v) != VarType::Continuous);
    if cfg.cuts.enabled && has_ints {
        let ctx = CutContext::from_problem(red);
        let mut pool = CutPool::new();
        let t = Instant::now();
        tracer.span("probe.run_root_cuts", op, || {
            run_root_cuts(&mut lp, &lb, &ub, cfg, &ctx, &mut root, &mut pool, None)
        });
        p.cuts_ms = ms(t.elapsed());
    }
    Some(p)
}
