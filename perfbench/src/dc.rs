//! `dc-prove` and `dc-durable`: batches of the paper's data-collection
//! instances (Table 3 spec, K* = 10, 0.5% gap) solved to proven optimality
//! at one solver thread, then verified.
//!
//! Each instance runs the steps of `archex::explore` one by one —
//! `archex::encode`, `lpmodel::Model::solve`, `extract_design` — so each
//! step gets its own span, followed by `verify_design`. `dc-durable` stops
//! each solve at a node limit with checkpointing on, then resumes it from
//! the frame in a fresh encoding.

use crate::probe::root_probe;
use crate::setup::Setup;
use crate::stats::{mean, median, mix, ms, ratio, Fnv, Report};
use crate::trace::Tracer;
use archex::design::{extract_design, verify_design};
use archex::encode::{encode, EncodeMode};
use archex::template::NetworkTemplate;
use bench::DataCollection;
use channel::{LogDistance, MultiWall};
use lpmodel::ModelSolution;
use milp::{CheckpointConfig, Config, Status};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Yen candidates per route (Algorithm 1's K*), as in `table3`.
const KSTAR: usize = 10;
/// Relative gap at which a solve counts as proven, as in `table3`.
const REL_GAP: f64 = 0.005;
/// Per-instance budget of `dc-prove`: over twenty times the slowest pool
/// instance's proof time, so no instance finishes near it.
const BUDGET: Duration = Duration::from_secs(30);
/// Budget of each leg of a `dc-durable` instance, interrupted and resumed.
/// A resume of the batch's instances that works proves in about a second
/// (see [`draw`]); one that stalls runs until this budget, which is kept
/// short so that a batch with its stalls ends in about 20 s.
const DURABLE_BUDGET: Duration = Duration::from_secs(5);
/// Branch-and-bound node limit at which `dc-durable` interrupts a solve:
/// half the smallest proof in the pool (40 nodes), so every instance
/// reaches it and resumes.
const NODE_LIMIT: usize = 20;
/// Instances per `dc-prove` run at the reference length of 30 s: the p75
/// then has ten instances beyond it.
const PROVE_PER_30S: usize = 40;
/// Effort strata × cost strata of the draw; their product is
/// `PROVE_PER_30S`, so one pass over the strata fills a 30 s batch.
const EFFORT_STRATA: usize = 20;
const COST_STRATA: usize = 2;

/// The instance pool: `(nodes, sensors, branch-and-bound nodes, optimal
/// objective)` for every size of the 24–48 node × 6–14 sensor band that
/// proved optimal (0.5% gap, K* = 10, 1 solver thread) in 0.3–1.1 s on a
/// 2-core x86-64 host when the benchmark was set up. The node count only
/// orders the pool into strata of similar proof effort; the objective is each
/// instance's reference, which every design must match within the gap. `perfbench/README.md` lists the sizes left
/// out and why.
#[rustfmt::skip]
const POOL: &[(usize, usize, usize, f64)] = &[
    (24, 6, 67, 472.0), (25, 6, 67, 472.0), (25, 7, 129, 418.0), (26, 6, 67, 472.0),
    (26, 7, 129, 418.0), (26, 8, 40, 418.0), (27, 6, 67, 472.0), (27, 7, 129, 418.0),
    (27, 8, 40, 418.0), (28, 7, 129, 418.0), (28, 8, 40, 418.0), (29, 7, 160, 244.0),
    (29, 8, 40, 418.0), (30, 7, 160, 244.0), (30, 8, 104, 244.0), (31, 7, 160, 244.0),
    (31, 8, 104, 244.0), (31, 9, 46, 268.0), (32, 7, 160, 244.0), (32, 8, 104, 244.0),
    (32, 9, 46, 268.0), (33, 6, 123, 264.0), (33, 7, 160, 244.0), (33, 8, 104, 244.0),
    (33, 9, 46, 268.0), (34, 6, 123, 264.0), (34, 7, 129, 238.0), (34, 8, 104, 244.0),
    (34, 9, 46, 268.0), (35, 6, 123, 264.0), (35, 7, 129, 238.0), (35, 9, 46, 268.0),
    (35, 13, 42, 384.0), (36, 6, 123, 264.0), (36, 7, 129, 238.0), (36, 13, 42, 384.0),
    (37, 6, 123, 264.0), (37, 7, 129, 238.0), (37, 13, 42, 384.0), (38, 7, 129, 238.0),
    (38, 11, 50, 290.0), (38, 13, 42, 384.0), (39, 11, 50, 290.0), (39, 12, 132, 296.0),
    (39, 13, 42, 384.0), (40, 11, 50, 290.0), (40, 12, 132, 296.0), (41, 11, 50, 290.0),
    (41, 12, 132, 296.0), (42, 11, 50, 290.0), (42, 12, 132, 296.0), (43, 12, 132, 296.0),
];

pub struct Instance {
    pub nodes: usize,
    pub sensors: usize,
    /// Optimal objective from the pool table.
    pub reference: f64,
    pub w: DataCollection,
}

pub fn prove_count(seconds: u64) -> usize {
    (PROVE_PER_30S * seconds as usize)
        .div_ceil(30)
        .max(PROVE_PER_30S)
}

/// `dc-durable` solves the first quarter of the `dc-prove` draw.
pub fn durable_count(seconds: u64) -> usize {
    prove_count(seconds) / 4
}

/// The pool split into strata: [`EFFORT_STRATA`] groups of similar proof
/// effort, each split into [`COST_STRATA`] groups of similar cost per sensor.
/// Stratum `c * EFFORT_STRATA + t` holds effort group `t`, cost group `c`.
fn strata() -> Vec<Vec<usize>> {
    let mut by_effort: Vec<usize> = (0..POOL.len()).collect();
    by_effort.sort_by_key(|&i| (POOL[i].2, i));
    let mut out = vec![Vec::new(); EFFORT_STRATA * COST_STRATA];
    for t in 0..EFFORT_STRATA {
        let mut group = by_effort
            [t * POOL.len() / EFFORT_STRATA..(t + 1) * POOL.len() / EFFORT_STRATA]
            .to_vec();
        let per_sensor = |i: usize| POOL[i].3 / POOL[i].1 as f64;
        group.sort_by(|&a, &b| per_sensor(a).total_cmp(&per_sensor(b)).then(a.cmp(&b)));
        for c in 0..COST_STRATA {
            out[c * EFFORT_STRATA + t] =
                group[c * group.len() / COST_STRATA..(c + 1) * group.len() / COST_STRATA].to_vec();
        }
    }
    out
}

/// The seeded batch: pass after pass over the strata, one pool instance per
/// stratum chosen by the seed, without repeats until a stratum runs out. A
/// pass visits the strata in quarters by index modulo 4, in the order 2, 0,
/// 1, 3, each quarter in a seeded order, so seeds whose picks coincide still
/// differ in order. The first quarter (the `dc-durable` batch) holds effort
/// groups 2, 6, 10, 14 and 18 of both cost groups: seven instances whose
/// resume proves in about a second and three of the sizes whose resume
/// stalls. The other quarters hold the instances that resume in 2–4.6 s,
/// which would need a budget each stalled resume burns too (see `README.md`).
pub fn draw(seed: u64, count: usize) -> Vec<usize> {
    let rand = |k: u64| mix(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k));
    let strata = strata();
    let mut order = Vec::with_capacity(strata.len());
    for first in [2, 0, 1, 3] {
        let mut quarter: Vec<usize> = (first..strata.len()).step_by(4).collect();
        for i in (1..quarter.len()).rev() {
            quarter.swap(i, (rand(1 << 32 | i as u64) % (i as u64 + 1)) as usize);
        }
        order.extend(quarter);
    }
    let mut free: Vec<Vec<usize>> = strata.clone();
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let si = order[k % order.len()];
        if free[si].is_empty() {
            free[si] = strata[si].clone();
        }
        let pick = (rand(k as u64) % free[si].len() as u64) as usize;
        out.push(free[si].swap_remove(pick));
    }
    out
}

pub fn generate(draw: &[usize]) -> Vec<Instance> {
    draw.iter()
        .map(|&i| {
            let (nodes, sensors, _, reference) = POOL[i];
            Instance {
                nodes,
                sensors,
                reference,
                w: bench::data_collection_workload(nodes, sensors, "cost"),
            }
        })
        .collect()
}

pub fn fingerprint(t: &NetworkTemplate) -> u64 {
    let mut h = Fnv::default();
    for n in t.nodes() {
        h.eat(n.name.as_bytes());
        h.f64(n.position.x);
        h.f64(n.position.y);
        h.eat(format!("{:?}", n.role).as_bytes());
    }
    for &(i, j) in t.links() {
        h.u64(i as u64);
        h.u64(j as u64);
        h.f64(t.path_loss(i, j));
    }
    h.0
}

fn config() -> Config {
    let mut cfg = archex::ExploreOptions::approx(KSTAR).with_threads(1).solver;
    cfg.rel_gap = REL_GAP;
    cfg
}

/// Samples of every per-layer quantity, by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |v| v.as_slice())
    }

    fn sum(&self, name: &str) -> f64 {
        self.all(name).iter().sum()
    }

    fn put_median(&self, rep: &mut Report, name: &str, unit: &'static str) {
        rep.put(name, median(self.all(name)), unit);
    }

    fn put_mean(&self, rep: &mut Report, name: &str, unit: &'static str) {
        rep.put(name, mean(self.all(name)), unit);
    }
}

struct Solved {
    status: Status,
    objective: Option<f64>,
    verified: bool,
    stats: milp::Stats,
    solve_ms: f64,
}

/// One encode → solve → extract → verify pass, each step in its own span.
/// `solve` runs the model: plain, node-limited or resumed.
fn solve_once(
    inst: &Instance,
    budget: Duration,
    op: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    solve: impl FnOnce(&lpmodel::Model, &Config) -> ModelSolution,
) -> Solved {
    let w = &inst.w;
    let t = Instant::now();
    let enc = tracer
        .span("archex.encode", op, || {
            encode(
                &w.template,
                &w.library,
                &w.requirements,
                EncodeMode::Approx { kstar: KSTAR },
            )
        })
        .expect("pool instances encode");
    let encode_time = t.elapsed();
    let mut cfg = config();
    cfg.time_limit = Some(budget.saturating_sub(encode_time));
    let t = Instant::now();
    let sol = tracer.span("lpmodel.Model.solve", op, || solve(&enc.model, &cfg));
    let solve_ms = ms(t.elapsed());
    let t = Instant::now();
    let design = sol.has_solution().then(|| {
        tracer.span("design.extract_design", op, || {
            extract_design(&enc, &sol, &w.template, &w.library, &w.requirements)
        })
    });
    let extract_ms = ms(t.elapsed());
    let t = Instant::now();
    let violations = design.as_ref().map(|d| {
        tracer.span("design.verify_design", op, || {
            verify_design(d, &w.template, &w.library, &w.requirements)
        })
    });
    let verify_ms = ms(t.elapsed());

    if tracer.on() {
        let s = sol.stats();
        layers.push("encode.ms", ms(encode_time));
        layers.push("encode.rows", enc.model.num_cons() as f64);
        layers.push("encode.nnz", enc.model.num_nonzeros() as f64);
        layers.push("solve.ms", solve_ms);
        layers.push("simplex.pivots", s.simplex_iters as f64);
        layers.push("simplex.dual_pivots", s.dual_iters as f64);
        layers.push("simplex.lp_recoveries", s.lp_recoveries as f64);
        layers.push("cuts.applied", s.cuts_applied as f64);
        layers.push("cuts.rounds", s.cut_rounds as f64);
        layers.push("cuts.root_gap", s.root_gap);
        layers.push("branch.nodes", s.nodes as f64);
        layers.push("branch.rc_fixed", s.rc_fixed as f64);
        layers.push("branch.dropped_nodes", s.dropped_nodes as f64);
        layers.push("branch.worker_panics", s.worker_panics as f64);
        layers.push("heur.lns_iters", s.lns_iters as f64);
        layers.push("heur.lns_published", s.lns_published as f64);
        if let Some(d) = s.time_to_first_incumbent {
            layers.push("heur.first_incumbent_s", d.as_secs_f64());
        }
        if let Some(d) = s.time_to_within_1pct {
            layers.push("heur.within_1pct_s", d.as_secs_f64());
        }
        if design.is_some() {
            layers.push("design.extract_ms", extract_ms);
            layers.push("design.verify_ms", verify_ms);
        }
    }
    Solved {
        status: sol.status(),
        objective: design.as_ref().map(|d| d.objective),
        verified: violations.as_ref().is_some_and(|v| v.is_empty()),
        stats: sol.stats().clone(),
        solve_ms,
    }
}

/// The per-layer metrics both dc workloads share.
fn put_layers(layers: &Layers, rep: &mut Report) {
    for (m, u) in [
        ("encode.ms", "ms"),
        ("solve.ms", "ms"),
        ("presolve.ms", "ms"),
        ("simplex.root_ms", "ms"),
        ("cuts.ms", "ms"),
        ("design.extract_ms", "ms"),
        ("design.verify_ms", "ms"),
        ("channel.pathloss_ms", "ms"),
    ] {
        layers.put_median(rep, m, u);
    }
    for m in [
        "encode.rows",
        "encode.nnz",
        "presolve.rows_removed",
        "simplex.root_pivots",
        "simplex.pivots",
        "simplex.dual_pivots",
        "cuts.applied",
        "cuts.rounds",
        "branch.nodes",
        "branch.rc_fixed",
        "heur.lns_iters",
    ] {
        layers.put_mean(rep, m, "count");
    }
    for m in [
        "simplex.lp_recoveries",
        "branch.dropped_nodes",
        "branch.worker_panics",
    ] {
        rep.put(m, layers.sum(m), "count");
    }
    layers.put_mean(rep, "cuts.root_gap", "ratio");
    layers.put_median(rep, "heur.first_incumbent_s", "s");
    layers.put_median(rep, "heur.within_1pct_s", "s");
    let solve_us = layers.sum("solve.ms") * 1e3;
    rep.put(
        "simplex.us_per_pivot",
        ratio(solve_us, layers.sum("simplex.pivots")),
        "us",
    );
    rep.put(
        "simplex.root_us_per_pivot",
        ratio(
            layers.sum("simplex.root_ms") * 1e3,
            layers.sum("simplex.root_pivots"),
        ),
        "us",
    );
    rep.put(
        "branch.nodes_per_s",
        ratio(layers.sum("branch.nodes"), solve_us / 1e6),
        "1/s",
    );
    rep.put(
        "heur.publish_ratio",
        ratio(
            layers.sum("heur.lns_published"),
            layers.sum("heur.lns_iters"),
        ),
        "ratio",
    );
}

/// Times the channel layer alone: the multi-wall path-loss matrix of each
/// instance's floor plan, recomputed on a copy of its template.
fn pathloss_probe(inst: &Instance, op: u64, tracer: &Tracer, layers: &mut Layers) {
    let w = &inst.w;
    let mut t = w.template.clone();
    let base = LogDistance::at_frequency(
        w.requirements.params.freq_hz,
        w.requirements.params.pl_exponent,
    );
    let start = Instant::now();
    tracer.span("probe.compute_path_loss", op, || {
        let mw = MultiWall::new(base, &w.plan).cached();
        t.compute_path_loss(&mw);
    });
    layers.push("channel.pathloss_ms", ms(start.elapsed()));
}

/// Mean verified objective per sensor: design cost normalised by instance
/// size, so batches of different sizes compare.
fn cost_per_sensor(insts: &[Instance], objectives: &[Option<f64>]) -> f64 {
    let per: Vec<f64> = insts
        .iter()
        .zip(objectives)
        .filter_map(|(i, o)| o.map(|o| o / i.sensors as f64))
        .collect();
    mean(&per)
}

/// Whether `objective` is a proven optimum of `inst`: two solves proven to
/// the same relative gap lie within that gap of each other.
fn matches_reference(inst: &Instance, objective: f64) -> bool {
    (objective - inst.reference).abs() <= REL_GAP * objective.abs().max(inst.reference.abs()) + 1e-6
}

/// The correctness checks on what a solve returned: every design verifies,
/// and a solve that claims optimality reaches the pool optimum within the
/// gap. A solve that ends at its budget without a proof makes no such claim;
/// it counts as a failed operation, not as a wrong output.
fn check_design(inst: &Instance, s: &Solved, rep: &mut Report) {
    if s.objective.is_some() && !s.verified {
        rep.violation(format!(
            "[{}/{}] status {:?}: its design does not verify",
            inst.nodes, inst.sensors, s.status
        ));
    }
    if let Some(obj) = s
        .objective
        .filter(|&o| s.status == Status::Optimal && !matches_reference(inst, o))
    {
        rep.violation(format!(
            "[{}/{}] proven objective {obj} is not the optimum {}",
            inst.nodes, inst.sensors, inst.reference
        ));
    }
}

/// Solves every instance to a verified proven design and checks its
/// objective against the pool reference and, when traced, its root LP bound.
pub fn run_prove(insts: &[Instance], tracer: &Tracer, rep: &mut Report, setup: &mut Setup) {
    let mut layers = Layers::default();
    let mut walls = Vec::new();
    let mut objectives = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        setup.tick(i, insts.len());
        let op = i as u64;
        let t = Instant::now();
        let s = tracer.span("dc.instance", op, || {
            solve_once(inst, BUDGET, op, tracer, &mut layers, |m, c| m.solve(c))
        });
        walls.push(ms(t.elapsed()));
        rep.attempted += 1;
        let ok = s.status == Status::Optimal && s.verified;
        if !ok {
            rep.failed += 1;
            eprintln!(
                "perfbench: [{}/{}] status {:?}, verified {}",
                inst.nodes, inst.sensors, s.status, s.verified
            );
        }
        check_design(inst, &s, rep);
        if tracer.on() {
            let bound = root_phase_probe(inst, op, tracer, &mut layers);
            pathloss_probe(inst, op, tracer, &mut layers);
            if let (Some(obj), Some(b)) = (s.objective, bound) {
                if obj < b - 1e-6 * b.abs().max(1.0) {
                    rep.violation(format!(
                        "[{}/{}] objective {obj} below its root LP bound {b}",
                        inst.nodes, inst.sensors
                    ));
                }
            }
        }
        objectives.push(if ok { s.objective } else { None });
    }
    setup.tick(insts.len(), insts.len());
    rep.latencies(&walls, walls.iter().sum::<f64>() / 1e3);
    rep.put("cost", cost_per_sensor(insts, &objectives), "cost/sensor");
    if tracer.on() {
        put_layers(&layers, rep);
    }
}

/// Root-phase probe of one instance, outside its instance span: a fresh
/// encode, then presolve, root LP and root cuts. Returns the root LP bound.
fn root_phase_probe(inst: &Instance, op: u64, tracer: &Tracer, layers: &mut Layers) -> Option<f64> {
    let w = &inst.w;
    let enc = tracer
        .span("probe.encode", op, || {
            encode(
                &w.template,
                &w.library,
                &w.requirements,
                EncodeMode::Approx { kstar: KSTAR },
            )
        })
        .ok()?;
    let p = root_probe(enc.model.problem(), &config(), tracer, op)?;
    layers.push("presolve.ms", p.presolve_ms);
    layers.push("presolve.rows_removed", p.rows_removed as f64);
    layers.push("simplex.root_ms", p.root_ms);
    layers.push("simplex.root_pivots", p.root_pivots as f64);
    layers.push("simplex.lp_recoveries", p.recoveries as f64);
    layers.push("cuts.ms", p.cuts_ms);
    Some(p.root_bound)
}

/// Interrupts each instance at [`NODE_LIMIT`] nodes with checkpointing on,
/// resumes it from the frame in a fresh encoding, and checks the resumed
/// design's objective against the pool reference — the optimum the same
/// instance reaches uninterrupted in `dc-prove`.
pub fn run_durable(
    insts: &[Instance],
    dir: &Path,
    tracer: &Tracer,
    rep: &mut Report,
    setup: &mut Setup,
) {
    let mut layers = Layers::default();
    let mut walls = Vec::new();
    let mut objectives = Vec::new();
    let mut frame_bytes = Vec::new();
    let mut ckpt_ms = 0.0;
    let mut frames = 0usize;
    let mut solve_ms = 0.0;
    for (i, inst) in insts.iter().enumerate() {
        setup.tick(i, insts.len());
        let op = i as u64;
        let path = dir.join(format!("instance-{i}.frame"));
        let ckpt = CheckpointConfig::new(&path);
        let t = Instant::now();
        let (first, second) = tracer.span("durable.instance", op, || {
            let c = ckpt.clone();
            let first = solve_once(
                inst,
                DURABLE_BUDGET,
                op,
                tracer,
                &mut layers,
                move |m, cfg| {
                    let mut cfg = cfg.clone();
                    cfg.node_limit = Some(NODE_LIMIT);
                    cfg.checkpoint = Some(c);
                    m.solve(&cfg)
                },
            );
            if first.status == Status::Optimal {
                return (first, None);
            }
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            let c = ckpt.clone();
            let p = path.clone();
            let second = solve_once(
                inst,
                DURABLE_BUDGET,
                op,
                tracer,
                &mut layers,
                move |m, cfg| {
                    let mut cfg = cfg.clone();
                    cfg.checkpoint = Some(c);
                    m.solve_resumed(&cfg, &p).unwrap_or_else(|_| m.solve(&cfg))
                },
            );
            (first, Some((second, bytes)))
        });
        walls.push(ms(t.elapsed()));
        for suffix in ["", ".prev", ".tmp"] {
            let _ = std::fs::remove_file(format!("{}{suffix}", path.display()));
        }
        ckpt_ms += ms(first.stats.checkpoint_time);
        frames += first.stats.checkpoints_written;
        solve_ms += first.solve_ms;
        let done = match second {
            None => first,
            Some((s, bytes)) => {
                rep.attempted += 1;
                frame_bytes.push(bytes as f64);
                ckpt_ms += ms(s.stats.checkpoint_time);
                frames += s.stats.checkpoints_written;
                solve_ms += s.solve_ms;
                let twin = s.objective.is_some_and(|o| matches_reference(inst, o));
                if !s.stats.resumed || s.status != Status::Optimal || !s.verified || !twin {
                    rep.failed += 1;
                    eprintln!(
                        "perfbench: [{}/{}] resumed {}, status {:?}, verified {}, objective {:?} vs {}",
                        inst.nodes, inst.sensors, s.stats.resumed, s.status, s.verified, s.objective, inst.reference
                    );
                }
                if !s.stats.resumed {
                    rep.violation(format!(
                        "[{}/{}] resume fell back to a cold solve",
                        inst.nodes, inst.sensors
                    ));
                }
                s
            }
        };
        check_design(inst, &done, rep);
        objectives.push(done.objective);
    }
    setup.tick(insts.len(), insts.len());
    rep.latencies(&walls, walls.iter().sum::<f64>() / 1e3);
    rep.put("cost", cost_per_sensor(insts, &objectives), "cost/sensor");
    if rep.attempted == 0 {
        rep.violation("no instance reached the node limit, so nothing was resumed".into());
        rep.attempted = 1;
    }
    if tracer.on() {
        put_layers(&layers, rep);
        rep.put(
            "checkpoint.frames",
            ratio(frames as f64, insts.len() as f64),
            "count",
        );
        rep.put(
            "checkpoint.ms_per_frame",
            ratio(ckpt_ms, frames as f64),
            "ms",
        );
        rep.put("checkpoint.frame_bytes", median(&frame_bytes), "bytes");
        rep.put("checkpoint.share", ratio(ckpt_ms, solve_ms), "ratio");
        rep.put(
            "checkpoint.resumed_frac",
            ratio(frame_bytes.len() as f64, insts.len() as f64),
            "ratio",
        );
    }
}
