//! The design stack's benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dc-prove --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end metrics, with `--trace 1` the
//! per-layer ones. Each run also writes a record (host, threads, metrics,
//! checks) and, when traced, its spans under `perfbench/out/`.
//! `--describe` prints the workload reasons, thread plan and the
//! end-to-end metric each per-layer metric should move.

mod city;
mod dc;
mod json;
mod probe;
mod setup;
mod stats;
mod storm;
mod trace;

use setup::Setup;
use stats::{mean, ms, ratio, Report};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The benchmark's contract at the root of the repository. It is the one
/// list of workloads and of metric names and units; the tables below add
/// only what it has no key for, and are checked against it on every start.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// The workloads this program can run.
const WORKLOADS: [&str; 4] = ["dc-prove", "session-storm", "city-district", "dc-durable"];

/// Metrics kept only in the run record. `ops_per_min` is not gated: on
/// `city-district` it depends on how many of a run's cities finish early,
/// which moves it by up to a fifth between seeds.
const RECORD_ONLY: [&str; 1] = ["ops_per_min"];

/// For every per-layer metric of `BENCHMARK.json`: the end-to-end metrics
/// (`metric@workload`) it should move, and a note. Every workload reports
/// every per-layer metric, 0 where it does not exercise the layer.
const TARGETS: &[(&str, &str, &str)] = &[
    ("channel.pathloss_ms", "setup_s@dc-prove setup_s@dc-durable setup_s@session-storm", "measured on dc-prove; moves nothing else"),
    ("scale.generate_ms", "setup_s@city-district", "moves nothing else"),
    ("encode.ms", "p50_ms@session-storm p50_ms@city-district", "cold requests; no effect on p50_ms@dc-prove; inside solve_decomposed on city-district, so 0 there"),
    ("encode.rows", "p50_ms@session-storm p50_ms@city-district", "as encode.ms"),
    ("encode.nnz", "p50_ms@session-storm p50_ms@city-district", "as encode.ms"),
    ("presolve.ms", "p50_ms@session-storm", "probe on the encoded problem"),
    ("presolve.rows_removed", "p50_ms@session-storm", "probe on the encoded problem"),
    ("solve.ms", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@session-storm", "lpmodel Model::solve span"),
    ("simplex.root_ms", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solve_lp probe on the presolved root LP"),
    ("simplex.root_pivots", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solve_lp probe on the presolved root LP"),
    ("simplex.root_us_per_pivot", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solve_lp probe on the presolved root LP"),
    ("simplex.pivots", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solver Stats; not exposed by sessions or zones"),
    ("simplex.dual_pivots", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solver Stats"),
    ("simplex.us_per_pivot", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solve busy time over pivots"),
    ("simplex.lp_recoveries", "p50_ms@dc-prove p50_ms@dc-durable p50_ms@city-district tail_ms@session-storm", "solver Stats plus the root probe"),
    ("cuts.ms", "p50_ms@dc-prove", "run_root_cuts probe; through node count and us per pivot"),
    ("cuts.applied", "p50_ms@dc-prove", "solver Stats"),
    ("cuts.rounds", "p50_ms@dc-prove", "solver Stats"),
    ("cuts.root_gap", "p50_ms@dc-prove", "solver Stats"),
    ("branch.nodes", "p50_ms@dc-prove", "solver Stats"),
    ("branch.nodes_per_s", "p50_ms@dc-prove", "solver Stats"),
    ("branch.rc_fixed", "p50_ms@dc-prove", "solver Stats"),
    ("branch.dropped_nodes", "p50_ms@dc-prove p50_ms@dc-durable", "solver Stats"),
    ("branch.worker_panics", "p50_ms@dc-prove", "solver Stats"),
    ("heur.lns_iters", "p50_ms@dc-prove tail_ms@session-storm", "solver Stats"),
    ("heur.publish_ratio", "p50_ms@dc-prove tail_ms@session-storm", "LNS publications over iterations"),
    ("heur.first_incumbent_s", "p50_ms@dc-prove tail_ms@session-storm", "solver Stats"),
    ("heur.within_1pct_s", "p50_ms@dc-prove tail_ms@session-storm", "solver Stats"),
    ("checkpoint.frames", "p50_ms@dc-durable", "frames written per instance; no effect on dc-prove"),
    ("checkpoint.ms_per_frame", "p50_ms@dc-durable", "no effect on dc-prove"),
    ("checkpoint.frame_bytes", "p50_ms@dc-durable", "size of the frame each resume reads"),
    ("checkpoint.share", "p50_ms@dc-durable", "checkpoint time over solve time"),
    ("checkpoint.resumed_frac", "p50_ms@dc-durable", "instances that reached the node limit and resumed"),
    ("design.extract_ms", "p50_ms@city-district", "small effect on p50_ms@dc-prove; inside solve_decomposed on city-district"),
    ("design.verify_ms", "p50_ms@city-district", "verify over the full city; small effect on p50_ms@dc-prove"),
    ("session.apply_us.price", "p50_ms@session-storm", "replay through DesignSession"),
    ("session.apply_us.stock", "p50_ms@session-storm", "replay through DesignSession"),
    ("session.apply_us.wall", "p50_ms@session-storm", "replay through DesignSession"),
    ("session.apply_us.route", "p50_ms@session-storm", "replay through DesignSession"),
    ("session.encode_ms", "p50_ms@session-storm tail_ms@session-storm", "replay: cold re-encodes"),
    ("session.solve_ms.warm", "p50_ms@session-storm tail_ms@session-storm", "replay"),
    ("session.solve_ms.cold", "p50_ms@session-storm tail_ms@session-storm", "replay"),
    ("session.warm_seeded_ratio", "p50_ms@session-storm tail_ms@session-storm", "replay"),
    ("session.cold_frac", "p50_ms@session-storm tail_ms@session-storm", "replay"),
    ("session.p50_ms.price", "p50_ms@session-storm tail_ms@session-storm", "service latency by delta kind"),
    ("session.p50_ms.stock", "p50_ms@session-storm tail_ms@session-storm", "service latency by delta kind"),
    ("session.p50_ms.wall", "p50_ms@session-storm tail_ms@session-storm", "service latency by delta kind"),
    ("session.p50_ms.route", "p50_ms@session-storm tail_ms@session-storm", "service latency by delta kind"),
    ("service.wait_ms_p50", "tail_ms@session-storm", "ServedInfo.wait"),
    ("service.queue_depth_max", "tail_ms@session-storm", "ServiceMetrics"),
    ("scale.partition_ms", "p50_ms@city-district", "partition_city probe"),
    ("scale.zones", "p50_ms@city-district", "partition_city probe"),
    ("scale.boundary_links", "p50_ms@city-district", "partition_city probe"),
    ("scale.price_iters", "p50_ms@city-district", "ScaleReport"),
    ("scale.parallel_eff", "p50_ms@city-district", "1-thread re-run of the first city"),
    ("mem.peak_rss_mb", "none", "process high-water mark"),
    ("trace.spans", "none", "tracing itself"),
    ("trace.uncovered_frac", "none", "workload time outside any layer span"),
    ("trace.overhead_frac", "none", "estimate: spans recorded times the cost of an empty span, over workload time"),
];

/// Set-up slices per run and set-ups per slice (see [`setup`]): about a
/// second of set-ups in all, in slices short enough to spread over the run.
/// `session-storm` drains its request window for each slice, so it takes
/// fewer slices than it has requests.
fn setup_plan(workload: &str) -> (usize, usize) {
    match workload {
        "dc-prove" => (20, 3),
        "dc-durable" => (11, 6),
        "session-storm" => (16, 200),
        _ => (8, 1),
    }
}

#[derive(Debug)]
struct Metric {
    name: String,
    unit: String,
    better: String,
}

/// What `BENCHMARK.json` defines: workloads with their reasons, the
/// end-to-end and per-layer metrics, and the reference run length.
#[derive(Debug)]
struct Spec {
    workloads: Vec<(String, String)>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    run_seconds: u64,
}

/// Reads [`SPEC_JSON`] and checks that it and this program's tables name
/// the same workloads and per-layer metrics.
fn load_spec() -> Result<Spec, String> {
    let v = json::parse(SPEC_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &json::Value, k: &str| {
        m.get(k)
            .and_then(json::Value::str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: an entry has no \"{k}\""))
    };
    let list = |key: &str| v.get(key).map_or(&[][..], json::Value::arr);
    let metrics = |key: &str| {
        list(key)
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let spec = Spec {
        workloads: list("workloads")
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds: v
            .get("run_seconds")
            .and_then(json::Value::num)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64,
    };
    for (w, _) in &spec.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "BENCHMARK.json names workload {w}, which this program does not run"
            ));
        }
    }
    for w in WORKLOADS {
        if !spec.workloads.iter().any(|s| s.0 == w) {
            return Err(format!("workload {w} is missing from BENCHMARK.json"));
        }
    }
    for m in &spec.per_layer {
        if !TARGETS.iter().any(|t| t.0 == m.name) {
            return Err(format!("per-layer metric {} has no target here", m.name));
        }
    }
    for t in TARGETS {
        if !spec.per_layer.iter().any(|m| m.name == t.0) {
            return Err(format!(
                "per-layer metric {} is missing from BENCHMARK.json",
                t.0
            ));
        }
    }
    Ok(spec)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(spec: &Spec) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = spec.run_seconds;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = val()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?
                    .max(1)
            }
            "--trace" => trace = val()? == "1",
            "--describe" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

/// Threads each workload starts: `(busy, idle)` beside the benchmark's own
/// main thread, which only waits while they run.
fn threads(workload: &str, nproc: usize) -> (usize, usize, String) {
    match workload {
        "dc-prove" => (2, 0, "1 solver thread (the caller) + 1 LNS helper".into()),
        "dc-durable" => (
            2,
            1,
            "1 solver thread (the caller) + 1 LNS helper + 1 checkpoint watchdog (5 ms tick)"
                .into(),
        ),
        "session-storm" => (
            2,
            0,
            "1 service worker (solves at 1 thread) + its LNS helper; the client thread waits"
                .into(),
        ),
        _ => (
            2 * nproc,
            0,
            format!("{nproc} zone workers + {nproc} LNS helpers (one per zone solve)"),
        ),
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args, rep: &mut Report, tracer: &Tracer, nproc: usize) -> f64 {
    let (seed, seconds) = (args.seed, args.seconds);
    let plan = setup_plan(&args.workload);
    match args.workload.as_str() {
        "dc-prove" | "dc-durable" => {
            let count = if args.workload == "dc-prove" {
                dc::prove_count(seconds)
            } else {
                dc::durable_count(seconds)
            };
            let (insts, mut setup) = Setup::start(seed, plan, tracer, |s| {
                let insts = dc::generate(&dc::draw(s, count));
                let mut h = stats::Fnv::default();
                for i in &insts {
                    h.u64(dc::fingerprint(&i.w.template));
                }
                (insts, h.0)
            });
            tracer.span("workload", 0, || {
                if args.workload == "dc-prove" {
                    dc::run_prove(&insts, tracer, rep, &mut setup);
                } else {
                    let dir = out_dir().join(format!("frames-{}", std::process::id()));
                    if let Err(e) = std::fs::create_dir_all(&dir) {
                        rep.violation(format!("cannot create {}: {e}", dir.display()));
                        return;
                    }
                    dc::run_durable(&insts, &dir, tracer, rep, &mut setup);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            });
            setup.finish(rep)
        }
        "session-storm" => {
            let (st, mut setup) = Setup::start(seed, plan, tracer, |s| {
                let st = storm::setup(s, seconds);
                let d = st.digest();
                (st, d)
            });
            tracer.span("workload", 0, || storm::run(&st, tracer, rep, &mut setup));
            setup.finish(rep)
        }
        "city-district" => {
            let mut gen_ms = Vec::new();
            let (cities, mut setup) = Setup::start(seed, plan, tracer, |s| {
                let t = Instant::now();
                let cities = city::generate(s, seconds);
                gen_ms.push(ms(t.elapsed()) / cities.len() as f64);
                let mut h = stats::Fnv::default();
                for c in &cities {
                    h.u64(c.fingerprint());
                }
                (cities, h.0)
            });
            tracer.span("workload", 0, || {
                city::run(&cities, nproc, tracer, rep, &mut setup)
            });
            let setup_s = setup.finish(rep);
            if tracer.on() {
                rep.put("scale.generate_ms", mean(&gen_ms), "ms");
            }
            setup_s
        }
        other => unreachable!("workload {other} passed the argument check"),
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let spec = load_spec().unwrap_or_else(|e| die(&e));
    let args = match parse_args(&spec) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", describe(&spec));
            return;
        }
        Err(e) => die(&format!(
            "{e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --describe",
            WORKLOADS.join("|")
        )),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    let t0 = Instant::now();
    let setup_s = run(&args, &mut rep, &tracer, nproc);
    let wall_s = t0.elapsed().as_secs_f64();

    if args.trace {
        let spans = tracer.spans();
        let totals = trace::totals(&spans);
        let root = totals.get("workload").copied().unwrap_or_default();
        let cost_us = trace::span_cost_us();
        rep.put("trace.spans", spans.len() as f64, "count");
        rep.put(
            "trace.uncovered_frac",
            ratio(root.self_ms, root.total_ms),
            "ratio",
        );
        rep.put(
            "trace.overhead_frac",
            ratio(spans.len() as f64 * cost_us / 1e3, root.total_ms),
            "ratio",
        );
        for (name, t) in &totals {
            eprintln!(
                "perfbench: span {name:32} n={:6} total_ms={:10.1} self_ms={:10.1}",
                t.count, t.total_ms, t.self_ms
            );
        }
        let _ = std::fs::create_dir_all(out_dir());
        let path = out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::to_json(&spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    } else {
        rep.put("setup_s", setup_s, "s");
    }
    rep.put("mem.peak_rss_mb", stats::peak_rss_mb(), "MB");

    // Exactly the metrics of this mode, in the order of BENCHMARK.json; a
    // layer the workload does not exercise reads 0. A metric measured under
    // another name or unit is a fault of the benchmark, not of the program.
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for (name, _, unit) in &rep.metrics {
        let listed = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .find(|m| &m.name == name);
        match listed {
            Some(m) if m.unit != *unit => die(&format!(
                "metric {name} is measured in {unit} but BENCHMARK.json says {}",
                m.unit
            )),
            None if !RECORD_ONLY.contains(&name.as_str()) => {
                die(&format!("metric {name} is not in BENCHMARK.json"))
            }
            _ => {}
        }
    }
    let mut metrics = String::new();
    for (i, Metric { name, unit, .. }) in wanted.iter().enumerate() {
        let v = rep.get(name).unwrap_or(0.0);
        println!("{:28} {:>14.4} {unit}", name, v);
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" },
            json_num(v)
        );
    }
    // The record keeps every metric the run measured, so a traced run's
    // end-to-end figures sit beside the untraced run's.
    let all_metrics = rep
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let correct = rep.violations.is_empty();
    let (busy, idle, plan) = threads(&args.workload, nproc);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"wall_s\": {}, \
         \"host\": {{\"nproc\": {nproc}}}, \
         \"threads\": {{\"busy\": {busy}, \"idle\": {idle}, \"plan\": \"{plan}\", \"oversubscribed\": {}}}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"violations\": {}, \"metrics\": {{{all_metrics}}}, \"ops_ms\": [{}]}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        json_num(wall_s),
        busy > nproc,
        rep.attempted,
        rep.failed,
        rep.violations.len(),
        rep.ops_ms.iter().map(|v| format!("{v:.3}")).collect::<Vec<_>>().join(", "),
    );
    let _ = std::fs::create_dir_all(out_dir());
    let path = out_dir().join(format!(
        "run-{}-{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, &record) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: {} seed {} wall {:.1} s, nproc {nproc}, threads busy {busy} idle {idle}{}",
        args.workload,
        args.seed,
        wall_s,
        if busy > nproc {
            " (oversubscribed)"
        } else {
            ""
        }
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.attempted.max(1),
        rep.failed
    );
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// The benchmark's reasons and thread plan as JSON, for citation by name:
/// each workload's reason from `BENCHMARK.json` with the threads it starts
/// on this host, and each per-layer metric with the end-to-end metrics it
/// should move.
fn describe(spec: &Spec) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n  \"workloads\": [\n");
    for (i, (name, why)) in spec.workloads.iter().enumerate() {
        let (busy, idle, plan) = threads(name, nproc);
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\", \"threads\": {{\"busy\": {busy}, \"idle\": {idle}, \"plan\": \"{plan}\", \"nproc\": {nproc}, \"oversubscribed\": {}}}}}{}",
            busy > nproc,
            if i + 1 < spec.workloads.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer_targets\": [\n");
    for (i, m) in spec.per_layer.iter().enumerate() {
        let (_, moves, note) = TARGETS
            .iter()
            .find(|t| t.0 == m.name)
            .expect("load_spec checked every target");
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"moves\": \"{moves}\", \"note\": \"{note}\"}}{}",
            m.name,
            m.unit,
            m.better,
            if i + 1 < spec.per_layer.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}");
    s
}
