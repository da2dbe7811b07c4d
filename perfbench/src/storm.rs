//! `session-storm`: a closed loop of design-session requests against
//! `DesignService`, plus (traced run) a replay of the same delta trace
//! through `DesignSession` directly.
//!
//! The spec, template and delta mix mirror the `storm` bench binary: an
//! 18-node office floor with five sensors, a link-disjoint route pair at
//! 15 dB, and deltas drawn 60% price, 20% stock, 10% wall edit, 10% route
//! add/remove. The trace is keyed on `(seed, client, round)` so it does not
//! depend on submission interleaving.

use crate::probe::root_probe;
use crate::setup::Setup;
use crate::stats::{mean, median, mix, ms, ratio, Fnv, Report};
use crate::trace::Tracer;
use archex::design::verify_design;
use archex::encode::encode;
use archex::requirements::RouteFamily;
use archex::service::{DesignService, Outcome, Request, ServiceConfig, ServiceFaults, Ticket};
use archex::session::{DesignSession, SessionSnapshot, SpecDelta};
use archex::template::NodeRole;
use archex::{ExploreOptions, Requirements, Selector};
use devlib::DeviceKind;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Clients of the storm; each owns one session.
const CLIENTS: u64 = 75;
/// Requests in flight at once (closed loop).
const INFLIGHT: usize = 2;
/// Rounds per client at the reference length of 30 s: 300 requests, so
/// the p95 has 15 samples beyond it.
const ROUNDS_PER_30S: u64 = 4;

pub const KINDS: [&str; 4] = ["price", "stock", "wall", "route"];

pub struct Storm {
    pub snap: SessionSnapshot,
    components: Vec<(String, f64)>,
    relays: Vec<String>,
    nodes: Vec<String>,
    sensors: f64,
    /// Requests in submission order: `(client, kind index, deltas)`.
    pub trace: Vec<(u64, usize, Vec<SpecDelta>)>,
}

pub fn rounds(seconds: u64) -> u64 {
    (ROUNDS_PER_30S * seconds).div_ceil(30).max(ROUNDS_PER_30S)
}

/// Builds the seed session and the delta trace for `seed`.
pub fn setup(seed: u64, seconds: u64) -> Storm {
    let w = bench::data_collection_workload(18, 5, "cost");
    let req = Requirements::from_spec_text(
        "set noise_dbm = -100\n\
         routes  = has_path(sensors, sink)\n\
         routes2 = has_path(sensors, sink)\n\
         disjoint_links(routes, routes2)\n\
         min_signal_to_noise(15)\n\
         objective minimize cost\n",
    )
    .expect("storm spec parses");
    let mut template = w.template.clone();
    template.prune_links(&w.library, req.params.noise_dbm, req.effective_min_snr_db());
    let opts = ExploreOptions::approx(8).with_threads(1);
    let mut storm = Storm {
        snap: SessionSnapshot::new(template.clone(), w.library.clone(), req, opts),
        components: w
            .library
            .components()
            .iter()
            .map(|c| (c.name.clone(), c.cost))
            .collect(),
        relays: w
            .library
            .of_kind(DeviceKind::Relay)
            .map(|(_, c)| c.name.clone())
            .collect(),
        nodes: template.nodes().iter().map(|n| n.name.clone()).collect(),
        sensors: template.nodes_of(NodeRole::Sensor).len() as f64,
        trace: Vec::new(),
    };
    let mut routes: Vec<Vec<String>> = vec![Vec::new(); CLIENTS as usize];
    for round in 0..rounds(seconds) {
        for client in 0..CLIENTS {
            let (kind, deltas) =
                storm.deltas_for(seed, client, round, &mut routes[client as usize]);
            storm.trace.push((client, kind, deltas));
        }
    }
    storm
}

impl Storm {
    fn deltas_for(
        &self,
        seed: u64,
        client: u64,
        round: u64,
        routes: &mut Vec<String>,
    ) -> (usize, Vec<SpecDelta>) {
        let mut n = 0u64;
        let key = seed
            .wrapping_mul(0x1_0000_01b3)
            .wrapping_add(client.wrapping_mul(10_007))
            .wrapping_add(round.wrapping_mul(101));
        let mut next = || {
            n += 1;
            mix(key.wrapping_add(n))
        };
        let roll = next() % 100;
        if roll < 60 {
            let (name, base) = &self.components[(next() % self.components.len() as u64) as usize];
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            (
                0,
                vec![SpecDelta::DevicePrice {
                    component: name.clone(),
                    cost: (base * (0.5 + unit)).max(0.0),
                }],
            )
        } else if roll < 80 {
            let name = &self.relays[(next() % self.relays.len() as u64) as usize];
            (
                1,
                vec![SpecDelta::DeviceStock {
                    component: name.clone(),
                    in_stock: next() % 2 == 0,
                }],
            )
        } else if roll < 90 {
            let len = self.nodes.len() as u64;
            let i = (next() % len) as usize;
            let mut j = (next() % len) as usize;
            if i == j {
                j = (j + 1) % self.nodes.len();
            }
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            (
                2,
                vec![SpecDelta::WallEdit {
                    a: self.nodes[i].clone(),
                    b: self.nodes[j].clone(),
                    delta_db: unit * 18.0 - 6.0,
                }],
            )
        } else if roll < 95 || routes.is_empty() {
            let name = format!("storm-{client}-{round}");
            routes.push(name.clone());
            let family = RouteFamily {
                name,
                from: Selector::Sensors,
                to: Selector::Sink,
                max_hops: None,
            };
            (3, vec![SpecDelta::RouteAdd { family }])
        } else {
            let k = (next() % routes.len() as u64) as usize;
            (
                3,
                vec![SpecDelta::RouteRemove {
                    name: routes.remove(k),
                }],
            )
        }
    }

    /// Digest of the delta trace (determinism self-test).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (client, kind, deltas) in &self.trace {
            h.u64(*client);
            h.u64(*kind as u64);
            h.eat(format!("{deltas:?}").as_bytes());
        }
        h.0
    }
}

pub fn run(storm: &Storm, tracer: &Tracer, rep: &mut Report, setup: &mut Setup) {
    let svc = DesignService::start(
        ServiceConfig {
            workers: 1,
            queue_capacity: 4096,
            default_deadline: Duration::from_secs(15),
            degraded_budget: Duration::from_millis(200),
            force_cold: false,
        },
        storm.snap.clone(),
        ServiceFaults::new(),
    );

    // Closed loop: before each submit beyond the window, wait for the oldest
    // outstanding request. When a set-up slice is due, the window drains
    // first, so the slice runs while the service is idle; the time it takes
    // is left out of the throughput.
    let n = storm.trace.len();
    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(n);
    let mut pending: VecDeque<(usize, Ticket)> = VecDeque::new();
    let wait = |(i, t): (usize, Ticket)| (i, tracer.span("service.wait", i as u64, || t.wait()));
    let mut paused = Duration::ZERO;
    let t0 = Instant::now();
    tracer.span("storm", 0, || {
        for (i, (client, _, deltas)) in storm.trace.iter().enumerate() {
            if setup.due(i, n) {
                outcomes.extend(pending.drain(..).map(wait));
                let t = Instant::now();
                setup.tick(i, n);
                paused += t.elapsed();
            }
            if pending.len() >= INFLIGHT {
                outcomes.push(wait(pending.pop_front().expect("window is full")));
            }
            let req = Request {
                session: *client,
                deltas: deltas.clone(),
                deadline: None,
            };
            pending.push_back((
                i,
                tracer.span("service.submit", i as u64, || svc.submit(req)),
            ));
        }
        outcomes.extend(pending.drain(..).map(wait));
    });
    let wall = t0.elapsed() - paused;
    setup.tick(n, n);
    let depth_max = svc
        .metrics()
        .queue_depth_max
        .load(std::sync::atomic::Ordering::Relaxed);
    svc.shutdown();

    let mut lat = Vec::new();
    let mut by_kind: [Vec<f64>; 4] = Default::default();
    let mut waits = Vec::new();
    let mut costs = Vec::new();
    rep.attempted = outcomes.len() as u64;
    for (j, out) in &outcomes {
        match out {
            Outcome::Served(i) => {
                let l = ms(i.total);
                lat.push(l);
                by_kind[storm.trace[*j].1].push(l);
                waits.push(ms(i.wait));
                costs.extend(i.objective);
            }
            other => {
                rep.failed += 1;
                eprintln!("perfbench: request {j} ended {}", other.kind());
            }
        }
    }
    rep.latencies(&lat, wall.as_secs_f64());
    rep.put("cost", mean(&costs) / storm.sensors, "cost/sensor");
    if !tracer.on() {
        return;
    }
    for (k, name) in KINDS.iter().enumerate() {
        rep.put(&format!("session.p50_ms.{name}"), median(&by_kind[k]), "ms");
    }
    rep.put("service.wait_ms_p50", median(&waits), "ms");
    rep.put("service.queue_depth_max", depth_max as f64, "count");
    replay(storm, tracer, rep);
}

/// Replays the delta trace through `DesignSession` directly, one session
/// per client, timing `apply` by delta kind and `solve` split warm/cold.
/// Every design is re-verified against its session's current spec.
fn replay(storm: &Storm, tracer: &Tracer, rep: &mut Report) {
    let mut sessions: Vec<Option<DesignSession>> = (0..CLIENTS).map(|_| None).collect();
    let mut apply_us: [Vec<f64>; 4] = Default::default();
    let (mut warm_ms, mut cold_ms, mut enc_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warm_used, mut warm_seeded) = (0usize, 0usize);
    tracer.span("probe.session_replay", 0, || {
        for (i, (client, kind, deltas)) in storm.trace.iter().enumerate() {
            let op = i as u64;
            let s = sessions[*client as usize]
                .get_or_insert_with(|| DesignSession::restore(storm.snap.clone()));
            for d in deltas {
                let t = Instant::now();
                let ok = tracer.span("session.apply", op, || s.apply(d));
                apply_us[*kind].push(t.elapsed().as_secs_f64() * 1e6);
                if let Err(e) = ok {
                    rep.violation(format!("replay request {i}: delta rejected: {e}"));
                }
            }
            let out = match tracer.span("session.solve", op, || s.solve()) {
                Ok(o) => o,
                Err(e) => {
                    rep.violation(format!("replay request {i}: encode failed: {e}"));
                    continue;
                }
            };
            let solve = ms(out.solve_time);
            if out.reencoded {
                enc_ms.push(ms(out.encode_time));
                cold_ms.push(solve);
            } else {
                warm_ms.push(solve);
            }
            warm_used += out.warm_used as usize;
            warm_seeded += out.warm_seeded as usize;
            match &out.design {
                Some(d) => {
                    let v = tracer.span("design.verify_design", op, || {
                        verify_design(d, s.template(), s.library(), s.requirements())
                    });
                    if !v.is_empty() {
                        rep.violation(format!("replay request {i}: design violates spec: {v:?}"));
                    }
                }
                None => rep.violation(format!("replay request {i}: no design ({:?})", out.status)),
            }
        }
    });
    for (k, name) in KINDS.iter().enumerate() {
        rep.put(
            &format!("session.apply_us.{name}"),
            median(&apply_us[k]),
            "us",
        );
    }
    rep.put("session.encode_ms", median(&enc_ms), "ms");
    rep.put("session.solve_ms.warm", median(&warm_ms), "ms");
    rep.put("session.solve_ms.cold", median(&cold_ms), "ms");
    rep.put(
        "session.warm_seeded_ratio",
        ratio(warm_seeded as f64, warm_used as f64),
        "ratio",
    );
    let all: Vec<f64> = warm_ms.iter().chain(&cold_ms).copied().collect();
    rep.put("solve.ms", median(&all), "ms");
    root_probes(storm, tracer, rep);
    rep.put(
        "session.cold_frac",
        ratio(cold_ms.len() as f64, storm.trace.len() as f64),
        "ratio",
    );
}

/// Encode and root-phase probes of the seed spec, the model every cold
/// request starts from.
fn root_probes(storm: &Storm, tracer: &Tracer, rep: &mut Report) {
    let s = DesignSession::restore(storm.snap.clone());
    let t = Instant::now();
    let enc = match tracer.span("probe.encode", 0, || {
        encode(
            s.template(),
            s.library(),
            s.requirements(),
            s.options().mode,
        )
    }) {
        Ok(e) => e,
        Err(e) => return rep.violation(format!("seed spec does not encode: {e}")),
    };
    rep.put("encode.ms", ms(t.elapsed()), "ms");
    rep.put("encode.rows", enc.model.num_cons() as f64, "count");
    rep.put("encode.nnz", enc.model.num_nonzeros() as f64, "count");
    if let Some(p) = root_probe(enc.model.problem(), &s.options().solver, tracer, 0) {
        rep.put("presolve.ms", p.presolve_ms, "ms");
        rep.put("presolve.rows_removed", p.rows_removed as f64, "count");
        rep.put("simplex.root_ms", p.root_ms, "ms");
        rep.put("simplex.root_pivots", p.root_pivots as f64, "count");
        rep.put(
            "simplex.root_us_per_pivot",
            ratio(p.root_ms * 1e3, p.root_pivots as f64),
            "us",
        );
        rep.put("cuts.ms", p.cuts_ms, "ms");
    }
}
