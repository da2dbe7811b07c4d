//! `city-district`: district-16 cities (16 buildings, about 1200 candidate
//! sites each) generated from the workload seed, each solved by spatial
//! decomposition with one zone worker per core and re-verified on the full,
//! un-partitioned instance.

use crate::setup::Setup;
use crate::stats::{mean, median, mix, ms, ratio, Report};
use crate::trace::Tracer;
use archex::design::verify_design;
use archex::scale::{
    generate_city, partition_city, solve_decomposed, CityInstance, CityParams, ScaleOptions,
};
use archex::template::NodeRole;
use std::time::{Duration, Instant};

/// Cities per run at the reference length of 30 s. One district-16 solve
/// takes about 11 s on a 2-core host and its time depends on the city the
/// seed generates, so a run solves several.
const CITIES_PER_30S: u64 = 3;

/// The registry's district-16 generator parameters and buildings per zone.
fn district16() -> (CityParams, usize) {
    let spec = bench::scale_registry()
        .into_iter()
        .find(|w| w.name == "district-16")
        .expect("district-16 is registered");
    let bench::WorkloadKind::City {
        params,
        buildings_per_zone,
    } = spec.kind
    else {
        unreachable!("district-16 is a city workload")
    };
    (params, buildings_per_zone)
}

/// The district-16 cities of a run, each with its own generator seed derived
/// from the workload seed.
pub fn generate(seed: u64, seconds: u64) -> Vec<CityInstance> {
    let (params, _) = district16();
    let count = (CITIES_PER_30S * seconds).div_ceil(30).max(CITIES_PER_30S);
    (0..count)
        .map(|k| {
            generate_city(&CityParams {
                seed: mix(seed.wrapping_mul(31).wrapping_add(k)),
                ..params.clone()
            })
        })
        .collect()
}

fn options(threads: usize) -> ScaleOptions {
    ScaleOptions {
        buildings_per_zone: district16().1,
        budget: Duration::from_secs(120),
        threads,
        ..ScaleOptions::default()
    }
}

pub fn run(
    cities: &[CityInstance],
    nproc: usize,
    tracer: &Tracer,
    rep: &mut Report,
    setup: &mut Setup,
) {
    let mut walls = Vec::new();
    let mut costs = Vec::new();
    let mut verify_ms = Vec::new();
    let mut price_iters = Vec::new();
    for (op, city) in cities.iter().enumerate() {
        setup.tick(op, cities.len());
        let op = op as u64;
        let sensors = city.template.nodes_of(NodeRole::Sensor).len() as f64;
        rep.attempted += 1;
        let t = Instant::now();
        let res = tracer.span("scale.solve_decomposed", op, || {
            solve_decomposed(city, &options(nproc))
        });
        walls.push(ms(t.elapsed()));
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                rep.failed += 1;
                eprintln!("perfbench: city solve failed: {e}");
                continue;
            }
        };
        let t = Instant::now();
        let v = tracer.span("design.verify_design", op, || {
            verify_design(
                &report.design,
                &city.template,
                &city.library,
                &city.requirements,
            )
        });
        verify_ms.push(ms(t.elapsed()));
        // A stitched design that fails the full instance is a failed
        // operation when the report says so; the report claiming a
        // verified design that is not is a wrong output.
        if v != report.violations {
            rep.violation(format!(
                "city {op}: the report lists violations {:?}, verify_design {:?}",
                &report.violations[..report.violations.len().min(3)],
                &v[..v.len().min(3)]
            ));
        }
        if !v.is_empty() {
            rep.failed += 1;
            eprintln!(
                "perfbench: city {op}: the stitched design violates the full instance: {:?}",
                &v[..v.len().min(3)]
            );
            continue;
        }
        costs.push(report.design.total_cost / sensors);
        price_iters.push(report.price_iters as f64);
    }
    setup.tick(cities.len(), cities.len());
    rep.latencies(&walls, walls.iter().sum::<f64>() / 1e3);
    rep.put("cost", mean(&costs), "cost/sensor");
    if !tracer.on() {
        return;
    }
    rep.put("design.verify_ms", median(&verify_ms), "ms");
    rep.put("scale.price_iters", mean(&price_iters), "count");
    let (mut part_ms, mut zones, mut boundary) = (Vec::new(), Vec::new(), Vec::new());
    for (op, city) in cities.iter().enumerate() {
        let t = Instant::now();
        let part = tracer.span("probe.partition_city", op as u64, || {
            partition_city(city, district16().1)
        });
        part_ms.push(ms(t.elapsed()));
        zones.push(part.num_zones() as f64);
        boundary.push(part.boundary.len() as f64);
    }
    rep.put("scale.partition_ms", median(&part_ms), "ms");
    rep.put("scale.zones", mean(&zones), "count");
    rep.put("scale.boundary_links", mean(&boundary), "count");
    // One-thread re-run of the first city, for the parallel efficiency
    // `t(1) / (nproc * t(nproc))`.
    let t = Instant::now();
    let one = tracer.span("probe.solve_decomposed_1t", 0, || {
        solve_decomposed(&cities[0], &options(1))
    });
    let t1 = ms(t.elapsed());
    if let Err(e) = one {
        eprintln!("perfbench: 1-thread city solve failed: {e}");
    }
    rep.put(
        "scale.parallel_eff",
        ratio(t1, nproc as f64 * walls[0]),
        "ratio",
    );
}
