//! Resume regression on a paper-spec instance: a checkpointed solve stopped
//! early and resumed from its frame must prove the same optimum as an
//! uninterrupted solve, with a verified design, and without spending more
//! than twice that solve's simplex pivots.

use std::time::Duration;
use wsn_dse::archex::design::{extract_design, verify_design};
use wsn_dse::archex::encode::{encode, Encoding};
use wsn_dse::milp::CheckpointConfig;
use wsn_dse::prelude::{EncodeMode, ExploreOptions, Status};

#[test]
fn resumed_solve_proves_the_uninterrupted_optimum() {
    // Table 3 spec: [33 nodes / 8 sensors], K* = 10, 0.5% gap, one thread.
    let w = bench::data_collection_workload(33, 8, "cost");
    let encode_fresh = || -> Encoding {
        encode(&w.template, &w.library, &w.requirements, EncodeMode::Approx { kstar: 10 })
            .expect("instance encodes")
    };
    let mut cfg = ExploreOptions::approx(10).with_threads(1).solver;
    cfg.rel_gap = 0.005;
    cfg.time_limit = Some(Duration::from_secs(60));

    let enc = encode_fresh();
    let clean = enc.model.solve(&cfg);
    assert_eq!(clean.status(), Status::Optimal);
    assert!((clean.objective() - 244.0).abs() < 1e-6, "optimum {}", clean.objective());

    let path = std::env::temp_dir().join(format!("wsn_dse_resume_{}.frame", std::process::id()));
    let mut stopped = cfg.clone();
    stopped.node_limit = Some(20);
    stopped.checkpoint = Some(CheckpointConfig::new(&path));
    let victim = enc.model.solve(&stopped);
    assert_ne!(victim.status(), Status::Optimal, "the node limit must interrupt the proof");

    // A fresh encoding, as a restarted process would build.
    let enc = encode_fresh();
    let resumed = enc.model.solve_resumed(&cfg, &path);
    for suffix in ["", ".prev", ".tmp"] {
        let _ = std::fs::remove_file(format!("{}{suffix}", path.display()));
    }
    let resumed = resumed.expect("the interrupted solve left a frame");
    assert!(resumed.stats().resumed);
    assert_eq!(resumed.status(), Status::Optimal);
    assert!(
        (resumed.objective() - clean.objective()).abs() < 1e-6,
        "resumed {} vs uninterrupted {}",
        resumed.objective(),
        clean.objective()
    );
    let design = extract_design(&enc, &resumed, &w.template, &w.library, &w.requirements);
    let violations = verify_design(&design, &w.template, &w.library, &w.requirements);
    assert!(violations.is_empty(), "violations: {violations:?}");
    assert!(
        resumed.stats().simplex_iters <= 2 * clean.stats().simplex_iters,
        "resume spent {} pivots, the uninterrupted proof {}",
        resumed.stats().simplex_iters,
        clean.stats().simplex_iters
    );
}
