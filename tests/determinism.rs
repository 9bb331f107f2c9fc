//! End-to-end determinism: the whole protocol is a pure function of its
//! seeds. This is not a nicety — RPoL's verification *depends* on the
//! manager being able to reproduce worker computations exactly up to
//! injected hardware noise, so any nondeterminism (hash ordering, thread
//! scheduling, platform floats) would silently break soundness.

use rpol_repro::rpol::adversary::WorkerBehavior;
use rpol_repro::rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};

fn behaviors() -> Vec<WorkerBehavior> {
    vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::adv2_default(),
        WorkerBehavior::ReplayPrevious,
    ]
}

fn fingerprint(report: &PoolReport) -> (Vec<u32>, Vec<Vec<usize>>, u64, u64) {
    (
        report
            .epochs
            .iter()
            .map(|e| e.test_accuracy.to_bits())
            .collect(),
        report
            .epochs
            .iter()
            .map(|e| e.report.rejected.clone())
            .collect(),
        report.total_comm_bytes(),
        report.worker_storage_bytes,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    let run = || {
        let mut pool = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors());
        pool.run()
    };
    assert_eq!(fingerprint(&run()), fingerprint(&run()));
}

#[test]
fn parallel_and_serial_runs_are_bit_identical() {
    let run = |threads| {
        MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors())
            .with_threads(threads)
            .run()
    };
    assert_eq!(fingerprint(&run(1)), fingerprint(&run(8)));
}

#[test]
fn different_seeds_different_runs() {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    let a = MiningPool::new(config, behaviors()).run();
    config.seed ^= 1;
    let b = MiningPool::new(config, behaviors()).run();
    // Different data draws and nonces: the accuracy trajectories differ.
    assert_ne!(fingerprint(&a).0, fingerprint(&b).0);
}

#[test]
fn determinism_holds_across_all_schemes() {
    for scheme in [Scheme::Baseline, Scheme::RPoLv1, Scheme::RPoLv2] {
        let run = || {
            let mut pool = MiningPool::new(PoolConfig::tiny_demo(scheme), behaviors());
            pool.run()
        };
        assert_eq!(
            fingerprint(&run()),
            fingerprint(&run()),
            "{scheme} is nondeterministic"
        );
    }
}

#[test]
fn json_export_is_reproducible() {
    // The exported report (minus wall-clock seconds, which are real time)
    // is identical across runs — operators can diff run artifacts.
    let export = || {
        let mut pool = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors());
        let mut report = pool.run();
        for epoch in &mut report.epochs {
            epoch.wall_seconds = 0.0;
        }
        rpol_json::to_string_pretty(&report).expect("serializes")
    };
    assert_eq!(export(), export());
}
