//! Fault-tolerance acceptance tests: the pool must survive a lossy,
//! crash-prone transport — completing every epoch, never rejecting an
//! honest worker over channel noise, quarantining (not punishing) dead
//! links, and reproducing bit-identical reports from the same fault seed.

use rpol_repro::rpol::adversary::WorkerBehavior;
use rpol_repro::rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
use rpol_repro::rpol::transport::{FaultConfig, FaultProfile, RetryPolicy};
use rpol_repro::sim::NetworkModel;

fn lossy_config(scheme: Scheme, seed: u64) -> PoolConfig {
    PoolConfig::tiny_demo(scheme).with_faults(FaultConfig::lossy(seed))
}

/// Everything deterministic about a run, for comparing two same-seed
/// executions (wall-clock seconds are the only nondeterministic field).
fn fingerprint(report: &PoolReport) -> String {
    report
        .epochs
        .iter()
        .map(|e| {
            format!(
                "{:?}|{}|{:?}\n",
                e.report, e.test_accuracy, e.transport_time
            )
        })
        .collect()
}

#[test]
fn lossy_pool_completes_with_zero_honest_rejections() {
    for scheme in [Scheme::Baseline, Scheme::RPoLv1, Scheme::RPoLv2] {
        let mut pool = MiningPool::new(
            lossy_config(scheme, 0xFA_17),
            vec![WorkerBehavior::Honest; 3],
        );
        let report = pool.run();
        assert_eq!(report.epochs.len(), 2, "{scheme}: epochs missing");
        assert_eq!(report.rejections(), 0, "{scheme}: honest worker rejected");
        assert_eq!(
            report.quarantine_events(),
            0,
            "{scheme}: healthy link quarantined"
        );
        let totals = report.transport_totals();
        assert!(totals.exchanges > 0, "{scheme}: no transport traffic");
        assert_eq!(totals.failures, 0, "{scheme}: lossy link exhausted retries");
        // 10% drop + 2% corruption across dozens of exchanges: the retry
        // machinery must actually have fired.
        assert!(totals.retries > 0, "{scheme}: no retries under 10% drop");
        assert!(totals.wire_bytes > 0);
    }
}

#[test]
fn crashed_worker_is_quarantined_and_uncredited() {
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::CrashAt {
            epoch: 0,
            after_steps: 2,
        },
        WorkerBehavior::Honest,
    ];
    let mut pool = MiningPool::new(lossy_config(Scheme::RPoLv2, 0xC0A5), behaviors);
    let report = pool.run();

    // Every epoch still completes, and nobody is *rejected*: a crash is a
    // fault, not an attack.
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.rejections(), 0, "crash treated as cheating");
    // The crashed worker is quarantined in its crash epoch (received the
    // task, never submitted) and in every epoch after (link dead).
    assert!(
        report
            .epochs
            .iter()
            .all(|e| e.report.quarantined.contains(&1)),
        "{report:#?}"
    );
    for e in &report.epochs {
        assert!(!e.report.accepted.contains(&1));
        // The survivors still aggregate.
        assert_eq!(e.report.accepted, vec![0, 2]);
    }
    // No credit accrues to a silent worker: the survivors hold one credit
    // per epoch each, so at one unit per credit each is paid one unit per
    // epoch and the crashed worker nothing.
    let epochs = report.epochs.len() as f64;
    assert_eq!(
        pool.manager().contributions().total(),
        2 * report.epochs.len() as u64
    );
    let payout = pool.manager().contributions().distribute(2.0 * epochs);
    let workers = pool.workers();
    assert_eq!(
        payout
            .iter()
            .map(|(a, _)| *a)
            .collect::<std::collections::BTreeSet<_>>(),
        [workers[0].address, workers[2].address].into(),
        "the crashed worker was paid"
    );
    for (survivor, share) in payout {
        assert_eq!(
            share, epochs,
            "survivor {survivor} lost credit to the crash"
        );
    }
}

#[test]
fn same_fault_seed_reproduces_identical_reports() {
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::CrashAt {
            epoch: 1,
            after_steps: 0,
        },
        WorkerBehavior::Straggler { slowdown: 3.0 },
    ];
    let run =
        |seed: u64| MiningPool::new(lossy_config(Scheme::RPoLv2, seed), behaviors.clone()).run();
    let a = run(7);
    let b = run(7);
    assert_eq!(fingerprint(&a), fingerprint(&b), "same seed diverged");
    // A different fault seed draws different faults (retry counts shift)
    // while honest workers still survive.
    let c = run(8);
    assert_eq!(c.rejections(), 0);
    assert_ne!(
        a.transport_totals(),
        c.transport_totals(),
        "fault seed had no effect"
    );
}

#[test]
fn parallel_faulty_run_matches_serial_exactly() {
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::CrashAt {
            epoch: 1,
            after_steps: 1,
        },
    ];
    let serial = MiningPool::new(lossy_config(Scheme::RPoLv2, 0x9E), behaviors.clone())
        .with_threads(1)
        .run();
    let parallel = MiningPool::new(lossy_config(Scheme::RPoLv2, 0x9E), behaviors)
        .with_threads(8)
        .run();
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "fault injection depends on scheduling"
    );
}

#[test]
fn moderate_straggler_survives_extreme_straggler_quarantined() {
    // 4× slowdown: retries absorb the latency, the worker stays credited.
    let mild = MiningPool::new(
        lossy_config(Scheme::RPoLv1, 3),
        vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Straggler { slowdown: 4.0 },
        ],
    )
    .run();
    assert_eq!(mild.rejections(), 0);
    assert_eq!(mild.quarantine_events(), 0, "mild straggler quarantined");

    // A slowdown pushing every exchange past the timeout: the worker is
    // quarantined each epoch but the pool still finishes.
    let config = PoolConfig::tiny_demo(Scheme::RPoLv1).with_faults(FaultConfig {
        profile: FaultProfile::ideal(),
        policy: RetryPolicy::default(),
        net: NetworkModel::paper_default(),
        seed: 3,
    });
    let extreme = MiningPool::new(
        config,
        vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Straggler { slowdown: 1e7 },
        ],
    )
    .run();
    assert_eq!(extreme.epochs.len(), 2, "pool hung on the straggler");
    assert_eq!(extreme.rejections(), 0, "straggler treated as cheating");
    assert!(
        extreme
            .epochs
            .iter()
            .all(|e| e.report.quarantined.contains(&1)),
        "{extreme:#?}"
    );
    assert!(extreme.transport_totals().timeouts > 0);
}

#[test]
fn adversary_still_rejected_not_quarantined_under_faults() {
    let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
    let report = MiningPool::new(lossy_config(Scheme::RPoLv1, 0xBAD), behaviors).run();
    for e in &report.epochs {
        assert!(
            e.report.rejected.contains(&1),
            "replayer escaped verification: {:?}",
            e.report
        );
        assert!(e.report.accepted.contains(&0), "honest worker lost");
        assert!(e.report.quarantined.is_empty());
    }
}

#[test]
fn harsh_network_still_terminates() {
    // 25% drop / 10% corruption: retries may exhaust and quarantine
    // workers, but the run must terminate with a complete report and
    // never convict anyone of cheating.
    let config = PoolConfig::tiny_demo(Scheme::RPoLv2).with_faults(FaultConfig {
        profile: FaultProfile::harsh(),
        policy: RetryPolicy::default(),
        net: NetworkModel::paper_default(),
        seed: 11,
    });
    let report = MiningPool::new(config, vec![WorkerBehavior::Honest; 3]).run();
    assert_eq!(report.epochs.len(), 2);
    assert_eq!(report.rejections(), 0, "honest worker convicted by noise");
    for e in &report.epochs {
        let covered = e.report.accepted.len() + e.report.quarantined.len();
        assert_eq!(covered, 3, "worker unaccounted for: {:?}", e.report);
    }
}
