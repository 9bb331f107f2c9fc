//! Trace-determinism contract for the observability layer (DESIGN.md §11).
//!
//! * Two same-seed faulty-pool runs on one executor lane must export
//!   byte-identical traces and metrics snapshots.
//! * A wider executor trains workers on several lanes at once, so `seq`/
//!   `ts`/`dur` may differ — but the *sorted multiset* of self-describing
//!   events (name + kind + fields) must equal the one-lane run's.
//! * Registry counters are published at the serial epoch-merge point, so
//!   they must equal the `EpochReport`/`PoolReport` totals exactly.

use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
use rpol::transport::FaultConfig;
use rpol_obs::export::{events_to_jsonl, snapshot_to_json};
use rpol_obs::{Event, Recorder};
use std::sync::Arc;

fn faulty_config() -> PoolConfig {
    PoolConfig::tiny_demo(Scheme::RPoLv2).with_faults(FaultConfig::lossy(7))
}

fn behaviors() -> Vec<WorkerBehavior> {
    vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
    ]
}

/// A run at executor width `threads`; width 1 is the byte-exact reference.
fn run_pool(threads: usize) -> (Arc<Recorder>, PoolReport) {
    let rec = Arc::new(Recorder::logical());
    let report = MiningPool::new(faulty_config(), behaviors())
        .with_recorder(rec.clone())
        .with_threads(threads)
        .run();
    (rec, report)
}

/// An event with the scheduling-dependent parts (`seq`, `ts`, `dur`)
/// stripped: what a parallel run must agree with a serial run on.
fn comparable(ev: &Event) -> String {
    format!("{:?}|{}|{:?}", ev.kind, ev.name, ev.fields)
}

fn sorted_multiset(events: &[Event]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(comparable).collect();
    keys.sort();
    keys
}

#[test]
fn same_seed_serial_runs_are_byte_identical() {
    let (rec_a, _) = run_pool(1);
    let (rec_b, _) = run_pool(1);
    let trace_a = events_to_jsonl(&rec_a.events()).expect("serialize a");
    let trace_b = events_to_jsonl(&rec_b.events()).expect("serialize b");
    assert!(!trace_a.is_empty(), "faulty run must emit events");
    assert_eq!(trace_a, trace_b, "same seed must give identical traces");
    let metrics_a = snapshot_to_json(&rec_a.snapshot()).expect("snapshot a");
    let metrics_b = snapshot_to_json(&rec_b.snapshot()).expect("snapshot b");
    assert_eq!(
        metrics_a, metrics_b,
        "same seed must give identical metrics"
    );
}

#[test]
fn parallel_run_emits_same_sorted_event_multiset_as_serial() {
    let (serial, serial_report) = run_pool(1);
    let (parallel, parallel_report) = run_pool(8);
    assert_eq!(
        serial_report.total_comm_bytes(),
        parallel_report.total_comm_bytes(),
        "parallelism must not change protocol outcomes"
    );
    assert_eq!(
        sorted_multiset(&serial.events()),
        sorted_multiset(&parallel.events()),
        "parallel scheduling may reorder events but never change them"
    );
}

#[test]
fn registry_counters_equal_report_totals() {
    let (rec, report) = run_pool(1);
    let snapshot = rec.snapshot();
    let epochs = &report.epochs;
    assert_eq!(snapshot.counter("rpol.pool.epochs"), epochs.len() as u64);
    assert_eq!(
        snapshot.counter("rpol.pool.accepted"),
        report.acceptances() as u64
    );
    assert_eq!(
        snapshot.counter("rpol.pool.rejected"),
        report.rejections() as u64
    );
    let quarantined: u64 = epochs
        .iter()
        .map(|e| e.report.quarantined.len() as u64)
        .sum();
    assert_eq!(snapshot.counter("rpol.pool.quarantined"), quarantined);
    let double_checks: u64 = epochs.iter().map(|e| e.report.double_checks as u64).sum();
    assert_eq!(snapshot.counter("rpol.verify.double_checks"), double_checks);
    let replayed: u64 = epochs.iter().map(|e| e.report.replayed_steps).sum();
    assert_eq!(snapshot.counter("rpol.verify.replayed_steps"), replayed);

    let comm_total = snapshot.counter("rpol.comm.broadcast_bytes")
        + snapshot.counter("rpol.comm.submission_bytes")
        + snapshot.counter("rpol.comm.proof_bytes");
    assert_eq!(comm_total, report.total_comm_bytes());

    let transport = report.transport_totals();
    assert_eq!(
        snapshot.counter("rpol.transport.exchanges"),
        transport.exchanges
    );
    assert_eq!(
        snapshot.counter("rpol.transport.retries"),
        transport.retries
    );
    assert_eq!(
        snapshot.counter("rpol.transport.wire_bytes"),
        transport.wire_bytes
    );

    // Simulated per-phase time mirrors the SimClock totals exactly.
    let sim_total: f64 = epochs.iter().map(|e| e.transport_time.total()).sum();
    let gauge_total: f64 = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("sim.clock.time."))
        .map(|(_, v)| v)
        .sum();
    assert!(
        (sim_total - gauge_total).abs() < 1e-9,
        "sim {sim_total} vs exported {gauge_total}"
    );
}

#[test]
fn hierarchy_counters_equal_report_totals() {
    // The two-tier committee pipeline publishes its own counters at the
    // same serial merge point as the flat ones — exported totals must
    // equal the per-epoch `HierarchyReport` sums exactly.
    use rpol::committee::Hierarchy;
    let config =
        PoolConfig::tiny_demo(Scheme::RPoLv2).with_hierarchy(Hierarchy::new(2, 1).expect("valid"));
    let rec = Arc::new(Recorder::logical());
    let report = MiningPool::new(config, behaviors())
        .with_recorder(rec.clone())
        .run();
    let snapshot = rec.snapshot();
    let h: Vec<_> = report
        .epochs
        .iter()
        .map(|e| e.report.hierarchy.expect("hierarchical run"))
        .collect();
    assert_eq!(
        snapshot.counter("rpol.committee.verdicts"),
        h.iter().map(|r| r.verdicts).sum::<u64>()
    );
    assert_eq!(
        snapshot.counter("rpol.committee.audits"),
        h.iter().map(|r| r.audits).sum::<u64>()
    );
    assert_eq!(
        snapshot.counter("rpol.committee.audit_mismatch"),
        h.iter().map(|r| r.audit_mismatches).sum::<u64>()
    );
    assert_eq!(
        snapshot.counter("rpol.committee.batch_bytes"),
        h.iter().map(|r| r.batch_bytes).sum::<u64>()
    );
    assert_eq!(
        snapshot.counter("rpol.pool.peak_commit_bytes"),
        report
            .epochs
            .iter()
            .map(|e| e.report.peak_commit_bytes)
            .sum::<u64>()
    );
    // Nothing audited more than it verified, and the in-process
    // sub-managers never lie.
    assert!(snapshot.counter("rpol.committee.audits") > 0);
    assert_eq!(snapshot.counter("rpol.committee.audit_mismatch"), 0);
}

#[test]
fn v3_byte_counters_equal_report_totals() {
    // The RPoLv3 data-plane counters — checkpoint bytes hashed into
    // quantized commitments and payload bytes the packed framing avoided —
    // are published at the same serial merge points as everything else, so
    // the exported totals must equal the EpochReport sums exactly.
    let rec = Arc::new(Recorder::logical());
    let config = PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::lossy(7));
    let mut pool = MiningPool::new(config, behaviors()).with_recorder(rec.clone());
    let report = pool.run();
    let snapshot = rec.snapshot();

    let hashed: u64 = report
        .epochs
        .iter()
        .map(|e| e.report.commit_bytes_hashed)
        .sum();
    assert!(hashed > 0, "v3 commitments must hash checkpoint bytes");
    assert_eq!(snapshot.counter("rpol.commit.bytes_hashed"), hashed);

    let saved = report.transport_totals().bytes_saved;
    assert!(saved > 0, "packed framing must save payload bytes");
    assert_eq!(snapshot.counter("rpol.wire.bytes_saved"), saved);

    // The task broadcast rides the packed framing too: its block is built
    // once an epoch, and each worker's frame undercuts the 4 bytes per
    // weight raw f32 would charge (so the saving above includes it).
    let epochs = report.epochs.len() as u64;
    assert_eq!(snapshot.counter("rpol.wire.task_blocks_encoded"), epochs);
    let broadcast: u64 = report
        .epochs
        .iter()
        .map(|e| e.report.comm.broadcast_bytes)
        .sum();
    assert_eq!(snapshot.counter("rpol.comm.broadcast_bytes"), broadcast);
    let dim = pool.manager().global_weights().len() as u64;
    let raw = epochs * behaviors().len() as u64 * 4 * dim;
    assert!(
        broadcast < raw && raw - broadcast <= saved,
        "broadcast {broadcast} vs raw {raw}, saved {saved}"
    );
}

/// How each packed block coded its hi plane is counted by whoever encoded
/// it — the manager for the task block, the worker's side of the link for
/// submissions and openings — so on a pool of weight-shaped models `dict`
/// equals the blocks encoded and `raw` stays 0, one lane ≡ eight, on the
/// f32 lattice (RPoLv1) as on bf16 (RPoLv3).
#[test]
fn packed_block_counters_name_every_block_encoded() {
    const COUNTERS: [&str; 3] = [
        "rpol.wire.packed_blocks_dict",
        "rpol.wire.packed_blocks_raw",
        "rpol.wire.packed_escapes",
    ];
    for scheme in [Scheme::RPoLv1, Scheme::RPoLv3] {
        let config = PoolConfig::tiny_demo(scheme).with_faults(FaultConfig::ideal(7));
        let run = |threads: usize| {
            let rec = Arc::new(Recorder::logical());
            let report = MiningPool::new(config, behaviors())
                .with_recorder(rec.clone())
                .with_threads(threads)
                .run();
            (rec.snapshot(), report)
        };
        let (serial, report) = run(1);
        let (threaded, _) = run(8);

        // On an ideal link every exchange delivers: a task and a
        // submission per worker per epoch, and two per opening fetched
        // (request, response).
        let epochs = report.epochs.len() as u64;
        let per_epoch = 2 * behaviors().len() as u64;
        let openings = (report.transport_totals().exchanges - epochs * per_epoch) / 2;
        assert!(openings > 0, "{scheme}: the fixture must fetch openings");
        // One task block an epoch, a submission per worker, a response per
        // opening.
        let blocks = epochs + epochs * per_epoch / 2 + openings;
        assert_eq!(serial.counter(COUNTERS[0]), blocks, "{scheme}");
        assert_eq!(serial.counter(COUNTERS[1]), 0, "{scheme}");
        for name in COUNTERS {
            assert_eq!(
                serial.counter(name),
                threaded.counter(name),
                "{scheme}: {name}"
            );
        }
    }
}

/// What verification did *not* fetch, and why a worker was turned away at
/// the binding: both are recorded by the settling thread, so the exported
/// counter equals what the report's verdicts imply and the events name
/// exactly the workers the report rejected there — one lane ≡ eight, on
/// the direct source and over a lossy link.
#[test]
fn elided_openings_and_endpoint_mismatches_equal_what_the_report_implies() {
    use rpol::verify::{RejectReason, VerificationOutcome};
    let roster = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::SwapFinal,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::ForeignStart,
        WorkerBehavior::Honest,
    ];
    for scheme in [Scheme::RPoLv1, Scheme::RPoLv2, Scheme::RPoLv3] {
        for fault in [None, Some(FaultConfig::lossy(7))] {
            let mut config = PoolConfig::tiny_demo(scheme);
            config.steps_per_epoch = 8;
            config.fault = fault;
            let last = config.steps_per_epoch / config.task.checkpoint_interval;
            let at = format!("{scheme}/{fault:?}");
            let run = |threads: usize| {
                let rec = Arc::new(Recorder::logical());
                let report = MiningPool::new(config, roster.clone())
                    .with_recorder(rec.clone())
                    .with_threads(threads)
                    .run();
                let mismatches: Vec<String> = sorted_multiset(&rec.events())
                    .into_iter()
                    .filter(|ev| ev.contains("rpol.verify.endpoint_mismatch"))
                    .collect();
                let elided = rec.snapshot().counter("rpol.verify.openings_elided");
                (report, mismatches, elided)
            };
            let (report, mismatches, elided) = run(1);

            // Every sample opens its input; raw v1 always opens the output,
            // the fuzzy schemes only on the double-check path.
            let opens_output = |outcome: &VerificationOutcome| match outcome {
                VerificationOutcome::Accepted { double_checked } => {
                    scheme == Scheme::RPoLv1 || *double_checked
                }
                VerificationOutcome::Rejected(RejectReason::DistanceExceeded { .. }) => true,
                other => panic!("{at}: roster should not produce {other:?}"),
            };
            let mut implied = 0u64;
            let mut unbound = Vec::new();
            for record in &report.epochs {
                for (w, verdict) in &record.report.verdicts {
                    if let Some(end) = verdict.unbound_end() {
                        unbound.push((record.report.epoch, *w, end));
                        continue;
                    }
                    for (j, outcome) in &verdict.outcomes {
                        implied += u64::from(*j == 0);
                        implied += u64::from(j + 1 == last && opens_output(outcome));
                    }
                }
            }
            assert!(implied > 0, "{at}: vacuous");
            assert_eq!(elided, implied, "{at}: openings_elided");
            let epochs: Vec<u64> = (0..config.epochs as u64).collect();
            let expected: Vec<(u64, usize, &str)> = epochs
                .iter()
                .flat_map(|&e| [(e, 1, "final"), (e, 3, "start")])
                .collect();
            assert_eq!(
                unbound, expected,
                "{at}: who was turned away at the binding"
            );
            let mut events: Vec<String> = expected
                .iter()
                .map(|(epoch, worker, end)| {
                    format!(
                        "Event|rpol.verify.endpoint_mismatch|[(\"epoch\", U64({epoch})), \
                         (\"worker\", U64({worker})), (\"end\", Str(\"{end}\"))]"
                    )
                })
                .collect();
            events.sort();
            assert_eq!(mismatches, events, "{at}: one event per binding rejection");

            let (threaded, threaded_mismatches, threaded_elided) = run(8);
            assert_eq!(threaded.total_comm_bytes(), report.total_comm_bytes());
            assert_eq!(threaded_mismatches, mismatches, "{at}: one lane ≡ eight");
            assert_eq!(threaded_elided, elided, "{at}: one lane ≡ eight");
        }
    }
}

#[test]
fn disabled_recorder_emits_nothing() {
    let rec = Arc::new(Recorder::logical());
    rec.disable();
    let mut pool = MiningPool::new(faulty_config(), behaviors()).with_recorder(rec.clone());
    let report = pool.run();
    assert!(report.total_comm_bytes() > 0);
    assert!(
        rec.events().is_empty(),
        "disabled recorder must stay silent"
    );
    assert!(rec.snapshot().counters.is_empty());
}
