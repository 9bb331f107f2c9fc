//! The epoch's determinism contract as one table (DESIGN.md §9, §12, §15):
//!
//! scheme {Baseline, v1, v2, v3} × source {direct, ideal link, lossy link}
//! × executor width {1, 2, 8} × groups {flat, C = 1, 2, 6}
//!
//! on one six-worker roster, minus the combinations the config refuses
//! (a hierarchy under the baseline scheme or over the in-process link).
//! Every cell must reproduce its (scheme, source) **width-1 flat**
//! reference bit for bit: the whole serialized `EpochReport`, the accuracy
//! bits and the simulated clock — and the same sorted multiset of trace
//! events. Scheduling, width and committee count may move *where* work
//! runs, never an outcome.
//!
//! Grouped cells differ from flat by construction in exactly three
//! places — `peak_commit_bytes`, the `hierarchy` report and the extra
//! committee / audit trace events — so they are held to the flat
//! reference on everything else (the decision key), to the width-1 cell of
//! the same `C` on the full key and the event multiset, and to the flat
//! reference's events by inclusion.
//!
//! Run-twice axis: *same seed ⇒ same bytes* must hold inside one process,
//! where a warm process-wide cache or a once-per-process publication would
//! show. Every reference cell is run a second time on a fresh recorder and
//! must repeat its key, its whole metrics snapshot and its exported trace
//! byte for byte; one 8-wide cell per scheme must repeat key and event
//! multiset (its `exec.steals` / `exec.queue_depth_peak` are scheduling).
//!
//! The reference cells' keys are additionally pinned by one SHA-256
//! (`REFERENCE_DIGEST`; same platform, like `tests/kernel_digest_pinning.rs`)
//! and their decisions alone by a second (`DECISION_DIGEST`), so a change to
//! what verification *fetches* can move the first and must not move the
//! second.

mod common;

use common::assert_same_text;
use rpol::adversary::WorkerBehavior;
use rpol::committee::{partition, Hierarchy};
use rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
use rpol::transport::FaultConfig;
use rpol_obs::export::events_to_jsonl;
use rpol_obs::{Event, MetricsSnapshot, Recorder};
use std::sync::{Arc, OnceLock};

const SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::RPoLv1,
    Scheme::RPoLv2,
    Scheme::RPoLv3,
];
const SOURCES: [Source; 3] = [Source::Direct, Source::IdealLink, Source::LossyLink];
/// Executor widths; 1 is the reference.
const THREADS: [usize; 3] = [1, 2, 8];
/// `None` is the flat roster; `Some(c)` shards it into `c` committees.
const GROUPS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(6)];
const FAULT_SEED: u64 = 0x9E;

/// SHA-256 over the twelve reference cells' keys, in table order. First
/// recorded at commit 49641cd (`ee943d81…`) against the five drivers
/// `run_epoch{,_parallel,_hierarchical,_scoped,_transport}` the single
/// plan → collect → verify → settle driver replaced, and held there until
/// the manager stopped fetching the two checkpoints it holds: re-recorded
/// once, deliberately, for that change — the nine verified cells' proof
/// bytes and exchange counts fell, the three Baseline cells' digests and
/// every cell's `DECISION_DIGEST` line did not move (per-cell table in
/// CHANGES.md, PR 22; `d68b00f2…`). Re-recorded a second time when the
/// packed block's hi plane became a nibble dictionary: the three RPoLv3
/// cells' bytes fell (and, on the lossy one, the fault draws that frame
/// lengths feed moved), the nine Baseline / v1 / v2 cells' digests and
/// every cell's `DECISION_DIGEST` line did not (per-cell table in
/// CHANGES.md, PR 24). Re-recorded a third time when every scheme's
/// weights joined the hi-plane block (4 → about 3.5 bytes a weight on f32)
/// and a submission gained its scheme byte: the nine Baseline / v1 / v2
/// cells' byte counters and the simulated net seconds they drive fell, the
/// three RPoLv3 cells' did not except one byte per submission frame, and
/// no transport count, accuracy bit or `DECISION_DIGEST` line moved
/// (per-cell table in CHANGES.md, PR 38). Re-recorded a fourth time when
/// the simulated clock stopped counting events beside its seconds: the key
/// lost its `what#n` entries and nothing else — the cells of the commit
/// before hash to the new value with those entries dropped (CHANGES.md,
/// the entry that retires `SimClock::tick`). Same-platform only (the LSH
/// family and the noise model draw normals through the host's libm).
const REFERENCE_DIGEST: &str = "4cd30fe0375f7ce5311f2448121d264916155881517750f13cfee9f7a680d3a9";

/// SHA-256 over the twelve reference cells' *decisions*, per epoch:
/// `accepted | rejected | quarantined | accuracy bits | double_checks |
/// replayed_steps`. Recorded at commit a73d092, before the manager bound
/// both ends of the committed trajectory and stopped fetching them; that
/// change moved `REFERENCE_DIGEST` (bytes, exchanges) and not this, and
/// neither did the packed block shrinking by a quarter.
const DECISION_DIGEST: &str = "d09f1ce02b13d2f4903743091618a1c021a77aa18179f7e8df2def728eed2907";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// Submissions and openings handed over in process.
    Direct,
    /// Every message framed through the simulated link, no faults.
    IdealLink,
    /// The link drops, corrupts, truncates and delays.
    LossyLink,
}

/// Two cheaters the verified schemes must catch, and a worker that dies in
/// epoch 1: invisible to the direct source (no channel to fail), a missed
/// deadline and a quarantine on the link.
fn behaviors() -> Vec<WorkerBehavior> {
    vec![
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
        WorkerBehavior::CrashAt {
            epoch: 1,
            after_steps: 2,
        },
        WorkerBehavior::adv2_default(),
        WorkerBehavior::Honest,
    ]
}

fn hierarchy(committees: usize) -> Hierarchy {
    Hierarchy::new(committees, 1).expect("valid hierarchy")
}

struct Cell {
    report: PoolReport,
    events: Vec<String>,
    /// The trace as exported, `seq` / `ts` / `dur` included.
    jsonl: String,
    metrics: MetricsSnapshot,
}

fn run(scheme: Scheme, source: Source, threads: usize, groups: Option<usize>) -> Cell {
    let mut cfg = PoolConfig::tiny_demo(scheme);
    match source {
        Source::Direct => {}
        Source::IdealLink => cfg = cfg.with_faults(FaultConfig::ideal(FAULT_SEED)),
        Source::LossyLink => cfg = cfg.with_faults(FaultConfig::lossy(FAULT_SEED)),
    }
    if let Some(c) = groups {
        cfg = cfg.with_hierarchy(hierarchy(c));
    }
    let rec = Arc::new(Recorder::logical());
    let report = MiningPool::new(cfg, behaviors())
        .with_recorder(rec.clone())
        .with_threads(threads)
        .run();
    let events = rec.events();
    Cell {
        report,
        events: sorted_multiset(&events),
        jsonl: events_to_jsonl(&events).expect("trace exports"),
        metrics: rec.snapshot(),
    }
}

/// An event with the scheduling-dependent parts (`seq`, `ts`, `dur`)
/// stripped, as in the obs determinism contract.
fn sorted_multiset(events: &[Event]) -> Vec<String> {
    let mut keys: Vec<String> = events
        .iter()
        .map(|ev| format!("{:?}|{}|{:?}", ev.kind, ev.name, ev.fields))
        .collect();
    keys.sort();
    keys
}

/// Everything scheduling could conceivably perturb, one string per epoch:
/// the full `EpochReport` (verdicts, accounting, calibration, transport
/// counters), the exact accuracy bits and every bucket of the simulated
/// clock as f64 bits. Wall-clock seconds are the only field left out.
fn full_key(report: &PoolReport) -> Vec<String> {
    key(report, false)
}

/// [`full_key`] without the fields that *are* the hierarchy's value
/// proposition (peak memory and committee accounting): what flat and
/// grouped runs must agree on.
fn decision_key(report: &PoolReport) -> Vec<String> {
    key(report, true)
}

fn key(report: &PoolReport, decisions_only: bool) -> Vec<String> {
    report
        .epochs
        .iter()
        .map(|rec| {
            let mut body = rec.report.clone();
            if decisions_only {
                body.peak_commit_bytes = 0;
                body.hierarchy = None;
            }
            let body = rpol_json::to_string(&body).expect("serialize epoch report");
            let clock: Vec<String> = rec
                .transport_time
                .iter()
                .map(|(phase, s)| format!("{phase}={:016x}", s.to_bits()))
                .collect();
            format!(
                "{body}|acc={:08x}|clock={}",
                rec.test_accuracy.to_bits(),
                clock.join(",")
            )
        })
        .collect()
}

/// Whether sorted multiset `small` is contained in sorted multiset `big`.
fn multiset_included(small: &[String], big: &[String]) -> bool {
    let mut rest = big.iter();
    small.iter().all(|want| rest.any(|have| have == want))
}

/// The width-1 flat run of every (scheme, source), in table order.
fn references() -> &'static Vec<(Scheme, Source, Cell)> {
    static REFS: OnceLock<Vec<(Scheme, Source, Cell)>> = OnceLock::new();
    REFS.get_or_init(|| {
        SCHEMES
            .iter()
            .flat_map(|&scheme| {
                SOURCES
                    .iter()
                    .map(move |&source| (scheme, source, run(scheme, source, 1, None)))
            })
            .collect()
    })
}

#[test]
fn reference_cells_match_the_digest_recorded_on_the_old_drivers() {
    let mut text = String::new();
    let mut per_cell = String::new();
    for (scheme, source, cell) in references() {
        let keys = format!(
            "{scheme}/{source:?}\n{}\n",
            full_key(&cell.report).join("\n")
        );
        let digest = rpol_crypto::sha256(keys.as_bytes()).to_hex();
        per_cell.push_str(&format!("  {scheme}/{source:?}: {digest}\n"));
        text.push_str(&keys);
    }
    assert_eq!(
        rpol_crypto::sha256(text.as_bytes()).to_hex(),
        REFERENCE_DIGEST,
        "a reference cell moved; per-cell digests now:\n{per_cell}"
    );
}

/// What a change to *how* verification fetches its evidence must leave
/// alone: who was accepted, rejected and quarantined, the model that came
/// out, and how much was replayed — no byte or transport counter.
#[test]
fn reference_cells_decide_what_they_decided_on_a73d092() {
    let mut text = String::new();
    for (scheme, source, cell) in references() {
        text.push_str(&format!("{scheme}/{source:?}\n"));
        for rec in &cell.report.epochs {
            let r = &rec.report;
            text.push_str(&format!(
                "{:?}|{:?}|{:?}|acc={:08x}|dc={}|steps={}\n",
                r.accepted,
                r.rejected,
                r.quarantined,
                rec.test_accuracy.to_bits(),
                r.double_checks,
                r.replayed_steps
            ));
        }
    }
    assert_eq!(
        rpol_crypto::sha256(text.as_bytes()).to_hex(),
        DECISION_DIGEST,
        "a reference cell decided differently; decisions now:\n{text}"
    );
}

#[test]
fn reference_cells_are_not_vacuous() {
    for (scheme, source, cell) in references() {
        let at = format!("{scheme}/{source:?}");
        let report = &cell.report;
        if *scheme == Scheme::Baseline {
            // The baseline draws no sampling state on any path.
            for rec in &report.epochs {
                assert!(rec.report.verdicts.is_empty(), "{at}");
                assert_eq!(rec.report.comm.proof_bytes, 0, "{at}");
                assert!(rec.report.rejected.is_empty(), "{at}");
            }
        } else {
            // Adversaries must actually be caught, or parity is vacuous.
            assert!(report.rejections() > 0, "{at}: no rejections to compare");
        }
        match source {
            Source::Direct => {
                assert_eq!(report.quarantine_events(), 0, "{at}");
                assert_eq!(report.transport_totals().exchanges, 0, "{at}");
            }
            Source::IdealLink | Source::LossyLink => {
                // The crashed worker misses epoch 1's commitment deadline.
                assert!(report.epochs[1].report.quarantined.contains(&3), "{at}");
                assert!(report.transport_totals().exchanges > 0, "{at}");
            }
        }
        if *source == Source::LossyLink {
            assert!(
                report.transport_totals().retries > 0,
                "{at}: link lost nothing"
            );
        }
        // A flat epoch holds every delivered commitment at once.
        for rec in &report.epochs {
            assert_eq!(
                rec.report.peak_commit_bytes, rec.report.commit_bytes_hashed,
                "{at}"
            );
            assert!(rec.report.hierarchy.is_none(), "{at}");
        }
    }
}

#[test]
fn a_second_run_in_the_same_process_repeats_the_first() {
    for (scheme, source, first) in references() {
        let at = format!("{scheme}/{source:?}");
        let second = run(*scheme, *source, 1, None);
        assert_eq!(
            full_key(&second.report),
            full_key(&first.report),
            "{at}: record"
        );
        assert_eq!(second.metrics, first.metrics, "{at}: metrics snapshot");
        assert_same_text(&first.jsonl, &second.jsonl, &format!("{at}: trace"));
    }
    for scheme in SCHEMES {
        let at = format!("{scheme}/Direct/threads 8");
        let first = run(scheme, Source::Direct, 8, None);
        let second = run(scheme, Source::Direct, 8, None);
        assert_eq!(
            full_key(&second.report),
            full_key(&first.report),
            "{at}: record"
        );
        assert_eq!(second.events, first.events, "{at}: trace multiset");
    }
}

#[test]
fn every_cell_matches_its_serial_flat_reference() {
    let n = behaviors().len();
    let mut cells = 0;
    for (scheme, source, reference) in references() {
        let (scheme, source) = (*scheme, *source);
        let flat_key = full_key(&reference.report);
        let flat_decisions = decision_key(&reference.report);
        assert!(!flat_key.is_empty(), "reference run produced no epochs");
        for groups in GROUPS {
            if groups.is_some() && (scheme == Scheme::Baseline || source != Source::Direct) {
                continue; // refused by the config
            }
            let narrow_grouped = groups.map(|c| run(scheme, source, 1, Some(c)));
            for threads in THREADS {
                let at = format!("{scheme}/{source:?}/threads {threads}/groups {groups:?}");
                let fresh;
                let cell = match (threads, &narrow_grouped) {
                    (1, None) => reference,
                    (1, Some(narrow)) => narrow,
                    _ => {
                        fresh = run(scheme, source, threads, groups);
                        &fresh
                    }
                };
                cells += 1;

                // Every cell ran on an executor of the width it asked for.
                assert!(cell.metrics.counter("exec.tasks") > 0, "{at}");
                assert_eq!(cell.metrics.gauges["exec.threads"], threads as f64, "{at}");

                let curve = |r: &PoolReport| -> Vec<f32> {
                    r.epochs.iter().map(|e| e.test_accuracy).collect()
                };
                assert_eq!(
                    curve(&reference.report),
                    curve(&cell.report),
                    "{at}: accuracy curve diverged"
                );
                let Some(c) = groups else {
                    assert_eq!(full_key(&cell.report), flat_key, "{at}: record diverged");
                    assert_eq!(
                        cell.events, reference.events,
                        "{at}: trace multiset diverged"
                    );
                    continue;
                };

                let narrow = narrow_grouped.as_ref().expect("grouped cell");
                assert_eq!(
                    decision_key(&cell.report),
                    flat_decisions,
                    "{at}: decisions diverged from flat"
                );
                assert_eq!(
                    full_key(&cell.report),
                    full_key(&narrow.report),
                    "{at}: committee accounting moved with the thread count"
                );
                assert_eq!(
                    cell.events, narrow.events,
                    "{at}: trace multiset moved with the thread count"
                );
                assert!(
                    multiset_included(&reference.events, &cell.events),
                    "{at}: a flat trace event is missing from the grouped run"
                );
                let non_empty = partition(PoolConfig::tiny_demo(scheme).seed, n, c)
                    .iter()
                    .filter(|members| !members.is_empty())
                    .count();
                for (flat, grouped) in reference.report.epochs.iter().zip(&cell.report.epochs) {
                    let h = grouped.report.hierarchy.expect("grouped runs report");
                    assert_eq!(h.committees, c, "{at}");
                    assert_eq!(h.verdicts as usize, n, "{at}: not every worker judged");
                    assert_eq!(
                        h.audits as usize, non_empty,
                        "{at}: one audit per committee"
                    );
                    assert_eq!(
                        h.audit_mismatches, 0,
                        "{at}: in-process sub-managers are honest"
                    );
                    // Audit replay cost is real and charged to the
                    // hierarchy report, never to the tier-1 accounting the
                    // decision key covers.
                    assert!(h.audit_replayed_steps > 0, "{at}");
                    assert!(h.batch_bytes > 0, "{at}");
                    // Streaming peaks at the largest committee's share of
                    // the same total.
                    assert_eq!(
                        flat.report.commit_bytes_hashed, grouped.report.commit_bytes_hashed,
                        "{at}"
                    );
                    if non_empty > 1 {
                        assert!(
                            grouped.report.peak_commit_bytes < flat.report.peak_commit_bytes,
                            "{at}: streaming did not lower the peak"
                        );
                    } else {
                        assert_eq!(
                            grouped.report.peak_commit_bytes, flat.report.peak_commit_bytes,
                            "{at}"
                        );
                    }
                }
            }
        }
    }
    // 3 baseline-direct + 3 × 12 verified-direct + 2 × 4 × 3 link cells.
    assert_eq!(cells, 63, "the table lost cells");
}
