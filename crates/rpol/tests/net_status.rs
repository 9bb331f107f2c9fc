//! Distributed-observability integration tests (DESIGN.md §16).
//!
//! Two contracts:
//!
//! * **Status plane** — a `NetControl::Status` probe (no handshake
//!   needed) gets a `StatusReport` whose embedded registry counters
//!   equal the embedded `NetStats` field-for-field, at any point in the
//!   run: the snapshot publishes pending deltas before reading the
//!   registry, so the two views can never drift.
//! * **Trace stitching** — a loopback-TCP run with logical-clock
//!   recorders on the manager and every worker process stitches into one
//!   causally-ordered timeline that is byte-identical across same-seed
//!   runs, and whose verification work projects onto the simulated
//!   path's trace exactly.

mod common;

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::assert_same_text;
use rpol::adversary::WorkerBehavior;
use rpol::client::{ClientTuning, WorkerClient};
use rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
use rpol::server::{run_socket_pool, BindAddr, PoolServer, ServerConfig, SocketRunOptions};
use rpol::wire::{
    decode_net_control, encode_net_control, seal_frame, FrameAssembler, NetControl,
    MAX_FRAME_BYTES, NET_PROTOCOL,
};
use rpol_obs::export::events_to_jsonl;
use rpol_obs::stitch::stitch;
use rpol_obs::{Event, Recorder};

fn quick_tuning() -> ClientTuning {
    ClientTuning {
        read_timeout: Duration::from_millis(5),
        backoff_scale: 0.005,
        ..ClientTuning::default()
    }
}

fn send_control(stream: &mut TcpStream, msg: &NetControl) {
    let framed = seal_frame(&encode_net_control(msg));
    stream.write_all(&framed).expect("write frame");
}

/// Reads one control frame (of any size) off a blocking stream. A frame
/// that fails to decode is an error, not a reason to read on.
fn read_control(stream: &mut TcpStream) -> io::Result<NetControl> {
    let mut asm = FrameAssembler::new(MAX_FRAME_BYTES);
    let mut chunk = [0u8; 4096];
    loop {
        let frame = asm
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        if let Some(mut payload) = frame {
            return Ok(decode_net_control(&mut payload).expect("control frame"));
        }
        let k = stream.read(&mut chunk)?;
        if k == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        asm.push(&chunk[..k]);
    }
}

/// The 19 `NetStats` fields, named as they appear in both the report's
/// `net` object and the `net.*` counter family.
const NET_FIELDS: &[&str] = &[
    "accepted",
    "handshakes",
    "busy_rejects",
    "shed_submissions",
    "evicted",
    "handshake_timeouts",
    "idle_closed",
    "disconnects",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "corrupt_frames",
    "malformed_frames",
    "heartbeats",
    "buf_pool_hits",
    "buf_pool_misses",
    "buf_pool_bytes_reused",
    "reactor_fallbacks",
];

#[test]
fn status_report_counters_equal_embedded_net_stats() {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    config.epochs = 2;
    let behaviors = vec![WorkerBehavior::Honest; 2];
    let rec = Arc::new(Recorder::logical());
    let pool = MiningPool::new(config, behaviors.clone()).with_recorder(rec.clone());
    let mut server =
        PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let workers: Vec<_> = MiningPool::build_workers(config, &behaviors)
        .into_iter()
        .map(|worker| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                WorkerClient::new(config, worker, addr, quick_tuning()).run()
            })
        })
        .collect();
    let server_thread = std::thread::spawn(move || {
        let report = server.run().expect("server run");
        (report, server.net_stats())
    });

    // Poll the status plane from fresh unauthenticated probes for as long
    // as the server answers. Every report must be internally consistent.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut reports = 0u32;
    let mut saw_done = false;
    while Instant::now() < deadline && !saw_done {
        let Ok(mut probe) = TcpStream::connect(&addr) else {
            break; // server shut down
        };
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        send_control(&mut probe, &NetControl::Status);
        let Ok(NetControl::StatusReport { json }) = read_control(&mut probe) else {
            break; // listener closed mid-probe
        };
        let v = rpol_json::parse(&json).expect("status report is valid JSON");
        assert_eq!(
            v.get("protocol").and_then(|p| p.as_u64()),
            Some(u64::from(NET_PROTOCOL))
        );
        let live_workers = v.get("workers").and_then(|p| p.as_u64()).expect("workers");
        assert!(live_workers <= 2, "at most two workers ever handshake");
        let net = v.get("net").expect("net stats in report");
        let counters = v.get("counters").expect("registry counters in report");
        for field in NET_FIELDS {
            assert_eq!(
                counters
                    .get(&format!("net.{field}"))
                    .and_then(|c| c.as_u64()),
                net.get(field).and_then(|c| c.as_u64()),
                "registry counter net.{field} diverges from NetStats in the same report"
            );
        }
        let progress = v.get("progress").expect("progress in report");
        assert_eq!(
            progress.get("epochs_total").and_then(|p| p.as_u64()),
            Some(2)
        );
        saw_done = progress.get("epochs_done").and_then(|p| p.as_u64()) == Some(2);
        reports += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(reports > 0, "the status plane never answered a probe");

    let (report, net) = server_thread.join().expect("server thread");
    for handle in workers {
        handle.join().expect("worker thread");
    }
    assert_eq!(report.epochs.len(), 2);
    // The probes' connects and disconnects are part of the counters, and
    // the invariant held on every report anyway; the final registry totals
    // must also equal the final socket stats (the net_parity contract).
    let snapshot = rec.snapshot();
    assert_eq!(snapshot.counter("net.handshakes"), net.handshakes);
    assert_eq!(snapshot.counter("net.frames_in"), net.frames_in);
    assert_eq!(
        snapshot.counters_with_prefix("net.").len(),
        NET_FIELDS.len(),
        "latency metrics must ride histograms, not counters"
    );
    assert_eq!(
        snapshot.histograms["net.epoch_latency"].count, 2,
        "one epoch-latency observation per epoch"
    );
}

/// One fully traced loopback run: logical recorders on the manager and
/// every worker process, stitched into a single timeline.
fn traced_socket_run(
    config: PoolConfig,
    behaviors: &[WorkerBehavior],
    server: ServerConfig,
) -> (PoolReport, String, Vec<Event>) {
    let server_rec = Arc::new(Recorder::logical());
    let client_recs: Vec<Arc<Recorder>> = behaviors
        .iter()
        .map(|_| Arc::new(Recorder::logical()))
        .collect();
    let outcome = run_socket_pool(
        config,
        behaviors.to_vec(),
        SocketRunOptions {
            server,
            client: quick_tuning(),
            recorder: Some(server_rec.clone()),
            client_recorders: client_recs.clone(),
        },
    )
    .expect("socket run");
    assert_eq!(outcome.report.epochs.len(), config.epochs);
    let mut traces = vec![(
        "manager".to_string(),
        events_to_jsonl(&server_rec.events()).expect("manager trace"),
    )];
    for (i, rec) in client_recs.iter().enumerate() {
        traces.push((
            format!("worker-{i}"),
            events_to_jsonl(&rec.events()).expect("worker trace"),
        ));
    }
    let refs: Vec<(&str, &str)> = traces
        .iter()
        .map(|(name, jsonl)| (name.as_str(), jsonl.as_str()))
        .collect();
    (
        outcome.report,
        stitch(&refs).expect("stitch"),
        server_rec.events(),
    )
}

/// The stitched lines with the scheduling-dependent keys (`seq`, `ts`,
/// `dur`) dropped, sorted: what two runs that verify on an executor must
/// still agree on.
fn sorted_multiset(stitched: &str) -> Vec<String> {
    let mut keys: Vec<String> = stitched
        .lines()
        .map(|line| {
            let v = rpol_json::parse(line).expect("stitched line is JSON");
            let kept: Vec<String> = v
                .entries()
                .expect("trace record is an object")
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "seq" | "ts" | "dur"))
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            kept.join("|")
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn stitched_multiprocess_trace_is_byte_identical_across_same_seed_runs() {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 2;
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
    ];

    let (_, first, server_events) = traced_socket_run(config, &behaviors, ServerConfig::default());
    let (_, second, _) = traced_socket_run(config, &behaviors, ServerConfig::default());
    assert_same_text(
        &first,
        &second,
        "same-seed loopback runs must stitch to identical bytes",
    );

    // The cross-process spine is present: client work under the server's
    // propagated context, and the server's serial ingest of client sends.
    for name in [
        "rpol.server.epoch",
        "rpol.client.train",
        "rpol.server.ingest_submission",
        "rpol.client.proof",
        "rpol.server.ingest_proof",
    ] {
        assert!(first.contains(name), "stitched trace lacks {name}");
    }

    // Every client span carries the seed-keyed trace id and a real remote
    // parent, and causality holds in the merged order: a client train span
    // never precedes the epoch span that caused it.
    let mut train_seen = 0;
    let mut first_epoch_pos = None;
    let mut first_train_pos = None;
    for (pos, line) in first.lines().enumerate() {
        let v = rpol_json::parse(line).expect("stitched line is JSON");
        let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("");
        if name == "rpol.server.epoch" && first_epoch_pos.is_none() {
            first_epoch_pos = Some(pos);
        }
        if name == "rpol.client.train" {
            train_seen += 1;
            first_train_pos.get_or_insert(pos);
            let f = v.get("f").expect("fields");
            assert_eq!(
                f.get("trace").and_then(|t| t.as_u64()),
                Some(config.seed),
                "trace id must be the pool seed"
            );
            assert_ne!(
                f.get("parent").and_then(|p| p.as_u64()),
                Some(0),
                "client spans must name their remote parent"
            );
        }
    }
    assert_eq!(
        train_seen,
        behaviors.len() * config.epochs,
        "one train span per worker per epoch"
    );
    assert!(
        first_epoch_pos.expect("epoch span present") < first_train_pos.expect("train span present"),
        "Lamport stitching must order the epoch span before the client work it caused"
    );

    // Projection onto the simulated path: the socket run verifies exactly
    // the workers the in-process pool verifies, so the verification spans
    // and sampling events agree count-for-count.
    let sim_rec = Arc::new(Recorder::logical());
    let _ = MiningPool::new(config, behaviors.clone())
        .with_recorder(sim_rec.clone())
        .run();
    let count = |events: &[Event], name: &str| events.iter().filter(|e| e.name == name).count();
    let sim_events = sim_rec.events();
    for name in ["rpol.verify.worker", "rpol.manager.sample"] {
        assert_eq!(
            count(&server_events, name),
            count(&sim_events, name),
            "socket and simulated paths disagree on {name}"
        );
    }
}

#[test]
fn parallel_verify_socket_runs_agree_on_decisions_and_the_trace_multiset() {
    // Verification fanned over the server's executor records from its
    // tasks, so the stitched bytes may interleave differently run to run;
    // what was decided, what crossed the link and which events happened
    // may not.
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 2;
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
    ];
    let parallel = ServerConfig {
        parallel_verify: true,
        ..ServerConfig::default()
    };

    let (first, first_trace, _) = traced_socket_run(config, &behaviors, parallel);
    let (second, second_trace, _) = traced_socket_run(config, &behaviors, parallel);
    assert!(first.rejections() > 0, "the replayer must be caught");
    for (a, b) in first.epochs.iter().zip(&second.epochs) {
        assert_eq!(a.report.accepted, b.report.accepted, "accepted set");
        assert_eq!(a.report.rejected, b.report.rejected, "rejected set");
        assert_eq!(a.report.quarantined, b.report.quarantined, "quarantine");
        assert_eq!(a.report.verdicts, b.report.verdicts, "verdicts");
        assert_eq!(a.report.transport, b.report.transport, "TransportStats");
    }
    assert_same_text(
        &sorted_multiset(&first_trace).join("\n"),
        &sorted_multiset(&second_trace).join("\n"),
        "same-seed parallel-verify runs must stitch to the same event multiset",
    );
}
