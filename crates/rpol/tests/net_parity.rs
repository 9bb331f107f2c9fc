//! Socket-transport integration tests (DESIGN.md §14).
//!
//! The centrepiece is the parity contract: the same pool config and fault
//! seed must produce *bit-identical* epoch reports — quarantine sets,
//! transport stats, simulated clock, accuracy — whether the server's epoch
//! body runs against the pool's own workers over in-memory connections
//! (`MiningPool::run`, the simulated network) or against worker clients
//! over real loopback TCP, with the chaos proxy in front of both.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use rpol::adversary::WorkerBehavior;
use rpol::client::ClientTuning;
use rpol::committee::Hierarchy;
use rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};
use rpol::server::{run_socket_pool, BindAddr, PoolServer, ServerConfig, SocketRunOptions};
use rpol::transport::{FaultConfig, FaultProfile};
use rpol::wire::{
    decode_net_control, encode_net_control, seal_frame, FrameAssembler, NetControl, NET_PROTOCOL,
};
use rpol_obs::{Recorder, Value};

/// A fault config aggressive enough that some exchanges exhaust their
/// retry budget (so the parity test exercises quarantine decisions, not
/// just the happy path).
fn aggressive_faults(seed: u64) -> FaultConfig {
    let mut fault = FaultConfig::lossy(seed);
    fault.profile = FaultProfile::harsh();
    fault.policy.max_attempts = 2;
    fault
}

fn quick_tuning() -> ClientTuning {
    ClientTuning {
        read_timeout: Duration::from_millis(5),
        backoff_scale: 0.005,
        ..ClientTuning::default()
    }
}

#[test]
fn hierarchical_socket_run_matches_flat_simulated_run() {
    // The two-tier committee pipeline on the socket server must make the
    // same decisions as the flat in-process reference: the hierarchy
    // changes where verification runs, never what is decided — even when
    // the submissions arrive over real TCP.
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
    ];
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 2;

    let flat = MiningPool::new(config, behaviors.clone()).run();
    let hier_config = config.with_hierarchy(Hierarchy::new(2, 1).expect("valid hierarchy"));
    let socket = run_socket_pool(
        hier_config,
        behaviors,
        SocketRunOptions {
            client: quick_tuning(),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    assert_eq!(flat.epochs.len(), socket.report.epochs.len());
    for (sim, sock) in flat.epochs.iter().zip(&socket.report.epochs) {
        assert_eq!(sim.report.accepted, sock.report.accepted, "accepted set");
        assert_eq!(sim.report.rejected, sock.report.rejected, "rejected set");
        assert_eq!(sim.report.quarantined, sock.report.quarantined);
        assert_eq!(sim.report.verdicts, sock.report.verdicts, "verdicts");
        assert_eq!(sim.report.double_checks, sock.report.double_checks);
        assert_eq!(sim.report.replayed_steps, sock.report.replayed_steps);
        assert_eq!(
            sim.test_accuracy.to_bits(),
            sock.test_accuracy.to_bits(),
            "global model must evolve identically"
        );
        let h = sock.report.hierarchy.expect("hierarchical socket epoch");
        assert_eq!(h.committees, 2);
        assert_eq!(h.verdicts as usize, sim.report.verdicts.len());
        assert!(h.audits > 0, "top tier audited nothing");
        assert_eq!(h.audit_mismatches, 0, "in-process sub-managers are honest");
        assert!(
            sock.report.peak_commit_bytes < sock.report.commit_bytes_hashed,
            "committee streaming should not materialize every commitment"
        );
    }
    assert!(
        flat.rejections() > 0,
        "parity is vacuous without rejections"
    );
}

/// Runs `config` in memory and over loopback TCP behind the chaos proxy,
/// and holds the two to the parity contract.
fn assert_socket_matches_simulated(
    config: PoolConfig,
    behaviors: Vec<WorkerBehavior>,
) -> (PoolReport, rpol::server::SocketRunOutcome) {
    let simulated = MiningPool::new(config, behaviors.clone()).run();
    let socket = run_socket_pool(
        config,
        behaviors,
        SocketRunOptions {
            client: quick_tuning(),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    assert_same_epochs(&simulated, &socket.report);
    (simulated, socket)
}

/// The parity contract: every protocol-visible number of every epoch
/// agrees bit for bit between the in-memory run and the socket run.
fn assert_same_epochs(simulated: &PoolReport, socket: &PoolReport) {
    assert_eq!(simulated.epochs.len(), socket.epochs.len());
    for (sim, sock) in simulated.epochs.iter().zip(&socket.epochs) {
        assert_eq!(sim.report.accepted, sock.report.accepted, "accepted set");
        assert_eq!(sim.report.rejected, sock.report.rejected, "rejected set");
        assert_eq!(
            sim.report.quarantined, sock.report.quarantined,
            "quarantine decisions must be bitwise-identical"
        );
        assert_eq!(
            sim.report.transport, sock.report.transport,
            "TransportStats"
        );
        assert_eq!(
            sim.transport_time, sock.transport_time,
            "simulated clock must accumulate identically"
        );
        assert_eq!(sim.report.comm, sock.report.comm, "CommStats");
        assert_eq!(
            sim.report.commit_bytes_hashed,
            sock.report.commit_bytes_hashed
        );
        assert_eq!(sim.report.double_checks, sock.report.double_checks);
        assert_eq!(sim.report.replayed_steps, sock.report.replayed_steps);
        assert_eq!(
            sim.test_accuracy.to_bits(),
            sock.test_accuracy.to_bits(),
            "global model must evolve identically"
        );
    }
}

fn parity_roster() -> Vec<WorkerBehavior> {
    vec![
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
    ]
}

/// The parity contract under faults harsh enough to exhaust exchanges: the
/// replayer is quarantined or caught, and the chaos proxy's ghost frames
/// really cross the socket.
#[test]
fn socket_run_matches_simulated_run_bit_for_bit() {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 2;
    config = config.with_faults(aggressive_faults(0xC0FFEE));
    let (simulated, socket) = assert_socket_matches_simulated(config, parity_roster());

    assert!(
        simulated.quarantine_events() > 0,
        "fixture must exercise quarantines to be meaningful (got none)"
    );
    // The ghosts the chaos proxy actually wrote crossed the real socket
    // and were rejected by the receivers' checksums.
    let client_corrupt: u64 = socket.clients.iter().map(|c| c.corrupt_frames).sum();
    assert!(
        socket.net.corrupt_frames + client_corrupt > 0,
        "harsh profile must have produced ghost frames on the wire"
    );
}

/// RPoLv3 rides packed frames on all three legs — task broadcast,
/// submission, proof opening — and the socket must still account every
/// one of them exactly as the in-memory run does, on a clean link and on
/// one that drops, corrupts and truncates.
#[test]
fn v3_socket_run_matches_simulated_run_on_ideal_and_lossy_links() {
    for (fault, lossy) in [
        (FaultConfig::ideal(5), false),
        (FaultConfig::lossy(0xB16), true),
    ] {
        let mut config = PoolConfig::tiny_demo(Scheme::RPoLv3);
        config.epochs = 2;
        config = config.with_faults(fault);
        let (simulated, _) = assert_socket_matches_simulated(config, parity_roster());
        assert!(simulated.rejections() > 0, "the replayer must be caught");
        let totals = simulated.transport_totals();
        assert!(totals.bytes_saved > 0, "packed frames must be in play");
        assert_eq!(
            totals.retries > 0,
            lossy,
            "only the lossy fixture retransmits"
        );
    }
}

/// `SwapFinal` and `ForeignStart` over real TCP: every sampled segment of
/// their committed trajectories is honest training, so only the endpoint
/// binding convicts them — and it must do so identically to the in-memory
/// run, exchange for exchange, on a link that drops and corrupts.
#[test]
fn endpoint_cheats_are_rejected_over_loopback_tcp_as_on_the_simulated_link() {
    let behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::SwapFinal,
        WorkerBehavior::ForeignStart,
    ];
    for scheme in [Scheme::RPoLv1, Scheme::RPoLv2, Scheme::RPoLv3] {
        let mut config = PoolConfig::tiny_demo(scheme);
        config.epochs = 2;
        config = config.with_faults(FaultConfig::lossy(0xE2D5));
        let (simulated, socket) = assert_socket_matches_simulated(config, behaviors.clone());
        for (e, record) in simulated.epochs.iter().enumerate() {
            assert_eq!(record.report.accepted, vec![0], "{scheme} epoch {e}");
            assert_eq!(record.report.rejected, vec![1, 2], "{scheme} epoch {e}");
        }
        // A cheat convicted at the binding is never asked for an opening.
        assert_eq!(socket.clients[1].proofs_served, 0, "{scheme}");
        assert_eq!(socket.clients[2].proofs_served, 0, "{scheme}");
    }
}

/// The link's fault semantics hold over TCP as in memory: a worker that
/// crashes in epoch 1 still receives that epoch's task but neither trains
/// nor answers, so the manager charges it one commitment deadline and
/// then finds its task link dead; a 3× straggler is slowed on every leg
/// and still accepted; a 10⁷× straggler times out of every task exchange.
/// The TCP report equals the in-memory one bit for bit, clock included.
#[test]
fn crash_and_straggler_links_fail_alike_over_tcp_and_in_memory() {
    let roster = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::CrashAt {
            epoch: 1,
            after_steps: 2,
        },
        WorkerBehavior::Straggler { slowdown: 3.0 },
        WorkerBehavior::Straggler { slowdown: 1e7 },
        WorkerBehavior::ReplayPrevious,
    ];
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 3;
    config.train_samples = 6 * 40;
    config = config.with_faults(FaultConfig::lossy(0x57A6));
    let (simulated, socket) = assert_socket_matches_simulated(config, roster.clone());

    let quarantined: Vec<Vec<usize>> = simulated
        .epochs
        .iter()
        .map(|e| e.report.quarantined.clone())
        .collect();
    for (e, set) in quarantined.iter().enumerate() {
        assert!(set.contains(&3), "epoch {e}: the slow task link times out");
        assert_eq!(set.contains(&1), e >= 1, "epoch {e}: the crash");
    }
    for record in &simulated.epochs {
        assert!(
            record.report.accepted.contains(&2),
            "the mild straggler passes"
        );
        assert!(
            record.report.rejected.contains(&4),
            "the replayer is caught"
        );
    }
    // A traced run decides alike and records each missed deadline.
    let rec = Arc::new(Recorder::logical());
    let traced = MiningPool::new(config, roster)
        .with_recorder(rec.clone())
        .run();
    assert_same_epochs(&simulated, &traced);
    let deadlines: Vec<_> = rec
        .events()
        .into_iter()
        .filter(|ev| ev.name == "rpol.pool.deadline_miss")
        .map(|ev| ev.fields)
        .collect();
    assert_eq!(
        deadlines,
        [vec![
            ("epoch".to_string(), Value::U64(1)),
            ("worker".to_string(), Value::U64(1))
        ]],
        "one deadline, the crashed worker's, in the crash epoch"
    );
    // Every client stayed connected; the slow one never got a task through.
    assert!(socket.clients.iter().all(|c| c.clean_shutdown));
    assert_eq!(socket.clients[3].epochs_trained, 0);
}

/// Byte accounting under RPoLv3: the socket charges exactly the task
/// payloads it framed — one packed block behind each worker's header —
/// and the in-process pool, which builds no block, charges that block's
/// length all the same; so `comm` agrees leg by leg, frame headers aside.
/// The saving is counted once per task and the block encoded once an epoch.
#[test]
fn v3_broadcast_charges_the_packed_block_once_per_worker() {
    use rpol::pool::Lattice;
    use rpol::wire::{block_len, decode_epoch_task, TaskBlock};

    let behaviors = parity_roster();
    let n = behaviors.len() as u64;
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv3);
    config.epochs = 1;

    // Epoch 0 broadcasts the initial model, which a fresh pool exposes.
    let fresh = MiningPool::new(config, behaviors.clone());
    let global = fresh.manager().global_weights().to_vec();
    let dim = global.len() as u64;
    let lattice = rpol_tensor::quant::bf16_image(&global);
    let block = TaskBlock::new(Lattice::Bf16, &lattice);
    let payload = block.frame(0, 0, config.steps_per_epoch as u32);
    assert_eq!(
        block.bytes_saved(),
        // Against raw f32 framing: a length prefix and 4 bytes a weight.
        (21 + 4 + 4 * global.len() - payload.len()) as u64
    );
    assert_eq!(
        decode_epoch_task(&mut payload.clone())
            .expect("decodes")
            .global_weights,
        lattice
    );
    // The wire adds its 21-byte header to the block, whose hi plane is a
    // nibble a weight: under 1.6 bytes per weight all told, not 2.
    let block_len = block_len(Lattice::Bf16, &lattice) as u64;
    assert_eq!(payload.len() as u64, 21 + block_len);
    assert!(block_len * 10 < dim * 16, "{block_len} B for {dim} weights");

    let in_process = MiningPool::new(config, behaviors.clone()).run();
    let direct = in_process.epochs[0].report.comm;
    assert_eq!(direct.broadcast_bytes, n * block_len);

    let rec = Arc::new(Recorder::logical());
    let socket = run_socket_pool(
        config.with_faults(FaultConfig::ideal(5)),
        behaviors,
        SocketRunOptions {
            client: quick_tuning(),
            recorder: Some(rec.clone()),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");
    let report = &socket.report.epochs[0].report;
    assert_eq!(report.comm.broadcast_bytes, n * payload.len() as u64);
    // Socket ≡ in-process on every leg: a task frame adds its header, a
    // submission frame its tag, its scheme byte and the commitment's two
    // counts, an opening is charged by the same function of the same image.
    assert_eq!(report.comm.broadcast_bytes, direct.broadcast_bytes + n * 21);
    assert_eq!(
        report.comm.submission_bytes,
        direct.submission_bytes + n * (1 + 1 + 4 + 4)
    );
    assert!(direct.proof_bytes > 0, "the fixture must open checkpoints");
    assert_eq!(report.comm.proof_bytes, direct.proof_bytes);
    // Submissions and openings save bytes too; the tasks' share is exact.
    assert!(report.transport.bytes_saved >= n * block.bytes_saved());
    let no_tasks = report.transport.bytes_saved - n * block.bytes_saved();
    assert!(no_tasks > 0, "submissions and openings are packed as well");
    assert_eq!(
        rec.snapshot().counter("rpol.wire.task_blocks_encoded"),
        config.epochs as u64,
        "one weight block per epoch, whatever the roster size"
    );
}

#[test]
fn sixty_five_workers_full_epoch_over_loopback() {
    let n = 65;
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    config.epochs = 1;
    config.steps_per_epoch = 2;
    config.q_samples = 1;
    config.train_samples = (n + 1) * 4;
    config.test_samples = 16;

    let outcome = run_socket_pool(
        config,
        vec![WorkerBehavior::Honest; n],
        SocketRunOptions {
            server: ServerConfig {
                parallel_verify: true,
                ..ServerConfig::default()
            },
            client: quick_tuning(),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    assert_eq!(outcome.report.epochs.len(), 1);
    let epoch = &outcome.report.epochs[0];
    assert_eq!(
        epoch.report.accepted.len(),
        n,
        "all honest workers accepted"
    );
    assert!(epoch.report.rejected.is_empty());
    assert!(epoch.report.quarantined.is_empty());
    assert!(
        outcome.net.handshakes >= n as u64,
        "one handshake per worker"
    );
    assert_eq!(outcome.clients.len(), n);
    for client in &outcome.clients {
        assert!(
            client.clean_shutdown,
            "worker {} saw no shutdown",
            client.worker_id
        );
        assert_eq!(client.epochs_trained, 1);
        assert!(client.storage_bytes > 0, "checkpoints live client-side");
    }
    assert_eq!(outcome.report.worker_storage_bytes, 0);
}

#[test]
fn load_shedding_quarantines_over_budget_submissions() {
    let n = 3;
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    config.epochs = 1;

    let outcome = run_socket_pool(
        config,
        vec![WorkerBehavior::Honest; n],
        SocketRunOptions {
            server: ServerConfig {
                max_inflight: 0, // shed everything
                ..ServerConfig::default()
            },
            client: quick_tuning(),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    let epoch = &outcome.report.epochs[0];
    assert!(epoch.report.accepted.is_empty(), "everything was shed");
    assert!(
        epoch.report.rejected.is_empty(),
        "shed is quarantine, not conviction"
    );
    assert_eq!(epoch.report.quarantined.len(), n);
    assert_eq!(outcome.net.shed_submissions, n as u64);
    let busy: u64 = outcome.clients.iter().map(|c| c.busy_rejects).sum();
    assert_eq!(busy, n as u64, "every client heard Busy {{ Shedding }}");
}

/// Writes one sealed control frame and reads one back (tiny blocking
/// helper for the raw-socket tests).
fn send_control(stream: &mut TcpStream, msg: &NetControl) {
    let framed = seal_frame(&encode_net_control(msg));
    stream.write_all(&framed).expect("write frame");
}

fn read_control(stream: &mut TcpStream) -> NetControl {
    let mut asm = FrameAssembler::new(1 << 20);
    let mut chunk = [0u8; 256];
    loop {
        let k = stream.read(&mut chunk).expect("read frame");
        assert!(k > 0, "peer closed before a frame arrived");
        asm.push(&chunk[..k]);
        if let Some(mut payload) = asm.next_frame().expect("clean frame") {
            return decode_net_control(&mut payload).expect("control frame");
        }
    }
}

#[test]
fn slowloris_is_swept_and_oldest_idle_is_evicted() {
    let config = PoolConfig::tiny_demo(Scheme::Baseline);
    let pool = MiningPool::new(config, vec![WorkerBehavior::Honest]);
    let server = PoolServer::bind(
        pool,
        &BindAddr::loopback(),
        ServerConfig {
            max_connections: 1,
            handshake_timeout: Duration::from_millis(50),
            evict_min_idle: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A slowloris peer: connects, never says Hello. The sweep must close
    // it at the handshake deadline (driven by wait_for_workers' pumping).
    let _silent = TcpStream::connect(&addr).expect("connect");
    let err = server
        .wait_for_workers(1, Duration::from_millis(300))
        .expect_err("nobody handshakes");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(
        server.net_stats().handshake_timeouts >= 1,
        "silent connection must be swept: {:?}",
        server.net_stats()
    );

    // An established connection at the cap: the newcomer wins because the
    // incumbent is idle past the (zero) eviction threshold.
    let mut first = TcpStream::connect(&addr).expect("connect first");
    send_control(
        &mut first,
        &NetControl::Hello {
            worker: 0,
            protocol: NET_PROTOCOL,
        },
    );
    server
        .wait_for_workers(1, Duration::from_secs(2))
        .expect("first handshake");
    assert!(matches!(
        read_control(&mut first),
        NetControl::Welcome { .. }
    ));

    let mut second = TcpStream::connect(&addr).expect("connect second");
    send_control(
        &mut second,
        &NetControl::Hello {
            worker: 0,
            protocol: NET_PROTOCOL,
        },
    );
    server
        .wait_for_workers(1, Duration::from_secs(2))
        .expect("second handshake");
    assert!(matches!(
        read_control(&mut second),
        NetControl::Welcome { .. }
    ));
    assert!(
        server.net_stats().evicted >= 1,
        "the idle incumbent must have been evicted: {:?}",
        server.net_stats()
    );
}

#[test]
fn pool_full_refusal_when_nothing_is_idle_enough() {
    let config = PoolConfig::tiny_demo(Scheme::Baseline);
    let pool = MiningPool::new(config, vec![WorkerBehavior::Honest]);
    let server = PoolServer::bind(
        pool,
        &BindAddr::loopback(),
        ServerConfig {
            max_connections: 1,
            evict_min_idle: Duration::from_secs(3600), // nothing evictable
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut first = TcpStream::connect(&addr).expect("connect first");
    send_control(
        &mut first,
        &NetControl::Hello {
            worker: 0,
            protocol: NET_PROTOCOL,
        },
    );
    server
        .wait_for_workers(1, Duration::from_secs(2))
        .expect("first handshake");
    assert!(matches!(
        read_control(&mut first),
        NetControl::Welcome { .. }
    ));

    let mut second = TcpStream::connect(&addr).expect("connect second");
    // Pump until the newcomer has been refused.
    let _ = server.wait_for_workers(2, Duration::from_millis(300));
    assert!(
        server.net_stats().busy_rejects >= 1,
        "newcomer must be refused at the cap: {:?}",
        server.net_stats()
    );
    assert!(matches!(read_control(&mut second), NetControl::Busy { .. }));
}

#[test]
fn exported_net_counters_equal_final_net_stats() {
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    config.epochs = 2;
    config = config.with_faults(FaultConfig::lossy(0xBEEF));
    let rec = Arc::new(Recorder::logical());

    let outcome = run_socket_pool(
        config,
        vec![WorkerBehavior::Honest; 2],
        SocketRunOptions {
            client: quick_tuning(),
            recorder: Some(rec.clone()),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    // The per-epoch `net.*` deltas must sum to exactly the final socket
    // counters — same invariant the pool's rpol.* exports already keep.
    let snapshot = rec.snapshot();
    let net = outcome.net;
    let expected: &[(&str, u64)] = &[
        ("net.accepted", net.accepted),
        ("net.handshakes", net.handshakes),
        ("net.busy_rejects", net.busy_rejects),
        ("net.shed_submissions", net.shed_submissions),
        ("net.evicted", net.evicted),
        ("net.handshake_timeouts", net.handshake_timeouts),
        ("net.idle_closed", net.idle_closed),
        ("net.disconnects", net.disconnects),
        ("net.frames_in", net.frames_in),
        ("net.frames_out", net.frames_out),
        ("net.bytes_in", net.bytes_in),
        ("net.bytes_out", net.bytes_out),
        ("net.corrupt_frames", net.corrupt_frames),
        ("net.malformed_frames", net.malformed_frames),
        ("net.heartbeats", net.heartbeats),
        ("net.buf_pool_hits", net.buf_pool_hits),
        ("net.buf_pool_misses", net.buf_pool_misses),
        ("net.buf_pool_bytes_reused", net.buf_pool_bytes_reused),
        ("net.reactor_fallbacks", net.reactor_fallbacks),
    ];
    for &(name, want) in expected {
        assert_eq!(
            snapshot.counter(name),
            want,
            "exported {name} diverges from the server's own totals"
        );
    }
    // And the prefix view exposes the whole family (epoch_ms rides a
    // histogram, not a counter, so it is not in this list).
    let family = snapshot.counters_with_prefix("net.");
    assert_eq!(family.len(), expected.len());
}

#[test]
fn single_frame_budget_still_completes_an_epoch() {
    // The stingiest legal frame budget: one frame per connection per
    // sweep. A client's handshake and submission burst must still drain
    // — frames parked in the assembler parse on later sweeps without the
    // peer sending another byte — so the epoch completes identically.
    let n = 3;
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
    config.epochs = 1;

    let outcome = run_socket_pool(
        config,
        vec![WorkerBehavior::Honest; n],
        SocketRunOptions {
            server: ServerConfig {
                max_frames_per_conn_per_pump: 1,
                ..ServerConfig::default()
            },
            client: quick_tuning(),
            ..SocketRunOptions::default()
        },
    )
    .expect("socket run");

    let epoch = &outcome.report.epochs[0];
    assert_eq!(
        epoch.report.accepted.len(),
        n,
        "all honest workers accepted"
    );
    assert!(epoch.report.rejected.is_empty());
    assert!(epoch.report.quarantined.is_empty());
}

#[test]
fn pre_buffered_frame_burst_drains_across_sweeps() {
    let config = PoolConfig::tiny_demo(Scheme::Baseline);
    let pool = MiningPool::new(config, vec![WorkerBehavior::Honest]);
    let server = PoolServer::bind(
        pool,
        &BindAddr::loopback(),
        ServerConfig {
            max_frames_per_conn_per_pump: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    send_control(
        &mut stream,
        &NetControl::Hello {
            worker: 0,
            protocol: NET_PROTOCOL,
        },
    );
    server
        .wait_for_workers(1, Duration::from_secs(2))
        .expect("handshake");
    assert!(matches!(
        read_control(&mut stream),
        NetControl::Welcome { .. }
    ));

    // Nine pings in one burst: the first sweep reads them all off the
    // socket but may only parse two. Keep pumping WITHOUT writing
    // another byte — the leftovers must drain from the assembler alone.
    let pings = 9u64;
    let mut burst = Vec::new();
    for nonce in 0..pings {
        burst.extend_from_slice(&seal_frame(&encode_net_control(&NetControl::Ping {
            nonce,
        })));
    }
    stream.write_all(&burst).expect("write burst");
    // Alternate short reactor sweeps with non-blocking-ish reads: the
    // heartbeat counter ticks when a ping parses, but its pong may still
    // be queued outbound until a later sweep flushes it — so pumping has
    // to continue while the pongs are read back. Several pongs can share
    // one TCP segment, so reassembly goes through the wire assembler.
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut assembler = FrameAssembler::new(1 << 16);
    let mut pongs = Vec::new();
    let mut chunk = [0u8; 512];
    while (pongs.len() as u64) < pings {
        assert!(
            std::time::Instant::now() < deadline,
            "pre-buffered pings never fully drained: {} pongs, {:?}",
            pongs.len(),
            server.net_stats()
        );
        // Pumps the reactor for ~20ms (the target of 2 workers is never
        // reached; only the sweeps matter here).
        let _ = server.wait_for_workers(2, Duration::from_millis(20));
        match stream.read(&mut chunk) {
            Ok(0) => panic!("peer closed before every pong arrived"),
            Ok(k) => assembler.push(&chunk[..k]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("read failed: {e}"),
        }
        while let Some(mut payload) = assembler.next_frame().expect("clean frames") {
            match decode_net_control(&mut payload).expect("control frame") {
                NetControl::Pong { nonce } => pongs.push(nonce),
                other => panic!("expected pong, got {other:?}"),
            }
        }
    }
    assert_eq!(server.net_stats().heartbeats, pings);
    // Every ping got its pong back over the socket, in nonce order.
    assert_eq!(pongs, (0..pings).collect::<Vec<_>>());
}

#[test]
fn readiness_reactor_matches_simulated_run_at_1024_connections() {
    // With the same seed, harsh faults, an adversary in the roster, and
    // 1024 sockets on the reactor (16 real workers + 1008 idle
    // connections the readiness pump must skip), the socket run must be
    // indistinguishable from the simulated link in every protocol-visible
    // way — classification sets, transport accounting, the global model.
    let n = 16;
    let idle = 1008;
    let mut behaviors = vec![WorkerBehavior::Honest; n];
    behaviors[5] = WorkerBehavior::ReplayPrevious;
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = 1;
    config.train_samples = (n + 1) * 4;
    config.test_samples = 16;
    config = config.with_faults(aggressive_faults(0xFACADE));
    let simulated = MiningPool::new(config, behaviors.clone()).run();

    let pool = MiningPool::new(config, behaviors.clone());
    let server_cfg = ServerConfig {
        // The idle floor must never be swept or evicted: timeout churn
        // would make accept/disconnect counters timing-dependent.
        max_connections: 4096,
        handshake_timeout: Duration::from_secs(3600),
        idle_timeout: Duration::from_secs(3600),
        ..ServerConfig::default()
    };
    let mut server = PoolServer::bind(pool, &BindAddr::loopback(), server_cfg).expect("bind");
    let addr = server.local_addr();

    // Raw idle connections, opened by a side thread while the main
    // thread pumps the reactor (the listener backlog is far smaller than
    // the floor, so accepting must interleave with connecting).
    let idle_thread = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            (0..idle)
                .map(|_| TcpStream::connect(&addr).expect("idle connect"))
                .collect::<Vec<TcpStream>>() // held open until joined after the run
        })
    };
    while !idle_thread.is_finished() {
        // Target above the roster size: never met, pumps for 20ms.
        let _ = server.wait_for_workers(n + 1, Duration::from_millis(20));
    }

    let tuning = ClientTuning {
        heartbeat_interval: Duration::from_secs(3600),
        ..quick_tuning()
    };
    let handles: Vec<_> = MiningPool::build_workers(config, &behaviors)
        .into_iter()
        .map(|worker| {
            let addr = addr.clone();
            let tuning = tuning.clone();
            std::thread::spawn(move || {
                rpol::client::WorkerClient::new(config, worker, addr, tuning).run()
            })
        })
        .collect();
    let socket = server.run().expect("socket run");
    let net = server.net_stats();
    for h in handles {
        h.join().expect("client thread");
    }
    drop(idle_thread.join().expect("idle connector"));
    assert_eq!(
        net.reactor_fallbacks,
        u64::from(!cfg!(all(target_os = "linux", target_arch = "x86_64"))),
        "the readiness pump ran wherever the platform has epoll"
    );

    assert_same_epochs(&simulated, &socket);
    assert_eq!(
        net.accepted,
        (n + idle) as u64,
        "the idle floor and every worker were accepted"
    );
    assert!(
        net.corrupt_frames > 0,
        "harsh faults must put ghosts on the wire"
    );
    assert!(
        !socket.epochs[0].report.quarantined.is_empty()
            || !socket.epochs[0].report.rejected.is_empty(),
        "fixture must exercise non-accept classifications"
    );
}

/// A peer that speaks the framing but not the protocol: handshakes as
/// `worker`, and answers each epoch's task with `forge(epoch, global)` as
/// its submission payload. Returns when the server says shutdown.
fn hostile_submitter(
    addr: String,
    worker: u32,
    forge: impl Fn(u64, &[f32]) -> bytes::Bytes + Send + 'static,
) -> std::thread::JoinHandle<()> {
    use rpol::wire::{classify_payload, decode_epoch_task, split_traced, PayloadClass};
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        send_control(
            &mut stream,
            &NetControl::Hello {
                worker,
                protocol: NET_PROTOCOL,
            },
        );
        let mut assembler = FrameAssembler::new(1 << 22);
        let mut chunk = [0u8; 8192];
        loop {
            let k = stream.read(&mut chunk).expect("read");
            assert!(k > 0, "server closed before shutdown");
            assembler.push(&chunk[..k]);
            while let Some(payload) = assembler.next_frame().expect("clean frames") {
                let (_, mut payload) = split_traced(payload);
                match classify_payload(&payload) {
                    PayloadClass::EpochTask => {
                        let task = decode_epoch_task(&mut payload).expect("task decodes");
                        let forged = forge(task.epoch, &task.global_weights);
                        stream.write_all(&seal_frame(&forged)).expect("write");
                    }
                    PayloadClass::Control => {
                        if let Ok(NetControl::Shutdown) = decode_net_control(&mut payload) {
                            return;
                        }
                    }
                    other => panic!("a rejected worker was sent {other:?}"),
                }
            }
        }
    })
}

/// Hostile submission *shapes* over the real socket: each decodes cleanly
/// (the codec checks framing, not meaning), so each reaches the manager —
/// which must reject the worker before anything indexes the submission.
/// At a73d092 the first of these killed the server on
/// `.expect("verified schemes commit")`; a short commitment reached the
/// verifier's `assert!(j + 1 < commitment.len())`, and a short weight
/// vector that got as far as `accept` was `zip`-truncated into the
/// aggregate.
#[test]
fn hostile_submission_shapes_are_rejected_over_the_socket_never_a_panic() {
    use rpol::commitment::EpochCommitment;
    use rpol::wire::encode_submission;

    for scheme in [Scheme::RPoLv1, Scheme::RPoLv2, Scheme::RPoLv3] {
        let mut config = PoolConfig::tiny_demo(scheme);
        config.epochs = 4;
        let behaviors = vec![WorkerBehavior::Honest; 2];
        let pool = MiningPool::new(config, behaviors.clone());
        let mut server =
            PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
        let addr = server.local_addr();

        let honest = {
            let worker = MiningPool::build_workers(config, &behaviors).remove(0);
            let addr = addr.clone();
            std::thread::spawn(move || {
                rpol::client::WorkerClient::new(config, worker, addr, quick_tuning()).run()
            })
        };
        let hostile = hostile_submitter(addr, 1, |epoch, global| {
            let checkpoints = |n: usize| vec![global.to_vec(); n];
            match epoch {
                // No commitment at all under a verifying scheme.
                0 => encode_submission(global, None),
                // A commitment too short to hold any sampled segment.
                1 => encode_submission(global, Some(&EpochCommitment::commit_v1(&checkpoints(1)))),
                // The right kind for v1, one checkpoint short.
                2 => encode_submission(global, Some(&EpochCommitment::commit_v1(&checkpoints(2)))),
                // A well-committed vector of the wrong length.
                _ => encode_submission(
                    &global[..global.len() / 2],
                    Some(&EpochCommitment::commit_v1(&checkpoints(3))),
                ),
            }
        });

        let report = server.run().expect("server run");
        hostile.join().expect("hostile peer finished cleanly");
        assert!(honest.join().expect("honest client").clean_shutdown);
        for (e, record) in report.epochs.iter().enumerate() {
            let r = &record.report;
            assert_eq!(r.accepted, vec![0], "{scheme} epoch {e}: {r:?}");
            assert_eq!(r.rejected, vec![1], "{scheme} epoch {e}: {r:?}");
            assert!(r.quarantined.is_empty(), "{scheme} epoch {e}");
            let verdict = &r.verdicts[1].1;
            assert_eq!((verdict.proof_bytes, verdict.replayed_steps), (0, 0));
        }
    }
}

/// Packed blocks the decoder must refuse, over the real socket: the
/// retired V1 layout's version byte, a dictionary longer than a nibble
/// can index, a well-formed raw plane where the encoder would have
/// written the dictionary (a second encoding of one image), and an f32
/// block under the v3 scheme byte. Each costs its sender the epoch —
/// quarantined at ingest, nothing replayed — while the server keeps
/// serving the honest peer and shuts both down cleanly.
#[test]
fn retired_and_malformed_packed_blocks_are_refused_over_the_socket() {
    use rpol::wire::{
        encode_proof_response, encode_proof_response_packed, packed_hi_plane, HiPlane,
    };

    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv3);
    config.epochs = 4;
    let behaviors = vec![WorkerBehavior::Honest; 2];
    let pool = MiningPool::new(config, behaviors.clone());
    let mut server =
        PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let honest = {
        let worker = MiningPool::build_workers(config, &behaviors).remove(0);
        let addr = addr.clone();
        std::thread::spawn(move || {
            rpol::client::WorkerClient::new(config, worker, addr, quick_tuning()).run()
        })
    };
    let hostile = hostile_submitter(addr, 1, |epoch, global| {
        // The honest block for the model the task carried, behind a
        // submission's tag and the v3 scheme byte; the decoder never gets
        // past the block.
        let opening = encode_proof_response_packed(0, global);
        assert!(matches!(
            packed_hi_plane(&opening),
            Some(HiPlane::Dict { .. })
        ));
        let mut forged = vec![0x05, Scheme::RPoLv3.spec().wire];
        match epoch {
            0 => {
                forged.extend_from_slice(&opening[5..]);
                forged[2] = 1; // PACKED_WEIGHTS_V1
            }
            1 => {
                forged.extend_from_slice(&opening[5..]);
                forged[2 + 6] = 16; // table_len
            }
            2 => {
                forged.push(2);
                forged.extend_from_slice(&(global.len() as u32).to_le_bytes());
                forged.push(0); // HI_PLANE_RAW
                forged.extend(global.iter().map(|w| (w.to_bits() >> 24) as u8));
                forged.extend(global.iter().map(|w| (w.to_bits() >> 16) as u8));
            }
            _ => forged.extend_from_slice(&encode_proof_response(0, global)[5..]),
        }
        assert!(rpol::wire::decode_submission(forged.clone().into()).is_err());
        forged.into()
    });

    let report = server.run().expect("server run");
    hostile.join().expect("hostile peer finished cleanly");
    assert!(honest.join().expect("honest client").clean_shutdown);
    for (e, record) in report.epochs.iter().enumerate() {
        let r = &record.report;
        assert_eq!(r.accepted, vec![0], "epoch {e}: {r:?}");
        assert_eq!(r.quarantined, vec![1], "epoch {e}: {r:?}");
        assert!(r.rejected.is_empty(), "epoch {e}");
    }
}

/// The server's own fault draws decide whether a submission arrived, not
/// the peer: a raw peer that skips the chaos proxy and writes a pristine
/// frame for an exchange the server's draws exhaust is quarantined, and the
/// failure its `TransportStats` count is that quarantine. At the parent of
/// this check a debug server panicked on the pristine frame, and a release
/// server accepted the submission it counted as failed.
#[test]
fn a_pristine_submission_the_servers_draws_lose_is_quarantined() {
    use rpol::pool::Lattice;
    use rpol::transport::{MsgKind, RetryPolicy, Transport, TransportStats};
    use rpol::wire::{encode_submission, TaskBlock};
    use rpol_sim::SimClock;

    let mut config = PoolConfig::tiny_demo(Scheme::Baseline);
    config.epochs = 1;
    let behaviors = vec![WorkerBehavior::Honest; 2];
    let global = MiningPool::new(config, behaviors.clone())
        .manager()
        .global_weights()
        .to_vec();
    // What each side puts on the wire: a task frame each, and a bare
    // submission from each (honest or forged). A drop-only profile draws
    // by exchange, not by length, so the forged one's length stands for
    // both submissions.
    let task_len = TaskBlock::new(Lattice::F32, &global)
        .frame(0, 0, config.steps_per_epoch as u32)
        .len();
    let forged = encode_submission(&global, None);
    // A fault seed under which both tasks and the honest submission cross
    // on their one attempt, and the hostile worker's submission does not.
    let outcome = |fault: &FaultConfig, w: usize, kind: MsgKind, len: usize| {
        Transport::new(fault)
            .chaos_outcome(
                0,
                w,
                kind,
                0,
                len,
                rpol::transport::LinkState::healthy(),
                &mut TransportStats::default(),
                &mut SimClock::new(),
                rpol_obs::noop(),
            )
            .is_ok()
    };
    let fault = (0u64..)
        .map(|seed| FaultConfig {
            profile: FaultProfile {
                drop_prob: 0.5,
                ..FaultProfile::ideal()
            },
            policy: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..FaultConfig::lossy(seed)
        })
        .find(|fault| {
            outcome(fault, 0, MsgKind::Task, task_len)
                && outcome(fault, 1, MsgKind::Task, task_len)
                && outcome(fault, 0, MsgKind::Submission, forged.len())
                && !outcome(fault, 1, MsgKind::Submission, forged.len())
        })
        .expect("a seed loses only the hostile submission");
    let config = config.with_faults(fault);

    let pool = MiningPool::new(config, behaviors.clone());
    let mut server =
        PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let honest = {
        let worker = MiningPool::build_workers(config, &behaviors).remove(0);
        let addr = addr.clone();
        std::thread::spawn(move || {
            rpol::client::WorkerClient::new(config, worker, addr, quick_tuning()).run()
        })
    };
    let hostile = hostile_submitter(addr, 1, move |_, _| forged.clone());
    let report = server.run().expect("server run");
    hostile.join().expect("hostile peer finished cleanly");
    let honest = honest.join().expect("honest client");
    assert!(honest.clean_shutdown);

    let epoch = &report.epochs[0].report;
    assert_eq!(epoch.accepted, vec![0]);
    assert_eq!(epoch.quarantined, vec![1], "lost by the server's own draws");
    assert_eq!(epoch.transport.failures, 1, "the one failure is that loss");
    // The honest submission is charged — its one frame, header aside —
    // and the lost one is not.
    assert_eq!(
        (honest.transport.exchanges, honest.transport.attempts),
        (1, 1)
    );
    assert_eq!(
        epoch.comm.submission_bytes,
        honest.transport.wire_bytes - rpol::wire::seal_frame(&bytes::Bytes::new()).len() as u64
    );
}
