//! The worker side of the socket service (DESIGN.md §14): a
//! [`WorkerClient`] owns one [`PoolWorker`], connects to the manager's
//! [`PoolServer`](crate::server::PoolServer), and serves the epoch
//! protocol — train on delivered tasks, commit and upload at the epoch's
//! `CommitSpec`, answer sampled-proof openings — over a blocking stream
//! with read timeouts. The protocol itself is a sans-IO `WorkerSession`,
//! which the in-process link drives over in-memory connections too
//! ([`MiningPool::run_epoch`](crate::pool::MiningPool::run_epoch)).
//!
//! # Robustness
//!
//! * **Reconnects** — a dropped or refused connection is retried with
//!   the shared [`RetryPolicy`]'s capped exponential backoff (scaled to
//!   real time by [`ClientTuning::backoff_scale`]).
//! * **Heartbeats** — an idle link sends [`NetControl::Ping`] so the
//!   server's slowloris sweep never mistakes a healthy-but-quiet worker
//!   for a dead one.
//! * **Chaos proxy** — every protocol upload runs through
//!   [`Transport::chaos_send`]: ghost frames are written for the server's
//!   assembler to reject, then the pristine frame — always, even when the
//!   worker's own draws exhausted the retry budget. The server's draws,
//!   the same keyed function over the same length from its own copy of
//!   the seed, decide whether it arrived; the worker's decide only which
//!   ghosts precede the frame, and fill `ClientReport::transport`.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::manager::count_hi_plane;
use crate::pool::{Lattice, PoolConfig, Scheme};
use crate::server::NetStream;
use crate::transport::{link_state, FaultConfig, MsgKind, RetryPolicy, Transport, TransportStats};
use crate::verify::ProofProvider;
use crate::wire::{
    self, BusyReason, EpochTask, FamilySpec, FrameAssembler, NetControl, PayloadClass,
};
use crate::worker::{CommitMode, PoolWorker};
use rpol_lsh::{LshFamily, LshParams};
use rpol_obs::{Recorder, TraceContext, Value};
use rpol_sim::SimClock;
use rpol_tensor::scratch;
use std::sync::Arc;

/// TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// A handshake not answered within this deadline is retried.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Client-side timeouts and reconnect policy.
#[derive(Debug, Clone)]
pub struct ClientTuning {
    /// Reconnect backoff schedule (shares the transport's capped
    /// exponential [`RetryPolicy::backoff_s`]).
    pub retry: RetryPolicy,
    /// Multiplier turning the policy's simulated backoff seconds into
    /// real sleep seconds (tests want fast reconnects).
    pub backoff_scale: f64,
    /// Poll tick: how long a blocking read waits before the idle path
    /// (heartbeats, shutdown checks) runs.
    pub read_timeout: Duration,
    /// Send a [`NetControl::Ping`] after this much link silence.
    pub heartbeat_interval: Duration,
}

impl Default for ClientTuning {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            backoff_scale: 0.02,
            read_timeout: Duration::from_millis(25),
            heartbeat_interval: Duration::from_secs(5),
        }
    }
}

/// What one worker's client session amounted to.
#[derive(Debug, Clone, Default)]
pub struct ClientReport {
    /// The worker's pool id.
    pub worker_id: usize,
    /// Successful connections beyond the first.
    pub reconnects: u64,
    /// Pings sent.
    pub heartbeats: u64,
    /// `Busy` frames received (either reason).
    pub busy_rejects: u64,
    /// Epoch tasks trained.
    pub epochs_trained: u64,
    /// Proof openings answered.
    pub proofs_served: u64,
    /// Frames rejected by the checksum (the server's chaos ghosts).
    pub corrupt_frames: u64,
    /// Checkpoint bytes held at exit (§VII-E storage overhead).
    pub storage_bytes: u64,
    /// Sender-side chaos accounting (submission and proof-response legs).
    pub transport: TransportStats,
    /// The server said [`NetControl::Shutdown`] (as opposed to the client
    /// giving up on reconnects).
    pub clean_shutdown: bool,
}

/// The worker's commitment discipline for the current epoch, derived
/// lazily from the latest [`NetControl::CommitSpec`].
struct SpecState {
    epoch: u64,
    scheme: Scheme,
    family_spec: Option<FamilySpec>,
    /// Keyed on first use per `(epoch, dim)`: the family the manager
    /// derives, its `k·l` offsets; the projection rows are derived inside
    /// the one commitment hash.
    family: Option<LshFamily>,
}

/// An epoch trained and not yet committed: protocol 3 sends the epoch's
/// `CommitSpec` after its task, so the checkpoints wait here for it.
struct Trained {
    epoch: u64,
    checkpoints: Vec<Vec<f32>>,
    /// The server's trace context re-parented onto the train span, when
    /// the task carried one.
    ctx: Option<TraceContext>,
}

/// A worker-bound frame, as [`WorkerSession::receive`] classifies it.
pub(crate) enum Inbound {
    /// A control message. `CommitSpec` and `ProofSeq` have already updated
    /// the session — a `CommitSpec` is then answered by
    /// [`WorkerSession::commit`]; the rest (Welcome, Busy, Shutdown, …) are
    /// the caller's.
    Control(NetControl),
    /// An epoch task to train, with the server's trace context.
    Task(EpochTask, Option<TraceContext>),
    /// A sampled checkpoint to open, with the server's trace context.
    ProofRequest(usize, Option<TraceContext>),
    /// Malformed, or not meant for a worker: dropped, connection kept.
    Ignored,
}

/// The worker's half of the protocol, without I/O: the trained epoch
/// awaiting its spec, the commitment discipline, the proof sequence number
/// and the sender-side chaos accounting of one worker, fed one frame at a
/// time. A [`WorkerClient`] drives it over a socket; the in-process link
/// drives it over an in-memory connection. It takes the [`PoolWorker`] it
/// speaks for by reference — mutably to train and commit, shared to open —
/// and answers with the frames to write.
pub(crate) struct WorkerSession {
    task: crate::tasks::TaskConfig,
    /// The pool's scheme: its lattice is what a task trains on, before the
    /// epoch's spec has arrived.
    scheme: Scheme,
    transport: Transport,
    /// Spans, propagated trace contexts and the sender's fault draws.
    trace: Arc<Recorder>,
    /// How each packed block this worker encodes coded its hi plane.
    counters: Arc<Recorder>,
    /// The latest CommitSpec: what the trained epoch commits in, and what
    /// an opening encodes for.
    spec: SpecState,
    /// The last task trained, until a `CommitSpec` takes it.
    trained: Option<Trained>,
    proof_seq: u64,
    /// Sender-side chaos accounting (submission and proof-response legs).
    pub(crate) stats: TransportStats,
    clock: SimClock,
}

impl WorkerSession {
    /// A session for a worker of the pool `config` describes. The chaos
    /// proxy is seeded from the pool config exactly like the server's, so
    /// both sides draw identical fault outcomes.
    pub(crate) fn new(config: &PoolConfig, trace: Arc<Recorder>, counters: Arc<Recorder>) -> Self {
        let fault = config
            .fault
            .unwrap_or_else(|| FaultConfig::ideal(config.seed));
        Self {
            task: config.task,
            scheme: config.scheme,
            transport: Transport::new(&fault),
            trace,
            counters,
            spec: SpecState {
                epoch: 0,
                scheme: Scheme::Baseline,
                family_spec: None,
                family: None,
            },
            trained: None,
            proof_seq: 0,
            stats: TransportStats::default(),
            clock: SimClock::new(),
        }
    }

    /// The sealed handshake a connection opens with.
    pub(crate) fn hello(worker: usize) -> Bytes {
        wire::seal_frame(&wire::encode_net_control(&NetControl::Hello {
            worker: worker as u32,
            protocol: wire::NET_PROTOCOL,
        }))
    }

    /// Classifies one opened frame, stripping the server's optional trace
    /// extension first (all decoding sees the inner payload, identical to
    /// an untraced run), and absorbs `CommitSpec` / `ProofSeq`.
    pub(crate) fn receive(&mut self, payload: Bytes) -> Inbound {
        let (tctx, mut payload) = wire::split_traced(payload);
        match wire::classify_payload(&payload) {
            PayloadClass::Control => {
                let msg = wire::decode_net_control(&mut payload);
                scratch::put(Vec::from(payload));
                let Ok(msg) = msg else {
                    return Inbound::Ignored;
                };
                match msg {
                    NetControl::CommitSpec {
                        epoch,
                        scheme,
                        family,
                    } => {
                        self.spec = SpecState {
                            epoch,
                            scheme,
                            family_spec: family,
                            family: None,
                        };
                    }
                    NetControl::ProofSeq { seq } => self.proof_seq = seq,
                    _ => {}
                }
                Inbound::Control(msg)
            }
            PayloadClass::EpochTask => {
                let task = wire::decode_epoch_task(&mut payload);
                scratch::put(Vec::from(payload));
                match task {
                    Ok(task) => Inbound::Task(task, tctx),
                    Err(_) => Inbound::Ignored,
                }
            }
            PayloadClass::ProofRequest => match wire::decode_proof_request(payload) {
                Ok(samples) => samples.first().map_or(Inbound::Ignored, |&sample| {
                    Inbound::ProofRequest(sample, tctx)
                }),
                Err(_) => Inbound::Ignored,
            },
            _ => Inbound::Ignored,
        }
    }

    /// Trains the task on the pool scheme's lattice and keeps the
    /// checkpoints for the epoch's `CommitSpec`; writes nothing. A worker
    /// whose submission link is dead this epoch (`CrashAt`) neither trains
    /// nor sends: the manager charges it one commitment deadline.
    pub(crate) fn train(
        &mut self,
        worker: &mut PoolWorker,
        task: EpochTask,
        tctx: Option<TraceContext>,
    ) {
        self.trained = None;
        if !link_state(&worker.behavior(), task.epoch, MsgKind::Submission).alive {
            return;
        }
        let (_train_span, train_sid) = self.trace.child_span(
            "rpol.client.train",
            tctx.unwrap_or_default(),
            &[
                ("epoch", Value::from(task.epoch)),
                ("worker", Value::from(worker.id)),
                ("steps", Value::from(task.steps)),
            ],
        );
        let checkpoints = worker.train(
            &self.task,
            &task.global_weights,
            task.nonce,
            task.steps as usize,
            task.epoch,
            self.scheme.spec(),
        );
        scratch::put(task.global_weights);
        self.trained = Some(Trained {
            epoch: task.epoch,
            checkpoints,
            ctx: tctx.map(|t| TraceContext {
                trace_id: t.trace_id,
                parent_span: train_sid,
                watermark: 0,
            }),
        });
    }

    /// Answers a `CommitSpec`: commits the epoch it names, if that epoch
    /// was trained under the spec's scheme, and returns the submission's
    /// frames through the chaos proxy. Anything else — a repeated spec, a
    /// spec for another epoch or scheme, a spec whose task never arrived —
    /// writes nothing.
    pub(crate) fn commit(&mut self, worker: &mut PoolWorker) -> Vec<Bytes> {
        let epoch = self.spec.epoch;
        let Some(trained) = self.trained.take_if(|t| t.epoch == epoch) else {
            return Vec::new();
        };
        if self.spec.scheme != self.scheme {
            return Vec::new();
        }
        let (_commit_span, commit_sid) = self.trace.child_span(
            "rpol.client.commit",
            trained.ctx.unwrap_or_default(),
            &[
                ("epoch", Value::from(epoch)),
                ("worker", Value::from(worker.id)),
            ],
        );
        let dim = trained.checkpoints[0].len();
        let sub = worker.commit(trained.checkpoints, Self::commit_mode(&mut self.spec, dim));
        let payload = wire::encode_submission(&sub.final_weights, sub.commitment.as_ref());
        scratch::put(sub.final_weights);
        count_hi_plane(&self.counters, wire::packed_hi_plane(&payload));
        let out_ctx = trained.ctx.map(|t| TraceContext {
            parent_span: commit_sid,
            ..t // watermark stamped at the send
        });
        let link = link_state(&worker.behavior(), epoch, MsgKind::Submission);
        let (writes, _) = self.transport.chaos_send(
            epoch,
            worker.id,
            MsgKind::Submission,
            0,
            &payload,
            link,
            out_ctx,
            &mut self.stats,
            &mut self.clock,
            &self.trace,
        );
        scratch::put(Vec::from(payload));
        writes
    }

    /// Opens the sampled checkpoint and returns the proof response's frames
    /// through the chaos proxy, under the server-assigned sequence number.
    /// Nothing stored, nothing sent: the server's wait comes up empty.
    pub(crate) fn open(
        &mut self,
        worker: &PoolWorker,
        sample: usize,
        tctx: Option<TraceContext>,
    ) -> Vec<Bytes> {
        let (epoch, seq) = (self.spec.epoch, self.proof_seq);
        let trace = self.trace.clone();
        let (_proof_span, proof_sid) = trace.child_span(
            "rpol.client.proof",
            tctx.unwrap_or_default(),
            &[
                ("epoch", Value::from(epoch)),
                ("worker", Value::from(worker.id)),
                ("sample", Value::from(sample)),
                ("seq", Value::from(seq)),
            ],
        );
        let Ok(weights) = worker.open_checkpoint(sample) else {
            return Vec::new();
        };
        let payload = if self.spec.scheme.spec().lattice == Lattice::Bf16 {
            wire::encode_proof_response_packed(sample, &weights)
        } else {
            wire::encode_proof_response(sample, &weights)
        };
        count_hi_plane(&self.counters, wire::packed_hi_plane(&payload));
        drop(weights);
        let out_ctx = tctx.map(|t| TraceContext {
            trace_id: t.trace_id,
            parent_span: proof_sid,
            watermark: 0, // stamped at the send
        });
        let link = link_state(&worker.behavior(), epoch, MsgKind::ProofResponse);
        let (writes, _) = self.transport.chaos_send(
            epoch,
            worker.id,
            MsgKind::ProofResponse,
            seq,
            &payload,
            link,
            out_ctx,
            &mut self.stats,
            &mut self.clock,
            &self.trace,
        );
        scratch::put(Vec::from(payload));
        writes
    }

    /// The commitment mode for this epoch, keying the LSH family on first
    /// use (a pure function of the spec's scalars and the model dimension,
    /// so it hashes like the manager's family bit for bit). The wire
    /// delivers a family exactly with a scheme that hashes by one.
    fn commit_mode(spec: &mut SpecState, dim: usize) -> CommitMode<'_> {
        if let (Some(fs), None) = (spec.family_spec, &spec.family) {
            let params = LshParams::new(fs.r, fs.k as usize, fs.l as usize);
            spec.family = Some(LshFamily::new(dim, params, fs.seed));
        }
        CommitMode::new(spec.scheme.spec(), spec.family.as_ref())
    }
}

/// One worker, connected to the manager over a socket.
pub struct WorkerClient {
    config: PoolConfig,
    worker: PoolWorker,
    addr: String,
    tuning: ClientTuning,
    /// Defaults to the shared no-op recorder; [`WorkerClient::with_recorder`]
    /// switches tracing on for this worker process.
    recorder: Arc<Recorder>,
}

impl WorkerClient {
    /// Prepares a client for `worker` against the manager at `addr`
    /// ([`BindAddr::parse`](crate::server::BindAddr::parse) syntax).
    pub fn new(config: PoolConfig, worker: PoolWorker, addr: String, tuning: ClientTuning) -> Self {
        Self {
            config,
            worker,
            addr,
            tuning,
            recorder: rpol_obs::noop().clone(),
        }
    }

    /// Attaches an observability recorder: protocol-driven trace points
    /// (train, proof) open child spans under the server's propagated
    /// [`TraceContext`], and uploads carry this process's context back.
    /// Timing-driven paths (heartbeats, reconnects, backoff) are never
    /// traced, so a same-seed run replays a byte-identical trace.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    fn connect(&self) -> io::Result<NetStream> {
        let timeout = Some(self.tuning.read_timeout);
        Ok(match self.addr.strip_prefix("unix:") {
            Some(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(timeout)?;
                NetStream::Unix(s)
            }
            None => {
                let addr: SocketAddr = self
                    .addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unresolvable"))?;
                let s = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(timeout)?;
                NetStream::Tcp(s)
            }
        })
    }

    /// Runs the session until the server says shutdown or the reconnect
    /// budget is spent: connect, handshake, heartbeat and reconnect here,
    /// the protocol in a [`WorkerSession`] that outlives reconnects.
    pub fn run(mut self) -> ClientReport {
        let mut report = ClientReport {
            worker_id: self.worker.id,
            ..ClientReport::default()
        };
        let mut session =
            WorkerSession::new(&self.config, self.recorder.clone(), self.recorder.clone());
        let mut sessions: u64 = 0;
        let mut connect_failures: u32 = 0;

        'outer: loop {
            // Connect (with capped exponential backoff on failure).
            let mut stream = match self.connect() {
                Ok(s) => s,
                Err(_) => {
                    connect_failures += 1;
                    if connect_failures >= self.tuning.retry.max_attempts {
                        break 'outer;
                    }
                    let backoff =
                        self.tuning.retry.backoff_s(connect_failures) * self.tuning.backoff_scale;
                    std::thread::sleep(Duration::from_secs_f64(backoff));
                    continue 'outer;
                }
            };
            connect_failures = 0;

            // Handshake.
            if stream
                .write_all(&WorkerSession::hello(self.worker.id))
                .is_err()
            {
                continue 'outer;
            }
            sessions += 1;
            if sessions > 1 {
                report.reconnects += 1;
            }

            let mut asm = FrameAssembler::new(wire::MAX_FRAME_BYTES);
            let mut welcomed = false;
            let hello_deadline = Instant::now() + HELLO_TIMEOUT;
            let mut last_activity = Instant::now();
            let mut ping_nonce: u64 = 0;
            let mut chunk = [0u8; 8192];

            // Session loop.
            loop {
                if !welcomed && Instant::now() > hello_deadline {
                    continue 'outer; // server never answered the Hello
                }
                match stream.read(&mut chunk) {
                    Ok(0) => continue 'outer, // EOF: reconnect
                    Ok(k) => {
                        last_activity = Instant::now();
                        asm.push(&chunk[..k]);
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        // Idle tick: heartbeat a quiet-but-healthy link.
                        if welcomed && last_activity.elapsed() >= self.tuning.heartbeat_interval {
                            ping_nonce += 1;
                            let ping =
                                wire::seal_frame(&wire::encode_net_control(&NetControl::Ping {
                                    nonce: ping_nonce,
                                }));
                            if stream.write_all(&ping).is_err() {
                                continue 'outer;
                            }
                            report.heartbeats += 1;
                            last_activity = Instant::now();
                        }
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => continue 'outer,
                }

                // Drain every frame the read produced.
                loop {
                    let payload = match asm.next_frame() {
                        Ok(Some(p)) => p,
                        Ok(None) => break,
                        Err(wire::DecodeError::ChecksumMismatch) => {
                            report.corrupt_frames += 1;
                            continue;
                        }
                        Err(_) => continue,
                    };
                    let writes = match session.receive(payload) {
                        Inbound::Control(NetControl::Welcome { .. }) => {
                            welcomed = true;
                            continue;
                        }
                        Inbound::Control(NetControl::Busy { reason }) => {
                            report.busy_rejects += 1;
                            if !welcomed || reason == BusyReason::PoolFull {
                                // Refused service: back off, retry.
                                let backoff =
                                    self.tuning.retry.backoff_s(1) * self.tuning.backoff_scale;
                                std::thread::sleep(Duration::from_secs_f64(backoff));
                                continue 'outer;
                            }
                            // Shedding: our submission was refused; nothing
                            // to do but wait out the epoch.
                            continue;
                        }
                        Inbound::Control(NetControl::Shutdown) => {
                            report.clean_shutdown = true;
                            break 'outer;
                        }
                        Inbound::Task(task, tctx) => {
                            report.epochs_trained += 1;
                            session.train(&mut self.worker, task, tctx);
                            continue;
                        }
                        Inbound::Control(NetControl::CommitSpec { .. }) => {
                            session.commit(&mut self.worker)
                        }
                        Inbound::ProofRequest(sample, tctx) => {
                            report.proofs_served += 1;
                            session.open(&self.worker, sample, tctx)
                        }
                        // Pong resets last_activity via the read path;
                        // EpochEnd is informational.
                        Inbound::Control(_) | Inbound::Ignored => continue,
                    };
                    // One gathered write for the whole burst (retry ghosts,
                    // then the pristine copy).
                    let written = write_all_vectored(&mut stream, &writes);
                    writes
                        .into_iter()
                        .for_each(|frame| scratch::put(Vec::from(frame)));
                    if written.is_err() {
                        continue 'outer;
                    }
                    last_activity = Instant::now();
                }
            }
        }

        report.storage_bytes = self.worker.storage_bytes();
        report.transport = session.stats;
        report
    }
}

/// Blocking vectored drain: writes every frame, gathering the remainder
/// of the burst into one `writev` per syscall round. Equivalent on the
/// wire to `write_all` per frame.
fn write_all_vectored(stream: &mut NetStream, frames: &[Bytes]) -> io::Result<()> {
    let mut frame = 0; // first frame with unwritten bytes
    let mut offset = 0; // bytes of that frame already written
    while frame < frames.len() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len() - frame);
        for (i, f) in frames[frame..].iter().enumerate() {
            slices.push(IoSlice::new(if i == 0 { &f[offset..] } else { f }));
        }
        let mut k = match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame burst",
                ))
            }
            Ok(k) => k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while k > 0 {
            let left = frames[frame].len() - offset;
            if k >= left {
                k -= left;
                frame += 1;
                offset = 0;
            } else {
                offset += k;
                k = 0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitment::EpochCommitment;

    /// Every party holds the epoch's family as `k·l` offsets — the
    /// manager's plan, the in-process worker committing with it, the
    /// socket worker keying it from the broadcast scalars — and all three
    /// commit the bytes the scalar oracle hashes.
    #[test]
    fn a_worker_holds_no_projection_matrix_and_commits_like_the_manager() {
        use crate::adversary::WorkerBehavior;
        use crate::manager::PoolManager;
        use crate::tasks::TaskConfig;
        use rpol_crypto::Address;
        use rpol_nn::data::SyntheticImages;
        use rpol_sim::gpu::GpuModel;

        let cfg = TaskConfig::tiny();
        let address = Address::from_seed(1);
        let data =
            SyntheticImages::generate(&cfg.spec, 64, &mut rpol_tensor::rng::Pcg32::seed_from(4));
        let mut shards = data.shard(2);
        let manager_shard = shards.pop().expect("manager shard");
        for scheme in [Scheme::RPoLv2, Scheme::RPoLv3] {
            let mut manager =
                PoolManager::new(cfg, scheme, address, manager_shard.clone(), 1, 4, 99);
            let plan = manager.begin_epoch(1, 0);
            let (CommitMode::V2(family) | CommitMode::V3(family)) = plan.commit_mode() else {
                panic!("{scheme} commits by LSH");
            };
            let kl = family.params().total_hashes();
            assert_eq!(
                family.resident_bytes(),
                kl * 4,
                "{scheme}: the plan's family"
            );

            let mut worker = PoolWorker::new(
                0,
                &cfg,
                &address,
                shards[0].clone(),
                GpuModel::GA10,
                WorkerBehavior::Honest,
            );
            let global = manager.global_weights();
            let submission = worker.run_epoch(
                &cfg,
                global,
                plan.nonces[0],
                plan.steps,
                0,
                plan.commit_mode(),
            );
            let checkpoints: Vec<Vec<f32>> = (0..=worker.segments().len())
                .map(|j| worker.open_checkpoint(j).expect("local").into_owned())
                .collect();

            let cal = plan.calibration.expect("calibrated");
            let mut spec = SpecState {
                epoch: 0,
                scheme,
                family_spec: Some(FamilySpec {
                    r: cal.params.r,
                    k: cal.params.k as u32,
                    l: cal.params.l as u32,
                    seed: cal.family_seed,
                }),
                family: None,
            };
            let socket = match WorkerSession::commit_mode(&mut spec, global.len()) {
                CommitMode::V2(f) => EpochCommitment::commit_v2(&checkpoints, f),
                CommitMode::V3(f) => EpochCommitment::commit_v3(&checkpoints, f),
                CommitMode::Skip | CommitMode::V1 => panic!("{scheme} commits by LSH"),
            };
            let keyed = spec.family.as_ref().expect("keyed on first use");
            assert_eq!(
                keyed.resident_bytes(),
                kl * 4,
                "{scheme}: the socket worker's family"
            );
            assert_eq!(keyed, family, "{scheme}");
            assert_eq!(Some(&socket), submission.commitment.as_ref(), "{scheme}");
            for (j, cp) in checkpoints.iter().enumerate() {
                let want = family.hash_scalar(cp).group_digests();
                assert_eq!(
                    socket.groups(j),
                    want.as_slice(),
                    "{scheme}: checkpoint {j}"
                );
            }
        }
    }
}
