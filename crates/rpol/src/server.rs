//! The manager as a socket service (DESIGN.md §14).
//!
//! [`PoolServer`] binds a TCP (or Unix) listener, speaks the checksummed
//! frame protocol from [`wire`], and drives the epoch pipeline — task
//! broadcast, submission collection, sampled-proof verification — against
//! workers connected over real sockets ([`crate::client::WorkerClient`]).
//! The same epoch body also serves the in-process link
//! ([`MiningPool::run_epoch`] with `config.fault` set): there the pool's own
//! workers sit behind in-memory connections, each driven by the
//! `WorkerSession` a socket client runs, so the manager↔worker protocol
//! is written once.
//!
//! # Robustness
//!
//! * **Backpressure** — every connection owns a bounded outbox; a peer
//!   that stops draining is disconnected rather than buffered without
//!   limit, and reads are budgeted per sweep so one firehose connection
//!   cannot starve the rest.
//! * **Load shedding** — submissions past the in-flight budget are
//!   refused with [`NetControl::Busy`] and the worker is quarantined for
//!   the epoch (uncredited, never convicted).
//! * **Slowloris defence** — connections that dawdle through the
//!   handshake or go idle past the deadline are swept.
//! * **Eviction** — at the connection cap, the oldest-idle established
//!   connection is evicted in favour of the newcomer; if nothing is idle
//!   enough, the newcomer gets a `Busy { PoolFull }`.
//!
//! # Chaos proxy
//!
//! The seeded fault-injecting [`Transport`] sits *in front of* the
//! connection: the sender runs [`Transport::chaos_send`] to obtain the
//! ghost frames (corrupted / truncated duplicates the lossy link would
//! have produced) plus the delivered-or-exhausted outcome, and writes the
//! ghosts and then the pristine frame. The manager writes its pristine
//! frame only when its own draws deliver it; a worker's upload always ends
//! with it. The manager judges every upload alone: one ingest runs the
//! same draw from the exchange coordinates and payload length via
//! [`Transport::chaos_outcome`] — identical stats and clock seconds, no
//! frame built — and a frame whose draws exhausted is lost. Both ends key
//! the draws by the worker's [`link_state`] (a `CrashAt` peer is dead, a `Straggler` slow). Control
//! frames (`0x30` block) never ride the chaos link — they model the
//! service, not the network — which is what lets a TCP run reproduce an
//! in-memory run's quarantine decisions bit for bit under the same fault
//! seed (`tests/net_parity.rs`).
//!
//! # Scheduling
//!
//! The reactor is one pump ([`NetCore::pump`]) behind a mutex, and no
//! thread of its own: any thread that is waiting on the network — the
//! epoch driver or a verification task parked in
//! [`ProofProvider::open_checkpoint`] — drives it through one wait
//! (`NetCore::pump_until`; cooperative pumping, deadlock-free at any
//! executor width). In memory nothing waits: the driver steps each peer's
//! session (training as one executor task per worker, an opening when its
//! provider asks) and pumps until every byte it wrote is routed.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::adversary::WorkerBehavior;
use crate::client::{Inbound, WorkerSession};
use crate::manager::{CommStats, EpochPlan, Participant, PoolManager};
use crate::poll;
use crate::pool::{roster_groups, EpochRecord, MiningPool, PoolConfig, PoolReport};
use crate::transport::{link_state, FaultConfig, LinkState, MsgKind, Transport, TransportStats};
use crate::verify::{ProofProvider, ProofUnavailable};
use crate::wire::{
    self, BufPool, BusyReason, DecodeError, FamilySpec, FrameAssembler, NetControl, PayloadClass,
};
use crate::worker::{EpochSubmission, PoolWorker};
use rpol_exec::Executor;
use rpol_obs::{event, span, Recorder, TraceContext, Value};
use rpol_sim::SimClock;
use rpol_tensor::scratch;
use serde::Serialize;

/// Where the manager listens (or a worker connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP `host:port` address. Port `0` asks the OS for a free port.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl BindAddr {
    /// Parses an address string: a `unix:` prefix selects a Unix socket,
    /// anything else is a TCP `host:port`.
    pub fn parse(s: &str) -> Self {
        match s.strip_prefix("unix:") {
            Some(path) => BindAddr::Unix(PathBuf::from(path)),
            None => BindAddr::Tcp(s.to_string()),
        }
    }

    /// An OS-assigned loopback TCP address.
    pub fn loopback() -> Self {
        BindAddr::Tcp("127.0.0.1:0".to_string())
    }
}

/// A nonblocking listener over either address family.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    fn bind(addr: &BindAddr) -> io::Result<Self> {
        match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            BindAddr::Unix(path) => {
                // A stale socket from a previous run would fail the bind,
                // so it goes; anything else at the path fails the bind.
                if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// The bound address in the same syntax [`BindAddr::parse`] accepts.
    fn local_display(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_string()),
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    fn accept(&self) -> io::Result<NetStream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                s.set_nodelay(true)?;
                Ok(NetStream::Tcp(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(NetStream::Unix(s))
            }
        }
    }

    fn raw_fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected stream: a socket of either address family, or one end of
/// an in-memory connection.
pub(crate) enum NetStream {
    Tcp(TcpStream),
    Unix(UnixStream),
    Mem(MemStream),
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            NetStream::Unix(s) => s.read(buf),
            NetStream::Mem(s) => s.read(buf),
        }
    }
}

impl NetStream {
    /// The socket's descriptor; an in-memory stream has none, and is only
    /// ever served by a core without a poller, which registers nothing.
    fn raw_fd(&self) -> i32 {
        match self {
            NetStream::Tcp(s) => s.as_raw_fd(),
            NetStream::Unix(s) => s.as_raw_fd(),
            NetStream::Mem(_) => -1,
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            NetStream::Unix(s) => s.write(buf),
            NetStream::Mem(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write_vectored(bufs),
            NetStream::Unix(s) => s.write_vectored(bufs),
            NetStream::Mem(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            NetStream::Unix(s) => s.flush(),
            NetStream::Mem(_) => Ok(()),
        }
    }
}

/// One end of an in-memory connection: a byte queue per direction. A write
/// never blocks and always takes every byte; a read of an empty queue is
/// `WouldBlock` while the other end lives, end of stream once it is gone.
pub(crate) struct MemStream {
    rx: Arc<Mutex<VecDeque<u8>>>,
    tx: Arc<Mutex<VecDeque<u8>>>,
}

/// The two ends of a fresh in-memory connection.
fn mem_pair() -> (MemStream, MemStream) {
    let (a, b): (Arc<Mutex<VecDeque<u8>>>, _) = (Arc::default(), Arc::default());
    let near = MemStream {
        rx: Arc::clone(&a),
        tx: Arc::clone(&b),
    };
    (near, MemStream { rx: b, tx: a })
}

impl MemStream {
    /// Whether the other end has written bytes this end has not read.
    fn pending(&self) -> bool {
        !self.rx.lock().is_empty()
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut rx = self.rx.lock();
        if rx.is_empty() && Arc::strong_count(&self.rx) > 1 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        Read::read(&mut *rx, buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.lock().extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A worker at the far end of an in-memory connection: the session a
/// socket client would run, and its end of the connection.
struct MemPeer {
    session: WorkerSession,
    stream: MemStream,
    asm: FrameAssembler,
}

/// The access a [`MemPeer`] step has to the worker it speaks for: mutable
/// to train, shared to open.
enum Access<'a> {
    Train(&'a mut PoolWorker),
    Open(&'a PoolWorker),
}

impl MemPeer {
    /// Feeds the session every frame the server has written so far and
    /// writes its answers back. A task is trained, and a `CommitSpec`
    /// committed, only with [`Access::Train`], which `serve_epoch` grants
    /// during the training window and the commit step alone.
    fn step(&mut self, mut access: Access<'_>) {
        let mut chunk = [0u8; 8192];
        while let Ok(k @ 1..) = self.stream.read(&mut chunk) {
            self.asm.push(&chunk[..k]);
        }
        loop {
            let payload = match self.asm.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => continue, // a chaos ghost
            };
            let writes = match (self.session.receive(payload), &mut access) {
                (Inbound::Task(task, tctx), Access::Train(worker)) => {
                    self.session.train(worker, task, tctx);
                    continue;
                }
                (Inbound::Control(NetControl::CommitSpec { .. }), Access::Train(worker)) => {
                    self.session.commit(worker)
                }
                (Inbound::ProofRequest(sample, tctx), Access::Open(worker)) => {
                    self.session.open(worker, sample, tctx)
                }
                _ => continue,
            };
            for frame in writes {
                self.stream
                    .write_all(&frame)
                    .expect("in-memory writes never fail");
            }
        }
    }
}

/// Idle parking quantum for a waiting `NetCore::pump`: `epoll_wait`
/// timeouts have millisecond resolution, so one millisecond is the
/// shortest real kernel wait. Parked waiters wake early the instant the
/// kernel has an event for them — the quantum only bounds how long an
/// *idle* reactor sleeps between timer checks.
const PUMP_PARK: Duration = Duration::from_millis(1);
/// How long a waiter sleeps between pumps that did not park (no poller,
/// or queued work left).
const PUMP_PACE: Duration = Duration::from_micros(200);
/// Frames a connection's outbox may hold before the peer is declared too
/// slow and disconnected (backpressure bound).
const OUTBOX_FRAMES: usize = 256;
/// Bytes one connection may read per sweep (fairness budget).
const READ_BUDGET_BYTES: usize = 1 << 20;
/// Wall-clock deadline on each epoch phase's network wait.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);
/// How long [`PoolServer::run`] waits for the full roster to connect.
const CONNECT_DEADLINE: Duration = Duration::from_secs(30);

/// Service limits and deadlines for [`PoolServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection-table cap; past it the oldest-idle connection is
    /// evicted, or the newcomer refused with `Busy { PoolFull }`.
    pub max_connections: usize,
    /// Submissions buffered at once before further ones are shed with
    /// `Busy { Shedding }`.
    pub max_inflight: usize,
    /// Complete frames one connection may parse and route per sweep (the
    /// companion fairness bound): a peer that pre-buffered thousands of
    /// tiny frames yields the reactor after this many, and frames left in
    /// its assembler parse on the next sweep **without waiting for more
    /// bytes from the peer**.
    pub max_frames_per_conn_per_pump: usize,
    /// Largest accepted frame (payload + header).
    pub max_frame_bytes: usize,
    /// A connection must complete the handshake within this deadline.
    pub handshake_timeout: Duration,
    /// Established connections silent past this deadline are swept
    /// (heartbeats reset the clock).
    pub idle_timeout: Duration,
    /// Minimum idleness before an established connection may be evicted
    /// to admit a newcomer at the connection cap.
    pub evict_min_idle: Duration,
    /// Verify participants on the persistent executor.
    pub parallel_verify: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 1024,
            max_inflight: 1024,
            max_frames_per_conn_per_pump: 64,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            handshake_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            evict_min_idle: Duration::from_millis(250),
            parallel_verify: false,
        }
    }
}

/// Socket-layer counters, mirrored into the metrics registry as `net.*`
/// at epoch boundaries (deltas), so exported totals always equal this
/// struct's final values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NetStats {
    /// Connections accepted off the listener.
    pub accepted: u64,
    /// Handshakes completed (Hello → Welcome).
    pub handshakes: u64,
    /// Newcomers refused with `Busy { PoolFull }`.
    pub busy_rejects: u64,
    /// Submissions refused with `Busy { Shedding }`.
    pub shed_submissions: u64,
    /// Established connections evicted for a newcomer.
    pub evicted: u64,
    /// Connections swept for dawdling through the handshake.
    pub handshake_timeouts: u64,
    /// Established connections swept for idleness.
    pub idle_closed: u64,
    /// Connections closed for any reason (EOF, error, sweep, eviction,
    /// outbox overflow).
    pub disconnects: u64,
    /// Frames fully parsed off the wire.
    pub frames_in: u64,
    /// Frames fully written to the wire.
    pub frames_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Bytes written.
    pub bytes_out: u64,
    /// Frames rejected by the checksum (the chaos proxy's ghosts land
    /// here by design).
    pub corrupt_frames: u64,
    /// Frames rejected as malformed (bad magic, oversized, wrong
    /// direction, a proof response no opening awaits).
    pub malformed_frames: u64,
    /// Heartbeat pings answered.
    pub heartbeats: u64,
    /// Buffer requests served from the recycling pool ([`BufPool`]).
    pub buf_pool_hits: u64,
    /// Buffer requests that fell through to a fresh allocation.
    pub buf_pool_misses: u64,
    /// Total capacity (bytes) of recycled buffers handed back out.
    pub buf_pool_bytes_reused: u64,
    /// 1 when the reactor ran without a poller, every connection ready
    /// every pump (epoll never built, or a syscall failed mid-run), else 0.
    pub reactor_fallbacks: u64,
}

impl NetStats {
    /// Field-wise difference against an earlier snapshot.
    #[must_use]
    fn delta(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            accepted: self.accepted - earlier.accepted,
            handshakes: self.handshakes - earlier.handshakes,
            busy_rejects: self.busy_rejects - earlier.busy_rejects,
            shed_submissions: self.shed_submissions - earlier.shed_submissions,
            evicted: self.evicted - earlier.evicted,
            handshake_timeouts: self.handshake_timeouts - earlier.handshake_timeouts,
            idle_closed: self.idle_closed - earlier.idle_closed,
            disconnects: self.disconnects - earlier.disconnects,
            frames_in: self.frames_in - earlier.frames_in,
            frames_out: self.frames_out - earlier.frames_out,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            corrupt_frames: self.corrupt_frames - earlier.corrupt_frames,
            malformed_frames: self.malformed_frames - earlier.malformed_frames,
            heartbeats: self.heartbeats - earlier.heartbeats,
            buf_pool_hits: self.buf_pool_hits - earlier.buf_pool_hits,
            buf_pool_misses: self.buf_pool_misses - earlier.buf_pool_misses,
            buf_pool_bytes_reused: self.buf_pool_bytes_reused - earlier.buf_pool_bytes_reused,
            reactor_fallbacks: self.reactor_fallbacks - earlier.reactor_fallbacks,
        }
    }

    /// Adds this snapshot (normally a delta) onto the `net.*` counters.
    pub fn publish(&self, rec: &Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.counter_add("net.accepted", self.accepted);
        rec.counter_add("net.handshakes", self.handshakes);
        rec.counter_add("net.busy_rejects", self.busy_rejects);
        rec.counter_add("net.shed_submissions", self.shed_submissions);
        rec.counter_add("net.evicted", self.evicted);
        rec.counter_add("net.handshake_timeouts", self.handshake_timeouts);
        rec.counter_add("net.idle_closed", self.idle_closed);
        rec.counter_add("net.disconnects", self.disconnects);
        rec.counter_add("net.frames_in", self.frames_in);
        rec.counter_add("net.frames_out", self.frames_out);
        rec.counter_add("net.bytes_in", self.bytes_in);
        rec.counter_add("net.bytes_out", self.bytes_out);
        rec.counter_add("net.corrupt_frames", self.corrupt_frames);
        rec.counter_add("net.malformed_frames", self.malformed_frames);
        rec.counter_add("net.heartbeats", self.heartbeats);
        rec.counter_add("net.buf_pool_hits", self.buf_pool_hits);
        rec.counter_add("net.buf_pool_misses", self.buf_pool_misses);
        rec.counter_add("net.buf_pool_bytes_reused", self.buf_pool_bytes_reused);
        rec.counter_add("net.reactor_fallbacks", self.reactor_fallbacks);
    }
}

/// Epoch-pipeline progress surfaced in [`NetControl::StatusReport`].
/// Updated by the driver at serial epoch boundaries, so a status poll
/// always sees a consistent picture (never a half-accounted epoch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
struct EpochProgress {
    /// Epochs fully accounted so far.
    pub epochs_done: u64,
    /// Epochs the run will drive in total.
    pub epochs_total: u64,
    /// Cumulative accepted verdicts across finished epochs.
    pub accepted: u64,
    /// Cumulative rejected verdicts.
    pub rejected: u64,
    /// Cumulative quarantined workers.
    pub quarantined: u64,
    /// Submissions refused by load shedding (mirrors
    /// `NetStats::shed_submissions` at the last epoch boundary).
    pub shed: u64,
    /// Committees ingested across finished epochs (two-tier runs only).
    pub committees: u64,
    /// Largest per-committee commitment working set seen so far.
    pub peak_commit_bytes: u64,
}

/// One live connection-table row in a [`StatusSnapshot`].
#[derive(Debug, Clone, Serialize)]
struct ConnStatus {
    /// Connection-table slot index.
    pub slot: u64,
    /// Worker id, or `-1` before the handshake completes.
    pub worker: i64,
    /// `"await_hello"` or `"ready"`.
    pub phase: String,
    /// Milliseconds since the last byte from the peer.
    pub idle_ms: u64,
    /// Frames queued toward the peer (backpressure depth).
    pub outbox: u64,
}

/// Reactor pressure: how much work the next pump already has queued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
struct QueueDepths {
    /// Connections with assembler-buffered frames awaiting routing (the
    /// userspace readable backlog epoll cannot see).
    pub readable: u64,
    /// Connections with pending outbox bytes awaiting a writable socket.
    pub writable: u64,
    /// Connections already past their handshake/idle deadline, to be
    /// closed by the next timer sweep.
    pub timer: u64,
}

/// The introspection snapshot answered to [`NetControl::Status`]
/// (DESIGN.md §16). Invariant, enforced by `tests/net_status.rs`: the
/// `counters` map is the registry's `net.*` family snapshotted *after*
/// folding in every pending delta, so `counters["net.x"]` equals the
/// matching `net` field in the same report.
#[derive(Debug, Clone, Serialize)]
struct StatusSnapshot {
    /// Wire protocol version ([`wire::NET_PROTOCOL`]).
    pub protocol: u32,
    /// Reactor in use: `"readiness"`, or `"scan"` after a fallback.
    pub backend: String,
    /// Size of the worker roster.
    pub workers: u64,
    /// Pristine submissions currently buffered (the shedding budget).
    pub inflight: u64,
    /// Reactor queue depths at snapshot time.
    pub queues: QueueDepths,
    /// Epoch-pipeline progress.
    pub progress: EpochProgress,
    /// Socket-layer counters at snapshot time.
    pub net: NetStats,
    /// Live connections, in slot order.
    pub connections: Vec<ConnStatus>,
    /// The metrics registry's `net.*` counter family (empty when the
    /// server runs without an enabled recorder).
    pub counters: BTreeMap<String, u64>,
}

/// What the sweep should do with a connection after routing one frame.
enum RouteResult {
    Keep,
    Close,
}

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    /// Accepted; the first frame must be a valid `Hello`.
    AwaitHello,
    /// Handshake complete; frames are routed for this worker id.
    Ready(usize),
}

/// One sealed frame queued toward a peer.
enum OutFrame {
    /// An immutable frame, possibly shared across connections (broadcasts,
    /// pre-sealed chaos writes).
    Shared(Bytes),
    /// A pool-backed frame: its buffer returns to the reactor's [`BufPool`]
    /// once fully written (per-connection control replies).
    Pooled(Vec<u8>),
}

impl OutFrame {
    fn as_slice(&self) -> &[u8] {
        match self {
            OutFrame::Shared(b) => b,
            OutFrame::Pooled(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// One accepted connection: stream, incremental frame reassembly, and a
/// bounded outbox with a partial-write cursor.
struct Conn {
    stream: NetStream,
    asm: FrameAssembler,
    outbox: VecDeque<OutFrame>,
    /// Bytes of the outbox front frame already written.
    written: usize,
    phase: ConnPhase,
    opened: Instant,
    last_seen: Instant,
    /// Flushes that found bytes to write.
    #[cfg(test)]
    flushes: u64,
}

/// A worker's upload as routed: the trace context its pristine frame
/// carried (stripped before classification, consumed at the serial ingest
/// point), and the inner payload. Whether it arrived is the ingest's call.
type Upload = (Option<TraceContext>, Bytes);

/// A worker's submission slot for the current epoch.
enum SubMail {
    /// The upload's pristine frame.
    Pristine(Upload),
    /// Refused by load shedding; quarantine without any chaos accounting.
    Shed,
}

/// A worker's opening slot: at most one opening per worker is in flight
/// (its provider serializes them), and only that one may be answered.
#[derive(Default)]
enum Opening {
    /// Nothing asked: a proof response is unsolicited.
    #[default]
    Idle,
    /// An opening was sent; its response has not arrived.
    Awaiting,
    /// The response to the opening in flight.
    Answered(Upload),
}

#[derive(Default)]
struct Mailbox {
    submission: Option<SubMail>,
    opening: Opening,
}

/// The reactor state: listener, connection table, per-worker mailboxes,
/// and socket counters — everything [`NetCore::pump`] sweeps.
struct NetCore {
    /// `None` for a core whose connections are all in memory, admitted by
    /// the driver.
    listener: Option<Listener>,
    cfg: ServerConfig,
    conns: Vec<Option<Conn>>,
    /// worker id → connection slot (latest handshake wins).
    by_worker: HashMap<usize, usize>,
    mail: Vec<Mailbox>,
    stats: NetStats,
    /// Pristine submissions currently buffered (the shedding budget).
    inflight: usize,
    n_workers: usize,
    /// Recorder shared with the pool: the `net.*` publication point and
    /// the pump-latency histogram live here so status polls can snapshot
    /// registry totals without reaching into [`PoolServer`].
    rec: Arc<Recorder>,
    /// Stats already folded into the `net.*` counters (publication
    /// watermark).
    published: NetStats,
    /// Epoch-pipeline progress, updated by the driver at epoch ends.
    progress: EpochProgress,
    /// The epoll instance that names the ready connections; `None` — no
    /// listener, no epoll on the platform, or (permanently) after an epoll
    /// syscall failed — makes every connection and the listener ready
    /// every pump. Tokens are connection slot indices, with `u64::MAX` for
    /// the listener.
    poller: Option<poll::Poller>,
    /// Reused ready-set buffer (no per-pump allocation).
    ready_buf: Vec<poll::Ready>,
    /// Slots with assembler-buffered frames that still need routing —
    /// userspace bytes epoll cannot see. Drained (bounded) every pump.
    dirty: VecDeque<usize>,
    in_dirty: Vec<bool>,
    /// Slots with outbox bytes no flush has tried yet. A slot whose socket
    /// refused bytes waits here too when there is no poller.
    flush: VecDeque<usize>,
    in_flush: Vec<bool>,
    /// Slots whose socket refused bytes, registered for writable
    /// readiness: the kernel names them once they can take more, so they
    /// neither sit in the flush queue nor keep a waiter from parking.
    write_wait: Vec<bool>,
    /// Per-slot stamp of the pump that last serviced it: a slot named by
    /// several sources in one pump (kernel event + dirty queue) is
    /// serviced once. Cheaper than clearing a visited bitmap (which would
    /// be O(all connections) again).
    last_service: Vec<u64>,
    pump_seq: u64,
    /// Next amortized timer sweep.
    next_timer_sweep: Instant,
    timer_granularity: Duration,
    /// Recycling arena for frame payloads, assembler backing stores, and
    /// pooled control replies.
    pool: BufPool,
}

impl NetCore {
    /// A reactor for `n_workers`, with a poller when it has a listener and
    /// the platform has epoll; any epoll failure here (or later) drops the
    /// poller rather than erroring.
    fn new(
        listener: Option<Listener>,
        cfg: ServerConfig,
        n_workers: usize,
        rec: Arc<Recorder>,
    ) -> Self {
        let poller = listener.as_ref().and_then(|listener| {
            poll::Poller::new()
                .ok()
                .filter(|p| p.add(listener.raw_fd(), u64::MAX).is_ok())
        });
        let stats = NetStats {
            reactor_fallbacks: u64::from(poller.is_none()),
            ..NetStats::default()
        };
        let timer_granularity = (cfg.handshake_timeout.min(cfg.idle_timeout) / 8)
            .clamp(Duration::from_millis(1), Duration::from_millis(25));
        NetCore {
            listener,
            cfg,
            conns: Vec::new(),
            by_worker: HashMap::new(),
            mail: (0..n_workers).map(|_| Mailbox::default()).collect(),
            stats,
            inflight: 0,
            n_workers,
            rec,
            published: NetStats::default(),
            progress: EpochProgress::default(),
            poller,
            ready_buf: Vec::new(),
            dirty: VecDeque::new(),
            in_dirty: Vec::new(),
            flush: VecDeque::new(),
            in_flush: Vec::new(),
            write_wait: Vec::new(),
            last_service: Vec::new(),
            pump_seq: 0,
            next_timer_sweep: Instant::now(),
            timer_granularity,
            pool: BufPool::new(),
        }
    }

    /// Pumps until no in-memory connection holds an unread byte or a
    /// buffered frame: everything a stepped peer wrote has been routed, and
    /// every reply it caused written back.
    fn drain_mem(&mut self) {
        let unrouted = |conn: &Conn| {
            conn.asm.ready() || matches!(&conn.stream, NetStream::Mem(mem) if mem.pending())
        };
        while self.conns.iter().flatten().any(unrouted) {
            self.pump(Duration::ZERO);
        }
    }

    /// One pump: accept, read / route, flush, sweep timeouts. Safe to call
    /// from any thread holding the lock.
    ///
    /// The ready set is what the kernel reports when there is a poller —
    /// O(active) — and every connection plus the listener when there is
    /// none. Everything after is shared: a slot named twice in one pump is
    /// serviced once, slots whose assemblers still hold frames (the dirty
    /// queue) and pending outboxes (the flush queue) are retried, and
    /// deadlines are swept every `timer_granularity`.
    ///
    /// With nothing queued and a poller, the pump parks in `epoll_wait` for
    /// up to `max_wait`, waking the instant the kernel has a connection,
    /// bytes, or room in a socket that refused bytes. A wait ends at most a
    /// millisecond (`epoll_wait`'s resolution) after the next timer sweep
    /// is due: rounded down, the last millisecond before it would spin.
    /// Returns whether it parked: the caller's idle wait has then already
    /// happened.
    /// Parked pumps stay out of the `net.pump_latency` histogram — their
    /// wall time is kernel idle, not sweep cost. That histogram is wall
    /// clock only, never the trace clock, which must stay a pure function
    /// of the protocol.
    fn pump(&mut self, max_wait: Duration) -> bool {
        let timeout_ms = if self.poller.is_some() && self.dirty.is_empty() && self.flush.is_empty()
        {
            let until_sweep = self
                .next_timer_sweep
                .saturating_duration_since(Instant::now());
            max_wait.min(until_sweep).as_micros().div_ceil(1000) as i32
        } else {
            0
        };
        let timed = (self.rec.enabled() && timeout_ms == 0).then(Instant::now);
        self.pump_seq += 1;
        // 1. Kernel readiness. A failed wait drops the poller for the rest
        // of the run — correctness never depends on epoll. (A wait a
        // signal interrupted is no failure: it returned no events.)
        let mut events = std::mem::take(&mut self.ready_buf);
        events.clear();
        let waited = self
            .poller
            .as_mut()
            .map(|poller| poller.wait(&mut events, timeout_ms).is_ok());
        if waited == Some(false) {
            self.degrade_to_scan();
        }
        // 2. Accept when the listener is ready (level-triggered: any
        // backlog left un-accepted re-fires next pump). Without a poller
        // everything is ready, the connections just accepted included.
        let scan = waited != Some(true);
        if scan || events.iter().any(|ev| ev.token == u64::MAX) {
            self.accept_new();
        }
        if scan {
            events.clear();
            events.extend((0..self.conns.len() as u64).map(|token| poll::Ready { token }));
        }
        if self.rec.enabled() {
            self.rec
                .observe_log("net.pump.ready_events", events.len() as u64);
            self.rec
                .observe_log("net.pump.readable_depth", self.dirty.len() as u64);
            self.rec
                .observe_log("net.pump.writable_depth", self.flush.len() as u64);
        }
        // 3. Service ready connections, once each per pump.
        for ev in &events {
            let idx = ev.token as usize;
            if idx < self.conns.len() && self.last_service[idx] != self.pump_seq {
                self.last_service[idx] = self.pump_seq;
                self.service_conn(idx);
            }
        }
        self.ready_buf = events;
        // 4. Dirty queue: connections whose assemblers already hold
        // complete frames (budget spill-over from a previous pump). A
        // bounded drain — entries re-marked during this pump wait for the
        // next one, preserving the per-pump fairness budgets.
        for _ in 0..self.dirty.len() {
            let Some(idx) = self.dirty.pop_front() else {
                break;
            };
            self.in_dirty[idx] = false;
            if self.last_service[idx] == self.pump_seq {
                // Already serviced this pump as ready. Dropping the entry
                // would orphan whatever that service left buffered (its
                // own re-mark may have landed *before* this stale entry
                // was popped) — re-note so leftovers queue for the next
                // pump.
                self.note_after_service(idx);
                continue;
            }
            self.last_service[idx] = self.pump_seq;
            self.service_conn(idx);
        }
        // 5. Flush queue: outboxes no flush has tried yet. A slot serviced
        // this pump was flushed there; trying again before the peer reads
        // would only be refused again.
        for _ in 0..self.flush.len() {
            let Some(idx) = self.flush.pop_front() else {
                break;
            };
            self.in_flush[idx] = false;
            if self.last_service[idx] == self.pump_seq {
                self.note_after_service(idx);
                continue;
            }
            let Some(mut conn) = self.conns[idx].take() else {
                continue;
            };
            let alive = Self::flush_conn(&mut self.stats, &mut self.pool, &mut conn);
            self.conns[idx] = Some(conn);
            if !alive {
                self.close(idx);
            } else {
                self.note_after_service(idx);
            }
        }
        // 6. Amortized timer sweep: deadlines are coarse (milliseconds at
        // minimum), so sweeping every granularity tick — not every pump —
        // keeps idle connections off the hot path entirely.
        let now = Instant::now();
        if now >= self.next_timer_sweep {
            self.sweep_timeouts();
            self.next_timer_sweep = now + self.timer_granularity;
        }
        if let Some(start) = timed {
            self.rec
                .observe_latency("net.pump_latency", start.elapsed().as_nanos() as u64);
        }
        waited == Some(true) && timeout_ms > 0
    }

    /// Drops the poller for good (an epoll syscall failed): from then on
    /// every connection is ready every pump.
    fn degrade_to_scan(&mut self) {
        if self.poller.take().is_some() {
            self.stats.reactor_fallbacks += 1;
        }
        self.write_wait.fill(false);
    }

    /// Queues a slot for frame routing next pump.
    fn mark_dirty(&mut self, idx: usize) {
        if !self.in_dirty[idx] {
            self.in_dirty[idx] = true;
            self.dirty.push_back(idx);
        }
    }

    /// Queues a slot for an outbox flush next pump, unless it already waits
    /// for the kernel to report it writable.
    fn mark_flush(&mut self, idx: usize) {
        if !self.in_flush[idx] && !self.write_wait[idx] {
            self.in_flush[idx] = true;
            self.flush.push_back(idx);
        }
    }

    /// Re-queues whatever a just-serviced connection left behind: frames
    /// still buffered in its assembler, and bytes its socket refused — with
    /// a poller, as writable interest, dropped once the outbox drains.
    fn note_after_service(&mut self, idx: usize) {
        let (buffered, pending, fd) = match self.conns[idx].as_ref() {
            Some(conn) => (
                conn.asm.ready(),
                !conn.outbox.is_empty(),
                conn.stream.raw_fd(),
            ),
            None => return,
        };
        if buffered {
            self.mark_dirty(idx);
        }
        let Some(poller) = &self.poller else {
            if pending {
                self.mark_flush(idx);
            }
            return;
        };
        if pending != self.write_wait[idx] {
            if poller.modify(fd, idx as u64, pending).is_err() {
                self.degrade_to_scan();
                self.note_after_service(idx);
                return;
            }
            self.write_wait[idx] = pending;
        }
    }

    /// Mirrors the buffer-pool counters into [`NetStats`] so every stats
    /// export (publish, status, final read) sees them.
    fn sync_pool_stats(&mut self) {
        self.stats.buf_pool_hits = self.pool.hits;
        self.stats.buf_pool_misses = self.pool.misses;
        self.stats.buf_pool_bytes_reused = self.pool.bytes_reused;
    }

    /// Current socket counters, with the pool mirror freshly synced.
    fn net_stats(&mut self) -> NetStats {
        self.sync_pool_stats();
        self.stats
    }

    /// Folds the socket counters' delta since the last call into the
    /// `net.*` counters. Delta-based, so calling it from a status poll
    /// mid-epoch never double-counts and exported totals always equal
    /// the final [`NetStats`].
    fn publish_stats(&mut self) {
        if !self.rec.enabled() {
            return;
        }
        self.sync_pool_stats();
        self.stats.delta(&self.published).publish(&self.rec);
        self.published = self.stats;
    }

    /// Builds the introspection snapshot, publishing pending `net.*`
    /// deltas first so the embedded registry totals equal the embedded
    /// stats by construction. Touches neither the trace buffer nor the
    /// trace clock: polling status never perturbs a deterministic trace.
    fn status_snapshot(&mut self) -> StatusSnapshot {
        self.sync_pool_stats();
        self.publish_stats();
        let counters = self
            .rec
            .snapshot()
            .counters_with_prefix("net.")
            .into_iter()
            .collect();
        let now = Instant::now();
        let timer_due = self
            .conns
            .iter()
            .flatten()
            .filter(|conn| match conn.phase {
                ConnPhase::AwaitHello => {
                    now.duration_since(conn.opened) > self.cfg.handshake_timeout
                }
                ConnPhase::Ready(_) => now.duration_since(conn.last_seen) > self.cfg.idle_timeout,
            })
            .count();
        let connections = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| {
                let conn = c.as_ref()?;
                let (phase, worker) = match conn.phase {
                    ConnPhase::AwaitHello => ("await_hello", -1),
                    ConnPhase::Ready(w) => ("ready", w as i64),
                };
                Some(ConnStatus {
                    slot: slot as u64,
                    worker,
                    phase: phase.to_string(),
                    idle_ms: now.duration_since(conn.last_seen).as_millis() as u64,
                    outbox: conn.outbox.len() as u64,
                })
            })
            .collect();
        StatusSnapshot {
            protocol: wire::NET_PROTOCOL,
            backend: (if self.poller.is_some() {
                "readiness"
            } else {
                "scan"
            })
            .to_string(),
            workers: self.n_workers as u64,
            inflight: self.inflight as u64,
            queues: QueueDepths {
                readable: self.dirty.len() as u64,
                writable: self.flush.len() as u64,
                timer: timer_due as u64,
            },
            progress: self.progress,
            net: self.stats,
            connections,
            counters,
        }
    }

    /// Seals a control frame into a pool-recycled buffer: the steady-state
    /// path for per-connection replies (pongs, welcomes, busy notices).
    fn seal_control_pooled(&mut self, msg: &NetControl) -> OutFrame {
        let payload = wire::encode_net_control(msg);
        let mut buf = self.pool.get(wire::FRAME_HEADER_BYTES + payload.len());
        wire::seal_frame_into(&payload, &mut buf);
        OutFrame::Pooled(buf)
    }

    /// Answers a [`NetControl::Status`] probe on its own connection.
    fn answer_status(&mut self, conn: &mut Conn) -> RouteResult {
        let json =
            rpol_json::to_string(&self.status_snapshot()).expect("status snapshot serializes");
        let framed = self.seal_control_pooled(&NetControl::StatusReport { json });
        Self::enqueue(conn, framed)
    }

    fn accept_new(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok(stream) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    fn active(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn admit(&mut self, mut stream: NetStream) {
        self.stats.accepted += 1;
        if self.active() >= self.cfg.max_connections {
            match self.evict_candidate() {
                Some(victim) => {
                    self.stats.evicted += 1;
                    self.close(victim);
                }
                None => {
                    // Nothing idle enough to evict: refuse (best-effort
                    // write — the newcomer is dropped either way).
                    self.stats.busy_rejects += 1;
                    let busy = wire::seal_frame(&wire::encode_net_control(&NetControl::Busy {
                        reason: BusyReason::PoolFull,
                    }));
                    let _ = stream.write(&busy);
                    return;
                }
            }
        }
        let now = Instant::now();
        let fd = stream.raw_fd();
        let conn = Conn {
            stream,
            // The stream buffer grows from empty, doubling from the read
            // chunk onto the pool's power-of-two classes, and goes back to
            // the pool when the connection closes.
            asm: FrameAssembler::with_buffer(self.cfg.max_frame_bytes, self.pool.get(0)),
            outbox: VecDeque::new(),
            written: 0,
            phase: ConnPhase::AwaitHello,
            opened: now,
            last_seen: now,
            #[cfg(test)]
            flushes: 0,
        };
        let slot = match self.conns.iter().position(|c| c.is_none()) {
            Some(slot) => {
                self.conns[slot] = Some(conn);
                slot
            }
            None => {
                self.conns.push(Some(conn));
                self.in_dirty.push(false);
                self.in_flush.push(false);
                self.write_wait.push(false);
                self.last_service.push(0);
                self.conns.len() - 1
            }
        };
        if let Some(poller) = &self.poller {
            if poller.add(fd, slot as u64).is_err() {
                // Interest registration failed: the poller can no longer
                // see every connection, so every one is ready from here on.
                self.degrade_to_scan();
            }
        }
    }

    /// The established connection longest idle (and idle at least
    /// [`ServerConfig::evict_min_idle`]), if any.
    fn evict_candidate(&self) -> Option<usize> {
        self.conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let conn = slot.as_ref()?;
                matches!(conn.phase, ConnPhase::Ready(_)).then_some((idx, conn.last_seen))
            })
            .filter(|&(_, seen)| seen.elapsed() >= self.cfg.evict_min_idle)
            .min_by_key(|&(_, seen)| seen)
            .map(|(idx, _)| idx)
    }

    fn close(&mut self, idx: usize) {
        self.write_wait[idx] = false;
        if let Some(conn) = self.conns[idx].take() {
            if let Some(poller) = &self.poller {
                // Interest-set hygiene; the kernel would also auto-remove
                // the fd when the stream drops, so failure is tolerable.
                let _ = poller.del(conn.stream.raw_fd());
            }
            if let ConnPhase::Ready(w) = conn.phase {
                if self.by_worker.get(&w) == Some(&idx) {
                    self.by_worker.remove(&w);
                }
            }
            // The stream buffer and any pooled outbox frames outlive the
            // connection via the pool.
            self.pool.put(conn.asm.into_buffer());
            for frame in conn.outbox {
                if let OutFrame::Pooled(buf) = frame {
                    self.pool.put(buf);
                }
            }
            self.stats.disconnects += 1;
        }
    }

    /// Reads (within the byte budget), routes parsed frames (within the
    /// frame budget), and flushes the outbox for one connection.
    ///
    /// The assembler is drained **before** the first read: frames fully
    /// buffered by a previous sweep — because they straddled that sweep's
    /// byte budget, or overflowed its frame budget — parse now, without
    /// waiting for the peer to send another byte.
    fn service_conn(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let mut budget = READ_BUDGET_BYTES;
        let mut frames = self.cfg.max_frames_per_conn_per_pump;
        let mut chunk = [0u8; 8192];
        let mut alive = self.drain_frames(idx, &mut conn, &mut frames);
        'read: while alive && budget > 0 && frames > 0 {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    alive = false;
                    break 'read;
                }
                Ok(k) => {
                    self.stats.bytes_in += k as u64;
                    budget = budget.saturating_sub(k);
                    conn.last_seen = Instant::now();
                    conn.asm.push(&chunk[..k]);
                    if !self.drain_frames(idx, &mut conn, &mut frames) {
                        alive = false;
                        break 'read;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'read,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    alive = false;
                    break 'read;
                }
            }
        }
        if alive {
            alive = Self::flush_conn(&mut self.stats, &mut self.pool, &mut conn);
        }
        self.conns[idx] = Some(conn);
        if !alive {
            self.close(idx);
        } else {
            self.note_after_service(idx);
        }
    }

    /// Parses and routes complete frames out of `conn`'s assembler until
    /// it runs dry or the sweep's frame budget is spent. Returns `false`
    /// when routing decided the connection must close.
    fn drain_frames(&mut self, idx: usize, conn: &mut Conn, frames: &mut usize) -> bool {
        while *frames > 0 {
            match conn.asm.next_frame_with(Some(&mut self.pool)) {
                Ok(Some(payload)) => {
                    self.stats.frames_in += 1;
                    *frames -= 1;
                    if let RouteResult::Close = self.route(idx, conn, payload) {
                        return false;
                    }
                }
                Ok(None) => break,
                Err(wire::DecodeError::ChecksumMismatch) => {
                    self.stats.corrupt_frames += 1;
                }
                Err(_) => self.stats.malformed_frames += 1,
            }
        }
        true
    }

    /// Writes as much of the outbox as the socket accepts right now,
    /// gathering queued frames into vectored writes so a burst of small
    /// control frames costs one syscall, not one per frame. Fully-written
    /// pooled frames recycle their buffers. Returns `false` when the
    /// connection should close.
    fn flush_conn(stats: &mut NetStats, pool: &mut BufPool, conn: &mut Conn) -> bool {
        /// Frames gathered per writev (the kernel caps total iovecs at
        /// 1024; 16 covers every realistic burst here).
        const GATHER: usize = 16;
        #[cfg(test)]
        {
            conn.flushes += u64::from(!conn.outbox.is_empty());
        }
        loop {
            if conn.outbox.is_empty() {
                return true;
            }
            let written = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(GATHER);
                for (i, frame) in conn.outbox.iter().take(GATHER).enumerate() {
                    let bytes = frame.as_slice();
                    slices.push(IoSlice::new(if i == 0 {
                        &bytes[conn.written..]
                    } else {
                        bytes
                    }));
                }
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => return false,
                    Ok(k) => k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return false,
                }
            };
            stats.bytes_out += written as u64;
            let mut remaining = written;
            while remaining > 0 {
                let front_left =
                    conn.outbox.front().expect("bytes imply a frame").len() - conn.written;
                if remaining >= front_left {
                    remaining -= front_left;
                    conn.written = 0;
                    stats.frames_out += 1;
                    match conn.outbox.pop_front() {
                        Some(OutFrame::Pooled(buf)) => pool.put(buf),
                        // Back to the process pool, uncounted: the
                        // server's hits and misses are its own requests.
                        Some(OutFrame::Shared(frame)) => scratch::put(Vec::from(frame)),
                        None => {}
                    }
                } else {
                    conn.written += remaining;
                    remaining = 0;
                }
            }
        }
    }

    /// Enqueues one already-sealed frame, enforcing the backpressure
    /// bound.
    fn enqueue(conn: &mut Conn, framed: OutFrame) -> RouteResult {
        if conn.outbox.len() >= OUTBOX_FRAMES {
            return RouteResult::Close;
        }
        conn.outbox.push_back(framed);
        RouteResult::Keep
    }

    fn route(&mut self, idx: usize, conn: &mut Conn, payload: Bytes) -> RouteResult {
        match conn.phase {
            ConnPhase::AwaitHello => {
                let mut payload = payload;
                let msg = wire::decode_net_control(&mut payload);
                self.pool.put(Vec::from(payload));
                if matches!(msg, Ok(NetControl::Status)) {
                    // Introspection probes (`rpol status`) never complete
                    // a handshake; answer without closing.
                    return self.answer_status(conn);
                }
                let Ok(NetControl::Hello { worker, protocol }) = msg else {
                    self.stats.malformed_frames += 1;
                    return RouteResult::Close;
                };
                if protocol != wire::NET_PROTOCOL || worker as usize >= self.n_workers {
                    return RouteResult::Close;
                }
                let w = worker as usize;
                // Latest handshake for a worker id wins (reconnects after
                // a half-open drop would otherwise shadow themselves).
                if let Some(&old) = self.by_worker.get(&w) {
                    if old != idx {
                        self.close(old);
                    }
                }
                self.by_worker.insert(w, idx);
                conn.phase = ConnPhase::Ready(w);
                self.stats.handshakes += 1;
                let welcome = self.seal_control_pooled(&NetControl::Welcome {
                    workers: self.n_workers as u32,
                });
                Self::enqueue(conn, welcome)
            }
            ConnPhase::Ready(w) => {
                // Strip the optional (chaos-exempt) trace extension first:
                // classification, decoding, and every length-based chaos
                // account below run on the inner payload, so tracing never
                // perturbs fault draws or parity accounting. The context is
                // stored with the mail and consumed at the serial ingest
                // point — never traced at (nondeterministic) arrival time.
                let (ctx, payload) = wire::split_traced(payload);
                match wire::classify_payload(&payload) {
                    PayloadClass::Control => self.route_control(conn, payload),
                    PayloadClass::Submission => {
                        if self.mail[w].submission.is_some() {
                            self.pool.put(Vec::from(payload));
                            return RouteResult::Keep; // duplicate; first wins
                        }
                        if self.inflight >= self.cfg.max_inflight {
                            self.stats.shed_submissions += 1;
                            self.mail[w].submission = Some(SubMail::Shed);
                            self.pool.put(Vec::from(payload));
                            let busy = self.seal_control_pooled(&NetControl::Busy {
                                reason: BusyReason::Shedding,
                            });
                            return Self::enqueue(conn, busy);
                        }
                        self.inflight += 1;
                        self.mail[w].submission = Some(SubMail::Pristine((ctx, payload)));
                        RouteResult::Keep
                    }
                    PayloadClass::ProofResponse => {
                        let opening = &mut self.mail[w].opening;
                        if let Opening::Awaiting = opening {
                            *opening = Opening::Answered((ctx, payload));
                        } else {
                            // Unsolicited, or a second answer: counted and
                            // recycled, never queued.
                            self.stats.malformed_frames += 1;
                            self.pool.put(Vec::from(payload));
                        }
                        RouteResult::Keep
                    }
                    _ => {
                        // Manager-bound frames only; anything else is a
                        // protocol violation worth counting, not closing.
                        self.stats.malformed_frames += 1;
                        self.pool.put(Vec::from(payload));
                        RouteResult::Keep
                    }
                }
            }
        }
    }

    fn route_control(&mut self, conn: &mut Conn, mut payload: Bytes) -> RouteResult {
        let msg = wire::decode_net_control(&mut payload);
        self.pool.put(Vec::from(payload));
        let msg = match msg {
            Ok(msg) => msg,
            Err(_) => {
                self.stats.malformed_frames += 1;
                return RouteResult::Keep;
            }
        };
        match msg {
            NetControl::Status => self.answer_status(conn),
            NetControl::Ping { nonce } => {
                self.stats.heartbeats += 1;
                let pong = self.seal_control_pooled(&NetControl::Pong { nonce });
                Self::enqueue(conn, pong)
            }
            // Hello after handshake, echoes of manager-side messages:
            // tolerated, not routed.
            _ => RouteResult::Keep,
        }
    }

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            match conn.phase {
                ConnPhase::AwaitHello => {
                    if now.duration_since(conn.opened) > self.cfg.handshake_timeout {
                        self.stats.handshake_timeouts += 1;
                        self.close(idx);
                    }
                }
                ConnPhase::Ready(_) => {
                    if now.duration_since(conn.last_seen) > self.cfg.idle_timeout {
                        self.stats.idle_closed += 1;
                        self.close(idx);
                    }
                }
            }
        }
    }

    fn connected(&self, w: usize) -> bool {
        self.by_worker.contains_key(&w)
    }

    /// Enqueues pre-sealed frames for a worker. Returns `false` when the
    /// worker has no live connection (frames are dropped, as a dead link
    /// would).
    fn send_framed_to_worker(&mut self, w: usize, frames: Vec<Bytes>) -> bool {
        let Some(&idx) = self.by_worker.get(&w) else {
            return false;
        };
        let mut overflow = false;
        if let Some(conn) = self.conns[idx].as_mut() {
            for framed in frames {
                if let RouteResult::Close = Self::enqueue(conn, OutFrame::Shared(framed)) {
                    overflow = true;
                    break;
                }
            }
        } else {
            return false;
        }
        if overflow {
            self.close(idx);
            return false;
        }
        self.mark_flush(idx);
        true
    }

    fn send_control_to_worker(&mut self, w: usize, msg: &NetControl) -> bool {
        let framed = wire::seal_frame(&wire::encode_net_control(msg));
        self.send_framed_to_worker(w, vec![framed])
    }

    /// Enqueues a control frame on every established connection.
    fn broadcast_control(&mut self, msg: &NetControl) {
        let framed = wire::seal_frame(&wire::encode_net_control(msg));
        for idx in 0..self.conns.len() {
            let enqueued = match self.conns[idx].as_mut() {
                Some(conn) if matches!(conn.phase, ConnPhase::Ready(_)) => Some(matches!(
                    Self::enqueue(conn, OutFrame::Shared(framed.clone())),
                    RouteResult::Close
                )),
                _ => None,
            };
            match enqueued {
                Some(true) => self.close(idx),
                Some(false) => self.mark_flush(idx),
                None => {}
            }
        }
    }

    /// Clears every mailbox at an epoch boundary.
    fn reset_epoch(&mut self) {
        for mb in &mut self.mail {
            *mb = Mailbox::default();
        }
        self.inflight = 0;
    }

    /// Whether the submission wait can stop considering this worker: its
    /// slot is filled, or it has no live connection to fill it from.
    fn submission_settled(&self, w: usize) -> bool {
        self.mail[w].submission.is_some() || !self.connected(w)
    }

    fn take_submission(&mut self, w: usize) -> Option<SubMail> {
        let mail = self.mail[w].submission.take();
        if matches!(mail, Some(SubMail::Pristine(_))) {
            self.inflight = self.inflight.saturating_sub(1);
        }
        mail
    }

    /// Empties every tasked worker's submission slot in one lock hold —
    /// the epoch's batched ingest point. Untasked workers yield `None`
    /// without touching their mailboxes (they have none to take).
    fn drain_submissions(&mut self, tasked: &[bool]) -> Vec<Option<SubMail>> {
        (0..tasked.len())
            .map(|w| {
                if tasked[w] {
                    self.take_submission(w)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Opens `w`'s opening slot for the response to the request just
    /// queued.
    fn await_opening(&mut self, w: usize) {
        self.mail[w].opening = Opening::Awaiting;
    }

    fn answered(&self, w: usize) -> bool {
        matches!(self.mail[w].opening, Opening::Answered(_))
    }

    /// Closes `w`'s opening slot, taking its answer if one arrived.
    fn take_answer(&mut self, w: usize) -> Option<Upload> {
        match std::mem::take(&mut self.mail[w].opening) {
            Opening::Answered(upload) => Some(upload),
            _ => None,
        }
    }

    fn outboxes_empty(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.outbox.is_empty())
    }

    /// The one network wait: pumps `core` at least once, then until `done`
    /// holds (`true`) or `timeout` passes (`false`), parking in the kernel
    /// between pumps when the pump can. The lock is released between
    /// pumps, so concurrent waiters all drive the reactor.
    fn pump_until(
        core: &Mutex<NetCore>,
        timeout: Duration,
        mut done: impl FnMut(&NetCore) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let parked = {
                let mut core = core.lock();
                let parked = core.pump(PUMP_PARK);
                if done(&core) {
                    return true;
                }
                parked
            };
            if Instant::now() > deadline {
                return false;
            }
            if !parked {
                std::thread::sleep(PUMP_PACE);
            }
        }
    }
}

/// Per-provider mutable state: the RPC sequence counter plus the stats
/// and clock this worker's proof traffic accumulates. Kept behind a mutex
/// so a provider can be shared with the parallel verification fan-out;
/// [`merge_proof_traffic`] folds the counters back into the epoch totals
/// in worker-id order, so scheduling never shows in the report.
#[derive(Default)]
struct ProviderState {
    seq: u64,
    stats: TransportStats,
    clock: SimClock,
}

impl ProviderState {
    /// Claims the next opening's sequence number — part of its fault seed,
    /// advanced even when the request leg then exhausts, and for an opening
    /// the manager served itself: `seq` counts openings scheduled, not sent.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }
}

/// Merges the providers' proof-channel traffic, handed over in worker-id
/// order, into the epoch's totals: deterministic regardless of how
/// verification was scheduled.
fn merge_proof_traffic(
    states: impl IntoIterator<Item = ProviderState>,
    stats: &mut TransportStats,
    clock: &mut SimClock,
) {
    for state in states {
        stats.merge(&state.stats);
        clock.merge(&state.clock);
    }
}

/// A [`ProofProvider`] that reaches its worker over its connection, with
/// the chaos proxy on both legs: the request's ghost frames and outcome
/// come from the server's own draws, and so does the response's fate, in
/// the one ingest ([`Net::ingest`]). The per-opening `seq` advances even
/// when a request leg exhausts and nothing ever reaches the worker.
struct SocketProvider<'a> {
    net: &'a Net,
    rec: &'a Recorder,
    worker: usize,
    epoch: u64,
    link_request: LinkState,
    link_response: LinkState,
    /// In memory: the peer to step for an answer, and its worker.
    peer: Option<(&'a Mutex<MemPeer>, &'a PoolWorker)>,
    state: Mutex<ProviderState>,
    /// Distributed trace id (the pool seed) for outbound proof requests.
    trace_id: u64,
    /// Span id of the verification phase, stamped as the requests' parent.
    parent_span: u64,
}

impl SocketProvider<'_> {
    /// The worker's answer to the opening just sent, if any arrives. In
    /// memory the peer answers when stepped, and everything it wrote is
    /// routed before the slot is read; over a socket the wait pumps the
    /// reactor cooperatively, so any number of concurrent openings make
    /// progress at any executor width.
    fn await_answer(&self) -> Option<Upload> {
        let core = &*self.net.core;
        match self.peer {
            Some((peer, worker)) => {
                peer.lock().step(Access::Open(worker));
                core.lock().drain_mem();
            }
            None => {
                NetCore::pump_until(core, PHASE_TIMEOUT, |core| core.answered(self.worker));
            }
        }
        core.lock().take_answer(self.worker)
    }
}

impl ProofProvider for SocketProvider<'_> {
    fn open_checkpoint(
        &self,
        index: usize,
    ) -> Result<std::borrow::Cow<'_, [f32]>, ProofUnavailable> {
        let unavailable = ProofUnavailable { index };
        let mut guard = self.state.lock();
        let seq = guard.next_seq();
        let ProviderState { stats, clock, .. } = &mut *guard;

        // Request leg: manager → worker, chaos draws on the sender.
        let request = wire::encode_proof_request(&[index]);
        let ctx = TraceContext {
            trace_id: self.trace_id,
            parent_span: self.parent_span,
            watermark: 0,
        };
        let (writes, outcome) = self.net.transport.chaos_send(
            self.epoch,
            self.worker,
            MsgKind::ProofRequest,
            seq,
            &request,
            self.link_request,
            Some(ctx),
            stats,
            clock,
            self.rec,
        );
        let sent = {
            let mut core = self.net.core.lock();
            if outcome.is_ok() {
                // Bind the worker's next response to this opening's fault
                // draws before any request bytes arrive (same conn, so
                // ordering is guaranteed).
                core.send_control_to_worker(self.worker, &NetControl::ProofSeq { seq });
            }
            let sent = core.send_framed_to_worker(self.worker, writes);
            if outcome.is_ok() && sent {
                core.await_opening(self.worker);
            }
            core.pump(Duration::ZERO);
            sent
        };
        if outcome.is_err() || !sent {
            return Err(unavailable);
        }

        // Response leg: the manager's own draws decide whether it arrived.
        let answer = self.await_answer().ok_or(unavailable)?;
        let opened = self.net.ingest(
            self.rec,
            self.epoch,
            self.worker,
            MsgKind::ProofResponse,
            seq,
            self.link_response,
            answer,
            stats,
            clock,
            |buf| {
                let (got_index, weights) = wire::decode_proof_response_in(buf)?;
                let raw = wire::proof_response_raw_wire_size(weights.len());
                Ok(((got_index, weights), raw))
            },
        );
        match opened {
            Some((got_index, weights)) if got_index == index => {
                Ok(std::borrow::Cow::Owned(weights))
            }
            _ => Err(unavailable),
        }
    }

    fn skip_opening(&self) {
        self.state.lock().next_seq();
    }
}

/// What an epoch is served through: the reactor, the chaos proxy, the
/// service limits and the executor. A [`PoolServer`] builds one over its
/// listener; the in-process link builds one per epoch over in-memory
/// connections ([`run_link_epoch`]).
struct Net {
    core: Arc<Mutex<NetCore>>,
    transport: Transport,
    cfg: ServerConfig,
    exec: Arc<Executor>,
}

impl Net {
    /// The pool's fault config seeds the chaos proxy; absent one, the
    /// proxy is ideal (every frame pristine) but the full framing path
    /// still runs.
    fn new(
        pool: &MiningPool,
        listener: Option<Listener>,
        cfg: ServerConfig,
        rec: Arc<Recorder>,
    ) -> Self {
        let config = pool.config();
        let fault = config
            .fault
            .unwrap_or_else(|| FaultConfig::ideal(config.seed));
        let core = NetCore::new(listener, cfg, pool.workers.len(), rec);
        Self {
            core: Arc::new(Mutex::new(core)),
            transport: Transport::new(&fault),
            cfg,
            exec: pool.executor(),
        }
    }

    /// The one ingest of a worker's upload — a submission or an opening —
    /// at a serialized point (worker order, or under the provider's seq),
    /// never at nondeterministic arrival time: the trace edge, when the
    /// frame carries a context (only a frame the worker's own draws
    /// delivered does); the manager's draws over the frame's length, which
    /// alone decide whether it arrived; the decode, whose `bytes_saved` is
    /// charged for every decodable upload, delivered or lost; and the
    /// buffer back to the pool. `decode` yields the message and the raw
    /// wire size its encoding replaced. `None` for a lost or undecodable
    /// upload.
    #[allow(clippy::too_many_arguments)]
    fn ingest<T>(
        &self,
        rec: &Recorder,
        epoch: u64,
        worker: usize,
        kind: MsgKind,
        seq: u64,
        link: LinkState,
        (ctx, mut payload): Upload,
        stats: &mut TransportStats,
        clock: &mut SimClock,
        decode: impl FnOnce(&mut Bytes) -> Result<(T, usize), DecodeError>,
    ) -> Option<T> {
        if let Some(ctx) = ctx {
            let (name, fields) = match kind {
                MsgKind::Submission => (
                    "rpol.server.ingest_submission",
                    [
                        ("epoch", Value::from(epoch)),
                        ("worker", Value::from(worker)),
                    ],
                ),
                _ => (
                    "rpol.server.ingest_proof",
                    [("worker", Value::from(worker)), ("seq", Value::from(seq))],
                ),
            };
            rec.child_event(name, ctx, &fields);
        }
        let payload_len = payload.len();
        let arrived = self
            .transport
            .chaos_outcome(
                epoch,
                worker,
                kind,
                seq,
                payload_len,
                link,
                stats,
                clock,
                rec,
            )
            .is_ok();
        let decoded = decode(&mut payload).ok().map(|(msg, raw)| {
            stats.bytes_saved += (raw as u64).saturating_sub(payload_len as u64);
            msg
        });
        self.core.lock().pool.put(Vec::from(payload));
        decoded.filter(|_| arrived)
    }
}

/// The manager, standing as a socket service: binds a listener, waits
/// for the worker roster, then drives epochs over the wire with the same
/// serialized fault accounting as the in-process link.
pub struct PoolServer {
    pool: MiningPool,
    net: Net,
    recorder: Arc<Recorder>,
    local: String,
}

impl PoolServer {
    /// Binds the listener and prepares the service.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for a pool configuration [`PoolConfig::validate`]
    /// refuses, else any socket `bind` error.
    pub fn bind(pool: MiningPool, addr: &BindAddr, cfg: ServerConfig) -> io::Result<Self> {
        pool.config()
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let recorder = pool.recorder.clone();
        let listener = Listener::bind(addr)?;
        let local = listener.local_display();
        let net = Net::new(&pool, Some(listener), cfg, recorder.clone());
        Ok(Self {
            pool,
            net,
            recorder,
            local,
        })
    }

    /// The bound address in [`BindAddr::parse`] syntax (with the
    /// OS-assigned port resolved).
    pub fn local_addr(&self) -> String {
        self.local.clone()
    }

    /// Current socket-layer counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.core.lock().net_stats()
    }

    /// Pumps the reactor until `n` distinct workers have completed the
    /// handshake.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` when the roster is still short at the deadline.
    pub fn wait_for_workers(&self, n: usize, deadline: Duration) -> io::Result<()> {
        if NetCore::pump_until(&self.net.core, deadline, |core| core.by_worker.len() >= n) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "workers did not connect before the deadline",
            ))
        }
    }

    /// Runs the configured number of epochs against the connected
    /// workers, then broadcasts [`NetControl::Shutdown`] and drains.
    ///
    /// # Errors
    ///
    /// Returns `TimedOut` when the full roster never connects.
    pub fn run(&mut self) -> io::Result<PoolReport> {
        let n = self.pool.workers.len();
        let epochs_total = self.pool.config().epochs;
        // Publish the epoch plan before the roster gathers so a status
        // probe during the connect phase already sees it.
        self.net.core.lock().progress.epochs_total = epochs_total as u64;
        self.wait_for_workers(n, CONNECT_DEADLINE)?;
        let mut epochs = Vec::with_capacity(epochs_total);
        for e in 0..epochs_total {
            let record = serve_epoch(&mut self.pool, &self.net, None, e as u64, PoolManager::plan);
            self.pool.publish_epoch(&record);
            self.publish_net(Some(record.wall_seconds));
            {
                // Fold the finished epoch into the status-plane progress
                // at this serial point, so a poll never sees half an epoch.
                let mut core = self.net.core.lock();
                core.progress.epochs_done += 1;
                core.progress.accepted += record.report.accepted.len() as u64;
                core.progress.rejected += record.report.rejected.len() as u64;
                core.progress.quarantined += record.report.quarantined.len() as u64;
                core.progress.shed = core.stats.shed_submissions;
                core.progress.committees += record
                    .report
                    .hierarchy
                    .as_ref()
                    .map_or(0, |h| h.committees as u64);
                core.progress.peak_commit_bytes = core
                    .progress
                    .peak_commit_bytes
                    .max(record.report.peak_commit_bytes);
            }
            epochs.push(record);
        }
        self.net
            .core
            .lock()
            .broadcast_control(&NetControl::Shutdown);
        // Pump until the shutdown notices actually reach the workers.
        NetCore::pump_until(
            &self.net.core,
            Duration::from_secs(2),
            NetCore::outboxes_empty,
        );
        self.publish_net(None);
        Ok(PoolReport {
            scheme: self.pool.config().scheme,
            epochs,
            // Checkpoints live with the remote workers; their storage is
            // reported client-side (`ClientReport`), not here.
            worker_storage_bytes: 0,
        })
    }

    /// Publishes the `net.*` counter deltas since the last call (and the
    /// epoch wall time, when one finished). Latencies land in log-bucketed
    /// histograms — never counters — so the `net.*` counter family stays in
    /// one-to-one correspondence with [`NetStats`].
    fn publish_net(&mut self, epoch_seconds: Option<f64>) {
        self.net.core.lock().publish_stats();
        let rec = &*self.recorder;
        if let Some(seconds) = epoch_seconds {
            rec.observe("net.epoch_ms", (seconds * 1e3) as u64);
            rec.observe_latency("net.epoch_latency", (seconds * 1e6) as u64);
        }
    }
}

/// One epoch of the in-process link (`config.fault`): the server's epoch
/// body against the pool's own workers, each behind an in-memory
/// connection that runs the real handshake, framing, routing, mailboxes and
/// outbox backpressure — with no listener, no socket and no thread. Each
/// worker's [`WorkerSession`] draws its sender-side faults on a silent
/// recorder, as a remote client draws them on its own, so the pool's trace
/// records every exchange once; what it encodes is counted on the pool's.
pub(crate) fn run_link_epoch(
    pool: &mut MiningPool,
    epoch: u64,
    plan: impl FnOnce(&mut PoolManager, usize, u64) -> EpochPlan,
) -> EpochRecord {
    let cfg = ServerConfig {
        // Nothing in memory idles on a wall clock or waits for a slot.
        max_connections: usize::MAX,
        max_inflight: usize::MAX,
        handshake_timeout: Duration::MAX,
        idle_timeout: Duration::MAX,
        parallel_verify: true,
        ..ServerConfig::default()
    };
    let net = Net::new(pool, None, cfg, rpol_obs::noop().clone());
    let config = *pool.config();
    let peers: Vec<Mutex<MemPeer>> = (0..pool.workers.len())
        .map(|w| {
            let (server_end, mut worker_end) = mem_pair();
            worker_end
                .write_all(&WorkerSession::hello(w))
                .expect("in-memory writes never fail");
            net.core.lock().admit(NetStream::Mem(server_end));
            let session =
                WorkerSession::new(&config, rpol_obs::noop().clone(), pool.recorder.clone());
            Mutex::new(MemPeer {
                session,
                stream: worker_end,
                asm: FrameAssembler::new(wire::MAX_FRAME_BYTES),
            })
        })
        .collect();
    net.core.lock().drain_mem(); // Hello → Welcome
    serve_epoch(pool, &net, Some(&peers), epoch, plan)
}

/// The epoch body every source shares, phase by phase (protocol 3): plan
/// (by `plan`: [`PoolManager::plan`], or [`PoolManager::begin_epoch`] for
/// an epoch calibrated before anything trains), task broadcast, training
/// beside the plan's pending calibration, its adoption, the `CommitSpec`,
/// batched submission ingest, verification through a [`SocketProvider`]
/// per delivered worker, verdicts. Every fault draw lands
/// in a serialized worker-id order, so stats, clock and quarantine decisions
/// agree bit for bit between a TCP run (`peers` is `None`: remote clients,
/// waited on) and an in-memory one (`peers` drives the pool's own workers).
///
/// Both use the link's fault semantics ([`link_state`]): a `Straggler`'s
/// legs are slowed, a `CrashAt` worker's task link dies after its crash
/// epoch and its submission link from it on — it neither trains nor sends,
/// and the ingest charges it one commitment deadline in worker order. A
/// worker that *really* disconnects (or is shed) is quarantined uncharged.
fn serve_epoch(
    pool: &mut MiningPool,
    net: &Net,
    peers: Option<&[Mutex<MemPeer>]>,
    epoch: u64,
    plan: impl FnOnce(&mut PoolManager, usize, u64) -> EpochPlan,
) -> EpochRecord {
    let start = Instant::now();
    let recorder = pool.recorder.clone();
    let rec: &Recorder = &recorder;
    // The distributed trace is keyed by the pool seed; every phase span
    // is a child of the epoch span, and outbound frames carry a context
    // whose parent is the phase that caused them (DESIGN.md §16).
    let trace_id = pool.config().seed;
    let (_epoch_span, epoch_sid) = recorder.child_span(
        "rpol.server.epoch",
        TraceContext {
            trace_id,
            parent_span: 0,
            watermark: 0,
        },
        &[("epoch", Value::from(epoch))],
    );
    let under_epoch = TraceContext {
        trace_id,
        parent_span: epoch_sid,
        watermark: 0,
    };
    let n = pool.workers.len();
    let behaviors: Vec<WorkerBehavior> = pool.workers.iter().map(PoolWorker::behavior).collect();
    let link = |w: usize, kind: MsgKind| link_state(&behaviors[w], epoch, kind);
    let mut plan = plan(&mut pool.manager, n, epoch);
    let mut stats = TransportStats::default();
    let mut clock = SimClock::new();
    let mut quarantined: Vec<usize> = Vec::new();
    let mut comm = CommStats::default();
    net.core.lock().reset_epoch();

    // Phase 1: task broadcast, serial in worker order.
    let (phase_broadcast, broadcast_sid) = recorder.child_span(
        "rpol.pool.task_broadcast",
        under_epoch,
        &[("epoch", Value::from(epoch))],
    );
    let block = pool.manager.task_block(&plan);
    let mut tasked = vec![false; n];
    for (w, tasked) in tasked.iter_mut().enumerate() {
        let payload = block.frame(epoch, plan.nonces[w], plan.steps as u32);
        comm.broadcast_bytes += payload.len() as u64;
        stats.bytes_saved += block.bytes_saved();
        let ctx = TraceContext {
            trace_id,
            parent_span: broadcast_sid,
            watermark: 0,
        };
        let (writes, outcome) = net.transport.chaos_send(
            epoch,
            w,
            MsgKind::Task,
            0,
            &payload,
            link(w, MsgKind::Task),
            Some(ctx),
            &mut stats,
            &mut clock,
            rec,
        );
        scratch::put(Vec::from(payload));
        let sent = {
            let mut core = net.core.lock();
            let sent = core.send_framed_to_worker(w, writes);
            core.pump(Duration::ZERO);
            sent
        };
        if outcome.is_ok() && sent {
            *tasked = true;
        } else {
            quarantined.push(w);
        }
    }
    drop(phase_broadcast);

    // Phase 2: every tasked worker whose submission link is up trains while
    // the manager calibrates — only a commitment needs the calibration's
    // LSH family, and no training reads it (§22). Then the CommitSpec goes
    // out, and each worker commits and uploads at it.
    let awaited: Vec<bool> = (0..n)
        .map(|w| tasked[w] && link(w, MsgKind::Submission).alive)
        .collect();
    let (phase_training, _) = recorder.child_span(
        "rpol.pool.training",
        under_epoch,
        &[("epoch", Value::from(epoch))],
    );
    let pending = plan.pending_calibration();
    let mut calibration = None;
    match peers {
        // In memory: the calibration and each member's training run as one
        // executor task each.
        Some(peers) => {
            let (steps, manager) = (plan.steps, &pool.manager);
            net.exec.scope(|s| {
                if let Some(nonce) = pending {
                    let calibration = &mut calibration;
                    s.spawn(move || *calibration = Some(manager.calibrate(nonce, epoch)));
                }
                let workers = pool.workers.iter_mut().zip(peers).enumerate();
                for (w, (worker, peer)) in workers.filter(|&(w, _)| awaited[w]) {
                    s.spawn(move || {
                        let _g = span!(rec, "rpol.worker.train_epoch", epoch, worker = w, steps);
                        peer.lock().step(Access::Train(worker));
                    });
                }
            });
        }
        // Over sockets: once every task is flushed the remote workers train
        // on their own, and the calibration fans out on both executor
        // lanes from this thread. No worker uploads before its spec, so
        // nothing needs pumping meanwhile.
        None => {
            // (The per-task pumps have usually flushed everything; a wait
            // would park for nothing.)
            if !net.core.lock().outboxes_empty() {
                NetCore::pump_until(&net.core, PHASE_TIMEOUT, NetCore::outboxes_empty);
            }
            calibration = pending.map(|nonce| pool.manager.calibrate(nonce, epoch));
        }
    }
    if pending.is_some() {
        pool.manager.adopt(&mut plan, calibration);
    }
    // The few scalars of a FamilySpec are the family's key, from which a
    // worker derives the projection rows inside its commitment hash.
    let scheme = pool.config().scheme;
    let family = plan
        .calibration
        .filter(|_| scheme.spec().hashes_by_lsh())
        .map(|c| FamilySpec {
            r: c.params.r,
            k: c.params.k as u32,
            l: c.params.l as u32,
            seed: c.family_seed,
        });
    {
        let mut core = net.core.lock();
        core.broadcast_control(&NetControl::CommitSpec {
            epoch,
            scheme,
            family,
        });
        core.pump(Duration::ZERO);
    }
    match peers {
        // In memory: members commit as one executor task each, then every
        // byte they wrote is routed.
        Some(peers) => {
            net.exec.scope(|s| {
                let workers = pool.workers.iter_mut().zip(peers).enumerate();
                for (_, (worker, peer)) in workers.filter(|&(w, _)| awaited[w]) {
                    s.spawn(move || peer.lock().step(Access::Train(worker)));
                }
            });
            net.core.lock().drain_mem();
        }
        // Over sockets: the driver pumps until every awaited mailbox
        // settles.
        None => {
            NetCore::pump_until(&net.core, PHASE_TIMEOUT, |core| {
                (0..n).all(|w| !awaited[w] || core.submission_settled(w))
            });
        }
    }
    drop(phase_training);

    // Phase 3 (manager side): drain every mailbox in ONE lock hold, then
    // ingest the batch serially in worker order — chaos outcomes
    // recomputed from lengths, bit-for-bit with the sender's draws.
    let (phase_submission, submission_sid) = recorder.child_span(
        "rpol.pool.submission",
        under_epoch,
        &[("epoch", Value::from(epoch))],
    );
    let batch = net.core.lock().drain_submissions(&tasked);
    let (batch_span, _) = recorder.child_span(
        "rpol.server.ingest_batch",
        TraceContext {
            trace_id,
            parent_span: submission_sid,
            watermark: recorder.now_ns(),
        },
        &[
            ("epoch", Value::from(epoch)),
            (
                "drained",
                Value::from(batch.iter().filter(|m| m.is_some()).count() as u64),
            ),
        ],
    );
    let mut delivered: Vec<Option<EpochSubmission>> = (0..n).map(|_| None).collect();
    for (w, mail) in batch.into_iter().enumerate() {
        if !tasked[w] {
            continue; // already quarantined at task delivery
        }
        if !awaited[w] {
            // The worker fell silent: the manager waits out one commitment
            // deadline, then gives up on it.
            stats.timeouts += 1;
            clock.add(
                MsgKind::Submission.label(),
                net.transport.policy().timeout_s,
            );
            event!(recorder, "rpol.pool.deadline_miss", epoch, worker = w);
            if let Some(SubMail::Pristine((_, payload))) = mail {
                net.core.lock().pool.put(Vec::from(payload));
            }
            quarantined.push(w);
            continue;
        }
        match mail {
            Some(SubMail::Pristine(upload)) => {
                let payload_len = upload.1.len();
                let submission = net.ingest(
                    rec,
                    epoch,
                    w,
                    MsgKind::Submission,
                    0,
                    link(w, MsgKind::Submission),
                    upload,
                    &mut stats,
                    &mut clock,
                    |buf| {
                        let (weights, commitment) = wire::decode_submission_in(buf)?;
                        let raw =
                            wire::submission_raw_wire_size(weights.len(), commitment.as_ref());
                        Ok(((weights, commitment), raw))
                    },
                );
                match submission {
                    Some(submission) => {
                        comm.submission_bytes += payload_len as u64;
                        delivered[w] = Some(EpochSubmission::delivered(
                            w,
                            submission,
                            payload_len,
                            plan.commit_mode(),
                        ));
                    }
                    None => quarantined.push(w),
                }
            }
            Some(SubMail::Shed) => {
                event!(recorder, "rpol.server.shed", epoch, worker = w);
                quarantined.push(w);
            }
            None => {
                event!(recorder, "rpol.server.deadline_miss", epoch, worker = w);
                quarantined.push(w);
            }
        }
    }
    drop(batch_span);
    drop(phase_submission);

    // Phase 4: verification over the survivors, openings served through
    // per-worker providers. (An opening's lattice needs no server-side
    // switch: the worker picks it from the CommitSpec, and the block
    // names it.)
    let (phase_verification, verify_sid) = recorder.child_span(
        "rpol.pool.verification",
        under_epoch,
        &[("epoch", Value::from(epoch))],
    );
    let providers: Vec<Option<SocketProvider<'_>>> = (0..n)
        .map(|w| {
            delivered[w].as_ref().map(|_| SocketProvider {
                net,
                rec,
                worker: w,
                epoch,
                link_request: link(w, MsgKind::ProofRequest),
                link_response: link(w, MsgKind::ProofResponse),
                peer: peers.map(|peers| (&peers[w], &pool.workers[w])),
                state: Mutex::new(ProviderState::default()),
                trace_id,
                parent_span: verify_sid,
            })
        })
        .collect();
    // verify → settle, the tail every source shares (DESIGN.md §22): the
    // delivered participants stream through it group by group — one
    // group of everyone, or the rendezvous committees, each under its
    // own child span of the verification phase so stitched timelines
    // show the two-tier structure.
    let hierarchy = pool.config.hierarchy;
    let exec = net.cfg.parallel_verify.then_some(&*net.exec);
    let groups = roster_groups(&pool.config, n);
    let manager = &mut pool.manager;
    let mut settlement = manager.settle_begin(&plan, hierarchy);
    for (g, members) in groups.iter().enumerate() {
        let present: Vec<Participant<'_>> = members
            .iter()
            .filter_map(|&w| {
                let provider = providers[w].as_ref()?;
                let part = Participant::in_process(&pool.workers[w], delivered[w].as_ref()?);
                Some(Participant { provider, ..part })
            })
            .collect();
        let _committee_span = hierarchy.map(|_| {
            recorder.child_span(
                "rpol.server.committee",
                TraceContext {
                    trace_id,
                    parent_span: verify_sid,
                    watermark: 0,
                },
                &[
                    ("epoch", Value::from(epoch)),
                    ("committee", Value::from(g)),
                    ("members", Value::from(present.len())),
                ],
            )
        });
        manager.verify_and_fold(&mut settlement, g, &present, &plan, exec);
    }
    let mut report = manager.settle_finish(settlement, comm, &quarantined);
    merge_proof_traffic(
        providers
            .into_iter()
            .flatten()
            .map(|provider| provider.state.into_inner()),
        &mut stats,
        &mut clock,
    );
    for sub in delivered.into_iter().flatten() {
        scratch::put(sub.final_weights);
    }
    report.transport = stats;
    drop(phase_verification);

    // Verdicts back to the workers on the control plane.
    {
        let mut status = vec![2u8; n];
        for &w in &report.accepted {
            status[w] = 0;
        }
        for &w in &report.rejected {
            status[w] = 1;
        }
        let mut core = net.core.lock();
        for (w, &status) in status.iter().enumerate() {
            core.send_control_to_worker(w, &NetControl::EpochEnd { epoch, status });
        }
        core.pump(Duration::ZERO);
    }

    EpochRecord {
        report,
        test_accuracy: pool.test_accuracy(),
        wall_seconds: start.elapsed().as_secs_f64(),
        transport_time: clock,
    }
}

/// Everything [`run_socket_pool`] needs beyond the pool config.
#[derive(Clone, Default)]
pub struct SocketRunOptions {
    /// Service limits and deadlines.
    pub server: ServerConfig,
    /// Worker-client timeouts and reconnect policy.
    pub client: crate::client::ClientTuning,
    /// Observability recorder for the server-side pool.
    pub recorder: Option<Arc<Recorder>>,
    /// Per-worker client recorders, indexed by worker id; missing entries
    /// default to the shared no-op recorder. Tests keep `Arc` clones so
    /// the per-process traces can be stitched after the run.
    pub client_recorders: Vec<Arc<Recorder>>,
}

/// What a loopback socket run produced.
pub struct SocketRunOutcome {
    /// The server's epoch records (same shape as the in-process pool's).
    pub report: PoolReport,
    /// Final socket-layer counters.
    pub net: NetStats,
    /// Per-worker client outcomes, in worker-id order.
    pub clients: Vec<crate::client::ClientReport>,
}

/// End-to-end loopback harness: binds a [`PoolServer`] on an OS-assigned
/// port, spawns one [`WorkerClient`] thread per behaviour, runs every
/// epoch over TCP, and joins the clients.
///
/// The server builds the whole [`MiningPool`] (the manager, plus worker
/// replicas for their shard handles); the clients get fresh copies of its
/// workers over the same shards ([`MiningPool::fresh_workers`]), so data
/// sharding and training match the in-process pool bit for bit and the
/// training set is drawn once and held once: a replica and its client
/// read the same rows.
///
/// # Errors
///
/// Returns any bind error, or `TimedOut` when the roster never connects.
///
/// [`WorkerClient`]: crate::client::WorkerClient
pub fn run_socket_pool(
    config: PoolConfig,
    behaviors: Vec<WorkerBehavior>,
    options: SocketRunOptions,
) -> io::Result<SocketRunOutcome> {
    let mut pool = MiningPool::new(config, behaviors);
    if let Some(rec) = options.recorder {
        pool = pool.with_recorder(rec);
    }
    let workers = pool.fresh_workers();
    let mut server = PoolServer::bind(pool, &BindAddr::loopback(), options.server)?;
    let handles = spawn_clients(
        config,
        workers,
        &server.local_addr(),
        &options.client,
        &options.client_recorders,
    );
    let report = server.run()?;
    let net = server.net_stats();
    let clients = handles
        .into_iter()
        .map(|h| h.join().expect("worker client thread panicked"))
        .collect();
    Ok(SocketRunOutcome {
        report,
        net,
        clients,
    })
}

/// One [`WorkerClient`] thread per worker, connecting to `addr`.
///
/// [`WorkerClient`]: crate::client::WorkerClient
fn spawn_clients(
    config: PoolConfig,
    workers: Vec<PoolWorker>,
    addr: &str,
    tuning: &crate::client::ClientTuning,
    recorders: &[Arc<Recorder>],
) -> Vec<std::thread::JoinHandle<crate::client::ClientReport>> {
    workers
        .into_iter()
        .enumerate()
        .map(|(i, worker)| {
            let addr = addr.to_string();
            let tuning = tuning.clone();
            let rec = recorders.get(i).cloned();
            std::thread::spawn(move || {
                let mut client = crate::client::WorkerClient::new(config, worker, addr, tuning);
                if let Some(rec) = rec {
                    client = client.with_recorder(rec);
                }
                client.run()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Lattice, Scheme};
    use rpol_tensor::rng::Pcg32;

    /// First bytes covering every payload class: the submission, proof and
    /// task tags, the model tags protocol 4 retired (`0x01`–`0x04`, `0x11`,
    /// `0x20`), a committee batch, every control tag, the trace extension,
    /// and two no protocol revision knows.
    const FIRST_BYTES: [u8; 25] = [
        0x01, 0x02, 0x03, 0x04, 0x05, 0x10, 0x11, 0x12, 0x20, 0x21, 0x40, 0x30, 0x31, 0x32, 0x33,
        0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x3B, 0x54, 0xFF,
    ];

    /// The submissions a hostile sequence is seeded from: an RPoLv1 one (an
    /// f32 block) and an RPoLv3 one (a bf16 block), each with escapes in
    /// its hi-plane dictionary.
    fn seed_submissions() -> [Bytes; 2] {
        use crate::commitment::EpochCommitment;
        let mut g = Pcg32::seed_from(0x5EED);
        let weights: Vec<f32> = (0..40)
            .map(|i| match i % 13 {
                0 => f32::from_bits(g.next_u32()),
                _ => g.next_normal() * 0.05,
            })
            .collect();
        let image = rpol_tensor::quant::bf16_image(&weights);
        let family = rpol_lsh::LshFamily::new(40, rpol_lsh::LshParams::new(1.0, 2, 2), 3);
        [
            wire::encode_submission(
                &weights,
                Some(&EpochCommitment::commit_v1(&[
                    weights.clone(),
                    weights.clone(),
                ])),
            ),
            wire::encode_submission(
                &image,
                Some(&EpochCommitment::commit_v3(
                    &[image.clone(), image.clone()],
                    &family,
                )),
            ),
        ]
    }

    /// One seeded hostile byte sequence: a few frames, each well-formed,
    /// random-bodied, a repeated or bent (re-sealed, so it opens) seed
    /// submission, protocol 1's retired `0x37` lost-upload notice or an
    /// unsolicited opening, a Hello after the handshake, a ghost, garbage,
    /// an oversized length field — and, only last, a frame cut short, which
    /// swallows the head of the next sequence as a real truncation would.
    fn hostile_sequence(g: &mut Pcg32, seeds: &[Bytes]) -> Vec<u8> {
        let mut out = Vec::new();
        let items = 1 + g.next_below(4);
        for item in 0..items {
            let submission = &seeds[g.next_below(seeds.len() as u32) as usize];
            match g.next_below(9) {
                0 => {
                    let tag = FIRST_BYTES[g.next_below(FIRST_BYTES.len() as u32) as usize];
                    let mut body = vec![tag];
                    body.extend((0..g.next_below(48)).map(|_| g.next_u32() as u8));
                    out.extend_from_slice(&wire::seal_frame(&Bytes::from(body)));
                }
                1 => {
                    let mut body = submission.to_vec();
                    if g.next_below(2) == 0 {
                        let pos = g.next_below(body.len() as u32) as usize;
                        body[pos] ^= 1 + g.next_below(255) as u8;
                    }
                    let body = Bytes::from(body);
                    for _ in 0..=g.next_below(3) {
                        out.extend_from_slice(&wire::seal_frame(&body));
                    }
                }
                2 => {
                    let payload = if g.next_below(2) == 0 {
                        // kind, seq, payload length, raw length
                        let mut notice = vec![0x37, [0, 1, 2, 3, 0xFF][g.next_below(5) as usize]];
                        notice.extend_from_slice(&u64::from(g.next_below(4)).to_le_bytes());
                        notice.extend_from_slice(&g.next_u32().to_le_bytes());
                        notice.extend_from_slice(&g.next_u32().to_le_bytes());
                        Bytes::from(notice)
                    } else {
                        wire::encode_proof_response(g.next_below(4) as usize, &[0.5; 3])
                    };
                    out.extend_from_slice(&wire::seal_frame(&payload));
                }
                3 => {
                    let msg = match g.next_below(4) {
                        0 => NetControl::Hello {
                            worker: g.next_below(4),
                            protocol: wire::NET_PROTOCOL,
                        },
                        1 => NetControl::Ping {
                            nonce: g.next_u64(),
                        },
                        2 => NetControl::Status,
                        _ => NetControl::ProofSeq { seq: g.next_u64() },
                    };
                    out.extend_from_slice(&wire::seal_frame(&wire::encode_net_control(&msg)));
                }
                4 => {
                    let ctx = TraceContext {
                        trace_id: g.next_u64(),
                        parent_span: g.next_u64(),
                        watermark: g.next_u64(),
                    };
                    let traced = wire::wrap_traced(ctx, submission);
                    out.extend_from_slice(&wire::seal_frame(&traced));
                }
                5 => {
                    let mut ghost = wire::seal_frame(submission).to_vec();
                    ghost[8] ^= 0xA5; // a poisoned digest, as the chaos proxy writes
                    out.extend_from_slice(&ghost);
                }
                6 => out.extend((0..1 + g.next_below(16)).map(|_| g.next_u32() as u8)),
                7 => {
                    let mut header = wire::seal_frame(submission)[..FRAME_HEADER].to_vec();
                    header[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                    out.extend_from_slice(&header);
                }
                _ if item + 1 == items => {
                    let framed = wire::seal_frame(submission);
                    out.extend_from_slice(&framed[..g.next_below(framed.len() as u32) as usize]);
                }
                _ => {}
            }
        }
        out
    }

    /// What a standalone assembler makes of `bytes` appended to its stream:
    /// (opened, checksum failures, other rejections).
    fn parse(asm: &mut FrameAssembler, bytes: &[u8]) -> (u64, u64, u64) {
        asm.push(bytes);
        let mut counts = (0, 0, 0);
        loop {
            match asm.next_frame() {
                Ok(Some(_)) => counts.0 += 1,
                Ok(None) => return counts,
                Err(wire::DecodeError::ChecksumMismatch) => counts.1 += 1,
                Err(_) => counts.2 += 1,
            }
        }
    }

    const FRAME_HEADER: usize = wire::FRAME_HEADER_BYTES;

    /// `sequences` hostile byte sequences through one in-memory connection
    /// of a listener-less reactor, beside two honest workers that each
    /// mailed one submission. Nothing panics; every frame is counted as
    /// routed, corrupt or malformed, exactly as an assembler of the same
    /// bytes parses them; no worker ever has more than one submission
    /// mailed, nor a proof response beyond its outstanding openings (none
    /// here); the honest mail is untouched; and the table never grows past
    /// the roster plus one. What the hostile peer gets mailed is taken
    /// after each sequence and decoded, as an epoch's ingest would: seeds
    /// on both lattices decode, bent ones are mostly refused, none panics.
    fn sweep_hostile_frames(sequences: u64) {
        let n = 3;
        let cfg = ServerConfig {
            handshake_timeout: Duration::MAX,
            idle_timeout: Duration::MAX,
            max_frame_bytes: 1 << 16,
            ..ServerConfig::default()
        };
        let mut core = NetCore::new(None, cfg, n, rpol_obs::noop().clone());
        let honest: Vec<Bytes> = (0..2)
            .map(|w| wire::encode_submission(&[w as f32, 1.5, -2.0], None))
            .collect();
        let mut ends: Vec<MemStream> = (0..n)
            .map(|w| {
                let (server_end, mut worker_end) = mem_pair();
                core.admit(NetStream::Mem(server_end));
                worker_end
                    .write_all(&WorkerSession::hello(w))
                    .expect("in memory");
                worker_end
            })
            .collect();
        for (end, submission) in ends.iter_mut().zip(&honest) {
            end.write_all(&wire::seal_frame(submission))
                .expect("in memory");
        }
        core.drain_mem();
        assert_eq!(core.stats.handshakes, n as u64);
        let before = core.stats;

        let hostile = n - 1;
        let seeds = seed_submissions();
        let mut oracle = FrameAssembler::new(cfg.max_frame_bytes);
        let mut expected = (0, 0, 0);
        // Taken hostile submissions: (decoded, refused).
        let mut decoded = (0u64, 0u64);
        let mut g = Pcg32::seed_from(0x4057_11E5);
        for case in 0..sequences {
            let bytes = hostile_sequence(&mut g, &seeds);
            let parsed = parse(&mut oracle, &bytes);
            expected = (
                expected.0 + parsed.0,
                expected.1 + parsed.1,
                expected.2 + parsed.2,
            );
            ends[hostile].write_all(&bytes).expect("in memory");
            core.drain_mem();
            // Replies (pongs, status reports) are the hostile peer's to
            // read; dropping them keeps its queue from growing.
            std::io::copy(&mut ends[hostile], &mut std::io::sink()).ok();

            let mailed = core
                .mail
                .iter()
                .filter(|mb| matches!(mb.submission, Some(SubMail::Pristine(..))))
                .count();
            assert_eq!(core.inflight, mailed, "case {case}");
            assert!(
                core.mail
                    .iter()
                    .all(|mb| matches!(mb.opening, Opening::Idle)),
                "case {case}: an unsolicited proof response was held"
            );
            assert!(
                core.conns.len() <= n + 1,
                "case {case}: {} slots",
                core.conns.len()
            );
            assert!(
                core.connected(hostile),
                "case {case}: the hostile peer was dropped"
            );
            if let Some(SubMail::Pristine((_, payload))) = core.take_submission(hostile) {
                match wire::decode_submission(payload) {
                    Ok(_) => decoded.0 += 1,
                    Err(_) => decoded.1 += 1,
                }
            }
        }
        assert!(
            decoded.0 > 0 && decoded.1 > 0,
            "the decoder saw no seed or no bent seed: {decoded:?}"
        );
        let delta = core.stats.delta(&before);
        assert!(
            expected.0 > sequences && expected.1 > 0 && expected.2 > 0,
            "vacuous sweep: {expected:?}"
        );
        assert_eq!(delta.frames_in, expected.0, "routed");
        assert_eq!(delta.corrupt_frames, expected.1, "corrupt");
        // The assembler's rejections, plus routed frames the router refused.
        assert!(
            (expected.2..=expected.2 + expected.0).contains(&delta.malformed_frames),
            "malformed {} outside {expected:?}",
            delta.malformed_frames
        );
        assert!(
            delta.malformed_frames > expected.2,
            "the router refused nothing"
        );
        for (w, submission) in honest.iter().enumerate() {
            let Some(SubMail::Pristine((None, payload))) = core.take_submission(w) else {
                panic!("worker {w}'s submission was disturbed");
            };
            assert_eq!(&payload, submission, "worker {w}");
        }
    }

    #[test]
    fn hostile_frames_through_the_reactor_never_panic_or_leak_a_slot() {
        sweep_hostile_frames(2_000);
    }

    /// The sweep at 100k sequences (`scripts/ci.sh`).
    #[test]
    #[ignore = "soak: run with --ignored in release"]
    fn hostile_frames_soak() {
        sweep_hostile_frames(100_000);
    }

    /// A listener-less reactor for `n` workers with nothing timing out,
    /// and one in-memory connection's worker end, not yet handshaken.
    fn mem_core(n: usize) -> (NetCore, MemStream) {
        let cfg = ServerConfig {
            handshake_timeout: Duration::MAX,
            idle_timeout: Duration::MAX,
            ..ServerConfig::default()
        };
        let mut core = NetCore::new(None, cfg, n, rpol_obs::noop().clone());
        let (server_end, worker_end) = mem_pair();
        core.admit(NetStream::Mem(server_end));
        (core, worker_end)
    }

    /// A worker cannot make the manager hold proof responses it never
    /// asked for: 1,000 unsolicited 100 kB openings through one in-memory
    /// connection are each counted malformed and their buffers recycled,
    /// so one buffer serves them all.
    #[test]
    fn unsolicited_proof_responses_are_counted_and_never_held() {
        let (mut core, mut worker) = mem_core(1);
        worker
            .write_all(&WorkerSession::hello(0))
            .expect("in memory");
        core.drain_mem();
        assert!(core.connected(0));
        let response = wire::seal_frame(&wire::encode_proof_response(0, &[0.5; 25_000]));
        let (before, misses) = (core.stats, core.pool.misses);
        for _ in 0..1_000 {
            worker.write_all(&response).expect("in memory");
            core.drain_mem();
        }
        let delta = core.stats.delta(&before);
        assert_eq!(delta.frames_in, 1_000);
        assert_eq!(delta.malformed_frames, 1_000, "every response counted");
        assert!(
            core.pool.misses - misses <= 1,
            "{} fresh buffers: responses were held",
            core.pool.misses - misses
        );
    }

    /// An older worker cannot be served: a protocol-1 worker would announce
    /// a lost upload with the retired `0x37` notice instead of sending it,
    /// a protocol-2 worker would upload at its task, before the epoch's
    /// `CommitSpec`, and a protocol-3 worker would ship raw f32 weights
    /// under the retired model tags. Each one's Hello gets no Welcome, and
    /// the connection is closed.
    #[test]
    fn an_older_protocol_hello_gets_no_welcome_and_is_closed() {
        assert_eq!(wire::NET_PROTOCOL, 4);
        for protocol in 1..wire::NET_PROTOCOL {
            let (mut core, mut worker) = mem_core(1);
            let hello = NetControl::Hello {
                worker: 0,
                protocol,
            };
            worker
                .write_all(&wire::seal_frame(&wire::encode_net_control(&hello)))
                .expect("in memory");
            core.drain_mem();
            assert_eq!(core.stats.handshakes, 0, "protocol {protocol}");
            assert!(!core.connected(0), "protocol {protocol}");
            assert_eq!(core.active(), 0, "protocol {protocol}: not closed");
            let mut replies = Vec::new();
            worker.read_to_end(&mut replies).expect("end of stream");
            assert!(replies.is_empty(), "protocol {protocol}: a Welcome");
        }
    }

    /// The worker's order contract (protocol 3): a task is trained and
    /// kept, and the first `CommitSpec` for its epoch and scheme uploads it
    /// once. A repeated spec, a spec for another epoch, a spec of another
    /// scheme, or a spec whose task was lost writes nothing.
    #[test]
    fn a_worker_uploads_once_at_the_commit_spec_of_its_trained_epoch() {
        let config = PoolConfig::tiny_demo(Scheme::RPoLv1);
        let global = MiningPool::new(config, vec![WorkerBehavior::Honest])
            .manager
            .global_weights()
            .to_vec();
        let mut worker = MiningPool::build_workers(config, &[WorkerBehavior::Honest])
            .pop()
            .expect("one worker");
        let (mut server_end, worker_end) = mem_pair();
        let mut peer = MemPeer {
            session: WorkerSession::new(
                &config,
                rpol_obs::noop().clone(),
                rpol_obs::noop().clone(),
            ),
            stream: worker_end,
            asm: FrameAssembler::new(wire::MAX_FRAME_BYTES),
        };
        // Writes one frame to the worker, steps it, and returns what it
        // wrote back as opened payloads.
        let mut asm = FrameAssembler::new(wire::MAX_FRAME_BYTES);
        let mut send = |payload: Bytes| -> Vec<Bytes> {
            server_end
                .write_all(&wire::seal_frame(&payload))
                .expect("in memory");
            peer.step(Access::Train(&mut worker));
            let mut written = Vec::new();
            server_end.read_to_end(&mut written).ok();
            asm.push(&written);
            std::iter::from_fn(|| asm.next_frame().expect("no fault on an ideal link")).collect()
        };
        let task = |epoch| wire::TaskBlock::new(Lattice::F32, &global).frame(epoch, 11, 2);
        let spec = |epoch, scheme| {
            wire::encode_net_control(&NetControl::CommitSpec {
                epoch,
                scheme,
                family: None,
            })
        };

        assert!(send(task(0)).is_empty(), "a task alone writes nothing");
        let upload = send(spec(0, Scheme::RPoLv1));
        assert_eq!(upload.len(), 1, "the spec uploads the trained epoch once");
        let (weights, commitment) =
            wire::decode_submission(upload[0].clone()).expect("a submission");
        assert_eq!(weights.len(), global.len());
        assert!(commitment.is_some(), "committed under v1");
        assert!(send(spec(0, Scheme::RPoLv1)).is_empty(), "a repeated spec");

        assert!(send(task(1)).is_empty());
        assert!(send(spec(0, Scheme::RPoLv1)).is_empty(), "another epoch");
        assert!(
            send(spec(1, Scheme::Baseline)).is_empty(),
            "a spec whose scheme differs from the trained one"
        );
        assert!(
            send(spec(2, Scheme::RPoLv1)).is_empty(),
            "a spec after a lost task"
        );

        assert!(send(task(3)).is_empty());
        assert_eq!(send(spec(3, Scheme::RPoLv1)).len(), 1, "the next epoch");
    }

    /// A burst pre-buffered past the frame budget drains across pumps
    /// without a poller too: nine pings written at once on one in-memory
    /// connection, at two frames per connection per pump, draw nine pongs
    /// in nonce order over five pumps, and the peer writes no further
    /// byte. The leftovers ride the dirty queue both kinds of core share.
    #[test]
    fn a_ping_burst_drains_across_pumps_without_a_poller() {
        let cfg = ServerConfig {
            max_frames_per_conn_per_pump: 2,
            handshake_timeout: Duration::MAX,
            idle_timeout: Duration::MAX,
            ..ServerConfig::default()
        };
        let mut core = NetCore::new(None, cfg, 1, rpol_obs::noop().clone());
        let (server_end, mut worker) = mem_pair();
        core.admit(NetStream::Mem(server_end));
        worker
            .write_all(&WorkerSession::hello(0))
            .expect("in memory");
        core.drain_mem();
        assert!(core.connected(0));
        std::io::copy(&mut worker, &mut std::io::sink()).ok(); // the Welcome

        let burst: Vec<u8> = (0..9)
            .flat_map(|nonce| {
                let ping = wire::encode_net_control(&NetControl::Ping { nonce });
                wire::seal_frame(&ping).to_vec()
            })
            .collect();
        worker.write_all(&burst).expect("in memory");
        let mut asm = FrameAssembler::new(wire::MAX_FRAME_BYTES);
        let mut pongs = Vec::new();
        let mut pumps = 0;
        while pongs.len() < 9 && pumps < 9 {
            core.pump(Duration::ZERO);
            pumps += 1;
            let before = pongs.len();
            let mut written = Vec::new();
            worker.read_to_end(&mut written).ok();
            asm.push(&written);
            while let Some(mut payload) = asm.next_frame().expect("pristine frames") {
                match wire::decode_net_control(&mut payload) {
                    Ok(NetControl::Pong { nonce }) => pongs.push(nonce),
                    other => panic!("pump {pumps}: {other:?}"),
                }
            }
            assert!(pongs.len() - before <= 2, "pump {pumps} broke the budget");
            assert_eq!(
                core.dirty.len(),
                usize::from(pongs.len() < 9),
                "pump {pumps}"
            );
        }
        assert_eq!(pongs, (0..9).collect::<Vec<u64>>());
        assert_eq!(pumps, 5);
        assert_eq!(core.stats.heartbeats, 9);
    }

    /// A connection whose peer stops reading is flushed at most once a
    /// pump, also in pumps where it is readable, with a poller and without.
    /// With one, the waiter parks: the socket waits on writable interest,
    /// not in the flush queue. Once the peer reads, every frame arrives
    /// byte for byte, in order, and the interest goes. A Unix socket keeps
    /// its buffers while the peer does not read; loopback TCP's receive
    /// buffer grows, up to `tcp_rmem`'s maximum, until the outbox drains.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_write_blocked_connection_is_flushed_once_a_pump_and_parks() {
        let dir = socket_dir("write-blocked");
        for scan in [false, true] {
            write_blocked_round(&dir.join("pool.sock"), scan);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One connection at `path` through
    /// [`a_write_blocked_connection_is_flushed_once_a_pump_and_parks`], on
    /// a core that drops its poller when `scan`.
    fn write_blocked_round(path: &std::path::Path, scan: bool) {
        let cfg = ServerConfig {
            handshake_timeout: Duration::MAX,
            idle_timeout: Duration::MAX,
            ..ServerConfig::default()
        };
        let listener = Listener::bind(&BindAddr::Unix(path.to_path_buf())).expect("bind");
        let mut client = UnixStream::connect(path).expect("connect");
        let mut core = NetCore::new(Some(listener), cfg, 1, rpol_obs::noop().clone());
        assert!(core.poller.is_some(), "the test needs epoll");
        if scan {
            core.degrade_to_scan();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        client.write_all(&WorkerSession::hello(0)).expect("hello");
        while !core.connected(0) {
            assert!(Instant::now() < deadline, "no handshake");
            core.pump(PUMP_PARK);
        }
        let slot = core.by_worker[&0];
        let conn = |core: &NetCore| -> (u64, bool) {
            let conn = core.conns[slot].as_ref().expect("open");
            (conn.flushes, !conn.outbox.is_empty())
        };

        // 1 MiB frames until the socket refuses bytes.
        let mut sent: Vec<Bytes> = Vec::new();
        while !conn(&core).1 {
            assert!(sent.len() < 64, "64 MiB went out unread");
            let payload: Vec<u8> = (0..1 << 20).map(|i| (i * 7 + sent.len()) as u8).collect();
            let payload = Bytes::from(payload);
            assert!(core.send_framed_to_worker(0, vec![wire::seal_frame(&payload)]));
            sent.push(payload);
            core.pump(Duration::ZERO);
        }
        assert_eq!(core.write_wait[slot], !scan, "scan {scan}");
        assert_eq!(core.flush.is_empty(), !scan, "scan {scan}");

        // Readable and write-blocked at once: each pump flushes once.
        for nonce in 0..4u64 {
            let ping = wire::encode_net_control(&NetControl::Ping { nonce });
            client.write_all(&wire::seal_frame(&ping)).expect("ping");
            while core.stats.heartbeats <= nonce {
                assert!(Instant::now() < deadline, "ping {nonce} never routed");
                let before = conn(&core).0;
                core.pump(PUMP_PARK);
                let flushed = conn(&core).0 - before;
                assert!(flushed <= 1, "scan {scan}, ping {nonce}: {flushed} flushes");
            }
        }
        if !scan {
            // Nothing to read, nothing the socket takes: the waiter parks.
            let parked = (0..3).filter(|_| core.pump(PUMP_PARK)).count();
            assert_eq!(parked, 3, "parked in {parked} of 3 pumps while blocked");
            assert!(conn(&core).1, "the outbox drained unread");
        }

        let mut asm = FrameAssembler::new(wire::MAX_FRAME_BYTES);
        let mut frames = Vec::new();
        client.set_nonblocking(true).expect("nonblocking");
        let mut chunk = vec![0u8; 1 << 16];
        while frames.len() < 1 + sent.len() + 4 {
            assert!(Instant::now() < deadline, "{} frames read", frames.len());
            match client.read(&mut chunk) {
                Ok(0) => panic!("the server closed the connection"),
                Ok(k) => asm.push(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    core.pump(PUMP_PARK);
                }
                Err(e) => panic!("read: {e}"),
            }
            while let Some(frame) = asm.next_frame().expect("pristine frames") {
                frames.push(frame);
            }
        }
        assert!(matches!(
            wire::decode_net_control(&mut frames[0].clone()),
            Ok(NetControl::Welcome { .. })
        ));
        for (i, (got, want)) in frames[1..].iter().zip(&sent).enumerate() {
            assert!(got == want, "scan {scan}: frame {i} arrived altered");
        }
        let pongs: Vec<NetControl> = frames[1 + sent.len()..]
            .iter()
            .map(|f| wire::decode_net_control(&mut f.clone()).expect("a pong"))
            .collect();
        let want: Vec<NetControl> = (0..4).map(|nonce| NetControl::Pong { nonce }).collect();
        assert_eq!(pongs, want, "scan {scan}");
        assert!(!conn(&core).1 && !core.write_wait[slot], "scan {scan}");
    }

    /// A fresh directory for a Unix socket, unique to this process and
    /// `name`.
    fn socket_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpol-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// A Unix-socket epoch decides what a loopback-TCP epoch of the same
    /// config decides, and the socket file goes with the server.
    #[test]
    fn a_unix_socket_epoch_decides_as_loopback_tcp_does() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::CrashAt {
                epoch: 0,
                after_steps: 1,
            },
            WorkerBehavior::Honest,
        ];
        let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
        config.epochs = 1;
        config = config.with_faults(FaultConfig::lossy(0x50C7));
        let tuning = crate::client::ClientTuning {
            read_timeout: Duration::from_millis(5),
            backoff_scale: 0.005,
            ..crate::client::ClientTuning::default()
        };
        let options = SocketRunOptions {
            client: tuning.clone(),
            ..SocketRunOptions::default()
        };
        let tcp = run_socket_pool(config, behaviors.clone(), options).expect("tcp run");

        let dir = socket_dir("unix-epoch");
        let path = dir.join("pool.sock");
        let pool = MiningPool::new(config, behaviors.clone());
        let mut server =
            PoolServer::bind(pool, &BindAddr::Unix(path.clone()), ServerConfig::default())
                .expect("bind a unix socket");
        assert_eq!(server.local_addr(), format!("unix:{}", path.display()));
        let workers = MiningPool::build_workers(config, &behaviors);
        let handles = spawn_clients(config, workers, &server.local_addr(), &tuning, &[]);
        let unix = server.run().expect("unix run");
        for h in handles {
            assert!(h.join().expect("client thread").clean_shutdown);
        }
        drop(server);
        assert!(!path.exists(), "the socket file outlived its server");
        std::fs::remove_dir_all(&dir).ok();

        let (tcp, unix) = (&tcp.report.epochs[0].report, &unix.epochs[0].report);
        assert!(
            !tcp.accepted.is_empty() && !tcp.rejected.is_empty() && !tcp.quarantined.is_empty(),
            "vacuous: {:?} / {:?} / {:?}",
            tcp.accepted,
            tcp.rejected,
            tcp.quarantined
        );
        assert_eq!(unix.accepted, tcp.accepted, "accepted set");
        assert_eq!(unix.rejected, tcp.rejected, "rejected set");
        assert_eq!(unix.quarantined, tcp.quarantined, "quarantine");
    }

    /// Binding a Unix socket over a regular file fails and leaves the file
    /// as it was.
    #[test]
    fn a_unix_bind_over_a_regular_file_fails_and_keeps_it() {
        let dir = socket_dir("unix-file");
        let path = dir.join("precious.txt");
        let bytes = b"not a socket\n";
        std::fs::write(&path, bytes).expect("write the file");
        let pool = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::RPoLv2),
            vec![WorkerBehavior::Honest],
        );
        let bound = PoolServer::bind(pool, &BindAddr::Unix(path.clone()), ServerConfig::default());
        assert!(bound.is_err(), "bound over a regular file");
        assert_eq!(
            std::fs::read(&path).expect("the file is still there"),
            bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without a poller — after an epoll failure, and always off
    /// linux/x86-64 — every connection is ready every pump. Forced before
    /// the run, that must hold the simulated link's parity contract exactly
    /// as the kernel's ready set does in `tests/net_parity.rs`.
    #[test]
    fn scan_fallback_matches_simulated_run_under_lossy_faults() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::Honest,
        ];
        let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
        config.epochs = 2;
        config = config.with_faults(FaultConfig::lossy(0x5CA7));
        let simulated = MiningPool::new(config, behaviors.clone()).run();

        let pool = MiningPool::new(config, behaviors.clone());
        let mut server =
            PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default()).expect("bind");
        server.net.core.lock().degrade_to_scan();
        let tuning = crate::client::ClientTuning {
            read_timeout: Duration::from_millis(5),
            backoff_scale: 0.005,
            ..crate::client::ClientTuning::default()
        };
        let workers = MiningPool::build_workers(config, &behaviors);
        let handles = spawn_clients(config, workers, &server.local_addr(), &tuning, &[]);
        let socket = server.run().expect("socket run");
        for h in handles {
            assert!(h.join().expect("client thread").clean_shutdown);
        }
        assert_eq!(server.net_stats().reactor_fallbacks, 1, "no poller ran");

        assert!(simulated.rejections() > 0, "the replayer must be caught");
        assert!(
            simulated.transport_totals().retries > 0,
            "the link must be lossy"
        );
        assert_eq!(simulated.epochs.len(), socket.epochs.len());
        for (sim, sock) in simulated.epochs.iter().zip(&socket.epochs) {
            assert_eq!(sim.report.accepted, sock.report.accepted, "accepted set");
            assert_eq!(sim.report.rejected, sock.report.rejected, "rejected set");
            assert_eq!(
                sim.report.quarantined, sock.report.quarantined,
                "quarantine"
            );
            assert_eq!(
                sim.report.transport, sock.report.transport,
                "TransportStats"
            );
            assert_eq!(sim.transport_time, sock.transport_time, "simulated clock");
            assert_eq!(sim.report.comm, sock.report.comm, "CommStats");
            assert_eq!(
                sim.test_accuracy.to_bits(),
                sock.test_accuracy.to_bits(),
                "global model must evolve identically"
            );
        }
    }
}
