//! Task P and the four workloads: the fixed inputs of the benchmark.
//!
//! Everything here is a constant of the benchmark, not an option: changing a
//! number in this file invalidates every recorded baseline, so it needs its
//! own `benchmark` issue (see README.md, "Frozen public surface").

use rpol::adversary::WorkerBehavior;
use rpol::pool::{PoolConfig, Scheme};
use rpol::tasks::TaskConfig;
use rpol::FaultConfig;

/// Two trainers and one zero-effort cheater: the accept and the reject path
/// are both live in every verifying epoch, and the socket workloads keep at
/// most two runnable training threads (the recording host has two cores).
pub const ROSTER: [WorkerBehavior; 3] = [
    WorkerBehavior::Honest,
    WorkerBehavior::Honest,
    WorkerBehavior::ReplayPrevious,
];

/// Worker ids that train honestly / cheat, derived from [`ROSTER`].
pub fn honest_ids() -> Vec<usize> {
    (0..ROSTER.len())
        .filter(|&w| !ROSTER[w].is_adversarial())
        .collect()
}

pub fn cheater_ids() -> Vec<usize> {
    (0..ROSTER.len())
        .filter(|&w| ROSTER[w].is_adversarial())
        .collect()
}

/// Environment pinned at the top of `main()`, before any thread starts, and
/// inherited by every pass: the program is configured the same on any host
/// and in every process of a run (executor width, GEMM shard count, reactor
/// backend).
pub const PINNED_ENV: [(&str, &str); 3] = [
    ("RPOL_EXEC_THREADS", "2"),
    ("RPOL_GEMM_THREADS", "2"),
    ("RPOL_NET_BACKEND", "readiness"),
];

/// `run_seconds` in BENCHMARK.json, and the default of `--seconds`: what
/// [`Workload::passes`] passes take on the recording host.
pub const REFERENCE_SECONDS: f64 = 30.0;

/// Timed epochs of a pass in an untraced run, after one warm-up epoch: few,
/// so a run fits many fresh processes (one sample per epoch index, and one
/// of `setup_s`, each).
pub const TIMED_EPOCHS: usize = 3;

/// An untraced run makes at least this many passes however short `--seconds`
/// is: outputs must repeat across fresh processes, which takes two.
pub const MIN_PASSES: usize = 2;

/// Which link faults a workload injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// No transport at all: `MiningPool::run()` on in-process calls.
    NoTransport,
    /// Framing and retry machinery active, no fault ever drawn.
    Ideal,
    /// Seeded drops, corruption and truncation (`FaultConfig::lossy`).
    Lossy,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line, copied into BENCHMARK.json.
    pub why: &'static str,
    pub scheme: Scheme,
    /// `run_socket_pool` over loopback TCP (else `MiningPool::run()`).
    pub socket: bool,
    pub faults: Faults,
    pub parallel_verify: bool,
    /// Passes of an untraced run of [`REFERENCE_SECONDS`]: frozen, so the
    /// floor is a minimum over the same sample count on every commit.
    pub passes: usize,
}

impl Workload {
    /// Passes of an untraced run of `seconds`: the frozen count, scaled. It
    /// depends on nothing measured, so parent and change run the same passes.
    pub fn passes_in(&self, seconds: f64) -> usize {
        let scaled = self.passes as f64 * seconds / REFERENCE_SECONDS;
        (scaled.round() as usize).max(MIN_PASSES)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flat_baseline",
        why: "Control: train + aggregate + eval only; bypasses commitment, lsh, calibrate, verify, wire, transport, server",
        scheme: Scheme::Baseline,
        socket: false,
        faults: Faults::NoTransport,
        parallel_verify: false,
        passes: 16,
    },
    Workload {
        name: "flat_v2",
        why: "The paper's protocol, compute only: per-epoch calibration, LSH commitment, sampled replay, LSH match",
        scheme: Scheme::RPoLv2,
        socket: false,
        faults: Faults::NoTransport,
        parallel_verify: false,
        passes: 6,
    },
    Workload {
        name: "socket_v3",
        why: "Deployed shape: loopback TCP, readiness reactor, bf16 packed frames, executor-fanned verify, concurrent workers",
        scheme: Scheme::RPoLv3,
        socket: true,
        faults: Faults::Ideal,
        parallel_verify: true,
        passes: 7,
    },
    Workload {
        name: "socket_v1_lossy",
        why: "Same net layers used differently: raw f32 frames, sha256x8 hash-list commitment, calibrate-once, seeded link faults",
        scheme: Scheme::RPoLv1,
        socket: true,
        faults: Faults::Lossy,
        parallel_verify: false,
        passes: 9,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a pass drives the workload's pool config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Native,
    /// The same config (faults included) through `MiningPool::run()`: the
    /// in-process transport a socket workload must agree with.
    InProcess,
    /// The same scheme with no transport through `MiningPool::run()`: the
    /// reference the phase-composed traced epoch must be equivalent to.
    Flat,
}

impl Variant {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "native" => Some(Variant::Native),
            "inprocess" => Some(Variant::InProcess),
            "flat" => Some(Variant::Flat),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Variant::Native => "native",
            Variant::InProcess => "inprocess",
            Variant::Flat => "flat",
        }
    }
}

/// Task P: MiniVgg16 on 24x24 images (97,320 weights with the AMLayer), or
/// the 8x8 smoke geometry.
pub fn task_p(smoke: bool) -> TaskConfig {
    let mut task = TaskConfig::task_c();
    let side = if smoke { 8 } else { 24 };
    task.spec.height = side;
    task.spec.width = side;
    task
}

/// The pool config of a pass: `total_epochs` includes the warm-up epoch.
/// `--seed` feeds the data/model/sampling seed and the fault seed alike.
pub fn pool_config(
    w: &Workload,
    variant: Variant,
    seed: u64,
    total_epochs: usize,
    smoke: bool,
) -> PoolConfig {
    let fault = match (variant, w.faults) {
        (Variant::Flat, _) | (_, Faults::NoTransport) => None,
        (_, Faults::Ideal) => Some(FaultConfig::ideal(seed)),
        (_, Faults::Lossy) => Some(FaultConfig::lossy(seed)),
    };
    PoolConfig {
        task: task_p(smoke),
        scheme: w.scheme,
        epochs: total_epochs,
        steps_per_epoch: 10,
        train_samples: 640,
        test_samples: 256,
        q_samples: 1,
        seed,
        fault,
        hierarchy: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_two_trainers_and_one_cheater() {
        assert_eq!(honest_ids(), vec![0, 1]);
        assert_eq!(cheater_ids(), vec![2]);
    }

    #[test]
    fn pass_count_is_frozen_at_the_reference_and_scales_with_seconds() {
        let w = workload("flat_v2").expect("known workload");
        assert_eq!(w.passes_in(REFERENCE_SECONDS), w.passes);
        assert_eq!(w.passes_in(2.0 * REFERENCE_SECONDS), 2 * w.passes);
        assert_eq!(w.passes_in(0.001), MIN_PASSES);
    }

    #[test]
    fn flat_variant_drops_the_transport_and_native_keeps_it() {
        let lossy = workload("socket_v1_lossy").expect("known workload");
        assert!(pool_config(lossy, Variant::Flat, 1, 2, true)
            .fault
            .is_none());
        assert!(pool_config(lossy, Variant::InProcess, 1, 2, true)
            .fault
            .is_some());
        let flat = workload("flat_v2").expect("known workload");
        assert!(pool_config(flat, Variant::Native, 1, 2, true)
            .fault
            .is_none());
    }
}
