//! Adversarial worker behaviours (§III-B threat model, §VII-D attacker,
//! §VII-E Adv1/Adv2) and the address-replacing attack (§VII-B).

use crate::amlayer::AmLayer;
use crate::tasks::TaskConfig;
use rpol_crypto::Address;
use serde::Serialize;

/// How a pool worker behaves during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum WorkerBehavior {
    /// Trains every step faithfully.
    Honest,
    /// **Adv1**: submits the previous global model unchanged, fabricating
    /// checkpoints that all equal the epoch's input weights (a replay /
    /// free-riding attack).
    ReplayPrevious,
    /// **Adv2**: honestly trains the first `honest_fraction` of the
    /// epoch's steps, then spoofs the remaining checkpoints with the
    /// momentum-extrapolation forgery of Eq. 12.
    PartialSpoof {
        /// Fraction of steps trained honestly (paper: 10% in Fig. 6,
        /// one third in Fig. 5).
        honest_fraction: f32,
        /// Exponential-descent coefficient `λ ∈ [0, 1]` of Eq. 12.
        lambda: f32,
    },
    /// A fail-stop **fault**, not an attack: the worker trains honestly
    /// until `epoch`, where it crashes after `after_steps` training steps
    /// and never communicates again. Under the fault-injecting transport
    /// it receives that epoch's task but never submits; every later
    /// exchange times out and the pool quarantines it. Without a fault
    /// profile configured, the crash is unobservable (the in-process pool
    /// models no channel to fail) and the worker behaves honestly.
    CrashAt {
        /// The epoch during which the worker dies.
        epoch: u64,
        /// Steps it completes in that epoch before dying.
        after_steps: usize,
    },
    /// An honest but slow worker: every transport exchange on its link
    /// takes `slowdown` × the nominal network latency. Moderate values
    /// cost retries; extreme values exceed the per-request timeout budget
    /// and the worker misses the commitment deadline (quarantined for the
    /// epoch, not rejected).
    Straggler {
        /// Latency multiplier (≥ 1).
        slowdown: f32,
    },
    /// Trains and commits honestly, then submits a *different* model for
    /// aggregation (its final weights sign-flipped). Every sampled segment
    /// of its committed trajectory verifies; only binding the last
    /// committed checkpoint to the submitted weights catches it.
    SwapFinal,
    /// Trains honestly from a model other than the one the manager
    /// broadcast — its own previous result — and commits that trajectory.
    /// Every sampled segment verifies; only binding checkpoint 0 to the
    /// broadcast model catches it.
    ForeignStart,
}

impl WorkerBehavior {
    /// Whether this behaviour is dishonest (tries to earn unearned
    /// credit). Fail-stop crashes and stragglers are *faulty*, not
    /// adversarial — verification must never reject them as cheaters.
    pub fn is_adversarial(&self) -> bool {
        matches!(
            self,
            WorkerBehavior::ReplayPrevious
                | WorkerBehavior::PartialSpoof { .. }
                | WorkerBehavior::SwapFinal
                | WorkerBehavior::ForeignStart
        )
    }

    /// The paper's Adv2 configuration for Fig. 6: 10% honest training,
    /// exponential spoofing with λ = 0.5.
    pub fn adv2_default() -> Self {
        WorkerBehavior::PartialSpoof {
            honest_fraction: 0.10,
            lambda: 0.5,
        }
    }
}

/// The Eq. 12 spoof: extrapolates the next checkpoint from the history of
/// previous checkpoints by exponentially weighted momentum,
///
/// ```text
/// c_{i+1} = c_i + Σ_j K_j · (c_{i−j} − c_{i−j−1}) / Σ_j K_j,   K_j = λ^j.
/// ```
///
/// With fewer than two checkpoints there is no difference history; the
/// spoof degenerates to repeating the last checkpoint.
///
/// # Panics
///
/// Panics if `history` is empty or `lambda` is outside `[0, 1]`.
pub fn spoof_next_checkpoint(history: &[Vec<f32>], lambda: f32) -> Vec<f32> {
    assert!(!history.is_empty(), "spoof needs at least one checkpoint");
    assert!(
        (0.0..=1.0).contains(&lambda),
        "lambda must be in [0, 1], got {lambda}"
    );
    let last = history.last().expect("nonempty");
    if history.len() < 2 {
        return last.clone();
    }
    let dim = last.len();
    let mut momentum = vec![0.0f32; dim];
    let mut weight_sum = 0.0f32;
    // j = 0 pairs (c_i, c_{i-1}), j = 1 pairs (c_{i-1}, c_{i-2}), ...
    for j in 0..history.len() - 1 {
        let k_j = lambda.powi(j as i32);
        // λ = 0 zeroes all but the most recent difference; guard the
        // degenerate 0^0 handled by powi (= 1), so j = 0 always counts.
        if k_j == 0.0 {
            break;
        }
        let newer = &history[history.len() - 1 - j];
        let older = &history[history.len() - 2 - j];
        for ((m, &a), &b) in momentum.iter_mut().zip(newer.iter()).zip(older.iter()) {
            *m += k_j * (a - b);
        }
        weight_sum += k_j;
    }
    last.iter()
        .zip(&momentum)
        .map(|(&c, &m)| c + m / weight_sum)
        .collect()
}

/// The §VII-B address-replacing attack: strip the model's AMLayer weights
/// and substitute the canonical AMLayer of `thief` — stealing a trained
/// model by re-encoding its ownership.
///
/// Returns the forged flat weight vector (same length).
///
/// # Panics
///
/// Panics if `flat` is shorter than the AMLayer prefix.
pub fn replace_amlayer(config: &TaskConfig, flat: &[f32], thief: &Address) -> Vec<f32> {
    let spec = config.amlayer_spec();
    let prefix = AmLayer::weight_count(spec);
    assert!(
        flat.len() >= prefix,
        "weight vector too short for an AMLayer prefix"
    );
    let forged_stack = AmLayer::derive_weight_stack(thief, spec, config.lipschitz_c);
    let mut forged = flat.to_vec();
    let mut offset = 0;
    for kernel in forged_stack {
        forged[offset..offset + kernel.len()].copy_from_slice(kernel.data());
        offset += kernel.len();
        // The frozen zero bias after each kernel is already zero.
        offset += spec.channels;
    }
    forged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spoof_extrapolates_linear_motion() {
        // Checkpoints moving at constant velocity: the spoof continues it.
        let history: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32, 2.0 * i as f32]).collect();
        let next = spoof_next_checkpoint(&history, 0.5);
        assert!((next[0] - 4.0).abs() < 1e-5, "next = {next:?}");
        assert!((next[1] - 8.0).abs() < 1e-5);
    }

    #[test]
    fn lambda_zero_uses_latest_difference_only() {
        let history = vec![vec![0.0], vec![10.0], vec![11.0]];
        let next = spoof_next_checkpoint(&history, 0.0);
        assert!((next[0] - 12.0).abs() < 1e-5, "next = {next:?}");
    }

    #[test]
    fn lambda_one_averages_all_differences() {
        let history = vec![vec![0.0], vec![10.0], vec![11.0]];
        // Differences: 1 (latest), 10 (older); mean = 5.5 → 16.5.
        let next = spoof_next_checkpoint(&history, 1.0);
        assert!((next[0] - 16.5).abs() < 1e-4, "next = {next:?}");
    }

    #[test]
    fn single_checkpoint_degenerates_to_copy() {
        let history = vec![vec![3.0, 4.0]];
        assert_eq!(spoof_next_checkpoint(&history, 0.5), vec![3.0, 4.0]);
    }

    #[test]
    fn address_replacement_changes_prefix_only() {
        let cfg = TaskConfig::tiny();
        let owner = Address::from_seed(1);
        let thief = Address::from_seed(2);
        let model = cfg.build_encoded_model(&owner);
        let flat = model.flatten_params();
        let forged = replace_amlayer(&cfg, &flat, &thief);
        assert_eq!(forged.len(), flat.len());
        let prefix = AmLayer::weight_count(cfg.amlayer_spec());
        // Kernel prefix changed...
        assert_ne!(
            &forged[..prefix - cfg.spec.channels],
            &flat[..prefix - cfg.spec.channels]
        );
        // ...trainable suffix untouched.
        assert_eq!(&forged[prefix..], &flat[prefix..]);
        // Ownership verification flips accordingly.
        assert!(cfg.verify_model_owner(&forged, &thief, cfg.lipschitz_c));
        assert!(!cfg.verify_model_owner(&forged, &owner, cfg.lipschitz_c));
    }

    #[test]
    fn behaviour_flags() {
        assert!(!WorkerBehavior::Honest.is_adversarial());
        assert!(WorkerBehavior::ReplayPrevious.is_adversarial());
        assert!(WorkerBehavior::adv2_default().is_adversarial());
        // Crashes and stragglers are faults, not attacks.
        let crash = WorkerBehavior::CrashAt {
            epoch: 1,
            after_steps: 2,
        };
        let slow = WorkerBehavior::Straggler { slowdown: 8.0 };
        assert!(!crash.is_adversarial());
        assert!(!slow.is_adversarial());
        for cheat in [WorkerBehavior::SwapFinal, WorkerBehavior::ForeignStart] {
            assert!(cheat.is_adversarial());
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_lambda_rejected() {
        spoof_next_checkpoint(&[vec![0.0]], 1.5);
    }
}
