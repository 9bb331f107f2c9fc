//! End-to-end protocol integration tests spanning all workspace crates:
//! data sharding → training → commitments → sampling → verification →
//! aggregation → consensus → rewards.

use rpol_repro::chain::block::Block;
use rpol_repro::chain::consensus::{ConsensusRound, Proposal};
use rpol_repro::chain::task::{TaskPool, TrainingTask};
use rpol_repro::chain::Ledger;
use rpol_repro::crypto::Address;
use rpol_repro::rpol::adversary::WorkerBehavior;
use rpol_repro::rpol::judge::TaskJudge;
use rpol_repro::rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol_repro::rpol::tasks::TaskConfig;

fn demo_config(scheme: Scheme) -> PoolConfig {
    let mut config = PoolConfig::tiny_demo(scheme);
    config.epochs = 2;
    config.steps_per_epoch = 6;
    // Sample every segment (3 of 3) so detection in these small tests is
    // deterministic rather than Theorem-2 probabilistic.
    config.q_samples = 3;
    config
}

#[test]
fn honest_pool_full_run_all_schemes() {
    for scheme in [Scheme::Baseline, Scheme::RPoLv1, Scheme::RPoLv2] {
        let mut pool = MiningPool::new(demo_config(scheme), vec![WorkerBehavior::Honest; 4]);
        let report = pool.run();
        assert_eq!(report.rejections(), 0, "{scheme}: honest workers rejected");
        assert_eq!(report.acceptances(), 8, "{scheme}");
        // Every epoch recorded an accuracy and moved bytes.
        assert_eq!(report.epochs.len(), 2);
        assert!(report.total_comm_bytes() > 0);
    }
}

#[test]
fn adversary_matrix_detection() {
    // Every adversarial behaviour must be caught by both verified schemes.
    let adversaries = [
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::PartialSpoof {
            honest_fraction: 0.0,
            lambda: 0.5,
        },
        WorkerBehavior::PartialSpoof {
            honest_fraction: 0.34,
            lambda: 0.9,
        },
    ];
    for scheme in [Scheme::RPoLv1, Scheme::RPoLv2] {
        for adv in adversaries {
            let mut pool = MiningPool::new(demo_config(scheme), vec![WorkerBehavior::Honest, adv]);
            let report = pool.run();
            assert_eq!(
                report.rejections(),
                report.epochs.len(),
                "{scheme} failed to catch {adv:?} every epoch"
            );
            // The honest worker is never collateral damage.
            for rec in &report.epochs {
                assert!(rec.report.accepted.contains(&0), "{scheme} {adv:?}");
                assert!(rec.report.rejected.contains(&1), "{scheme} {adv:?}");
            }
        }
    }
}

#[test]
fn baseline_accepts_everything_verified_schemes_do_not() {
    let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
    let baseline = MiningPool::new(demo_config(Scheme::Baseline), behaviors.clone()).run();
    let verified = MiningPool::new(demo_config(Scheme::RPoLv2), behaviors).run();
    assert_eq!(baseline.rejections(), 0);
    assert_eq!(verified.rejections(), verified.epochs.len());
}

#[test]
fn rewards_flow_only_to_verified_workers() {
    let mut pool = MiningPool::new(
        demo_config(Scheme::RPoLv1),
        vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ],
    );
    pool.run();
    let payout = pool.manager().contributions().distribute(12.0);
    assert_eq!(payout.len(), 2, "only the two honest workers earn");
    for (_, share) in &payout {
        assert!((share - 6.0).abs() < 1e-9);
    }
    let cheater_addr = pool.workers()[2].address;
    assert!(payout.iter().all(|(a, _)| *a != cheater_addr));
}

#[test]
fn pool_output_wins_consensus_and_extends_ledger() {
    // The full §III-A loop: task pool → pooled training → proposal →
    // delayed test release → scoring → ledger append → reward split.
    let task_cfg = TaskConfig::tiny();
    let mut task_pool = TaskPool::new();
    task_pool.publish(TrainingTask::new(9, task_cfg.spec, 80, 24, 0x1D, 2));
    let task = task_pool.front().expect("task").clone();
    let mut ledger = Ledger::new();

    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = task.epoch_limit;
    let mut pool = MiningPool::new(config, vec![WorkerBehavior::Honest; 3]);
    pool.run();
    let pool_weights = pool.manager().global_weights().to_vec();
    let pool_addr = pool.manager().address;

    // A solo miner proposes an untrained (fresh) model.
    let solo_addr = Address::from_seed(0x5010);
    let solo_weights = task_cfg.build_encoded_model(&solo_addr).flatten_params();

    let mut round = ConsensusRound::open(&task, ledger.tip_hash(), 1, 2);
    for (addr, weights) in [(pool_addr, &pool_weights), (solo_addr, &solo_weights)] {
        round.submit(Proposal {
            block: Block::new(
                1,
                ledger.tip_hash(),
                task.id,
                addr,
                weights,
                task_cfg.lipschitz_c,
            ),
            weights: weights.clone(),
        });
    }
    let judge = TaskJudge::new(task_cfg);
    let outcome = round.close(&judge).expect("winner exists");
    assert_eq!(
        outcome.winner.proposer, pool_addr,
        "the trained pool model must beat the fresh solo model"
    );
    ledger.append(outcome.winner).expect("extends ledger");
    assert_eq!(ledger.height(), 1);
    assert!(ledger.validate());
    task_pool.close(task.id);
    assert!(task_pool.is_empty());
}

#[test]
fn global_model_ownership_survives_training() {
    // After multiple epochs of aggregation, the global model still encodes
    // the manager's address (the frozen AMLayer prefix is never disturbed).
    let mut pool = MiningPool::new(demo_config(Scheme::RPoLv1), vec![WorkerBehavior::Honest; 3]);
    pool.run();
    let cfg = *pool.manager().config();
    assert!(cfg.verify_model_owner(
        pool.manager().global_weights(),
        &pool.manager().address,
        cfg.lipschitz_c
    ));
    assert!(!cfg.verify_model_owner(
        pool.manager().global_weights(),
        &Address::from_seed(0xBAD),
        cfg.lipschitz_c
    ));
}

#[test]
fn v2_ships_fewer_proof_bytes_than_v1() {
    let behaviors = vec![WorkerBehavior::Honest; 3];
    let v1 = MiningPool::new(demo_config(Scheme::RPoLv1), behaviors.clone()).run();
    let v2 = MiningPool::new(demo_config(Scheme::RPoLv2), behaviors).run();
    let proofs = |r: &rpol_repro::rpol::pool::PoolReport| -> u64 {
        r.epochs.iter().map(|e| e.report.comm.proof_bytes).sum()
    };
    assert!(proofs(&v2) < proofs(&v1));
    // Accuracy parity between the verified schemes (paper: identical).
    assert!((v1.final_accuracy() - v2.final_accuracy()).abs() < 0.2);
}

#[test]
fn reports_serialize_to_json_like_form() {
    // PoolReport is serde-serializable end to end (operators export runs).
    let mut pool = MiningPool::new(demo_config(Scheme::RPoLv2), vec![WorkerBehavior::Honest; 2]);
    let report = pool.run();
    // serde_json is not a dependency; round-trip through the compact
    // self-describing format instead by checking Serialize is derivable.
    fn assert_serializable<T: serde::Serialize>(_: &T) {}
    assert_serializable(&report);
}
