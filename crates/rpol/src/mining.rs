//! The mining competition: pools racing over consecutive consensus rounds.
//!
//! §VII-E's bottom line is that RPoL "helps the pool win the mining
//! competition": a verified pool keeps its global model clean of
//! adversarial updates, so within the same wall-clock budget it proposes a
//! better-generalizing model than an unverified pool suffering the same
//! adversary mix. This module makes that claim measurable: it runs several
//! [`MiningPool`]s against each other across consensus rounds, counting
//! wins and distributing rewards, with the block-difficulty control the
//! paper flags as future work ("the difficulty level (test set accuracy)
//! should be adjusted to accommodate a reasonable block production time").

use crate::judge::TaskJudge;
use crate::pool::{MiningPool, PoolConfig};
use rpol_chain::block::Block;
use rpol_chain::consensus::{ConsensusRound, Proposal};
use rpol_chain::task::TrainingTask;
use rpol_chain::Ledger;
use serde::Serialize;

/// Adjusts the per-round epoch budget so block production stays near a
/// target cadence — the paper's future-work "difficulty level" control,
/// driven by the winning accuracy instead of wall-clock (deterministic).
///
/// If the winner overshoots the target accuracy, later rounds get fewer
/// epochs (blocks were "too easy"); undershooting buys more epochs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DifficultyController {
    /// Desired winning accuracy per round.
    pub target_accuracy: f32,
    /// Current epoch budget per round.
    pub epochs: usize,
    /// Bounds on the budget.
    pub min_epochs: usize,
    /// Upper bound on the budget.
    pub max_epochs: usize,
}

impl DifficultyController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_epochs ≤ epochs ≤ max_epochs` and the target
    /// is a probability.
    pub fn new(target_accuracy: f32, epochs: usize, min_epochs: usize, max_epochs: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&target_accuracy),
            "target accuracy must be in [0, 1]"
        );
        assert!(
            min_epochs > 0 && min_epochs <= epochs && epochs <= max_epochs,
            "invalid epoch bounds"
        );
        Self {
            target_accuracy,
            epochs,
            min_epochs,
            max_epochs,
        }
    }

    /// Updates the budget from the round's winning accuracy.
    pub fn observe(&mut self, winning_accuracy: f32) {
        if winning_accuracy > self.target_accuracy + 0.05 {
            self.epochs = (self.epochs - 1).max(self.min_epochs);
        } else if winning_accuracy < self.target_accuracy - 0.05 {
            self.epochs = (self.epochs + 1).min(self.max_epochs);
        }
    }
}

/// One competitor: a pool-configuration template plus its standing.
#[derive(Debug)]
struct Competitor {
    name: String,
    config: PoolConfig,
    behaviors: Vec<crate::adversary::WorkerBehavior>,
    wins: usize,
    rewards: f64,
}

/// The outcome of a full competition.
#[derive(Debug, Clone, Serialize)]
pub struct CompetitionReport {
    /// `(competitor name, rounds won, total rewards)` in registration order.
    pub standings: Vec<(String, usize, f64)>,
    /// Winning accuracy per round.
    pub winning_accuracies: Vec<f32>,
    /// Epoch budget per round (difficulty trace).
    pub epoch_budgets: Vec<usize>,
    /// Final chain height (== rounds with a valid winner).
    pub chain_height: u64,
}

/// Runs a mining competition between pools over `rounds` consensus rounds.
///
/// Every round each competitor trains a *fresh* pool (fresh model, same
/// worker mix) for the controller's epoch budget, proposes its model, and
/// consensus scores all proposals on the round's held-out test set; the
/// winner's block extends the ledger and earns `reward_per_round`,
/// distributed within the pool by verified contribution.
pub struct MiningCompetition {
    task_template: TrainingTask,
    judge_config: crate::tasks::TaskConfig,
    controller: DifficultyController,
    reward_per_round: f64,
    competitors: Vec<Competitor>,
}

impl MiningCompetition {
    /// Creates a competition for a task.
    pub fn new(
        task_template: TrainingTask,
        judge_config: crate::tasks::TaskConfig,
        controller: DifficultyController,
        reward_per_round: f64,
    ) -> Self {
        Self {
            task_template,
            judge_config,
            controller,
            reward_per_round,
            competitors: Vec::new(),
        }
    }

    /// Registers a competitor pool template.
    pub fn register(
        &mut self,
        name: &str,
        config: PoolConfig,
        behaviors: Vec<crate::adversary::WorkerBehavior>,
    ) {
        self.competitors.push(Competitor {
            name: name.to_string(),
            config,
            behaviors,
            wins: 0,
            rewards: 0.0,
        });
    }

    /// Runs `rounds` rounds and returns the standings.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two competitors are registered.
    pub fn run(mut self, rounds: usize) -> CompetitionReport {
        assert!(
            self.competitors.len() >= 2,
            "a competition needs at least two pools"
        );
        let mut ledger = Ledger::new();
        let mut winning_accuracies = Vec::with_capacity(rounds);
        let mut epoch_budgets = Vec::with_capacity(rounds);
        let judge = TaskJudge::new(self.judge_config);

        for round_ix in 0..rounds {
            let epochs = self.controller.epochs;
            epoch_budgets.push(epochs);
            let task = TrainingTask::new(
                1 + round_ix as u64,
                self.task_template.spec,
                self.task_template.train_samples,
                self.task_template.test_samples,
                0x0C0FFEE ^ round_ix as u64,
                epochs,
            );
            let mut consensus = ConsensusRound::open(
                &task,
                ledger.tip_hash(),
                ledger.height() + 1,
                self.competitors.len(),
            );

            // Every pool trains this round's task from scratch.
            let mut pool_handles = Vec::new();
            for (ci, competitor) in self.competitors.iter().enumerate() {
                let mut config = competitor.config;
                config.epochs = epochs;
                config.task.spec = task.spec;
                // Distinct seeds per (pool, round) for distinct addresses
                // and data draws.
                config.seed ^= ((round_ix as u64) << 32) | ((ci as u64) << 16);
                let mut pool = MiningPool::new(config, competitor.behaviors.clone());
                pool.run();
                let weights = pool.manager().global_weights().to_vec();
                consensus.submit(Proposal {
                    block: Block::new(
                        ledger.height() + 1,
                        ledger.tip_hash(),
                        task.id,
                        pool.manager().address,
                        &weights,
                        config.task.lipschitz_c,
                    ),
                    weights,
                });
                pool_handles.push(pool);
            }

            let outcome = consensus.close(&judge).expect("some proposal is valid");
            winning_accuracies.push(outcome.winner.test_accuracy);
            self.controller.observe(outcome.winner.test_accuracy);

            // Credit the winning pool.
            for (competitor, pool) in self.competitors.iter_mut().zip(&pool_handles) {
                if pool.manager().address == outcome.winner.proposer {
                    competitor.wins += 1;
                    competitor.rewards += self.reward_per_round;
                }
            }
            ledger.append(outcome.winner).expect("valid extension");
        }

        assert!(ledger.validate(), "competition produced an invalid chain");
        CompetitionReport {
            standings: self
                .competitors
                .iter()
                .map(|c| (c.name.clone(), c.wins, c.rewards))
                .collect(),
            winning_accuracies,
            epoch_budgets,
            chain_height: ledger.height(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::WorkerBehavior;
    use crate::pool::{PoolConfig, Scheme};
    use crate::tasks::TaskConfig;

    fn tiny_task() -> (TrainingTask, TaskConfig) {
        let cfg = TaskConfig::tiny();
        (TrainingTask::new(0, cfg.spec, 120, 40, 1, 2), cfg)
    }

    /// Rounds won by `name` (0 when unknown).
    fn wins(report: &CompetitionReport, name: &str) -> usize {
        report
            .standings
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, w, _)| *w)
            .unwrap_or(0)
    }

    #[test]
    fn verified_pool_outcompetes_infiltrated_baseline() {
        let (task, cfg) = tiny_task();
        let controller = DifficultyController::new(0.8, 2, 1, 3);
        let mut competition = MiningCompetition::new(task, cfg, controller, 10.0);
        // Both pools have the same worker mix (half cheaters); only the
        // verification scheme differs.
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::ReplayPrevious,
        ];
        let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
        config.steps_per_epoch = 6;
        competition.register("verified", config, behaviors.clone());
        let mut config = PoolConfig::tiny_demo(Scheme::Baseline);
        config.steps_per_epoch = 6;
        competition.register("unverified", config, behaviors);

        let report = competition.run(4);
        assert_eq!(report.chain_height, 4);
        assert_eq!(report.winning_accuracies.len(), 4);
        assert!(
            wins(&report, "verified") + wins(&report, "unverified") == 4,
            "every round has a winner"
        );
        assert!(
            wins(&report, "verified") >= wins(&report, "unverified"),
            "verification should win at least as often: {:?}",
            report.standings
        );
    }

    #[test]
    fn difficulty_controller_tracks_target() {
        let mut dc = DifficultyController::new(0.5, 3, 1, 6);
        dc.observe(0.9); // too easy → harder (fewer epochs)
        assert_eq!(dc.epochs, 2);
        dc.observe(0.2); // too hard → easier
        dc.observe(0.2);
        assert_eq!(dc.epochs, 4);
        // Clamped at bounds.
        for _ in 0..10 {
            dc.observe(0.0);
        }
        assert_eq!(dc.epochs, 6);
        for _ in 0..10 {
            dc.observe(1.0);
        }
        assert_eq!(dc.epochs, 1);
    }

    #[test]
    fn rewards_follow_wins() {
        let (task, cfg) = tiny_task();
        let controller = DifficultyController::new(0.8, 1, 1, 2);
        let mut competition = MiningCompetition::new(task, cfg, controller, 7.5);
        let honest = vec![WorkerBehavior::Honest; 2];
        let mut config = PoolConfig::tiny_demo(Scheme::RPoLv1);
        config.steps_per_epoch = 4;
        competition.register("a", config, honest.clone());
        competition.register("b", config, honest);
        let report = competition.run(2);
        for (name, wins, rewards) in &report.standings {
            assert!(
                (*rewards - *wins as f64 * 7.5).abs() < 1e-9,
                "{name}: {wins} wins but {rewards} rewards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two pools")]
    fn lonely_competition_rejected() {
        let (task, cfg) = tiny_task();
        let competition =
            MiningCompetition::new(task, cfg, DifficultyController::new(0.5, 1, 1, 2), 1.0);
        competition.run(1);
    }
}
