//! The on-chain task pool (§III-A, stage A).

use rpol_nn::data::{ImageSpec, SyntheticImages};
use rpol_tensor::rng::Pcg32;
use serde::Serialize;

/// A DNN training task published on chain.
///
/// The task fixes the data distribution (via `spec` and seeds) but the
/// *test* dataset seed is withheld until the consensus round releases it —
/// consensus nodes cannot train on the test set (§III-A).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainingTask {
    /// Unique task id.
    pub id: u64,
    /// Dataset geometry and difficulty.
    pub spec: ImageSpec,
    /// Number of training samples each consensus node draws.
    pub train_samples: usize,
    /// Number of held-out test samples drawn at release time.
    pub test_samples: usize,
    /// Seed for the public training data.
    pub train_seed: u64,
    /// Seed for the withheld test data (on a real chain this would be a
    /// commitment opened later; here the pool simply must not use it).
    test_seed: u64,
    /// Epoch budget for one mining round (the paper's block time limit).
    pub epoch_limit: usize,
}

impl TrainingTask {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if sample counts are zero or the spec is invalid.
    pub fn new(
        id: u64,
        spec: ImageSpec,
        train_samples: usize,
        test_samples: usize,
        seed: u64,
        epoch_limit: usize,
    ) -> Self {
        spec.validate();
        assert!(train_samples > 0 && test_samples > 0, "empty task");
        assert!(epoch_limit > 0, "zero epoch limit");
        Self {
            id,
            spec,
            train_samples,
            test_samples,
            train_seed: seed,
            test_seed: seed ^ 0x7E57_DA7A,
            epoch_limit,
        }
    }

    /// Materializes the withheld test dataset. Only the consensus layer
    /// calls this, and only after the release condition is met.
    pub(crate) fn test_data(&self) -> SyntheticImages {
        let mut rng = Pcg32::seed_from(self.test_seed);
        SyntheticImages::generate(&self.spec, self.test_samples, &mut rng)
    }
}

/// The on-chain queue of open training tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskPool {
    tasks: Vec<TrainingTask>,
}

impl TaskPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a task.
    ///
    /// # Panics
    ///
    /// Panics if a task with the same id already exists.
    pub fn publish(&mut self, task: TrainingTask) {
        assert!(
            self.tasks.iter().all(|t| t.id != task.id),
            "duplicate task id {}",
            task.id
        );
        self.tasks.push(task);
    }

    /// Number of open tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Pulls (without removing) the task with the given id.
    pub fn get(&self, id: u64) -> Option<&TrainingTask> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Pulls the oldest open task, the default miner behaviour.
    pub fn front(&self) -> Option<&TrainingTask> {
        self.tasks.first()
    }

    /// Removes a completed task.
    pub fn close(&mut self, id: u64) -> Option<TrainingTask> {
        let ix = self.tasks.iter().position(|t| t.id == id)?;
        Some(self.tasks.remove(ix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u64) -> TrainingTask {
        TrainingTask::new(id, ImageSpec::tiny(), 40, 16, 99, 5)
    }

    #[test]
    fn test_data_differs_from_training_data() {
        let t = task(1);
        let train = SyntheticImages::generate(
            &t.spec,
            t.train_samples,
            &mut Pcg32::seed_from(t.train_seed),
        );
        let test = t.test_data();
        assert_eq!(test.len(), 16);
        // Same distribution but different draws.
        let (xa, _) = train.batch(&[0]);
        let (xb, _) = test.batch(&[0]);
        assert_ne!(xa, xb);
    }

    #[test]
    fn pool_publish_get_close() {
        let mut pool = TaskPool::new();
        pool.publish(task(1));
        pool.publish(task(2));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.front().expect("front").id, 1);
        assert!(pool.get(2).is_some());
        assert!(pool.close(1).is_some());
        assert_eq!(pool.front().expect("front").id, 2);
        assert!(pool.close(1).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn duplicate_ids_rejected() {
        let mut pool = TaskPool::new();
        pool.publish(task(1));
        pool.publish(task(1));
    }
}
