//! The timing statistics: the floor, plus median, max and mean.

/// The gated timing statistic: `(1/E) sum_e min_p walls[p][e]`, the mean over
/// epoch index of the fastest pass at that index.
///
/// `walls[p][e]` is the wall clock of timed epoch `e` of pass `p`. The same
/// seed gives the same work at index `e` in every pass (which worker is
/// double-checked, which frame is retried), the work is deterministic, and
/// nothing can make an epoch run faster than the machine allows, so the
/// minimum across passes is the least-disturbed execution of *that* epoch.
/// Epochs of different indices are different work (a double-check costs one
/// more proof opening and replay), so they are combined with the mean, never
/// with a minimum: a cost paid at one index only still moves the floor.
/// The number of passes is frozen per workload (`Workload::passes`), so the
/// minimum is taken over the same sample count on every commit.
pub fn floor(walls: &[Vec<f64>]) -> Option<f64> {
    let epochs = walls.first()?.len();
    let per_index: Vec<f64> = (0..epochs)
        .map(|e| {
            walls
                .iter()
                .filter_map(|pass| pass.get(e).copied())
                .reduce(f64::min)
        })
        .collect::<Option<_>>()?;
    mean(&per_index)
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::max)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_mean_over_index_of_the_minimum_over_passes() {
        // Index 0: min(1, 3, 2) = 1; index 1: min(9, 7, 8) = 7.
        let walls = [vec![1.0, 9.0], vec![3.0, 7.0], vec![2.0, 8.0]];
        assert_eq!(floor(&walls), Some(4.0));
        assert_eq!(floor(&[vec![2.0, 4.0]]), Some(3.0));
    }

    #[test]
    fn floor_ignores_a_slow_regime_but_not_a_costly_epoch_index() {
        // Every pass but one ran in the slow regime: the floor is the quiet one.
        let mut walls = vec![vec![0.55, 0.55]; 6];
        walls[4] = vec![0.42, 0.42];
        assert_eq!(floor(&walls), Some(0.42));
        // Index 1 double-checks in every pass: the floor carries half of it,
        // the fastest epoch of any index would carry none.
        let walls = vec![vec![0.5, 0.75]; 6];
        assert_eq!(floor(&walls), Some(0.625));
    }

    #[test]
    fn floor_of_nothing_is_none() {
        assert_eq!(floor(&[]), None);
        assert_eq!(floor(&[vec![]]), None);
    }

    #[test]
    fn median_max_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(max(&[1.0, 5.0, 2.0]), Some(5.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
