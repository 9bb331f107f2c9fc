//! Adaptive LSH calibration in action (§V-C).
//!
//! The pool manager re-estimates the reproduction-error tolerance `α`
//! every epoch by double-running its own sub-task on the pool's two
//! fastest GPUs, then solves the Eq. 6 multi-objective problem for the
//! LSH parameters it broadcasts. This example traces those quantities
//! across epochs and shows an honest worker's errors staying inside `β`
//! while a spoofed checkpoint lands far outside.
//!
//! Run with: `cargo run --release --example adaptive_calibration`

use rpol::adversary::spoof_next_checkpoint;
use rpol::calibrate::{CalibrationPolicy, Calibrator};
use rpol::tasks::TaskConfig;
use rpol::trainer::LocalTrainer;
use rpol_nn::data::SyntheticImages;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::stats::euclidean;

fn main() {
    let cfg = TaskConfig::task_a();
    let steps = 20;
    let mut rng = Pcg32::seed_from(0xADA);
    let data = SyntheticImages::generate(&cfg.spec, 400, &mut rng);
    let shards = data.shard(2);
    let calibrator = Calibrator::new(
        &cfg,
        &shards[0],
        CalibrationPolicy::default(),
        GpuModel::top2(),
    );

    let mut global = cfg.build_model().flatten_params();
    println!(
        "{:>6} {:>12} {:>12} {:>18} {:>14} {:>14}",
        "epoch", "alpha", "beta", "LSH {r,k,l}", "honest max", "spoof dist"
    );
    for epoch in 0..5u64 {
        let (cal, _) = calibrator.calibrate(&global, 0xCE ^ epoch, steps, epoch);

        // An honest worker's verification-time distances.
        let mut model = cfg.build_model();
        model.load_params(&global);
        let mut worker = LocalTrainer::new(
            &cfg,
            &shards[1],
            NoiseInjector::new(GpuModel::GA10, 0x700 + epoch),
        );
        let trace = worker.run_epoch(&mut model, 0x1F + epoch, steps);
        let mut verify_model = cfg.build_model();
        let mut verifier = LocalTrainer::new(
            &cfg,
            &shards[1],
            NoiseInjector::new(GpuModel::G3090, 0x800 + epoch),
        );
        let mut honest_max = 0.0f32;
        for (j, seg) in trace.segments.iter().enumerate() {
            let replayed = verifier.replay_segment(
                &mut verify_model,
                &trace.checkpoints[j],
                0x1F + epoch,
                *seg,
            );
            honest_max = honest_max.max(euclidean(&replayed, &trace.checkpoints[j + 1]));
        }

        // A spoofed final checkpoint (Eq. 12) — its verification distance.
        let spoofed = spoof_next_checkpoint(&trace.checkpoints, 0.5);
        let last_seg = *trace.segments.last().expect("nonempty");
        let replayed = verifier.replay_segment(
            &mut verify_model,
            &trace.checkpoints[trace.segments.len() - 1],
            0x1F + epoch,
            last_seg,
        );
        let spoof_dist = euclidean(&replayed, &spoofed);

        println!(
            "{:>6} {:>12.3e} {:>12.3e} {:>18} {:>14.3e} {:>14.3e}",
            epoch + 1,
            cal.alpha,
            cal.beta,
            format!("{{{:.1e},{},{}}}", cal.params.r, cal.params.k, cal.params.l),
            honest_max,
            spoof_dist,
        );
        assert!(honest_max < cal.beta, "honest worker must stay inside beta");
        assert!(spoof_dist > cal.beta, "spoof must land outside beta");

        global = trace.final_weights().to_vec();
    }
    println!("\nevery epoch: honest max < beta < spoof distance ✓ (0 false negatives)");
}
