//! The traced pass: the epoch rebuilt from the program's public phase calls
//! (`PoolManager::begin_epoch` -> `PoolWorker::run_epoch` per worker ->
//! `PoolManager::finish_epoch` -> evaluation) with the benchmark's own spans
//! around each, then each leaf's public function timed standalone on the
//! data that epoch produced.
//!
//! [`Composed::build`] repeats what `MiningPool::new` does through public
//! constructors, because the pool hands out its manager only by shared
//! reference. The equivalence gate in `main.rs` is what keeps the copy
//! honest: verdict sets, accuracy bits and the global-weight hash must equal
//! `MiningPool::run()` at the same seed, else the budget describes a
//! different program.

use crate::pass::{epoch_row, EpochRow};
use crate::task::ROSTER;
use crate::trace::{cost_of, self_of, Span, Tracer};
use rpol::amlayer::AmLayer;
use rpol::calibrate::{CalibrationPolicy, Calibrator};
use rpol::commitment::EpochCommitment;
use rpol::manager::{EpochPlan, EpochReport, PoolManager};
use rpol::pool::{PoolConfig, Scheme};
use rpol::trainer::LocalTrainer;
use rpol::verify::{ProofProvider, Verifier};
use rpol::wire;
use rpol::worker::{CommitMode, EpochSubmission, PoolWorker};
use rpol_crypto::Address;
use rpol_lsh::LshFamily;
use rpol_nn::data::SyntheticImages;
use rpol_nn::loss::softmax_cross_entropy;
use rpol_nn::metrics::correct_count;
use rpol_nn::model::Sequential;
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use rpol_tensor::{gemm, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// `MiningPool`'s evaluation chunk: rows per forward pass.
const EVAL_CHUNK: usize = 16;

/// The live phases, children of the `epoch` span.
pub const BEGIN: &str = "manager.begin_epoch";
pub const WORKER: &str = "worker.run_epoch";
pub const FINISH: &str = "manager.finish_epoch";
pub const EVAL: &str = "pool.eval";
pub const EPOCH: &str = "epoch";

/// The pool, assembled from public constructors.
pub struct Composed {
    cfg: PoolConfig,
    manager: PoolManager,
    /// The manager's calibration shard (the manager keeps its own copy).
    manager_shard: SyntheticImages,
    calibration_gpus: (GpuModel, GpuModel),
    workers: Vec<PoolWorker>,
    test_chunks: Vec<(Tensor, Vec<usize>)>,
    /// One encoded model reused for evaluation and every standalone leaf;
    /// each use loads the weights it needs first.
    scratch: Sequential,
    /// β of the latest calibration (RPoLv1 calibrates in epoch 0 only).
    beta: Option<f32>,
}

/// One composed epoch: what the program reported, and the span ids the
/// standalone leaves hang off.
pub struct ComposedEpoch {
    pub row: EpochRow,
    global_before: Vec<f32>,
    plan: EpochPlan,
    submissions: Vec<EpochSubmission>,
    report: EpochReport,
    begin_span: usize,
    worker_spans: Vec<usize>,
    finish_span: usize,
}

impl Composed {
    pub fn build(cfg: PoolConfig) -> Self {
        let n = ROSTER.len();
        let mut rng = Pcg32::seed_from(cfg.seed);
        let data = SyntheticImages::generate(&cfg.task.spec, cfg.train_samples, &mut rng);
        let mut shards = data.shard(n + 1);
        let manager_shard = shards.pop().expect("n + 1 shards");
        let test = SyntheticImages::generate(&cfg.task.spec, cfg.test_samples, &mut rng);
        let test_chunks = (0..test.len())
            .step_by(EVAL_CHUNK)
            .map(|start| {
                let rows: Vec<usize> = (start..(start + EVAL_CHUNK).min(test.len())).collect();
                test.batch(&rows)
            })
            .collect();
        let address = Address::derive(&cfg.seed.to_be_bytes());
        let workers: Vec<PoolWorker> = ROSTER
            .iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (&behavior, shard))| {
                let gpu = GpuModel::ALL[i % GpuModel::ALL.len()];
                PoolWorker::new(i, &cfg.task, &address, shard, gpu, behavior)
            })
            .collect();
        let mut manager = PoolManager::new(
            cfg.task,
            cfg.scheme,
            address,
            manager_shard.clone(),
            cfg.q_samples,
            cfg.steps_per_epoch,
            cfg.seed,
        );
        let mut registered: Vec<GpuModel> = workers.iter().map(|w| w.gpu).collect();
        registered.sort_by(|a, b| {
            b.fp32_tflops()
                .partial_cmp(&a.fp32_tflops())
                .expect("finite TFLOPS")
        });
        registered.dedup();
        let calibration_gpus = match registered.as_slice() {
            [only] => (*only, *only),
            [first, second, ..] => (*first, *second),
            [] => unreachable!("the roster is not empty"),
        };
        manager.set_calibration_gpus(calibration_gpus);
        let scratch = cfg.task.build_encoded_model(&address);
        Self {
            cfg,
            manager,
            manager_shard,
            calibration_gpus,
            workers,
            test_chunks,
            scratch,
            beta: None,
        }
    }

    pub fn global_weights(&self) -> &[f32] {
        self.manager.global_weights()
    }

    pub fn worker_storage_bytes(&self) -> u64 {
        self.workers.iter().map(PoolWorker::storage_bytes).sum()
    }

    /// `MiningPool::test_accuracy` on the serial path.
    fn test_accuracy(&mut self) -> f32 {
        self.scratch.load_params(self.manager.global_weights());
        let mut correct = 0usize;
        let mut total = 0usize;
        for (inputs, labels) in &self.test_chunks {
            let logits = self.scratch.forward(inputs, false);
            correct += correct_count(&logits, labels);
            total += labels.len();
        }
        correct as f32 / total as f32
    }

    /// One epoch, phase by phase, each phase a live span under `epoch`.
    pub fn run_epoch(&mut self, epoch: u64, tracer: &mut Tracer) -> ComposedEpoch {
        let global_before = self.manager.global_weights().to_vec();
        let n = self.workers.len();
        let task = self.cfg.task;
        let root = tracer.open(EPOCH, None, epoch);
        let start = Instant::now();
        let (begin_span, plan) = tracer.live(BEGIN, root, || self.manager.begin_epoch(n, epoch));
        let mut worker_spans = Vec::with_capacity(n);
        let mut submissions = Vec::with_capacity(n);
        for (w, worker) in self.workers.iter_mut().enumerate() {
            let (span, sub) = tracer.live(WORKER, root, || {
                worker.run_epoch(
                    &task,
                    self.manager.global_weights(),
                    plan.nonces[w],
                    plan.steps,
                    epoch,
                    plan.commit_mode(),
                )
            });
            worker_spans.push(span);
            submissions.push(sub);
        }
        let (finish_span, report) = tracer.live(FINISH, root, || {
            self.manager
                .finish_epoch(&self.workers, &plan, &submissions)
        });
        let (_, accuracy) = tracer.live(EVAL, root, || self.test_accuracy());
        let wall_s = start.elapsed().as_secs_f64();
        tracer.close(root);
        if let Some(cal) = &plan.calibration {
            self.beta = Some(cal.beta);
        }
        ComposedEpoch {
            row: epoch_row(&report, accuracy, wall_s),
            global_before,
            plan,
            submissions,
            report,
            begin_span,
            worker_spans,
            finish_span,
        }
    }

    /// Times each leaf's public function standalone, outside the epoch's
    /// wall clock, on the data `done` produced, and attributes the cost to
    /// the phase that paid it.
    pub fn attribute_leaves(&mut self, done: &ComposedEpoch, tracer: &mut Tracer) {
        let task = self.cfg.task;
        let epoch = done.plan.epoch;
        let steps = done.plan.steps;
        let quantized = self.cfg.scheme == Scheme::RPoLv3;
        let family: Option<&LshFamily> = match done.plan.commit_mode() {
            CommitMode::V2(f) | CommitMode::V3(f) => Some(f),
            CommitMode::Skip | CommitMode::V1 => None,
        };

        if let Some(cal) = &done.plan.calibration {
            let calibrator = Calibrator::new(
                &task,
                &self.manager_shard,
                CalibrationPolicy::default(),
                self.calibration_gpus,
            )
            .quantized(quantized);
            // The manager draws its calibration nonce from a private RNG;
            // any nonce selects batches of the same shape and cost.
            tracer.attribute("calibrate.calibrate", done.begin_span, 1, || {
                calibrator.calibrate(&done.global_before, 0x5EED ^ epoch, steps, epoch)
            });
            if family.is_some() {
                tracer.attribute("lsh.generate_family", done.begin_span, 1, || {
                    cal.family(done.global_before.len())
                });
            }
        }

        for (w, worker) in self.workers.iter().enumerate() {
            let phase = done.worker_spans[w];
            let nonce = done.plan.nonces[w];
            if !worker.behavior().is_adversarial() {
                let model = &mut self.scratch;
                let (train_span, trace) = tracer.attribute("trainer.run_epoch", phase, 1, || {
                    model.load_params(&done.global_before);
                    let mut trainer = LocalTrainer::new(
                        &task,
                        worker.shard(),
                        NoiseInjector::new(worker.gpu, epoch ^ nonce),
                    );
                    if quantized {
                        trainer.run_epoch_quantized(model, nonce, steps)
                    } else {
                        trainer.run_epoch(model, nonce, steps)
                    }
                });
                let rows: Vec<usize> = (0..task.batch_size).collect();
                let (x, labels) = worker.shard().batch(&rows);
                let (_, logits) = tracer.attribute("nn.forward", train_span, steps as u64, || {
                    model.forward(&x, true)
                });
                let (_, grad) = softmax_cross_entropy(&logits, &labels);
                tracer.attribute("nn.backward", train_span, steps as u64, || {
                    model.backward(&grad)
                });
                if quantized {
                    let mut copy = trace.checkpoints[0].clone();
                    tracer.attribute(
                        "tensor.quantize",
                        train_span,
                        trace.checkpoints.len() as u64,
                        || rpol_tensor::quant::snap_to_bf16(&mut copy),
                    );
                }
            }
            let Some(commitment) = &done.submissions[w].commitment else {
                continue;
            };
            let checkpoints: Vec<Vec<f32>> = (0..commitment.len())
                .map(|j| {
                    worker
                        .open_checkpoint(j)
                        .expect("local openings never fail")
                        .into_owned()
                })
                .collect();
            let refs: Vec<&[f32]> = checkpoints.iter().map(Vec::as_slice).collect();
            let (commit_span, _) = tracer.attribute("commitment.commit", phase, 1, || {
                match done.plan.commit_mode() {
                    CommitMode::V1 => EpochCommitment::commit_v1(&checkpoints),
                    CommitMode::V2(f) => EpochCommitment::commit_v2(&checkpoints, f),
                    CommitMode::V3(f) => EpochCommitment::commit_v3(&checkpoints, f),
                    CommitMode::Skip => unreachable!("a commitment exists"),
                }
            });
            if let Some(f) = family {
                tracer.attribute("lsh.hash_batch", commit_span, 1, || f.hash_batch(&refs));
            }
            match done.plan.commit_mode() {
                CommitMode::V1 => {
                    tracer.attribute("crypto.commit_hash", commit_span, 1, || {
                        rpol_crypto::sha256_f32_batch(&refs)
                    });
                }
                CommitMode::V3(_) => {
                    tracer.attribute("crypto.commit_hash", commit_span, 1, || {
                        rpol_crypto::sha256_bf16_batch(&refs)
                    });
                }
                CommitMode::V2(_) | CommitMode::Skip => {}
            }
        }

        let beta = self.beta;
        for (w, verdict) in &done.report.verdicts {
            let worker = &self.workers[*w];
            let nonce = done.plan.nonces[*w];
            let commitment = done.submissions[*w]
                .commitment
                .as_ref()
                .expect("verified schemes commit");
            let samples: Vec<usize> = verdict.outcomes.iter().map(|(j, _)| *j).collect();
            let noise = NoiseInjector::new(GpuModel::G3090, epoch ^ *w as u64);
            let model = &mut self.scratch;
            let (verify_span, _) =
                tracer.attribute("verify.verify_samples", done.finish_span, 1, || {
                    Verifier::new(
                        &task,
                        worker.shard(),
                        nonce,
                        beta.expect("a verifying scheme calibrated"),
                        family,
                        noise.clone(),
                    )
                    .verify_samples(
                        model,
                        commitment,
                        worker.segments(),
                        &samples,
                        worker,
                    )
                });
            let Some(&j) = samples.first() else { continue };
            let input = worker
                .open_checkpoint(j)
                .expect("local openings never fail");
            tracer.attribute(
                "trainer.replay_segment",
                verify_span,
                samples.len() as u64,
                || {
                    let mut trainer = LocalTrainer::new(&task, worker.shard(), noise.clone());
                    let segment = worker.segments()[j];
                    if quantized {
                        trainer.replay_segment_quantized(model, &input, nonce, segment)
                    } else {
                        trainer.replay_segment(model, &input, nonce, segment)
                    }
                },
            );
        }
    }

    /// Per-call wire costs on the first worker's submission and one opened
    /// checkpoint of `done`: `(name, seconds per call)` plus the encoded
    /// submission's size in bytes.
    pub fn wire_costs(&self, done: &ComposedEpoch) -> (Vec<(&'static str, f64)>, u64) {
        let sub = &done.submissions[0];
        let packed = self.cfg.scheme == Scheme::RPoLv3;
        fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
            let start = Instant::now();
            let out = f();
            (start.elapsed().as_secs_f64(), out)
        }
        let (encode_submission, encoded) =
            timed(|| wire::encode_submission(&sub.final_weights, sub.commitment.as_ref()));
        let bytes = encoded.len() as u64;
        let (decode_submission, decoded) = timed(|| wire::decode_submission(encoded));
        black_box(decoded.expect("decodes what it encoded"));
        let checkpoint = &sub.final_weights;
        let (encode_proof, proof) = timed(|| {
            if packed {
                wire::encode_proof_response_packed(1, checkpoint)
            } else {
                wire::encode_proof_response(1, checkpoint)
            }
        });
        let (decode_proof, decoded) = timed(|| wire::decode_proof_response(proof));
        black_box(decoded.expect("decodes what it encoded"));
        (
            vec![
                ("wire.encode_submission_s", encode_submission),
                ("wire.decode_submission_s", decode_submission),
                ("wire.encode_proof_s", encode_proof),
                ("wire.decode_proof_s", decode_proof),
            ],
            bytes,
        )
    }
}

impl ComposedEpoch {
    pub fn hashes_per_checkpoint(&self) -> u64 {
        match self.plan.commit_mode() {
            CommitMode::V2(f) | CommitMode::V3(f) => f.params().total_hashes() as u64,
            CommitMode::Skip | CommitMode::V1 => 0,
        }
    }
}

/// Seconds to derive the AMLayer's weight stack for this pool's address:
/// the work behind `AmLayer::generate` that every process pays once, before
/// the program's memo table serves its later calls.
pub fn amlayer_generate_seconds(cfg: &PoolConfig) -> f64 {
    let address = Address::derive(&cfg.seed.to_be_bytes());
    let start = Instant::now();
    black_box(AmLayer::derive_weight_stack(
        &address,
        cfg.task.amlayer_spec(),
        cfg.task.lipschitz_c,
    ));
    start.elapsed().as_secs_f64()
}

/// GFLOP/s of the dominant GEMM shape: the second convolution's forward
/// product, `[10 x 90] * [90 x H*W]`, one call per sample per step.
pub fn gemm_gflops(cfg: &PoolConfig) -> f64 {
    let (m, k) = (10, 90);
    let n = cfg.task.spec.height * cfg.task.spec.width;
    let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; m * n];
    let calls = 2_000;
    let start = Instant::now();
    for _ in 0..calls {
        gemm::gemm_into(
            m,
            n,
            k,
            black_box(&a),
            gemm::Trans::No,
            black_box(&b),
            gemm::Trans::No,
            &mut c,
            gemm::default_threads(),
        );
    }
    black_box(&c);
    let seconds = start.elapsed().as_secs_f64();
    (2 * m * n * k * calls) as f64 / seconds * 1e-9
}

/// Conservation over the timed epochs. Every timed epoch does the same
/// work, and host noise only ever widens the distance between a live phase
/// and leaves timed moments later, so each distance is taken from the epoch
/// where it is smallest: a taxonomy that misses work misses it in every
/// epoch.
pub struct Conservation {
    /// Unattributed share of the epoch: phase glue plus each fully
    /// attributed parent's distance from its leaves.
    pub gap_share: f64,
    pub violations: Vec<String>,
}

/// Phases must sum to the epoch wall within this share.
pub const PHASE_TOLERANCE: f64 = 0.05;
/// Attributed leaves must sum to their parent phase within this share.
pub const LEAF_TOLERANCE: f64 = 0.15;
/// Parents below this share of the epoch are not gated (RPoLv1's
/// `begin_epoch` after its one calibration is a few microseconds).
const GATED_PARENT_SHARE: f64 = 0.01;

pub fn conservation(spans: &[Span], timed_epochs: &[u64]) -> Conservation {
    let least = |f: &dyn Fn(u64) -> f64| {
        timed_epochs
            .iter()
            .map(|&e| f(e))
            .fold(f64::INFINITY, f64::min)
    };
    let mut violations = Vec::new();
    let glue = least(&|e| self_of(spans, EPOCH, e).abs() / cost_of(spans, EPOCH, e));
    if glue > PHASE_TOLERANCE {
        violations.push(format!(
            "phases leave {:.1}% of the epoch wall uncovered",
            glue * 100.0
        ));
    }
    let mut gap_share = glue;
    // `finish_epoch`'s remainder is reported as `manager.aggregate_s`, so
    // only an excess of its leaves is a gap.
    for (name, remainder_is_named) in [(BEGIN, false), (WORKER, false), (FINISH, true)] {
        // (distance from the leaves, share of the epoch) per timed epoch.
        let distance = |e: u64| {
            let parent = cost_of(spans, name, e);
            let own = self_of(spans, name, e);
            if parent == own {
                // Nothing attributed: the phase itself is the leaf (the
                // baseline's `begin_epoch` draws nonces only).
                0.0
            } else if remainder_is_named {
                (-own).max(0.0)
            } else {
                own.abs()
            }
        };
        gap_share += least(&|e| distance(e) / cost_of(spans, EPOCH, e));
        let gated = least(&|e| {
            let parent = cost_of(spans, name, e);
            if parent >= GATED_PARENT_SHARE * cost_of(spans, EPOCH, e) {
                distance(e) / parent
            } else {
                0.0
            }
        });
        if gated > LEAF_TOLERANCE {
            violations.push(format!(
                "{name}: leaves miss the phase by {:.1}% in every timed epoch",
                gated * 100.0
            ));
        }
    }
    Conservation {
        gap_share,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{pool_config, workload, Variant};
    use rpol::pool::MiningPool;

    fn span(name: &'static str, start_ms: u64, end_ms: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            parent,
            epoch: 1,
            calls: 1,
            attributed: false,
        }
    }

    fn budget(train_leaf_ms: u64) -> Vec<Span> {
        let mut spans = vec![
            span(EPOCH, 0, 1000, None),
            span(BEGIN, 0, 400, Some(0)),
            span(WORKER, 400, 700, Some(0)),
            span(FINISH, 700, 900, Some(0)),
            span(EVAL, 900, 990, Some(0)),
        ];
        for (name, parent, ms) in [
            ("calibrate.calibrate", 1, 390),
            ("trainer.run_epoch", 2, train_leaf_ms),
            ("verify.verify_samples", 3, 150),
        ] {
            spans.push(Span {
                attributed: true,
                ..span(name, 2000, 2000 + ms, Some(parent))
            });
        }
        spans
    }

    #[test]
    fn conservation_accepts_a_budget_that_sums_and_reports_the_gap() {
        let c = conservation(&budget(290), &[1]);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        // 10 ms glue + 10 ms under begin + 10 ms under worker; finish's
        // 50 ms remainder is `manager.aggregate_s`, not a gap.
        assert!((c.gap_share - 0.03).abs() < 1e-9);
    }

    #[test]
    fn conservation_rejects_leaves_that_miss_their_parent() {
        let c = conservation(&budget(150), &[1]);
        assert_eq!(c.violations.len(), 1);
        assert!(c.violations[0].starts_with(WORKER));
    }

    #[test]
    fn conservation_judges_by_the_least_disturbed_epoch() {
        // Epoch 2 repeats epoch 1 with the training leaf timed in a slow
        // regime: alone it would fail, next to epoch 1 it is noise.
        let mut spans = budget(290);
        let disturbed: Vec<Span> = budget(400)
            .into_iter()
            .map(|s| Span {
                epoch: 2,
                parent: s.parent.map(|p| p + 8),
                ..s
            })
            .collect();
        spans.extend(disturbed);
        assert!(!conservation(&spans, &[2]).violations.is_empty());
        assert!(conservation(&spans, &[1, 2]).violations.is_empty());
    }

    #[test]
    fn conservation_rejects_phases_that_do_not_cover_the_epoch() {
        let mut spans = budget(290);
        spans[0].end_ns = 1_200_000_000;
        let c = conservation(&spans, &[1]);
        assert!(c.violations.iter().any(|v| v.starts_with("phases leave")));
    }

    /// The equivalence gate, scaled down until a debug build runs it in
    /// seconds: the composed epoch is the same program as `MiningPool::run()`.
    #[test]
    fn composed_epoch_matches_mining_pool_run_bit_for_bit() {
        for name in ["flat_baseline", "flat_v2", "socket_v3", "socket_v1_lossy"] {
            let w = workload(name).expect("known workload");
            let smoke = pool_config(w, Variant::Flat, 11, 2, true);
            let cfg = PoolConfig {
                task: rpol::tasks::TaskConfig {
                    batch_size: 4,
                    ..smoke.task
                },
                steps_per_epoch: 2,
                train_samples: 64,
                test_samples: 32,
                ..smoke
            };
            let mut pool = MiningPool::new(cfg, ROSTER.to_vec());
            let report = pool.run();
            let mut composed = Composed::build(cfg);
            let mut tracer = Tracer::new();
            for (e, want) in report.epochs.iter().enumerate() {
                let done = composed.run_epoch(e as u64, &mut tracer);
                composed.attribute_leaves(&done, &mut tracer);
                assert_eq!(done.report.accepted, want.report.accepted, "{name}");
                assert_eq!(done.report.rejected, want.report.rejected, "{name}");
                assert_eq!(
                    done.row.accuracy_bits,
                    u64::from(want.test_accuracy.to_bits()),
                    "{name}"
                );
            }
            assert_eq!(
                composed.global_weights(),
                pool.manager().global_weights(),
                "{name}"
            );
            assert_eq!(
                composed.worker_storage_bytes(),
                report.worker_storage_bytes,
                "{name}"
            );
        }
    }
}
