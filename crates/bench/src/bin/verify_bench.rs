//! Verification data-plane benchmark emitting `BENCH_verify.json`.
//!
//! Times the three vectorized stages of the commit/verify path against
//! their retained scalar oracles:
//!
//! * **checkpoint commitment hashing** — one row per SHA-256 tier the
//!   host has, each through the explicit-tier entry: the portable
//!   compression one stream per checkpoint (`commit_hash_portable`, the
//!   base of `speedup_vs_scalar`), the AVX2 8-lane lockstep
//!   (`commit_hash_lanes8`) and the SHA-extensions single stream
//!   (`commit_hash_sha_ni`) — then `commit_hash_batch`, the
//!   `sha256_f32_batch` that `EpochCommitment::commit_v1` calls, on
//!   whichever of those tiers the host detects;
//! * **LSH digest computation** — per-checkpoint `hash_scalar` +
//!   `group_digests` vs the one streamed pass + `group_digests_batch`
//!   used by `LshCommitment::commit`, on one lane like its reference
//!   (`lsh_digest_streamed`), and as production runs it, split across the
//!   shared executor's lanes (`lsh_digest_streamed_lanes`, information);
//! * **end-to-end sampled replay** — `Verifier::verify_samples` on the
//!   tiny task, the latency a manager pays per worker per epoch: RPoLv2
//!   on the noop recorder (the reference), on an attached but disabled
//!   recorder and on a recording one (the observability overhead
//!   `scripts/check_bench.sh` gates), and RPoLv3.
//!
//! Every vectorized result is asserted bitwise-equal to its scalar oracle,
//! and every replay variant to the reference's verdict, before being
//! timed — a benchmark of a wrong path is worthless here. A row's
//! `speedup_vs_scalar` is the median of [`ROUNDS`] per-round
//! `reference / row` ratios, its reference and fast passes timed in
//! interleaved rounds (see [`interleaved`]): one pass of the scalar LSH
//! chain alone ranges over ±30 % with what the host's other tenants run.
//!
//! `BENCH_SMOKE=1` shrinks shapes and timing budgets for the CI
//! regression gate (`scripts/check_bench.sh`); the committed baseline is
//! produced by a full run (`scripts/bench_verify.sh`).
//!
//! Usage: `cargo run --release -p rpol-bench --bin verify_bench [out.json]`

use rpol::commitment::EpochCommitment;
use rpol::tasks::TaskConfig;
use rpol::trainer::{EpochTrace, LocalTrainer};
use rpol::verify::{ProofProvider, ProofUnavailable, Verifier, WorkerVerdict};
use rpol::wire;
use rpol_crypto::bytes::bf16_as_le_bytes;
use rpol_crypto::bytes::f32s_as_le_bytes;
use rpol_crypto::sha256::{sha256_with, Digest, Tier};
use rpol_crypto::sha256x8::sha256_batch_with;
use rpol_crypto::{sha256_bf16_batch, sha256_f32_batch};
use rpol_lsh::{LshFamily, LshParams, Signature};
use rpol_nn::data::SyntheticImages;
use rpol_nn::model::Sequential;
use rpol_obs::{EventKind, Recorder};
use rpol_sim::gpu::{GpuModel, NoiseInjector};
use rpol_tensor::rng::Pcg32;
use std::hint::black_box;
use std::time::Instant;

/// One timed pass of a benchmarked path.
type Pass<'a> = Box<dyn FnMut() + 'a>;

/// Rounds in which a reference and its fast paths are timed.
const ROUNDS: usize = 5;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median-of-`samples` timing, each sample adaptively sized to run at
/// least `min_ms` milliseconds.
fn time_ns_cfg(min_ms: u128, samples: usize, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t0.elapsed().as_millis() >= min_ms {
            break;
        }
        iters *= 2;
    }
    median(
        (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// Times `reference` and each of `fast` in [`ROUNDS`] interleaved rounds,
/// the order reversed every other round, so that a host whose speed
/// drifts moves both sides of a round's ratio together. Returns, for the
/// reference and then each fast path, its median time and its per-round
/// `reference / path` ratios.
fn interleaved(
    time_ns: &dyn Fn(&mut dyn FnMut()) -> f64,
    reference: &mut dyn FnMut(),
    fast: &mut [Pass<'_>],
) -> Vec<(f64, Vec<f64>)> {
    let mut reference_ns = Vec::with_capacity(ROUNDS);
    let mut fast_ns = vec![Vec::with_capacity(ROUNDS); fast.len()];
    for round in 0..ROUNDS {
        let forward = round % 2 == 0;
        if forward {
            reference_ns.push(time_ns(reference));
        }
        for k in 0..fast.len() {
            let i = if forward { k } else { fast.len() - 1 - k };
            fast_ns[i].push(time_ns(fast[i].as_mut()));
        }
        if !forward {
            reference_ns.push(time_ns(reference));
        }
    }
    std::iter::once(reference_ns.clone())
        .chain(fast_ns)
        .map(|ns| {
            let ratios = reference_ns.iter().zip(&ns).map(|(r, f)| r / f).collect();
            (median(ns), ratios)
        })
        .collect()
}

/// One row per path [`interleaved`] timed, named by `ops` in its order
/// (the reference first): the per-round ratios printed, their median
/// recorded.
fn push_rows(
    records: &mut Vec<Record>,
    ops: &[&'static str],
    timed: Vec<(f64, Vec<f64>)>,
    shape: &str,
    bytes: f64,
) {
    assert_eq!(ops.len(), timed.len(), "one name per timed path");
    for (&op, (ns, ratios)) in ops.iter().zip(timed) {
        let rounds: Vec<String> = ratios.iter().map(|r| format!("{r:.3}x")).collect();
        println!("{op}: per round {}", rounds.join(", "));
        records.push(Record {
            op,
            shape: shape.to_string(),
            ns_per_iter: ns,
            mb_per_s: bytes * 1000.0 / ns,
            speedup_vs_scalar: median(ratios),
        });
    }
}

struct Record {
    op: &'static str,
    shape: String,
    ns_per_iter: f64,
    mb_per_s: f64,
    speedup_vs_scalar: f64,
}

struct VecProvider<'a>(&'a [Vec<f32>]);

impl ProofProvider for VecProvider<'_> {
    fn open_checkpoint(
        &self,
        index: usize,
    ) -> Result<std::borrow::Cow<'_, [f32]>, ProofUnavailable> {
        Ok(std::borrow::Cow::Borrowed(&self.0[index]))
    }
}

/// One worker's epoch replayed end to end on a verifier and its own model.
struct Replay<'a> {
    verifier: Verifier<'a>,
    model: Sequential,
    trace: &'a EpochTrace,
    commitment: &'a EpochCommitment,
    samples: &'a [usize],
}

impl Replay<'_> {
    fn run(&mut self) -> WorkerVerdict {
        self.verifier.verify_samples(
            &mut self.model,
            self.commitment,
            &self.trace.segments,
            black_box(self.samples),
            &VecProvider(&self.trace.checkpoints),
        )
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_verify.json".to_string());
    let smoke = std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    // Smoke keeps the same memory-bound regime (projection matrix well
    // past L2) at a fraction of the wall-clock.
    let (dim, m, min_ms, samples) = if smoke {
        (64_000usize, 8usize, 5u128, 3usize)
    } else {
        (100_000usize, 16usize, 50u128, 5usize)
    };
    let time_ns = |f: &mut dyn FnMut()| time_ns_cfg(min_ms, samples, f);
    let mut records: Vec<Record> = Vec::new();
    let shape = format!("{m}x{dim}");
    let bytes = (m * dim * 4) as f64;

    let mut rng = Pcg32::seed_from(42);
    let checkpoints: Vec<Vec<f32>> = (0..m)
        .map(|_| (0..dim).map(|_| rng.next_normal() * 0.05).collect())
        .collect();
    let refs: Vec<&[f32]> = checkpoints.iter().map(|w| w.as_slice()).collect();

    // --- Checkpoint commitment hashing: the portable oracle, then every
    // faster tier the host has, then what production dispatches to. ---
    let views: Vec<_> = refs.iter().map(|w| f32s_as_le_bytes(w)).collect();
    let byte_refs: Vec<&[u8]> = views.iter().map(|v| &v[..]).collect();
    let portable = |msgs: &[&[u8]]| -> Vec<Digest> {
        msgs.iter()
            .map(|m| sha256_with(Tier::Portable, m))
            .collect()
    };
    let scalar_digests = portable(&byte_refs);
    assert_eq!(
        scalar_digests,
        sha256_f32_batch(&refs),
        "batch hasher diverged from the portable oracle"
    );
    // Every faster tier the host has, then what production dispatches to,
    // then the quantized image (RPoLv3): the packed bf16 image halves the
    // bytes SHA-256 has to move per checkpoint. Throughput is still
    // reported in committed *model* bytes (f32), so the quantized row is
    // directly comparable to the full-precision rows: same work accounted,
    // fewer bytes hashed. Its oracle: portable SHA-256 over the same
    // packed image.
    let byte_refs = &byte_refs;
    let refs = &refs;
    let (mut hash_ops, mut hash_passes): (Vec<&'static str>, Vec<Pass<'_>>) =
        (vec!["commit_hash_portable"], vec![]);
    for (tier, op) in [
        (Tier::Avx2Lanes, "commit_hash_lanes8"),
        (Tier::ShaNi, "commit_hash_sha_ni"),
    ] {
        if !tier.available() {
            println!("{op}: {tier:?} tier absent on this host, row skipped");
            continue;
        }
        assert_eq!(
            scalar_digests,
            sha256_batch_with(tier, byte_refs),
            "{tier:?} diverged from the portable oracle"
        );
        hash_ops.push(op);
        hash_passes.push(Box::new(move || {
            black_box(sha256_batch_with(tier, black_box(byte_refs)));
        }));
    }
    hash_ops.push("commit_hash_batch");
    hash_passes.push(Box::new(|| {
        black_box(sha256_f32_batch(black_box(refs)));
    }));
    let quant_oracle: Vec<Digest> = refs
        .iter()
        .map(|w| sha256_with(Tier::Portable, &bf16_as_le_bytes(w)))
        .collect();
    assert_eq!(
        quant_oracle,
        sha256_bf16_batch(refs),
        "quantized batch hasher diverged from the portable packed-image oracle"
    );
    hash_ops.push("commit_hash_quant");
    hash_passes.push(Box::new(|| {
        black_box(sha256_bf16_batch(black_box(refs)));
    }));
    let timed = interleaved(
        &time_ns,
        &mut || {
            black_box(portable(black_box(byte_refs)));
        },
        &mut hash_passes,
    );
    push_rows(&mut records, &hash_ops, timed, &shape, bytes);

    // --- LSH digests: scalar chain vs one streamed batch + batched SHA.
    // A streamed pass derives its k·l·dim rows once for the whole batch,
    // so its MB/s grows with the batch: these rows keep the full shape in
    // smoke mode too. check_bench.sh gates the one-lane streamed row's
    // speedup, both sides on one thread; the pass split across the shared
    // executor's lanes also times the host's other load. ---
    let (lsh_m, lsh_dim) = (16usize, 100_000usize);
    let lsh_shape = format!("{lsh_m}x{lsh_dim}");
    let lsh_bytes = (lsh_m * lsh_dim * 4) as f64;
    let mut lsh_rng = Pcg32::seed_from(43);
    let lsh_inputs: Vec<Vec<f32>> = (0..lsh_m)
        .map(|_| (0..lsh_dim).map(|_| lsh_rng.next_normal() * 0.05).collect())
        .collect();
    let lsh_refs: Vec<&[f32]> = lsh_inputs.iter().map(|w| w.as_slice()).collect();
    let lsh_family = LshFamily::new(lsh_dim, LshParams::new(4.0, 4, 8), 7);
    let scalar_sigs: Vec<Signature> = lsh_refs.iter().map(|w| lsh_family.hash_scalar(w)).collect();
    let scalar_entries: Vec<Vec<Digest>> = scalar_sigs.iter().map(|s| s.group_digests()).collect();
    for lanes in [1, rpol_exec::shared().threads()] {
        let sigs = lsh_family.hash_batch_threads(&lsh_refs, lanes);
        assert_eq!(sigs, scalar_sigs, "streamed hash diverged at {lanes} lanes");
        assert_eq!(
            Signature::group_digests_batch(&sigs),
            scalar_entries,
            "batched group digests diverged"
        );
    }
    let (family, inputs) = (&lsh_family, &lsh_refs);
    let mut streamed: Vec<Pass<'_>> = [1, rpol_exec::shared().threads()]
        .into_iter()
        .map(|lanes| -> Pass<'_> {
            Box::new(move || {
                let sigs = family.hash_batch_threads(black_box(inputs), lanes);
                black_box(Signature::group_digests_batch(&sigs));
            })
        })
        .collect();
    let timed = interleaved(
        &time_ns,
        &mut || {
            black_box(
                black_box(&lsh_refs)
                    .iter()
                    .map(|w| lsh_family.hash_scalar(w).group_digests())
                    .collect::<Vec<Vec<Digest>>>(),
            );
        },
        &mut streamed,
    );
    push_rows(
        &mut records,
        &[
            "lsh_digest_scalar",
            "lsh_digest_streamed",
            "lsh_digest_streamed_lanes",
        ],
        timed,
        &lsh_shape,
        lsh_bytes,
    );

    // --- Packed wire framing (RPoLv3): payload bytes of one epoch
    // submission (final weights + commitment) vs the raw f32 framing the
    // transport's `bytes_saved` counter measures against. The packed frame
    // must round-trip bit-for-bit before its size or encode rate counts.
    // `speedup_vs_scalar` carries the raw/packed *size* ratio — the wire
    // compression factor the regression gate checks (2.5x ≙ 60% fewer
    // payload bytes).
    let lattice: Vec<Vec<f32>> = checkpoints
        .iter()
        .map(|w| rpol_tensor::quant::bf16_image(w))
        .collect();
    let family = LshFamily::new(dim, LshParams::new(4.0, 4, 8), 7);
    let v3_commit = EpochCommitment::commit_v3(&lattice, &family);
    let final_w = lattice.last().expect("checkpoints nonempty");
    let packed_frame = wire::encode_submission(final_w, Some(&v3_commit));
    let (decoded_w, decoded_c) =
        wire::decode_submission(packed_frame.clone()).expect("packed frame must decode");
    assert_eq!(
        decoded_w.iter().map(|w| w.to_bits()).collect::<Vec<u32>>(),
        final_w.iter().map(|w| w.to_bits()).collect::<Vec<u32>>(),
        "packed submission weights diverged after round-trip"
    );
    assert_eq!(
        decoded_c.as_ref(),
        Some(&v3_commit),
        "packed submission commitment diverged after round-trip"
    );
    let raw_size = wire::submission_raw_wire_size(final_w.len(), Some(&v3_commit));
    assert!(
        packed_frame.len() < raw_size,
        "packed frame ({}) not smaller than raw framing ({})",
        packed_frame.len(),
        raw_size
    );
    let wire_ns = time_ns(&mut || {
        black_box(wire::encode_submission(
            black_box(final_w),
            Some(black_box(&v3_commit)),
        ));
    });
    records.push(Record {
        op: "wire_submission_packed",
        shape: format!("{dim}w+{m}cp"),
        ns_per_iter: wire_ns,
        mb_per_s: raw_size as f64 * 1000.0 / wire_ns,
        speedup_vs_scalar: raw_size as f64 / packed_frame.len() as f64,
    });

    // --- End-to-end sampled replay on the tiny task, the latency a manager
    // pays per worker per epoch: RPoLv2 on the shared noop recorder (the
    // reference), the same with an attached but disabled recorder (every
    // span and event site pays its `enabled()` guard), with a recording one
    // (drained each pass, so its buffer cannot grow), and RPoLv3 over a
    // quantized (bf16-lattice) trajectory and commitment. One replay reads
    // ≈ 250 or ≈ 380 µs by spells of seconds; interleaved rounds move both
    // sides of a ratio together. ---
    let cfg = TaskConfig::tiny();
    let data = SyntheticImages::generate(&cfg.spec, 64, &mut Pcg32::seed_from(1));
    let trainer = || LocalTrainer::new(&cfg, &data, NoiseInjector::new(GpuModel::GA10, 11));
    let trace = trainer().run_epoch(&mut cfg.build_model(), 5, 6);
    let q_trace = trainer().run_epoch_quantized(&mut cfg.build_model(), 5, 6);
    let model_dim = trace.checkpoints[0].len();
    let e2e_family = LshFamily::new(model_dim, LshParams::new(4.0, 4, 4), 7);
    let commitment = EpochCommitment::commit_v2(&trace.checkpoints, &e2e_family);
    let q_commitment = EpochCommitment::commit_v3(&q_trace.checkpoints, &e2e_family);
    let e2e_samples: &[usize] = if smoke { &[0] } else { &[0, 1, 2] };
    let verifier = || {
        Verifier::new(
            &cfg,
            &data,
            5,
            0.5,
            Some(&e2e_family),
            NoiseInjector::new(GpuModel::G3090, 42),
        )
    };
    let rec_off = Recorder::logical();
    rec_off.disable();
    let rec_on = Recorder::logical();
    let replay = |verifier, trace, commitment| Replay {
        verifier,
        model: cfg.build_model(),
        trace,
        commitment,
        samples: e2e_samples,
    };
    let mut noop = replay(verifier(), &trace, &commitment);
    let mut off = replay(verifier().with_recorder(&rec_off), &trace, &commitment);
    let mut on = replay(verifier().with_recorder(&rec_on), &trace, &commitment);
    let mut v3 = replay(verifier(), &q_trace, &q_commitment);
    let verdict = noop.run();
    assert!(
        verdict.all_accepted(),
        "honest e2e replay rejected: {:?}",
        verdict.outcomes
    );
    assert_eq!(off.run(), verdict, "a disabled recorder moved the verdict");
    assert!(rec_off.events().is_empty(), "a disabled recorder recorded");
    assert_eq!(on.run(), verdict, "a recording recorder moved the verdict");
    let spans = rec_on
        .drain_events()
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "rpol.verify.replay_segment")
        .count();
    assert_eq!(
        spans,
        e2e_samples.len(),
        "the recording recorder missed replay spans"
    );
    let q_verdict = v3.run();
    assert!(
        q_verdict.all_accepted(),
        "honest v3 e2e replay rejected: {:?}",
        q_verdict.outcomes
    );
    let mut e2e_passes: Vec<Pass<'_>> = vec![
        Box::new(|| {
            black_box(off.run());
        }),
        Box::new(|| {
            black_box(on.run());
            black_box(rec_on.drain_events());
        }),
        Box::new(|| {
            black_box(v3.run());
        }),
    ];
    let timed = interleaved(
        &time_ns,
        &mut || {
            black_box(noop.run());
        },
        &mut e2e_passes,
    );
    push_rows(
        &mut records,
        &[
            "verify_samples_e2e_v2",
            "verify_samples_e2e_v2_obs_disabled",
            "verify_samples_e2e_v2_obs_enabled",
            "verify_samples_e2e_v3",
        ],
        timed,
        &format!("{}samples x {}w", e2e_samples.len(), model_dim),
        (e2e_samples.len() * model_dim * 4) as f64,
    );

    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"op\": \"{}\", \"shape\": \"{}\", \"ns_per_iter\": {:.1}, \"mb_per_s\": {:.1}, \"speedup_vs_scalar\": {:.2}}}{}\n",
            r.op,
            r.shape,
            r.ns_per_iter,
            r.mb_per_s,
            r.speedup_vs_scalar,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");

    for r in &records {
        println!(
            "{:<34} {:>16} {:>16.1} ns/iter {:>9.1} MB/s {:>6.2}x",
            r.op, r.shape, r.ns_per_iter, r.mb_per_s, r.speedup_vs_scalar
        );
    }
    println!("wrote {out_path}");
}
