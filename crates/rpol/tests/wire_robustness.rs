//! Property tests for the wire codec: round-trip identity and
//! panic-freedom on arbitrary (adversarial) input bytes.

use bytes::Bytes;
use proptest::prelude::*;
use rpol::commitment::EpochCommitment;
use rpol::committee::CommitteeBatch;
use rpol::pool::Lattice;
use rpol::verify::{RejectReason, VerificationOutcome, WorkerVerdict};
use rpol::wire::{
    classify_payload, decode_committee_batch, decode_epoch_task, decode_proof_request,
    decode_proof_response, decode_submission, encode_committee_batch, encode_proof_request,
    encode_proof_response, encode_submission, seal_frame, DecodeError, EpochTask, FrameAssembler,
    PayloadClass, TaskBlock,
};
use rpol_lsh::{LshFamily, LshParams};

/// Opens one frame as a socket peer does: through a fresh assembler.
fn open(frame: &[u8]) -> Result<Option<Bytes>, DecodeError> {
    let mut asm = FrameAssembler::new(1 << 20);
    asm.push(frame);
    asm.next_frame()
}

proptest! {
    #[test]
    fn submission_roundtrip_v1(
        weights in proptest::collection::vec(-1e3f32..1e3, 1..64),
        n_checkpoints in 1usize..8
    ) {
        let checkpoints: Vec<Vec<f32>> = (0..n_checkpoints)
            .map(|i| weights.iter().map(|w| w + i as f32).collect())
            .collect();
        let commitment = EpochCommitment::commit_v1(&checkpoints);
        let encoded = encode_submission(&weights, Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("roundtrip");
        prop_assert_eq!(w, weights);
        prop_assert_eq!(c, Some(commitment));
    }

    #[test]
    fn submission_roundtrip_v2(
        weights in proptest::collection::vec(-1e3f32..1e3, 4..32),
        k in 1usize..4, l in 1usize..4, seed in any::<u64>()
    ) {
        let checkpoints = vec![weights.clone(), weights.iter().map(|w| w * 2.0).collect()];
        let family = LshFamily::new(weights.len(), LshParams::new(1.0, k, l), seed);
        let commitment = EpochCommitment::commit_v2(&checkpoints, &family);
        let encoded = encode_submission(&weights, Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("roundtrip");
        prop_assert_eq!(w, weights);
        prop_assert_eq!(c, Some(commitment));
    }

    #[test]
    fn submission_roundtrip_v3(
        weights in proptest::collection::vec(-1e3f32..1e3, 4..32),
        k in 1usize..4, l in 1usize..4, seed in any::<u64>()
    ) {
        let snap = |w: Vec<f32>| rpol_tensor::quant::bf16_image(&w);
        let weights = snap(weights);
        let checkpoints = vec![weights.clone(), snap(weights.iter().map(|w| w * 2.0).collect())];
        let family = LshFamily::new(weights.len(), LshParams::new(1.0, k, l), seed);
        let commitment = EpochCommitment::commit_v3(&checkpoints, &family);
        let encoded = encode_submission(&weights, Some(&commitment));
        let (w, c) = decode_submission(encoded).expect("roundtrip");
        prop_assert_eq!(w, weights);
        prop_assert_eq!(c, Some(commitment));
    }

    /// The bulk weight framing must round-trip *bit-exactly* for odd
    /// (non-power-of-two, non-SIMD-width) element counts, including NaN
    /// and subnormal bit patterns that `==` cannot compare.
    #[test]
    fn weight_framing_roundtrip_odd_lengths(
        len_ix in 0usize..11,
        seed in any::<u64>()
    ) {
        const ODD_LENS: [usize; 11] = [1, 3, 5, 7, 9, 13, 31, 33, 63, 65, 127];
        let len = ODD_LENS[len_ix];
        let mut s = seed | 1;
        let weights: Vec<f32> = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                f32::from_bits((s >> 32) as u32)
            })
            .collect();
        let (w, c) = decode_submission(encode_submission(&weights, None)).expect("roundtrip");
        prop_assert!(c.is_none());
        prop_assert_eq!(w.len(), weights.len());
        prop_assert!(w.iter().zip(&weights).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// A payload cut mid-`f32` (1–3 bytes missing from the tail) must fail
    /// with `Truncated` from the single up-front bounds check — never
    /// decode a partial value or panic.
    #[test]
    fn weights_with_truncated_tail_rejected(
        weights in proptest::collection::vec(-1e3f32..1e3, 1..32),
        drop in 1usize..4
    ) {
        let encoded = encode_submission(&weights, None);
        let cut = encoded.len() - drop;
        prop_assert_eq!(
            decode_submission(encoded.slice(0..cut)),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine except a panic.
        let _ = decode_submission(Bytes::from(bytes.clone()));
        let _ = decode_proof_request(Bytes::from(bytes.clone()));
        let _ = decode_proof_response(Bytes::from(bytes));
    }

    #[test]
    fn decoders_never_panic_on_truncations(
        weights in proptest::collection::vec(-1.0f32..1.0, 1..32),
        cut_ppm in 0u32..1_000_000
    ) {
        let checkpoints = vec![weights.clone()];
        let commitment = EpochCommitment::commit_v1(&checkpoints);
        let encoded = encode_submission(&weights, Some(&commitment));
        let cut = (encoded.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let _ = decode_submission(encoded.slice(0..cut));
    }

    #[test]
    fn epoch_task_roundtrip(
        epoch in any::<u64>(), nonce in any::<u64>(), steps in 1u32..10_000,
        weights in proptest::collection::vec(-1e3f32..1e3, 1..64)
    ) {
        let task = EpochTask { epoch, nonce, steps, global_weights: weights };
        let mut payload = TaskBlock::new(Lattice::F32, &task.global_weights).frame(epoch, nonce, steps);
        let decoded = decode_epoch_task(&mut payload).expect("roundtrip");
        prop_assert_eq!(decoded, task);
    }

    #[test]
    fn packed_epoch_task_roundtrip_and_mutations_never_panic(
        epoch in any::<u64>(), nonce in any::<u64>(), steps in 1u32..10_000,
        quants in proptest::collection::vec(any::<u16>(), 1..96),
        cut_ppm in 0u32..1_000_000, pos_ppm in 0u32..1_000_000, xor in 1u8..=255
    ) {
        let weights: Vec<f32> =
            quants.iter().map(|&q| f32::from_bits(u32::from(q) << 16)).collect();
        let payload = TaskBlock::new(Lattice::Bf16, &weights).frame(epoch, nonce, steps);
        prop_assert_eq!(classify_payload(&payload), PayloadClass::EpochTask);
        let task = decode_epoch_task(&mut payload.clone()).expect("roundtrip");
        prop_assert_eq!((task.epoch, task.nonce, task.steps), (epoch, nonce, steps));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&task.global_weights), bits(&weights));
        // Any strict prefix is an error; any flipped byte errors or
        // decodes to something, and neither panics.
        let cut = (payload.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        prop_assert!(decode_epoch_task(&mut payload.slice(0..cut)).is_err());
        let mut bad = payload.to_vec();
        let pos = (bad.len() as u64 * u64::from(pos_ppm) / 1_000_000) as usize;
        bad[pos] ^= xor;
        let _ = decode_epoch_task(&mut Bytes::from(bad));
    }

    #[test]
    fn epoch_task_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = decode_epoch_task(&mut Bytes::from(bytes));
    }

    #[test]
    fn framed_roundtrip_survives_any_payload(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let payload = Bytes::from(bytes);
        prop_assert_eq!(open(&seal_frame(&payload)), Ok(Some(payload)));
    }

    #[test]
    fn corrupted_frames_error_never_panic(
        weights in proptest::collection::vec(-1e3f32..1e3, 1..32),
        pos_ppm in 0u32..1_000_000,
        mask in 1u8..=255
    ) {
        // Seeded single-byte corruption at an arbitrary position: the
        // frame checksum catches every flip, so no payload is delivered
        // (a flipped length leaves the frame waiting for bytes instead).
        let framed = seal_frame(&encode_submission(&weights, None));
        let pos = (framed.len() as u64 * pos_ppm as u64 / 1_000_000) as usize;
        let mut bad = framed.to_vec();
        bad[pos.min(framed.len() - 1)] ^= mask;
        prop_assert!(!matches!(open(&bad), Ok(Some(_))));
    }

    #[test]
    fn truncated_frames_error_never_panic(
        weights in proptest::collection::vec(-1e3f32..1e3, 1..32),
        cut_ppm in 0u32..1_000_000
    ) {
        let framed = seal_frame(&encode_submission(&weights, None));
        let cut = (framed.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        if cut < framed.len() {
            prop_assert_eq!(open(&framed[..cut]), Ok(None));
        }
    }

    #[test]
    fn request_response_roundtrip(
        samples in proptest::collection::vec(0usize..1000, 0..16),
        index in 0usize..1000,
        weights in proptest::collection::vec(-1e3f32..1e3, 0..64)
    ) {
        prop_assert_eq!(
            decode_proof_request(encode_proof_request(&samples)).expect("ok"),
            samples
        );
        let (ix, w) = decode_proof_response(encode_proof_response(index, &weights)).expect("ok");
        prop_assert_eq!(ix, index);
        prop_assert_eq!(w, weights);
    }
}

use rpol::pool::Scheme;
use rpol::wire::{
    decode_net_control, encode_net_control, BusyReason, FamilySpec, NetControl, NET_PROTOCOL,
};

/// A `CommitSpec` carries a family exactly when its scheme hashes by LSH.
/// An RPoLv2/v3 spec without one would have the worker train and upload a
/// submission with no commitment; a baseline/v1 spec with one names a
/// family nobody hashes by. Both are refused at decode.
#[test]
fn commit_spec_family_flag_must_agree_with_the_scheme() {
    let family = FamilySpec {
        r: 4.0,
        k: 2,
        l: 3,
        seed: 9,
    };
    for (scheme, family) in [
        (Scheme::RPoLv2, None),
        (Scheme::RPoLv3, None),
        (Scheme::Baseline, Some(family)),
        (Scheme::RPoLv1, Some(family)),
    ] {
        let mut bytes = encode_net_control(&NetControl::CommitSpec {
            epoch: 3,
            scheme,
            family,
        });
        assert_eq!(
            decode_net_control(&mut bytes),
            Err(DecodeError::Malformed("family flag disagrees with scheme")),
            "{scheme} with family {family:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Feeding an incremental assembler one byte at a time must yield the
    /// exact payload sequence that whole-buffer framing round-trips —
    /// frame boundaries can land anywhere in a TCP stream.
    #[test]
    fn assembler_byte_at_a_time_matches_whole_buffer(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..6
        )
    ) {
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&seal_frame(&Bytes::from(payload.clone())));
        }

        let mut trickled = FrameAssembler::new(1 << 20);
        let mut got_trickled: Vec<Vec<u8>> = Vec::new();
        for &byte in &stream {
            trickled.push(&[byte]);
            while let Some(frame) = trickled.next_frame().expect("valid stream") {
                got_trickled.push(frame.to_vec());
            }
        }

        let mut whole = FrameAssembler::new(1 << 20);
        whole.push(&stream);
        let mut got_whole: Vec<Vec<u8>> = Vec::new();
        while let Some(frame) = whole.next_frame().expect("valid stream") {
            got_whole.push(frame.to_vec());
        }

        prop_assert_eq!(&got_trickled, &payloads);
        prop_assert_eq!(got_whole, payloads);
        // Nothing is left over: the next frame comes through whole.
        trickled.push(&seal_frame(&Bytes::from(b"next".to_vec())));
        prop_assert_eq!(trickled.next_frame(), Ok(Some(Bytes::from(b"next".to_vec()))));
    }

    /// Every control-plane message survives an encode/decode round trip.
    #[test]
    fn net_control_roundtrip(
        variant in 0usize..11,
        a in any::<u64>(),
        b in any::<u64>(),
        workers in 1u32..1 << 20,
        r in 0.1f32..1e3,
        k in 1u32..16,
        l in 1u32..16,
    ) {
        let msg = match variant {
            0 => NetControl::Hello { worker: a as u32, protocol: NET_PROTOCOL },
            1 => NetControl::Welcome { workers },
            2 => NetControl::Busy {
                reason: if a.is_multiple_of(2) { BusyReason::PoolFull } else { BusyReason::Shedding },
            },
            3 => NetControl::Ping { nonce: a },
            4 => NetControl::Pong { nonce: a },
            // Schemes 0/1 carry no family, 2/3 must.
            5 => NetControl::CommitSpec { epoch: a, scheme: Scheme::ALL[(b % 2) as usize], family: None },
            6 => NetControl::CommitSpec {
                epoch: a,
                scheme: Scheme::ALL[2 + (b % 2) as usize],
                family: Some(FamilySpec { r, k, l, seed: b }),
            },
            7 => NetControl::ProofSeq { seq: a },
            8 => {
                // Protocol 1's lost-upload notice: its tag stays retired.
                let mut retired = vec![0x37, 1 + (b % 4) as u8];
                retired.extend_from_slice(&a.to_le_bytes());
                retired.extend_from_slice(&b.to_le_bytes());
                let decoded = decode_net_control(&mut Bytes::from(retired));
                prop_assert!(matches!(decoded, Err(DecodeError::Malformed(_))), "{:?}", decoded);
                return Ok(());
            }
            9 => NetControl::EpochEnd { epoch: a, status: (b % 3) as u8 },
            _ => NetControl::Shutdown,
        };
        let decoded = decode_net_control(&mut encode_net_control(&msg)).expect("roundtrip");
        prop_assert_eq!(decoded, msg);
    }

    /// The control decoder rejects garbage without panicking.
    #[test]
    fn net_control_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        let _ = decode_net_control(&mut Bytes::from(bytes));
    }

    /// Committee verdict batches (DESIGN.md §15) round-trip through the
    /// tagged frame exactly: every verdict shape — accepts, double-checks,
    /// all reject reasons, unavailability — and the claimed root survive.
    #[test]
    fn committee_batch_roundtrip(
        epoch in any::<u64>(),
        committee in 0usize..1024,
        commit_bytes in any::<u64>(),
        shapes in proptest::collection::vec(
            (0u32..10_000, proptest::collection::vec((0u32..64, 0u8..7), 0..5)),
            1..9
        )
    ) {
        let verdicts: Vec<(usize, WorkerVerdict)> = shapes
            .iter()
            .enumerate()
            .map(|(i, (bytes, outcomes))| {
                let outcomes = outcomes
                    .iter()
                    .map(|&(sample, tag)| (sample as usize, outcome_of(tag)))
                    .collect();
                (
                    i * 7 + 1,
                    WorkerVerdict {
                        outcomes,
                        proof_bytes: *bytes as u64,
                        replayed_steps: (*bytes as u64).wrapping_mul(3),
                    },
                )
            })
            .collect();
        let batch = CommitteeBatch::from_verdicts(epoch, committee, verdicts, commit_bytes);
        let encoded = encode_committee_batch(&batch);
        prop_assert_eq!(classify_payload(&encoded), PayloadClass::CommitteeBatch);
        let decoded = decode_committee_batch(encoded).expect("roundtrip");
        prop_assert!(decoded.audit_proofs(&[]).is_some());
        prop_assert_eq!(decoded, batch);
    }

    /// Truncating a batch frame anywhere must yield a clean decode error,
    /// never a panic or a silently shorter batch.
    #[test]
    fn committee_batch_truncations_rejected(
        n_verdicts in 1usize..6,
        cut_ppm in 0u32..1_000_000
    ) {
        let verdicts: Vec<(usize, WorkerVerdict)> = (0..n_verdicts)
            .map(|i| {
                (i, WorkerVerdict {
                    outcomes: vec![(i, VerificationOutcome::Accepted { double_checked: false })],
                    proof_bytes: 100,
                    replayed_steps: 5,
                })
            })
            .collect();
        let encoded = encode_committee_batch(
            &CommitteeBatch::from_verdicts(3, 0, verdicts, 64)
        );
        let cut = (encoded.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        if cut < encoded.len() {
            prop_assert!(decode_committee_batch(encoded.slice(0..cut)).is_err());
        }
    }

    /// The batch decoder survives arbitrary adversarial bytes.
    #[test]
    fn committee_batch_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = decode_committee_batch(Bytes::from(bytes));
    }
}

/// Maps a proptest tag to each canonical verdict-leaf outcome in turn.
fn outcome_of(tag: u8) -> VerificationOutcome {
    match tag {
        0 => VerificationOutcome::Accepted {
            double_checked: false,
        },
        1 => VerificationOutcome::Accepted {
            double_checked: true,
        },
        2 => VerificationOutcome::Rejected(RejectReason::InputCommitmentMismatch),
        3 => VerificationOutcome::Rejected(RejectReason::OutputCommitmentMismatch),
        4 => VerificationOutcome::Rejected(RejectReason::DistanceExceeded {
            distance: 2.5,
            beta: 0.5,
        }),
        5 => VerificationOutcome::Rejected(RejectReason::MalformedWeights),
        _ => VerificationOutcome::Unavailable,
    }
}

use rpol::wire::BufPool;

/// One generated wire segment: a payload plus how the "link" mutilates
/// its sealed frame before it hits the assembler.
fn mutilate(payload: &[u8], kind: u8, knob: u16) -> Vec<u8> {
    let mut framed: Vec<u8> = seal_frame(&Bytes::from(payload.to_vec())).to_vec();
    match kind {
        // Pristine.
        0 => framed,
        // One flipped byte: frames, then fails the checksum.
        1 => {
            let at = knob as usize % framed.len();
            framed[at] ^= 0x5A;
            framed
        }
        // Truncated mid-frame: the tail bleeds into whatever follows.
        2 => {
            let keep = 1 + knob as usize % framed.len();
            framed.truncate(keep);
            framed
        }
        // Raw junk, no framing at all.
        _ => {
            let mut junk = vec![0u8; 1 + knob as usize % 17];
            for (i, b) in junk.iter_mut().enumerate() {
                *b = (knob as u8).wrapping_add(i as u8).wrapping_mul(31);
            }
            junk
        }
    }
}

/// What one assembler pass produced, as comparable values.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Frame(Vec<u8>),
    Corrupt,
    Malformed,
}

/// Drains everything the assembler can currently yield.
fn drain(asm: &mut FrameAssembler, pool: Option<&mut BufPool>, out: &mut Vec<Step>) {
    // Reborrow the pool per call without consuming the Option.
    let mut pool = pool;
    loop {
        match asm.next_frame_with(pool.as_deref_mut()) {
            Ok(Some(frame)) => {
                let copy = frame.to_vec();
                if let Some(p) = pool.as_deref_mut() {
                    // Immediately recycle the payload buffer DIRTY — its
                    // stale bytes must never leak into a later frame.
                    p.put(Vec::from(frame));
                } else {
                    drop(frame);
                }
                out.push(Step::Frame(copy));
            }
            Ok(None) => break,
            Err(rpol::wire::DecodeError::ChecksumMismatch) => out.push(Step::Corrupt),
            Err(_) => out.push(Step::Malformed),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pooled-buffer path (recycled payload buffers, recycled
    /// assembler backing store, dirty reuse after corrupt and truncated
    /// frames) yields a byte-identical frame/error sequence to fresh
    /// allocation, at every chunking of the same mutilated stream.
    #[test]
    fn pooled_assembly_matches_fresh_allocation(
        segments in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..96), 0u8..4, any::<u16>()),
            1..12
        ),
        chunk in 1usize..97,
        backing_junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream = Vec::new();
        for (payload, kind, knob) in &segments {
            stream.extend_from_slice(&mutilate(payload, *kind, *knob));
        }

        let mut fresh = FrameAssembler::new(1 << 20);
        let mut got_fresh = Vec::new();
        for piece in stream.chunks(chunk) {
            fresh.push(piece);
            drain(&mut fresh, None, &mut got_fresh);
        }

        // The pooled run starts as dirty as possible: a recycled backing
        // store full of junk and a pool pre-seeded with stale buffers.
        let mut pool = BufPool::new();
        pool.put(vec![0xAA; 512]);
        pool.put(vec![0x55; 3]);
        let mut pooled = FrameAssembler::with_buffer(1 << 20, backing_junk);
        let mut got_pooled = Vec::new();
        for piece in stream.chunks(chunk) {
            pooled.push(piece);
            drain(&mut pooled, Some(&mut pool), &mut got_pooled);
        }

        prop_assert_eq!(&got_fresh, &got_pooled);
        // Both hold the same unconsumed tail: a frame pushed after it
        // comes out of each the same way.
        let tail = seal_frame(&Bytes::from(b"tail".to_vec()));
        let (mut tail_fresh, mut tail_pooled) = (Vec::new(), Vec::new());
        fresh.push(&tail);
        drain(&mut fresh, None, &mut tail_fresh);
        pooled.push(&tail);
        drain(&mut pooled, Some(&mut pool), &mut tail_pooled);
        prop_assert_eq!(tail_fresh, tail_pooled);

        // Recycling the assembler's own backing store mid-stream is also
        // lossless: a second pass over the same stream through the reused
        // buffer reproduces the same sequence.
        let mut reused = FrameAssembler::with_buffer(1 << 20, pooled.into_buffer());
        let mut got_reused = Vec::new();
        for piece in stream.chunks(chunk) {
            reused.push(piece);
            drain(&mut reused, Some(&mut pool), &mut got_reused);
        }
        prop_assert_eq!(&got_fresh, &got_reused);

        // Every recycled frame was served from the pool once warm: after
        // the first few misses the hit path dominates.
        prop_assert!(pool.hits + pool.misses >= got_fresh.iter()
            .filter(|s| matches!(s, Step::Frame(_))).count() as u64);
    }
}
