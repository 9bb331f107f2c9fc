//! Drive the tiny demo pool over a fault-injecting transport from the
//! command line: pick a loss profile (or individual drop/corrupt/truncate
//! rates), crash or slow down specific workers, seat an endpoint cheat, and
//! watch the pool degrade gracefully — quarantining dead links instead of
//! convicting them, and convicting the cheat on any link.
//!
//! All randomness derives from `--seed`, and the output contains no
//! wall-clock fields, so two runs with the same arguments are
//! byte-identical (`diff`-able).
//!
//! Run with: `cargo run --release --example fault_injection -- --help`

use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::transport::{FaultConfig, FaultProfile, RetryPolicy};
use rpol_sim::NetworkModel;

const USAGE: &str = "\
usage: fault_injection [options]

  --scheme S        baseline | v1 | v2 | v3             (default v2)
  --profile P       none | lossy | harsh                (default lossy)
  --drop P          override drop probability           [0, 1)
  --corrupt P       override corruption probability     [0, 1)
  --truncate P      override truncation probability     [0, 1)
  --seed N          fault seed                          (default 42)
  --epochs N        epochs to run                       (default 2)
  --workers N       pool size                           (default 3)
  --crash W@E       worker W crashes mid-epoch E        (repeatable)
  --straggler W@S   worker W runs S times slower        (repeatable)
  --cheat W@K       worker W cheats at an endpoint, K = swap-final |
                    foreign-start                       (repeatable)
  --net M,W,L       manager bps, worker bps, latency s  (default paper WAN)
  --assert-honest   exit 1 if any honest worker is rejected or any
                    --cheat worker is accepted
  --help            print this message";

struct Args {
    scheme: Scheme,
    profile: FaultProfile,
    seed: u64,
    epochs: usize,
    workers: usize,
    crashes: Vec<(usize, u64)>,
    stragglers: Vec<(usize, f32)>,
    cheats: Vec<(usize, WorkerBehavior)>,
    net: NetworkModel,
    assert_honest: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("fault_injection: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {raw:?}")))
}

/// Splits a `A@B` pair, e.g. `--crash 1@0` or `--straggler 2@4.5`.
fn parse_pair<A: std::str::FromStr, B: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
) -> (A, B) {
    let raw = value.unwrap_or_else(|| fail(&format!("{flag} needs a value like W@X")));
    let Some((a, b)) = raw.split_once('@') else {
        fail(&format!("{flag}: expected W@X, got {raw:?}"))
    };
    match (a.parse(), b.parse()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => fail(&format!("{flag}: cannot parse {raw:?}")),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        scheme: Scheme::RPoLv2,
        profile: FaultProfile::lossy(),
        seed: 42,
        epochs: 2,
        workers: 3,
        crashes: Vec::new(),
        stragglers: Vec::new(),
        cheats: Vec::new(),
        net: NetworkModel::paper_default(),
        assert_honest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scheme" => {
                args.scheme = match parse::<String>(&flag, it.next()).as_str() {
                    "baseline" => Scheme::Baseline,
                    "v1" => Scheme::RPoLv1,
                    "v2" => Scheme::RPoLv2,
                    "v3" => Scheme::RPoLv3,
                    other => fail(&format!("--scheme: unknown scheme {other:?}")),
                }
            }
            "--profile" => {
                args.profile = match parse::<String>(&flag, it.next()).as_str() {
                    "none" => FaultProfile::ideal(),
                    "lossy" => FaultProfile::lossy(),
                    "harsh" => FaultProfile::harsh(),
                    other => fail(&format!("--profile: unknown profile {other:?}")),
                }
            }
            "--drop" => args.profile.drop_prob = parse(&flag, it.next()),
            "--corrupt" => args.profile.corrupt_prob = parse(&flag, it.next()),
            "--truncate" => args.profile.truncate_prob = parse(&flag, it.next()),
            "--seed" => args.seed = parse(&flag, it.next()),
            "--epochs" => args.epochs = parse(&flag, it.next()),
            "--workers" => args.workers = parse(&flag, it.next()),
            "--crash" => args.crashes.push(parse_pair(&flag, it.next())),
            "--straggler" => args.stragglers.push(parse_pair(&flag, it.next())),
            "--cheat" => {
                let (w, kind): (usize, String) = parse_pair(&flag, it.next());
                let behavior = match kind.as_str() {
                    "swap-final" => WorkerBehavior::SwapFinal,
                    "foreign-start" => WorkerBehavior::ForeignStart,
                    other => fail(&format!("--cheat: unknown cheat {other:?}")),
                };
                args.cheats.push((w, behavior));
            }
            "--net" => {
                let raw: String = parse(&flag, it.next());
                let parts: Vec<&str> = raw.split(',').collect();
                let [m, w, l] = parts[..] else {
                    fail("--net: expected three comma-separated numbers M,W,L")
                };
                let nums: Vec<f64> = [m, w, l]
                    .iter()
                    .map(|s| {
                        s.parse()
                            .unwrap_or_else(|_| fail(&format!("--net: cannot parse {s:?}")))
                    })
                    .collect();
                args.net = NetworkModel::new(nums[0], nums[1], nums[2])
                    .unwrap_or_else(|e| fail(&format!("--net: {e}")));
            }
            "--assert-honest" => args.assert_honest = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if args.workers == 0 {
        fail("--workers: need at least one worker");
    }
    args
}

fn main() {
    let args = parse_args();

    let fault = FaultConfig {
        profile: args.profile,
        policy: RetryPolicy::default(),
        net: args.net,
        seed: args.seed,
    };
    if let Err(e) = fault.validate() {
        fail(&format!("invalid fault config: {e}"));
    }

    let mut behaviors = vec![WorkerBehavior::Honest; args.workers];
    for &(w, epoch) in &args.crashes {
        if w >= args.workers {
            fail(&format!("--crash: worker {w} out of range"));
        }
        behaviors[w] = WorkerBehavior::CrashAt {
            epoch,
            after_steps: 1,
        };
    }
    for &(w, slowdown) in &args.stragglers {
        if w >= args.workers {
            fail(&format!("--straggler: worker {w} out of range"));
        }
        behaviors[w] = WorkerBehavior::Straggler { slowdown };
    }
    for &(w, cheat) in &args.cheats {
        if w >= args.workers {
            fail(&format!("--cheat: worker {w} out of range"));
        }
        behaviors[w] = cheat;
    }

    let mut config = PoolConfig::tiny_demo(args.scheme).with_faults(fault);
    config.epochs = args.epochs;

    println!(
        "{} | {} workers, {} epochs | drop {:.0}% corrupt {:.0}% truncate {:.0}% | seed {}",
        args.scheme,
        args.workers,
        args.epochs,
        args.profile.drop_prob * 100.0,
        args.profile.corrupt_prob * 100.0,
        args.profile.truncate_prob * 100.0,
        args.seed,
    );
    for &(w, e) in &args.crashes {
        println!("  worker {w} crashes mid-epoch {e}");
    }
    for &(w, s) in &args.stragglers {
        println!("  worker {w} is a {s}x straggler");
    }
    for &(w, cheat) in &args.cheats {
        println!("  worker {w} cheats: {cheat:?}");
    }

    let report = MiningPool::new(config, behaviors.clone()).run();

    println!();
    for (e, record) in report.epochs.iter().enumerate() {
        let r = &record.report;
        println!(
            "epoch {e}: accepted {:?} rejected {:?} quarantined {:?} | acc {:.3} | \
             retries {} timeouts {} | net {:.3}s",
            r.accepted,
            r.rejected,
            r.quarantined,
            record.test_accuracy,
            r.transport.retries,
            r.transport.timeouts,
            record.transport_time.total(),
        );
    }

    let t = report.transport_totals();
    println!();
    println!(
        "transport: {} exchanges, {} attempts ({} retries), {} drops, {} corruptions, \
         {} truncations, {} timeouts, {} dead links, {:.1} KB on the wire, {} B saved by packing",
        t.exchanges,
        t.attempts,
        t.retries,
        t.drops,
        t.corruptions,
        t.truncations,
        t.timeouts,
        t.failures,
        t.wire_bytes as f64 / 1e3,
        t.bytes_saved,
    );
    println!(
        "outcome: {} accepted, {} rejected, {} quarantine events, final accuracy {:.3}",
        report.acceptances(),
        report.rejections(),
        report.quarantine_events(),
        report.final_accuracy(),
    );

    if args.assert_honest {
        let honest_rejected: Vec<usize> = report
            .epochs
            .iter()
            .flat_map(|e| e.report.rejected.iter().copied())
            .filter(|&w| matches!(behaviors[w], WorkerBehavior::Honest))
            .collect();
        if !honest_rejected.is_empty() {
            eprintln!("FAIL: honest workers rejected: {honest_rejected:?}");
            std::process::exit(1);
        }
        let cheats_accepted: Vec<usize> = report
            .epochs
            .iter()
            .flat_map(|e| e.report.accepted.iter().copied())
            .filter(|&w| behaviors[w].is_adversarial())
            .collect();
        if !cheats_accepted.is_empty() {
            eprintln!("FAIL: cheating workers accepted: {cheats_accepted:?}");
            std::process::exit(1);
        }
        println!("OK: no honest worker rejected");
    }
}
