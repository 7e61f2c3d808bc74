//! `perfbench`: runs one workload of the Fig. 6 benchmark and prints
//! every metric with its unit, then one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-cold --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- record
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced replay and prints the per-layer table and metrics. `record`
//! prints the reference digests that `expected.txt` holds.

use oriole_perfbench::fig6::{fig6_pair, Tally};
use oriole_perfbench::gate::{pairs, Expected};
use oriole_perfbench::layers::traced_run;
use oriole_perfbench::stats::{median, percentile, reportable_tail, Ratio};
use oriole_perfbench::workloads::{self, Inputs, Workload};
use oriole_tuner::{ArtifactStore, SearchSpace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn json_result(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The median over rounds of each round's percentile `p`: robust to a
/// few rounds a noisy neighbour slowed down.
fn per_round(rounds: &[Vec<f64>], p: f64) -> f64 {
    median(&rounds.iter().map(|r| percentile(r, p)).collect::<Vec<_>>())
}

/// Prints the reference digests of a canonical-order cold pass.
fn record() {
    let store = ArtifactStore::new();
    let space = SearchSpace::paper_default();
    println!("# kernel gpu exhaustive_digest static_digest rules_digest static_kept rules_kept");
    let none = Expected {
        exhaustive: 0,
        static_: 0,
        rules: 0,
        static_kept: 0,
        rules_kept: 0,
    };
    for pair in pairs() {
        let sizes = pair.sizes();
        let kid = pair.kernel;
        let builder = move |n: u64| kid.ast(n);
        let make = || store.evaluator(kid.name(), &builder, pair.gpu.spec(), &sizes);
        let ctx = store.context(pair.gpu.spec());
        let (_, o) = fig6_pair(
            &pair,
            &space,
            ctx.occupancy_table(),
            &none,
            None,
            &make,
            |_| {},
        );
        println!(
            "{} {} {:#018x} {:#018x} {:#018x} {} {}",
            kid.name(),
            pair.gpu.spec().name,
            o.exhaustive,
            o.static_,
            o.rules,
            o.static_kept,
            o.rules_kept
        );
    }
    println!("lowerings {}", store.stats().front_end_lowerings);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record") {
        record();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 | perfbench record",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let inp = Inputs::new(args.seed);
    let out = PathBuf::from(".bench_out");
    let work = out.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        traced_run(args.workload, &inp, args.seconds, &work, &out).map(|r| {
            print!("{}", r.table);
            println!(
                "  peak_rss_mb    {:>12.3}   (VmHWM of this traced run)",
                workloads::peak_rss_mb()
            );
            let metrics: Vec<Metric> = r
                .metrics
                .into_iter()
                .map(|(name, value, unit)| Metric {
                    name: name.to_string(),
                    value,
                    unit,
                })
                .collect();
            (r.tally, metrics)
        })
    } else {
        workloads::run(args.workload, &inp, args.seconds, &work).map(|m| {
            let rss = workloads::peak_rss_mb();
            println!(
                "workload {} (seed {}, {} cores, {} timed passes)",
                args.workload.name(),
                args.seed,
                oriole_perfbench::fig6::cores(),
                m.sweep_s.len()
            );
            let metrics = vec![
                metric("sweep_s", median(&m.sweep_s), "s"),
                metric("points_per_s", median(&m.points_per_s), "1/s"),
                metric("rpc_p50_ms", per_round(&m.rpc_ms, 50.0), "ms"),
                metric("setup_s", median(&m.setup_s), "s"),
            ];
            let per_round_n = m.rpc_ms.first().map_or(0, Vec::len);
            let counts = [
                format!("n={} passes", m.sweep_s.len()),
                format!("n={} passes", m.points_per_s.len()),
                format!("median of {} rounds of {per_round_n}", m.rpc_ms.len()),
                format!("n={} set-ups", m.setup_s.len()),
            ];
            for (metric, n) in metrics.iter().zip(counts) {
                println!(
                    "  {:<14} {:>14.6} {:<4} ({n})",
                    metric.name, metric.value, metric.unit
                );
            }
            let passes: Vec<String> = m.sweep_s.iter().map(|x| format!("{x:.3}")).collect();
            println!("  sweep_s passes {} s", passes.join(" "));
            // Printed but not bounded: on a shared 2-core box their
            // run-to-run spread exceeds any bound the manifest allows.
            for (name, p) in [("rpc_p90_ms", 90.0), ("rpc_p99_ms", 99.0)] {
                let v = per_round(&m.rpc_ms, p);
                println!("  {name:<14} {v:>14.6} ms   (median of per-round p{p}; unbounded)");
            }
            match reportable_tail(&m.rpc_ms.concat()) {
                Some(t) => println!("  rpc tail (all rounds): {t} ms"),
                None => println!("  rpc tail: fewer than 11 samples"),
            }
            println!("  peak_rss_mb    {rss:>14.6} MB   (VmHWM at exit; unbounded)");
            println!(
                "  failed_ratio   {}",
                Ratio::new(m.tally.failed, m.tally.attempted)
            );
            (m.tally, metrics)
        })
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((tally, metrics)) => {
            for e in &tally.errors {
                println!("  FAILED: {e}");
            }
            let finite = metrics.iter().all(|m| m.value.is_finite());
            let correct = tally.failed == 0 && finite;
            let metrics: Vec<Metric> = metrics
                .into_iter()
                .map(|m| Metric {
                    value: if m.value.is_finite() { m.value } else { 0.0 },
                    ..m
                })
                .collect();
            println!("{}", json_result(correct, &tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
