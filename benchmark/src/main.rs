//! `kalis-benchmark`: replay benchmark of the Kalis ingest path.
//!
//! ```text
//! kalis-benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--repeat-check]
//! ```
//!
//! With no `--workload` every workload runs, repetitions interleaved
//! round-robin, untraced and then traced. With `--workload` only that
//! one runs, `--trace` picks the untraced or the traced half, and the
//! last line of output is one JSON object with the metrics. See
//! `README.md` beside this crate for the catalogue.

mod alloc;
mod layers;
mod metrics;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use kalis_bench::experiments::MAX_STRUCTURES_PER_MODULE;

use metrics::{result_json, summarise, Metric};
use run::{untraced_rep, Rep, Verdict};
use traced::{traced_rep, Traced};
use workload::Kind;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest untraced repetitions a reported median rests on.
const MIN_REPS: usize = 3;

struct Args {
    seed: u64,
    workload: Option<Kind>,
    seconds: f64,
    trace: Option<bool>,
    repeat_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        workload: None,
        seconds: 10.0,
        trace: None,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Untraced repetitions of every workload in `kinds`, one per workload
/// per round so a noisy minute hits them all alike, until each workload
/// has spent `seconds` and has at least `min_reps`.
fn untraced_set(kinds: &[Kind], seed: u64, seconds: f64, min_reps: usize) -> Vec<Vec<Rep>> {
    let mut reps: Vec<Vec<Rep>> = kinds.iter().map(|_| Vec::new()).collect();
    let mut spent = vec![0.0f64; kinds.len()];
    loop {
        let mut ran = false;
        for (i, kind) in kinds.iter().enumerate() {
            if reps[i].len() >= min_reps && spent[i] >= seconds {
                continue;
            }
            let start = Instant::now();
            reps[i].push(untraced_rep(*kind, seed, 1));
            spent[i] += start.elapsed().as_secs_f64();
            ran = true;
        }
        if !ran {
            return reps;
        }
    }
}

/// Output checks over every repetition of one workload. Returns what
/// failed, empty when all passed.
fn check(kind: Kind, reps: &[Rep], traced: Option<&Traced>) -> Vec<String> {
    let mut failures = Vec::new();
    let verdicts: Vec<&Verdict> = reps
        .iter()
        .map(|r| &r.verdict)
        .chain(traced.map(|t| &t.verdict))
        .collect();
    let first = verdicts[0];
    for v in &verdicts {
        if !v.silent_families.is_empty() {
            failures.push(format!("no alert for {:?}", v.silent_families));
        }
        // Alerts and everything derived from them are functions of the
        // virtual clock: they must repeat exactly, tracing on or off.
        let same = v.digest == first.digest
            && v.alerts == first.alerts
            && v.detection_rate == first.detection_rate
            && v.detect_delay_ms == first.detect_delay_ms
            && v.peak_state_bytes == first.peak_state_bytes;
        if !same {
            failures.push(format!(
                "repetitions disagree: digest {:016x} vs {:016x}, alerts {} vs {}, peak state {} vs {}",
                v.digest, first.digest, v.alerts, first.alerts, v.peak_state_bytes, first.peak_state_bytes
            ));
        }
    }
    let failed: Vec<u64> = reps
        .iter()
        .map(|r| r.failed)
        .chain(traced.map(|t| t.failed))
        .collect();
    if failed.iter().any(|f| *f != failed[0]) {
        failures.push(format!(
            "failed operations differ between repetitions: {failed:?}"
        ));
    }
    if let Some(t) = traced {
        if t.max_occupancy_over_budget > MAX_STRUCTURES_PER_MODULE as f64 {
            failures.push(format!(
                "bounded state over budget: occupancy is {:.2}× a budget",
                t.max_occupancy_over_budget
            ));
        }
    }
    failures.dedup();
    for f in &failures {
        println!("{} CHECK FAILED {f}", kind.name());
    }
    failures
}

/// Print the end-to-end half; return `(attempted, failed, medians)`.
fn print_end_to_end(kind: Kind, reps: &[Rep]) -> (u64, u64, Vec<Metric>) {
    let name = kind.name();
    let summaries = summarise(reps);
    for s in &summaries {
        println!(
            "{name} {} {} {} q1={} q3={} n={}",
            s.name, s.median, s.unit, s.q1, s.q3, s.samples
        );
    }
    for (i, r) in reps.iter().enumerate() {
        println!(
            "{name} note rep={i} ingest_pps={:.0} cpu_ns_per_packet={:.0} p50_ns={} p99_ns={} setup_s={:.3}",
            r.ingest_pps(),
            r.cpu_ns_per_packet(),
            r.p50_ns,
            r.p99_ns,
            r.setup_s
        );
    }
    let attempted: u64 = reps.iter().map(|r| r.timed_ops as u64).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    println!(
        "{name} note failed_share={} ops_failed={failed} ops_attempted={attempted}",
        failed as f64 / attempted as f64
    );
    println!(
        "{name} note virtual_pps={:.1} real_time_headroom={:.1}",
        reps[0].virtual_pps,
        summaries[0].median / reps[0].virtual_pps
    );
    let medians = summaries
        .iter()
        .map(|s| Metric::new(s.name, s.unit, s.median))
        .collect();
    (attempted, failed, medians)
}

fn print_traced(kind: Kind, traced: &Traced) -> std::io::Result<()> {
    let name = kind.name();
    for m in &traced.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    for s in traced.recorder.summaries() {
        if s.total.count == 0 {
            continue;
        }
        println!(
            "{name} note span {} count={} mean_ns={:.0} p50_ns={} p99_ns={} self_mean_ns={:.0}",
            s.name,
            s.total.count,
            s.total.mean(),
            s.total.quantile(0.50),
            s.total.quantile(0.99),
            s.self_ns as f64 / s.total.count as f64,
        );
    }
    std::fs::create_dir_all("benchmark/out")?;
    let path = format!("benchmark/out/{name}.trace.json");
    std::fs::write(&path, traced.recorder.chrome_trace(name))?;
    println!("{name} note trace written to {path}");
    Ok(())
}

/// `--repeat-check`: two untraced sets of the same code, compared
/// against the bounds. The sets alternate repetition by repetition, so a
/// noisy minute lands on both sides, as any comparison in this sandbox
/// must be run.
fn repeat_check(kinds: &[Kind], seed: u64, seconds: f64) -> bool {
    let both = untraced_set(kinds, seed, 2.0 * seconds, 2 * MIN_REPS);
    let side = |parity: usize| -> Vec<Vec<Rep>> {
        both.iter()
            .map(|reps| reps.iter().skip(parity).step_by(2).cloned().collect())
            .collect()
    };
    let (first, second) = (side(0), side(1));
    let mut ok = true;
    for ((kind, a), b) in kinds.iter().zip(&first).zip(&second) {
        ok &= check(*kind, a, None).is_empty() && check(*kind, b, None).is_empty();
        for (x, y) in summarise(a).iter().zip(summarise(b)) {
            let diff = (y.median - x.median) / x.median;
            let pass = diff.abs() <= x.bound;
            ok &= pass;
            println!(
                "{} {} first={} second={} diff={:+.4} bound={} {}",
                kind.name(),
                x.name,
                x.median,
                y.median,
                diff,
                x.bound,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    ok
}

/// Print one workload's metrics, run its checks, and return whether
/// they passed with the result line. `trace` picks the half the line
/// carries: the end-to-end one unless only the traced half was asked for.
fn report(
    kind: Kind,
    reps: &[Rep],
    seed: u64,
    trace: Option<bool>,
) -> Result<(bool, String), String> {
    let mut line = (trace != Some(true)).then(|| print_end_to_end(kind, reps));
    let traced = (trace != Some(false)).then(|| {
        let cpu_ns: Vec<f64> = reps.iter().map(Rep::cpu_ns_per_packet).collect();
        traced_rep(kind, seed, 1, stats::median(&cpu_ns))
    });
    if let Some(t) = &traced {
        print_traced(kind, t).map_err(|e| format!("writing the trace file: {e}"))?;
        line.get_or_insert_with(|| (t.timed_ops as u64, t.failed, t.metrics.clone()));
    }
    let correct = check(kind, reps, traced.as_ref()).is_empty();
    let (attempted, failed, metrics) = line.expect("one half always runs");
    Ok((correct, result_json(correct, attempted, failed, &metrics)))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    if args.repeat_check {
        return Ok(repeat_check(&kinds, args.seed, args.seconds));
    }
    // The traced half still needs one untraced repetition per workload:
    // the tracing overhead is taken against it.
    let sets = if args.trace == Some(true) {
        untraced_set(&kinds, args.seed, 0.0, 1)
    } else {
        untraced_set(&kinds, args.seed, args.seconds, MIN_REPS)
    };
    let mut ok = true;
    for (kind, reps) in kinds.iter().zip(&sets) {
        let (correct, line) = report(*kind, reps, args.seed, args.trace)?;
        ok &= correct;
        // The driver runs one workload at a time and reads the last line.
        if args.workload.is_some() {
            println!("{line}");
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kalis-benchmark: an output check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("kalis-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pass_on_identical_repetitions_and_catch_a_difference() {
        let rep = untraced_rep(Kind::Flood4k, 42, 100);
        let again = untraced_rep(Kind::Flood4k, 42, 100);
        assert!(check(Kind::Flood4k, &[rep.clone(), again], None).is_empty());

        let mut other_alerts = rep.clone();
        other_alerts.verdict.digest ^= 1;
        assert_eq!(
            check(Kind::Flood4k, &[rep.clone(), other_alerts], None).len(),
            1
        );

        let mut missed = rep.clone();
        missed.verdict.silent_families = vec!["smurf"];
        assert!(!check(Kind::Flood4k, &[missed], None).is_empty());

        let mut overloaded = rep.clone();
        overloaded.failed = 1;
        assert!(!check(Kind::Flood4k, &[rep, overloaded], None).is_empty());
    }
}
