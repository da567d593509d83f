//! The ODBIS platform benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analyst|portal|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots an in-process `OdbisPlatform` on a data directory under
//! `.bench_data/`, serves it with `serve_platform` (the epoll reactor,
//! one handler worker per CPU) and drives it over keep-alive `/api/v1`
//! connections. `--trace 0` prints the end-to-end metrics that carry a
//! regression bound in `BENCHMARK.json`, `--trace 1` the per-layer table.
//! Every line but the last is a `#` note: the run's host record (nproc,
//! steal, loadavg, fsync policy, filesystem), generator lag, and the
//! end-to-end figures reported without a bound (`p50_ms`, `p99_ms`,
//! `capacity_rps`, `server_cpu_us_per_req`, `serial_cpu_us_per_req`,
//! `recovery_s`, `failed_ratio`, and on `ingest` `freshness_p50_ms` and
//! `freshness_p99_ms`). The last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! The benchmark's own tests: `cargo test --offline --manifest-path
//! perfbench/Cargo.toml`.

mod check;
mod client;
mod data;
mod host;
mod rng;
mod run;
mod schedule;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = run::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (analyst, portal, ingest)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        trace::traced(&spec, args.seed, args.seconds)
            .map(|t| (t.metrics, t.notes, t.checks, t.tally))
    } else {
        run::untraced(&spec, args.seed, args.seconds)
            .map(|u| (u.metrics, u.notes, u.checks, u.tally))
    };
    let (metrics, notes, checks, tally) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    for n in &notes {
        println!("# {n}");
    }
    println!("# checks passed: {}", checks.passed);
    for f in &checks.failures {
        println!("# CHECK FAILED: {f}");
    }
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !all_finite {
        println!("# a metric had no samples");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.ok() && all_finite,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
