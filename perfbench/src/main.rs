//! The repository's benchmark: end-to-end metrics of its workloads
//! and, in a separate traced run, per-layer times measured from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|serve-hot --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics`. The line before it records the
//! environment the result was measured in. See `perfbench/README.md`.

mod client;
mod corpus;
mod grid;
mod layers;
mod metrics;
mod procinfo;
mod report;
mod serve;
mod setup;
mod stats;

const USAGE: &str =
    "usage: cloudeval-perfbench --workload grid|serve-hot --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds needs a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let steal_before = procinfo::steal_ticks();
    let mut report = match args.workload.as_str() {
        "grid" => grid::run(args.seed, args.seconds, args.trace),
        "serve-hot" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let steal_after = procinfo::steal_ticks();
    let steal_share =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    report.detail("cpu_steal_share", stats::Json::Num(steal_share));
    let (names, missing) = if args.trace {
        (metrics::per_layer(), Some(0.0))
    } else {
        let names = metrics::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect();
        (names, None)
    };
    println!(
        "{}",
        report.environment_line(&args.workload, args.seed, args.seconds, args.trace)
    );
    println!("{}", report.result_line(&names, missing));
}
