//! The raincore benchmark: end-to-end multicast latency, throughput and
//! CPU over real UDP, simulated Rainwall fail-over, and (with
//! `--trace 1`) an outside-in per-layer trace.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it are
//! a human-readable table that also gives each percentile's sample count.
//! See `perfbench/README.md` for the workloads and every metric.

mod check;
mod cluster;
mod failover;
mod gen;
mod procfs;
mod report;
mod run;
mod stats;
mod traced;

use raincore::runtime::RuntimeNode;
use report::Report;
use run::Spec;

/// The real-socket workloads. Every run of every workload also runs the
/// simulated fail-over trials (see `failover`).
const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "bulk_1k",
        origins: 1,
        rate: 2000.0,
        payload: 1024,
        safe_every: 4,
        offered_share: 0.9,
    },
    Spec {
        name: "token_64b",
        origins: 3,
        rate: 3000.0,
        payload: 64,
        safe_every: 4,
        offered_share: 0.9,
    },
    // Not in BENCHMARK.json: past the knee its queue grows for the whole
    // offered phase and its figures do not repeat run to run. It stays
    // runnable to reproduce the overload collapse (see README.md).
    Spec {
        name: "overload_1k",
        origins: 1,
        rate: 16000.0,
        payload: 1024,
        safe_every: 4,
        offered_share: 0.1,
    },
];

/// Cluster set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

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
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be > 0")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let mut report = Report::new(spec.name, args.seed);
    let result = if args.trace {
        traced::run(spec, &args, &mut report)
    } else {
        run_untraced(spec, &args, &mut report)
    };
    if let Err(e) = result {
        report.error(e);
    }
    report.print(args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Forms [`SETUPS`] clusters with `spawn` (keeping the last) and returns
/// it with the median set-up time.
fn form_median<M: cluster::Member>(
    spawn: impl Fn(raincore::session::SessionNode, raincore::net::UdpNet) -> std::io::Result<M>,
) -> Result<(cluster::Formed<M>, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut formed = None;
    for _ in 0..SETUPS {
        // The previous cluster leaves (and its threads are joined) first.
        drop(formed.take());
        let f = cluster::form(&spawn)?;
        times.push(f.setup_s);
        formed = Some(f);
    }
    Ok((formed.ok_or("no cluster formed")?, stats::median_of(times)))
}

/// Seconds offered and drained for `spec` within a `seconds` window.
fn window(spec: &Spec, seconds: u64) -> (f64, f64) {
    let offered = seconds as f64 * spec.offered_share;
    (offered, seconds as f64 - offered)
}

/// The untraced run: end-to-end metrics over `RuntimeNode`, then the
/// fail-over trials.
fn run_untraced(spec: &Spec, args: &Args, report: &mut Report) -> Result<(), String> {
    let (formed, setup_s) = form_median(RuntimeNode::spawn)?;
    let (offered_s, drain_s) = window(spec, args.seconds);
    let phase = run::drive(
        &formed.members,
        spec,
        args.seed,
        offered_s,
        drain_s,
        formed.warm_up,
    );
    drop(formed);
    report.setup(setup_s, SETUPS);
    report.real_phase(spec, &phase);
    let trials = failover::trials(args.seed, false)?;
    report.failover(&trials);
    Ok(())
}
