//! `perf`: the repository's benchmark. Four serving workloads, seven
//! end-to-end metrics, and a traced run that attributes time to layers by
//! timing calls into their public functions from outside. See README.md in
//! this directory for what each number means and how it is estimated.
//!
//! ```text
//! perf --workload wire_hot --seed 1 --seconds 10 --trace 0   # end-to-end metrics
//! perf --workload wire_hot --seed 1 --seconds 10 --trace 1   # per-layer metrics
//! perf --workload wire_hot --seed 1 --aa 5                   # five identical runs, compared
//! ```

mod batch;
mod check;
mod client;
mod gen;
mod layers;
mod procstat;
mod report;
mod spans;
mod stats;
mod stream;
mod streams;
mod wire;

use std::process::{Command, ExitCode};
use std::time::Instant;

use imcat_serve::{AnnConfig, AnnKind};

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{Round, Timing};

/// Length of every recommendation list asked for.
pub const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured rounds on each set-up, after its one unmeasured warm-up round.
pub const ROUNDS_PER_SETUP: usize = 3;
/// Measured rounds of a run.
pub const ROUNDS: usize = SETUPS * ROUNDS_PER_SETUP;
/// One response in this many is checked score by score.
pub const SAMPLE_EVERY: usize = 32;
/// Users whose served lists are compared with brute-force ground truth on
/// the exact workloads, where every list must equal the true one.
pub const RECALL_USERS: usize = 512;
/// The same on the indexed workloads, where recall is the mean of a sample:
/// over 512 users it moved by 0.23 % between seeds on `stream_mixed`, all of
/// it sampling error, and a bound of 0.5 % needs half of that.
pub const INDEXED_RECALL_USERS: usize = 2048;
/// Lowest recall@10 an index-backed workload may serve.
pub const RECALL_FLOOR: f64 = 0.95;
/// Requests of the traced round.
pub const TRACE_REQUESTS: usize = 2000;

/// How long one run measures when `--seconds` is not given; `BENCHMARK.json`
/// passes the same number.
pub const RUN_SECONDS: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: usize,
}

fn usage() -> String {
    format!(
        "usage: perf --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]] [--aa <runs>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: RUN_SECONDS, trace: false, aa: 0 };
    let mut seed_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut number = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse().map_err(|_| format!("{name} needs a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = it.next().ok_or("--workload needs a name")?.clone(),
            "--seed" => {
                args.seed = number("--seed")?;
                seed_given = true;
            }
            "--seconds" => args.seconds = number("--seconds")?.clamp(1, 60),
            "--aa" => args.aa = number("--aa")? as usize,
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(args)
}

/// The index a workload's configuration resolves to for its catalogue, by
/// the same functions `Engine::ann_descriptor` reports from.
pub fn describe_ann(ann: Option<AnnConfig>, n_items: usize) -> String {
    match ann {
        None => "none".into(),
        Some(c) => match c.kind {
            AnnKind::Ivf => format!(
                "ivf(nlist={},nprobe={})",
                c.resolved_nlist(n_items),
                c.resolved_nprobe(n_items)
            ),
            AnnKind::Hnsw => format!(
                "hnsw(m={},ef_construction={},ef_search={})",
                c.resolved_m(n_items),
                c.resolved_ef_construction(n_items),
                c.resolved_ef_search(n_items)
            ),
            AnnKind::Brute => "brute".into(),
        },
    }
}

/// One line that tells whether two result files may be compared.
fn print_header(args: &Args, workload: &str) {
    println!(
        "perf: git={} nproc={} cpu=\"{}\" simd={} pool_threads={} workload={} seed={} seconds={} trace={} rounds={ROUNDS} setups={SETUPS} k={K} {workload}",
        procstat::git_sha(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        procstat::cpu_model(),
        imcat_simd::backend().name(),
        imcat_par::current_threads(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
    );
}

/// The measured phase of a run: [`SETUPS`] times, `build` sets the system up
/// (timed; it ends with one unmeasured round, so that the system is in its
/// steady state — connections, worker threads, allocator — and a set-up as
/// cheap as `batch_scan`'s engine is not all noise), then `round` runs
/// [`ROUNDS_PER_SETUP`] measured rounds on it, and the system is torn down
/// before the next is built. Stores the median set-up time as `setup_s` and
/// returns the last system with all the rounds.
///
/// Rounds follow every set-up, not only the last, for two reasons. They then
/// sample the whole length of the run, and the machine's speed moves for ten
/// to thirty seconds at a time. And rounds on one set-up agree with each
/// other better than with those on the next (by 2 % of `qps` on the
/// in-process workloads): a copy of the tables is a little faster or slower
/// for where it happens to lie in memory. The estimator needs good rounds
/// among its nine.
pub fn measure<T>(
    outcome: &mut Outcome,
    build: impl Fn(&mut Outcome) -> T,
    round: impl Fn(&mut T, &mut Outcome) -> Round,
) -> (T, Vec<Round>) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut system = None;
    for _ in 0..SETUPS {
        drop(system.take());
        let t0 = Instant::now();
        let mut built = build(outcome);
        seconds.push(t0.elapsed().as_secs_f64());
        for _ in 0..ROUNDS_PER_SETUP {
            rounds.push(round(&mut built, outcome));
        }
        system = Some(built);
    }
    let shown: Vec<String> = seconds.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-ups (s): {}", shown.join(" "));
    outcome.set("setup_s", stats::median(&seconds));
    (system.expect("at least one set-up"), rounds)
}

/// Stores the four timing metrics and prints their across-round diagnostics.
pub fn set_timing(outcome: &mut Outcome, t: &Timing, sample: &str) {
    println!(
        "timing: second-best of {ROUNDS} rounds; tail is p{} of {} {sample} latencies per round",
        t.tail_p * 100.0,
        t.samples_per_round
    );
    for (name, e) in [
        ("qps", &t.qps),
        ("p50_ms", &t.p50_ms),
        ("tail_ms", &t.tail_ms),
        ("cpu_us_per_op", &t.cpu_us_per_op),
    ] {
        let rounds: Vec<String> = e.per_round.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "  {name:<14} {:>12.4}   median {:.4}, iqr {:.4}, rounds {}",
            e.value,
            e.median,
            e.iqr,
            rounds.join(" ")
        );
        outcome.set(name, e.value);
    }
}

/// Stores recall@10 and applies its gate: exactly 1 without an index, at
/// least [`RECALL_FLOOR`] with one.
pub fn set_recall(outcome: &mut Outcome, hits: usize, of: usize, indexed: bool) {
    let recall = hits as f64 / of as f64;
    outcome.set("recall_at10", recall);
    if indexed && recall < RECALL_FLOOR {
        outcome.fail(format!("recall@{K} {recall:.4} is below {RECALL_FLOOR}"));
    }
    if !indexed && hits != of {
        outcome.fail(format!("exact workload served recall@{K} {recall:.6}"));
    }
}

/// Stores and checks the two ratios that say how well a trace reproduces
/// its requests: per request, self times sum to within 5 % of the root span;
/// and where the spans called `covered` do little besides calling their
/// (replayed) children, the children add up to within 5 % of the span.
pub fn set_trace_ratios(out: &mut Outcome, rec: &spans::Recorder, covered: Option<&str>) {
    let mut ratios = vec![("trace.self_sum_ratio", rec.self_sum_ratio())];
    if let Some(name) = covered {
        ratios.push(("trace.replay_ratio", rec.children_ratio(name)));
    }
    for (metric, ratio) in ratios {
        out.set(metric, ratio);
        out.check(if (ratio - 1.0).abs() <= 0.05 {
            Ok(())
        } else {
            Err(format!("{metric} is {ratio:.3}, not within 5 % of 1"))
        });
    }
}

fn run_workload(args: &Args) -> Outcome {
    let (wire_hot, wire_cold) = (wire::Wire::hot(), wire::Wire::cold());
    match (args.workload.as_str(), args.trace) {
        ("wire_hot", false) => wire::run(&wire_hot, args.seed, args.seconds),
        ("wire_hot", true) => wire::trace(&wire_hot, args.seed),
        ("wire_cold", false) => wire::run(&wire_cold, args.seed, args.seconds),
        ("wire_cold", true) => wire::trace(&wire_cold, args.seed),
        ("batch_scan", false) => batch::run(args.seed, args.seconds),
        ("batch_scan", true) => batch::trace(args.seed),
        ("stream_mixed", false) => stream::run(args.seed, args.seconds),
        ("stream_mixed", true) => stream::trace(args.seed),
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
}

fn workload_header(args: &Args) -> String {
    let wire = |w: &wire::Wire| {
        format!(
            "catalog={}x{}x{} cache={} connections={} requests_per_round={} ann={}",
            w.catalog.users,
            w.catalog.items,
            gen::DIM,
            wire::CACHE_CAPACITY,
            wire::CONNECTIONS,
            wire::CONNECTIONS * w.round_requests(args.seconds),
            describe_ann(w.ann, w.catalog.items)
        )
    };
    match args.workload.as_str() {
        "wire_hot" => wire(&wire::Wire::hot()),
        "wire_cold" => wire(&wire::Wire::cold()),
        "batch_scan" => batch::header(args.seconds),
        _ => stream::header(args.seconds),
    }
}

/// Runs the workload `runs` times, each in a process of its own with a
/// fresh set-up, and compares the runs with each other and with the bounds.
fn run_aa(args: &Args, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for run in 0..runs {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .expect("start a run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !out.status.success() {
            eprintln!("run {run} failed:\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
            return ExitCode::FAILURE;
        }
        for (m, v) in END_TO_END.iter().zip(&mut values) {
            v.push(metric_value(line, m.name).expect("metric in the result line"));
        }
        eprintln!("run {run} done");
    }
    println!(
        "A/A: {} runs of `{}`, seed {}, {} s each",
        runs, args.workload, args.seed, args.seconds
    );
    println!(
        "| metric | unit | runs | median | widest deviation | quartile spread | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for (m, v) in END_TO_END.iter().zip(&values) {
        let median = stats::median(v);
        let widest = v.iter().map(|x| (x - median).abs() / median).fold(0.0, f64::max);
        // A bound holds when it is at least twice the widest deviation of
        // an identical run from the median.
        let pass = 2.0 * widest <= m.bound;
        all_pass &= pass;
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!(
            "| {} | {} | {} | {median:.4} | {:.2} % | {:.2} % | {:.1} % | {} |",
            m.name,
            m.unit,
            shown.join(" "),
            widest * 100.0,
            stats::spread(v) * 100.0,
            m.bound * 100.0,
            if pass { "pass" } else { "FAIL" }
        );
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value of metric `name` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let from = line.find(&key)? + key.len();
    let len = line[from..].find(',')?;
    line[from..from + len].parse().ok()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perf: this is a debug build; build with --release to measure");
        return ExitCode::from(2);
    }
    // Nothing the workloads are defined by may come from the environment:
    // every knob of the program stays at its default.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("IMCAT_"))
        .collect();
    for knob in knobs {
        std::env::remove_var(knob);
    }
    if args.aa > 0 {
        return run_aa(&args, args.aa);
    }
    // Thread scaling is deliberately not measured: on two shared cores it
    // does not repeat. One pool thread, always.
    imcat_par::set_threads(1);
    print_header(&args, &workload_header(&args));

    let outcome = run_workload(&args);
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for &(name, unit) in &names {
        println!("{name:<34} {:>16.6} {unit}", outcome.get(name).unwrap_or(0.0));
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("{}", report::result_line(&outcome, &names));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv("--workload wire_cold --seed 42 --seconds 7 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("wire_cold", 42, 7, true));
        let a = parse_args(&argv("--workload batch_scan --seed 0 --trace 0")).unwrap();
        assert_eq!((a.seconds, a.trace), (RUN_SECONDS, false));
        assert!(parse_args(&argv("--workload batch_scan --trace --seed 3")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload batch_scan")).is_err());
        assert!(parse_args(&argv("--workload batch_scan --seed x")).is_err());
    }

    #[test]
    fn aa_reads_values_back_from_a_result_line() {
        let mut o = Outcome::default();
        o.set("qps", 5123.25);
        o.set("setup_s", 0.5);
        let line = report::result_line(&o, &[("qps", "1/s"), ("setup_s", "s")]);
        assert_eq!(metric_value(&line, "qps"), Some(5123.25));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_value(&line, "p50_ms"), None);
    }
}
