//! `mlvc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the settings and machine fingerprint, every
//! metric by name with its unit, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the traced variant and reports the
//! per-layer metrics, writing its spans under the build directory. Exits 1
//! when an output or an accounting identity is wrong, 2 on bad arguments.

use std::process::{Command, ExitCode};

use mlvc_perfbench::metrics::{catalogue, Outcome};
use mlvc_perfbench::{full_scale, run_workload, WORKLOADS};

/// Worker threads of the program under test. The machine this benchmark
/// was tuned on has 2 cores; serve-mutate adds 2 client threads.
const WORKER_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_fingerprint(a: &Args, scale: u32) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# workload: {}", a.workload);
    println!("# seed: {}", a.seed);
    println!("# scale: {scale}");
    println!("# seconds: {}", a.seconds);
    println!("# trace: {}", u8::from(a.trace));
    println!("# nproc: {nproc}");
    println!(
        "# MLVC_THREADS: {}",
        std::env::var("MLVC_THREADS").unwrap_or_else(|_| "unset".into())
    );
    println!("# worker_threads: {}", mlvc_par::max_threads());
    println!(
        "# profile: {}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    println!("# rustc: {}", command_line("rustc", &["-V"]));
    println!(
        "# git_commit: {}",
        command_line("git", &["rev-parse", "HEAD"])
    );
}

/// Where the traced run's spans go: inside the build directory, which the
/// repository ignores.
fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("perfbench/target"),
        std::path::PathBuf::from,
    );
    dir.join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn print_result(out: &Outcome, trace: bool) {
    for (k, v) in &out.notes {
        println!("# {k}: {v}");
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    for e in &out.identity_errors {
        println!("IDENTITY {e}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric failed_frac = {failed_frac} ratio");
    let mut json = Vec::new();
    for (name, unit) in catalogue(trace) {
        let value = out
            .metrics
            .get(name)
            .copied()
            .expect("every catalogued metric is measured");
        println!("metric {name} = {value} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json.join(", ")
    );
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    mlvc_par::set_thread_override(Some(WORKER_THREADS));
    let scale = full_scale(&a.workload).expect("workload checked");
    print_fingerprint(&a, scale);
    let mut out =
        run_workload(&a.workload, scale, a.seed, a.seconds, a.trace).expect("workload checked");
    if !a.trace {
        out.metrics
            .insert("peak_rss_mb", mlvc_perfbench::stats::peak_rss_mb());
    }
    if a.trace {
        let path = spans_path(&a.workload, a.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, out.spans.to_jsonl()));
        match written {
            Ok(()) => println!(
                "# spans: {} ({} spans)",
                path.display(),
                out.spans.all().len()
            ),
            Err(e) => println!("# spans: not written ({e})"),
        }
    }
    print_result(&out, a.trace);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
