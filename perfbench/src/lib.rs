//! MultiLogVC benchmark: three workloads, end-to-end metrics, and a traced
//! per-layer breakdown. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics; `perfbench/CHOICES.md` records why.

pub mod checks;
pub mod engine_wl;
pub mod metrics;
pub mod serve_wl;
pub mod spans;
pub mod stats;

use metrics::Outcome;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["pagerank-cf", "randomwalk-yws", "serve-mutate"];

/// Generator scale of each workload at full size.
pub fn full_scale(workload: &str) -> Option<u32> {
    match workload {
        "pagerank-cf" => Some(16),
        "randomwalk-yws" => Some(17),
        "serve-mutate" => Some(serve_wl::SCALE),
        _ => None,
    }
}

/// Run `workload` at generator scale `scale`; `None` for an unknown name.
pub fn run_workload(
    workload: &str,
    scale: u32,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<Outcome> {
    Some(match workload {
        "pagerank-cf" => engine_wl::run(
            &engine_wl::EngineSpec::pagerank_cf(scale),
            seed,
            seconds,
            trace,
        ),
        "randomwalk-yws" => engine_wl::run(
            &engine_wl::EngineSpec::randomwalk_yws(scale),
            seed,
            seconds,
            trace,
        ),
        "serve-mutate" => serve_wl::run(&serve_wl::ServeSpec::new(scale), seed, seconds, trace),
        _ => return None,
    })
}
