//! The two engine workloads: one `MultiLogEngine` run at a time on a
//! private simulated device, checked against the in-memory reference
//! engine.
//!
//! - `pagerank-cf`: PageRank(0.85, 1e-4) on `cf_mini(16)`. Every vertex
//!   stays active, so the multi-log append/flush, sort, process and
//!   scatter path does the work.
//! - `randomwalk-yws`: `RandomWalk` on `yws_mini(17)`. The active set is
//!   sparse and scattered, so CSR column-page fetch, the edge-log optimizer
//!   and read amplification do the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mlvc_apps::{PageRank, RandomWalk};
use mlvc_core::{Engine, EngineConfig, MultiLogEngine, ReferenceEngine, RunReport, VertexProgram};
use mlvc_gen::Dataset;
use mlvc_graph::{Csr, StoredGraph, VertexIntervals, UPDATE_BYTES};
use mlvc_ssd::{Ssd, SsdConfig, SsdStatsSnapshot};

use crate::checks;
use crate::metrics::{LayerSample, Outcome};
use crate::spans::Spans;
use crate::stats::{mb, median, percentile, ratio, samples_above, secs};

/// Superstep cap of every engine run (the paper's evaluation cap).
pub const SUPERSTEPS: usize = 15;
/// Engine memory budget of both engine workloads.
pub const MEMORY_BYTES: usize = 2 << 20;
/// Set-ups (generate + store) per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Timed runs per invocation at the least, whatever `--seconds` says.
const MIN_RUNS: usize = 4;

/// One engine workload's inputs and settings.
pub struct EngineSpec {
    pub name: &'static str,
    pub scale: u32,
    pub generate: fn(u32, u64) -> Dataset,
    pub program: Box<dyn VertexProgram>,
}

impl EngineSpec {
    pub fn pagerank_cf(scale: u32) -> Self {
        EngineSpec {
            name: "pagerank-cf",
            scale,
            generate: mlvc_gen::cf_mini,
            program: Box::new(PageRank::new(0.85, 1e-4)),
        }
    }

    /// Every vertex starts 4 walks of at most 10 steps.
    pub fn randomwalk_yws(scale: u32) -> Self {
        EngineSpec {
            name: "randomwalk-yws",
            scale,
            generate: mlvc_gen::yws_mini,
            program: Box::new(RandomWalk::new(RW_STRIDE, RW_WALKS, 10)),
        }
    }

    /// The default engine configuration at the workload's budget, with the
    /// workload seed driving the programs' per-vertex randomness.
    pub fn config(&self, seed: u64, obs: bool) -> EngineConfig {
        EngineConfig::default()
            .with_memory(MEMORY_BYTES)
            .with_seed(seed)
            .with_obs(obs)
            .validated()
    }
}

/// `RandomWalk` source stride and walks per source.
pub const RW_STRIDE: usize = 1;
pub const RW_WALKS: usize = 4;

/// One timed engine run and what it returned.
pub struct EngineRun {
    pub report: RunReport,
    pub states: Vec<u64>,
    /// Wall time of `MultiLogEngine::run`.
    pub wall_s: f64,
    /// Device activity over exactly the run.
    pub device: SsdStatsSnapshot,
}

/// Store `csr` on a fresh device and run the workload's program once.
pub fn run_once(
    spec: &EngineSpec,
    csr: &Csr,
    seed: u64,
    obs: bool,
    sp: &mut Spans,
    unit: &str,
) -> EngineRun {
    let cfg = spec.config(seed, obs);
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let iv = VertexIntervals::for_graph(csr, UPDATE_BYTES, cfg.sort_budget());
    let (sg, _, _) = sp.time("StoredGraph::store_with", unit, None, |_, _| {
        StoredGraph::store_with(&ssd, csr, "g", iv).expect("storing on an in-memory device")
    });
    let before = ssd.stats().snapshot();
    let mut engine = MultiLogEngine::new(Arc::clone(&ssd), sg, cfg);
    let (report, wall_s, _) = sp.time("MultiLogEngine::run", unit, None, |_, _| {
        engine.run(spec.program.as_ref(), SUPERSTEPS)
    });
    let device = ssd.stats().snapshot().since(&before);
    EngineRun {
        report,
        states: engine.states().to_vec(),
        wall_s,
        device,
    }
}

/// Why a run's output is wrong, if it is.
fn verdict(run: &EngineRun, expected: &[u64], unit: &str) -> Option<String> {
    if let Some(e) = &run.report.interrupted {
        return Some(format!("{unit}: interrupted: {e}"));
    }
    if run.states != expected {
        let bad = run
            .states
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count();
        return Some(format!(
            "{unit}: {bad} vertex states differ from the reference engine"
        ));
    }
    None
}

/// Per-layer values of one traced run.
pub fn layer_sample(run: &EngineRun) -> LayerSample {
    let r = &run.report;
    let steps = &r.supersteps;
    let [load, sort, process, scatter] = r.stage_totals_ns();
    let ml = r.multilog.unwrap_or_default();
    let el = r.edgelog.unwrap_or_default();
    let sum = |f: fn(&mlvc_core::SuperstepStats) -> u64| steps.iter().map(f).sum::<u64>() as f64;
    let mut s = LayerSample::new();
    s.insert("core.load_s", secs(load));
    s.insert("core.sort_s", secs(sort));
    s.insert("core.process_s", secs(process));
    s.insert("core.scatter_s", secs(scatter));
    s.insert("core.unattributed_s", checks::unattributed_s(run.wall_s, r));
    s.insert("log.bytes_appended", ml.bytes_appended as f64);
    s.insert("log.pages_flushed", ml.pages_flushed as f64);
    s.insert("log.evictions", ml.evictions as f64);
    s.insert(
        "log.fused_batches",
        r.trace.iter().map(|t| t.fused_batches).sum::<u64>() as f64,
    );
    s.insert("log.edge_log_hits", el.hits as f64);
    s.insert("log.edge_log_pages", el.pages_written as f64);
    s.insert(
        "log.edge_log_precision",
        ratio(el.hits as f64, el.vertices_logged as f64),
    );
    s.insert("graph.edges_scanned", sum(|t| t.edges_scanned));
    let accessed = sum(|t| t.colidx_pages_accessed);
    s.insert("graph.colidx_pages_accessed", accessed);
    s.insert(
        "graph.colidx_inefficient_frac",
        ratio(sum(|t| t.colidx_pages_inefficient), accessed),
    );
    s.insert("ssd.pages_read", run.device.pages_read as f64);
    s.insert("ssd.pages_written", run.device.pages_written as f64);
    s.insert(
        "ssd.read_amp",
        run.device.read_amplification().unwrap_or(0.0),
    );
    s.insert("ssd.read_sim_s", secs(run.device.read_time_ns));
    s.insert("ssd.write_sim_s", secs(run.device.write_time_ns));
    s.insert(
        "ssd.io_wait_sim_s",
        secs(steps.iter().map(|t| t.io_wait_ns).sum()),
    );
    s.insert(
        "ssd.max_inflight",
        steps.iter().map(|t| t.max_inflight).max().unwrap_or(0) as f64,
    );
    s.insert("ssd.ftl_write_amp", r.write_amplification().unwrap_or(0.0));
    s
}

/// Run one engine workload for `seconds` of timed runs.
///
/// With `trace` off, every timed run has obs off and the end-to-end
/// metrics are reported. With `trace` on, runs alternate between obs on
/// with spans (the traced runs, which give the per-layer metrics and are
/// checked against the accounting identities) and obs off (the baseline
/// for `obs.overhead_frac`).
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let epoch = Instant::now();
    let mut sp = Spans::new(epoch, trace);
    let mut off = Spans::new(epoch, false);

    // Set-up: generate the input graph and store it, several times.
    let mut setup_s = Vec::new();
    let mut graph = None;
    for i in 0..SETUP_REPS {
        let unit = format!("setup-{i}");
        let (g, total, _) = sp.time("setup", &unit, None, |sp, parent| {
            let (ds, _, _) = sp.time("mlvc_gen::generate", &unit, parent, |_, _| {
                (spec.generate)(spec.scale, seed)
            });
            let cfg = spec.config(seed, false);
            let iv = VertexIntervals::for_graph(&ds.graph, UPDATE_BYTES, cfg.sort_budget());
            let ssd = Arc::new(Ssd::new(SsdConfig::default()));
            sp.time("StoredGraph::store_with", &unit, parent, |_, _| {
                StoredGraph::store_with(&ssd, &ds.graph, "g", iv)
                    .expect("storing on an in-memory device")
            });
            ds.graph
        });
        setup_s.push(total);
        graph = Some(g);
    }
    let csr = graph.expect("at least one set-up");

    // Oracle: the in-memory reference engine on the same graph and seed.
    let mut reference = ReferenceEngine::new(csr.clone(), seed);
    reference.run(spec.program.as_ref(), SUPERSTEPS);
    let expected = reference.states().to_vec();
    drop(reference);

    let mut out = Outcome::new(Spans::new(epoch, false));
    // Warm-up: the first run in a process is slower; it is checked but not
    // timed.
    let warm = run_once(spec, &csr, seed, false, &mut off, "warm-up");
    out.record(verdict(&warm, &expected, "warm-up"));
    drop(warm);

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut sims = Vec::new();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut layers = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let timed = Instant::now();
    let mut i = 0usize;
    while timed.elapsed() < deadline || i < MIN_RUNS {
        let traced = trace && i.is_multiple_of(2);
        let unit = format!("run-{i}");
        let rec = if traced { &mut sp } else { &mut off };
        let run = run_once(spec, &csr, seed, traced, rec, &unit);
        out.record(verdict(&run, &expected, &unit));
        if traced {
            out.identity_errors
                .extend(checks::engine_identities(&run, &unit));
            layers.push(layer_sample(&run));
            traced_walls.push(run.wall_s);
        } else {
            walls.push(run.wall_s);
            sims.push(secs(run.report.total_sim_time_ns()));
            reads.push(mb(run.device.bytes_read));
            writes.push(mb(run.device.bytes_written));
        }
        i += 1;
    }

    if trace {
        out.set_layer_medians(&layers);
        out.metrics.insert(
            "obs.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.metrics.insert(
            "gen.generate_s",
            median(&sp.durations("mlvc_gen::generate")),
        );
        out.metrics.insert(
            "graph.store_s",
            median(&sp.durations("StoredGraph::store_with")),
        );
    } else {
        let run_s = median(&walls);
        out.metrics.insert("setup_s", median(&setup_s));
        out.metrics.insert("run_s", run_s);
        out.metrics.insert("sim_s", median(&sims));
        out.metrics.insert("device_read_mb", median(&reads));
        out.metrics.insert("device_write_mb", median(&writes));
        out.metrics
            .insert("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        out.metrics.insert("job_p50_ms", run_s * 1e3);
        out.metrics
            .insert("job_p90_ms", percentile(&walls, 90.0) * 1e3);
        out.note("jobs", walls.len());
        out.note("job_samples_above_p90", samples_above(&walls, 90.0));
        let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        out.note("run_walls_s", listed.join(" "));
    }
    out.note("vertices", csr.num_vertices());
    out.note("edges", csr.num_edges());
    out.note("supersteps", SUPERSTEPS);
    out.note("memory_bytes", MEMORY_BYTES);
    out.spans = sp;
    out
}
