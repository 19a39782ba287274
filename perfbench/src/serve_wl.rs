//! The `serve-mutate` workload: one `Daemon` over one shared device with a
//! 2Q page cache and a pinned tier, driven by two closed-loop clients, with
//! a mutation batch merged into one dataset between rounds.
//!
//! - Client A (the re-reading tenant) sends BFS jobs from random sources
//!   and WCC jobs on CF, whose CSR fits in the cache.
//! - Client B (the scan tenant) sends PageRank jobs on YWS; its log traffic
//!   churns the cache.
//! - Between rounds, with no job running, one add/remove batch goes to CF
//!   through `apply_mutation` and `merge_mutations`. The merge rewrites
//!   CSR extents the readers have cached. Batches come in pairs, a fresh
//!   one and then its inverse, so CF churns without drifting from the
//!   generated graph however long the run.
//!
//! Every job's states are checked against the reference engine on the
//! benchmark's own copy of the graph, to which each merged batch is
//! applied with `mlvc_mutate::apply_to_csr`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use mlvc_apps::{Bfs, PageRank, Wcc};
use mlvc_core::{Engine, ReferenceEngine, RunReport, VertexProgram};
use mlvc_gen::rng::SeededRng;
use mlvc_graph::Csr;
use mlvc_mutate::{apply_to_csr, EdgeMutation, MutationStats};
use mlvc_serve::{Daemon, JobError, JobRequest, JobResult, MutationRequest, ServeConfig};
use mlvc_ssd::{CachePolicy, CacheSnapshot, SsdConfig, SsdStatsSnapshot};

use crate::checks;
use crate::metrics::{LayerSample, Outcome};
use crate::spans::Spans;
use crate::stats::{mb, median, percentile, ratio, samples_above, secs};

/// Generator scale of both datasets.
pub const SCALE: u32 = 14;
/// Shared page-cache capacity.
pub const CACHE_BYTES: usize = 8 << 20;
/// Pinned-tier budget, carved from the admission budget.
pub const PIN_BYTES: usize = 2 << 20;
/// Memory each job reserves (the default job budget).
pub const JOB_MEMORY: usize = 2 << 20;
/// Superstep cap of every job.
pub const JOB_STEPS: usize = 15;
/// Set-ups (generate + register) per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Timed rounds per invocation at the least.
const MIN_ROUNDS: usize = 4;

/// Sizes of one `serve-mutate` invocation.
pub struct ServeSpec {
    pub scale: u32,
    /// Jobs client A sends per round: BFS from random sources, with every
    /// fifth job a WCC.
    pub a_jobs: usize,
    /// PageRank jobs client B sends per round.
    pub b_jobs: usize,
    /// Edges added, and edges removed, by each round's mutation batch.
    pub batch_edges: usize,
}

impl ServeSpec {
    pub fn new(scale: u32) -> Self {
        ServeSpec {
            scale,
            a_jobs: 5,
            b_jobs: 2,
            batch_edges: 10_000,
        }
    }

    fn config(&self) -> ServeConfig {
        let page = SsdConfig::default().page_size;
        ServeConfig {
            // Both clients' jobs fit at once next to the pinned tier.
            memory_budget: 2 * JOB_MEMORY + PIN_BYTES,
            cache_pages: CACHE_BYTES / page,
            workers: 2,
            pin_budget_bytes: PIN_BYTES,
            cache_policy: CachePolicy::TwoQ,
        }
    }
}

/// One `run_job` call as a client saw it.
struct JobRecord {
    req: JobRequest,
    result: JobResult,
    wall_s: f64,
}

/// The daemon and the benchmark's own copies of its datasets.
struct World {
    daemon: Daemon,
    cf: Csr,
    yws: Csr,
    /// Mutation batches merged into CF so far (the graph version).
    version: u64,
    /// The inverse of the last fresh batch, sent next.
    undo: Option<MutationRequest>,
}

fn setup(
    spec: &ServeSpec,
    seed: u64,
    sp: &mut Spans,
    unit: &str,
    parent: Option<usize>,
    add_s: &mut Vec<f64>,
) -> World {
    let ((cf, yws), _, _) = sp.time("mlvc_gen::generate", unit, parent, |_, _| {
        (
            mlvc_gen::cf_mini(spec.scale, seed).graph,
            mlvc_gen::yws_mini(spec.scale, seed).graph,
        )
    });
    let mut daemon = Daemon::new(spec.config());
    for (name, g) in [("cf", &cf), ("yws", &yws)] {
        let (res, s, _) = sp.time("Daemon::add_dataset", unit, parent, |_, _| {
            daemon.add_dataset(name, g)
        });
        res.expect("registering a dataset on an in-memory device");
        add_s.push(s);
    }
    World {
        daemon,
        cf,
        yws,
        version: 0,
        undo: None,
    }
}

/// Vertices of `g` with at least one out-edge.
fn sources(g: &Csr) -> Vec<u32> {
    (0..g.num_vertices())
        .filter(|&v| g.degree(v as u32) > 0)
        .map(|v| v as u32)
        .collect()
}

/// The round's job streams for client A and client B.
fn round_jobs(
    spec: &ServeSpec,
    w: &World,
    rng: &mut SeededRng,
    seed: u64,
    round: &str,
) -> [Vec<JobRequest>; 2] {
    let srcs = sources(&w.cf);
    let job = |id: String, app: &str, dataset: &str, source: u32| JobRequest {
        id,
        app: app.to_string(),
        dataset: dataset.to_string(),
        memory_bytes: JOB_MEMORY,
        steps: JOB_STEPS,
        seed,
        source,
        ..JobRequest::default()
    };
    let a = (0..spec.a_jobs)
        .map(|k| {
            let id = format!("{round}-a{k}");
            if k % 5 == 4 {
                job(id, "wcc", "cf", 0)
            } else {
                let s = srcs[(rng.next_u64() % srcs.len() as u64) as usize];
                job(id, "bfs", "cf", s)
            }
        })
        .collect();
    let b = (0..spec.b_jobs)
        .map(|k| job(format!("{round}-b{k}"), "pagerank", "yws", 0))
        .collect();
    [a, b]
}

/// A seeded batch for CF: `n` existing edges to remove and `n` absent
/// edges (no self-loops) to add, disjoint by construction. `n` is capped
/// at a quarter of the graph's edges.
fn mutation_batch(g: &Csr, n: usize, rng: &mut SeededRng, id: String) -> MutationRequest {
    let n = n.min(g.num_edges() / 4);
    let nv = g.num_vertices() as u64;
    let srcs = sources(g);
    let mut remove = BTreeSet::new();
    while remove.len() < n {
        let s = srcs[(rng.next_u64() % srcs.len() as u64) as usize];
        let out = g.out_edges(s);
        remove.insert((s, out[(rng.next_u64() % out.len() as u64) as usize]));
    }
    let mut add = BTreeSet::new();
    while add.len() < n {
        let (s, d) = ((rng.next_u64() % nv) as u32, (rng.next_u64() % nv) as u32);
        if s != d && !g.out_edges(s).contains(&d) {
            add.insert((s, d));
        }
    }
    MutationRequest {
        id,
        dataset: "cf".to_string(),
        add: add.into_iter().collect(),
        remove: remove.into_iter().collect(),
    }
}

/// One client's closed loop: send the next job when the last one returned.
fn client(
    daemon: &Daemon,
    jobs: Vec<JobRequest>,
    epoch: Instant,
    traced: bool,
) -> (Vec<JobRecord>, Spans) {
    let mut sp = Spans::new(epoch, traced);
    let recs = jobs
        .into_iter()
        .map(|req| {
            let (result, wall_s, _) = sp.time("Daemon::run_job", &req.id, None, |_, _| {
                daemon.run_job(&req)
            });
            JobRecord {
                req,
                result,
                wall_s,
            }
        })
        .collect();
    (recs, sp)
}

/// What the mutation phase of a round did.
#[derive(Default)]
struct MutationPhase {
    ingest_s: f64,
    merge_s: f64,
    /// Why the batch failed, if it did.
    error: Option<String>,
    stats: MutationStats,
    log_pages_flushed: u64,
}

/// Everything one round measured.
struct Round {
    jobs: Vec<JobRecord>,
    wall_s: f64,
    /// Shared-device activity during the job phase and the whole round.
    dev_jobs: SsdStatsSnapshot,
    dev_round: SsdStatsSnapshot,
    /// Cache counters before and after the round.
    cache: (CacheSnapshot, CacheSnapshot),
    mutation: MutationPhase,
    /// The batch as applied, for the oracle.
    batch: Vec<EdgeMutation>,
}

/// The round's batch: the pending inverse if there is one, else a fresh
/// batch whose inverse is kept for the next round.
fn next_batch(spec: &ServeSpec, w: &mut World, rng: &mut SeededRng, id: String) -> MutationRequest {
    match w.undo.take() {
        Some(undo) => MutationRequest { id, ..undo },
        None => {
            let req = mutation_batch(&w.cf, spec.batch_edges, rng, id);
            w.undo = Some(MutationRequest {
                add: req.remove.clone(),
                remove: req.add.clone(),
                ..req.clone()
            });
            req
        }
    }
}

/// Ingest and merge one batch into CF, with no job running.
fn mutate(
    daemon: &Daemon,
    req: &MutationRequest,
    sp: &mut Spans,
    parent: Option<usize>,
) -> MutationPhase {
    let mlog = daemon.mutation_log("cf").expect("cf is registered");
    let flushed0 = mlog.lock().stats().log_pages_flushed;
    let (ingest, ingest_s, _) = sp.time("Daemon::apply_mutation", &req.id, parent, |_, _| {
        daemon.apply_mutation(req)
    });
    let (merged, merge_s, _) = sp.time("Daemon::merge_mutations", &req.id, parent, |_, _| {
        daemon.merge_mutations("cf")
    });
    let mut phase = MutationPhase {
        ingest_s,
        merge_s,
        log_pages_flushed: mlog.lock().stats().log_pages_flushed - flushed0,
        ..MutationPhase::default()
    };
    match (ingest, merged) {
        (Err(e), _) => phase.error = Some(format!("{}: apply_mutation {e}", req.id)),
        (_, Err(e)) => phase.error = Some(format!("{}: merge_mutations {e}", req.id)),
        (_, Ok(None)) => phase.error = Some(format!("{}: merge found nothing pending", req.id)),
        (Ok(_), Ok(Some(o))) => phase.stats = o.stats,
    }
    phase
}

/// The daemon under load: the world plus the seeded streams that drive it.
struct Traffic<'a> {
    spec: &'a ServeSpec,
    seed: u64,
    epoch: Instant,
    rng: SeededRng,
    world: World,
}

impl Traffic<'_> {
    /// One round: both clients run their jobs concurrently, then one batch
    /// is applied and merged.
    fn round(&mut self, sp: &mut Spans, traced: bool, name: &str) -> Round {
        let [a, b] = round_jobs(self.spec, &self.world, &mut self.rng, self.seed, name);
        let req = next_batch(
            self.spec,
            &mut self.world,
            &mut self.rng,
            format!("{name}-m"),
        );
        let (daemon, epoch) = (&self.world.daemon, self.epoch);
        let dev0 = daemon.device().stats().snapshot();
        let cache0 = daemon.cache().snapshot();
        let ((jobs, dev_jobs, mutation), wall_s, _) = sp.time("round", name, None, |sp, parent| {
            let (ra, rb) = std::thread::scope(|s| {
                let ha = s.spawn(|| client(daemon, a, epoch, traced));
                let hb = s.spawn(|| client(daemon, b, epoch, traced));
                (
                    ha.join().expect("client A panicked"),
                    hb.join().expect("client B panicked"),
                )
            });
            let dev_jobs = daemon.device().stats().snapshot().since(&dev0);
            let mut jobs = ra.0;
            jobs.extend(rb.0);
            sp.absorb(ra.1, parent);
            sp.absorb(rb.1, parent);
            (jobs, dev_jobs, mutate(daemon, &req, sp, parent))
        });
        let mut batch: Vec<EdgeMutation> = req
            .add
            .iter()
            .map(|&(s, d)| EdgeMutation::add(s, d))
            .collect();
        batch.extend(req.remove.iter().map(|&(s, d)| EdgeMutation::remove(s, d)));
        Round {
            jobs,
            wall_s,
            dev_jobs,
            dev_round: daemon.device().stats().snapshot().since(&dev0),
            cache: (cache0, daemon.cache().snapshot()),
            mutation,
            batch,
        }
    }
}

/// Reference states per (app, dataset, source, graph version).
type RefCache = BTreeMap<(String, String, u32, u64), Vec<u64>>;

fn reference_states<'a>(cache: &'a mut RefCache, w: &World, req: &JobRequest) -> &'a [u64] {
    let key = (
        req.app.clone(),
        req.dataset.clone(),
        req.source,
        if req.dataset == "cf" { w.version } else { 0 },
    );
    cache.entry(key).or_insert_with(|| {
        let prog: Box<dyn VertexProgram> = match req.app.as_str() {
            "bfs" => Box::new(Bfs::new(req.source)),
            "wcc" => Box::new(Wcc),
            _ => Box::new(PageRank::default()),
        };
        let g = if req.dataset == "cf" { &w.cf } else { &w.yws };
        let mut r = ReferenceEngine::new(g.clone(), req.seed);
        r.run(prog.as_ref(), req.steps);
        r.states().to_vec()
    })
}

/// Check the round's outputs, then apply its batch to the oracle's graph.
fn check_round(out: &mut Outcome, refs: &mut RefCache, w: &mut World, r: &Round) {
    for j in &r.jobs {
        let err = match &j.result.outcome {
            Err(JobError::Rejected(e)) => Some(format!("{}: rejected: {e}", j.req.id)),
            Err(JobError::Failed(e)) => Some(format!("{}: failed: {e}", j.req.id)),
            Ok(o) if o.states != reference_states(refs, w, &j.req) => Some(format!(
                "{}: states differ from the reference engine",
                j.req.id
            )),
            Ok(_) => None,
        };
        out.record(err);
    }
    out.record(r.mutation.error.clone());
    match apply_to_csr(&w.cf, &r.batch) {
        Ok((g, _)) => w.cf = g,
        Err(e) => out.record(Some(format!("oracle could not apply the batch: {e}"))),
    }
    w.version += 1;
    // References of earlier CF versions are never asked for again.
    refs.retain(|(_, dataset, _, version), _| dataset != "cf" || *version == w.version);
}

fn reports(r: &Round) -> impl Iterator<Item = (&JobRecord, &RunReport)> {
    r.jobs
        .iter()
        .filter_map(|j| j.result.outcome.as_ref().ok().map(|o| (j, &o.report)))
}

/// Per-job device reads summed against the shared device's delta over
/// the job phase.
fn serve_identities(r: &Round, round: &str) -> Vec<String> {
    let got = r
        .jobs
        .iter()
        .filter_map(|j| j.result.outcome.as_ref().ok())
        .fold((0, 0), |acc, o| {
            (acc.0 + o.device.pages_read, acc.1 + o.device.pages_written)
        });
    let mut errs = checks::pages_match(round, "per-job device", got, &r.dev_jobs);
    for (j, rep) in reports(r) {
        let o = j
            .result
            .outcome
            .as_ref()
            .expect("filtered to completed jobs");
        errs.extend(checks::pages_match(
            &j.req.id,
            "superstep io",
            checks::superstep_pages(rep),
            &o.device,
        ));
    }
    errs
}

fn layer_sample(r: &Round) -> LayerSample {
    let mut s = LayerSample::new();
    let mut add = |k: &'static str, v: f64| *s.entry(k).or_insert(0.0) += v;
    let (mut host, mut phys) = (0u64, 0u64);
    let mut max_inflight = 0u64;
    for (j, rep) in reports(r) {
        let [load, sort, process, scatter] = rep.stage_totals_ns();
        let steps_wall = secs(rep.supersteps.iter().map(|t| t.wall_ns).sum());
        add("core.load_s", secs(load));
        add("core.sort_s", secs(sort));
        add("core.process_s", secs(process));
        add("core.scatter_s", secs(scatter));
        add(
            "core.unattributed_s",
            checks::unattributed_s(steps_wall, rep),
        );
        add("serve.overhead_s", j.wall_s - steps_wall);
        let ml = rep.multilog.unwrap_or_default();
        let el = rep.edgelog.unwrap_or_default();
        add("log.bytes_appended", ml.bytes_appended as f64);
        add("log.pages_flushed", ml.pages_flushed as f64);
        add("log.evictions", ml.evictions as f64);
        add(
            "log.fused_batches",
            rep.trace.iter().map(|t| t.fused_batches).sum::<u64>() as f64,
        );
        add("log.edge_log_hits", el.hits as f64);
        add("log.edge_log_pages", el.pages_written as f64);
        add("log.edge_logged", el.vertices_logged as f64);
        add(
            "graph.edges_scanned",
            rep.supersteps.iter().map(|t| t.edges_scanned).sum::<u64>() as f64,
        );
        add(
            "graph.colidx_pages_accessed",
            rep.supersteps
                .iter()
                .map(|t| t.colidx_pages_accessed)
                .sum::<u64>() as f64,
        );
        add(
            "graph.colidx_inefficient",
            rep.supersteps
                .iter()
                .map(|t| t.colidx_pages_inefficient)
                .sum::<u64>() as f64,
        );
        add(
            "ssd.io_wait_sim_s",
            secs(rep.supersteps.iter().map(|t| t.io_wait_ns).sum()),
        );
        max_inflight = max_inflight.max(
            rep.supersteps
                .iter()
                .map(|t| t.max_inflight)
                .max()
                .unwrap_or(0),
        );
        host += rep.trace.iter().map(|t| t.ftl_host_writes).sum::<u64>();
        phys += rep.trace.iter().map(|t| t.ftl_physical_writes).sum::<u64>();
    }
    let logged = s.remove("log.edge_logged").unwrap_or(0.0);
    let hits = s.get("log.edge_log_hits").copied().unwrap_or(0.0);
    s.insert("log.edge_log_precision", ratio(hits, logged));
    let ineff = s.remove("graph.colidx_inefficient").unwrap_or(0.0);
    let accessed = s.get("graph.colidx_pages_accessed").copied().unwrap_or(0.0);
    s.insert("graph.colidx_inefficient_frac", ratio(ineff, accessed));
    let d = &r.dev_round;
    s.insert("ssd.pages_read", d.pages_read as f64);
    s.insert("ssd.pages_written", d.pages_written as f64);
    s.insert("ssd.read_amp", d.read_amplification().unwrap_or(0.0));
    s.insert("ssd.read_sim_s", secs(d.read_time_ns));
    s.insert("ssd.write_sim_s", secs(d.write_time_ns));
    s.insert("ssd.max_inflight", max_inflight as f64);
    s.insert("ssd.ftl_write_amp", ratio(phys as f64, host as f64));
    let (c0, c1) = &r.cache;
    let hits = (c1.total_hits() - c0.total_hits()) as f64;
    let misses = (c1.total_misses() - c0.total_misses()) as f64;
    s.insert("ssd.cache_hit_frac", ratio(hits, hits + misses));
    s.insert("ssd.cache_evictions", (c1.evictions - c0.evictions) as f64);
    s.insert(
        "ssd.cross_tenant_hits",
        (c1.cross_tenant_hits - c0.cross_tenant_hits) as f64,
    );
    s.insert("ssd.pinned_hits", (c1.pinned_hits - c0.pinned_hits) as f64);
    let m = &r.mutation.stats;
    s.insert("mutate.ingest_s", r.mutation.ingest_s);
    s.insert("mutate.merge_s", r.mutation.merge_s);
    s.insert(
        "mutate.edges_merged",
        (m.edges_added + m.edges_removed) as f64,
    );
    s.insert("mutate.intervals_merged", m.intervals_merged as f64);
    s.insert("mutate.dirty_vertices", m.dirty_vertices as f64);
    s.insert(
        "mutate.log_pages_flushed",
        r.mutation.log_pages_flushed as f64,
    );
    let queued = r.jobs.iter().filter(|j| j.result.queued).count();
    s.insert(
        "serve.queued_frac",
        ratio(queued as f64, r.jobs.len() as f64),
    );
    s
}

/// The end-to-end numbers of one untraced round; the round itself (with
/// every job's states) is dropped once checked.
struct RoundSummary {
    wall_s: f64,
    job_walls: Vec<f64>,
    /// `apply_mutation` plus `merge_mutations`.
    mutation_s: f64,
    /// Every job's own simulated time plus the mutation phase's device time.
    sim_s: f64,
    read_mb: f64,
    write_mb: f64,
}

impl RoundSummary {
    fn of(r: &Round) -> Self {
        let jobs_sim: u64 = reports(r).map(|(_, rep)| rep.total_sim_time_ns()).sum();
        let mutation_io = r.dev_round.io_time_ns() - r.dev_jobs.io_time_ns();
        RoundSummary {
            wall_s: r.wall_s,
            job_walls: r.jobs.iter().map(|j| j.wall_s).collect(),
            mutation_s: r.mutation.ingest_s + r.mutation.merge_s,
            sim_s: secs(jobs_sim + mutation_io),
            read_mb: mb(r.dev_round.bytes_read),
            write_mb: mb(r.dev_round.bytes_written),
        }
    }
}

/// Run `serve-mutate` for `seconds` of timed rounds. With `trace` on,
/// rounds alternate between recorded spans (traced, giving the per-layer
/// metrics) and none (the baseline for `obs.overhead_frac`; the daemon
/// always runs jobs with obs on).
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let epoch = Instant::now();
    let mut sp = Spans::new(epoch, trace);
    let mut off = Spans::new(epoch, false);

    let mut setup_s = Vec::new();
    let mut add_s = Vec::new();
    let mut world = None;
    for i in 0..SETUP_REPS {
        let unit = format!("setup-{i}");
        let (w, s, _) = sp.time("setup", &unit, None, |sp, id| {
            setup(spec, seed, sp, &unit, id, &mut add_s)
        });
        setup_s.push(s);
        world = Some(w);
    }
    let gen_s = sp.durations("mlvc_gen::generate");
    let mut d = Traffic {
        spec,
        seed,
        epoch,
        rng: SeededRng::seed_from_u64(seed ^ 0x5E57_E000),
        world: world.expect("at least one set-up"),
    };

    let mut out = Outcome::new(Spans::new(epoch, false));
    let mut refs = RefCache::new();
    // Warm-up round: checked, not timed.
    let warm = d.round(&mut off, false, "warm-up");
    check_round(&mut out, &mut refs, &mut d.world, &warm);

    let mut rounds = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = Vec::new();
    let mut check_s = 0.0;
    let deadline = Duration::from_secs_f64(seconds);
    // The oracle's checks between rounds do not count against `seconds`.
    let mut timed = Duration::ZERO;
    let mut i = 0usize;
    while timed < deadline || i < MIN_ROUNDS {
        let traced = trace && i.is_multiple_of(2);
        let name = format!("r{i}");
        let r = d.round(if traced { &mut sp } else { &mut off }, traced, &name);
        timed += Duration::from_secs_f64(r.wall_s);
        let t = Instant::now();
        check_round(&mut out, &mut refs, &mut d.world, &r);
        check_s += t.elapsed().as_secs_f64();
        if traced {
            out.identity_errors.extend(serve_identities(&r, &name));
            layers.push(layer_sample(&r));
            traced_walls.push(r.wall_s);
        } else {
            rounds.push(RoundSummary::of(&r));
        }
        i += 1;
    }

    let col = |f: fn(&RoundSummary) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|r| r.wall_s);
    if trace {
        out.set_layer_medians(&layers);
        out.metrics.insert(
            "obs.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        out.metrics.insert("gen.generate_s", median(&gen_s));
        // The daemon stores datasets inside `add_dataset`.
        out.metrics.insert("graph.store_s", 0.0);
        out.metrics.insert("serve.add_dataset_s", median(&add_s));
    } else {
        let lat: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.job_walls.iter().copied())
            .collect();
        out.metrics.insert("setup_s", median(&setup_s));
        out.metrics.insert("run_s", median(&walls));
        out.metrics.insert("sim_s", median(&col(|r| r.sim_s)));
        out.metrics
            .insert("device_read_mb", median(&col(|r| r.read_mb)));
        out.metrics
            .insert("device_write_mb", median(&col(|r| r.write_mb)));
        out.metrics
            .insert("jobs_per_s", lat.len() as f64 / walls.iter().sum::<f64>());
        out.metrics.insert("job_p50_ms", median(&lat) * 1e3);
        out.metrics
            .insert("job_p90_ms", percentile(&lat, 90.0) * 1e3);
        out.note("jobs", lat.len());
        out.note("job_samples_above_p90", samples_above(&lat, 90.0));
        out.note(
            "mutation_p50_ms",
            format!("{:.4}", median(&col(|r| r.mutation_s)) * 1e3),
        );
    }
    let w = &d.world;
    out.note("oracle_check_s", format!("{check_s:.3}"));
    out.note("rounds", rounds.len() + layers.len());
    out.note("cf_vertices", w.cf.num_vertices());
    out.note("cf_edges", w.cf.num_edges());
    out.note("yws_edges", w.yws.num_edges());
    out.note("cache_bytes", CACHE_BYTES);
    out.note("pin_bytes", PIN_BYTES);
    out.note("job_memory_bytes", JOB_MEMORY);
    out.spans = sp;
    out
}
