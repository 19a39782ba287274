//! Self-checks of the traced run at a small scale: the accounting
//! identities hold, the oracle passes, and every catalogued metric is
//! reported.

use std::time::Instant;

use mlvc_perfbench::checks::{
    engine_identities, pages_match, stage_s, superstep_pages, unattributed_s,
};
use mlvc_perfbench::engine_wl::{run_once, EngineSpec};
use mlvc_perfbench::metrics::{END_TO_END, PER_LAYER};
use mlvc_perfbench::serve_wl::{self, ServeSpec};
use mlvc_perfbench::spans::Spans;
use mlvc_perfbench::{engine_wl, WORKLOADS};
use mlvc_ssd::SsdStatsSnapshot;

fn small_serve() -> ServeSpec {
    ServeSpec {
        scale: 9,
        a_jobs: 3,
        b_jobs: 1,
        batch_edges: 100,
    }
}

#[test]
fn traced_engine_runs_satisfy_the_identities() {
    for spec in [EngineSpec::pagerank_cf(9), EngineSpec::randomwalk_yws(9)] {
        let csr = (spec.generate)(spec.scale, 7).graph;
        let mut sp = Spans::new(Instant::now(), true);
        let run = run_once(&spec, &csr, 7, true, &mut sp, "t");
        assert!(run.report.interrupted.is_none());
        assert!(
            run.device.pages_read > 0 && run.device.pages_written > 0,
            "{}: did I/O",
            spec.name
        );

        // Stage spans plus the unattributed remainder rebuild the wall time.
        let rebuilt = stage_s(&run.report) + unattributed_s(run.wall_s, &run.report);
        assert!(
            (rebuilt - run.wall_s).abs() < 1e-9,
            "{}: {rebuilt} vs {}",
            spec.name,
            run.wall_s
        );

        // Pages summed over supersteps (plus the seed phase) equal the
        // device delta, and so does the obs trace.
        assert_eq!(
            superstep_pages(&run.report),
            (run.device.pages_read, run.device.pages_written)
        );
        let traced: u64 = run.report.trace.iter().map(|t| t.pages_read).sum();
        assert_eq!(
            traced, run.device.pages_read,
            "{}: trace pages read",
            spec.name
        );
        assert!(engine_identities(&run, "t").is_empty(), "{}", spec.name);

        // The run was recorded as a span under the engine's public name.
        assert!(sp.all().iter().any(|s| s.name == "MultiLogEngine::run"));
    }
}

#[test]
fn page_identity_reports_a_mismatch() {
    let dev = SsdStatsSnapshot {
        pages_read: 10,
        pages_written: 4,
        ..Default::default()
    };
    assert!(pages_match("u", "x", (10, 4), &dev).is_empty());
    assert_eq!(pages_match("u", "x", (9, 4), &dev).len(), 1);
    assert_eq!(pages_match("u", "x", (9, 5), &dev).len(), 2);
}

#[test]
fn engine_workloads_report_every_metric_and_pass_the_oracle() {
    for spec in [EngineSpec::pagerank_cf(9), EngineSpec::randomwalk_yws(9)] {
        let traced = engine_wl::run(&spec, 3, 0.01, true);
        assert!(
            traced.correct(),
            "{}: {:?} {:?}",
            spec.name,
            traced.failures,
            traced.identity_errors
        );
        for (name, _) in PER_LAYER {
            assert!(
                traced.metrics.contains_key(name),
                "{}: missing {name}",
                spec.name
            );
        }
        assert!(traced
            .spans
            .all()
            .iter()
            .any(|s| s.name == "mlvc_gen::generate"));

        let plain = engine_wl::run(&spec, 3, 0.01, false);
        assert!(plain.correct(), "{}: {:?}", spec.name, plain.failures);
        for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
            let v = plain.metrics[name];
            assert!(v > 0.0, "{}: {name} = {v}", spec.name);
        }
        assert!(
            plain.spans.all().is_empty(),
            "untraced runs record no spans"
        );
    }
}

#[test]
fn serve_rounds_satisfy_the_identities_and_pass_the_oracle() {
    // The traced rounds check that per-job device reads sum to the shared
    // device's delta and that each job's superstep pages match its view.
    let traced = serve_wl::run(&small_serve(), 5, 0.01, true);
    assert!(
        traced.correct(),
        "{:?} {:?}",
        traced.failures,
        traced.identity_errors
    );
    for (name, _) in PER_LAYER {
        assert!(traced.metrics.contains_key(name), "missing {name}");
    }
    assert!(traced.metrics["mutate.edges_merged"] > 0.0);
    for name in [
        "Daemon::add_dataset",
        "Daemon::run_job",
        "Daemon::apply_mutation",
        "Daemon::merge_mutations",
    ] {
        assert!(
            traced.spans.all().iter().any(|s| s.name == name),
            "no {name} span"
        );
    }
    // Every job span hangs under its round.
    for s in traced
        .spans
        .all()
        .iter()
        .filter(|s| s.name == "Daemon::run_job")
    {
        let parent = s.parent.expect("job spans have a parent");
        assert_eq!(traced.spans.all()[parent].name, "round");
    }

    let plain = serve_wl::run(&small_serve(), 5, 0.01, false);
    assert!(plain.correct(), "{:?}", plain.failures);
    for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
        assert!(plain.metrics[name] > 0.0, "{name}");
    }
}

#[test]
fn every_workload_has_a_full_scale() {
    for w in WORKLOADS {
        assert!(mlvc_perfbench::full_scale(w).is_some(), "{w}");
    }
    assert!(mlvc_perfbench::full_scale("nope").is_none());
}
