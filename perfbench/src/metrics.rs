//! The metric catalogue (names and units as in `BENCHMARK.json`) and the
//! result of one benchmark invocation.

use std::collections::BTreeMap;

use crate::spans::Spans;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them, and none is ever 0.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_s", "s"),
    ("device_read_mb", "MB"),
    ("device_write_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload bypasses reads 0
/// there (the engine workloads attach no cache and merge no mutations).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.load_s", "s"),
    ("core.sort_s", "s"),
    ("core.process_s", "s"),
    ("core.scatter_s", "s"),
    ("core.unattributed_s", "s"),
    ("log.bytes_appended", "bytes"),
    ("log.pages_flushed", "count"),
    ("log.evictions", "count"),
    ("log.fused_batches", "count"),
    ("log.edge_log_hits", "count"),
    ("log.edge_log_pages", "count"),
    ("log.edge_log_precision", "ratio"),
    ("graph.edges_scanned", "count"),
    ("graph.colidx_pages_accessed", "count"),
    ("graph.colidx_inefficient_frac", "ratio"),
    ("ssd.pages_read", "count"),
    ("ssd.pages_written", "count"),
    ("ssd.read_amp", "ratio"),
    ("ssd.read_sim_s", "s"),
    ("ssd.write_sim_s", "s"),
    ("ssd.io_wait_sim_s", "s"),
    ("ssd.max_inflight", "count"),
    ("ssd.ftl_write_amp", "ratio"),
    ("ssd.cache_hit_frac", "ratio"),
    ("ssd.cache_evictions", "count"),
    ("ssd.cross_tenant_hits", "count"),
    ("ssd.pinned_hits", "count"),
    ("mutate.ingest_s", "s"),
    ("mutate.merge_s", "s"),
    ("mutate.edges_merged", "count"),
    ("mutate.intervals_merged", "count"),
    ("mutate.dirty_vertices", "count"),
    ("mutate.log_pages_flushed", "count"),
    ("serve.queued_frac", "ratio"),
    ("serve.overhead_s", "s"),
    ("obs.overhead_frac", "ratio"),
    ("gen.generate_s", "s"),
    ("graph.store_s", "s"),
    ("serve.add_dataset_s", "s"),
];

/// Per-layer values of one unit of traced work (an engine run or a serve
/// round), keyed by metric name; missing keys read as 0.
pub type LayerSample = BTreeMap<&'static str, f64>;

/// Everything one invocation measured.
pub struct Outcome {
    /// Operations attempted: engine runs, or jobs plus mutation batches.
    pub attempted: u64,
    /// Failed, rejected, interrupted or wrong-output operations.
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Violated accounting identities of the traced run.
    pub identity_errors: Vec<String>,
    /// End-to-end values by name (trace off), or per-layer values (trace
    /// on).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further numbers printed by name for the reader but not gated.
    pub notes: Vec<(String, String)>,
    pub spans: Spans,
}

impl Outcome {
    pub fn new(spans: Spans) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            identity_errors: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            spans,
        }
    }

    /// Count one operation; `err` is why it failed, if it did.
    pub fn record(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.identity_errors.is_empty()
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Per-layer metrics as the median over traced units of each value.
    pub fn set_layer_medians(&mut self, samples: &[LayerSample]) {
        for (name, _) in PER_LAYER {
            let xs: Vec<f64> = samples
                .iter()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            self.metrics.insert(name, crate::stats::median(&xs));
        }
    }
}

/// The catalogue a run reports under, with units.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark reports exactly the metrics `BENCHMARK.json` lists,
    /// with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for (section, list) in [
            ("\"end_to_end\"", &END_TO_END[..]),
            ("\"per_layer\"", &PER_LAYER[..]),
        ] {
            let start = text.find(section).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let entries = body.matches("\"name\"").count();
            assert_eq!(entries, list.len(), "{section}: entry count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section}: missing {entry}");
            }
        }
    }
}
