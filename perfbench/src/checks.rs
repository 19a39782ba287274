//! Accounting identities the traced run must satisfy. A violation marks
//! the invocation incorrect.

use mlvc_core::RunReport;
use mlvc_ssd::SsdStatsSnapshot;

use crate::engine_wl::EngineRun;
use crate::stats::secs;

/// Wall time not covered by the four stage spans (load, sort, process,
/// scatter). Negative when prefetch overlaps stages.
pub fn unattributed_s(wall_s: f64, report: &RunReport) -> f64 {
    wall_s - stage_s(report)
}

/// Sum of the run's stage spans, in seconds.
pub fn stage_s(report: &RunReport) -> f64 {
    report.stage_totals_ns().iter().copied().map(secs).sum()
}

/// Device pages read and written, summed over the run's supersteps plus
/// its seed phase (trace record 0, present when obs was on).
pub fn superstep_pages(report: &RunReport) -> (u64, u64) {
    let seed = report.trace.first().filter(|t| t.superstep == 0);
    let read = report
        .supersteps
        .iter()
        .map(|s| s.io.pages_read)
        .sum::<u64>()
        + seed.map_or(0, |t| t.pages_read);
    let written = report
        .supersteps
        .iter()
        .map(|s| s.io.pages_written)
        .sum::<u64>()
        + seed.map_or(0, |t| t.pages_written);
    (read, written)
}

/// The identities of one traced engine run:
/// - stage spans plus `core.unattributed_s` equal the run's wall time;
/// - pages read/written summed over supersteps equal the device delta;
/// - the obs trace sums to the same device delta.
pub fn engine_identities(run: &EngineRun, unit: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let r = &run.report;
    let rebuilt = stage_s(r) + unattributed_s(run.wall_s, r);
    if (rebuilt - run.wall_s).abs() > 1e-9 * run.wall_s.max(1.0) {
        errs.push(format!(
            "{unit}: stages + unattributed = {rebuilt} s, wall = {} s",
            run.wall_s
        ));
    }
    errs.extend(pages_match(
        unit,
        "superstep io",
        superstep_pages(r),
        &run.device,
    ));
    if !r.trace.is_empty() {
        let traced = (
            r.trace.iter().map(|t| t.pages_read).sum::<u64>(),
            r.trace.iter().map(|t| t.pages_written).sum::<u64>(),
        );
        errs.extend(pages_match(unit, "obs trace", traced, &run.device));
    }
    errs
}

/// `(read, written)` against a device delta; a message per mismatch.
pub fn pages_match(unit: &str, what: &str, got: (u64, u64), dev: &SsdStatsSnapshot) -> Vec<String> {
    let mut errs = Vec::new();
    if got.0 != dev.pages_read {
        errs.push(format!(
            "{unit}: {what} pages read {} != device delta {}",
            got.0, dev.pages_read
        ));
    }
    if got.1 != dev.pages_written {
        errs.push(format!(
            "{unit}: {what} pages written {} != device delta {}",
            got.1, dev.pages_written
        ));
    }
    errs
}
