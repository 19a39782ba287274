use crate::checked::{idx, to_u32, to_u64, to_usize};
use std::sync::Arc;
use std::time::Instant;

use mlvc_par::Tracked;
use mlvc_ssd::RelaxedCounter;

use mlvc_graph::{IntervalId, VertexIntervals, VertexId};
use mlvc_ssd::{DeviceError, FileId, Ssd};

use crate::sortgroup::dest_offset;
use crate::{BitSet, Update, UPDATE_BYTES};

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Configuration of the Multi-Log Update Unit.
#[derive(Debug, Clone)]
pub struct MultiLogConfig {
    /// Host-memory cap for multi-log page buffers — the paper's "A%" of
    /// total memory (§V-A3, default 5% of 1 GB). At least one page per
    /// vertex interval is always retained, as the paper requires.
    pub buffer_bytes: usize,
    /// Sort-reduce folding (BigSparse): bucket updates by destination
    /// *page* at append time, so each interval's top buffer is an array of
    /// page-width buckets and sealed pages are destination-clustered. The
    /// read side then needs only a per-interval counting pass instead of a
    /// whole-inbox radix sort. Off by default: unfolded logs preserve
    /// global insertion order, which the raw `take_log` contract exposes.
    /// Either way the per-destination insertion order is preserved, so the
    /// sorted inbox is bit-identical across the two layouts.
    pub fold_scatter: bool,
}

impl Default for MultiLogConfig {
    fn default() -> Self {
        // 5% of the paper's default 1 GB budget, scaled: engines override.
        MultiLogConfig { buffer_bytes: 4 << 20, fold_scatter: false }
    }
}

/// Activity counters of the multi-log unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiLogStats {
    pub updates_logged: u64,
    pub pages_flushed: u64,
    /// Memory-pressure eviction events (buffer exceeded its cap).
    pub evictions: u64,
    pub updates_read: u64,
    /// Encoded record bytes appended across every interval log (count
    /// header + records per flushed page — the observability layer's
    /// "log bytes appended" source).
    pub bytes_appended: u64,
}

/// The Multi-Log Update Unit (paper §V-A).
///
/// One append-only log per vertex interval. `SendUpdate` maps the
/// destination vertex to its interval (`vId2IntervalMap`) and appends the
/// 16-byte record to that interval's **top page** in host memory. Full
/// pages are sealed; under memory pressure sealed pages (and, if needed,
/// top pages) are flushed to the interval's log file in one scattered batch
/// so the writes pipeline across all SSD channels.
///
/// The unit also maintains:
/// * per-interval message counters — "a first-order approximation of the
///   log size in that interval" used by the sort & group unit to fuse
///   intervals (§V-A2);
/// * a seen-destination bit vector — whether a message bound for `v` has
///   already been logged this superstep, which the edge-log optimizer uses
///   as its *known* (not predicted) next-superstep activity signal (§V-C).
pub struct MultiLog {
    ssd: Arc<Ssd>,
    intervals: VertexIntervals,
    /// Two log extents per interval, alternating write/read roles across
    /// supersteps: messages logged during superstep `s` land on the write
    /// side and are consumed from the read side during `s + 1`. Without the
    /// separation, a log page flushed mid-superstep (memory pressure) could
    /// be consumed by a later fused batch of the *same* superstep —
    /// breaking BSP delivery.
    files: Vec<[FileId; 2]>,
    write_side: usize,
    /// Top buffers. Unfolded: one slot per interval (insertion order).
    /// Folded: one slot per destination-page *bucket*, `bucket_base[i]..
    /// bucket_base[i+1]` covering interval `i`; each bucket spans
    /// `page_cap` consecutive destination vertices, so a sealed full
    /// bucket is a destination-clustered page.
    tops: Vec<Vec<Update>>,
    /// Slot ranges into `tops` per interval (`n + 1` prefix offsets).
    bucket_base: Vec<usize>,
    /// Destination vertex → `tops` slot, precomputed so the bucket loop is
    /// one array read per record instead of a division. Unfolded, a slot
    /// is its interval.
    slot_lut: Vec<u32>,
    /// `tops` slot → interval. With `slot_lut` it is the paper's
    /// `vId2IntervalMap` in two array reads, the second into a table of
    /// one entry per slot — no binary search over the interval bounds,
    /// and no second per-vertex table (see [`Self::interval_of`]).
    slot_interval: Vec<IntervalId>,
    /// Records currently sitting in interval `i`'s top buffers (all its
    /// slots together). Keeps [`Self::buffered_pages`] O(intervals) and —
    /// counted in `page_cap` units per interval — makes memory pressure a
    /// function of per-interval record counts alone, independent of the
    /// bucket layout and of how the scatter interleaves intervals.
    top_records: Vec<usize>,
    /// Records appended since the last pressure flush, against
    /// `evict_every`. Pressure is measured in appended records — a global
    /// count, so eviction points (and with them the `evictions` stat) are
    /// identical however the scatter interleaves intervals or buckets
    /// (per-slot fill state is not, once folding multiplies the slots).
    pressure_records: usize,
    /// Pressure-flush period: the buffer budget headroom above the
    /// per-interval floor, in records.
    evict_every: usize,
    sealed: Vec<(IntervalId, Vec<Update>)>,
    counts: Vec<u64>,
    dest_seen: BitSet,
    cap_pages: usize,
    page_cap: usize,
    /// `updates_read` lives outside `stats` in a shared atomic so that a
    /// [`LogReader`] draining the read side on a prefetch thread counts
    /// into the same total as the owner.
    stats: MultiLogStats,
    updates_read: Arc<RelaxedCounter>,
    /// Per-interval share of `stats.bytes_appended` (same counting).
    bytes_per_interval: Vec<u64>,
}

/// Shared-nothing handle onto the **read side** of the multi-log — the
/// superstep's inbox, what the sort & group unit consumes. It holds its own
/// device handle and the read-side file ids captured at creation, so a
/// prefetch thread can drain the next fused batch while the owning
/// [`MultiLog`] keeps appending to the write side (the two sides are
/// disjoint files, and every [`Ssd`] method takes `&self`).
///
/// The sides flip at [`MultiLog::finish_superstep`], so a reader is only
/// valid for the superstep it was created in: create one per superstep via
/// [`MultiLog::reader`]. Reads are counted into the owner's
/// `updates_read` statistic through a shared atomic.
pub struct LogReader {
    ssd: Arc<Ssd>,
    files: Vec<FileId>,
    intervals: VertexIntervals,
    updates_read: Arc<RelaxedCounter>,
    /// One shadow cell per interval auditing the take-once protocol:
    /// `take_log(i)` consumes (truncates) interval `i`'s log, so two
    /// unordered takes of the same interval — e.g. the prefetch thread and
    /// the owner racing on one batch — are a protocol violation the race
    /// detector reports with both call sites (DESIGN.md §14).
    take_audit: Vec<Tracked<()>>,
}

/// The page reads needed to drain a fused interval range — the submission
/// half of the queue read path. Built on the owning engine thread (so the
/// submission order is deterministic), fetched through an
/// [`mlvc_ssd::IoQueue`], and decoded on whichever worker joins the
/// completion via [`LogReader::take_prefetched`].
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub range: std::ops::Range<IntervalId>,
    /// `(file, page, useful=0)` requests, interval-major then page order —
    /// exactly what `Ssd::read_all` would issue per interval.
    pub reqs: Vec<(FileId, u64, usize)>,
    /// Page count per interval of `range`, aligned with it.
    pages_per_interval: Vec<u64>,
}

impl LogReader {
    /// Consume interval `i`'s read-side log, exactly like
    /// [`MultiLog::take_log`]: read every page in one channel-parallel
    /// batch, decode in log order, truncate the file.
    #[track_caller]
    pub fn take_log(&self, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        self.take_audit[idx(i)].audit_write();
        let out = drain_file(&self.ssd, self.files[idx(i)])?;
        self.updates_read.add(to_u64(out.len()));
        Ok(out)
    }

    /// [`Self::take_log`] + stable sort by destination, folded into one
    /// pass: a counting sort over the interval's (dense, narrow) vertex
    /// span. Works for any stored log layout — folded logs arrive nearly
    /// clustered already, unfolded ones pay one distribution pass — and
    /// preserves per-destination insertion order either way.
    #[track_caller]
    pub fn take_log_sorted(&self, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        let mut out = self.take_log(i)?;
        let span = self.intervals.range(i);
        crate::sortgroup::counting_sort_by_dest(&mut out, span.start, span.end)
            .map_err(|d| self.corrupt(i, d))?;
        Ok(out)
    }

    /// The typed error for a record addressed to `dest` found in interval
    /// `i`'s log, outside the interval.
    pub(crate) fn corrupt(&self, i: IntervalId, dest: VertexId) -> DeviceError {
        let span = self.intervals.range(i);
        let detail = format!(
            "record for vertex {dest} in the log of interval {i} [{}, {})",
            span.start, span.end
        );
        DeviceError::Corrupt { file: self.files[idx(i)], detail }
    }

    /// The vertex intervals this reader's logs are keyed by.
    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// Enumerate the page reads that draining every interval in `range`
    /// will need. Owner-thread half of the queue read path: the returned
    /// plan's request order is deterministic (interval-major, page order),
    /// independent of which worker later decodes the completion.
    pub fn plan_reads(
        &self,
        range: std::ops::Range<IntervalId>,
    ) -> Result<BatchPlan, DeviceError> {
        let mut reqs = Vec::new();
        let mut pages_per_interval = Vec::with_capacity(range.len());
        for i in range.clone() {
            let f = self.files[idx(i)];
            let n = self.ssd.num_pages(f)?;
            for p in 0..n {
                reqs.push((f, p, 0usize));
            }
            pages_per_interval.push(n);
        }
        Ok(BatchPlan { range, reqs, pages_per_interval })
    }

    /// Completion half of the queue read path: decode pages fetched for
    /// `plan` (one `Vec<u8>` per request, in plan order), consume the
    /// take-once audit per interval, declare useful bytes, and truncate
    /// the drained files — everything [`Self::take_log`] does, minus the
    /// device read that already happened through the queue. Returns the
    /// per-interval records in log order, aligned with `plan.range`.
    #[track_caller]
    pub fn take_prefetched(
        &self,
        plan: &BatchPlan,
        pages: &[Vec<u8>],
    ) -> Result<Vec<Vec<Update>>, DeviceError> {
        assert_eq!(pages.len(), plan.reqs.len(), "fetched pages must match the plan");
        let mut out = Vec::with_capacity(plan.pages_per_interval.len());
        let mut cursor = 0usize;
        let mut useful = 0u64;
        for (k, i) in plan.range.clone().enumerate() {
            self.take_audit[idx(i)].audit_write();
            let n = to_usize("log page count", plan.pages_per_interval[k])
                .map_err(|e| DeviceError::Io(e.to_string()))?;
            let mut ups = Vec::new();
            for p in &pages[cursor..cursor + n] {
                useful += to_u64(decode_log_page(p, &mut ups));
            }
            cursor += n;
            if n > 0 {
                self.ssd.truncate(self.files[idx(i)])?;
            }
            self.updates_read.add(to_u64(ups.len()));
            out.push(ups);
        }
        if useful > 0 {
            self.ssd.declare_useful(useful);
        }
        Ok(out)
    }

    /// Fused read half of sort-reduce folding: decode the fetched pages
    /// and stable counting-sort each interval by destination in one pass
    /// pair — a histogram pass straight off the page bytes, then a decode
    /// pass that places every record at its final slot. No intermediate
    /// per-interval vectors, so the records are touched half as often as
    /// `take_prefetched` + a separate sort. Consumes the same take-once
    /// audits, truncates, and accounts exactly like
    /// [`Self::take_prefetched`], and the output (interval-major, spans
    /// disjoint and ascending) is bit-identical to counting-sorting that
    /// drain per interval. The returned `(load_ns, sort_ns)` split the
    /// wall time between the decode/place work and the histogram/prefix
    /// work for stage reporting.
    #[track_caller]
    pub fn take_prefetched_sorted(
        &self,
        plan: &BatchPlan,
        pages: &[Vec<u8>],
    ) -> Result<(Vec<Update>, u64, u64), DeviceError> {
        assert_eq!(pages.len(), plan.reqs.len(), "fetched pages must match the plan");
        // Well-formed record count of a page: the header count, capped by
        // the whole records actually present (same set `decode_log_page`
        // yields on a torn page).
        fn well_formed(page: &[u8]) -> (usize, &[u8]) {
            match page.split_first_chunk::<4>() {
                Some((hdr, body)) => {
                    (idx(u32::from_le_bytes(*hdr)).min(body.len() / UPDATE_BYTES), body)
                }
                None => (0, &[][..]),
            }
        }
        let t_load = Instant::now();
        let total: usize = pages.iter().map(|p| well_formed(p).0).sum();
        let mut out = vec![Update::new(0, 0, 0); total];
        let mut counts: Vec<usize> = Vec::new();
        let mut useful = 0u64;
        let mut sort_ns = 0u64;
        let mut cursor = 0usize;
        let mut base = 0usize;
        for (k, i) in plan.range.clone().enumerate() {
            self.take_audit[idx(i)].audit_write();
            let n = to_usize("log page count", plan.pages_per_interval[k])
                .map_err(|e| DeviceError::Io(e.to_string()))?;
            let ival_pages = &pages[cursor..cursor + n];
            let span = self.intervals.range(i);
            let lo = span.start;
            // Histogram + prefix: the "sort" half of the fused pass. Every
            // destination is range-checked here, before anything is placed.
            let t_sort = Instant::now();
            counts.clear();
            counts.resize(idx(span.end - lo) + 1, 0);
            let mut recs = 0usize;
            for p in ival_pages {
                let (m, body) = well_formed(p);
                for rec in body.chunks_exact(UPDATE_BYTES).take(m) {
                    // dest is the first little-endian u32 of the record.
                    let dest = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
                    let off =
                        dest_offset(dest, lo, span.end).map_err(|d| self.corrupt(i, d))?;
                    counts[off + 1] += 1;
                }
                recs += m;
                useful += to_u64(4 + m * UPDATE_BYTES);
            }
            for w in 1..counts.len() {
                counts[w] += counts[w - 1];
            }
            sort_ns += elapsed_ns(t_sort);
            // Decode + place: each record lands at its final sorted slot.
            let slice = &mut out[base..base + recs];
            for p in ival_pages {
                let (m, body) = well_formed(p);
                for rec in body.chunks_exact(UPDATE_BYTES).take(m) {
                    match Update::decode(rec) {
                        Ok(u) => {
                            let slot = &mut counts[idx(u.dest - lo)];
                            slice[*slot] = u;
                            *slot += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
            base += recs;
            cursor += n;
            if n > 0 {
                self.ssd.truncate(self.files[idx(i)])?;
            }
            self.updates_read.add(to_u64(recs));
        }
        if useful > 0 {
            self.ssd.declare_useful(useful);
        }
        let load_ns = elapsed_ns(t_load).saturating_sub(sort_ns);
        Ok((out, load_ns, sort_ns))
    }
}

/// Read, decode, and truncate one log file (the shared tail of
/// [`MultiLog::take_log`] and [`LogReader::take_log`]).
fn drain_file(ssd: &Ssd, file: FileId) -> Result<Vec<Update>, DeviceError> {
    if ssd.num_pages(file)? == 0 {
        return Ok(Vec::new());
    }
    let pages = ssd.read_all(file, |_| 0)?;
    let mut out = Vec::new();
    let mut useful = 0u64;
    for p in &pages {
        useful += to_u64(decode_log_page(p, &mut out));
    }
    ssd.declare_useful(useful);
    ssd.truncate(file)?;
    Ok(out)
}

/// Records that fit on one log page after the 4-byte count header.
pub fn page_record_capacity(page_size: usize) -> usize {
    (page_size - 4) / UPDATE_BYTES
}

/// Encode a full or partial page: `[u32 count][count × 16 B records]`.
pub fn encode_log_page(updates: &[Update], page_size: usize) -> Vec<u8> {
    encode_zero_padded(updates, page_size, 4 + updates.len() * UPDATE_BYTES)
}

/// [`encode_log_page`]'s bytes at the front of a zeroed buffer of `len`
/// bytes. The flush asks for a whole device page, which it moves into
/// [`Ssd::append_scattered`] as is: the buffer comes zeroed from the
/// allocator, so only the encoded bytes get touched.
fn encode_zero_padded(updates: &[Update], page_size: usize, len: usize) -> Vec<u8> {
    assert!(updates.len() <= page_record_capacity(page_size));
    // The capacity assert above bounds the count far below u32::MAX for
    // any sane page size, so the saturating fallback is unreachable.
    let count = to_u32("log page record count", updates.len()).unwrap_or(u32::MAX);
    let mut buf = vec![0u8; len];
    buf[0..4].copy_from_slice(&count.to_le_bytes());
    for (rec, u) in buf[4..].chunks_exact_mut(UPDATE_BYTES).zip(updates) {
        u.encode(rec);
    }
    buf
}

/// Decode a log page produced by [`encode_log_page`]. Returns the records
/// and the number of payload bytes they occupy (for useful-byte accounting).
pub fn decode_log_page(page: &[u8], out: &mut Vec<Update>) -> usize {
    // A page too short for its header or records is torn; decode what is
    // well-formed rather than panicking mid-superstep.
    let Some((hdr, body)) = page.split_first_chunk::<4>() else {
        return 0;
    };
    let count = idx(u32::from_le_bytes(*hdr));
    out.reserve(count);
    let mut decoded = 0;
    for rec in body.chunks_exact(UPDATE_BYTES).take(count) {
        match Update::decode(rec) {
            Ok(u) => out.push(u),
            Err(_) => break,
        }
        decoded += 1;
    }
    4 + decoded * UPDATE_BYTES
}

impl MultiLog {
    pub fn new(
        ssd: Arc<Ssd>,
        intervals: VertexIntervals,
        cfg: MultiLogConfig,
        tag: &str,
    ) -> Result<Self, DeviceError> {
        let n = intervals.num_intervals();
        let page_size = ssd.page_size();
        let mut files: Vec<[FileId; 2]> = Vec::with_capacity(n);
        for i in 0..n {
            files.push([
                ssd.open_or_create(&format!("{tag}.mlog.{i}.a"))?,
                ssd.open_or_create(&format!("{tag}.mlog.{i}.b"))?,
            ]);
        }
        // A fresh unit starts with empty logs even if a previous run under
        // the same tag left residue (e.g. a non-converged run's last
        // superstep).
        for f in &files {
            ssd.truncate(f[0])?;
            ssd.truncate(f[1])?;
        }
        // "at least one log buffer is allocated for each vertex interval in
        // the entire graph" (§V-A3) — that floor is interval-count driven,
        // independent of A%. We additionally keep room for one eviction
        // batch (a few pages per channel) so that evictions always dispatch
        // channel-parallel batches, as the paper's eviction path assumes
        // ("multiple log page evictions may occur concurrently ... most of
        // the SSD bandwidth can be utilized"). At paper scale (A% of 1 GB ≈
        // thousands of pages) these floors are far below A%; they only bind
        // in scaled-down runs.
        let eviction_batch = 8 * ssd.config().channels.max(8);
        let cap_pages = (cfg.buffer_bytes / page_size).max(n + eviction_batch);
        let num_vertices = intervals.num_vertices();
        let page_cap = page_record_capacity(page_size);
        // Folded: one bucket per `page_cap` destination vertices, at least
        // one per interval. Unfolded: a single slot per interval.
        let mut bucket_base = Vec::with_capacity(n + 1);
        bucket_base.push(0usize);
        for i in 0..n {
            let slots = if cfg.fold_scatter {
                intervals.len_of(to_u32("interval id", i).unwrap_or(u32::MAX)).div_ceil(page_cap).max(1)
            } else {
                1
            };
            bucket_base.push(bucket_base[i] + slots);
        }
        let total_slots = bucket_base[n];
        let mut slot_lut = Vec::with_capacity(num_vertices);
        let mut slot_interval = Vec::with_capacity(total_slots);
        for (i, &base) in bucket_base.iter().enumerate().take(n) {
            let iv = to_u32("interval id", i).unwrap_or(u32::MAX);
            let lo = intervals.start(iv);
            for d in intervals.range(iv) {
                let bucket = if cfg.fold_scatter { idx(d - lo) / page_cap } else { 0 };
                slot_lut.push(to_u32("slot", base + bucket).unwrap_or(u32::MAX));
            }
            slot_interval.resize(bucket_base[i + 1], iv);
        }
        Ok(MultiLog {
            ssd,
            intervals,
            files,
            write_side: 0,
            tops: vec![Vec::new(); total_slots],
            bucket_base,
            slot_lut,
            slot_interval,
            top_records: vec![0; n],
            pressure_records: 0,
            evict_every: cap_pages.saturating_sub(n).max(1) * page_cap,
            sealed: Vec::new(),
            counts: vec![0; n],
            dest_seen: BitSet::new(num_vertices),
            cap_pages,
            page_cap,
            stats: MultiLogStats::default(),
            updates_read: Arc::new(RelaxedCounter::new(0)),
            bytes_per_interval: vec![0; n],
        })
    }

    pub fn stats(&self) -> MultiLogStats {
        MultiLogStats {
            updates_read: self.updates_read.get(),
            ..self.stats
        }
    }

    /// Cumulative encoded bytes appended to each interval's log (indexed
    /// by interval id; same counting as `stats().bytes_appended`).
    pub fn bytes_appended_per_interval(&self) -> &[u64] {
        &self.bytes_per_interval
    }

    /// A read-side handle for this superstep (see [`LogReader`]).
    pub fn reader(&self) -> LogReader {
        let side = 1 - self.write_side;
        LogReader {
            ssd: Arc::clone(&self.ssd),
            files: self.files.iter().map(|f| f[side]).collect(),
            intervals: self.intervals.clone(),
            updates_read: Arc::clone(&self.updates_read),
            take_audit: (0..self.files.len())
                .map(|_| Tracked::new("LogReader::take_log interval", ()))
                .collect(),
        }
    }

    pub fn intervals(&self) -> &VertexIntervals {
        &self.intervals
    }

    /// The interval a message for `dest` is logged to — O(1), the routing
    /// [`Self::send`] uses. The engine's process workers route their sends
    /// with it before handing each interval's slice to
    /// [`Self::send_batch`].
    #[inline]
    pub fn interval_of(&self, dest: VertexId) -> IntervalId {
        self.slot_interval[idx(self.slot_lut[idx(dest)])]
    }

    /// Seal slot `s`'s full top page into `sealed`, handing back a buffer
    /// with one page of capacity so the next fill never reallocates.
    fn seal_full_slot(&mut self, i: IntervalId, s: usize) {
        let full = std::mem::replace(&mut self.tops[s], Vec::with_capacity(self.page_cap));
        self.top_records[idx(i)] -= self.page_cap;
        self.sealed.push((i, full));
    }

    /// The paper's `SendUpdate(v_dest, m)` tail half: append to the top
    /// page of the destination's interval log (folded: to the
    /// destination-page bucket within it). Fallible: memory pressure may
    /// force an eviction flush to the device.
    pub fn send(&mut self, u: Update) -> Result<(), DeviceError> {
        let s = idx(self.slot_lut[idx(u.dest)]);
        let i = idx(self.slot_interval[s]);
        self.counts[i] += 1;
        self.dest_seen.set(idx(u.dest));
        self.stats.updates_logged += 1;
        self.tops[s].push(u);
        self.top_records[i] += 1;
        if self.tops[s].len() == self.page_cap {
            self.seal_full_slot(i as IntervalId, s);
        }
        self.note_appended(1)
    }

    /// Advance the pressure counter by `k` freshly appended records and
    /// flush when a budget's worth accumulated. Subtracting the period
    /// (rather than zeroing) keeps the flush points exact multiples of the
    /// period, so per-record and per-slice appenders agree on the count.
    fn note_appended(&mut self, k: usize) -> Result<(), DeviceError> {
        self.pressure_records += k;
        while self.pressure_records >= self.evict_every {
            self.pressure_records -= self.evict_every;
            self.evict()?;
        }
        Ok(())
    }

    /// Buffered-send tail for the engine's update scatter: append a slice
    /// of updates already routed to interval `i`, preserving slice order,
    /// minus the per-update routing and pressure bookkeeping. The slice is
    /// appended in pieces and the pressure ledger advances once per piece:
    ///
    /// * A bucketed (folded, multi-page) interval cuts its pieces exactly
    ///   at eviction points, so it is equivalent to calling [`Self::send`]
    ///   on each update — an eviction sees exactly the records a
    ///   per-update sender would have appended when it fired.
    /// * A single-slot interval cuts its pieces at page boundaries, so a
    ///   piece that runs past an eviction point and fills its page lets
    ///   that eviction flush the page, where per-update sends would flush
    ///   it at the next one. The eviction count and totals match per-update
    ///   sends; in an unfolded unit so do the page bytes, as an unfolded
    ///   eviction never seals a partial top (`cap_pages` stays above one
    ///   page per interval). This flush pattern is the established one:
    ///   the on-device write batches, and with them simulated write time,
    ///   are pinned to it.
    pub fn send_batch(&mut self, i: IntervalId, ups: &[Update]) -> Result<(), DeviceError> {
        debug_assert!(
            ups.iter().all(|u| self.interval_of(u.dest) == i),
            "send_batch: updates must be pre-routed to interval {i}"
        );
        let ii = idx(i);
        self.counts[ii] += to_u64(ups.len());
        self.stats.updates_logged += to_u64(ups.len());
        // An interval narrower than one destination page has a single
        // bucket, where bucketing equals insertion order.
        let bucketed = self.bucket_base[ii + 1] - self.bucket_base[ii] > 1;
        let slot = self.bucket_base[ii];
        let mut rest = ups;
        while !rest.is_empty() {
            let room = if bucketed {
                self.evict_every - self.pressure_records
            } else {
                self.page_cap - self.tops[slot].len()
            };
            let (now, later) = rest.split_at(room.min(rest.len()));
            for u in now {
                self.dest_seen.set(idx(u.dest));
            }
            self.top_records[ii] += now.len();
            if bucketed {
                // Sort-reduce folding: each record goes to its
                // destination-page bucket. The bucketing is the sort —
                // full buckets seal as destination-clustered pages, and
                // the read side only needs a per-interval counting pass.
                for &u in now {
                    let s = idx(self.slot_lut[idx(u.dest)]);
                    self.tops[s].push(u);
                    if self.tops[s].len() == self.page_cap {
                        self.seal_full_slot(i, s);
                    }
                }
            } else {
                self.tops[slot].extend_from_slice(now);
                if self.tops[slot].len() == self.page_cap {
                    self.seal_full_slot(i, slot);
                }
            }
            self.note_appended(now.len())?;
            rest = later;
        }
        Ok(())
    }

    /// Whether a message bound for `v` has been logged this superstep
    /// (known next-superstep activity, §V-C).
    pub fn dest_seen(&self, v: VertexId) -> bool {
        self.dest_seen.get(idx(v))
    }

    /// Pages currently buffered in host memory: sealed full pages plus each
    /// interval's top records rounded up to page units. Sealed pages hold
    /// exactly `page_cap` records, so the sum per interval telescopes to
    /// `ceil(buffered records / page_cap)` — the same value whatever bucket
    /// layout the records sit in (for an unfolded unit this is bit-identical
    /// to the historical "sealed + non-empty tops" count).
    pub fn buffered_pages(&self) -> usize {
        self.sealed.len()
            + self
                .top_records
                .iter()
                .map(|&r| r.div_ceil(self.page_cap))
                .sum::<usize>()
    }

    /// Messages logged (pending) per interval this superstep.
    pub fn pending_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The current *write-side* log extent of every interval: this
    /// superstep's append targets, consumed (and truncated) during the
    /// next superstep. The engine arms the device's append retention on
    /// exactly these files (DESIGN.md §18), so a budget-bounded tail of
    /// freshly flushed log pages stays in the pinned tier until it is
    /// read back.
    pub fn write_side_files(&self) -> Vec<FileId> {
        self.files.iter().map(|f| f[self.write_side]).collect()
    }

    /// Every log extent of every interval, both sides — the drive-entry
    /// cleanup set for pinned-tier bookkeeping.
    pub fn all_log_files(&self) -> Vec<FileId> {
        self.files.iter().flat_map(|f| [f[0], f[1]]).collect()
    }

    /// Move every buffered top record into `sealed`, interval by interval.
    /// Folded intervals pack their partial buckets — in bucket order, so
    /// records stay destination-clustered — into full pages before a final
    /// partial one; an unfolded interval's single top is one partial page,
    /// exactly as before.
    fn seal_all_tops(&mut self) {
        for ii in 0..self.files.len() {
            let mut pending: Vec<Update> = Vec::new();
            for s in self.bucket_base[ii]..self.bucket_base[ii + 1] {
                pending.append(&mut self.tops[s]);
            }
            for chunk in pending.chunks(self.page_cap) {
                self.sealed.push((ii as IntervalId, chunk.to_vec()));
            }
            self.top_records[ii] = 0;
        }
    }

    fn evict(&mut self) -> Result<(), DeviceError> {
        self.stats.evictions += 1;
        self.flush_sealed()?;
        if self.buffered_pages() > self.cap_pages {
            // Still over: flush every non-empty top page too.
            self.seal_all_tops();
            self.flush_sealed()?;
        }
        Ok(())
    }

    fn flush_sealed(&mut self) -> Result<(), DeviceError> {
        if self.sealed.is_empty() {
            return Ok(());
        }
        let page_size = self.ssd.page_size();
        let side = self.write_side;
        // The sealed record buffers are freed only once the pages are
        // stored: freeing each one between page-buffer allocations
        // interleaves the two chunk sizes in the heap and raises peak RSS.
        let sealed = std::mem::take(&mut self.sealed);
        let mut appended: Vec<(IntervalId, u64)> = Vec::with_capacity(sealed.len());
        let writes: Vec<(FileId, Vec<u8>)> = sealed
            .iter()
            .map(|(i, ups)| {
                appended.push((*i, to_u64(4 + ups.len() * UPDATE_BYTES)));
                (self.files[idx(*i)][side], encode_zero_padded(ups, page_size, page_size))
            })
            .collect();
        self.ssd.append_scattered(writes)?;
        drop(sealed);
        for &(i, bytes) in &appended {
            self.stats.bytes_appended += bytes;
            self.bytes_per_interval[idx(i)] += bytes;
        }
        self.stats.pages_flushed += to_u64(appended.len());
        Ok(())
    }

    /// End-of-superstep flush: every buffered page goes to its log file.
    /// Returns the per-interval pending message counts (the fusing input
    /// for the next superstep) and resets counters and the seen bit vector.
    pub fn finish_superstep(&mut self) -> Result<Vec<u64>, DeviceError> {
        self.seal_all_tops();
        self.flush_sealed()?;
        self.pressure_records = 0;
        self.dest_seen.clear();
        // Flip roles: what was written becomes readable next superstep.
        self.write_side = 1 - self.write_side;
        Ok(std::mem::replace(&mut self.counts, vec![0; self.files.len()]))
    }

    /// Raw read-side log pages per interval, *without* consuming them —
    /// the checkpoint path. Pages are returned exactly as stored
    /// (log-encoded), so restoring them preserves page boundaries and,
    /// with them, record order and post-resume I/O shape. The whole page
    /// is checkpoint payload, so each page counts as fully useful.
    pub fn snapshot_pending(&self) -> Result<Vec<Vec<Vec<u8>>>, DeviceError> {
        let side = 1 - self.write_side;
        let page_size = self.ssd.page_size();
        let mut out = Vec::with_capacity(self.files.len());
        for f in &self.files {
            out.push(self.ssd.read_all(f[side], |_| page_size)?);
        }
        Ok(out)
    }

    /// Inverse of [`Self::snapshot_pending`]: place checkpointed log pages
    /// back on the read side and return the per-interval pending record
    /// counts (what [`Self::finish_superstep`] returned when the snapshot
    /// was taken). Records are re-counted through the torn-tolerant
    /// decoder, so a tail that does not decode into whole records (see
    /// [`crate::DecodeError`]) is truncated rather than trusted.
    pub fn restore_pending(&mut self, snapshot: &[Vec<Vec<u8>>]) -> Result<Vec<u64>, DeviceError> {
        assert_eq!(snapshot.len(), self.files.len(), "snapshot interval count mismatch");
        let side = 1 - self.write_side;
        let mut counts = vec![0u64; self.files.len()];
        for (i, pages) in snapshot.iter().enumerate() {
            let file = self.files[i][side];
            self.ssd.truncate(file)?;
            if pages.is_empty() {
                continue;
            }
            let refs: Vec<&[u8]> = pages.iter().map(|p| p.as_slice()).collect();
            self.ssd.append_pages(file, &refs)?;
            let mut decoded = Vec::new();
            for p in pages {
                decode_log_page(p, &mut decoded);
            }
            counts[i] = to_u64(decoded.len());
        }
        Ok(counts)
    }

    /// Asynchronous-model drain (paper §V-F: "the latest updates from the
    /// source vertices will be delivered to the target vertices, either
    /// from the current superstep or the previous one"): consume every
    /// update logged for interval `i` *during the current superstep* —
    /// flushed write-side pages, sealed pages, and the top page — in log
    /// order. Pending counters are rolled back so the consumed updates are
    /// not double-scheduled for the next superstep.
    pub fn take_log_current(&mut self, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        let mut out = Vec::new();
        let file = self.files[idx(i)][self.write_side];
        if self.ssd.num_pages(file)? > 0 {
            let pages = self.ssd.read_all(file, |_| 0)?;
            let mut useful = 0u64;
            for p in &pages {
                useful += to_u64(decode_log_page(p, &mut out));
            }
            self.ssd.declare_useful(useful);
            self.ssd.truncate(file)?;
        }
        let sealed = std::mem::take(&mut self.sealed);
        for (j, ups) in sealed {
            if j == i {
                out.extend(ups);
            } else {
                self.sealed.push((j, ups));
            }
        }
        for s in self.bucket_base[idx(i)]..self.bucket_base[idx(i) + 1] {
            out.append(&mut self.tops[s]);
        }
        self.top_records[idx(i)] = 0;
        self.counts[idx(i)] -= to_u64(out.len());
        self.updates_read.add(to_u64(out.len()));
        Ok(out)
    }

    /// Consume interval `i`'s log: read every page (full channel-parallel
    /// batch), decode in log order, truncate the file. Useful bytes are
    /// declared from the in-page record counts.
    pub fn take_log(&mut self, i: IntervalId) -> Result<Vec<Update>, DeviceError> {
        let out = drain_file(&self.ssd, self.files[idx(i)][1 - self.write_side])?;
        self.updates_read.add(to_u64(out.len()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlvc_gen::rng::SeededRng;
    use mlvc_ssd::SsdConfig;

    fn setup(buffer_bytes: usize) -> MultiLog {
        setup_fold(buffer_bytes, false)
    }

    fn setup_fold(buffer_bytes: usize, fold_scatter: bool) -> MultiLog {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        // 256-byte pages: 15 records per page.
        let iv = VertexIntervals::uniform(100, 4);
        MultiLog::new(ssd, iv, MultiLogConfig { buffer_bytes, fold_scatter }, "t").unwrap()
    }

    #[test]
    fn page_capacity_math() {
        assert_eq!(page_record_capacity(256), 15);
        assert_eq!(page_record_capacity(16 * 1024), 1023);
    }

    #[test]
    fn encode_decode_page_roundtrip() {
        let ups: Vec<Update> = (0..15).map(|k| Update::new(k, k + 1, k as u64 * 99)).collect();
        let page = encode_log_page(&ups, 256);
        let mut out = Vec::new();
        let useful = decode_log_page(&page, &mut out);
        assert_eq!(out, ups);
        assert_eq!(useful, 4 + 15 * 16);
    }

    #[test]
    fn messages_route_to_destination_interval() {
        let mut ml = setup(1 << 20);
        // Intervals of 25 vertices each: dest 60 -> interval 2.
        ml.send(Update::new(60, 1, 7)).unwrap();
        ml.send(Update::new(0, 2, 8)).unwrap();
        ml.send(Update::new(99, 3, 9)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(ml.take_log(2).unwrap(), vec![Update::new(60, 1, 7)]);
        assert_eq!(ml.take_log(0).unwrap(), vec![Update::new(0, 2, 8)]);
        assert_eq!(ml.take_log(3).unwrap(), vec![Update::new(99, 3, 9)]);
        assert!(ml.take_log(1).unwrap().is_empty());
    }

    #[test]
    fn log_preserves_insertion_order() {
        let mut ml = setup(1 << 20);
        // 40 messages to interval 0, spanning several pages (15/page).
        let sent: Vec<Update> = (0..40).map(|k| Update::new(k % 25, k, k as u64)).collect();
        for &u in &sent {
            ml.send(u).unwrap();
        }
        ml.finish_superstep().unwrap();
        assert_eq!(ml.take_log(0).unwrap(), sent);
    }

    #[test]
    fn inserted_equals_retrieved_under_eviction_pressure() {
        // Tiny buffer (the cap floor of intervals + one eviction batch
        // still applies): enough traffic to overflow it repeatedly.
        let mut ml = setup(4 * 256);
        let mut sent_per_interval = vec![Vec::new(); 4];
        for k in 0..3000u32 {
            let u = Update::new(k % 100, k, (k as u64) << 3);
            sent_per_interval[(k % 100 / 25) as usize].push(u);
            ml.send(u).unwrap();
        }
        let counts = ml.finish_superstep().unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 3000);
        assert!(ml.stats().evictions > 0, "pressure must trigger evictions");
        for i in 0..4u32 {
            let got = ml.take_log(i).unwrap();
            assert_eq!(got, sent_per_interval[i as usize], "interval {i}");
        }
    }

    #[test]
    fn dest_seen_tracks_current_superstep() {
        let mut ml = setup(1 << 20);
        assert!(!ml.dest_seen(42));
        ml.send(Update::new(42, 0, 1)).unwrap();
        assert!(ml.dest_seen(42));
        ml.finish_superstep().unwrap();
        assert!(!ml.dest_seen(42), "cleared at superstep end");
    }

    #[test]
    fn counts_reset_after_finish() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(1, 0, 0)).unwrap();
        ml.send(Update::new(2, 0, 0)).unwrap();
        assert_eq!(ml.pending_counts()[0], 2);
        let counts = ml.finish_superstep().unwrap();
        assert_eq!(counts[0], 2);
        assert_eq!(ml.pending_counts()[0], 0);
    }

    #[test]
    fn take_log_consumes() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(5, 0, 1)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(ml.take_log(0).unwrap().len(), 1);
        assert!(ml.take_log(0).unwrap().is_empty(), "second take finds nothing");
    }

    #[test]
    fn take_log_current_drains_this_superstep_only() {
        let mut ml = setup(4 * 256);
        // Previous superstep's messages for interval 0.
        ml.send(Update::new(1, 0, 11)).unwrap();
        ml.finish_superstep().unwrap();
        // Current superstep: more messages to interval 0, enough to flush
        // pages plus leave a partial top.
        let current: Vec<Update> = (0..40).map(|k| Update::new(k % 25, k, k as u64)).collect();
        for &u in &current {
            ml.send(u).unwrap();
        }
        // Async drain returns exactly the current superstep's messages, in
        // order, without touching the read side.
        let got = ml.take_log_current(0).unwrap();
        assert_eq!(got, current);
        assert_eq!(ml.pending_counts()[0], 0, "counter rolled back");
        assert_eq!(ml.take_log(0).unwrap(), vec![Update::new(1, 0, 11)], "read side intact");
        // Nothing left on either side for interval 0.
        assert!(ml.take_log_current(0).unwrap().is_empty());
        ml.finish_superstep().unwrap();
        assert!(ml.take_log(0).unwrap().is_empty());
    }

    #[test]
    fn send_batch_matches_per_update_send() {
        // One 1000-update slice into one interval of an unfolded unit, whose
        // only eviction point falls on a page boundary: identical stats and
        // buffered pages before the flush, identical log contents after.
        let mut a = setup(4 * 256);
        let mut b = setup(4 * 256);
        let ups: Vec<Update> =
            (0..1000u32).map(|k| Update::new(k % 25, k, (k as u64) * 3)).collect();
        for &u in &ups {
            a.send(u).unwrap();
        }
        b.send_batch(0, &ups).unwrap();
        assert_eq!(a.stats().evictions, 1);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.pending_counts(), b.pending_counts());
        assert_eq!(a.buffered_pages(), b.buffered_pages());
        assert!(b.dest_seen(7));
        a.finish_superstep().unwrap();
        b.finish_superstep().unwrap();
        assert_eq!(a.take_log(0).unwrap(), b.take_log(0).unwrap());

        // Random slices in both log layouts: identical stats (page seals,
        // evictions) and bit-identical raw log pages at the end, and
        // identical stats and buffered pages after every slice — except,
        // unfolded, while an eviction point fell strictly inside a page
        // piece that went on to fill its page (see `send_batch`). Intervals
        // of 600 vertices hold 40 destination-page buckets each, so many
        // partial buckets are live at once; random slice lengths put
        // eviction points mid-slice, and — folded — enough partial buckets
        // pile up that evictions also seal and flush every top mid-slice.
        for fold in [false, true] {
            let unit = || {
                let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
                let iv = VertexIntervals::uniform(4800, 8);
                MultiLog::new(ssd, iv, MultiLogConfig { buffer_bytes: 4 * 256, fold_scatter: fold }, "t")
                    .unwrap()
            };
            let (mut a, mut b) = (unit(), unit());
            let mut rng = SeededRng::seed_from_u64(0x5CA7_7E12);
            let (mut mid_slice_evictions, mut mid_slice_full_flushes) = (0, 0);
            // Unfolded only: `b` flushed a just-filled page at an eviction
            // where `a` flushes it at the next one.
            let mut early = false;
            let (mut in_step_slices, mut early_slices) = (0, 0);
            for _ in 0..400 {
                let i = rng.gen_range(0u32..8);
                let span = a.intervals().range(i);
                let len = rng.gen_range(1u32..120);
                let ups: Vec<Update> = (0..len)
                    .map(|k| Update::new(rng.gen_range(span.clone()), k, rng.next_u64()))
                    .collect();
                for (k, &u) in ups.iter().enumerate() {
                    let before = a.stats().evictions;
                    a.send(u).unwrap();
                    if a.stats().evictions > before {
                        let left = ups.len() - k - 1;
                        if left > 0 {
                            mid_slice_evictions += 1;
                            // Only an eviction that also sealed and flushed
                            // every top leaves nothing buffered.
                            if a.buffered_pages() == 0 {
                                mid_slice_full_flushes += 1;
                            }
                        }
                        if !fold {
                            // `b`'s piece runs on to the page boundary; if
                            // that lies inside the slice, the page is sealed
                            // before `b`'s eviction fires.
                            let t = a.top_records[idx(i)];
                            early = t > 0 && left >= a.page_cap - t;
                        }
                    }
                }
                b.send_batch(i, &ups).unwrap();
                assert_eq!(a.stats().evictions, b.stats().evictions);
                if early {
                    early_slices += 1;
                    assert_eq!(a.stats().pages_flushed + 1, b.stats().pages_flushed);
                    assert_eq!(a.buffered_pages(), b.buffered_pages() + 1);
                } else {
                    in_step_slices += 1;
                    assert_eq!(a.stats(), b.stats(), "fold={fold}");
                    assert_eq!(a.buffered_pages(), b.buffered_pages(), "fold={fold}");
                }
            }
            assert!(mid_slice_evictions > 0, "fold={fold}: no eviction fell mid-slice");
            if fold {
                assert!(mid_slice_full_flushes > 0, "no top flush fell mid-slice");
                assert_eq!(early_slices, 0);
            } else {
                assert!(early_slices > 0, "no eviction fell inside a filling page piece");
                assert!(in_step_slices > 0, "no unfolded slice ended in step");
            }
            assert_eq!(a.pending_counts(), b.pending_counts());
            assert!((0..4800).all(|v| a.dest_seen(v) == b.dest_seen(v)));
            a.finish_superstep().unwrap();
            b.finish_superstep().unwrap();
            assert_eq!(a.stats(), b.stats(), "fold={fold}");
            assert_eq!(
                a.snapshot_pending().unwrap(),
                b.snapshot_pending().unwrap(),
                "fold={fold}: raw log pages differ"
            );
        }
    }

    #[test]
    fn out_of_interval_record_is_a_typed_error() {
        // A log page of interval 1 ([25, 50)) carrying a record addressed
        // below, above, and far outside the interval: every sorted drain
        // reports a typed corruption error instead of indexing out of
        // bounds (or wrapping the offset).
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(Arc::clone(&ssd), iv, MultiLogConfig::default(), "t").unwrap();
        let mut sg = crate::SortGroup::new(1 << 20);
        sg.set_fold_merge(true);
        for bad in [3u32, 70, VertexId::MAX] {
            let page = encode_log_page(&[Update::new(30, 0, 1), Update::new(bad, 0, 2)], 256);
            let snapshot = vec![Vec::new(), vec![page], Vec::new(), Vec::new()];
            let is_corrupt =
                |e: DeviceError| matches!(e, DeviceError::Corrupt { detail, .. } if detail.contains(&bad.to_string()));

            assert_eq!(ml.restore_pending(&snapshot).unwrap(), vec![0, 2, 0, 0]);
            assert!(is_corrupt(ml.reader().take_log_sorted(1).unwrap_err()), "dest {bad}");

            ml.restore_pending(&snapshot).unwrap();
            assert!(is_corrupt(sg.load_batch(&ml.reader(), 0..2).unwrap_err()), "dest {bad}");

            ml.restore_pending(&snapshot).unwrap();
            let r = ml.reader();
            let plan = r.plan_reads(0..2).unwrap();
            let pages = ssd.read_batch(&plan.reqs).unwrap();
            assert!(is_corrupt(sg.load_batch_prefetched(&r, &plan, &pages).unwrap_err()), "dest {bad}");
        }
    }

    #[test]
    fn folded_append_matches_unfolded_sorted_drain() {
        // Same traffic into an unfolded and a folded unit, under eviction
        // pressure: identical counters and bit-identical dest-sorted
        // drains (the fold only changes page layout, never content).
        let mut a = setup(4 * 256);
        let mut b = setup_fold(4 * 256, true);
        for k in 0..3000u32 {
            let u = Update::new((k * 7) % 100, k, (k as u64) << 2);
            a.send(u).unwrap();
            b.send(u).unwrap();
        }
        let ca = a.finish_superstep().unwrap();
        let cb = b.finish_superstep().unwrap();
        assert_eq!(ca, cb);
        assert_eq!(a.stats().updates_logged, b.stats().updates_logged);
        assert!(b.stats().evictions > 0, "pressure must trigger evictions");
        let (ra, rb) = (a.reader(), b.reader());
        for i in 0..4u32 {
            let got = rb.take_log_sorted(i).unwrap();
            assert_eq!(got, ra.take_log_sorted(i).unwrap(), "interval {i}");
            assert!(got.windows(2).all(|w| w[0].dest <= w[1].dest));
        }
        assert_eq!(a.stats().updates_read, b.stats().updates_read);
    }

    #[test]
    fn reader_drains_read_side_and_counts_into_stats() {
        let mut ml = setup(1 << 20);
        ml.send(Update::new(60, 1, 7)).unwrap();
        ml.finish_superstep().unwrap();
        let r = ml.reader();
        assert_eq!(r.take_log(2).unwrap(), vec![Update::new(60, 1, 7)]);
        assert!(r.take_log(2).unwrap().is_empty(), "reader consumes the log");
        assert!(r.take_log(0).unwrap().is_empty());
        assert_eq!(ml.stats().updates_read, 1, "reads flow into owner stats");
    }

    #[test]
    fn flush_batches_across_channels() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let iv = VertexIntervals::uniform(100, 4);
        let mut ml = MultiLog::new(
            Arc::clone(&ssd),
            iv,
            MultiLogConfig { buffer_bytes: 1 << 20, ..MultiLogConfig::default() },
            "t",
        )
        .unwrap();
        for k in 0..100u32 {
            ml.send(Update::new(k, 0, 0)).unwrap();
        }
        ssd.stats().reset();
        ml.finish_superstep().unwrap();
        let s = ssd.stats().snapshot();
        assert!(s.pages_written >= 4, "one page per touched interval");
        assert_eq!(s.write_batches, 1, "single scattered dispatch");
    }

    #[test]
    fn bytes_appended_accounting_per_interval() {
        // 100 vertices over 4 intervals of 25 — interval i is [25i, 25i+25).
        let mut ml = setup(1 << 20);
        assert_eq!(ml.stats().bytes_appended, 0);
        assert_eq!(ml.bytes_appended_per_interval(), &[0, 0, 0, 0]);
        // 3 updates into interval 0, 1 into interval 2.
        for dest in [0u32, 5, 24, 70] {
            ml.send(Update::new(dest, 1, 0)).unwrap();
        }
        ml.finish_superstep().unwrap();
        let per = ml.bytes_appended_per_interval().to_vec();
        assert_eq!(per[0], to_u64(4 + 3 * UPDATE_BYTES), "header + 3 records");
        assert_eq!(per[1], 0);
        assert_eq!(per[2], to_u64(4 + UPDATE_BYTES));
        assert_eq!(per[3], 0);
        assert_eq!(ml.stats().bytes_appended, per.iter().sum::<u64>());
        // Accounting is cumulative across supersteps and agrees between
        // the per-interval view and the total.
        ml.send(Update::new(99, 9, 9)).unwrap();
        ml.finish_superstep().unwrap();
        assert_eq!(
            ml.stats().bytes_appended,
            ml.bytes_appended_per_interval().iter().sum::<u64>()
        );
        assert_eq!(ml.bytes_appended_per_interval()[3], to_u64(4 + UPDATE_BYTES));
    }
}
