use std::ops::Range;

use mlvc_ssd::{DeviceError, FileId};

use crate::checked::{idx, mem_idx, to_u32, to_u64};
use crate::structural::patch_tail;
use crate::{
    IntervalId, StoredGraph, StructuralUpdate, StructuralUpdateBuffer, VertexId, COL_IDX_BYTES,
    ROW_PTR_BYTES,
};

/// Adjacency of a sorted active-vertex list as filled by
/// [`GraphLoader::load_active`]: vertex `k` of the list owns
/// `edges[offsets[k]..offsets[k + 1]]` (and the same range of `weights`).
/// The loader keeps one instance and refills it on every call, so the
/// buffers are allocated once per run, not once per vertex.
#[derive(Debug, Default)]
pub struct LoadedAdjacency {
    offsets: Vec<usize>,
    edges: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    /// Column-index pages of the interval extent holding each vertex's
    /// edges (`None` for zero-degree vertices). The edge-log optimizer
    /// keys its page-efficiency decision on this span.
    pages: Vec<Option<(u64, u64)>>,
}

impl LoadedAdjacency {
    /// Empty the buffers, keeping their capacity.
    fn reset(&mut self, weighted: bool) {
        self.offsets.clear();
        self.offsets.push(0);
        self.edges.clear();
        self.pages.clear();
        match (&mut self.weights, weighted) {
            (Some(w), true) => w.clear(),
            (w, true) => *w = Some(Vec::new()),
            (w, false) => *w = None,
        }
    }

    /// Number of vertices loaded.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total adjacency entries loaded, over all vertices.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbors of the `k`-th loaded vertex.
    pub fn edges(&self, k: usize) -> &[VertexId] {
        &self.edges[self.offsets[k]..self.offsets[k + 1]]
    }

    /// Edge weights of the `k`-th loaded vertex, parallel to
    /// [`Self::edges`]; `None` unless weights were requested and stored.
    pub fn weights(&self, k: usize) -> Option<&[f32]> {
        self.weights.as_deref().map(|w| &w[self.offsets[k]..self.offsets[k + 1]])
    }

    /// Column-index page span `(first, last)` of the `k`-th loaded vertex,
    /// `None` when it has no stored edges.
    pub fn page_span(&self, k: usize) -> Option<(u64, u64)> {
        self.pages[k]
    }
}

/// Utilization of one column-index page accessed during a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageUsage {
    pub file: FileId,
    pub page: u64,
    /// Useful adjacency bytes consumed from this page.
    pub useful_bytes: u32,
    /// Page capacity in bytes.
    pub page_bytes: u32,
}

impl PageUsage {
    /// Fraction of the page that was actually needed.
    pub fn utilization(&self) -> f64 {
        self.useful_bytes as f64 / self.page_bytes as f64
    }
}

/// The Graph Loader Unit (paper §V-B2).
///
/// "The graph data unit loops over the row pointer array for the range of
/// vertices in the active vertex list ... For the vertices active in the row
/// pointer buffer, vertex data required by the application, such as
/// out-edges or in-edges, are fetched from the colIdx or val vectors stored
/// in the SSD, accessing **only the pages in SSD that have active vertex
/// data**."
///
/// One call is a single forward pass over the sorted active list. The
/// list is sorted and row pointers are monotone, so the row-pointer and
/// column-index page requests come out in page order and are built by
/// merging into the last request — no hashing, no sort. The adjacency is
/// then decoded page run by page run into the loader's one reusable
/// [`LoadedAdjacency`], which the call returns by reference. A row
/// pointer that breaks monotonicity, or points past its column-index
/// extent, is reported as [`DeviceError::Corrupt`].
///
/// The loader also accumulates per-page utilization of the column-index
/// extents it touches. That record serves two consumers:
/// * the paper's Fig. 3 measurement (fraction of accessed pages with <10%
///   utilization), and
/// * the edge-log optimizer's page-efficiency predictor (§V-C), which uses
///   the *current* superstep's utilization to predict the next one's.
#[derive(Default)]
pub struct GraphLoader {
    adj: LoadedAdjacency,
    /// `(file, page, useful bytes)` of every column-index request since
    /// the last [`Self::take_page_usage`], in request order.
    colidx_usage: Vec<(FileId, u64, u32)>,
    /// Reused request lists and per-vertex `[lo, hi)` column ranges.
    rp_reqs: Vec<(FileId, u64, usize)>,
    ci_reqs: Vec<(FileId, u64, usize)>,
    ranges: Vec<(u64, u64)>,
    rowptr_pages_read: u64,
    colidx_pages_read: u64,
    vertices_loaded: u64,
    edges_loaded: u64,
}

/// Add `useful` bytes of `page` to a request list built in page order:
/// merge into the last request when it is the same page, else append.
fn add_useful(reqs: &mut Vec<(FileId, u64, usize)>, file: FileId, page: u64, useful: usize) {
    match reqs.last_mut() {
        Some(last) if last.1 == page => last.2 += useful,
        _ => reqs.push((file, page, useful)),
    }
}

/// The per-page pieces of the byte range `[lo, hi)`: each touched page
/// with the offsets of its share, in page order.
fn page_runs(lo: u64, hi: u64, psz: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    let first = lo / psz;
    let end = if hi > lo { (hi - 1) / psz + 1 } else { first };
    (first..end).map(move |page| {
        let base = page * psz;
        // Both offsets are bounded by the page size, so they fit usize.
        (page, mem_idx(lo.max(base) - base)..mem_idx(hi.min(base + psz) - base))
    })
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; ROW_PTR_BYTES];
    a.copy_from_slice(b);
    u64::from_le_bytes(a)
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; COL_IDX_BYTES];
    a.copy_from_slice(b);
    u32::from_le_bytes(a)
}

impl GraphLoader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Load the out-adjacency of the given **sorted** active vertices of
    /// interval `i`. Only pages overlapping active vertex data are read,
    /// each exactly once per call. `patch` applies pending (un-merged)
    /// structural updates so callers always observe the current graph.
    /// The result is valid until the next call.
    pub fn load_active(
        &mut self,
        graph: &StoredGraph,
        i: IntervalId,
        active: &[VertexId],
        want_weights: bool,
        patch: Option<&StructuralUpdateBuffer>,
    ) -> Result<&LoadedAdjacency, DeviceError> {
        let val_file = if want_weights { graph.val_file(i) } else { None };
        self.adj.reset(val_file.is_some());
        if active.is_empty() {
            return Ok(&self.adj);
        }
        let ssd = graph.ssd();
        let page_size = ssd.page_size();
        let start = graph.intervals().start(i);
        let end = graph.intervals().end(i);
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "active must be sorted+unique");
        assert!(
            active[0] >= start && active.last().is_some_and(|&v| v < end),
            "vertex outside interval"
        );

        // --- Row pointers: entries (v-start) and (v-start+1) per vertex,
        // in increasing order. A shared entry of adjacent actives counts
        // its bytes twice, capped at the page size. ---
        let rp_file = graph.rowptr_file(i);
        let rp_per_page = page_size / ROW_PTR_BYTES;
        self.rp_reqs.clear();
        for &v in active {
            let j = idx(v - start);
            add_useful(&mut self.rp_reqs, rp_file, to_u64(j / rp_per_page), ROW_PTR_BYTES);
            add_useful(&mut self.rp_reqs, rp_file, to_u64((j + 1) / rp_per_page), ROW_PTR_BYTES);
        }
        for r in &mut self.rp_reqs {
            r.2 = r.2.min(page_size);
        }
        let rp_data = ssd.read_batch(&self.rp_reqs)?;
        self.rowptr_pages_read += to_u64(self.rp_reqs.len());

        // --- Column indices: byte range [lo*4, hi*4) per vertex. The
        // range must be non-decreasing, disjoint from the previous
        // active's, and inside the column-index extent, or this forward
        // walk would request pages twice or beyond the file. ---
        let ci_file = graph.colidx_file(i);
        let cib = to_u64(COL_IDX_BYTES);
        let psz = to_u64(page_size);
        let ci_entries = ssd.num_pages(ci_file)?.saturating_mul(psz / cib);
        self.ranges.clear();
        self.ci_reqs.clear();
        let mut k = 0usize;
        let mut prev_hi = 0u64;
        for &v in active {
            let mut entry = |e: usize| {
                let page = to_u64(e / rp_per_page);
                while self.rp_reqs[k].1 < page {
                    k += 1;
                }
                let off = (e % rp_per_page) * ROW_PTR_BYTES;
                le_u64(&rp_data[k][off..off + ROW_PTR_BYTES])
            };
            let j = idx(v - start);
            let (lo, hi) = (entry(j), entry(j + 1));
            if lo > hi || lo < prev_hi || hi > ci_entries {
                return Err(DeviceError::Corrupt {
                    file: rp_file,
                    detail: format!(
                        "row pointer of vertex {v} spans [{lo}, {hi}): not monotone after \
                         {prev_hi} or past the {ci_entries}-entry column index"
                    ),
                });
            }
            prev_hi = hi;
            self.ranges.push((lo, hi));
            for (page, run) in page_runs(lo * cib, hi * cib, psz) {
                add_useful(&mut self.ci_reqs, ci_file, page, run.len());
            }
        }
        for r in &mut self.ci_reqs {
            // Per-page useful bytes saturate at the u32 the predictor uses.
            let u = to_u32("page useful bytes", r.2).unwrap_or(u32::MAX);
            self.colidx_usage.push((ci_file, r.1, u));
            r.2 = r.2.min(page_size);
        }
        let ci_data = ssd.read_batch(&self.ci_reqs)?;
        self.colidx_pages_read += to_u64(self.ci_reqs.len());
        // Weights ride on a parallel extent with identical offsets.
        let val_data = match val_file {
            Some(vf) => {
                let reqs: Vec<(FileId, u64, usize)> =
                    self.ci_reqs.iter().map(|&(_, p, u)| (vf, p, u)).collect();
                Some(ssd.read_batch(&reqs)?)
            }
            None => None,
        };

        // --- Decode: a vertex's pages were all requested, in page order,
        // so one forward cursor finds each in the request list; each
        // page's share is copied as one `chunks_exact` run. Pending
        // structural updates are checked once per interval and patched
        // into the vertex's tail of the flat buffer only when present.
        // (`COL_IDX_BYTES` divides the page size, so entries never
        // straddle a page boundary.) ---
        let pending: &[StructuralUpdate] = patch.map_or(&[][..], |b| b.pending_for(i));
        let adj = &mut self.adj;
        let mut k = 0usize;
        for (&v, &(lo, hi)) in active.iter().zip(&self.ranges) {
            let from = adj.edges.len();
            let mut span: Option<(u64, u64)> = None;
            for (page, run) in page_runs(lo * cib, hi * cib, psz) {
                while self.ci_reqs[k].1 < page {
                    k += 1;
                }
                let ci = ci_data[k][run.clone()].chunks_exact(COL_IDX_BYTES);
                adj.edges.extend(ci.map(le_u32));
                if let (Some(w), Some(data)) = (adj.weights.as_mut(), val_data.as_ref()) {
                    let val = data[k][run].chunks_exact(COL_IDX_BYTES);
                    w.extend(val.map(|c| f32::from_bits(le_u32(c))));
                }
                span = Some((span.map_or(page, |s| s.0), page));
            }
            adj.pages.push(span);
            if !pending.is_empty() {
                patch_tail(pending, v, &mut adj.edges, from, adj.weights.as_mut());
            }
            adj.offsets.push(adj.edges.len());
        }
        self.edges_loaded += to_u64(adj.edges.len());
        self.vertices_loaded += to_u64(active.len());
        Ok(&self.adj)
    }

    /// Per-page utilization of column-index pages accessed since the last
    /// call, summed per page and sorted by `(file, page)`; clears the
    /// record (call once per superstep).
    pub fn take_page_usage(&mut self, page_size: usize) -> Vec<PageUsage> {
        let cap = to_u32("page size", page_size).unwrap_or(u32::MAX);
        self.colidx_usage.sort_unstable_by_key(|&(file, page, _)| (file, page));
        let mut v: Vec<PageUsage> = Vec::new();
        for (file, page, useful) in self.colidx_usage.drain(..) {
            match v.last_mut() {
                Some(last) if (last.file, last.page) == (file, page) => {
                    last.useful_bytes = last.useful_bytes.saturating_add(useful);
                }
                _ => v.push(PageUsage { file, page, useful_bytes: useful, page_bytes: cap }),
            }
        }
        for p in &mut v {
            p.useful_bytes = p.useful_bytes.min(cap);
        }
        v
    }

    pub fn rowptr_pages_read(&self) -> u64 {
        self.rowptr_pages_read
    }

    pub fn colidx_pages_read(&self) -> u64 {
        self.colidx_pages_read
    }

    pub fn vertices_loaded(&self) -> u64 {
        self.vertices_loaded
    }

    pub fn edges_loaded(&self) -> u64 {
        self.edges_loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_u64s, EdgeListBuilder, VertexIntervals};
    use mlvc_ssd::{Ssd, SsdConfig};
    use std::sync::Arc;

    /// 64 vertices in a ring plus some chords; 256-byte pages hold 64
    /// adjacency entries, so the colidx extents span multiple pages.
    fn stored() -> (Arc<Ssd>, StoredGraph) {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            b.push(v, (v + 1) % 64);
            b.push(v, (v + 7) % 64);
            b.push(v, (v + 31) % 64);
        }
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "ring", VertexIntervals::uniform(64, 4)).unwrap();
        (ssd, sg)
    }

    #[test]
    fn loads_exactly_the_requested_vertices() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[0, 3, 9], false, None).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got.edges(0), &[1, 7, 31]);
        assert_eq!(got.edges(2), &[10, 16, 40]);
        assert_eq!(got.num_edges(), 9);
        assert!(got.weights(0).is_none());
        assert_eq!(got.page_span(0), Some((0, 0)));
    }

    #[test]
    fn sparse_active_set_reads_fewer_pages_than_full_interval() {
        // One big interval: 64 vertices × 3 edges = 192 entries = 3 colidx
        // pages at 64 entries/page; 65 rowptr entries = 3 pages.
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(64);
        for v in 0..64u32 {
            b.push(v, (v + 1) % 64);
            b.push(v, (v + 7) % 64);
            b.push(v, (v + 31) % 64);
        }
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "one", VertexIntervals::uniform(64, 1)).unwrap();

        let mut l1 = GraphLoader::new();
        ssd.stats().reset();
        l1.load_active(&sg, 0, &[0], false, None).unwrap();
        let sparse = ssd.stats().snapshot().pages_read;

        ssd.stats().reset();
        let all: Vec<u32> = (0..64).collect();
        let mut l2 = GraphLoader::new();
        l2.load_active(&sg, 0, &all, false, None).unwrap();
        let full = ssd.stats().snapshot().pages_read;
        assert!(sparse < full, "sparse {sparse} vs full {full}");
        assert_eq!(sparse, 2, "one rowptr page + one colidx page");
        assert_eq!(full, 6);
    }

    #[test]
    fn page_usage_reflects_useful_bytes() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0], false, None).unwrap();
        let usage = loader.take_page_usage(256);
        // Vertex 0 has 3 edges = 12 bytes on one page.
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].useful_bytes, 12);
        assert!(usage[0].utilization() < 0.10, "inefficient page detected");
        // Record cleared after take.
        assert!(loader.take_page_usage(256).is_empty());
    }

    #[test]
    fn usage_accumulates_across_calls_within_a_superstep() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, &[0], false, None).unwrap();
        loader.load_active(&sg, 0, &[1], false, None).unwrap();
        let usage = loader.take_page_usage(256);
        assert_eq!(usage.len(), 1, "both vertices live on the same page");
        assert_eq!(usage[0].useful_bytes, 24);
    }

    #[test]
    fn counters_track_activity() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 1, &[16, 17, 18], false, None).unwrap();
        assert_eq!(loader.vertices_loaded(), 3);
        assert_eq!(loader.edges_loaded(), 9);
        assert!(loader.rowptr_pages_read() >= 1);
        assert!(loader.colidx_pages_read() >= 1);
    }

    #[test]
    fn empty_active_set_is_free() {
        let (ssd, sg) = stored();
        ssd.stats().reset();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[], false, None).unwrap();
        assert!(got.is_empty());
        assert_eq!(ssd.stats().snapshot().pages_read, 0);
    }

    #[test]
    fn weighted_load() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(8);
        b.push_weighted(0, 1, 1.5);
        b.push_weighted(0, 2, 2.5);
        b.push_weighted(4, 5, 4.5);
        let g = b.build();
        let sg = StoredGraph::store_with(&ssd, &g, "w", VertexIntervals::uniform(8, 2)).unwrap();
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[0], true, None).unwrap();
        assert_eq!(got.weights(0).unwrap(), &[1.5, 2.5]);
        let got = loader.load_active(&sg, 1, &[4], true, None).unwrap();
        assert_eq!(got.weights(0).unwrap(), &[4.5]);
        // The reused buffer drops its weights when a later call asks for none.
        let got = loader.load_active(&sg, 1, &[4], false, None).unwrap();
        assert!(got.weights(0).is_none());
    }

    #[test]
    fn reused_buffer_holds_only_the_latest_call() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let all: Vec<u32> = (16..32).collect();
        assert_eq!(loader.load_active(&sg, 1, &all, false, None).unwrap().num_edges(), 48);
        let got = loader.load_active(&sg, 2, &[40], false, None).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got.edges(0), &[41, 47, 7]);
        let got = loader.load_active(&sg, 2, &[], false, None).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.num_edges(), 0);
    }

    #[test]
    fn pending_updates_patch_each_vertex_tail_in_order() {
        let ssd = Arc::new(Ssd::new(SsdConfig::test_small()));
        let mut b = EdgeListBuilder::new(8);
        for (s, d, w) in [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 4, 4.0), (2, 5, 5.0)] {
            b.push_weighted(s, d, w);
        }
        let iv = VertexIntervals::uniform(8, 2);
        let sg = StoredGraph::store_with(&ssd, &b.build(), "pw", iv.clone()).unwrap();
        let mut buf = StructuralUpdateBuffer::new(iv, 100);
        for u in [
            StructuralUpdate::RemoveEdge { src: 2, dst: 4 },
            StructuralUpdate::AddEdge { src: 0, dst: 6 },
            StructuralUpdate::RemoveEdge { src: 0, dst: 1 },
            StructuralUpdate::AddEdge { src: 3, dst: 0 },
            // Removes never reach into a neighbouring vertex's entries.
            StructuralUpdate::RemoveEdge { src: 1, dst: 2 },
            StructuralUpdate::AddEdge { src: 6, dst: 7 },
        ] {
            buf.push(u);
        }
        let mut loader = GraphLoader::new();
        let got = loader.load_active(&sg, 0, &[0, 1, 2, 3], true, Some(&buf)).unwrap();
        assert_eq!(got.edges(0), &[2, 6]);
        assert_eq!(got.weights(0).unwrap(), &[2.0, 0.0]);
        assert_eq!(got.edges(1), &[3]);
        assert_eq!(got.edges(2), &[5]);
        assert_eq!(got.weights(2).unwrap(), &[5.0]);
        assert_eq!(got.edges(3), &[0]);
        assert_eq!(got.page_span(3), None, "no stored edges, so no page span");
        assert_eq!(loader.edges_loaded(), 5);
    }

    /// Overwrite interval 0's row-pointer page (17 entries) through the
    /// device and load `active`: the loader must return a typed corrupt
    /// error naming the row-pointer file and read no column-index page.
    fn corrupt_load(rowptr: &[u64], active: &[u32]) -> DeviceError {
        let (ssd, sg) = stored();
        let rp = sg.rowptr_file(0);
        let bytes: Vec<u8> = rowptr.iter().flat_map(|x| x.to_le_bytes()).collect();
        ssd.write_page(rp, 0, &bytes).unwrap();
        ssd.stats().reset();
        let mut loader = GraphLoader::new();
        let err = loader.load_active(&sg, 0, active, false, None).unwrap_err();
        assert!(matches!(err, DeviceError::Corrupt { file, .. } if file == rp), "{err:?}");
        assert_eq!(ssd.stats().snapshot().pages_read, 1, "only the row-pointer page");
        assert_eq!(loader.colidx_pages_read(), 0);
        err
    }

    #[test]
    fn corrupt_row_pointer_is_a_typed_error() {
        let (_ssd, sg) = stored();
        let good = read_u64s(sg.ssd(), sg.rowptr_file(0), 17).unwrap();
        assert_eq!(good, (0..17).map(|k| 3 * k).collect::<Vec<u64>>());
        // The stored page loads.
        GraphLoader::new().load_active(&sg, 0, &[0, 2, 5], false, None).unwrap();

        // Decreasing within one vertex: [9, 3).
        let mut bad = good.clone();
        bad[3] = 3;
        corrupt_load(&bad, &[2]);
        // Each vertex monotone, but vertex 2's range [1, 9) overlaps
        // vertex 0's [0, 3) — the walk would read page 0 twice.
        let mut bad = good.clone();
        bad[2] = 1;
        bad[3] = 9;
        corrupt_load(&bad, &[0, 2]);
        // Past the column-index extent (one 256-byte page = 64 entries),
        // including a value whose byte offset would overflow.
        let mut bad = good.clone();
        bad[6] = 65;
        corrupt_load(&bad, &[5]);
        bad[6] = u64::MAX;
        let err = corrupt_load(&bad, &[5]);
        assert!(err.to_string().contains("vertex 5"), "{err}");
    }

    #[test]
    #[should_panic]
    fn vertex_outside_interval_panics() {
        let (_ssd, sg) = stored();
        let mut loader = GraphLoader::new();
        let _ = loader.load_active(&sg, 0, &[60], false, None);
    }
}
