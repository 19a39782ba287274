//! Microbenchmarks of the storage layer: CSR construction, the selective
//! graph loader versus a full-interval scan, and raw simulated-SSD batch
//! reads.

use mlvc_bench::micro;
use mlvc_gen::RmatParams;
use mlvc_graph::{GraphLoader, StoredGraph, VertexIntervals};
use mlvc_ssd::{Ssd, SsdConfig};
use std::sync::Arc;

fn stored() -> (Arc<Ssd>, StoredGraph) {
    let ssd = Arc::new(Ssd::new(SsdConfig::default()));
    let g = mlvc_gen::rmat(RmatParams::social(12, 8), 7);
    let iv = VertexIntervals::uniform(g.num_vertices(), 8);
    let sg = StoredGraph::store_with(&ssd, &g, "bench", iv).unwrap();
    (ssd, sg)
}

fn main() {
    let p = RmatParams::social(12, 8);
    micro::case(
        "csr/rmat_build_scale12",
        10,
        Some(p.num_edges_target() as u64),
        || (),
        |()| mlvc_gen::rmat(p, 7),
    );

    let (_ssd, sg) = stored();
    let iv0 = sg.intervals().range(0);

    // Each case reports the adjacency entries it decodes as its element
    // count; the loader returns its reused flat buffer by reference, so a
    // sample yields just the count.
    let edges_of = |active: &[u32]| {
        let mut loader = GraphLoader::new();
        loader.load_active(&sg, 0, active, false, None).map(|a| a.num_edges() as u64).ok()
    };

    // 1% of interval 0's vertices, spread out.
    let sparse: Vec<u32> = iv0.clone().step_by(100).collect();
    micro::case("loader/selective_1pct", 30, edges_of(&sparse), GraphLoader::new, |mut loader| {
        loader.load_active(&sg, 0, &sparse, false, None).map(|a| a.num_edges())
    });

    let all: Vec<u32> = iv0.collect();
    micro::case("loader/full_interval", 30, edges_of(&all), GraphLoader::new, |mut loader| {
        loader.load_active(&sg, 0, &all, false, None).map(|a| a.num_edges())
    });

    let ssd = Ssd::new(SsdConfig::default());
    let f = ssd.open_or_create("raw").unwrap();
    let payload = vec![0xA5u8; 16 * 1024];
    for _ in 0..256 {
        ssd.append_page(f, &payload).unwrap();
    }
    let reqs: Vec<_> = (0..256u64).map(|p| (f, p, 1024)).collect();
    micro::case("ssd/read_batch_256_pages", 50, Some(256), || (), |()| ssd.read_batch(&reqs));
}
