//! Versioned binary CSR snapshots: reload a preprocessed graph without
//! re-parsing/re-sorting the edge-list text.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [8]  magic  "MLVCCSR\0"
//! [4]  version (u32)
//! [4]  flags   (bit 0 = weighted)
//! [8]  num_vertices (u64)
//! [8]  num_edges    (u64)
//! [8×(V+1)] row_ptr
//! [4×E]     col_idx
//! [4×E]     weights (f32 bits; only when weighted)
//! ```

use std::io::{BufReader, BufWriter, Read, Write};

use mlvc_graph::Csr;

use crate::IoError;

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MLVCCSR\0";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Most entries a reader reserves per array before the records arrive.
const RESERVE_CAP: usize = 1 << 16;

/// Serialize a CSR graph.
pub fn write_csr_binary<W: Write>(writer: W, graph: &Csr) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    let flags: u32 = graph.has_weights() as u32;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for &x in graph.row_ptr() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in graph.col_idx() {
        w.write_all(&x.to_le_bytes())?;
    }
    if let Some(ws) = graph.weights_all() {
        for &x in ws {
            w.write_all(&x.to_bits().to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), IoError> {
    r.read_exact(buf)
        .map_err(|_| IoError::Format(format!("truncated snapshot while reading {what}")))
}

/// Deserialize a CSR graph, validating magic, version, and structure.
pub fn read_csr_binary<R: Read>(reader: R) -> Result<Csr, IoError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    read_exact_or(&mut r, &mut magic, "magic")?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(IoError::Format("bad magic: not an mlvc CSR snapshot".into()));
    }
    let mut b4 = [0u8; 4];
    read_exact_or(&mut r, &mut b4, "version")?;
    let version = u32::from_le_bytes(b4);
    if version != SNAPSHOT_VERSION {
        return Err(IoError::Format(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    read_exact_or(&mut r, &mut b4, "flags")?;
    let flags = u32::from_le_bytes(b4);
    if flags > 1 {
        return Err(IoError::Format(format!("unknown flags {flags:#x}")));
    }
    let weighted = flags & 1 == 1;
    let mut b8 = [0u8; 8];
    read_exact_or(&mut r, &mut b8, "vertex count")?;
    let n = u64::from_le_bytes(b8) as usize;
    read_exact_or(&mut r, &mut b8, "edge count")?;
    let m = u64::from_le_bytes(b8) as usize;

    // The counts are unchecked until the records arrive, so reserve at
    // most `RESERVE_CAP` entries up front and let the vectors grow: a
    // header that lies about its size ends in the truncation error below
    // instead of one huge allocation.
    let mut row_ptr = Vec::with_capacity(n.saturating_add(1).min(RESERVE_CAP));
    for _ in 0..=n {
        read_exact_or(&mut r, &mut b8, "row_ptr")?;
        row_ptr.push(u64::from_le_bytes(b8));
    }
    let mut col_idx = Vec::with_capacity(m.min(RESERVE_CAP));
    for _ in 0..m {
        read_exact_or(&mut r, &mut b4, "col_idx")?;
        col_idx.push(u32::from_le_bytes(b4));
    }
    let weights = if weighted {
        let mut ws = Vec::with_capacity(m.min(RESERVE_CAP));
        for _ in 0..m {
            read_exact_or(&mut r, &mut b4, "weights")?;
            ws.push(f32::from_bits(u32::from_le_bytes(b4)));
        }
        Some(ws)
    } else {
        None
    };
    // Trailing garbage is a format error, not silently ignored.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(IoError::Format("trailing bytes after snapshot".into()));
    }
    if row_ptr.last().copied() != Some(m as u64) {
        return Err(IoError::Format("row_ptr/edge-count mismatch".into()));
    }
    if !row_ptr.windows(2).all(|w| w[0] <= w[1]) {
        return Err(IoError::Format("row_ptr not monotone".into()));
    }
    if col_idx.iter().any(|&c| c as usize >= n.max(1)) {
        return Err(IoError::Format("column index out of range".into()));
    }
    Ok(Csr::from_parts(row_ptr, col_idx, weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unweighted() {
        let g = mlvc_gen::rmat(mlvc_gen::RmatParams::social(8, 4), 9);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn roundtrip_weighted() {
        let mut b = mlvc_graph::EdgeListBuilder::new(6).symmetrize(true);
        b.push_weighted(0, 1, 0.5);
        b.push_weighted(2, 3, 7.75);
        let g = b.build();
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let g = mlvc_gen::path(3);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_csr_binary(bad.as_slice()), Err(IoError::Format(_))));

        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(matches!(read_csr_binary(bad.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let g = mlvc_gen::path(5);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();

        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(read_csr_binary(truncated), Err(IoError::Format(_))));

        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(read_csr_binary(extended.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_corrupt_structure() {
        let g = mlvc_gen::path(4);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        // Corrupt a col_idx entry to an out-of-range vertex.
        let col_off = 8 + 4 + 4 + 8 + 8 + (4 + 1) * 8;
        buf[col_off..col_off + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(read_csr_binary(buf.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn lying_header_counts_are_a_truncation_error() {
        let g = mlvc_gen::path(4);
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        let (nv, ne) = (16, 24);
        for (off, what) in [(nv, "row_ptr"), (ne, "col_idx")] {
            for claim in [1u64 << 40, u64::MAX] {
                let mut bad = buf.clone();
                bad[off..off + 8].copy_from_slice(&claim.to_le_bytes());
                match read_csr_binary(bad.as_slice()) {
                    Err(IoError::Format(msg)) => assert!(msg.contains(what), "{msg}"),
                    other => panic!("claim {claim} at {off}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = mlvc_graph::EdgeListBuilder::new(1).build();
        let mut buf = Vec::new();
        write_csr_binary(&mut buf, &g).unwrap();
        assert_eq!(read_csr_binary(buf.as_slice()).unwrap(), g);
    }
}
