//! Graph serialization: text edge lists (DIMACS-challenge-style `u v` lines,
//! as used for the USA road inputs) and a compact binary format for caching
//! generated benchmark graphs between runs.

use std::io::{self, BufRead, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::builder::{BuildOptions, GraphBuilder};
use crate::csr::CsrGraph;
use crate::Edge;

/// Magic prefix of the binary format.
pub const BINARY_MAGIC: &[u8; 8] = b"FBFSGRF1";

/// Writes `graph` as a text edge list: a header comment, then one `u v` line
/// per stored directed edge.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, w: &mut W) -> io::Result<()> {
    writeln!(
        w,
        "# fast-bfs edge list: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    writeln!(w, "# v {}", graph.num_vertices())?;
    for (u, v) in graph.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Reads a text edge list. Lines starting with `#`, `%` or `c` are comments;
/// a `# v N` comment pins the vertex count (otherwise it is 1 + max id).
/// Edges are loaded as-given (directed, no symmetrization) so a round-trip
/// through [`write_edge_list`] is exact.
pub fn read_edge_list<R: BufRead>(r: &mut R) -> io::Result<CsrGraph> {
    let mut edges: Vec<Edge> = Vec::new();
    let mut pinned_n: Option<usize> = None;
    let mut max_id: u64 = 0;
    let mut line = String::new();
    let mut seen_any = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if let Some(rest) = t.strip_prefix("# v ") {
            pinned_n = Some(rest.trim().parse().map_err(bad_data)?);
            continue;
        }
        if t.starts_with('#') || t.starts_with('%') || t.starts_with('c') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or_else(|| bad("missing source"))?
            .parse()
            .map_err(bad_data)?;
        let v: u32 = it
            .next()
            .ok_or_else(|| bad("missing target"))?
            .parse()
            .map_err(bad_data)?;
        max_id = max_id.max(u as u64).max(v as u64);
        edges.push((u, v));
        seen_any = true;
    }
    let n = pinned_n.unwrap_or(if seen_any { max_id as usize + 1 } else { 0 });
    let mut b = GraphBuilder::new(n, BuildOptions::directed_raw());
    b.add_edges(edges);
    Ok(b.build())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn bad_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Encodes `graph` into the binary cache format:
/// `MAGIC | n: u64 | m: u64 | offsets: (n+1) × u64 | neighbors: m × u32`,
/// all little-endian.
pub fn to_binary(graph: &CsrGraph) -> Bytes {
    let n = graph.num_vertices();
    let m = graph.num_edges() as usize;
    let mut buf = BytesMut::with_capacity(8 + 16 + (n + 1) * 8 + m * 4);
    buf.put_slice(BINARY_MAGIC);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m as u64);
    for &o in graph.offsets() {
        buf.put_u64_le(o);
    }
    for &v in graph.raw_neighbors() {
        buf.put_u32_le(v);
    }
    buf.freeze()
}

/// Decodes the binary cache format produced by [`to_binary`]. Any payload
/// that is not such an encoding (a bad magic, a length that disagrees with
/// the header, or CSR arrays that [`CsrGraph::try_from_parts`] rejects)
/// is an [`io::ErrorKind::InvalidData`] error.
pub fn from_binary(data: &[u8]) -> io::Result<CsrGraph> {
    let Some((header, body)) = data.split_at_checked(24) else {
        return Err(bad("bad magic"));
    };
    if &header[..8] != BINARY_MAGIC {
        return Err(bad("bad magic"));
    }
    let n = le_u64(&header[8..16]);
    let m = le_u64(&header[16..24]);
    let offsets_len = n
        .checked_add(1)
        .and_then(|x| x.checked_mul(8))
        .ok_or_else(|| bad("size overflow"))?;
    let need = m
        .checked_mul(4)
        .and_then(|y| y.checked_add(offsets_len))
        .ok_or_else(|| bad("size overflow"))?;
    if body.len() as u64 != need {
        return Err(bad("truncated or oversized payload"));
    }
    let (offsets, neighbors) = body.split_at(offsets_len as usize);
    let offsets = offsets.chunks_exact(8).map(le_u64).collect();
    let neighbors = neighbors
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("a 4-byte chunk")))
        .collect();
    CsrGraph::try_from_parts(offsets, neighbors).map_err(bad_data)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte field"))
}

/// Writes the binary format to a stream.
pub fn write_binary<W: Write>(graph: &CsrGraph, w: &mut W) -> io::Result<()> {
    w.write_all(&to_binary(graph))
}

/// Reads the binary format from a stream.
pub fn read_binary<R: Read>(r: &mut R) -> io::Result<CsrGraph> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)?;
    from_binary(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::classic::{binary_tree, path};
    use crate::gen::rmat::{rmat, RmatConfig};
    use crate::rng::rng_from_seed;
    use proptest::prelude::*;
    use std::io::BufReader;

    #[test]
    fn edge_list_roundtrip() {
        let g = binary_tree(9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_handles_comments_and_blank_lines() {
        let text = "# comment\n% more\nc dimacs\n\n0 1\n1 2\n";
        let g = read_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_pins_vertex_count() {
        let text = "# v 10\n0 1\n";
        let g = read_edge_list(&mut BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
        let text = "0\n";
        assert!(read_edge_list(&mut BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn empty_edge_list() {
        let g = read_edge_list(&mut BufReader::new("".as_bytes())).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = rmat(&RmatConfig::paper(8, 4), &mut rng_from_seed(1));
        let bytes = to_binary(&g);
        let g2 = from_binary(&bytes).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_via_streams() {
        let g = path(17);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&mut &buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = path(5);
        let bytes = to_binary(&g).to_vec();
        assert!(from_binary(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(from_binary(&bad_magic).is_err());
        let mut bad_neighbor = bytes.clone();
        let last = bad_neighbor.len() - 1;
        bad_neighbor[last] = 0xFF; // neighbor id out of range
        assert!(from_binary(&bad_neighbor).is_err());
    }

    #[test]
    fn binary_rejects_inconsistent_offsets() {
        let g = path(3);
        let mut bytes = to_binary(&g).to_vec();
        // offsets start right after magic + 16; corrupt offsets[0].
        bytes[24] = 9;
        assert!(from_binary(&bytes).is_err());
    }

    /// A small directed multigraph from raw lists; `n` may exceed every
    /// id used, leaving isolated vertices.
    fn lists_graph(n: usize, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new(n, BuildOptions::directed_raw());
        b.add_edges(edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)));
        b.build()
    }

    /// Every decode error is a typed `InvalidData`.
    fn invalid_data(decoded: io::Result<CsrGraph>) -> Result<(), String> {
        match decoded {
            Ok(g) => Err(format!("accepted a corrupt payload as {g:?}")),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(e) => Err(format!("wrong error kind {:?}: {e}", e.kind())),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn binary_loader_never_panics_and_types_its_errors(
            n in 1usize..40,
            edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
            cut in any::<usize>(),
            flip in (any::<usize>(), 1u8..=255),
            lie in prop_oneof![any::<u64>(), Just(u64::MAX), Just(u64::MAX / 8), 0u64..64],
        ) {
            let g = lists_graph(n, &edges);
            let bytes = to_binary(&g).to_vec();
            // Valid encodings round-trip.
            prop_assert_eq!(from_binary(&bytes).ok(), Some(g.clone()));

            // Truncation anywhere.
            invalid_data(from_binary(&bytes[..cut % bytes.len()]))?;

            // A header that lies about n or about m.
            for field in [8..16, 16..24] {
                let mut lied = bytes.clone();
                if lied[field.clone()] != lie.to_le_bytes() {
                    lied[field].copy_from_slice(&lie.to_le_bytes());
                    invalid_data(from_binary(&lied))?;
                }
            }

            // One flipped byte either breaks the encoding or is another
            // valid encoding that round-trips byte for byte.
            let mut flipped = bytes.clone();
            flipped[flip.0 % bytes.len()] ^= flip.1;
            match from_binary(&flipped) {
                Ok(h) => prop_assert_eq!(to_binary(&h).to_vec(), flipped),
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            }
        }
    }
}
