//! Input generation. The benchmark makes its graphs itself, from the seed,
//! and hands the program only a graph file in the library's binary format
//! (`FBFSGRF1`): loading that file is part of the measured set-up.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::rng::Rng;

/// A symmetric graph in CSR form: both directions of every undirected
/// edge are stored; self loops are dropped, parallel edges are kept.
pub struct Csr {
    pub offsets: Vec<u64>,
    pub neighbors: Vec<u32>,
}

impl Csr {
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[cfg(test)]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// A graph family with its size parameters.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// R-MAT with the Graph500 quadrant probabilities (a=0.57, b=c=0.19),
    /// `edge_factor · 2^scale` undirected edges, vertex ids permuted.
    Rmat { scale: u32, edge_factor: u32 },
}

impl Family {
    pub fn generate(self, seed: u64) -> Csr {
        match self {
            Family::Rmat { scale, edge_factor } => rmat(scale, edge_factor, seed),
        }
    }
}

/// Builds a symmetric CSR from an edge stream: both directions of every
/// edge become one `source << 32 | target` key, and an LSD radix sort on
/// the source (11-bit digits, sequential passes) groups them by source.
/// `hint` is the expected number of undirected edges.
fn build_symmetric(n: usize, hint: usize, edges: impl FnOnce(&mut dyn FnMut(u32, u32))) -> Csr {
    let mut keys: Vec<u64> = Vec::with_capacity(2 * hint);
    edges(&mut |u, v| {
        if u != v {
            keys.push((u as u64) << 32 | v as u64);
            keys.push((v as u64) << 32 | u as u64);
        }
    });
    const DIGIT: u32 = 11;
    let source_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
    let mut scratch = vec![0u64; keys.len()];
    let mut shift = 32;
    while shift < 32 + source_bits {
        let digit = |k: u64| ((k >> shift) & ((1 << DIGIT) - 1)) as usize;
        let mut start = vec![0usize; (1 << DIGIT) + 1];
        for &k in &keys {
            start[digit(k) + 1] += 1;
        }
        for i in 0..1 << DIGIT {
            start[i + 1] += start[i];
        }
        for &k in &keys {
            let d = digit(k);
            scratch[start[d]] = k;
            start[d] += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
        shift += DIGIT;
    }
    drop(scratch);
    let mut offsets = vec![0u64; n + 1];
    for &k in &keys {
        offsets[(k >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let neighbors = keys.iter().map(|&k| k as u32).collect();
    Csr { offsets, neighbors }
}

fn rmat(scale: u32, edge_factor: u32, seed: u64) -> Csr {
    assert!((1..31).contains(&scale), "scale must be in 1..31");
    let n = 1usize << scale;
    let m = edge_factor as usize * n;
    // Quadrant thresholds in 1/65536 units: a = 0.57, a+b = 0.76,
    // a+b+c = 0.95. Sixteen bits per level, four levels per draw; each
    // level appends one bit to both endpoints, most significant first.
    const T_A: u64 = 37_356;
    const T_AB: u64 = 49_807;
    const T_ABC: u64 = 62_259;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut shuffle = Rng::new(seed, "rmat-permute");
    for i in (1..n).rev() {
        perm.swap(i, shuffle.below(i as u64 + 1) as usize);
    }
    build_symmetric(n, m, |emit| {
        let mut rng = Rng::new(seed, "rmat-edges");
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            let mut bits = 0u64;
            for level in 0..scale {
                if level % 4 == 0 {
                    bits = rng.next_u64();
                }
                let r = bits & 0xffff;
                bits >>= 16;
                // a: neither bit; b: target bit; c: source bit; d: both.
                u = u << 1 | (r >= T_AB) as u32;
                v = v << 1 | ((T_A..T_AB).contains(&r) || r >= T_ABC) as u32;
            }
            emit(perm[u as usize], perm[v as usize]);
        }
    })
}

/// Writes `g` in the library's binary graph format:
/// `FBFSGRF1 | n: u64 | m: u64 | offsets: (n+1) × u64 | neighbors: m × u32`,
/// little-endian.
pub fn write_graph_file(g: &Csr, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::with_capacity(1 << 20, File::create(path)?);
    write_graph(g, &mut w)?;
    w.flush()
}

fn write_graph(g: &Csr, w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"FBFSGRF1")?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.neighbors.len() as u64).to_le_bytes())?;
    for &o in &g.offsets {
        w.write_all(&o.to_le_bytes())?;
    }
    for &v in &g.neighbors {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_symmetric(g: &Csr) -> bool {
        (0..g.num_vertices() as u32).all(|u| {
            g.neighbors(u)
                .iter()
                .all(|&v| g.neighbors(v).iter().filter(|&&x| x == u).count() > 0)
        })
    }

    #[test]
    fn rmat_is_deterministic_symmetric_and_loop_free() {
        let a = Family::Rmat {
            scale: 10,
            edge_factor: 8,
        }
        .generate(3);
        let b = Family::Rmat {
            scale: 10,
            edge_factor: 8,
        }
        .generate(3);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.num_vertices(), 1024);
        assert!(a.neighbors.len() <= 2 * 8 * 1024);
        assert!(a.neighbors.len() > 2 * 7 * 1024, "few self loops expected");
        assert!(is_symmetric(&a));
        assert!((0..1024u32).all(|u| !a.neighbors(u).contains(&u)));
        let c = Family::Rmat {
            scale: 10,
            edge_factor: 8,
        }
        .generate(4);
        assert_ne!(a.neighbors, c.neighbors);
    }

    #[test]
    fn graph_file_loads_through_the_library() {
        let g = Family::Rmat {
            scale: 8,
            edge_factor: 4,
        }
        .generate(1);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let loaded = bfs_graph::io::read_binary(&mut &buf[..]).unwrap();
        assert_eq!(loaded.num_vertices(), g.num_vertices());
        assert_eq!(loaded.offsets(), &g.offsets[..]);
        for u in 0..g.num_vertices() as u32 {
            assert_eq!(loaded.neighbors(u), g.neighbors(u));
        }
    }
}
