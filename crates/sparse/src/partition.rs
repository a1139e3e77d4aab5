//! Mesh and matrix partitioners.
//!
//! Two k-way partitioners used throughout the workspace:
//!
//! * [`rcb_partition`] — recursive coordinate bisection over entity
//!   centroids: geometric, fast, deterministic, the standard choice for
//!   the spatial decompositions in the mini-apps;
//! * [`greedy_graph_partition`] — BFS-based greedy graph growing over an
//!   adjacency structure (a symmetric CSR), used where coordinates are
//!   unavailable (pure algebraic settings).
//!
//! [`PartitionQuality`] measures what the performance model actually
//! cares about: load imbalance and halo (cut) sizes, whose growth with
//! part count is what bends every parallel-efficiency curve in the paper.

use crate::csr::Csr;

/// Partition quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts.
    pub parts: usize,
    /// Cells in the largest part.
    pub max_load: usize,
    /// Mean cells per part.
    pub avg_load: f64,
    /// Edges crossing part boundaries (each counted once).
    pub edge_cut: usize,
    /// For each part, the number of remote cells it must ghost (halo).
    pub halo_sizes: Vec<usize>,
    /// For each part, the number of neighbouring parts it talks to.
    pub neighbor_counts: Vec<usize>,
}

impl PartitionQuality {
    /// `max_load / avg_load` — 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        if self.avg_load == 0.0 {
            1.0
        } else {
            self.max_load as f64 / self.avg_load
        }
    }

    /// Largest halo across parts.
    pub fn max_halo(&self) -> usize {
        self.halo_sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Recursive coordinate bisection: split `coords` (d-dimensional points)
/// into `parts` parts of near-equal size by recursively bisecting along
/// the longest extent. Returns `assignment[i] = part`.
pub fn rcb_partition(coords: &[[f64; 3]], parts: usize) -> Vec<usize> {
    assert!(parts >= 1);
    let n = coords.len();
    let mut assignment = vec![0usize; n];
    if parts == 1 || n == 0 {
        return assignment;
    }
    let mut ids: Vec<usize> = (0..n).collect();
    rcb_recurse(coords, &mut ids, 0, parts, &mut assignment);
    assignment
}

fn rcb_recurse(
    coords: &[[f64; 3]],
    ids: &mut [usize],
    first_part: usize,
    parts: usize,
    assignment: &mut [usize],
) {
    if parts == 1 {
        for &i in ids.iter() {
            assignment[i] = first_part;
        }
        return;
    }
    // Longest axis of the bounding box of this id set.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &i in ids.iter() {
        for d in 0..3 {
            lo[d] = lo[d].min(coords[i][d]);
            hi[d] = hi[d].max(coords[i][d]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap();
    // Split proportional to the part counts on each side.
    let left_parts = parts / 2;
    let right_parts = parts - left_parts;
    let split = ids.len() * left_parts / parts;
    ids.sort_unstable_by(|&a, &b| {
        coords[a][axis]
            .partial_cmp(&coords[b][axis])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let (left, right) = ids.split_at_mut(split);
    rcb_recurse(coords, left, first_part, left_parts, assignment);
    rcb_recurse(
        coords,
        right,
        first_part + left_parts,
        right_parts,
        assignment,
    );
}

/// Greedy BFS graph growing over a symmetric adjacency CSR: grow parts
/// one at a time from the lowest-numbered unassigned vertex.
pub fn greedy_graph_partition(adj: &Csr, parts: usize) -> Vec<usize> {
    assert!(parts >= 1);
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    let n = adj.nrows();
    let mut assignment = vec![usize::MAX; n];
    if n == 0 {
        return assignment;
    }
    let target = n.div_ceil(parts);
    let mut queue = std::collections::VecDeque::new();
    let mut next_seed = 0usize;
    for part in 0..parts {
        let mut grown = 0usize;
        // Cap the last part at "the rest".
        let cap = if part + 1 == parts { n } else { target };
        while grown < cap {
            let v = match queue.pop_front() {
                Some(v) if assignment[v] == usize::MAX => v,
                Some(_) => continue,
                None => {
                    // Find the next unassigned seed.
                    while next_seed < n && assignment[next_seed] != usize::MAX {
                        next_seed += 1;
                    }
                    if next_seed >= n {
                        break;
                    }
                    next_seed
                }
            };
            assignment[v] = part;
            grown += 1;
            let (neigh, _) = adj.row(v);
            for &u in neigh {
                if assignment[u] == usize::MAX {
                    queue.push_back(u);
                }
            }
        }
        queue.clear();
    }
    // Any leftovers (disconnected tails) go to the last part.
    for a in assignment.iter_mut() {
        if *a == usize::MAX {
            *a = parts - 1;
        }
    }
    assignment
}

/// Measure partition quality for `assignment` over adjacency `adj`.
pub fn partition_quality(adj: &Csr, assignment: &[usize], parts: usize) -> PartitionQuality {
    assert_eq!(adj.nrows(), assignment.len());
    let n = adj.nrows();
    let mut loads = vec![0usize; parts];
    for &p in assignment {
        loads[p] += 1;
    }
    let mut edge_cut = 0usize;
    // halo[p] counts distinct remote cells adjacent to part p.
    let mut halo_sets: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); parts];
    let mut neigh_sets: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); parts];
    for v in 0..n {
        let pv = assignment[v];
        let (neigh, _) = adj.row(v);
        for &u in neigh {
            let pu = assignment[u];
            if pu != pv {
                if v < u {
                    edge_cut += 1;
                }
                halo_sets[pv].insert(u);
                neigh_sets[pv].insert(pu);
            }
        }
    }
    PartitionQuality {
        parts,
        max_load: loads.iter().copied().max().unwrap_or(0),
        avg_load: n as f64 / parts as f64,
        edge_cut,
        halo_sizes: halo_sets.iter().map(|s| s.len()).collect(),
        neighbor_counts: neigh_sets.iter().map(|s| s.len()).collect(),
    }
}

/// Build a grid adjacency (for tests and analytic studies): the graph of
/// an `nx × ny × nz` structured grid with 6-point connectivity.
pub fn grid_adjacency(nx: usize, ny: usize, nz: usize) -> (Csr, Vec<[f64; 3]>) {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut coo = crate::coo::Coo::with_capacity(n, n, 6 * n);
    let mut coords = Vec::with_capacity(n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                coords.push([i as f64, j as f64, k as f64]);
                let me = idx(i, j, k);
                if i > 0 {
                    coo.push(me, idx(i - 1, j, k), 1.0);
                }
                if i + 1 < nx {
                    coo.push(me, idx(i + 1, j, k), 1.0);
                }
                if j > 0 {
                    coo.push(me, idx(i, j - 1, k), 1.0);
                }
                if j + 1 < ny {
                    coo.push(me, idx(i, j + 1, k), 1.0);
                }
                if k > 0 {
                    coo.push(me, idx(i, j, k - 1), 1.0);
                }
                if k + 1 < nz {
                    coo.push(me, idx(i, j, k + 1), 1.0);
                }
            }
        }
    }
    (coo.to_csr(), coords)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcb_covers_and_balances() {
        let (_, coords) = grid_adjacency(8, 8, 8);
        for parts in [1, 2, 3, 4, 7, 8, 16] {
            let a = rcb_partition(&coords, parts);
            let mut loads = vec![0usize; parts];
            for &p in &a {
                assert!(p < parts);
                loads[p] += 1;
            }
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            assert!(min > 0, "parts={parts}: empty part");
            assert!(
                max - min <= (512 / parts).max(2),
                "parts={parts}: imbalance {loads:?}"
            );
        }
    }

    #[test]
    fn rcb_single_part_is_trivial() {
        let (_, coords) = grid_adjacency(3, 3, 3);
        let a = rcb_partition(&coords, 1);
        assert!(a.iter().all(|&p| p == 0));
    }

    #[test]
    fn greedy_covers_all_vertices() {
        let (adj, _) = grid_adjacency(6, 6, 6);
        for parts in [2, 4, 9] {
            let a = greedy_graph_partition(&adj, parts);
            assert!(a.iter().all(|&p| p < parts));
            let mut loads = vec![0usize; parts];
            for &p in &a {
                loads[p] += 1;
            }
            assert!(loads.iter().all(|&l| l > 0));
        }
    }

    #[test]
    fn quality_halo_grows_sublinearly() {
        // Surface-to-volume: doubling parts should grow total halo by
        // roughly 2^(1/3) per part dimension, not linearly per cell.
        let (adj, coords) = grid_adjacency(16, 16, 16);
        let q2 = partition_quality(&adj, &rcb_partition(&coords, 2), 2);
        let q16 = partition_quality(&adj, &rcb_partition(&coords, 16), 16);
        // Per-part volume shrinks 8x; per-part halo must shrink but far
        // less than 8x (surface scaling).
        let shrink = q2.max_halo() as f64 / q16.max_halo() as f64;
        assert!(shrink < 4.0, "halo shrank too fast: {shrink}");
        assert!(q16.max_halo() > 0);
        assert!(q16.imbalance() < 1.2);
    }

    #[test]
    fn quality_of_perfect_split() {
        // 2x1x1 grid of two cells split into 2 parts: 1 cut edge, halo 1
        // each.
        let (adj, coords) = grid_adjacency(2, 1, 1);
        let a = rcb_partition(&coords, 2);
        let q = partition_quality(&adj, &a, 2);
        assert_eq!(q.edge_cut, 1);
        assert_eq!(q.halo_sizes, vec![1, 1]);
        assert_eq!(q.neighbor_counts, vec![1, 1]);
        assert!((q.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edge_cut_zero_for_single_part() {
        let (adj, coords) = grid_adjacency(4, 4, 1);
        let a = rcb_partition(&coords, 1);
        let q = partition_quality(&adj, &a, 1);
        assert_eq!(q.edge_cut, 0);
        assert_eq!(q.max_halo(), 0);
    }

    #[test]
    fn greedy_on_disconnected_graph() {
        // Two disconnected vertices.
        let adj = Csr::zeros(2, 2);
        let a = greedy_graph_partition(&adj, 2);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&p| p < 2));
    }

    #[test]
    fn determinism() {
        let (adj, coords) = grid_adjacency(10, 10, 4);
        assert_eq!(rcb_partition(&coords, 8), rcb_partition(&coords, 8));
        assert_eq!(
            greedy_graph_partition(&adj, 8),
            greedy_graph_partition(&adj, 8)
        );
    }
}
