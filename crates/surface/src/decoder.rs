//! Union-find decoder (Delfosse–Nickerson style) for code-capacity noise.
//!
//! Decoding X errors from Z-check syndromes (and symmetrically for Z):
//! flipped checks seed clusters that grow by half-edges on the check
//! graph; a cluster freezes once its defect parity is even or it touches
//! a boundary; merged odd clusters keep growing. A spanning-tree peeling
//! pass then extracts the correction inside each frozen cluster.
//!
//! # The allocation-free engine
//!
//! The Monte-Carlo hot loop calls the decoder once per non-trivial trial,
//! so the engine is split into a build-once [`DecodingGraph`] (CSR
//! adjacency, no hashing) and a reusable [`DecoderScratch`] arena:
//! [`decode_into`] performs **zero heap allocations per call**, growing
//! clusters from an active-frontier worklist that only visits the
//! boundary edges of live clusters instead of rescanning every edge each
//! round. Its cost follows the clusters, not the lattice: each call
//! resets only the vertices and edges the previous call's clusters
//! touched, and peels from the sorted cluster vertices instead of
//! walking every check. [`decode`] wraps it for one-off use, and
//! [`decode_reference`] preserves the original full-edge-rescan
//! implementation as the oracle the fast engine is tested against —
//! both produce identical corrections for every syndrome.

use crate::lattice::{Check, Lattice, PackedLattice};

/// A decoding graph: vertices are checks (+ one boundary vertex), edges
/// are data qubits.
///
/// Adjacency is stored CSR-style (a flat offset table plus a flat
/// edge-id array), built from a `Vec`-indexed qubit→check table:
/// construction touches no hash map, so the edge and adjacency order is
/// deterministic by construction, not by hasher state.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    /// Number of check vertices (boundary vertex is index `checks`).
    checks: usize,
    /// `edges[e] = (u, v, data_qubit)`.
    edges: Vec<(usize, usize, usize)>,
    /// CSR offsets: vertex `v`'s incident edge ids live at
    /// `adj_edge[adj_off[v]..adj_off[v + 1]]`.
    adj_off: Vec<usize>,
    /// CSR payload: incident edge ids, grouped per vertex in ascending
    /// edge-id order.
    adj_edge: Vec<usize>,
}

/// The virtual boundary vertex id of a graph with `n` checks is `n`.
impl DecodingGraph {
    /// Builds the graph for the given check family (`x = true` decodes Z
    /// errors from X-checks).
    pub fn new(lattice: &Lattice, x_checks: bool) -> Self {
        let checks: &[Check] = if x_checks { &lattice.x_checks } else { &lattice.z_checks };
        let n = checks.len();
        let n_qubits = lattice.data_qubits();
        // Vec-indexed qubit → (up to two) touching checks: same-type
        // checks tile the lattice, so two is the structural maximum.
        let mut touch = vec![[usize::MAX; 2]; n_qubits];
        let mut touch_len = vec![0u8; n_qubits];
        for (i, c) in checks.iter().enumerate() {
            for &q in &c.support {
                assert!(touch_len[q] < 2, "data qubit {q} touches more than two same-type checks");
                touch[q][touch_len[q] as usize] = i;
                touch_len[q] += 1;
            }
        }
        let mut edges = Vec::with_capacity(n_qubits);
        for q in 0..n_qubits {
            match touch_len[q] {
                2 => edges.push((touch[q][0], touch[q][1], q)),
                1 => edges.push((touch[q][0], n, q)),
                // A qubit untouched by this check family still ends a
                // chain on both boundaries — connecting the boundary to
                // itself is useless; such qubits exist only for d=2
                // corners.
                _ => {}
            }
        }
        // CSR adjacency: count degrees, prefix-sum, fill. Filling in
        // ascending edge order reproduces the per-vertex edge order the
        // old `Vec<Vec<usize>>` build produced.
        let mut adj_off = vec![0usize; n + 2];
        for &(u, v, _) in &edges {
            adj_off[u + 1] += 1;
            adj_off[v + 1] += 1;
        }
        for i in 1..adj_off.len() {
            adj_off[i] += adj_off[i - 1];
        }
        let mut cursor = adj_off.clone();
        let mut adj_edge = vec![0usize; 2 * edges.len()];
        for (e, &(u, v, _)) in edges.iter().enumerate() {
            adj_edge[cursor[u]] = e;
            cursor[u] += 1;
            adj_edge[cursor[v]] = e;
            cursor[v] += 1;
        }
        DecodingGraph { checks: n, edges, adj_off, adj_edge }
    }

    /// The boundary vertex id.
    pub fn boundary(&self) -> usize {
        self.checks
    }

    /// Number of check vertices (syndrome bits this graph decodes).
    pub fn check_count(&self) -> usize {
        self.checks
    }

    /// Number of edges (data qubits participating in this family).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `u64` words in a packed syndrome for this graph.
    pub fn syndrome_words(&self) -> usize {
        self.checks.div_ceil(64).max(1)
    }

    /// The edge ids incident to vertex `v`.
    #[inline]
    fn adj(&self, v: usize) -> &[usize] {
        &self.adj_edge[self.adj_off[v]..self.adj_off[v + 1]]
    }
}

/// Frontier and peeling work counters accumulated by [`decode_into`],
/// flushed to `qisim-obs` by the Monte-Carlo drivers (one registry
/// update per trial batch, never per trial).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Decode calls that reached the growth stage.
    pub decodes: u64,
    /// Cluster-growth rounds executed.
    pub rounds: u64,
    /// Edge half-growth steps applied (frontier edge visits).
    pub edges_grown: u64,
}

/// Reusable decoder arena: every buffer [`decode_into`] needs, sized
/// once for a [`DecodingGraph`] and reused across trials so the hot
/// loop performs no heap allocation.
///
/// # Examples
///
/// ```
/// use qisim_surface::decoder::{decode_into, DecoderScratch, DecodingGraph};
/// use qisim_surface::Lattice;
///
/// let lattice = Lattice::new(5);
/// let graph = DecodingGraph::new(&lattice, false);
/// let mut scratch = DecoderScratch::new(&graph);
/// let mut syndrome = vec![0u64; graph.syndrome_words()];
/// syndrome[0] = 0b11; // two adjacent defects
/// let correction = decode_into(&graph, &syndrome, &mut scratch);
/// assert!(!correction.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DecoderScratch {
    // Union-find over `checks + 1` vertices.
    parent: Vec<usize>,
    parity: Vec<bool>,
    touches_boundary: Vec<bool>,
    // Growth stage.
    edge_growth: Vec<u8>,
    in_cluster: Vec<bool>,
    /// Non-boundary vertices absorbed into any cluster. Between calls it
    /// lists every non-boundary vertex the last call wrote to, and the
    /// edges it grew are all incident to them: the next call's reset
    /// visits exactly these (plus the boundary vertex).
    cluster_verts: Vec<usize>,
    /// Frontier edges collected this round (deduplicated via `edge_seen`).
    round_edges: Vec<usize>,
    edge_seen: Vec<u64>,
    round_stamp: u64,
    full_edges: Vec<usize>,
    // Peeling stage.
    defect: Vec<bool>,
    visited: Vec<bool>,
    in_tree: Vec<bool>,
    /// Spanning-forest entries `(edge, other)`, stored in the CSR slots
    /// of the owning vertex (capacity bounded by the vertex degree).
    tree_entry: Vec<(usize, usize)>,
    tree_len: Vec<usize>,
    degree: Vec<usize>,
    leaves: Vec<usize>,
    removed: Vec<bool>,
    stack: Vec<usize>,
    correction: Vec<usize>,
    stats: DecodeStats,
}

impl DecoderScratch {
    /// Allocates an arena sized for `graph`.
    pub fn new(graph: &DecodingGraph) -> Self {
        let n = graph.checks + 1;
        let e = graph.edges.len();
        let mut touches_boundary = vec![false; n];
        touches_boundary[graph.checks] = true;
        DecoderScratch {
            parent: (0..n).collect(),
            parity: vec![false; n],
            touches_boundary,
            edge_growth: vec![0; e],
            in_cluster: vec![false; n],
            cluster_verts: Vec::with_capacity(n),
            round_edges: Vec::with_capacity(e),
            edge_seen: vec![0; e],
            round_stamp: 0,
            full_edges: Vec::with_capacity(e),
            defect: vec![false; n],
            visited: vec![false; n],
            in_tree: vec![false; e],
            tree_entry: vec![(0, 0); graph.adj_edge.len()],
            tree_len: vec![0; n],
            degree: vec![0; n],
            leaves: Vec::with_capacity(n),
            removed: vec![false; e],
            stack: Vec::with_capacity(n),
            correction: Vec::with_capacity(e),
            stats: DecodeStats::default(),
        }
    }

    /// Work counters accumulated since construction (or the last
    /// [`Self::take_stats`]).
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Returns and resets the accumulated work counters.
    pub fn take_stats(&mut self) -> DecodeStats {
        std::mem::take(&mut self.stats)
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
            let p = self.parity[ra] ^ self.parity[rb];
            self.parity[rb] = p;
            self.touches_boundary[rb] |= self.touches_boundary[ra];
        }
    }

    fn is_frozen(&mut self, x: usize) -> bool {
        let r = self.find(x);
        !self.parity[r] || self.touches_boundary[r]
    }

    /// Returns the arena to its freshly built state by undoing only what
    /// the last [`decode_into`] call wrote: the per-vertex state of its
    /// cluster vertices and the boundary, and the per-edge state of the
    /// edges incident to its cluster vertices (every edge it grew, hence
    /// every tree edge, has a non-boundary cluster endpoint).
    fn reset_touched(&mut self, graph: &DecodingGraph) {
        let boundary = graph.boundary();
        for i in 0..=self.cluster_verts.len() {
            let v = self.cluster_verts.get(i).copied().unwrap_or(boundary);
            self.parent[v] = v;
            self.parity[v] = false;
            self.touches_boundary[v] = v == boundary;
            self.in_cluster[v] = false;
            self.defect[v] = false;
            self.visited[v] = false;
            self.tree_len[v] = 0;
            if v != boundary {
                for &e in graph.adj(v) {
                    self.edge_growth[e] = 0;
                    self.in_tree[e] = false;
                    self.removed[e] = false;
                }
            }
        }
        self.cluster_verts.clear();
    }
}

/// Decodes a packed syndrome (`u64` bitset words, one bit per check)
/// using only the buffers in `scratch`, returning the data qubits to
/// flip as a slice into the arena. **Allocation-free**: every call
/// reuses the arena; the returned slice is valid until the next call.
///
/// Produces exactly the correction [`decode_reference`] produces for the
/// same syndrome (the equivalence suite pins this), but grows clusters
/// from an active-frontier worklist — per round it visits only the
/// not-yet-full edges incident to live (unfrozen) clusters, instead of
/// rescanning the entire edge set.
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from [`DecodingGraph::syndrome_words`].
pub fn decode_into<'a>(
    graph: &DecodingGraph,
    syndrome: &[u64],
    scratch: &'a mut DecoderScratch,
) -> &'a [usize] {
    assert_eq!(syndrome.len(), graph.syndrome_words(), "syndrome word-count mismatch");
    let s = scratch;
    s.correction.clear();
    // Undo the last call's writes: O(cluster size), not O(checks +
    // edges), so a one-defect trial on a d = 23 lattice resets a handful
    // of entries instead of ~800.
    s.reset_touched(graph);

    // Seed clusters at the defects (word-wise set-bit extraction).
    for (w, &word) in syndrome.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let c = (w << 6) + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            debug_assert!(c < graph.checks, "syndrome bit beyond check count");
            s.parity[c] = true;
            s.defect[c] = true;
            s.in_cluster[c] = true;
            s.cluster_verts.push(c);
        }
    }
    if s.cluster_verts.is_empty() {
        return &s.correction;
    }
    s.stats.decodes += 1;

    // Growth stage: edges gain support in halves; an edge with full
    // support merges its endpoints. Grow all unfrozen clusters in lock
    // step until every cluster is frozen. The frontier worklist visits
    // exactly the edges the legacy full scan would have grown: growth<2
    // edges incident to an in-cluster, unfrozen, non-boundary vertex.
    loop {
        s.round_stamp += 1;
        let stamp = s.round_stamp;
        s.round_edges.clear();
        let mut any_active = false;
        for idx in 0..s.cluster_verts.len() {
            let v = s.cluster_verts[idx];
            if s.is_frozen(v) {
                continue;
            }
            any_active = true;
            for &e in graph.adj(v) {
                if s.edge_growth[e] < 2 && s.edge_seen[e] != stamp {
                    s.edge_seen[e] = stamp;
                    s.round_edges.push(e);
                }
            }
        }
        // No live cluster, or live clusters with no growable edge left
        // (all remaining defects pair through the boundary): stop.
        if !any_active || s.round_edges.is_empty() {
            break;
        }
        s.stats.rounds += 1;
        s.stats.edges_grown += s.round_edges.len() as u64;
        s.full_edges.clear();
        for i in 0..s.round_edges.len() {
            let e = s.round_edges[i];
            s.edge_growth[e] += 1;
            if s.edge_growth[e] >= 2 {
                s.full_edges.push(e);
            }
        }
        for i in 0..s.full_edges.len() {
            let (u, v, _) = graph.edges[s.full_edges[i]];
            for w in [u, v] {
                if !s.in_cluster[w] {
                    s.in_cluster[w] = true;
                    if w != graph.checks {
                        s.cluster_verts.push(w);
                    }
                }
            }
            s.union(u, v);
        }
    }

    // Peeling stage: build a forest of fully-grown edges, then peel
    // leaves; a leaf carrying a defect adds its edge to the correction
    // and hands the defect to its neighbor. Rooted at the boundary first
    // so boundary-touching clusters peel toward it, then at the cluster
    // vertices in ascending order. A vertex outside every cluster has no
    // fully-grown edge, so it can neither join a tree nor be a leaf:
    // skipping it leaves the forest, the leaf order and the correction
    // exactly those of a walk over `0..checks`.
    s.cluster_verts.sort_unstable();
    for i in 0..=s.cluster_verts.len() {
        let root = if i == 0 { graph.boundary() } else { s.cluster_verts[i - 1] };
        if s.visited[root] || !s.in_cluster[root] {
            continue;
        }
        s.visited[root] = true;
        s.stack.clear();
        s.stack.push(root);
        while let Some(v) = s.stack.pop() {
            for &e in graph.adj(v) {
                if s.edge_growth[e] < 2 || s.in_tree[e] {
                    continue;
                }
                let (a, b, _) = graph.edges[e];
                let other = if a == v { b } else { a };
                if s.visited[other] {
                    continue;
                }
                s.visited[other] = true;
                s.in_tree[e] = true;
                s.tree_entry[graph.adj_off[v] + s.tree_len[v]] = (e, other);
                s.tree_len[v] += 1;
                s.tree_entry[graph.adj_off[other] + s.tree_len[other]] = (e, v);
                s.tree_len[other] += 1;
                s.stack.push(other);
            }
        }
    }
    s.degree[graph.boundary()] = s.tree_len[graph.boundary()];
    s.leaves.clear();
    for &v in &s.cluster_verts {
        s.degree[v] = s.tree_len[v];
        if s.degree[v] == 1 {
            s.leaves.push(v);
        }
    }
    while let Some(v) = s.leaves.pop() {
        if s.degree[v] == 0 {
            continue;
        }
        let slots = &s.tree_entry[graph.adj_off[v]..graph.adj_off[v] + s.tree_len[v]];
        let &(e, other) = slots
            .iter()
            .find(|(e, _)| s.in_tree[*e] && !s.removed[*e])
            .expect("leaf has one live tree edge");
        s.removed[e] = true;
        s.degree[v] -= 1;
        s.degree[other] -= 1;
        if s.defect[v] {
            s.correction.push(graph.edges[e].2);
            s.defect[v] = false;
            s.defect[other] = !s.defect[other];
        }
        if s.degree[other] == 1 && other != graph.boundary() {
            s.leaves.push(other);
        }
    }
    &s.correction
}

/// Decodes a syndrome on the graph, returning the data qubits to flip.
///
/// Convenience wrapper over [`decode_into`] for one-off decodes: it
/// allocates a fresh [`DecoderScratch`] per call. Batch callers (the
/// Monte-Carlo engine) hold a scratch arena and call [`decode_into`]
/// directly.
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from the graph's check count.
pub fn decode(graph: &DecodingGraph, syndrome: &[bool]) -> Vec<usize> {
    assert_eq!(syndrome.len(), graph.checks, "syndrome length mismatch");
    // `pack` of a `checks`-long slice yields exactly `syndrome_words()`
    // words, so the packed form feeds the arena engine directly.
    let words = PackedLattice::pack(syndrome);
    let mut scratch = DecoderScratch::new(graph);
    decode_into(graph, &words, &mut scratch).to_vec()
}

/// The original full-edge-rescan, allocate-per-call union-find decoder,
/// kept verbatim as the oracle the allocation-free engine is verified
/// against: for every syndrome, [`decode_into`] must return exactly this
/// correction.
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from the graph's check count.
// Kept structurally identical to the pre-arena implementation (index
// loops and all) so divergences from the fast engine stay attributable.
#[allow(clippy::needless_range_loop)]
pub fn decode_reference(graph: &DecodingGraph, syndrome: &[bool]) -> Vec<usize> {
    assert_eq!(syndrome.len(), graph.checks, "syndrome length mismatch");
    let n = graph.checks + 1;
    struct Uf {
        parent: Vec<usize>,
        parity: Vec<bool>,
        touches_boundary: Vec<bool>,
    }
    impl Uf {
        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }
        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra] = rb;
                let p = self.parity[ra] ^ self.parity[rb];
                self.parity[rb] = p;
                self.touches_boundary[rb] |= self.touches_boundary[ra];
            }
        }
        fn is_frozen(&mut self, x: usize) -> bool {
            let r = self.find(x);
            !self.parity[r] || self.touches_boundary[r]
        }
    }
    let mut uf = Uf {
        parent: (0..n).collect(),
        parity: syndrome.iter().copied().chain(std::iter::once(false)).collect(),
        touches_boundary: (0..n).map(|v| v == graph.boundary()).collect(),
    };

    let mut edge_growth = vec![0u8; graph.edges.len()];
    let mut in_cluster: Vec<bool> = syndrome.to_vec();
    in_cluster.push(false);
    loop {
        let mut any_active = false;
        for v in 0..graph.checks {
            if in_cluster[v] && !uf.is_frozen(v) {
                any_active = true;
            }
        }
        if !any_active {
            break;
        }
        let mut to_merge = Vec::new();
        let mut grew = false;
        for (e, &(u, v, _)) in graph.edges.iter().enumerate() {
            if edge_growth[e] >= 2 {
                continue;
            }
            let u_active = in_cluster[u] && !uf.is_frozen(u);
            let v_active = v < graph.checks && in_cluster[v] && !uf.is_frozen(v);
            if u_active || v_active {
                edge_growth[e] += 1;
                grew = true;
                if edge_growth[e] >= 2 {
                    to_merge.push((u, v));
                }
            }
        }
        if !grew {
            break;
        }
        for (u, v) in to_merge {
            in_cluster[u] = true;
            in_cluster[v] = true;
            uf.union(u, v);
        }
    }

    let mut defect: Vec<bool> = syndrome.to_vec();
    defect.push(false);
    let mut tree_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge, other)
    let mut visited = vec![false; n];
    let mut in_tree = vec![false; graph.edges.len()];
    let mut order: Vec<usize> = vec![graph.boundary()];
    order.extend(0..graph.checks);
    for root in order {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &e in graph.adj(v) {
                if edge_growth[e] < 2 || in_tree[e] {
                    continue;
                }
                let (a, b, _) = graph.edges[e];
                let other = if a == v { b } else { a };
                if visited[other] {
                    continue;
                }
                visited[other] = true;
                in_tree[e] = true;
                tree_adj[v].push((e, other));
                tree_adj[other].push((e, v));
                stack.push(other);
            }
        }
    }
    let mut degree: Vec<usize> = tree_adj.iter().map(Vec::len).collect();
    let mut leaves: Vec<usize> =
        (0..n).filter(|&v| degree[v] == 1 && v != graph.boundary()).collect();
    let mut correction = Vec::new();
    let mut removed = vec![false; graph.edges.len()];
    while let Some(v) = leaves.pop() {
        if degree[v] == 0 {
            continue;
        }
        let &(e, other) = tree_adj[v]
            .iter()
            .find(|(e, _)| in_tree[*e] && !removed[*e])
            .expect("leaf has one live tree edge");
        removed[e] = true;
        degree[v] -= 1;
        degree[other] -= 1;
        if defect[v] {
            correction.push(graph.edges[e].2);
            defect[v] = false;
            defect[other] = !defect[other];
        }
        if degree[other] == 1 && other != graph.boundary() {
            leaves.push(other);
        }
    }
    correction
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_x_errors(lattice: &Lattice, x_errors: &[bool]) -> Vec<bool> {
        let graph = DecodingGraph::new(lattice, false);
        let syn = lattice.z_syndrome(x_errors);
        let corr = decode(&graph, &syn);
        let mut fixed = x_errors.to_vec();
        for q in corr {
            fixed[q] ^= true;
        }
        fixed
    }

    #[test]
    fn empty_syndrome_needs_no_correction() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l, false);
        assert!(decode(&g, &vec![false; l.z_checks.len()]).is_empty());
    }

    #[test]
    fn single_error_is_corrected() {
        let l = Lattice::new(5);
        for q in 0..l.data_qubits() {
            let mut errs = vec![false; l.data_qubits()];
            errs[q] = true;
            let fixed = decode_x_errors(&l, &errs);
            let syn = l.z_syndrome(&fixed);
            assert!(syn.iter().all(|b| !b), "residual syndrome after fixing qubit {q}");
            assert!(!l.is_logical_x(&fixed), "single error became logical at qubit {q}");
        }
    }

    #[test]
    fn two_adjacent_errors_are_corrected() {
        let l = Lattice::new(7);
        let mut errs = vec![false; l.data_qubits()];
        errs[3 * 7 + 2] = true;
        errs[3 * 7 + 3] = true;
        let fixed = decode_x_errors(&l, &errs);
        assert!(l.z_syndrome(&fixed).iter().all(|b| !b));
        assert!(!l.is_logical_x(&fixed));
    }

    #[test]
    fn correction_always_returns_to_codespace() {
        // Random-ish deterministic error patterns: the decoder may fail
        // logically but must always clear the syndrome.
        let l = Lattice::new(5);
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            let mut errs = vec![false; l.data_qubits()];
            for e in errs.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *e = (state >> 60) == 0; // p = 1/16
            }
            let fixed = decode_x_errors(&l, &errs);
            assert!(l.z_syndrome(&fixed).iter().all(|b| !b), "decoder left residual syndrome");
        }
    }

    #[test]
    fn graph_structure_is_sane() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l, false);
        // Every data qubit appears exactly once as an edge.
        assert_eq!(g.edge_count(), l.data_qubits());
        assert_eq!(g.boundary(), l.z_checks.len());
        assert_eq!(g.check_count(), l.z_checks.len());
        // CSR adjacency covers both endpoints of every edge.
        assert_eq!(g.adj_off[g.checks + 1], 2 * g.edge_count());
        for v in 0..=g.checks {
            for &e in g.adj(v) {
                let (a, b, _) = g.edges[e];
                assert!(a == v || b == v, "edge {e} listed at foreign vertex {v}");
            }
        }
    }

    #[test]
    fn frontier_engine_matches_the_reference_decoder_exactly() {
        // Identical corrections — same qubits, same order — on a dense
        // deterministic syndrome battery, reusing one scratch arena
        // throughout so cross-call contamination would be caught.
        for d in [3usize, 5, 7, 9, 11] {
            let l = Lattice::new(d);
            let g = DecodingGraph::new(&l, false);
            let mut scratch = DecoderScratch::new(&g);
            let mut state = 0xD1CEu64 ^ (d as u64) << 32;
            for round in 0..300 {
                let mut syn = vec![false; g.check_count()];
                for b in syn.iter_mut() {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = state >> 61 == 0; // p = 1/8 per check
                }
                let reference = decode_reference(&g, &syn);
                let words = PackedLattice::pack(&syn);
                let fast = decode_into(&g, &words, &mut scratch);
                assert_eq!(fast, &reference[..], "d={d} round={round}");
            }
        }
    }

    #[test]
    fn scratch_stats_accumulate_and_reset() {
        let l = Lattice::new(5);
        let g = DecodingGraph::new(&l, false);
        let mut scratch = DecoderScratch::new(&g);
        let mut syn = vec![0u64; g.syndrome_words()];
        syn[0] = 0b1; // one defect: must grow at least one round
        let _ = decode_into(&g, &syn, &mut scratch);
        let stats = scratch.stats();
        assert_eq!(stats.decodes, 1);
        assert!(stats.rounds >= 1 && stats.edges_grown >= 1, "{stats:?}");
        assert_eq!(scratch.take_stats(), stats);
        assert_eq!(scratch.stats(), DecodeStats::default());
        // Zero syndrome never counts as a decode.
        syn[0] = 0;
        assert!(decode_into(&g, &syn, &mut scratch).is_empty());
        assert_eq!(scratch.stats().decodes, 0);
    }
}
