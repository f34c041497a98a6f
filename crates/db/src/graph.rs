//! A dense directed graph with cycle detection.
//!
//! The paper proves its protocols correct via the acyclicity of the one-copy
//! serialization graph; we check it on every simulated history, so the
//! graph of a whole execution has to be cheap: nodes are `0..n`, the edges
//! arrive as one flat list and are laid out once as sorted successor rows,
//! and the traversals run on `u32` arrays — no hashing, no per-node
//! allocation. The deadlock detector's waits-for graph uses the same type.

use std::collections::BinaryHeap;

/// Stable counting sort: files every `(bucket, value)` of `items` under its
/// bucket in `0..buckets`, in the storage of an earlier sort (or none).
/// Returns `(start, values)`: bucket `b` holds `values[start[b]..start[b +
/// 1]]`, in arrival order. Linear in buckets + items; allocates only what
/// the storage lacks.
///
/// # Panics
/// If a bucket is out of range or the items do not fit `u32` offsets.
pub(crate) fn bucket<T: Copy>(
    buckets: usize,
    items: impl Iterator<Item = (u32, T)> + Clone,
    (mut start, mut values): (Vec<u32>, Vec<T>),
) -> (Vec<u32>, Vec<T>) {
    // Counted two places up, each bucket's start sits one place up, where
    // the fill moves it to the bucket's end: the next bucket's start.
    start.clear();
    start.resize(buckets + 2, 0);
    for (b, _) in items.clone() {
        start[b as usize + 2] += 1;
    }
    let mut total = 0usize;
    for end in &mut start[2..] {
        total += *end as usize;
        *end = u32::try_from(total).expect("fewer than 2^32 items");
    }
    values.clear();
    values.reserve(total);
    values.extend(items.clone().map(|(_, value)| value)); // each overwritten
    for (b, value) in items {
        let at = &mut start[b as usize + 1];
        values[*at as usize] = value;
        *at += 1;
    }
    start.pop();
    (start, values)
}

/// A directed graph over the nodes `0..n`, built once from a flat edge list.
///
/// Successor rows are contiguous and ascending (two stable counting-sort
/// passes, by target and then by source, so building is linear in nodes +
/// edges). Parallel edges are kept; a self-loop is a cycle. Both traversals
/// visit nodes and successors in ascending order, so a caller whose node
/// numbering is monotone in its own node order gets the answers a graph
/// over those nodes, walked in their order, gives.
#[derive(Debug, Clone, Default)]
pub struct DenseGraph {
    /// Row `n` is `adj[off[n]..off[n + 1]]`.
    off: Vec<u32>,
    adj: Vec<u32>,
}

impl DenseGraph {
    /// Lays out `edges` (`from → to`, both below `nodes`) as sorted rows.
    ///
    /// # Panics
    /// If an endpoint is not below `nodes`, or the edges do not fit `u32`
    /// offsets.
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> Self {
        // Stable pass by target, then stable pass by source: rows come out
        // grouped by source with their targets ascending.
        let by_source = edges.iter().map(|&(from, to)| (to, from));
        let (start, sources) = bucket(nodes, by_source, Default::default());
        let by_target = (0..nodes).flat_map(|to| {
            let row = &sources[start[to] as usize..start[to + 1] as usize];
            row.iter().map(move |&from| (from, to as u32))
        });
        let (off, adj) = bucket(nodes, by_target, Default::default());
        DenseGraph { off, adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The successors of `n`, ascending, one entry per edge.
    pub fn successors(&self, n: u32) -> &[u32] {
        &self.adj[self.off[n as usize] as usize..self.off[n as usize + 1] as usize]
    }

    /// Finds a cycle, returning its nodes in order (first node repeated
    /// implicitly), or `None` if the graph is acyclic: the first back edge
    /// of a depth-first search from the nodes ascending, successors
    /// ascending.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.node_count();
        let mut color = vec![WHITE; n];
        // Next unvisited successor of each node, as an index into `adj`.
        let mut cursor = self.off[..n].to_vec();
        // The gray path doubles as the DFS stack.
        let mut path: Vec<u32> = Vec::new();
        for start in 0..n as u32 {
            if color[start as usize] != WHITE {
                continue;
            }
            color[start as usize] = GRAY;
            path.push(start);
            while let Some(&node) = path.last() {
                let at = cursor[node as usize];
                if at == self.off[node as usize + 1] {
                    color[node as usize] = BLACK;
                    path.pop();
                    continue;
                }
                cursor[node as usize] = at + 1;
                let next = self.adj[at as usize];
                match color[next as usize] {
                    WHITE => {
                        color[next as usize] = GRAY;
                        path.push(next);
                    }
                    GRAY => {
                        let pos = path
                            .iter()
                            .position(|&p| p == next)
                            .expect("gray node is on the path");
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// A topological order of the nodes, or `None` if cyclic. Among the
    /// nodes whose predecessors are all placed, the largest goes next.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let n = self.node_count();
        let mut indegree = vec![0u32; n];
        for &to in &self.adj {
            indegree[to as usize] += 1;
        }
        let mut ready: BinaryHeap<u32> = (0..n as u32)
            .filter(|&v| indegree[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &to in self.successors(v) {
                indegree[to as usize] -= 1;
                if indegree[to as usize] == 0 {
                    ready.push(to);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

/// The hashed graph the checker and the deadlock detector used before
/// [`DenseGraph`]: the reference its tests and the serialization-graph
/// checker's differential oracle (`sg::tests`) compare against.
#[cfg(test)]
pub(crate) mod hashed {
    use std::collections::{HashMap, HashSet};
    use std::hash::Hash;

    #[derive(Debug, Clone)]
    pub(crate) struct DiGraph<N> {
        edges: HashMap<N, HashSet<N>>,
    }

    impl<N: Eq + Hash + Clone + Ord> DiGraph<N> {
        /// Creates an empty graph.
        pub(crate) fn new() -> Self {
            DiGraph {
                edges: HashMap::new(),
            }
        }

        /// Adds the edge `from → to` (self-loops allowed; they count as
        /// cycles). Both endpoints are created if absent.
        pub(crate) fn add_edge(&mut self, from: N, to: N) {
            self.edges.entry(to.clone()).or_default();
            self.edges.entry(from).or_default().insert(to);
        }

        /// True iff the edge exists.
        pub(crate) fn has_edge(&self, from: &N, to: &N) -> bool {
            self.edges.get(from).is_some_and(|s| s.contains(to))
        }

        /// Finds a cycle, returning its nodes in order (first node repeated
        /// implicitly), or `None` if the graph is acyclic.
        ///
        /// Deterministic: neighbours are visited in sorted order, so the same
        /// graph always yields the same cycle.
        pub(crate) fn find_cycle(&self) -> Option<Vec<N>> {
            #[derive(Clone, Copy, PartialEq)]
            enum Color {
                White,
                Gray,
                Black,
            }
            let neighbours_of = |n: &N| -> Vec<N> {
                let mut v: Vec<N> = self.edges[n].iter().cloned().collect();
                // Reverse-sorted so pop() visits in ascending order.
                v.sort_by(|a, b| b.cmp(a));
                v
            };
            let mut color: HashMap<N, Color> = self
                .edges
                .keys()
                .map(|n| (n.clone(), Color::White))
                .collect();
            let mut nodes: Vec<N> = self.edges.keys().cloned().collect();
            nodes.sort();

            // Iterative DFS keeping the gray path for cycle extraction.
            for start in nodes {
                if color[&start] != Color::White {
                    continue;
                }
                let mut stack: Vec<(N, Vec<N>)> = Vec::new();
                let mut path: Vec<N> = Vec::new();
                color.insert(start.clone(), Color::Gray);
                path.push(start.clone());
                stack.push((start.clone(), neighbours_of(&start)));
                while !stack.is_empty() {
                    let next = stack.last_mut().expect("non-empty").1.pop();
                    match next {
                        Some(next) => match color[&next] {
                            Color::White => {
                                color.insert(next.clone(), Color::Gray);
                                path.push(next.clone());
                                let nb = neighbours_of(&next);
                                stack.push((next, nb));
                            }
                            Color::Gray => {
                                // Back edge: extract the cycle from the gray path.
                                let pos = path
                                    .iter()
                                    .position(|p| *p == next)
                                    .expect("gray node is on the path");
                                return Some(path[pos..].to_vec());
                            }
                            Color::Black => {}
                        },
                        None => {
                            let (node, _) = stack.pop().expect("non-empty");
                            color.insert(node, Color::Black);
                            path.pop();
                        }
                    }
                }
            }
            None
        }

        /// Ensures `n` exists as a node.
        pub(crate) fn add_node(&mut self, n: N) {
            self.edges.entry(n).or_default();
        }

        /// True iff the graph contains no directed cycle.
        pub(crate) fn is_acyclic(&self) -> bool {
            self.find_cycle().is_none()
        }

        /// A topological order of the nodes, or `None` if cyclic.
        pub(crate) fn topo_order(&self) -> Option<Vec<N>> {
            let mut indegree: HashMap<&N, usize> = self.edges.keys().map(|n| (n, 0)).collect();
            for tos in self.edges.values() {
                for to in tos {
                    *indegree.get_mut(to).expect("endpoint exists") += 1;
                }
            }
            let mut ready: Vec<&N> = indegree
                .iter()
                .filter(|(_, &d)| d == 0)
                .map(|(&n, _)| n)
                .collect();
            ready.sort();
            let mut order = Vec::with_capacity(self.edges.len());
            while let Some(n) = ready.pop() {
                order.push(n.clone());
                let mut next: Vec<&N> = Vec::new();
                for to in &self.edges[n] {
                    let d = indegree.get_mut(to).expect("endpoint exists");
                    *d -= 1;
                    if *d == 0 {
                        next.push(to);
                    }
                }
                next.sort();
                ready.extend(next);
                ready.sort();
            }
            if order.len() == self.edges.len() {
                Some(order)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::hashed::DiGraph;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_graph_is_acyclic() {
        let g: DiGraph<u32> = DiGraph::new();
        assert!(g.is_acyclic());
        assert_eq!(g.topo_order(), Some(vec![]));
    }

    #[test]
    fn chain_is_acyclic() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        assert!(g.is_acyclic());
        assert_eq!(g.topo_order().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn triangle_cycle_is_found() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 3);
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(5, 5);
        assert_eq!(g.find_cycle(), Some(vec![5]));
    }

    #[test]
    fn two_node_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = DiGraph::new();
        g.add_edge(1, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        assert!(g.is_acyclic());
        let topo = g.topo_order().unwrap();
        let pos = |x: u32| topo.iter().position(|&n| n == x).unwrap();
        assert!(pos(1) < pos(2) && pos(1) < pos(3));
        assert!(pos(2) < pos(4) && pos(3) < pos(4));
    }

    #[test]
    fn has_edge_is_directed() {
        let mut g = DiGraph::new();
        g.add_edge("a", "b");
        g.add_edge("a", "b"); // duplicate ignored
        g.add_node("c");
        assert!(g.has_edge(&"a", &"b"));
        assert!(!g.has_edge(&"b", &"a"));
        assert_eq!(g.topo_order().map(|o| o.len()), Some(3));
    }

    #[test]
    fn dense_rows_are_sorted_and_keep_parallel_edges() {
        let g = DenseGraph::from_edges(4, &[(2, 3), (0, 3), (0, 1), (2, 0), (0, 3)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.successors(0), &[1, 3, 3]);
        assert_eq!(g.successors(1), &[] as &[u32]);
        assert_eq!(g.successors(2), &[0, 3]);
        assert_eq!(g.find_cycle(), None);
        assert_eq!(g.topo_order(), Some(vec![2, 0, 3, 1]));
    }

    #[test]
    fn dense_empty_graph_and_self_loop() {
        let empty = DenseGraph::default();
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.find_cycle(), None);
        assert_eq!(empty.topo_order(), Some(vec![]));
        let looped = DenseGraph::from_edges(3, &[(0, 1), (1, 1)]);
        assert_eq!(looped.find_cycle(), Some(vec![1]));
        assert_eq!(looped.topo_order(), None);
    }

    #[test]
    fn cycle_in_larger_graph_with_acyclic_parts() {
        let mut g = DiGraph::new();
        // acyclic component
        g.add_edge(10, 11);
        g.add_edge(11, 12);
        // cyclic component
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        let c = g.find_cycle().unwrap();
        assert!(c.contains(&2) && c.contains(&3));
    }

    proptest! {
        /// On the same nodes and edges the dense graph reports the cycle
        /// and the order the hashed one reports.
        #[test]
        fn dense_graph_agrees_with_hashed(
            nodes in 1u32..24,
            raw in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
        ) {
            let edges: Vec<(u32, u32)> = raw.iter().map(|&(a, b)| (a % nodes, b % nodes)).collect();
            let mut hashed = DiGraph::new();
            for n in 0..nodes {
                hashed.add_node(n);
            }
            for &(a, b) in &edges {
                hashed.add_edge(a, b);
            }
            let dense = DenseGraph::from_edges(nodes as usize, &edges);
            prop_assert_eq!(dense.find_cycle(), hashed.find_cycle());
            prop_assert_eq!(dense.topo_order(), hashed.topo_order());
        }

        /// Edges only from smaller to larger numbers can never form a cycle.
        #[test]
        fn forward_edges_are_acyclic(edges in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
            let mut g = DiGraph::new();
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    g.add_edge(lo, hi);
                }
            }
            prop_assert!(g.is_acyclic());
            prop_assert!(g.topo_order().is_some());
        }

        /// Adding a back edge over a path creates a detectable cycle.
        #[test]
        fn back_edge_creates_cycle(len in 2usize..20) {
            let mut g = DiGraph::new();
            for i in 0..len - 1 {
                g.add_edge(i, i + 1);
            }
            g.add_edge(len - 1, 0);
            prop_assert!(!g.is_acyclic());
            let c = g.find_cycle().unwrap();
            prop_assert_eq!(c.len(), len);
        }

        /// topo_order, when it exists, respects every edge.
        #[test]
        fn topo_order_respects_edges(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..100)) {
            let mut g = DiGraph::new();
            for (a, b) in &edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    g.add_edge(*lo, *hi);
                }
            }
            let topo = g.topo_order().expect("forward graph is acyclic");
            let pos: std::collections::HashMap<u32, usize> =
                topo.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for (a, b) in &edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    prop_assert!(pos[lo] < pos[hi]);
                }
            }
        }
    }
}
