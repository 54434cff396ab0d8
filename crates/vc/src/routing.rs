//! Routing over virtual channels.

use crate::table::VcTable;
use crate::vdir::{VDirSet, VirtualDirection};
use turnroute_core::RoutingAlgorithm;
use turnroute_topology::{NodeId, Topology};

/// A routing algorithm over virtual channels: like
/// [`RoutingAlgorithm`], but the answer names virtual directions
/// (physical direction + lane class).
pub trait VcRoutingAlgorithm: Send + Sync {
    /// A short name for tables and plots.
    fn name(&self) -> String;

    /// Checks that the algorithm is defined on `topo`; the `Err`
    /// message says what it needs. Spec parsing calls this so a
    /// mismatch is a typed error rather than a panic in
    /// [`VcRoutingAlgorithm::provisioning`]. Defaults to `Ok`.
    fn check_topology(&self, topo: &dyn Topology) -> Result<(), String> {
        let _ = topo;
        Ok(())
    }

    /// The lane provisioning this algorithm needs on `topo`.
    ///
    /// # Panics
    ///
    /// May panic if [`VcRoutingAlgorithm::check_topology`] rejects
    /// `topo`.
    fn provisioning(&self, topo: &dyn Topology) -> Vec<u8>;

    /// The virtual directions the header may take next. Must be empty
    /// iff `current == dest`, and only contain provisioned lanes of
    /// existing channels.
    fn route_vc(
        &self,
        topo: &dyn Topology,
        table: &VcTable,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> VDirSet;

    /// `true` if the algorithm only uses shortest physical paths.
    fn is_minimal(&self) -> bool;
}

/// Runs a plain [`RoutingAlgorithm`] on class-0 lanes only: the bridge
/// that lets single-channel algorithms run in the virtual-channel
/// simulator for apples-to-apples comparisons.
#[derive(Debug, Clone)]
pub struct SingleClass<A> {
    base: A,
}

impl<A: RoutingAlgorithm> SingleClass<A> {
    /// Wraps `base`.
    pub fn new(base: A) -> Self {
        SingleClass { base }
    }
}

impl<A: RoutingAlgorithm> VcRoutingAlgorithm for SingleClass<A> {
    fn name(&self) -> String {
        self.base.name()
    }

    fn provisioning(&self, topo: &dyn Topology) -> Vec<u8> {
        vec![1; topo.num_dims()]
    }

    fn route_vc(
        &self,
        topo: &dyn Topology,
        _table: &VcTable,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> VDirSet {
        self.base
            .route(topo, current, dest, arrived.map(VirtualDirection::dir))
            .iter()
            .map(|d| VirtualDirection::new(d, 0))
            .collect()
    }

    fn is_minimal(&self) -> bool {
        self.base.is_minimal()
    }
}

/// Follows `algorithm` from `source` to `dest`, taking the first
/// permitted virtual direction at each hop, and returns the node path.
///
/// # Panics
///
/// Panics if the algorithm violates its contract (empty set away from
/// the destination, unprovisioned lane, or failure to terminate).
pub fn walk_vc(
    algorithm: &dyn VcRoutingAlgorithm,
    topo: &dyn Topology,
    table: &VcTable,
    source: NodeId,
    dest: NodeId,
) -> Vec<NodeId> {
    let mut path = vec![source];
    let mut current = source;
    let mut arrived = None;
    let hop_limit = 4 * (topo.num_nodes() + 1);
    while current != dest {
        assert!(
            path.len() <= hop_limit,
            "walk exceeded hop limit: livelock?"
        );
        let vdirs = algorithm.route_vc(topo, table, current, dest, arrived);
        let v = vdirs
            .iter()
            .next()
            .expect("vc routing algorithm returned no direction away from dest");
        assert!(
            table.vc_from(topo, current, v).is_some(),
            "vc routing algorithm returned an unprovisioned lane"
        );
        current = topo
            .neighbor(current, v.dir())
            .expect("lane implies channel");
        arrived = Some(v);
        path.push(current);
    }
    path
}

/// Exhaustively checks the [`VcRoutingAlgorithm`] contract over every
/// source/destination pair, mirroring
/// [`check_routing_contract`](turnroute_core::check_routing_contract).
///
/// Returns the number of pairs checked.
///
/// # Panics
///
/// Panics on the first violation.
pub fn check_vc_routing_contract(
    algorithm: &dyn VcRoutingAlgorithm,
    topo: &dyn Topology,
    table: &VcTable,
) -> usize {
    let mut pairs = 0;
    for source in topo.nodes() {
        for dest in topo.nodes() {
            if source == dest {
                continue;
            }
            pairs += 1;
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![(source, None::<VirtualDirection>)];
            while let Some((node, arrived)) = stack.pop() {
                if node == dest || !seen.insert((node, arrived)) {
                    continue;
                }
                let vdirs = algorithm.route_vc(topo, table, node, dest, arrived);
                assert!(
                    !vdirs.is_empty(),
                    "{} offers nothing at {} toward {} (arrived {:?})",
                    algorithm.name(),
                    node,
                    dest,
                    arrived
                );
                for v in vdirs.iter() {
                    assert!(
                        table.vc_from(topo, node, v).is_some(),
                        "{} offers unprovisioned {} at {}",
                        algorithm.name(),
                        v,
                        node
                    );
                    let next = topo.neighbor(node, v.dir()).expect("lane implies channel");
                    if algorithm.is_minimal() {
                        assert!(
                            topo.distance(next, dest) < topo.distance(node, dest),
                            "{} offers unproductive {} at {} toward {}",
                            algorithm.name(),
                            v,
                            node,
                            dest
                        );
                    }
                    stack.push((next, Some(v)));
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use turnroute_core::{DimensionOrder, WestFirst};
    use turnroute_topology::Mesh;

    #[test]
    fn single_class_mirrors_the_base_algorithm() {
        let mesh = Mesh::new_2d(5, 5);
        let base = WestFirst::minimal();
        let vc = SingleClass::new(WestFirst::minimal());
        let table = VcTable::new(&mesh, &vc.provisioning(&mesh));
        for s in mesh.nodes() {
            for d in mesh.nodes() {
                let vdirs = vc.route_vc(&mesh, &table, s, d, None);
                let dirs = base.route(&mesh, s, d, None);
                assert_eq!(vdirs.physical(), dirs);
                assert!(vdirs.iter().all(|v| v.class() == 0));
            }
        }
    }

    #[test]
    fn single_class_contract_holds() {
        let mesh = Mesh::new_2d(4, 4);
        let vc = SingleClass::new(DimensionOrder::new());
        let table = VcTable::new(&mesh, &vc.provisioning(&mesh));
        check_vc_routing_contract(&vc, &mesh, &table);
    }

    #[test]
    fn walk_vc_is_minimal_for_minimal_algorithms() {
        let mesh = Mesh::new_2d(6, 6);
        let vc = SingleClass::new(WestFirst::minimal());
        let table = VcTable::new(&mesh, &vc.provisioning(&mesh));
        let s = mesh.node_at(&[5, 1].into());
        let d = mesh.node_at(&[0, 4].into());
        let path = walk_vc(&vc, &mesh, &table, s, d);
        assert_eq!(path.len() - 1, mesh.distance(s, d));
    }
}
