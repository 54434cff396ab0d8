//! Dateline dimension-order routing for k-ary n-cubes: the classic
//! Dally–Seitz use of virtual channels, included as the
//! extra-channel counterpoint to Section 4.2 — with one extra lane per
//! dimension, *minimal* deadlock-free torus routing exists, which the
//! paper shows is impossible without extra channels for `k > 4`.

use crate::routing::VcRoutingAlgorithm;
use crate::table::VcTable;
use crate::vdir::{VDirSet, VirtualDirection};
use turnroute_topology::{NodeId, Topology};

/// Dimension-order torus routing with a dateline: each ring is provided
/// two lanes; a packet travels a dimension on lane 0 until it crosses
/// the wraparound channel, and on lane 1 from that hop onward. Cutting
/// every ring's cycle at the dateline makes the lane dependency graph
/// acyclic even though the rings need no turns to cycle.
///
/// Minimal: each dimension is resolved the short way around (both ways
/// offered when the distance ties).
///
/// # Example
///
/// ```
/// use turnroute_vc::{DatelineDimensionOrder, VcRoutingAlgorithm, VcTable, walk_vc};
/// use turnroute_topology::{NodeId, Topology, Torus};
///
/// let torus = Torus::new(8, 2);
/// let algo = DatelineDimensionOrder::new();
/// let table = VcTable::new(&torus, &algo.provisioning(&torus));
/// let path = walk_vc(&algo, &torus, &table, NodeId::new(0), NodeId::new(60));
/// // Minimal with wraparound: something no channel-free torus algorithm
/// // in the paper can guarantee.
/// assert_eq!(path.len() - 1, torus.distance(NodeId::new(0), NodeId::new(60)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DatelineDimensionOrder {
    _private: (),
}

impl DatelineDimensionOrder {
    /// Creates the dateline router.
    pub fn new() -> Self {
        DatelineDimensionOrder { _private: () }
    }
}

impl VcRoutingAlgorithm for DatelineDimensionOrder {
    fn name(&self) -> String {
        "dateline-dimension-order".to_owned()
    }

    fn check_topology(&self, topo: &dyn Topology) -> Result<(), String> {
        if (0..topo.num_dims()).all(|d| topo.wraps(d)) {
            Ok(())
        } else {
            Err(format!(
                "'dateline' requires a torus topology, not {}",
                topo.label()
            ))
        }
    }

    fn provisioning(&self, topo: &dyn Topology) -> Vec<u8> {
        if let Err(e) = self.check_topology(topo) {
            panic!("{e}");
        }
        vec![2; topo.num_dims()]
    }

    fn route_vc(
        &self,
        topo: &dyn Topology,
        _table: &VcTable,
        current: NodeId,
        dest: NodeId,
        arrived: Option<VirtualDirection>,
    ) -> VDirSet {
        let mut set = VDirSet::new();
        // Lowest unresolved dimension first.
        let productive = topo.minimal_directions(current, dest);
        let Some(first) = productive.first() else {
            return set;
        };
        let dim = first.dim();
        for dir in productive.iter().filter(|d| d.dim() == dim) {
            // Lane 1 from the wraparound hop onward within a dimension.
            let wrapped_already = matches!(
                arrived,
                Some(v) if v.dir().dim() == dim && v.class() == 1
            );
            let this_hop_wraps = topo
                .channel_from(current, dir)
                .is_some_and(|c| topo.channel(c).wraparound);
            let class = u8::from(wrapped_already || this_hop_wraps);
            set.insert(VirtualDirection::new(dir, class));
        }
        set
    }

    fn is_minimal(&self) -> bool {
        true
    }
}

/// The lane-transition relation of dateline routing, for dependency
/// verification: `(channel, class) -> (channel', class')` transitions
/// the discipline can produce.
pub fn dateline_may_follow(
    topo: &dyn Topology,
    from: (turnroute_topology::Channel, u8),
    to: (turnroute_topology::Channel, u8),
) -> bool {
    let _ = topo;
    let ((c1, k1), (c2, k2)) = (from, to);
    let (d1, d2) = (c1.dir.dim(), c2.dir.dim());
    // No reversals within a dimension.
    if d1 == d2 && c1.dir.sign() != c2.dir.sign() {
        return false;
    }
    if d1 == d2 {
        // Continuing a dimension: the class is sticky, except the
        // wraparound hop which raises it to 1. A wrap channel is always
        // traversed on class 1 — and only reached from class 0, because
        // a minimal route never goes all the way around a ring: this is
        // the dateline cut that keeps each ring's dependency chain
        // acyclic.
        if c2.wraparound {
            k2 == 1 && k1 == 0 && !c1.wraparound
        } else if c1.wraparound || k1 == 1 {
            k2 == 1
        } else {
            k2 == 0
        }
    } else {
        // Dimension order: only ascending transitions; a new dimension
        // starts on class 0 unless its very first hop wraps.
        d1 < d2 && (k2 == u8::from(c2.wraparound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{check_vc_routing_contract, walk_vc};
    use turnroute_topology::Torus;

    #[test]
    fn contract_holds() {
        for (k, n) in [(5, 2), (4, 2), (6, 1)] {
            let torus = Torus::new(k, n);
            let algo = DatelineDimensionOrder::new();
            let table = VcTable::new(&torus, &algo.provisioning(&torus));
            check_vc_routing_contract(&algo, &torus, &table);
        }
    }

    #[test]
    fn every_pair_routes_minimally() {
        let torus = Torus::new(6, 2);
        let algo = DatelineDimensionOrder::new();
        let table = VcTable::new(&torus, &algo.provisioning(&torus));
        for s in torus.nodes() {
            for d in torus.nodes() {
                if s == d {
                    continue;
                }
                let path = walk_vc(&algo, &torus, &table, s, d);
                assert_eq!(path.len() - 1, torus.distance(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn lane_switches_exactly_at_the_wrap() {
        let torus = Torus::new(8, 1);
        let algo = DatelineDimensionOrder::new();
        let table = VcTable::new(&torus, &algo.provisioning(&torus));
        // 6 -> 1: short way is +3 through the wraparound 7 -> 0.
        let s = NodeId::new(6);
        let d = NodeId::new(1);
        let mut current = s;
        let mut arrived = None;
        let mut classes = Vec::new();
        while current != d {
            let v = algo
                .route_vc(&torus, &table, current, d, arrived)
                .iter()
                .next()
                .unwrap();
            classes.push(v.class());
            current = torus.neighbor(current, v.dir()).unwrap();
            arrived = Some(v);
        }
        // Hops: 6->7 (lane 0), 7->0 (wrap, lane 1), 0->1 (lane 1).
        assert_eq!(classes, vec![0, 1, 1]);
    }

    #[test]
    fn ties_offer_both_ways_around() {
        let torus = Torus::new(6, 1);
        let algo = DatelineDimensionOrder::new();
        let table = VcTable::new(&torus, &algo.provisioning(&torus));
        let set = algo.route_vc(&torus, &table, NodeId::new(0), NodeId::new(3), None);
        assert_eq!(set.physical().len(), 2);
    }
}
