//! Grouped many-flow playback over multicast dissemination graphs.
//!
//! The paper's flows are strictly unicast, but the north-star workload
//! — thousands of concurrent flows per node — shares sources heavily
//! (one feed, many subscribers). This module replays that shape the
//! way the overlay sends it: flows sharing a source collapse into one
//! **group job** routed by a single interned [`MulticastGraph`], and
//! each packet propagates through the shared graph **once**, with
//! every receiver's outcome read from that one propagation. The naive
//! alternative ([`run_unicast_static_with`]) replays each receiver as
//! its own unicast flow — the baseline the `many-flow` bench compares
//! against.
//!
//! Determinism matches the unicast runner: loss draws are a pure
//! function of `(seed, edge, seq, attempt)`, worker counts cannot
//! change results, and a single-receiver group run is byte-identical
//! to the plain unicast replay of the same graph (same seed mixing,
//! same propagation core).

use crate::packet::{simulate_group_packet_with, simulate_packet_with, PacketOutcome, SimScratch};
use crate::parallel::fan_out;
use crate::playback::PlaybackConfig;
use dg_core::{
    receiver_digest, CoreError, DisseminationGraph, Flow, GraphCache, MulticastGraph,
    MulticastKind, ServiceRequirement,
};
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::TraceSet;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One unit of grouped playback work: all flows from `source` to
/// `receivers`, routed by one `kind` multicast graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupJob {
    /// The shared sending site.
    pub source: NodeId,
    /// The receiver set (canonicalized by the graph construction).
    pub receivers: Vec<NodeId>,
    /// Which multicast graph to route the group over.
    pub kind: MulticastKind,
    /// The timeliness contract the graph is built against.
    pub requirement: ServiceRequirement,
}

/// Per-receiver outcome counters of a group run — the group analogue
/// of one unicast flow's delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceiverRunStats {
    /// The receiving site.
    pub receiver: NodeId,
    /// Application packets addressed to this receiver.
    pub packets_sent: u64,
    /// Packets delivered within the deadline.
    pub packets_on_time: u64,
    /// Packets delivered at all.
    pub packets_delivered: u64,
    /// Packets never delivered.
    pub packets_lost: u64,
}

impl ReceiverRunStats {
    fn new(receiver: NodeId) -> Self {
        ReceiverRunStats {
            receiver,
            packets_sent: 0,
            packets_on_time: 0,
            packets_delivered: 0,
            packets_lost: 0,
        }
    }

    fn record(&mut self, outcome: &PacketOutcome) {
        self.packets_sent += 1;
        if outcome.delivered_at.is_some() {
            self.packets_delivered += 1;
        } else {
            self.packets_lost += 1;
        }
        if outcome.on_time {
            self.packets_on_time += 1;
        }
    }

    /// Fraction of this receiver's packets delivered on time.
    pub fn on_time_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_on_time as f64 / self.packets_sent as f64
    }
}

/// Everything one group replay produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupRunStats {
    /// The shared sending site.
    pub source: NodeId,
    /// Trace seconds replayed.
    pub seconds: u64,
    /// Total link transmissions of the group — **shared** across the
    /// whole receiver set: one send covers every receiver, which is
    /// the cost the unicast baseline pays per flow.
    pub transmissions: u64,
    /// Per-receiver delivery counters, in the graph's canonical
    /// receiver order.
    pub receivers: Vec<ReceiverRunStats>,
}

/// Collapses a list of unicast flows into `(source, receivers)` group
/// specs, preserving first-seen source order (self-flows and duplicate
/// receivers are dropped by the graph's canonicalization later).
pub fn group_flows(flows: &[Flow]) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut order: Vec<NodeId> = Vec::new();
    let mut by_source: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for f in flows {
        let entry = by_source.entry(f.source).or_insert_with(|| {
            order.push(f.source);
            Vec::new()
        });
        entry.push(f.destination);
    }
    order
        .into_iter()
        .map(|s| {
            let receivers = by_source.remove(&s).expect("every ordered source has receivers");
            (s, receivers)
        })
        .collect()
}

/// The sampling seed of a group run. A single-receiver group mixes
/// exactly as the unicast playback does — `(source << 32) | receiver`
/// — so `--flows 1` group runs are byte-identical to the unicast path
/// on fixed seeds; larger groups mix the canonical receiver-set digest
/// so distinct groups see independent draws.
fn group_seed(seed: u64, source: NodeId, receivers: &[NodeId]) -> u64 {
    let key = match receivers {
        [only] => ((source.index() as u64) << 32) | only.index() as u64,
        many => ((source.index() as u64) << 32) | (receiver_digest(many) & 0xFFFF_FFFF),
    };
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(key)
}

/// Replays `traces` for one multicast group over a caller-held scratch
/// arena. The graph is static for the run (the cached graph a sender
/// would hold between reroutes); each of the `seconds × pps` packets
/// propagates once and every receiver's outcome is read from that
/// propagation.
pub fn run_group_with(
    topology: &Graph,
    traces: &TraceSet,
    mgraph: &MulticastGraph,
    config: &PlaybackConfig,
    scratch: &mut SimScratch,
) -> GroupRunStats {
    assert!(config.packets_per_second > 0, "at least one packet per second");
    let seed = group_seed(config.seed, mgraph.source(), mgraph.receivers());
    let total_seconds = traces.duration().as_secs();
    let spacing = Micros::from_micros(1_000_000 / u64::from(config.packets_per_second));

    let mut stats = GroupRunStats {
        source: mgraph.source(),
        seconds: total_seconds,
        transmissions: 0,
        receivers: mgraph.receivers().iter().map(|&r| ReceiverRunStats::new(r)).collect(),
    };
    let mut outcomes: Vec<PacketOutcome> = Vec::with_capacity(stats.receivers.len());
    let mut seq = 0u64;
    scratch.index_multicast(topology, mgraph);
    for second in 0..total_seconds {
        for k in 0..u64::from(config.packets_per_second) {
            let t = Micros::from_secs(second).saturating_add(spacing.saturating_mul(k));
            stats.transmissions += simulate_group_packet_with(
                scratch,
                topology,
                mgraph,
                traces,
                t,
                config.deadline,
                &config.recovery,
                seed,
                seq,
                &mut outcomes,
            );
            seq += 1;
            for (cell, outcome) in stats.receivers.iter_mut().zip(&outcomes) {
                cell.record(outcome);
            }
        }
    }
    stats
}

/// The naive per-flow baseline: replays `traces` for one **unicast**
/// flow over a static dissemination graph, with the exact seed mixing
/// and packet cadence of [`crate::run_flow`]. Returns the receiver's
/// counters plus the flow's total link transmissions.
pub fn run_unicast_static_with(
    topology: &Graph,
    traces: &TraceSet,
    dgraph: &DisseminationGraph,
    config: &PlaybackConfig,
    scratch: &mut SimScratch,
) -> (ReceiverRunStats, u64) {
    assert!(config.packets_per_second > 0, "at least one packet per second");
    let seed = group_seed(config.seed, dgraph.source(), &[dgraph.destination()]);
    let total_seconds = traces.duration().as_secs();
    let spacing = Micros::from_micros(1_000_000 / u64::from(config.packets_per_second));

    let mut stats = ReceiverRunStats::new(dgraph.destination());
    let mut transmissions = 0u64;
    let mut seq = 0u64;
    scratch.index_graph(topology, dgraph);
    for second in 0..total_seconds {
        for k in 0..u64::from(config.packets_per_second) {
            let t = Micros::from_secs(second).saturating_add(spacing.saturating_mul(k));
            let outcome = simulate_packet_with(
                scratch,
                topology,
                dgraph,
                traces,
                t,
                config.deadline,
                &config.recovery,
                seed,
                seq,
            );
            seq += 1;
            transmissions += outcome.transmissions;
            stats.record(&outcome);
        }
    }
    (stats, transmissions)
}

/// Replays every group job against `traces`, fanned out over `threads`
/// workers (zero = one per CPU core), returning one [`GroupRunStats`]
/// per job **in input order**. Graphs are built serially through the
/// shared `cache`, so jobs with the same `(source, receiver set, kind,
/// deadline)` intern one computation; each worker holds one
/// [`SimScratch`] whose forwarding index is rebuilt once per group,
/// not per packet. Worker counts cannot change results.
///
/// # Errors
///
/// Propagates multicast-graph construction failures (an unreachable
/// receiver, an empty receiver set), in job order.
pub fn run_groups(
    topology: &Graph,
    traces: &TraceSet,
    cache: &GraphCache,
    jobs: &[GroupJob],
    config: &PlaybackConfig,
    threads: usize,
) -> Result<Vec<GroupRunStats>, CoreError> {
    let mut graphs: Vec<Arc<MulticastGraph>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        graphs.push(cache.multicast(job.source, &job.receivers, job.kind, job.requirement)?);
    }
    Ok(fan_out(graphs.len(), threads, |i, scratch| {
        run_group_with(topology, traces, &graphs[i], config, scratch)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_core::scheme::SchemeParams;
    use dg_topology::presets;
    use dg_trace::gen::{self, SyntheticWanConfig};

    fn noisy_traces(g: &Graph) -> TraceSet {
        let mut cfg = SyntheticWanConfig::calibrated(3);
        cfg.duration = Micros::from_secs(10);
        cfg.link_problems.events_per_hour = 40.0;
        gen::generate(g, &cfg)
    }

    fn quick_config() -> PlaybackConfig {
        PlaybackConfig { packets_per_second: 10, seed: 11, ..PlaybackConfig::default() }
    }

    #[test]
    fn grouping_preserves_source_order() {
        let n = NodeId::new;
        let flows = [
            Flow::new(n(2), n(5)),
            Flow::new(n(0), n(1)),
            Flow::new(n(2), n(7)),
            Flow::new(n(0), n(3)),
        ];
        let groups = group_flows(&flows);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (n(2), vec![n(5), n(7)]));
        assert_eq!(groups[1], (n(0), vec![n(1), n(3)]));
    }

    #[test]
    fn single_receiver_group_is_byte_identical_to_unicast() {
        let g = presets::north_america_12();
        let traces = noisy_traces(&g);
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let (src, dst) = (g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
        let config = quick_config();
        let mgraph = cache
            .multicast(src, &[dst], MulticastKind::Tree, ServiceRequirement::default())
            .unwrap();
        let mut scratch = SimScratch::new();
        let group = run_group_with(&g, &traces, &mgraph, &config, &mut scratch);
        let uni = mgraph.unicast_view(&g, dst).unwrap();
        let (stats, transmissions) =
            run_unicast_static_with(&g, &traces, &uni, &config, &mut scratch);
        assert_eq!(group.receivers, vec![stats]);
        assert_eq!(group.transmissions, transmissions);
        let a = serde_json::to_string(&group.receivers[0]).unwrap();
        let b = serde_json::to_string(&stats).unwrap();
        assert_eq!(a, b, "single-receiver group must be byte-identical to unicast");
    }

    #[test]
    fn one_group_send_costs_less_than_per_receiver_unicast() {
        let g = presets::north_america_12();
        let traces = noisy_traces(&g);
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let src = g.node_by_name("NYC").unwrap();
        let receivers: Vec<NodeId> = ["SJC", "LAX", "SEA", "DEN", "MIA"]
            .iter()
            .map(|n| g.node_by_name(n).unwrap())
            .collect();
        let config = quick_config();
        let mgraph = cache
            .multicast(src, &receivers, MulticastKind::Tree, ServiceRequirement::default())
            .unwrap();
        let mut scratch = SimScratch::new();
        let group = run_group_with(&g, &traces, &mgraph, &config, &mut scratch);
        let mut unicast_total = 0u64;
        for &r in &receivers {
            let uni = cache
                .compute_multicast_uncached(src, &[r], MulticastKind::Tree, Default::default())
                .unwrap()
                .unicast_view(&g, r)
                .unwrap();
            let (_, tx) = run_unicast_static_with(&g, &traces, &uni, &config, &mut scratch);
            unicast_total += tx;
        }
        assert!(
            group.transmissions < unicast_total,
            "shared tree ({}) must beat per-receiver unicast ({unicast_total})",
            group.transmissions
        );
        assert_eq!(group.receivers.len(), receivers.len());
        for r in &group.receivers {
            assert!(r.packets_sent > 0);
        }
    }

    #[test]
    fn worker_counts_cannot_change_group_results() {
        let g = presets::north_america_12();
        let traces = noisy_traces(&g);
        let names: [(&str, &[&str]); 3] = [
            ("NYC", &["SJC", "LAX", "MIA"]),
            ("SEA", &["WAS", "ATL"]),
            ("DEN", &["NYC", "SJC", "SEA", "CHI"]),
        ];
        let jobs: Vec<GroupJob> = names
            .into_iter()
            .map(|(s, rs)| GroupJob {
                source: g.node_by_name(s).unwrap(),
                receivers: rs.iter().map(|r| g.node_by_name(r).unwrap()).collect(),
                kind: MulticastKind::Targeted,
                requirement: ServiceRequirement::default(),
            })
            .collect();
        let config = quick_config();
        let run_fresh = |threads| {
            let cache = GraphCache::new(g.clone(), SchemeParams::default());
            run_groups(&g, &traces, &cache, &jobs, &config, threads)
        };
        let serial = run_fresh(1).unwrap();
        for threads in [2, 4] {
            let parallel = run_fresh(threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn repeated_jobs_intern_one_graph() {
        let g = presets::north_america_12();
        let traces = TraceSet::clean(g.edge_count(), 1, Micros::from_secs(2)).unwrap();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let job = GroupJob {
            source: g.node_by_name("NYC").unwrap(),
            receivers: vec![g.node_by_name("SJC").unwrap(), g.node_by_name("LAX").unwrap()],
            kind: MulticastKind::Targeted,
            requirement: ServiceRequirement::default(),
        };
        let jobs = vec![job.clone(), job.clone(), job];
        run_groups(&g, &traces, &cache, &jobs, &quick_config(), 1).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.multicast.misses, 1, "one construction");
        assert_eq!(stats.multicast.hits, 2, "two interned hits");
    }
}
