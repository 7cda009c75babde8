//! Seeded chaos schedules: scripted fault storms against a [`Cluster`].
//!
//! A [`ChaosSchedule`] is a time-ordered list of fault events — link
//! impairments and heals, node-wide impairments, node crashes and
//! restarts — replayed against a running cluster by a [`ChaosRunner`].
//! Schedules are plain serde data (loadable from JSON for the `dg-node`
//! CLI) and can be generated deterministically from a seed, so a chaos
//! soak is reproducible: the same seed yields the same storm.

use crate::cluster::Cluster;
use crate::fault::{unit, BurstLoss, LinkFault};
use crate::metrics::NodeThread;
use crate::OverlayError;
use dg_core::splitmix64_next;
use dg_topology::{EdgeId, Graph, Micros, NodeId};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One fault-injection action against the cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChaosAction {
    /// Impair one directed edge (loss, burst, jitter, reorder,
    /// duplication, corruption, or blackhole); the fault's delay
    /// composes on top of the emulated propagation delay.
    InjectEdge {
        /// The directed edge to impair.
        edge: EdgeId,
        /// The impairment to apply.
        fault: LinkFault,
    },
    /// Restore one directed edge to its emulated baseline.
    HealEdge {
        /// The edge to heal.
        edge: EdgeId,
    },
    /// Impair every link incident to a node (both directions) — the
    /// paper's "problem around a node".
    ImpairNode {
        /// The node whose incident links are impaired.
        node: NodeId,
        /// The impairment applied to each incident link.
        fault: LinkFault,
    },
    /// Restore every link incident to a node to its baseline.
    HealNode {
        /// The node to heal.
        node: NodeId,
    },
    /// Stop a node's daemon entirely; peers discover the death through
    /// hello silence. A no-op if the node is already down.
    CrashNode {
        /// The node to crash.
        node: NodeId,
    },
    /// Restart a previously crashed node on its original port. A no-op
    /// if the node is alive.
    RestartNode {
        /// The node to restart.
        node: NodeId,
    },
    /// Make one of a node's protocol threads panic; its supervisor
    /// catches the panic, journals it, and restarts the thread. A
    /// no-op if the node is crashed.
    PanicThread {
        /// The node whose thread panics.
        node: NodeId,
        /// Which protocol thread to crash.
        thread: NodeThread,
    },
    /// Flood a node's outbound data queue with synthetic shipments
    /// that evaporate after `dwell_ms` — deterministic overload
    /// pressure that exercises the class shed bands and the
    /// redundancy-downgrade state machine without touching the wire.
    /// A no-op if the node is crashed.
    Overload {
        /// The node to pressure.
        node: NodeId,
        /// Synthetic shipments injected into the outbound queue.
        shipments: usize,
        /// How long the pressure dwells before evaporating.
        dwell_ms: u64,
    },
}

/// A [`ChaosAction`] scheduled at an offset from the start of the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// When the action fires, in milliseconds after the run starts.
    pub at_ms: u64,
    /// What happens.
    pub action: ChaosAction,
}

/// Shape parameters for [`ChaosSchedule::generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Total schedule span; every heal and restart lands inside it.
    pub duration_ms: u64,
    /// Number of link-impairment episodes (each paired with a heal).
    pub link_events: usize,
    /// Number of crash/restart cycles.
    pub crashes: usize,
    /// Longest an impairment dwells before its heal.
    pub max_dwell_ms: u64,
    /// Quiet tail with no active fault, so delivery can recover before
    /// the run ends.
    pub settle_ms: u64,
    /// Number of overload episodes (synthetic queue-pressure floods
    /// against random nodes). Defaults to zero so existing profiles —
    /// and their serialized JSON — keep their exact storms.
    #[serde(default)]
    pub overload_events: usize,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            duration_ms: 4_000,
            link_events: 6,
            crashes: 1,
            max_dwell_ms: 800,
            settle_ms: 1_500,
            overload_events: 0,
        }
    }
}

/// A reproducible storm of fault events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// The seed the schedule was generated from (zero for hand-written
    /// schedules); informational.
    pub seed: u64,
    /// The events, not necessarily sorted; [`ChaosRunner`] sorts by
    /// `at_ms` (ties keep list order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generates a deterministic schedule for a topology with
    /// `edge_count` directed edges and `node_count` nodes: every
    /// impairment is healed and every crash restarted within the
    /// profile's active window, leaving `settle_ms` of quiet tail.
    /// Nodes in `protected` (flow endpoints, say) are never crashed.
    ///
    /// The same `(seed, counts, profile)` always yields the same
    /// schedule.
    pub fn generate(
        seed: u64,
        edge_count: usize,
        node_count: usize,
        protected: &[NodeId],
        profile: &ChaosProfile,
    ) -> ChaosSchedule {
        let mut rng = seed ^ 0xC4A0_5CA7_E150_11ED;
        let active_ms = profile.duration_ms.saturating_sub(profile.settle_ms).max(1);
        let mut events = Vec::new();
        for _ in 0..profile.link_events {
            let edge = EdgeId::new((splitmix64_next(&mut rng) % edge_count.max(1) as u64) as u32);
            let fault = random_fault(&mut rng);
            let start = splitmix64_next(&mut rng) % active_ms;
            let dwell = 1 + splitmix64_next(&mut rng) % profile.max_dwell_ms.max(1);
            let heal_at = (start + dwell).min(active_ms);
            events
                .push(ChaosEvent { at_ms: start, action: ChaosAction::InjectEdge { edge, fault } });
            events.push(ChaosEvent { at_ms: heal_at, action: ChaosAction::HealEdge { edge } });
        }
        let crashable: Vec<NodeId> =
            (0..node_count as u32).map(NodeId::new).filter(|n| !protected.contains(n)).collect();
        if !crashable.is_empty() {
            for _ in 0..profile.crashes {
                let node = crashable[(splitmix64_next(&mut rng) % crashable.len() as u64) as usize];
                let start = splitmix64_next(&mut rng) % active_ms;
                let dwell = 1 + splitmix64_next(&mut rng) % profile.max_dwell_ms.max(1);
                let back_at = (start + dwell).min(active_ms);
                events.push(ChaosEvent { at_ms: start, action: ChaosAction::CrashNode { node } });
                events
                    .push(ChaosEvent { at_ms: back_at, action: ChaosAction::RestartNode { node } });
            }
        }
        for _ in 0..profile.overload_events {
            let node = NodeId::new((splitmix64_next(&mut rng) % node_count.max(1) as u64) as u32);
            let start = splitmix64_next(&mut rng) % active_ms;
            let dwell_ms = 1 + splitmix64_next(&mut rng) % profile.max_dwell_ms.max(1);
            // Enough pressure to blow well past any reasonable queue
            // bound, scaled by the seed for variety.
            let shipments = 256 + (splitmix64_next(&mut rng) % 768) as usize;
            events.push(ChaosEvent {
                at_ms: start,
                action: ChaosAction::Overload { node, shipments, dwell_ms },
            });
        }
        ChaosSchedule { seed, events }
    }

    /// Parses a schedule from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(json: &str) -> Result<ChaosSchedule, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the schedule to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedule serializes")
    }

    /// The fire time of the last event, in milliseconds (zero for an
    /// empty schedule). Deployment harnesses size their run windows
    /// off this.
    pub fn end_ms(&self) -> u64 {
        self.events.iter().map(|e| e.at_ms).max().unwrap_or(0)
    }

    /// The same schedule with every event delayed by `offset_ms` —
    /// how a harness aligns a schedule authored relative to "chaos
    /// starts" onto a run that needs a convergence warm-up first.
    pub fn shifted(&self, offset_ms: u64) -> ChaosSchedule {
        let events = self
            .events
            .iter()
            .map(|e| ChaosEvent {
                at_ms: e.at_ms.saturating_add(offset_ms),
                action: e.action.clone(),
            })
            .collect();
        ChaosSchedule { seed: self.seed, events }
    }

    /// The schedule as seen by a process that joins `elapsed_ms` into
    /// the run (a restarted daemon): events already in the past are
    /// dropped, the rest keep their absolute position by firing
    /// `elapsed_ms` earlier on the newcomer's own clock.
    pub fn rebased(&self, elapsed_ms: u64) -> ChaosSchedule {
        let events = self
            .events
            .iter()
            .filter(|e| e.at_ms >= elapsed_ms)
            .map(|e| ChaosEvent { at_ms: e.at_ms - elapsed_ms, action: e.action.clone() })
            .collect();
        ChaosSchedule { seed: self.seed, events }
    }

    /// Just the process-level events — crashes and restarts, sorted by
    /// fire time. A multi-process harness executes these itself (kill
    /// and respawn the daemon); they are exactly the events
    /// [`ChaosSchedule::shard_for_node`] excludes.
    pub fn process_events(&self) -> Vec<ChaosEvent> {
        let mut events: Vec<ChaosEvent> = self
            .events
            .iter()
            .filter(|e| {
                matches!(e.action, ChaosAction::CrashNode { .. } | ChaosAction::RestartNode { .. })
            })
            .cloned()
            .collect();
        events.sort_by_key(|e| e.at_ms);
        events
    }

    /// The slice of this schedule one daemon can enact on itself — the
    /// per-node `--chaos-json` file a multi-process harness distributes.
    ///
    /// A standalone daemon controls only its own *out*-links, so
    /// cluster-wide actions lower to that vantage point:
    ///
    /// - edge events survive where the edge's source is `me` (edges
    ///   out of range for the topology are dropped rather than trusted);
    /// - `ImpairNode`/`HealNode` against `me` survive as-is (the daemon
    ///   impairs all of its out-links), and against a *neighbour* they
    ///   lower to edge events on the `me → node` edge — so the union of
    ///   every daemon's shard reproduces the cluster semantics of
    ///   impairing both directions of every incident link;
    /// - thread panics and overloads survive where they name `me`;
    /// - crashes and restarts are excluded entirely: killing a process
    ///   is the harness's job (see [`ChaosSchedule::process_events`]),
    ///   not the victim's.
    pub fn shard_for_node(&self, graph: &Graph, me: NodeId) -> ChaosSchedule {
        let edge_to =
            |node: NodeId| graph.out_edges(me).iter().copied().find(|&e| graph.edge(e).dst == node);
        let mut events = Vec::new();
        for event in &self.events {
            let lowered = match event.action {
                ChaosAction::InjectEdge { edge, fault } => (edge.index() < graph.edge_count()
                    && graph.edge(edge).src == me)
                    .then_some(ChaosAction::InjectEdge { edge, fault }),
                ChaosAction::HealEdge { edge } => (edge.index() < graph.edge_count()
                    && graph.edge(edge).src == me)
                    .then_some(ChaosAction::HealEdge { edge }),
                ChaosAction::ImpairNode { node, fault } => {
                    if node == me {
                        Some(ChaosAction::ImpairNode { node, fault })
                    } else {
                        edge_to(node).map(|edge| ChaosAction::InjectEdge { edge, fault })
                    }
                }
                ChaosAction::HealNode { node } => {
                    if node == me {
                        Some(ChaosAction::HealNode { node })
                    } else {
                        edge_to(node).map(|edge| ChaosAction::HealEdge { edge })
                    }
                }
                ChaosAction::CrashNode { .. } | ChaosAction::RestartNode { .. } => None,
                ChaosAction::PanicThread { node, thread } => {
                    (node == me).then_some(ChaosAction::PanicThread { node, thread })
                }
                ChaosAction::Overload { node, shipments, dwell_ms } => {
                    (node == me).then_some(ChaosAction::Overload { node, shipments, dwell_ms })
                }
            };
            if let Some(action) = lowered {
                events.push(ChaosEvent { at_ms: event.at_ms, action });
            }
        }
        events.sort_by_key(|e| e.at_ms);
        ChaosSchedule { seed: self.seed, events }
    }
}

/// Draws one impairment, cycling through the model's failure modes so a
/// generated storm exercises all of them.
fn random_fault(rng: &mut u64) -> LinkFault {
    let delay = Micros::from_millis(splitmix64_next(rng) % 8);
    match splitmix64_next(rng) % 6 {
        0 => LinkFault { loss: 0.05 + 0.35 * unit(rng), delay, ..LinkFault::default() },
        1 => LinkFault {
            burst: Some(BurstLoss {
                p_enter: 0.05 + 0.1 * unit(rng),
                p_exit: 0.2 + 0.3 * unit(rng),
                good_loss: 0.01,
                bad_loss: 0.6 + 0.4 * unit(rng),
            }),
            delay,
            ..LinkFault::default()
        },
        2 => LinkFault {
            jitter: Micros::from_millis(1 + splitmix64_next(rng) % 5),
            reorder: 0.1 + 0.3 * unit(rng),
            delay,
            ..LinkFault::default()
        },
        3 => LinkFault { duplicate: 0.05 + 0.2 * unit(rng), delay, ..LinkFault::default() },
        4 => LinkFault { corrupt: 0.05 + 0.2 * unit(rng), delay, ..LinkFault::default() },
        _ => LinkFault { blackhole: true, ..LinkFault::default() },
    }
}

/// Replays a [`ChaosSchedule`] against a cluster.
///
/// Poll-driven: the caller owns the clock and calls
/// [`ChaosRunner::poll`] with the elapsed run time; every event whose
/// `at_ms` has passed is applied, in order. This keeps the runner free
/// of threads and lets tests drive it from their own pacing loop.
#[derive(Debug)]
pub struct ChaosRunner {
    events: Vec<ChaosEvent>,
    next: usize,
}

impl ChaosRunner {
    /// A runner over `schedule`, sorted by fire time.
    pub fn new(schedule: &ChaosSchedule) -> ChaosRunner {
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.at_ms);
        ChaosRunner { events, next: 0 }
    }

    /// Applies every event due at `elapsed`; returns how many fired.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::Io`] when a node restart cannot re-bind
    /// its port; earlier events in the batch stay applied.
    pub fn poll(
        &mut self,
        cluster: &mut Cluster,
        elapsed: Duration,
    ) -> Result<usize, OverlayError> {
        let now_ms = elapsed.as_millis() as u64;
        let mut fired = 0;
        while self.next < self.events.len() && self.events[self.next].at_ms <= now_ms {
            let event = self.events[self.next].clone();
            self.next += 1;
            fired += 1;
            apply(cluster, &event.action)?;
        }
        Ok(fired)
    }

    /// Milliseconds until the next unfired event, if any.
    pub fn next_due_ms(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_ms)
    }

    /// True when every event has fired.
    pub fn finished(&self) -> bool {
        self.next >= self.events.len()
    }
}

/// Applies one action to the cluster. Crash/restart of an
/// already-dead/alive node is a no-op, so schedules compose safely.
fn apply(cluster: &mut Cluster, action: &ChaosAction) -> Result<(), OverlayError> {
    match *action {
        ChaosAction::InjectEdge { edge, fault } => cluster.set_link_impairment(edge, fault),
        ChaosAction::HealEdge { edge } => cluster.clear_link_fault(edge),
        ChaosAction::ImpairNode { node, fault } => {
            for edge in incident_edges(cluster, node) {
                cluster.set_link_impairment(edge, fault);
            }
        }
        ChaosAction::HealNode { node } => {
            for edge in incident_edges(cluster, node) {
                cluster.clear_link_fault(edge);
            }
        }
        ChaosAction::CrashNode { node } => {
            if cluster.is_alive(node) {
                cluster.kill_node(node);
            }
        }
        ChaosAction::RestartNode { node } => {
            if !cluster.is_alive(node) {
                cluster.restart_node(node)?;
            }
        }
        ChaosAction::PanicThread { node, thread } => cluster.panic_thread(node, thread),
        ChaosAction::Overload { node, shipments, dwell_ms } => {
            cluster.inject_overload(node, shipments, Duration::from_millis(dwell_ms));
        }
    }
    Ok(())
}

fn incident_edges(cluster: &Cluster, node: NodeId) -> Vec<EdgeId> {
    let graph = cluster.graph();
    graph.out_edges(node).iter().chain(graph.in_edges(node)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let profile = ChaosProfile::default();
        let a = ChaosSchedule::generate(42, 38, 12, &[NodeId::new(0)], &profile);
        let b = ChaosSchedule::generate(42, 38, 12, &[NodeId::new(0)], &profile);
        assert_eq!(a, b);
        let c = ChaosSchedule::generate(43, 38, 12, &[NodeId::new(0)], &profile);
        assert_ne!(a, c, "different seeds give different storms");
    }

    #[test]
    fn every_injection_is_healed_inside_the_active_window() {
        let profile = ChaosProfile::default();
        let schedule = ChaosSchedule::generate(7, 38, 12, &[], &profile);
        let active = profile.duration_ms - profile.settle_ms;
        let mut open_edges = std::collections::HashSet::new();
        let mut down_nodes = std::collections::HashSet::new();
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.at_ms);
        for event in &events {
            assert!(event.at_ms <= active, "event past the active window");
            match &event.action {
                ChaosAction::InjectEdge { edge, .. } => {
                    open_edges.insert(*edge);
                }
                ChaosAction::HealEdge { edge } => {
                    open_edges.remove(edge);
                }
                ChaosAction::CrashNode { node } => {
                    down_nodes.insert(*node);
                }
                ChaosAction::RestartNode { node } => {
                    down_nodes.remove(node);
                }
                _ => {}
            }
        }
        assert!(open_edges.is_empty(), "unhealed edges: {open_edges:?}");
        assert!(down_nodes.is_empty(), "unrestarted nodes: {down_nodes:?}");
    }

    #[test]
    fn protected_nodes_are_never_crashed() {
        let profile = ChaosProfile { crashes: 8, ..ChaosProfile::default() };
        let protected: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let schedule = ChaosSchedule::generate(99, 38, 12, &protected, &profile);
        for event in &schedule.events {
            if let ChaosAction::CrashNode { node } = event.action {
                assert!(!protected.contains(&node), "crashed a protected node");
            }
        }
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let schedule = ChaosSchedule {
            seed: 5,
            events: vec![
                ChaosEvent {
                    at_ms: 100,
                    action: ChaosAction::InjectEdge {
                        edge: EdgeId::new(3),
                        fault: LinkFault { loss: 0.5, blackhole: true, ..LinkFault::default() },
                    },
                },
                ChaosEvent {
                    at_ms: 900,
                    action: ChaosAction::RestartNode { node: NodeId::new(4) },
                },
            ],
        };
        let parsed = ChaosSchedule::from_json(&schedule.to_json()).unwrap();
        assert_eq!(parsed, schedule);
    }

    #[test]
    fn shards_cover_the_cluster_semantics_and_drop_process_events() {
        let graph = dg_topology::presets::north_america_12();
        let nyc = graph.node_by_name("NYC").unwrap();
        let den = graph.node_by_name("DEN").unwrap();
        let nyc_out = graph.out_edges(nyc)[0];
        let fault = LinkFault { loss: 0.5, ..LinkFault::default() };
        let schedule = ChaosSchedule {
            seed: 1,
            events: vec![
                ChaosEvent { at_ms: 10, action: ChaosAction::InjectEdge { edge: nyc_out, fault } },
                ChaosEvent { at_ms: 20, action: ChaosAction::ImpairNode { node: den, fault } },
                ChaosEvent { at_ms: 30, action: ChaosAction::HealNode { node: den } },
                ChaosEvent { at_ms: 40, action: ChaosAction::CrashNode { node: den } },
                ChaosEvent { at_ms: 50, action: ChaosAction::RestartNode { node: den } },
                ChaosEvent { at_ms: 60, action: ChaosAction::HealEdge { edge: nyc_out } },
            ],
        };

        // Process-level events are the harness's, never a daemon's.
        let process: Vec<_> = schedule.process_events();
        assert_eq!(process.len(), 2);
        for me in graph.nodes() {
            for event in &schedule.shard_for_node(&graph, me).events {
                assert!(
                    !matches!(
                        event.action,
                        ChaosAction::CrashNode { .. } | ChaosAction::RestartNode { .. }
                    ),
                    "process event leaked into a shard"
                );
            }
        }

        // NYC's own out-edge events stay; nobody else sees them.
        let nyc_shard = schedule.shard_for_node(&graph, nyc);
        assert!(nyc_shard
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::InjectEdge { edge, .. } if edge == nyc_out)));
        let sjc = graph.node_by_name("SJC").unwrap();
        assert!(!schedule
            .shard_for_node(&graph, sjc)
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::InjectEdge { edge, .. } if edge == nyc_out)));

        // ImpairNode{DEN} lowers to: DEN impairing its own out-links,
        // plus each neighbour impairing its edge toward DEN — together
        // exactly the cluster's incident_edges (both directions).
        let den_shard = schedule.shard_for_node(&graph, den);
        assert!(den_shard
            .events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::ImpairNode { node, .. } if node == den)));
        let mut lowered_in_edges = Vec::new();
        for me in graph.nodes() {
            if me == den {
                continue;
            }
            for event in &schedule.shard_for_node(&graph, me).events {
                if let ChaosAction::InjectEdge { edge, .. } = event.action {
                    let info = graph.edge(edge);
                    if info.dst == den {
                        assert_eq!(info.src, me, "a daemon can only impair its own out-links");
                        lowered_in_edges.push(edge);
                    }
                }
            }
        }
        lowered_in_edges.sort_by_key(|e| e.index());
        let mut expected: Vec<EdgeId> = graph.in_edges(den).to_vec();
        expected.sort_by_key(|e| e.index());
        assert_eq!(lowered_in_edges, expected, "every in-edge of DEN is covered by a neighbour");
    }

    #[test]
    fn shift_and_rebase_preserve_absolute_fire_times() {
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent { at_ms: 100, action: ChaosAction::HealEdge { edge: EdgeId::new(0) } },
                ChaosEvent { at_ms: 400, action: ChaosAction::HealEdge { edge: EdgeId::new(1) } },
            ],
        };
        let shifted = schedule.shifted(2_000);
        assert_eq!(shifted.events[0].at_ms, 2_100);
        assert_eq!(shifted.events[1].at_ms, 2_400);

        // A daemon respawned 2.2 s into the run sees only the future
        // event, 200 ms away on its own clock — the same wall-clock
        // instant the original schedule intended.
        let rebased = shifted.rebased(2_200);
        assert_eq!(rebased.events.len(), 1);
        assert_eq!(rebased.events[0].at_ms, 200);

        assert_eq!(schedule.end_ms(), 400);
        assert_eq!(ChaosSchedule { seed: 0, events: vec![] }.end_ms(), 0);
    }

    #[test]
    fn runner_fires_events_in_time_order() {
        // Pure sequencing test: no due events before their time, all
        // fired once past the end.
        let schedule = ChaosSchedule {
            seed: 0,
            events: vec![
                ChaosEvent { at_ms: 50, action: ChaosAction::HealEdge { edge: EdgeId::new(1) } },
                ChaosEvent { at_ms: 10, action: ChaosAction::HealEdge { edge: EdgeId::new(0) } },
            ],
        };
        let runner = ChaosRunner::new(&schedule);
        assert_eq!(runner.next_due_ms(), Some(10), "events are sorted");
        assert!(!runner.finished());
    }
}
