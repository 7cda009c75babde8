//! Application-facing sending and receiving sessions.

use crate::clock::now_us;
use crate::metrics::RouteKind;
use crate::node::Shared;
use crate::wire::{DataPacket, MAX_PAYLOAD};
use crate::OverlayError;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use dg_core::scheme::RoutingScheme;
use dg_core::{
    CachedGraphKind, Flow, GraphCache, MulticastGraph, MulticastKind, ServiceRequirement, SlaClass,
};
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::NetworkState;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A packet handed to a receiving application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The flow it belongs to.
    pub flow: Flow,
    /// End-to-end sequence number.
    pub flow_seq: u64,
    /// Application bytes.
    pub payload: Bytes,
    /// When the source sent it.
    pub sent_at: Micros,
    /// When this node delivered it.
    pub delivered_at: Micros,
    /// Whether it arrived within the flow's deadline.
    pub on_time: bool,
}

impl Delivery {
    /// One-way latency experienced by this packet.
    pub fn latency(&self) -> Micros {
        self.delivered_at.saturating_sub(self.sent_at)
    }
}

/// Summary of a batch of deliveries (e.g. one drained receive queue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Packets delivered within their deadline.
    pub on_time: u64,
    /// Worst one-way latency observed.
    pub max_latency: Micros,
    /// Sum of latencies (for the mean).
    total_latency: Micros,
}

impl DeliveryStats {
    /// Summarizes a batch of deliveries.
    pub fn from_deliveries<'a, I: IntoIterator<Item = &'a Delivery>>(batch: I) -> Self {
        let mut stats = DeliveryStats::default();
        for d in batch {
            stats.delivered += 1;
            if d.on_time {
                stats.on_time += 1;
            }
            let l = d.latency();
            stats.max_latency = stats.max_latency.max(l);
            stats.total_latency = stats.total_latency.saturating_add(l);
        }
        stats
    }

    /// Fraction of delivered packets that met their deadline, or
    /// `None` for an empty batch. A batch with no deliveries carries
    /// no timeliness evidence — a total blackhole must not read as a
    /// perfect on-time rate.
    pub fn on_time_fraction(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.on_time as f64 / self.delivered as f64)
        }
    }

    /// Mean one-way latency, or zero for an empty batch.
    pub fn mean_latency(&self) -> Micros {
        match self.total_latency.as_micros().checked_div(self.delivered) {
            Some(mean) => Micros::from_micros(mean),
            None => Micros::ZERO,
        }
    }
}

/// What produces a sender's dissemination graph.
pub(crate) enum Route {
    /// One of the paper's unicast schemes, which owns its current graph.
    Unicast(Box<dyn RoutingScheme>),
    /// An interned multicast graph, looked up again in the node's graph
    /// cache on every refresh.
    Group { graph: Arc<MulticastGraph>, kind: MulticastKind, requirement: ServiceRequirement },
}

impl Route {
    /// The route's current graph; a unicast route is the one-receiver
    /// group.
    fn graph(&self) -> MulticastGraph {
        match self {
            Route::Unicast(scheme) => MulticastGraph::from(scheme.current()),
            Route::Group { graph, .. } => (**graph).clone(),
        }
    }
}

/// The per-sender routing state, for unicast and group flows alike: the
/// route, its current graph pre-encoded as a wire bitmask, and — under
/// overload — a cheaper override graph that temporarily replaces it.
pub(crate) struct SenderSlot {
    pub(crate) route: Route,
    pub(crate) flow: Flow,
    pub(crate) class: SlaClass,
    mask: Bytes,
    /// Downgraded graph (and its mask) applied while the node is
    /// overloaded; `None` means the route's full graph is in force.
    downgrade: Option<(MulticastGraph, Bytes)>,
    /// The overload level the current downgrade was computed at (0
    /// when no downgrade is active), so re-applying the same level is
    /// a no-op.
    pub(crate) downgrade_level: u8,
}

impl SenderSlot {
    pub(crate) fn new(route: Route, flow: Flow, class: SlaClass, edge_count: usize) -> Self {
        let mask = Bytes::from(route.graph().to_bitmask(edge_count));
        SenderSlot { route, flow, class, mask, downgrade: None, downgrade_level: 0 }
    }

    /// Recomputes the route for the current network state and re-stamps
    /// the mask. Returns the new graph's edge count when its edge set
    /// changed, `None` otherwise.
    pub(crate) fn refresh(
        &mut self,
        topology: &Graph,
        state: &NetworkState,
        cache: &GraphCache,
    ) -> Option<usize> {
        let changed = match &mut self.route {
            Route::Unicast(scheme) => {
                let changed = scheme.update(topology, state);
                // Keep a usable disjoint-pair fallback warm for the
                // flow. Hits are free; a recompute only happens after a
                // report flipped one of the routes' links across the
                // usability threshold (the pair itself is
                // deadline-independent).
                let _ = cache.live(
                    self.flow,
                    CachedGraphKind::TwoDisjoint,
                    ServiceRequirement::default(),
                );
                changed
            }
            // A lookup against the interned multicast tier is free while
            // the cached graph is valid, and recomputes exactly when a
            // link-state report flipped an edge the graph depends on.
            Route::Group { graph, kind, requirement } => {
                match cache.multicast(self.flow.source, graph.receivers(), *kind, *requirement) {
                    Ok(fresh) if !Arc::ptr_eq(&fresh, graph) => {
                        // A recompute can land on the same edge set (the
                        // flip was on a redundant branch's alternative);
                        // only a real edge-set change counts as a reroute.
                        let changed = *fresh != **graph;
                        *graph = fresh;
                        changed
                    }
                    _ => false,
                }
            }
        };
        if !changed {
            return None;
        }
        let graph = self.route.graph();
        self.mask = Bytes::from(graph.to_bitmask(topology.edge_count()));
        Some(graph.len())
    }

    /// What produced the route, as journaled in
    /// [`crate::metrics::EventKind::RouteChange`].
    pub(crate) fn route_kind(&self) -> RouteKind {
        match &self.route {
            Route::Unicast(scheme) => RouteKind::Scheme(scheme.kind()),
            Route::Group { kind, .. } => RouteKind::Multicast(*kind),
        }
    }

    /// Replaces the stamped graph with a cheaper one (overload).
    pub(crate) fn set_downgrade(&mut self, graph: MulticastGraph, level: u8, edge_count: usize) {
        let mask = Bytes::from(graph.to_bitmask(edge_count));
        self.downgrade = Some((graph, mask));
        self.downgrade_level = level;
    }

    /// Restores the route's full graph.
    pub(crate) fn clear_downgrade(&mut self) {
        self.downgrade = None;
        self.downgrade_level = 0;
    }

    pub(crate) fn is_downgraded(&self) -> bool {
        self.downgrade.is_some()
    }

    fn mask(&self) -> Bytes {
        match &self.downgrade {
            Some((_, mask)) => mask.clone(),
            None => self.mask.clone(),
        }
    }

    fn stamped_graph(&self) -> MulticastGraph {
        match &self.downgrade {
            Some((graph, _)) => graph.clone(),
            None => self.route.graph(),
        }
    }
}

impl std::fmt::Debug for SenderSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SenderSlot")
            .field("flow", &self.flow)
            .field("route", &self.route_kind())
            .field("class", &self.class)
            .field("downgraded", &self.downgrade.is_some())
            .finish()
    }
}

/// A sending session: stamps packets with the flow's current
/// dissemination graph and injects them at the source node.
///
/// The same type serves unicast flows (routed by one of the paper's
/// schemes) and multicast groups (one encode + dissemination per packet
/// covers every receiver, over a single-source graph interned in the
/// node's graph cache — see `docs/MULTICAST.md`); a unicast flow is the
/// one-receiver group. Dropping the session frees its admission slot.
pub struct FlowSender {
    shared: Arc<Shared>,
    slot: Arc<Mutex<SenderSlot>>,
    flow: Flow,
    deadline: Micros,
    class: SlaClass,
    next_seq: AtomicU64,
    /// This flow's metrics cells, resolved once so the hot send path
    /// skips the registry lookup.
    cells: Arc<crate::metrics::FlowCells>,
}

/// A multicast sending session — since 0.4.0 the same type as a
/// unicast [`FlowSender`].
pub type FlowGroup = FlowSender;

impl std::fmt::Debug for FlowSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSender")
            .field("flow", &self.flow)
            .field("deadline", &self.deadline)
            .field("class", &self.class)
            .finish()
    }
}

fn check_payload(len: usize) -> Result<(), OverlayError> {
    if len > MAX_PAYLOAD {
        return Err(OverlayError::PayloadTooLarge { got: len, max: MAX_PAYLOAD });
    }
    Ok(())
}

impl FlowSender {
    pub(crate) fn new(shared: Arc<Shared>, slot: Arc<Mutex<SenderSlot>>, deadline: Micros) -> Self {
        let (flow, class) = {
            let slot = slot.lock();
            (slot.flow, slot.class)
        };
        let cells = shared.metrics.flow(flow);
        FlowSender { shared, slot, flow, deadline, class, next_seq: AtomicU64::new(0), cells }
    }

    /// The flow this session sends on (for a group, a tagged group id
    /// in the destination field; see [`Flow::group`]).
    pub fn flow(&self) -> Flow {
        self.flow
    }

    /// The SLA class stamped onto this session's packets.
    pub fn class(&self) -> SlaClass {
        self.class
    }

    /// True while the node has replaced this flow's dissemination graph
    /// with a cheaper one under overload (see `docs/RESILIENCE.md`).
    pub fn is_downgraded(&self) -> bool {
        self.slot.lock().is_downgraded()
    }

    /// The canonical receiver set: the destination of a unicast flow,
    /// the sorted members of a group.
    pub fn receivers(&self) -> Vec<NodeId> {
        match &self.slot.lock().route {
            Route::Unicast(_) => vec![self.flow.destination],
            Route::Group { graph, .. } => graph.receivers().to_vec(),
        }
    }

    fn packet(&self, flow_seq: u64, sent_at: Micros, mask: Bytes, payload: &[u8]) -> DataPacket {
        DataPacket {
            flow: self.flow,
            flow_seq,
            sent_at,
            deadline: self.deadline,
            link_seq: 0, // assigned per link at transmission
            retransmission: false,
            class: self.class,
            mask,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// Sends one application packet to every receiver; returns its flow
    /// sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes.
    pub fn send(&self, payload: &[u8]) -> Result<u64, OverlayError> {
        check_payload(payload.len())?;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.cells.packets_sent.fetch_add(1, Ordering::Relaxed);
        self.shared.disseminate(&self.packet(seq, now_us(), self.slot.lock().mask(), payload));
        Ok(seq)
    }

    /// Re-disseminates the most recently sent packet under its original
    /// flow sequence number — a tail-loss probe, in the spirit of TCP
    /// TLP. Hop-by-hop recovery is gap-triggered: a packet lost on a
    /// link is only NACKed when a *later* packet on that link exposes
    /// the gap, so the last packets of a paused or finished stream can
    /// be lost silently. The probe travels the flow's current
    /// dissemination graph with fresh per-link sequences, which (a)
    /// exposes any tail gaps for normal NACK recovery and (b) delivers
    /// the packet itself if the original copies died — while flow-level
    /// duplicate suppression keeps an already-delivered tail from being
    /// delivered twice. The probe mints no new flow sequence and does
    /// not count in `packets_sent`; it is the same logical packet,
    /// offered again.
    ///
    /// Returns `false` without sending when the session has not sent
    /// anything yet.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] for payloads over
    /// [`MAX_PAYLOAD`] bytes (the payload must be the one passed to the
    /// matching [`FlowSender::send`] for the probe to be a faithful
    /// re-offer).
    pub fn tail_probe(&self, payload: &[u8]) -> Result<bool, OverlayError> {
        check_payload(payload.len())?;
        let next = self.next_seq.load(Ordering::Relaxed);
        if next == 0 {
            return Ok(false);
        }
        self.shared.disseminate(&self.packet(next - 1, now_us(), self.slot.lock().mask(), payload));
        Ok(true)
    }

    /// Sends a run of application packets as one batch: they receive
    /// consecutive flow sequence numbers, share one timestamp and
    /// dissemination mask, and are coalesced into as few wire datagrams
    /// per link as the node's batch budget allows. Returns the first
    /// sequence number of the run.
    ///
    /// This is the high-throughput path: one syscall, checksum, and
    /// fault verdict covers many packets instead of one each — and for
    /// a group, one dissemination covers every receiver.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::PayloadTooLarge`] if any payload exceeds
    /// [`MAX_PAYLOAD`]; nothing is sent in that case.
    pub fn send_batch(&self, payloads: &[&[u8]]) -> Result<u64, OverlayError> {
        for p in payloads {
            check_payload(p.len())?;
        }
        let n = payloads.len() as u64;
        let first = self.next_seq.fetch_add(n, Ordering::Relaxed);
        if n == 0 {
            return Ok(first);
        }
        self.cells.packets_sent.fetch_add(n, Ordering::Relaxed);
        let mask = self.slot.lock().mask();
        let sent_at = now_us();
        // Pooled scratch: the batch path otherwise allocates (and
        // frees) one `Vec<DataPacket>` per call.
        let mut packets = self.shared.take_packet_scratch();
        packets.extend(
            payloads
                .iter()
                .enumerate()
                .map(|(i, p)| self.packet(first + i as u64, sent_at, mask.clone(), p)),
        );
        self.shared.disseminate_batch(&packets);
        self.shared.put_packet_scratch(packets);
        Ok(first)
    }

    /// The dissemination graph currently stamped onto packets — the
    /// overload downgrade while one is active. A unicast route is
    /// returned as its one-receiver multicast graph.
    pub fn current_graph(&self) -> MulticastGraph {
        self.slot.lock().stamped_graph()
    }
}

impl Drop for FlowSender {
    /// Frees the session's admission slot and stops its per-tick
    /// refresh.
    fn drop(&mut self) {
        self.shared.senders.lock().retain(|slot| !Arc::ptr_eq(slot, &self.slot));
    }
}

/// A receiving session: yields [`Delivery`] records for one flow.
#[derive(Debug)]
pub struct FlowReceiver {
    rx: Receiver<Delivery>,
}

impl FlowReceiver {
    pub(crate) fn new(rx: Receiver<Delivery>) -> Self {
        FlowReceiver { rx }
    }

    /// Blocks up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Returns a delivery if one is already queued.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.rx.try_recv().ok()
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Some(d) = self.try_recv() {
            out.push(d);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_topology::NodeId;

    #[test]
    fn delivery_latency() {
        let d = Delivery {
            flow: Flow::new(NodeId::new(0), NodeId::new(1)),
            flow_seq: 0,
            payload: Bytes::new(),
            sent_at: Micros::from_micros(100),
            delivered_at: Micros::from_micros(350),
            on_time: true,
        };
        assert_eq!(d.latency(), Micros::from_micros(250));
    }

    #[test]
    fn delivery_stats_summarize() {
        let mk = |sent: u64, arrived: u64, on_time: bool| Delivery {
            flow: Flow::new(NodeId::new(0), NodeId::new(1)),
            flow_seq: 0,
            payload: Bytes::new(),
            sent_at: Micros::from_micros(sent),
            delivered_at: Micros::from_micros(arrived),
            on_time,
        };
        let batch = [mk(0, 100, true), mk(0, 300, true), mk(0, 800, false)];
        let stats = DeliveryStats::from_deliveries(&batch);
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.on_time, 2);
        assert_eq!(stats.max_latency, Micros::from_micros(800));
        assert_eq!(stats.mean_latency(), Micros::from_micros(400));
        let fraction = stats.on_time_fraction().expect("non-empty batch has a fraction");
        assert!((fraction - 2.0 / 3.0).abs() < 1e-12);

        let empty = DeliveryStats::from_deliveries([]);
        assert_eq!(empty.on_time_fraction(), None, "no deliveries is not evidence of timeliness");
        assert_eq!(empty.mean_latency(), Micros::ZERO);
    }
}
