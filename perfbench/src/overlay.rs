//! The two overlay workloads: `relay-chain` (the per-packet datapath
//! through one relay) and `wan-storm` (the paper's 12-site scenario
//! with a seeded node problem). Both drive real UDP nodes over
//! loopback from one open-loop generator thread and time every
//! packet from the moment it was due, not from when it was sent.

use crate::probe::{self, median, mix, quantile, ThreadStat};
use crate::{Opts, Report};
use dg_core::scheme::SchemeKind;
use dg_core::{Flow, MulticastKind, ServiceRequirement, SlaClass};
use dg_overlay::cluster::{Cluster, ClusterConfig};
use dg_overlay::session::{Delivery, FlowGroup, FlowReceiver, FlowSender};
use dg_overlay::{now_us, ClusterMetricsReport, OverlayError};
use dg_topology::{presets, GraphBuilder, Micros, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Application payload size of every packet.
const PAYLOAD: usize = 64;
/// The surgical class's one-way deadline: the service's contract.
const DEADLINE_US: u64 = 65_000;

/// The bytes of packet `seq` of source `source`, so every delivery's
/// payload can be checked.
fn payload(seed: u64, source: usize, seq: u64) -> [u8; PAYLOAD] {
    let base = mix(seed ^ ((source as u64) << 40) ^ seq.wrapping_mul(0x1_0000_0001));
    let mut out = [0u8; PAYLOAD];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(base ^ i as u64).to_le_bytes());
    }
    out
}

/// A sending session of either shape.
enum Tx {
    Unicast(FlowSender),
    Group(FlowGroup),
}

impl Tx {
    fn send(&self, payloads: &[&[u8]]) -> Result<u64, OverlayError> {
        match (self, payloads) {
            (Tx::Unicast(s), [one]) => s.send(one),
            (Tx::Unicast(s), many) => s.send_batch(many),
            (Tx::Group(g), [one]) => g.send(one),
            (Tx::Group(g), many) => g.send_batch(many),
        }
    }

    fn flow(&self) -> Flow {
        match self {
            Tx::Unicast(s) => s.flow(),
            Tx::Group(g) => g.flow(),
        }
    }
}

/// One open-loop source: sends `batch` packets every `interval`,
/// starting `offset` into the window.
struct Source {
    tx: Tx,
    interval: Duration,
    offset: Duration,
    batch: usize,
    /// Wall-clock due time (µs) of every packet sent, by flow sequence.
    due_us: Vec<f64>,
    /// Receiving sessions this source's packets should reach.
    receivers: usize,
}

/// One receiving session and what it has been handed.
struct Sink {
    rx: FlowReceiver,
    source: usize,
    seen: Vec<bool>,
    delivered: u64,
}

/// Everything the generator and the sinks observed in one window.
#[derive(Default)]
struct Tally {
    offered: u64,
    delivered: u64,
    on_time: u64,
    lat_us: Vec<f32>,
    lag_us: Vec<f32>,
    call_ns: Vec<u32>,
    send_calls: u64,
    recv_calls: u64,
    queue_max: u64,
    level_max: u8,
    window_s: f64,
    cpu_s: f64,
    gen_busy_s: f64,
}

impl Tally {
    fn finish(&mut self) {
        self.lat_us.sort_unstable_by(f32::total_cmp);
        self.lag_us.sort_unstable_by(f32::total_cmp);
        self.call_ns.sort_unstable();
    }

    fn cpu_us_per_pkt(&self) -> f64 {
        self.cpu_s * 1e6 / self.delivered.max(1) as f64
    }
}

/// Maps `Instant`s onto the overlay's wall clock (`now_us`), which is
/// what deliveries are stamped with, keeping sub-microsecond digits.
struct WallClock {
    at: Instant,
    wall_us: f64,
}

impl WallClock {
    fn now() -> Self {
        WallClock { at: Instant::now(), wall_us: now_us().as_micros() as f64 }
    }

    fn wall_us(&self, t: Instant) -> f64 {
        self.wall_us + t.saturating_duration_since(self.at).as_nanos() as f64 * 1e-3
    }
}

/// A scheduled cluster action, `at` a fraction of the way through the
/// window.
struct Event<'a> {
    at: f64,
    action: Box<dyn FnMut(&Cluster) + 'a>,
}

/// The open-loop load: sources, sinks, and the checks every delivery
/// must pass.
struct Traffic {
    seed: u64,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    /// Sinks are drained when the generator is idle, at most this
    /// often.
    drain_every: Duration,
}

impl Traffic {
    fn account(&mut self, sink: usize, d: Delivery, tally: &mut Tally, rep: &mut Report) {
        let s = &mut self.sinks[sink];
        let src = &self.sources[s.source];
        let seq = d.flow_seq as usize;
        let Some(&due_us) = src.due_us.get(seq) else {
            rep.check(false, || format!("{:?}: delivered unsent sequence {seq}", d.flow));
            return;
        };
        if s.seen.len() <= seq {
            s.seen.resize(seq + 1, false);
        }
        if std::mem::replace(&mut s.seen[seq], true) {
            rep.check(false, || format!("{:?}: sequence {seq} delivered twice", d.flow));
            return;
        }
        rep.check(d.payload[..] == payload(self.seed, s.source, d.flow_seq)[..], || {
            format!("{:?}: payload of sequence {seq} corrupted", d.flow)
        });
        rep.check(!d.on_time || d.latency().as_micros() <= DEADLINE_US, || {
            format!("{:?}: sequence {seq} marked on time after {:?}", d.flow, d.latency())
        });
        s.delivered += 1;
        let lat = (d.delivered_at.as_micros() as f64 - due_us).max(0.0);
        tally.delivered += 1;
        tally.on_time += u64::from(lat <= DEADLINE_US as f64);
        tally.lat_us.push(lat as f32);
    }

    fn drain(&mut self, tally: &mut Tally, rep: &mut Report) {
        for i in 0..self.sinks.len() {
            loop {
                tally.recv_calls += 1;
                let Some(d) = self.sinks[i].rx.try_recv() else { break };
                self.account(i, d, tally, rep);
            }
        }
    }

    fn expected(&self) -> u64 {
        self.sinks.iter().map(|s| self.sources[s.source].due_us.len() as u64).sum()
    }

    fn received(&self) -> u64 {
        self.sinks.iter().map(|s| s.delivered).sum()
    }

    /// Waits (up to `timeout`) for every packet sent so far to reach
    /// its sinks.
    fn settle(&mut self, timeout: Duration, tally: &mut Tally, rep: &mut Report) {
        let give_up = Instant::now() + timeout;
        while self.received() < self.expected() && Instant::now() < give_up {
            self.drain(tally, rep);
            std::thread::sleep(Duration::from_millis(2));
        }
        self.drain(tally, rep);
    }

    /// Sends on schedule for `seconds`, then settles. Counts the
    /// generator's lateness, and with `trace` the time of every send
    /// call and the nodes' queue depth and overload level.
    fn run(
        &mut self,
        cluster: &Cluster,
        seconds: f64,
        trace: bool,
        mut events: Vec<Event<'_>>,
        rep: &mut Report,
    ) -> Tally {
        let mut tally = Tally::default();
        let cpu0 = probe::process_cpu_s();
        let gen0 = probe::own_run_ns();
        let expected0 = self.expected();
        let received0 = self.received();
        let window = Duration::from_secs_f64(seconds);
        let start = Instant::now() + Duration::from_millis(1);
        let clock = WallClock { at: start, wall_us: WallClock::now().wall_us(start) };
        let mut heap: BinaryHeap<Reverse<(Duration, usize)>> =
            self.sources.iter().enumerate().map(|(i, s)| Reverse((s.offset, i))).collect();
        let mut last_drain = start;
        let mut last_poll = start;
        let mut bufs: Vec<[u8; PAYLOAD]> = Vec::new();
        while let Some(&Reverse((at, i))) = heap.peek() {
            if at >= window {
                break;
            }
            let due = start + at;
            let now = Instant::now();
            events.retain_mut(|e| {
                let due = now >= start + window.mul_f64(e.at);
                if due {
                    (e.action)(cluster);
                }
                !due
            });
            if now < due {
                if now.duration_since(last_drain.min(now)) >= self.drain_every {
                    self.drain(&mut tally, rep);
                    last_drain = Instant::now();
                }
                if trace && now.duration_since(last_poll.min(now)) >= Duration::from_millis(10) {
                    for n in cluster.graph().nodes() {
                        let node = cluster.node(n);
                        tally.queue_max = tally.queue_max.max(node.outbound_queue_depth());
                        tally.level_max = tally.level_max.max(node.overload_level());
                    }
                    last_poll = Instant::now();
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                continue;
            }
            heap.pop();
            tally.lag_us.push(now.duration_since(due).as_nanos() as f32 * 1e-3);
            let src = &mut self.sources[i];
            let first = src.due_us.len() as u64;
            let due_us = clock.wall_us(due);
            bufs.clear();
            for k in 0..src.batch as u64 {
                bufs.push(payload(self.seed, i, first + k));
                src.due_us.push(due_us);
            }
            let refs: Vec<&[u8]> = bufs.iter().map(|b| &b[..]).collect();
            let t = trace.then(Instant::now);
            let sent = src.tx.send(&refs);
            if let Some(t) = t {
                tally.call_ns.push(t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
            }
            tally.send_calls += 1;
            match sent {
                Ok(seq) => rep.check(seq == first, || {
                    format!("{:?}: sender numbered {seq}, expected {first}", src.tx.flow())
                }),
                Err(e) => {
                    rep.failed += 1;
                    rep.check(false, || format!("{:?}: send failed: {e}", src.tx.flow()));
                }
            }
            heap.push(Reverse((at + src.interval, i)));
        }
        tally.window_s = Instant::now().saturating_duration_since(start).as_secs_f64();
        self.settle(Duration::from_millis(1_500), &mut tally, rep);
        tally.offered = self.expected() - expected0;
        debug_assert_eq!(tally.delivered, self.received() - received0);
        tally.cpu_s = probe::process_cpu_s() - cpu0;
        tally.gen_busy_s = probe::own_run_ns().saturating_sub(gen0) as f64 * 1e-9;
        tally.finish();
        tally
    }
}

/// A point-in-time reading of the cluster and this process.
struct Mark {
    threads: HashMap<u64, ThreadStat>,
    counters: HashMap<&'static str, f64>,
    report: ClusterMetricsReport,
}

impl Mark {
    fn take(cluster: &Cluster) -> Self {
        let report = cluster.metrics_report();
        let c = &report.totals;
        let counters = [
            ("datagrams_sent", c.datagrams_sent),
            ("datagrams_received", c.datagrams_received),
            ("bytes_sent", c.bytes_sent),
            ("data_sent", c.data_sent),
            ("duplicates", c.duplicates),
            ("expired", c.expired),
            ("shipper_drops", c.shipper_drops),
            ("delivery_drops", c.delivery_drops),
            ("shed_bulk", c.shed_bulk),
            ("shed_timely", c.shed_timely),
            ("shed_surgical", c.shed_surgical),
            ("links_declared_down", c.links_declared_down),
            ("retransmit_requests_issued", c.retransmit_requests_issued),
            ("retransmissions_served", c.retransmissions_served),
            ("retransmit_misses", c.retransmit_misses),
            ("retransmits_suppressed", c.retransmits_suppressed),
            ("nack_messages_sent", c.nack_messages_sent),
            ("nack_rerequests", c.nack_rerequests),
            ("hellos_sent", c.hellos_sent),
            ("link_state_flooded", c.link_state_flooded),
            ("lsa_retransmits", c.lsa_retransmits),
            ("digests_sent", c.digests_sent),
            ("flap_suppressions", c.flap_suppressions),
            ("graph_changes", c.graph_changes),
        ]
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
        Mark { threads: probe::threads(), counters, report }
    }

    /// Data transmissions and datagrams `from` shipped toward `to`.
    fn link(&self, from: NodeId, to: NodeId) -> (f64, f64) {
        self.report.nodes.iter().find(|s| s.node == from).map_or((0.0, 0.0), |s| {
            let dgrams = s.links.iter().find(|l| l.neighbor == to).map_or(0, |l| l.datagrams);
            (s.counters.data_sent as f64, dgrams as f64)
        })
    }
}

/// Counter and thread-time deltas summed over measured windows.
#[derive(Default)]
struct Usage {
    counters: HashMap<&'static str, f64>,
    stages: HashMap<&'static str, f64>,
    relay_pkts: f64,
    relay_dgrams: f64,
}

impl Usage {
    fn add(&mut self, before: &Mark, after: &Mark, relay: Option<(NodeId, NodeId)>) {
        for (k, v) in &after.counters {
            *self.counters.entry(k).or_default() += v - before.counters.get(k).unwrap_or(&0.0);
        }
        for (prefix, busy_key, wait_key) in STAGES {
            let (busy, wait) =
                probe::stage_delta(&before.threads, &after.threads, |n| n.starts_with(prefix));
            *self.stages.entry(busy_key).or_default() += busy;
            *self.stages.entry(wait_key).or_default() += wait;
        }
        if let Some((r, next)) = relay {
            for (prefix, key) in [("dg-rx-", "relay.rx.busy_s"), ("dg-ship-", "relay.ship.busy_s")]
            {
                let name = format!("{prefix}{r}");
                let (busy, _) = probe::stage_delta(&before.threads, &after.threads, |n| n == name);
                *self.stages.entry(key).or_default() += busy;
            }
            let (p0, d0) = before.link(r, next);
            let (p1, d1) = after.link(r, next);
            self.relay_pkts += p1 - p0;
            self.relay_dgrams += d1 - d0;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// 1 − datagrams received ÷ datagrams sent, over every node.
    fn socket_loss_frac(&self) -> f64 {
        1.0 - self.counter("datagrams_received") / self.counter("datagrams_sent").max(1.0)
    }

    fn stage(&self, name: &str) -> f64 {
        self.stages.get(name).copied().unwrap_or(0.0)
    }
}

/// Node thread-name prefixes and the busy / wait metrics they feed.
const STAGES: [(&str, &str, &str); 4] = [
    ("dg-rx-", "rx.busy_s", "rx.wait_s"),
    ("dg-ship-", "ship.busy_s", "ship.wait_s"),
    ("dg-tick-", "tick.busy_s", "tick.wait_s"),
    ("dg-worker-", "worker.busy_s", "worker.wait_s"),
];

/// Per-layer metrics common to both overlay workloads.
fn report_layers(rep: &mut Report, tallies: &[&Tally], usage: &Usage, cluster: &Cluster) {
    let delivered: u64 = tallies.iter().map(|t| t.delivered).sum();
    let per_delivered = |x: f64| x / delivered.max(1) as f64;
    let mut lags: Vec<f32> = tallies.iter().flat_map(|t| t.lag_us.iter().copied()).collect();
    lags.sort_unstable_by(f32::total_cmp);
    let mut calls: Vec<u32> = tallies.iter().flat_map(|t| t.call_ns.iter().copied()).collect();
    calls.sort_unstable();
    rep.layer("gen.lag_p99_ms", quantile(&lags, 0.99) / 1e3);
    rep.layer("gen.lag_max_ms", quantile(&lags, 1.0) / 1e3);
    rep.layer("gen.busy_s", tallies.iter().map(|t| t.gen_busy_s).sum());
    rep.layer("send.call_us_p50", quantile(&calls, 0.5) / 1e3);
    rep.layer("send.call_us_p99", quantile(&calls, 0.99) / 1e3);
    rep.layer("send.calls", tallies.iter().map(|t| t.send_calls).sum::<u64>() as f64);
    rep.layer("recv.calls", tallies.iter().map(|t| t.recv_calls).sum::<u64>() as f64);
    for name in [
        "rx.busy_s",
        "rx.wait_s",
        "ship.busy_s",
        "ship.wait_s",
        "tick.busy_s",
        "tick.wait_s",
        "relay.rx.busy_s",
        "relay.ship.busy_s",
        "worker.busy_s",
        "worker.wait_s",
    ] {
        rep.layer(name, usage.stage(name));
    }
    rep.layer("runtime.workers", cluster.runtime().workers() as f64);
    rep.layer("dgrams_per_pkt", per_delivered(usage.counter("datagrams_sent")));
    rep.layer("bytes_per_pkt", per_delivered(usage.counter("bytes_sent")));
    if usage.relay_dgrams > 0.0 {
        rep.layer("relay.pkts_per_dgram", usage.relay_pkts / usage.relay_dgrams);
    }
    rep.layer("socket_loss_frac", usage.socket_loss_frac());
    for (metric, counter) in [
        ("shipper_drops", "shipper_drops"),
        ("delivery_drops", "delivery_drops"),
        ("expired", "expired"),
        ("nack_msgs", "nack_messages_sent"),
        ("retx_requested", "retransmit_requests_issued"),
        ("retx_served", "retransmissions_served"),
        ("retx_misses", "retransmit_misses"),
        ("retx_suppressed", "retransmits_suppressed"),
        ("nack_rerequests", "nack_rerequests"),
        ("hellos_sent", "hellos_sent"),
        ("lsa_flooded", "link_state_flooded"),
        ("lsa_retransmits", "lsa_retransmits"),
        ("digests_sent", "digests_sent"),
        ("links_declared_down", "links_declared_down"),
        ("flap_suppressions", "flap_suppressions"),
        ("graph_changes", "graph_changes"),
        ("shed_bulk", "shed_bulk"),
        ("shed_timely", "shed_timely"),
        ("shed_surgical", "shed_surgical"),
    ] {
        rep.layer(metric, usage.counter(counter));
    }
    let requested = usage.counter("retransmit_requests_issued");
    if requested > 0.0 {
        rep.layer("recovery_yield", usage.counter("retransmissions_served") / requested);
    }
    rep.layer("dups_per_delivered", per_delivered(usage.counter("duplicates")));
    rep.layer(
        "outbound_queue_depth_max",
        tallies.iter().map(|t| t.queue_max).max().unwrap_or(0) as f64,
    );
    rep.layer(
        "overload_level_max",
        f64::from(tallies.iter().map(|t| t.level_max).max().unwrap_or(0)),
    );
    let mut cache = cluster.scheme_cache_stats();
    for n in cluster.graph().nodes() {
        let s = cluster.node(n).graph_cache_stats();
        for (acc, add) in [
            (&mut cache.baseline, s.baseline),
            (&mut cache.live, s.live),
            (&mut cache.multicast, s.multicast),
        ] {
            acc.hits += add.hits;
            acc.misses += add.misses;
        }
    }
    rep.layer("cache.baseline.hits", cache.baseline.hits as f64);
    rep.layer("cache.baseline.misses", cache.baseline.misses as f64);
    rep.layer("cache.live.hits", cache.live.hits as f64);
    rep.layer("cache.live.misses", cache.live.misses as f64);
    rep.layer("cache.multicast.hits", cache.multicast.hits as f64);
    rep.layer("cache.multicast.misses", cache.multicast.misses as f64);
}

/// End-to-end metrics common to both overlay workloads.
fn report_e2e(rep: &mut Report, tallies: &[&Tally], usage: &Usage, setup: &[f64]) {
    let offered: u64 = tallies.iter().map(|t| t.offered).sum();
    let delivered: u64 = tallies.iter().map(|t| t.delivered).sum();
    let on_time: u64 = tallies.iter().map(|t| t.on_time).sum();
    let window: f64 = tallies.iter().map(|t| t.window_s).sum();
    rep.attempted += offered;
    rep.e2e("setup_s", median(setup));
    rep.e2e("pkts_per_s", delivered as f64 / window);
    rep.e2e("delivered_frac", delivered as f64 / offered.max(1) as f64);
    rep.e2e("ontime_frac", on_time as f64 / offered.max(1) as f64);
    let tx = usage.counter("data_sent") + usage.counter("retransmissions_served");
    rep.e2e("tx_per_delivered", tx / delivered.max(1) as f64);
}

fn log_phase(name: &str, t: &Tally) {
    eprintln!(
        "{name}: offered {} delivered {} on-time {} | latency from due: p50 {:.0} µs, p99 {:.0} µs, \
         max {:.0} µs (n={}) | {:.2} CPU-µs/pkt | generator lag p99 {:.3} ms, max {:.3} ms (n={})",
        t.offered,
        t.delivered,
        t.on_time,
        quantile(&t.lat_us, 0.5),
        quantile(&t.lat_us, 0.99),
        quantile(&t.lat_us, 1.0),
        t.lat_us.len(),
        t.cpu_us_per_pkt(),
        quantile(&t.lag_us, 0.99) / 1e3,
        quantile(&t.lag_us, 1.0) / 1e3,
        t.lag_us.len(),
    );
}

fn runtime_fact(rep: &mut Report, cluster: &Cluster) {
    let rt = cluster.runtime();
    let mode = match rt.workers() {
        0 => format!("{:?}", rt.mode()).to_lowercase(),
        w => format!("{:?}:{w}", rt.mode()).to_lowercase(),
    };
    rep.fact("runtime", mode);
    rep.fact("network", "loopback UDP on one host (not a real link)");
}

/// Launches a cluster and waits for link-state convergence, timing
/// both.
fn launch(graph: &dg_topology::Graph, config: &ClusterConfig, rep: &mut Report) -> (Cluster, f64) {
    let cluster = Cluster::launch(graph, config.clone()).expect("cluster launches on loopback");
    let t = Instant::now();
    let converged = cluster.wait_for_link_state(Duration::from_secs(10));
    rep.check(converged, || "link state did not converge within 10 s".to_string());
    (cluster, t.elapsed().as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Warm-up of each relay phase on each instance (not measured): 500
/// packets at `r5k`, 2,000 at `r20k`.
const RELAY_WARMUP_S: f64 = 0.1;
/// Target length of one measured slice of a relay phase. Every slice
/// runs on a chain instance of its own (each set up, measured in one
/// slice of each phase, and shut down): the `r5k` medians of instances
/// of one run differ by up to 2x, as the kernel places each instance's
/// nine node threads differently and the host's speed drifts over
/// seconds, so a run must sample many instances for its median to
/// repeat.
const RELAY_SLICE_S: f64 = 0.5;
/// The relay phases: name, packets per second, packets per send call.
const RELAY_PHASES: [(&str, f64, usize); 2] = [("r5k", 5_000.0, 1), ("r20k", 20_000.0, 8)];

/// One relay phase over all its slices.
struct Phase {
    name: &'static str,
    /// Every slice's observations together.
    all: Tally,
    usage: Usage,
    slice_lat_p50_us: Vec<f64>,
    slice_cpu_us_per_pkt: Vec<f64>,
}

impl Phase {
    fn new(name: &'static str) -> Self {
        Phase {
            name,
            all: Tally::default(),
            usage: Usage::default(),
            slice_lat_p50_us: Vec::new(),
            slice_cpu_us_per_pkt: Vec::new(),
        }
    }

    fn absorb(&mut self, t: Tally) {
        self.slice_lat_p50_us.push(quantile(&t.lat_us, 0.5));
        self.slice_cpu_us_per_pkt.push(t.cpu_us_per_pkt());
        let all = &mut self.all;
        all.offered += t.offered;
        all.delivered += t.delivered;
        all.on_time += t.on_time;
        all.lat_us.extend(t.lat_us);
        all.lag_us.extend(t.lag_us);
        all.call_ns.extend(t.call_ns);
        all.send_calls += t.send_calls;
        all.recv_calls += t.recv_calls;
        all.queue_max = all.queue_max.max(t.queue_max);
        all.level_max = all.level_max.max(t.level_max);
        all.window_s += t.window_s;
        all.cpu_s += t.cpu_s;
        all.gen_busy_s += t.gen_busy_s;
    }

    /// Median over slices of the slice's median latency from due.
    fn lat_p50_us(&self) -> f64 {
        median(&self.slice_lat_p50_us)
    }

    /// Median over slices of CPU per delivered packet.
    fn cpu_us_per_pkt(&self) -> f64 {
        median(&self.slice_cpu_us_per_pkt)
    }
}

/// `relay-chain`: A → R → B on loopback, one static single-path flow,
/// open loop at 5k pps single sends (`r5k`) and 20k pps in batches of 8
/// (`r20k`), each for half the measured seconds. The phases alternate
/// in slices of about half a second, one slice of each per chain
/// instance, so both see the same host conditions and placements, and
/// each reports the median over its slices.
pub fn relay_chain(opts: Opts, rep: &mut Report) {
    let mut b = GraphBuilder::new();
    let a = b.add_node("A");
    let r = b.add_node("R");
    let z = b.add_node("B");
    b.add_link(a, r, Micros::from_millis(1), 1).expect("A-R link");
    b.add_link(r, z, Micros::from_millis(1), 1).expect("R-B link");
    let graph = b.build();
    let config = ClusterConfig {
        latency_scale: 0.0,
        max_batch_bytes: 60_000,
        fault_seed: opts.seed,
        ..ClusterConfig::default()
    };
    let flow = Flow::new(a, z);
    let instances = ((opts.seconds / 2.0 / RELAY_SLICE_S).round() as usize).max(1);
    let slice_s = opts.seconds / 2.0 / instances as f64;

    let (mut setups, mut converge, mut opens) = (Vec::new(), Vec::new(), Vec::new());
    let mut usage = Usage::default();
    let mut phases: Vec<Phase> = RELAY_PHASES.iter().map(|&(name, ..)| Phase::new(name)).collect();
    for instance in 0..instances {
        probe::timer_slack(false);
        let t = Instant::now();
        let (cluster, conv) = launch(&graph, &config, rep);
        let rx = cluster.open_receiver(flow).expect("receiver opens");
        let t_open = Instant::now();
        let tx = cluster
            .open_sender(flow, SchemeKind::StaticSinglePath, ServiceRequirement::default())
            .expect("sender opens");
        opens.push(ms(t_open.elapsed()));
        setups.push(t.elapsed().as_secs_f64());
        converge.push(conv);
        probe::timer_slack(true);

        let mut traffic = Traffic {
            seed: opts.seed,
            sources: vec![Source {
                tx: Tx::Unicast(tx),
                interval: Duration::ZERO,
                offset: Duration::ZERO,
                batch: 1,
                due_us: Vec::new(),
                receivers: 1,
            }],
            sinks: vec![Sink { rx, source: 0, seen: Vec::new(), delivered: 0 }],
            drain_every: Duration::ZERO,
        };
        for measured in [false, true] {
            for (phase, &(_, rate, batch)) in phases.iter_mut().zip(&RELAY_PHASES) {
                let src = &mut traffic.sources[0];
                src.batch = batch;
                src.interval = Duration::from_secs_f64(batch as f64 / rate);
                if !measured {
                    traffic.run(&cluster, RELAY_WARMUP_S, false, Vec::new(), rep);
                    continue;
                }
                let before = Mark::take(&cluster);
                let tally = traffic.run(&cluster, slice_s, opts.trace, Vec::new(), rep);
                let after = Mark::take(&cluster);
                usage.add(&before, &after, Some((r, z)));
                phase.usage.add(&before, &after, Some((r, z)));
                phase.absorb(tally);
            }
        }

        // Conservation on the cluster's own per-flow report.
        let report = cluster.metrics_report();
        let sent = traffic.sources[0].due_us.len() as u64;
        let got = traffic.sinks[0].delivered;
        match report.flow(flow) {
            Some(f) => {
                rep.check(f.packets_sent == sent, || {
                    format!(
                        "relay flow: report says {} sent, generator sent {sent}",
                        f.packets_sent
                    )
                });
                rep.check(f.packets_delivered == got, || {
                    format!(
                        "relay flow: report says {} delivered, sink got {got}",
                        f.packets_delivered
                    )
                });
                rep.check(f.packets_sent == f.packets_delivered + f.packets_lost, || {
                    format!("relay flow: conservation broken: {f:?}")
                });
            }
            None => rep.check(false, || "relay flow missing from the metrics report".to_string()),
        }
        if instance + 1 == instances {
            runtime_fact(rep, &cluster);
            let tallies: Vec<&Tally> = phases.iter().map(|p| &p.all).collect();
            report_layers(rep, &tallies, &usage, &cluster);
        }
        drop(traffic);
        cluster.shutdown();
    }
    probe::timer_slack(false);
    for p in &mut phases {
        p.all.finish();
        log_phase(p.name, &p.all);
        let pkts_per_dgram = p.usage.relay_pkts / p.usage.relay_dgrams.max(1.0);
        let slices: Vec<String> = p.slice_lat_p50_us.iter().map(|v| format!("{v:.0}")).collect();
        eprintln!(
            "{}: latency median per instance (µs, in run order): {}",
            p.name,
            slices.join(" ")
        );
        eprintln!(
            "{}: relay R→B {pkts_per_dgram:.4} packets per datagram, socket loss {:.5}",
            p.name,
            p.usage.socket_loss_frac()
        );
        let name = p.name;
        rep.layer(&format!("{name}.gen.lag_p99_ms"), quantile(&p.all.lag_us, 0.99) / 1e3);
        rep.layer(&format!("{name}.relay.pkts_per_dgram"), pkts_per_dgram);
        rep.layer(&format!("{name}.socket_loss_frac"), p.usage.socket_loss_frac());
    }

    let (r5k, r20k) = (&phases[0], &phases[1]);
    // Latency is headlined at `r5k` only: at `r20k` the median packet
    // waits behind the rest of its batch of 8, and how far the node
    // threads overlap that batch across CPUs moves the median between
    // identical runs by up to 1.8x (the CPU cost stays steady).
    rep.e2e("lat_p50_ms", r5k.lat_p50_us() / 1e3);
    rep.e2e("cpu_us_per_pkt", (r5k.cpu_us_per_pkt() + r20k.cpu_us_per_pkt()) / 2.0);
    report_e2e(rep, &[&r5k.all, &r20k.all], &usage, &setups);
    rep.layer("r5k.lat_p50_us", r5k.lat_p50_us());
    rep.layer("r20k.lat_p50_us", r20k.lat_p50_us());
    rep.layer("r5k.lat_p99_us", quantile(&r5k.all.lat_us, 0.99));
    rep.layer("r20k.lat_p99_us", quantile(&r20k.all.lat_us, 0.99));
    rep.layer("r5k.cpu_us_per_pkt", r5k.cpu_us_per_pkt());
    rep.layer("r20k.cpu_us_per_pkt", r20k.cpu_us_per_pkt());
    rep.layer("converge_s", median(&converge));
    rep.layer("open_sender_ms_p50", median(&opens));
    rep.layer("open_sender_ms_max", opens.iter().copied().fold(0.0, f64::max));
}

/// Set-ups per run in fresh processes of this binary, besides the run's
/// own; the median of all is reported. A process's first set-up pays to
/// fault in its heap (the receivers' bounded delivery queues alone take
/// about 1.2 GB) and later ones in the same process partly reuse it, so
/// only fresh processes measure the same set-up every time.
const STORM_COLD_SETUPS: usize = 4;
/// Sites impaired in turn over the middle third of the run.
const STORM_IMPAIRED: usize = 3;
/// Targeted multicast groups per source site.
const GROUPS_PER_SOURCE: u32 = 8;
/// Packets per second per group.
const GROUP_PPS: f64 = 25.0;
/// Packets per second per unicast flow.
const UNICAST_PPS: f64 = 200.0;

/// The opened sessions of one `wan-storm` cluster.
struct Storm {
    cluster: Cluster,
    sources: Vec<Source>,
    sinks: Vec<Sink>,
    open_sender_ms: Vec<f64>,
    open_group_ms: Vec<f64>,
}

fn open_storm(
    graph: &dg_topology::Graph,
    config: &ClusterConfig,
    seed: u64,
    rep: &mut Report,
) -> (Storm, f64) {
    let (cluster, converge) = launch(graph, config, rep);
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let n = nodes.len();
    let mut storm = Storm {
        cluster,
        sources: Vec::new(),
        sinks: Vec::new(),
        open_sender_ms: Vec::new(),
        open_group_ms: Vec::new(),
    };
    let offset = |i: usize, interval: Duration| {
        Duration::from_nanos(mix(seed ^ (i as u64) << 20) % interval.as_nanos() as u64)
    };
    for &src in &nodes {
        let receivers: Vec<NodeId> = nodes.iter().copied().filter(|&x| x != src).collect();
        for g in 0..GROUPS_PER_SOURCE {
            let t = Instant::now();
            let (group, sessions) = storm
                .cluster
                .open_group_sender(
                    src,
                    &receivers,
                    g,
                    MulticastKind::Targeted,
                    ServiceRequirement::default(),
                    SlaClass::Surgical,
                )
                .expect("group sender opens");
            storm.open_group_ms.push(ms(t.elapsed()));
            let idx = storm.sources.len();
            let interval = Duration::from_secs_f64(1.0 / GROUP_PPS);
            storm.sources.push(Source {
                tx: Tx::Group(group),
                interval,
                offset: offset(idx, interval),
                batch: 1,
                due_us: Vec::new(),
                receivers: sessions.len(),
            });
            storm.sinks.extend(sessions.into_iter().map(|(_, rx)| Sink {
                rx,
                source: idx,
                seen: Vec::new(),
                delivered: 0,
            }));
        }
    }
    for (i, &src) in nodes.iter().enumerate() {
        let flow = Flow::new(src, nodes[(i + n / 2) % n]);
        let rx = storm.cluster.open_receiver(flow).expect("receiver opens");
        let t = Instant::now();
        let tx = storm.cluster.open_sla_sender(flow, SlaClass::Surgical).expect("sender opens");
        storm.open_sender_ms.push(ms(t.elapsed()));
        let idx = storm.sources.len();
        let interval = Duration::from_secs_f64(1.0 / UNICAST_PPS);
        storm.sources.push(Source {
            tx: Tx::Unicast(tx),
            interval,
            offset: offset(idx, interval),
            batch: 1,
            due_us: Vec::new(),
            receivers: 1,
        });
        storm.sinks.push(Sink { rx, source: idx, seen: Vec::new(), delivered: 0 });
    }
    (storm, converge)
}

fn storm_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        latency_scale: 1.0,
        hello_interval: Duration::from_millis(20),
        link_state_interval: Duration::from_millis(80),
        fault_seed: seed,
        ..ClusterConfig::default()
    }
}

/// One `wan-storm` set-up in this (fresh) process: reports `setup_s`
/// and `converge_s` for [`cold_storm_setup`] to read.
pub fn wan_storm_setup(opts: Opts, rep: &mut Report) {
    let graph = presets::north_america_12();
    let t = Instant::now();
    let (storm, converge) = open_storm(&graph, &storm_config(opts.seed), opts.seed, rep);
    rep.e2e("setup_s", t.elapsed().as_secs_f64());
    rep.layer("converge_s", converge);
    let Storm { cluster, sources, sinks, .. } = storm;
    drop((sources, sinks));
    cluster.shutdown();
}

/// Runs [`wan_storm_setup`] in a fresh process of this binary and
/// returns its set-up and convergence seconds.
fn cold_storm_setup(opts: Opts, rep: &mut Report) -> (f64, f64) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let out = std::process::Command::new(exe)
        .args(["wan-storm-setup", "--seed", &opts.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("the set-up process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    let report: Option<serde_json::Value> =
        text.lines().last().and_then(|line| serde_json::from_str(line).ok());
    let field =
        |table: &str, name: &str| match report.as_ref()?.get(table)?.get(name)?.get("value")? {
            serde_json::Value::Float(x) => Some(*x),
            serde_json::Value::UInt(x) => Some(*x as f64),
            _ => None,
        };
    let correct = report.as_ref().and_then(|r| r.get("correct")).cloned();
    rep.check(out.status.success() && correct == Some(serde_json::Value::Bool(true)), || {
        format!("set-up process failed ({}): {text}", out.status)
    });
    (field("e2e", "setup_s").unwrap_or(f64::NAN), field("layers", "converge_s").unwrap_or(f64::NAN))
}

/// `wan-storm`: the 12-site North-America preset at real propagation
/// delay, 96 targeted multicast groups (each source to the other 11
/// sites) plus 12 surgical unicast flows. Over the middle third of the
/// run, three seeded sites in turn lose 20% on every incident link.
pub fn wan_storm(opts: Opts, rep: &mut Report) {
    let (mut setups, mut converge) = (Vec::new(), Vec::new());
    for _ in 0..STORM_COLD_SETUPS {
        let (setup, conv) = cold_storm_setup(opts, rep);
        setups.push(setup);
        converge.push(conv);
    }
    let graph = presets::north_america_12();
    let t = Instant::now();
    let (storm, conv) = open_storm(&graph, &storm_config(opts.seed), opts.seed, rep);
    setups.push(t.elapsed().as_secs_f64());
    converge.push(conv);
    let Storm { cluster, sources, sinks, open_sender_ms, open_group_ms } = storm;
    runtime_fact(rep, &cluster);
    // The seed orders the sites; the first few are impaired in turn.
    let mut sites: Vec<NodeId> = graph.nodes().collect();
    sites.sort_by_key(|n| mix(opts.seed ^ (n.index() as u64) << 32));
    let impaired = &sites[..STORM_IMPAIRED];
    let names: Vec<&str> = impaired.iter().map(|&n| graph.node(n).name.as_str()).collect();
    rep.fact("impaired_sites", names.join(" then "));
    rep.fact(
        "flows",
        format!(
            "{} group flows over {} groups + {} unicast",
            sinks.len() - sources.iter().filter(|s| matches!(s.tx, Tx::Unicast(_))).count(),
            sources.iter().filter(|s| matches!(s.tx, Tx::Group(_))).count(),
            sources.iter().filter(|s| matches!(s.tx, Tx::Unicast(_))).count(),
        ),
    );
    probe::timer_slack(true);

    let mut traffic =
        Traffic { seed: opts.seed, sources, sinks, drain_every: Duration::from_millis(2) };
    // Over the middle third, each impaired site loses 20% on every
    // incident link for an equal share; the last event heals the last.
    let events = (0..=STORM_IMPAIRED)
        .map(|k| Event {
            at: (1.0 + k as f64 / STORM_IMPAIRED as f64) / 3.0,
            action: Box::new(move |c: &Cluster| {
                if let Some(&prev) = k.checked_sub(1).map(|j| &impaired[j]) {
                    c.heal_node(prev);
                }
                if let Some(&next) = impaired.get(k) {
                    c.impair_node(next, 0.2, Micros::ZERO);
                }
            }) as Box<dyn FnMut(&Cluster)>,
        })
        .collect();
    let before = Mark::take(&cluster);
    let tally = traffic.run(&cluster, opts.seconds, opts.trace, events, rep);
    let after = Mark::take(&cluster);
    let mut usage = Usage::default();
    usage.add(&before, &after, None);
    log_phase("storm", &tally);

    // Conservation on the cluster's per-flow report, against what the
    // generator sent and the sinks were handed.
    for (i, src) in traffic.sources.iter().enumerate() {
        let flow = src.tx.flow();
        let sent = src.due_us.len() as u64;
        let got: u64 = traffic.sinks.iter().filter(|s| s.source == i).map(|s| s.delivered).sum();
        let Some(f) = after.report.flow(flow) else {
            rep.check(false, || format!("{flow:?} missing from the metrics report"));
            continue;
        };
        rep.check(f.packets_sent == sent, || {
            format!("{flow:?}: report says {} sent, generator sent {sent}", f.packets_sent)
        });
        rep.check(f.packets_delivered == got, || {
            format!("{flow:?}: report says {} delivered, sinks got {got}", f.packets_delivered)
        });
        rep.check(got <= sent * src.receivers as u64, || {
            format!("{flow:?}: {got} deliveries of {sent} packets to {} receivers", src.receivers)
        });
        if src.receivers == 1 {
            rep.check(f.packets_sent == f.packets_delivered + f.packets_lost, || {
                format!("{flow:?}: conservation broken: {f:?}")
            });
        }
    }

    rep.e2e("lat_p50_ms", quantile(&tally.lat_us, 0.5) / 1e3);
    rep.e2e("cpu_us_per_pkt", tally.cpu_us_per_pkt());
    report_e2e(rep, &[&tally], &usage, &setups);
    report_layers(rep, &[&tally], &usage, &cluster);
    rep.layer("lat_p99_ms", quantile(&tally.lat_us, 0.99) / 1e3);
    rep.layer("converge_s", median(&converge));
    rep.layer("open_sender_ms_p50", median(&open_sender_ms));
    rep.layer("open_sender_ms_max", open_sender_ms.iter().copied().fold(0.0, f64::max));
    rep.layer("open_group_ms_p50", median(&open_group_ms));
    rep.layer("open_group_ms_max", open_group_ms.iter().copied().fold(0.0, f64::max));
    drop(traffic);
    cluster.shutdown();
}
