//! The two simulator workloads: `sim-table2` (the paper's Table 2
//! replay: unicast playback of six schemes) and `sim-manyflow` (10,000
//! flows collapsed into interned multicast groups). Each replays the
//! same seeded trace again and again for the measured seconds and
//! reports medians per replay.

use crate::probe::{self, median};
use crate::{Opts, Report};
use dg_core::scheme::{SchemeKind, SchemeParams};
use dg_core::{build_scheme_cached, Flow, GraphCache, MulticastKind, ServiceRequirement};
use dg_sim::experiment::{run_comparison_parallel, tabulate, ExperimentConfig};
use dg_sim::{
    group_flows, run_group_with, run_groups, run_unicast_static_with, GroupJob, PlaybackConfig,
    SimScratch,
};
use dg_topology::generate::TopoSpec;
use dg_topology::{Graph, Micros, NodeId};
use dg_trace::gen::{self, SyntheticWanConfig};
use dg_trace::TraceSet;
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per run, at least; the median is reported.
const MIN_SETUPS: usize = 5;
/// Set-up repeats until this much time has gone into it.
const SETUP_BUDGET_S: f64 = 1.5;
/// Replays per run, at least, however long they take.
const MIN_REPLAYS: usize = 3;
/// Application packets per second per flow.
const RATE: u32 = 100;

/// A workload's generated inputs and the median time each set-up step
/// took.
struct Inputs<T> {
    g: Graph,
    traces: TraceSet,
    rest: T,
    setup_s: f64,
    topo_s: f64,
    trace_s: f64,
}

/// Builds the topology, generates its trace, and derives the rest of
/// the inputs, repeatedly (at least [`MIN_SETUPS`] times and for
/// [`SETUP_BUDGET_S`]); keeps the last result.
fn set_up<T>(
    topology: impl Fn() -> Graph,
    trace: impl Fn(&Graph) -> TraceSet,
    rest: impl Fn(&Graph) -> T,
) -> Inputs<T> {
    let (mut setups, mut topo_s, mut trace_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let g = topology();
        let built = t.elapsed().as_secs_f64();
        let traces = trace(&g);
        let generated = t.elapsed().as_secs_f64();
        let rest = rest(&g);
        setups.push(t.elapsed().as_secs_f64());
        topo_s.push(built);
        trace_s.push(generated - built);
        if setups.len() >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            return Inputs {
                g,
                traces,
                rest,
                setup_s: median(&setups),
                topo_s: median(&topo_s),
                trace_s: median(&trace_s),
            };
        }
    }
}

/// Repeats `replay` until `seconds` have passed (and at least
/// [`MIN_REPLAYS`] times), returning each replay's wall time, the
/// process CPU seconds they took, and their results.
fn replays<T>(seconds: f64, mut replay: impl FnMut() -> T) -> (Vec<f64>, f64, Vec<T>) {
    let (mut walls, mut outs) = (Vec::new(), Vec::new());
    let cpu0 = probe::process_cpu_s();
    let start = Instant::now();
    while outs.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        outs.push(replay());
        walls.push(t.elapsed().as_secs_f64());
    }
    (walls, probe::process_cpu_s() - cpu0, outs)
}

fn report_parallel(rep: &mut Report, threads: usize, walls: &[f64], cpu_s: f64) {
    rep.fact("threads", threads);
    rep.layer("threads", threads as f64);
    rep.layer("parallel_eff", cpu_s / (walls.iter().sum::<f64>() * threads as f64));
}

/// Simulated seconds of trace in one `sim-table2` replay: the start of
/// one generated week.
const TABLE2_TRACE_S: u64 = 150;
/// One synthetic week, the paper's unit of trace.
const WEEK_S: u64 = 7 * 24 * 3_600;
/// Access sites whose nodes problems favour (as the paper's data).
const ACCESS_SITES: [&str; 8] = ["NYC", "JHU", "WAS", "BOS", "SEA", "SJC", "LAX", "MIA"];

/// `sim-table2`: the 16 transcontinental flows × all six schemes over
/// one seeded week of the calibrated trace at 100 pps, via
/// `run_comparison_parallel` on `nproc` threads.
pub fn table2(opts: Opts, rep: &mut Report) {
    let spec = TopoSpec::NorthAmerica;
    let inputs = set_up(
        || spec.build(),
        |g| {
            let mut cfg = SyntheticWanConfig::calibrated(opts.seed);
            cfg.duration = Micros::from_secs(WEEK_S);
            cfg.node_weights = Some(gen::biased_node_weights(g, &ACCESS_SITES, 6.0));
            let window = (TABLE2_TRACE_S * 1_000_000 / cfg.interval.as_micros()) as usize;
            gen::generate(g, &cfg).slice(0, window).expect("a week holds the replayed window")
        },
        |g| {
            let flows = spec.default_flows(g, 16);
            let config = ExperimentConfig::builder()
                .packets_per_second(RATE)
                .deadline(spec.default_deadline(g, &flows))
                .seed(opts.seed)
                .build()
                .expect("the Table 2 configuration is consistent");
            (flows, config)
        },
    );
    let Inputs { g, traces, rest: (flows, config), .. } = &inputs;
    let threads = probe::nproc();

    let (walls, cpu_s, outs) = replays(opts.seconds, || {
        run_comparison_parallel(g, traces, flows, &SchemeKind::ALL, config, threads)
            .expect("the transcontinental flows are routable")
    });
    let aggs = &outs[0];

    // Checks: identical rows on every replay of one seed; per-flow
    // conservation; flooding covers exactly the whole gap.
    rep.check(outs.iter().all(|o| o == aggs), || "replays of one seed disagree".to_string());
    for a in aggs {
        for f in &a.per_flow {
            rep.check(f.packets_sent == f.packets_delivered + f.packets_lost, || {
                format!("{:?} {:?}: conservation broken: {f:?}", a.kind, f.flow)
            });
        }
    }
    let rows = tabulate(aggs, SchemeKind::StaticSinglePath, SchemeKind::TimeConstrainedFlooding);
    for r in &rows {
        eprintln!(
            "table2: {:<32} unavailable {:>4} s, gap coverage {:.4}, cost {:.3}",
            r.scheme.label(),
            r.unavailable_seconds,
            r.gap_coverage,
            r.average_cost
        );
    }
    let flooding = rows.iter().find(|r| r.scheme == SchemeKind::TimeConstrainedFlooding);
    rep.check(flooding.is_some_and(|r| r.gap_coverage == 1.0), || {
        format!("flooding's gap coverage is {:?}, not 1.0", flooding.map(|r| r.gap_coverage))
    });

    let sum = |field: fn(&dg_sim::FlowRunStats) -> u64| -> u64 {
        aggs.iter().map(|a| field(&a.totals)).sum()
    };
    let sent = sum(|t| t.packets_sent);
    let delivered = sum(|t| t.packets_delivered);
    let tx = sum(|t| t.transmissions);
    let wall = median(&walls);
    rep.attempted += sent * walls.len() as u64;
    rep.fact("replays", walls.len());
    rep.fact("trace", format!("first {TABLE2_TRACE_S} s of a week, seed {}", opts.seed));
    eprintln!("sim-table2: {} replays, median {:.3} s, {} packets each", walls.len(), wall, sent);
    rep.e2e("setup_s", inputs.setup_s);
    rep.e2e("lat_p50_ms", wall * 1e3);
    rep.e2e("cpu_us_per_pkt", cpu_s * 1e6 / (sent * walls.len() as u64) as f64);
    rep.e2e("pkts_per_s", sent as f64 / wall);
    rep.e2e("delivered_frac", delivered as f64 / sent as f64);
    rep.e2e("ontime_frac", sum(|t| t.packets_on_time) as f64 / sent as f64);
    rep.e2e("tx_per_delivered", tx as f64 / delivered as f64);
    if opts.trace {
        // Scheme construction on its own, outside the replays.
        let t = Instant::now();
        let cache = GraphCache::new(g.clone(), config.scheme_params);
        for kind in SchemeKind::ALL {
            for &(s, d) in flows {
                build_scheme_cached(kind, &cache, Flow::new(s, d), config.requirement)
                    .expect("the transcontinental flows are routable");
            }
        }
        rep.layer("scheme_build_s", t.elapsed().as_secs_f64());
    }
    rep.layer("topo_build_s", inputs.topo_s);
    rep.layer("trace_gen_s", inputs.trace_s);
    rep.layer("play_s", wall);
    rep.layer("tx_per_pkt", tx as f64 / sent as f64);
    report_parallel(rep, threads, &walls, cpu_s);
}

/// Flows in `sim-manyflow`.
const MANY_FLOWS: usize = 10_000;
/// Nodes of its Waxman topology.
const MANY_NODES: usize = 100;
/// Generator seed of that topology: fixed, so every seed replays the
/// same overlay and only the trace varies.
const MANY_TOPO_SEED: u64 = 2017;
/// Simulated seconds of trace in one replay.
const MANY_TRACE_S: u64 = 20;

/// One interned-and-replayed pass over the many-flow population.
struct GroupPass {
    runs: Vec<dg_sim::GroupRunStats>,
    hits: u64,
    misses: u64,
    intern_s: f64,
    play_s: f64,
}

/// `sim-manyflow`: 10,000 flows round-robined over a 100-node Waxman
/// topology, collapsed into source-sharing targeted multicast groups,
/// interned through a fresh `GraphCache` and replayed with
/// `run_groups` on `nproc` threads over 60 s of trace at 100 pps.
pub fn manyflow(opts: Opts, rep: &mut Report) {
    let spec = TopoSpec::Waxman { nodes: MANY_NODES, seed: MANY_TOPO_SEED };
    let inputs = set_up(
        || spec.build(),
        |g| {
            let mut cfg = SyntheticWanConfig::calibrated(opts.seed);
            cfg.duration = Micros::from_secs(MANY_TRACE_S);
            gen::generate(g, &cfg)
        },
        |g| {
            let n = g.node_count();
            // Sources round-robin the nodes; each cycles through the
            // others as destinations — one feed, many subscribers.
            let flows: Vec<Flow> = (0..MANY_FLOWS)
                .map(|i| {
                    let src = i % n;
                    let dst = (src + 1 + (i / n) % (n - 1)) % n;
                    Flow::new(NodeId::new(src as u32), NodeId::new(dst as u32))
                })
                .collect();
            let pairs: Vec<(NodeId, NodeId)> =
                flows.iter().map(|f| (f.source, f.destination)).collect();
            let deadline = spec.default_deadline(g, &pairs);
            let config = PlaybackConfig {
                packets_per_second: RATE,
                deadline,
                seed: opts.seed,
                ..PlaybackConfig::default()
            };
            (flows, ServiceRequirement::new(deadline), config)
        },
    );
    let Inputs { g, traces, rest: (flows, requirement, config), .. } = &inputs;
    let requirement = *requirement;
    let kind = MulticastKind::Targeted;
    let threads = probe::nproc();

    let (walls, cpu_s, passes) = replays(opts.seconds, || {
        let t = Instant::now();
        let cache = GraphCache::new(g.clone(), SchemeParams::default());
        let grouped = group_flows(flows);
        let by_source: HashMap<NodeId, &Vec<NodeId>> =
            grouped.iter().map(|(s, r)| (*s, r)).collect();
        for f in flows {
            cache
                .multicast(f.source, by_source[&f.source], kind, requirement)
                .expect("every group is routable");
        }
        let jobs: Vec<GroupJob> = grouped
            .iter()
            .map(|(source, receivers)| GroupJob {
                source: *source,
                receivers: receivers.clone(),
                kind,
                requirement,
            })
            .collect();
        let intern_s = t.elapsed().as_secs_f64();
        let runs =
            run_groups(g, traces, &cache, &jobs, config, threads).expect("every group is routable");
        let stats = cache.stats();
        GroupPass {
            runs,
            hits: stats.multicast.hits,
            misses: stats.multicast.misses,
            intern_s,
            play_s: t.elapsed().as_secs_f64() - intern_s,
        }
    });
    let first = &passes[0];
    let groups = first.runs.len() as u64;

    // Checks: every flow is one interning lookup and every group one
    // computation; replays agree; per-receiver conservation; a
    // one-receiver group replays exactly as the unicast path does.
    for p in &passes {
        rep.check(p.hits == MANY_FLOWS as u64 && p.misses == groups, || {
            format!(
                "multicast cache: {} hits / {} misses, expected {MANY_FLOWS} / {groups}",
                p.hits, p.misses
            )
        });
        rep.check(p.runs == first.runs, || "replays of one seed disagree".to_string());
    }
    for cell in first.runs.iter().flat_map(|r| &r.receivers) {
        rep.check(cell.packets_sent == cell.packets_delivered + cell.packets_lost, || {
            format!("receiver {:?}: conservation broken: {cell:?}", cell.receiver)
        });
    }
    let probe_flow = flows[0];
    let cache = GraphCache::new(g.clone(), SchemeParams::default());
    let mgraph = cache
        .multicast(probe_flow.source, &[probe_flow.destination], MulticastKind::Tree, requirement)
        .expect("the probe flow is routable");
    let mut scratch = SimScratch::new();
    let group_run = run_group_with(g, traces, &mgraph, config, &mut scratch);
    let uni =
        mgraph.unicast_view(g, probe_flow.destination).expect("the probe receiver is on its graph");
    let (uni_stats, uni_tx) = run_unicast_static_with(g, traces, &uni, config, &mut scratch);
    let identical = group_run.transmissions == uni_tx
        && serde_json::to_string(&group_run.receivers).ok()
            == serde_json::to_string(&[uni_stats]).ok();
    rep.check(identical, || "a one-receiver group does not replay as unicast".to_string());

    // Per-flow accounting: each flow reads its receiver's cell.
    let cells: HashMap<(NodeId, NodeId), &dg_sim::ReceiverRunStats> = first
        .runs
        .iter()
        .flat_map(|r| r.receivers.iter().map(move |c| ((r.source, c.receiver), c)))
        .collect();
    let (mut sent, mut delivered, mut on_time) = (0u64, 0u64, 0u64);
    for f in flows {
        let c = cells[&(f.source, f.destination)];
        sent += c.packets_sent;
        delivered += c.packets_delivered;
        on_time += c.packets_on_time;
    }
    let cell_delivered: u64 = cells.values().map(|c| c.packets_delivered).sum();
    let group_tx: u64 = first.runs.iter().map(|r| r.transmissions).sum();
    let flow_pkts = (MANY_FLOWS as u64) * MANY_TRACE_S * u64::from(RATE);
    rep.check(sent == flow_pkts, || format!("{sent} flow-packets replayed, expected {flow_pkts}"));
    let wall = median(&walls);
    rep.attempted += flow_pkts * walls.len() as u64;
    rep.fact("replays", walls.len());
    rep.fact("groups", groups);
    rep.fact("trace", format!("{MANY_TRACE_S} s, seed {}", opts.seed));
    eprintln!(
        "sim-manyflow: {} replays, median {:.3} s, {flow_pkts} flow-packets in {groups} groups, \
         {group_tx} transmissions",
        walls.len(),
        wall
    );
    rep.e2e("setup_s", inputs.setup_s);
    rep.e2e("lat_p50_ms", wall * 1e3);
    rep.e2e("cpu_us_per_pkt", cpu_s * 1e6 / (flow_pkts * walls.len() as u64) as f64);
    rep.e2e("pkts_per_s", flow_pkts as f64 / wall);
    rep.e2e("delivered_frac", delivered as f64 / sent as f64);
    rep.e2e("ontime_frac", on_time as f64 / sent as f64);
    rep.e2e("tx_per_delivered", group_tx as f64 / cell_delivered as f64);
    rep.layer("topo_build_s", inputs.topo_s);
    rep.layer("trace_gen_s", inputs.trace_s);
    let intern: Vec<f64> = passes.iter().map(|p| p.intern_s).collect();
    let play: Vec<f64> = passes.iter().map(|p| p.play_s).collect();
    rep.layer("intern_s", median(&intern));
    rep.layer("intern_hits", first.hits as f64);
    rep.layer("intern_misses", first.misses as f64);
    rep.layer("intern_hit_rate", first.hits as f64 / (first.hits + first.misses) as f64);
    rep.layer("group_play_s", median(&play));
    rep.layer("group_tx", group_tx as f64);
    report_parallel(rep, threads, &walls, cpu_s);
}
