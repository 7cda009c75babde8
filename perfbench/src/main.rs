//! `perfbench` — the repository benchmark's measuring binary.
//!
//! Runs one workload against the overlay (`relay-chain`, `wan-storm`)
//! or the playback simulator (`sim-table2`, `sim-manyflow`), checks
//! its outputs against identities that hold for any correct program,
//! and prints one JSON report on stdout. `run.py` builds this binary,
//! runs it, and turns the report into the benchmark's result line.
//!
//! Usage: `perfbench <workload> --seed N --seconds S --trace 0|1`
//!
//! Every layer is measured from outside: by timing calls into the
//! crates' public functions, by reading the counters the program
//! already exports, and by reading per-thread scheduler statistics of
//! this process. With `--trace 0` the per-call timers and pollers are
//! off; `--trace 1` turns them on and reports the per-layer metrics.

mod overlay;
mod probe;
mod sim;

use std::collections::HashMap;
use std::fmt::Write as _;

/// Every per-layer metric, in report order, with its unit. A traced
/// run reports all of them on every workload; a layer the workload
/// does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("nproc", "count"),
    ("mem.peak_rss_mb", "MB"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.lag_max_ms", "ms"),
    ("gen.busy_s", "s"),
    ("send.call_us_p50", "us"),
    ("send.call_us_p99", "us"),
    ("send.calls", "count"),
    ("recv.calls", "count"),
    ("r5k.lat_p50_us", "us"),
    ("r20k.lat_p50_us", "us"),
    ("r5k.lat_p99_us", "us"),
    ("r20k.lat_p99_us", "us"),
    ("r5k.cpu_us_per_pkt", "us"),
    ("r20k.cpu_us_per_pkt", "us"),
    ("r5k.gen.lag_p99_ms", "ms"),
    ("r20k.gen.lag_p99_ms", "ms"),
    ("r5k.relay.pkts_per_dgram", "ratio"),
    ("r20k.relay.pkts_per_dgram", "ratio"),
    ("r5k.socket_loss_frac", "ratio"),
    ("r20k.socket_loss_frac", "ratio"),
    ("lat_p99_ms", "ms"),
    ("rx.busy_s", "s"),
    ("rx.wait_s", "s"),
    ("ship.busy_s", "s"),
    ("ship.wait_s", "s"),
    ("tick.busy_s", "s"),
    ("tick.wait_s", "s"),
    ("relay.rx.busy_s", "s"),
    ("relay.ship.busy_s", "s"),
    ("worker.busy_s", "s"),
    ("worker.wait_s", "s"),
    ("runtime.workers", "count"),
    ("dgrams_per_pkt", "ratio"),
    ("bytes_per_pkt", "B"),
    ("relay.pkts_per_dgram", "ratio"),
    ("socket_loss_frac", "ratio"),
    ("shipper_drops", "count"),
    ("delivery_drops", "count"),
    ("expired", "count"),
    ("outbound_queue_depth_max", "count"),
    ("nack_msgs", "count"),
    ("retx_requested", "count"),
    ("retx_served", "count"),
    ("retx_misses", "count"),
    ("retx_suppressed", "count"),
    ("nack_rerequests", "count"),
    ("recovery_yield", "ratio"),
    ("dups_per_delivered", "ratio"),
    ("converge_s", "s"),
    ("hellos_sent", "count"),
    ("lsa_flooded", "count"),
    ("lsa_retransmits", "count"),
    ("digests_sent", "count"),
    ("links_declared_down", "count"),
    ("flap_suppressions", "count"),
    ("open_sender_ms_p50", "ms"),
    ("open_sender_ms_max", "ms"),
    ("open_group_ms_p50", "ms"),
    ("open_group_ms_max", "ms"),
    ("graph_changes", "count"),
    ("cache.baseline.hits", "count"),
    ("cache.baseline.misses", "count"),
    ("cache.live.hits", "count"),
    ("cache.live.misses", "count"),
    ("cache.multicast.hits", "count"),
    ("cache.multicast.misses", "count"),
    ("shed_bulk", "count"),
    ("shed_timely", "count"),
    ("shed_surgical", "count"),
    ("overload_level_max", "count"),
    ("topo_build_s", "s"),
    ("trace_gen_s", "s"),
    ("intern_s", "s"),
    ("intern_hits", "count"),
    ("intern_misses", "count"),
    ("intern_hit_rate", "ratio"),
    ("play_s", "s"),
    ("tx_per_pkt", "ratio"),
    ("scheme_build_s", "s"),
    ("group_play_s", "s"),
    ("group_tx", "count"),
    ("threads", "count"),
    ("parallel_eff", "ratio"),
];

/// Every end-to-end metric with its unit. Each workload reports all of
/// them; what "a packet" and "latency" mean per workload is in
/// `perfbench/README.md`.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("cpu_us_per_pkt", "us"),
    ("pkts_per_s", "1/s"),
    ("delivered_frac", "ratio"),
    ("ontime_frac", "ratio"),
    ("tx_per_delivered", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (packets offered, or replays run).
    pub attempted: u64,
    /// Operations that failed (a sender or replay call returned an
    /// error).
    pub failed: u64,
    /// Correctness checks that did not hold (the first few, by
    /// message).
    pub violations: Vec<String>,
    /// Every check that did not hold.
    pub violation_count: u64,
    /// Run facts: name → value.
    pub facts: Vec<(String, String)>,
    e2e: HashMap<&'static str, f64>,
    layers: HashMap<&'static str, f64>,
}

impl Report {
    /// Records a run fact.
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Records an end-to-end metric (unit taken from [`E2E_METRICS`]).
    pub fn e2e(&mut self, name: &str, value: f64) {
        let (name, _) = E2E_METRICS.iter().find(|(n, _)| *n == name).expect("known metric");
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric (unit taken from [`LAYER_METRICS`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        let (name, _) = LAYER_METRICS.iter().find(|(n, _)| *n == name).expect("known metric");
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.layers.insert(name, value);
    }

    /// Fails the run with a message unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violation_count += 1;
            if self.violations.len() < 20 {
                self.violations.push(what());
            }
        }
    }

    /// The report as one line of JSON.
    fn to_json(&self, workload: &str) -> String {
        let metrics = |table: &[(&str, &str)], values: &HashMap<&str, f64>| {
            let mut out = String::new();
            for (i, (name, unit)) in table.iter().enumerate() {
                let value = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, r#"{sep}"{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
            }
            out
        };
        let e2e = metrics(E2E_METRICS, &self.e2e);
        let layers = metrics(LAYER_METRICS, &self.layers);
        let strings = |items: &mut dyn Iterator<Item = String>| {
            items.map(|s| quote(&s)).collect::<Vec<_>>().join(", ")
        };
        let facts: Vec<String> =
            self.facts.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
        let facts = facts.join(", ");
        let violations = strings(&mut self.violations.iter().cloned());
        format!(
            r#"{{"workload": {}, "correct": {}, "attempted": {}, "failed": {}, "violation_count": {}, "violations": [{violations}], "facts": {{{facts}}}, "e2e": {{{e2e}}}, "layers": {{{layers}}}}}"#,
            quote(workload),
            self.violation_count == 0,
            self.attempted,
            self.failed,
            self.violation_count,
        )
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether the per-layer timers are on.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench <relay-chain|wan-storm|sim-table2|sim-manyflow> \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let mut opts = Opts { seed: 1, seconds: 10.0, trace: false };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => opts.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload, opts))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.fact("nproc", probe::nproc());
    report.fact("seed", opts.seed);
    report.layer("nproc", probe::nproc() as f64);
    match workload.as_str() {
        "relay-chain" => overlay::relay_chain(opts, &mut report),
        "wan-storm" => overlay::wan_storm(opts, &mut report),
        // One cold `wan-storm` set-up; `wan-storm` runs it in child
        // processes.
        "wan-storm-setup" => overlay::wan_storm_setup(opts, &mut report),
        "sim-table2" => sim::table2(opts, &mut report),
        "sim-manyflow" => sim::manyflow(opts, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
    report.layer("mem.peak_rss_mb", probe::peak_rss_mb());
    println!("{}", report.to_json(&workload));
}
