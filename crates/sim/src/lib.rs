//! Playback network simulator for dissemination-graph routing.
//!
//! A reimplementation of the methodology behind the paper's evaluation
//! tool (the Playback Network Simulator): per-link loss and latency
//! conditions recorded in a [`dg_trace::TraceSet`] are *replayed*, and
//! application flows are simulated packet-by-packet over whichever
//! dissemination graph their routing scheme currently selects. Overlay
//! links perform hop-by-hop recovery limited to a single
//! retransmission, exactly like the real transport service.
//!
//! The headline metric is per-second **availability**: a second counts
//! as unavailable when the fraction of its packets delivered within the
//! deadline falls below the configured threshold.
//!
//! # Example
//!
//! ```
//! use dg_topology::presets;
//! use dg_trace::gen::{self, SyntheticWanConfig};
//! use dg_core::{Flow, scheme::{build_scheme, SchemeKind, SchemeParams}};
//! use dg_sim::{PlaybackConfig, run_flow};
//!
//! let g = presets::north_america_12();
//! let mut cfg = SyntheticWanConfig::calibrated(1);
//! cfg.duration = dg_topology::Micros::from_secs(30);
//! let traces = gen::generate(&g, &cfg);
//! let flow = Flow::new(g.node_by_name("NYC").unwrap(), g.node_by_name("SJC").unwrap());
//! let mut scheme = build_scheme(
//!     SchemeKind::StaticTwoDisjoint, &g, flow,
//!     Default::default(), &SchemeParams::default(),
//! )?;
//! let stats = run_flow(&g, &traces, scheme.as_mut(), &PlaybackConfig::default());
//! assert_eq!(stats.seconds, 30);
//! # Ok::<(), dg_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
mod group;
mod histogram;
mod metrics;
mod packet;
mod parallel;
mod playback;
mod rng;

pub use group::{
    group_flows, run_group_with, run_groups, run_unicast_static_with, GroupJob, GroupRunStats,
    ReceiverRunStats,
};
pub use histogram::LatencyHistogram;
pub use metrics::{gap_coverage, FlowRunStats, SecondRecord};
pub use packet::{
    simulate_group_packet_with, simulate_packet, simulate_packet_with, PacketOutcome,
    RecoveryModel, SimScratch,
};
pub use parallel::{run_flows, run_flows_cached, FlowJob};
pub use playback::{run_flow, run_flow_detailed, run_flow_full, PlaybackConfig, PlaybackOutput};
