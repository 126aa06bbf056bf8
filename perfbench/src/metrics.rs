//! The metric catalogue and the result line.
//!
//! Every workload prints every end-to-end metric on an untraced run and
//! every per-layer metric on a traced run, so the catalogue here is the
//! single list `BENCHMARK.json` must match (a test checks it). A
//! per-layer metric whose layer is not on a workload's path reads 0
//! there; [`LAYER`] names the workloads that measure each one, and the
//! end-to-end metric it should move.

use std::collections::BTreeMap;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sim-steady", "sim-attack40", "live-durable"];

/// An end-to-end metric: name, unit, whether higher is better.
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> E2e {
    E2e {
        name,
        unit,
        higher_is_better,
    }
}

/// End-to-end metrics, measured on untraced runs of every workload.
pub const E2E: [E2e; 7] = [
    e2e("setup_s", "s", false),
    e2e("node_cycles_per_s", "1/s", true),
    e2e("cycle_ms_p50", "ms", false),
    e2e("cpu_us_per_node_cycle", "us", false),
    e2e("peak_rss_mb", "MiB", false),
    e2e("exchange_ok_ratio", "ratio", true),
    e2e("paper_bytes_per_node_cycle", "B", false),
];

/// A per-layer metric and the claim it supports.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// Workload on which it should move it.
    pub on: &'static str,
    /// Workloads that measure it (elsewhere it reads 0).
    pub measured_on: &'static [&'static str],
}

const SIMS: &[&str] = &["sim-steady", "sim-attack40"];
const ALL: &[&str] = &WORKLOADS;
const LIVE: &[&str] = &["live-durable"];
const ATTACK: &[&str] = &["sim-attack40"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    moves: &'static str,
    on: &'static str,
    measured_on: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better,
        moves,
        on,
        measured_on,
    }
}

const NCPS: &str = "node_cycles_per_s";
const CPU: &str = "cpu_us_per_node_cycle";
const OK: &str = "exchange_ok_ratio";
const STEADY: &str = "sim-steady";
const ATK: &str = "sim-attack40";
const LIVE_W: &str = "live-durable";

/// Per-layer metrics, measured on traced runs.
#[rustfmt::skip]
pub const LAYER: [Layer; 51] = [
    // sc-sim::engine
    layer("engine.self_us_per_node_cycle", "us", false, NCPS, ATK, SIMS),
    layer("engine.oneways_per_node_cycle", "count", false, NCPS, ATK, SIMS),
    layer("engine.rpcs_per_node_cycle", "count", false, OK, ATK, SIMS),
    layer("engine.rpc_reply_ratio", "ratio", true, OK, ATK, SIMS),
    // sc-core::node, honest callbacks
    layer("node.initiator_self_us_per_node_cycle", "us", false, NCPS, STEADY, SIMS),
    layer("node.responder_us_per_node_cycle", "us", false, NCPS, STEADY, SIMS),
    layer("node.responder_us_p50", "us", false, NCPS, STEADY, SIMS),
    layer("node.responder_us_p99", "us", false, NCPS, STEADY, SIMS),
    layer("node.samples_per_node_cycle", "count", false, NCPS, STEADY, ALL),
    layer("node.turn_us_p50", "us", false, "cycle_ms_p50", STEADY, SIMS),
    layer("node.turn_us_p99", "us", false, "cycle_ms_p50", STEADY, SIMS),
    layer("node.sample_cache_entries", "count", false, "cycle_ms_p50", STEADY, SIMS),
    layer("node.sample_cache_growth", "ratio", false, "cycle_ms_p50", STEADY, SIMS),
    layer("node.oneway_us_per_node_cycle", "us", false, NCPS, ATK, SIMS),
    layer("node.oneway_us_p99", "us", false, NCPS, ATK, SIMS),
    layer("node.refused_per_node_cycle", "count", false, OK, ATK, ALL),
    layer("node.transfers_rejected_per_node_cycle", "count", false, OK, ATK, ALL),
    layer("node.invalid_descriptors_per_node_cycle", "count", false, OK, ATK, ALL),
    // proofs
    layer("proof.generated_per_node_cycle", "count", false, NCPS, ATK, ALL),
    layer("proof.received_per_node_cycle", "count", false, NCPS, ATK, ALL),
    layer("proof.novel_ratio", "ratio", true, NCPS, ATK, ALL),
    // sc-attacks
    layer("attacks.us_per_node_cycle", "us", false, "none", ATK, ATTACK),
    layer("attacks.clear_cycles", "cycles", false, NCPS, ATK, ATTACK),
    // sc-core::descriptor + sc-crypto, replayed on captured traffic
    layer("descriptor.per_msg", "count", false, NCPS, STEADY, ALL),
    layer("descriptor.links_mean", "count", false, NCPS, STEADY, ALL),
    layer("descriptor.verify_cold_us_per_msg", "us", false, NCPS, STEADY, ALL),
    layer("crypto.sign_us", "us", false, NCPS, STEADY, ALL),
    layer("crypto.verify_fast_us", "us", false, NCPS, STEADY, ALL),
    layer("crypto.batch_size", "count", false, NCPS, STEADY, ALL),
    layer("crypto.batch_verify_us_per_sig", "us", false, NCPS, STEADY, ALL),
    // sc-core::wire, replayed on captured traffic
    layer("wire.encode_us_per_msg", "us", false, CPU, LIVE_W, ALL),
    layer("wire.decode_us_per_msg", "us", false, CPU, LIVE_W, ALL),
    layer("wire.bytes_per_msg", "B", false, "paper_bytes_per_node_cycle", LIVE_W, ALL),
    layer("wire.msgs_per_node_cycle", "count", false, CPU, LIVE_W, SIMS),
    // sc-core::storage
    layer("storage.log_bytes_per_node_cycle", "B", false, CPU, LIVE_W, LIVE),
    // sc-node daemon and transport
    layer("daemon.user_cpu_us_per_node_cycle", "us", false, CPU, LIVE_W, LIVE),
    layer("daemon.sys_cpu_us_per_node_cycle", "us", false, CPU, LIVE_W, LIVE),
    layer("daemon.idle_cpu_ms_per_s", "ms/s", false, CPU, LIVE_W, LIVE),
    layer("daemon.retransmits_per_node_cycle", "count", false, OK, LIVE_W, LIVE),
    layer("daemon.turn_miss_ratio", "ratio", false, NCPS, LIVE_W, LIVE),
    layer("transport.frames_per_node_cycle", "count", false, CPU, LIVE_W, LIVE),
    layer("transport.framed_bytes_per_node_cycle", "B", false, CPU, LIVE_W, LIVE),
    layer("transport.framed_to_paper_ratio", "ratio", false, CPU, LIVE_W, LIVE),
    layer("transport.peak_conns", "count", false, CPU, LIVE_W, LIVE),
    layer("transport.connect_failures", "count", false, OK, LIVE_W, LIVE),
    layer("probe.rtt_ms_p50", "ms", false, CPU, LIVE_W, LIVE),
    layer("probe.rtt_ms_p99", "ms", false, CPU, LIVE_W, LIVE),
    layer("probe.generator_late_ms_p99", "ms", false, CPU, LIVE_W, LIVE),
    // the trace itself
    layer("trace.overhead_ratio", "ratio", false, "none", STEADY, SIMS),
    layer("trace.self_time_gap_ratio", "ratio", false, "none", STEADY, SIMS),
    layer("trace.spans", "count", false, "none", STEADY, SIMS),
];

/// Unit of a catalogue metric, or `None` if the name is unknown.
pub fn unit_of(name: &str) -> Option<&'static str> {
    E2E.iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// One run's result: correctness, operation counts, and metric values.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Correctness-gate failures, printed to stderr.
    pub failures: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Fails a correctness gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.failures.push(what.into());
        }
    }

    /// The result line. Untraced runs print exactly the end-to-end
    /// metrics, traced runs exactly the per-layer ones; layers a
    /// workload does not exercise read 0.
    pub fn json(&self, traced: bool) -> String {
        let names: Vec<&str> = if traced {
            LAYER.iter().map(|m| m.name).collect()
        } else {
            E2E.iter().map(|m| m.name).collect()
        };
        let mut correct = self.correct;
        let metrics: Vec<String> = names
            .iter()
            .map(|&name| {
                let mut value = self.values.get(name).copied().unwrap_or(0.0);
                if !value.is_finite() {
                    correct = false;
                    value = 0.0;
                }
                let unit = unit_of(name).expect("catalogued");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` triples of one `BENCHMARK.json` section.
    fn section(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, k: &str| -> String {
            let at = obj.find(&format!("\"{k}\"")).expect("field present");
            let rest = &obj[at + k.len() + 2..];
            let open = rest.find('"').unwrap() + 1;
            let close = open + rest[open..].find('"').unwrap();
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    fn better(higher: bool) -> String {
        if higher { "higher" } else { "lower" }.to_string()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<_> = E2E
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.higher_is_better)))
            .collect();
        assert_eq!(section(&json, "end_to_end"), e2e);
        let layers: Vec<_> = LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), better(m.higher_is_better)))
            .collect();
        assert_eq!(section(&json, "per_layer"), layers);
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} listed");
        }
    }

    #[test]
    fn layer_claims_name_real_metrics_and_workloads() {
        for m in &LAYER {
            assert!(
                m.moves == "none" || E2E.iter().any(|e| e.name == m.moves),
                "{}",
                m.name
            );
            assert!(WORKLOADS.contains(&m.on), "{}", m.name);
            assert!(m.measured_on.iter().all(|w| WORKLOADS.contains(w)));
        }
        let mut names: Vec<&str> = E2E.iter().map(|m| m.name).collect();
        names.extend(LAYER.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
    }

    #[test]
    fn result_line_prints_exactly_the_catalogue() {
        let mut r = Report::new();
        r.set("setup_s", 1.5);
        r.attempted = 10;
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for m in &E2E {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", m.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = r.json(true);
        assert!(LAYER.iter().all(|m| traced.contains(m.name)));
        assert!(!traced.contains("setup_s"));
        r.set("cycle_ms_p50", f64::NAN);
        assert!(r.json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn unknown_names_are_rejected() {
        Report::new().set("no_such_metric", 1.0);
    }
}
