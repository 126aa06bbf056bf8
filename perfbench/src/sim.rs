//! The simulated workloads: a 1000-node network on the real engine,
//! steady state or under a 40% hub attack, run untraced for end-to-end
//! metrics and traced for per-layer ones.

use crate::metrics::Report;
use crate::stats::{median, percentile, ratio, self_times, Span};
use crate::trace::{self, kind, Capture, Traced};
use crate::{procfs, replay};
use sc_attacks::SecureAttack;
use sc_core::{SecureConfig, SecureCyclonNode, SecureMsg};
use sc_crypto::{Digest, Keypair, NodeId, Scheme, Sha256};
use sc_sim::{Addr, Engine, Execution, NetworkModel, SimConfig, SimNode, TrafficStats};
use sc_testkit::net::{build_secure_network, SecureNet, SecureNetParams};
use std::collections::HashSet;
use std::time::Instant;

/// One simulated workload.
#[derive(Clone, Debug)]
pub struct SimWorkload {
    pub n: usize,
    pub n_malicious: usize,
    pub view_len: usize,
    pub swap_len: usize,
    /// Engine cycle the window starts at. Bootstrap starts the clock at
    /// cycle ℓ, so warm-up is `window_start - ℓ` cycles. For an attack,
    /// also the cycle the attack starts.
    pub window_start: u64,
    /// Measured cycles.
    pub window: u64,
    /// For an attack: cycles after attack start by which honest views
    /// must be clear of malicious links. The run continues, unmeasured,
    /// past the window until they are.
    pub clear_limit: u64,
}

/// Window cycles per second of `--seconds` for `sim-steady` and
/// `sim-attack40`, sized so a window takes about that long on a 2-core
/// x86 box (steady cycles cost ≈0.25 s; attack cycles ≈1 s during the
/// surge, ≈0.1 s after it).
const STEADY_CYCLES_PER_SECOND: u64 = 4;
const ATTACK_CYCLES_PER_SECOND: u64 = 2;

impl SimWorkload {
    /// 1000 honest nodes, paper configuration. The sample cache stops
    /// growing near cycle 95 (60-cycle retention plus descriptor
    /// lifetimes); the window starts at 100 so both commits of a
    /// comparison measure the same, steady cycles, including the
    /// population-wide cost spikes at cycles 113–119.
    pub fn steady(seconds: u64) -> SimWorkload {
        SimWorkload {
            n: 1000,
            n_malicious: 0,
            view_len: 20,
            swap_len: 3,
            window_start: 100,
            window: (seconds * STEADY_CYCLES_PER_SECOND).max(10),
            clear_limit: 0,
        }
    }

    /// Figure 5 bottom-left: 400 of 1000 nodes run the hub attack from
    /// cycle 50, eviction on. The window is a fixed number of cycles
    /// from attack start: it covers the proof-flood surge (about 12
    /// cycles) and the clearing of honest views (about 20 cycles for
    /// most seeds). Longer windows add recovery cycles whose cost swings
    /// more from run to run than the surge's. Ending it when views clear instead would make its
    /// length — and every per-node-cycle figure — swing with the seed,
    /// since a few lingering links can delay clearing by 50 cycles.
    pub fn attack40(seconds: u64) -> SimWorkload {
        SimWorkload {
            n: 1000,
            n_malicious: 400,
            view_len: 20,
            swap_len: 3,
            window_start: 50,
            window: (seconds * ATTACK_CYCLES_PER_SECOND).max(20),
            clear_limit: 120,
        }
    }

    /// The live cluster's configuration (8 nodes, ℓ=6, s=3) simulated,
    /// used to capture traffic of that shape for the wire replay.
    pub fn live_replica(cycles: u64) -> SimWorkload {
        SimWorkload {
            n: 8,
            n_malicious: 0,
            view_len: 6,
            swap_len: 3,
            window_start: 16,
            window: cycles,
            clear_limit: 0,
        }
    }

    fn params(&self, seed: u64) -> SecureNetParams {
        let attack = if self.n_malicious > 0 {
            SecureAttack::Hub
        } else {
            SecureAttack::None
        };
        let mut p = SecureNetParams::new(self.n, self.n_malicious, attack);
        p.cfg = SecureConfig::default()
            .with_view_len(self.view_len)
            .with_swap_len(self.swap_len);
        p.attack_start = self.window_start;
        p.seed = seed;
        // `SecureNetParams::new` defaults to the keyed-hash scheme.
        p.scheme = Scheme::Schnorr61;
        p.net = NetworkModel::reliable();
        p.execution = Execution::Sequential;
        p
    }

    /// One-line description of the configuration for the context line.
    pub fn describe(&self) -> String {
        format!(
            "\"population\": {}, \"malicious\": {}, \"view_len\": {}, \"swap_len\": {}, \"window_start_cycle\": {}",
            self.n, self.n_malicious, self.view_len, self.swap_len, self.window_start
        )
    }
}

/// Engine node types the runner can read protocol state from.
pub trait Hosted: SimNode<Msg = SecureMsg> + Send {
    fn net(&self) -> &SecureNet;
}

impl Hosted for SecureNet {
    fn net(&self) -> &SecureNet {
        self
    }
}

impl Hosted for Traced {
    fn net(&self) -> &SecureNet {
        &self.0
    }
}

/// Honest-node protocol counters summed over the population.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub honest: u64,
    pub initiated: u64,
    pub completed: u64,
    pub refused: u64,
    pub transfers_rejected: u64,
    pub invalid: u64,
    pub samples: u64,
    pub proofs_generated: u64,
    pub proofs_received: u64,
    pub proofs_duplicate: u64,
    pub proofs_invalid: u64,
    pub bytes_sent: u64,
    pub cache_entries: u64,
    pub blacklist_entries: u64,
}

fn totals<N: Hosted>(engine: &Engine<N>) -> Totals {
    let mut t = Totals::default();
    for (_, node) in engine.nodes() {
        let Some(h) = node.net().honest() else {
            continue;
        };
        let s = h.stats();
        t.honest += 1;
        t.initiated += s.initiated;
        t.completed += s.completed;
        t.refused += s.refused;
        t.transfers_rejected += s.transfers_rejected;
        t.invalid += s.invalid_descriptors;
        t.samples += s.samples_processed;
        t.proofs_generated += s.proofs_generated_cloning + s.proofs_generated_frequency;
        t.proofs_received += s.proofs_received;
        t.proofs_duplicate += s.proofs_duplicate;
        t.proofs_invalid += s.proofs_invalid;
        t.bytes_sent += s.bytes_sent;
        t.cache_entries += h.sample_count() as u64;
        t.blacklist_entries += h.blacklist().len() as u64;
    }
    t
}

/// Links in honest views that point at malicious creators.
fn malicious_links<N: Hosted>(engine: &Engine<N>, malicious: &HashSet<NodeId>) -> usize {
    engine
        .nodes()
        .filter_map(|(_, n)| n.net().honest())
        .flat_map(|h| h.view().iter())
        .filter(|e| malicious.contains(&e.desc.creator()))
        .count()
}

/// Whether any honest node blacklisted an honest identity.
fn honest_blacklisted<N: Hosted>(engine: &Engine<N>, malicious: &HashSet<NodeId>) -> bool {
    engine
        .nodes()
        .filter_map(|(_, n)| n.net().honest())
        .any(|h| h.blacklist().culprits().any(|c| !malicious.contains(c)))
}

/// Digest of every node's view (entry state digests and non-swappable
/// flags, in order) and blacklist (sorted).
fn fingerprint<N: Hosted>(engine: &Engine<N>) -> Digest {
    let mut h = Sha256::new();
    for (addr, node) in engine.nodes() {
        h.update(&addr.to_le_bytes());
        let Some(honest) = node.net().honest() else {
            h.update(b"m");
            continue;
        };
        for e in honest.view().iter() {
            h.update(&e.desc.state_digest());
            h.update(&[e.non_swappable as u8]);
        }
        let mut culprits: Vec<&NodeId> = honest.blacklist().culprits().collect();
        culprits.sort_by_key(|c| *c.as_bytes());
        h.update(b"|");
        for c in culprits {
            h.update(c.as_bytes());
        }
    }
    h.finalize()
}

/// What one run of a workload measured.
pub struct SimRun {
    pub setup_s: f64,
    pub cycle_s: Vec<f64>,
    pub node_cycles: u64,
    pub honest_node_cycles: u64,
    pub cpu_s: f64,
    /// `VmHWM` at window end, in MiB: set-up and window only, not the
    /// unmeasured cycles an attack run adds until views clear, whose
    /// number varies with the seed.
    pub peak_rss_mb: f64,
    pub before: Totals,
    pub after: Totals,
    pub traffic_before: TrafficStats,
    pub traffic_after: TrafficStats,
    /// Cycles from attack start until honest views held no malicious link.
    pub clear_cycles: Option<u64>,
    pub malicious_links_end: usize,
    pub honest_blacklisted: bool,
    pub fingerprint: Digest,
    /// Spans and captured traffic of the window, when traced.
    pub trace: Option<(Vec<Span>, Capture)>,
}

impl SimRun {
    /// Alive-node turns per second of `run_cycle` wall time.
    pub fn node_cycles_per_s(&self) -> f64 {
        self.node_cycles as f64 / self.cycle_s.iter().sum::<f64>()
    }
}

/// Warm-up, then the measured window; `t0` is when set-up began.
fn run<N: Hosted>(
    w: &SimWorkload,
    engine: &mut Engine<N>,
    malicious: &HashSet<NodeId>,
    t0: Instant,
    traced: bool,
) -> SimRun {
    while engine.cycle() < w.window_start {
        engine.run_cycle();
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let before = totals(engine);
    let traffic_before = *engine.stats();
    let honest = before.honest;
    if traced {
        trace::start();
    }
    let cpu0 = procfs::self_cpu();
    let mut cycle_s = Vec::new();
    let mut node_cycles = 0u64;
    let attacked = w.n_malicious > 0;
    let mut clear_cycles = None;
    // Cycles since attack start until honest views first hold no
    // malicious link.
    let note_clear = |engine: &Engine<N>, clear: &mut Option<u64>, done: u64| {
        if attacked && clear.is_none() && malicious_links(engine, malicious) == 0 {
            *clear = Some(done);
        }
    };
    for done in 1..=w.window {
        node_cycles += engine.alive_count() as u64;
        let t = Instant::now();
        trace::span(kind::CYCLE, || engine.run_cycle());
        cycle_s.push(t.elapsed().as_secs_f64());
        note_clear(engine, &mut clear_cycles, done);
    }
    let cpu_s = (procfs::self_cpu() - cpu0).as_secs_f64();
    let peak_rss_mb = procfs::peak_rss_mb("self").unwrap_or(f64::NAN);
    let after = totals(engine);
    let traffic_after = *engine.stats();
    let trace = traced.then(trace::stop);
    let mut done = w.window;
    while attacked && clear_cycles.is_none() && done < w.clear_limit {
        engine.run_cycle();
        done += 1;
        note_clear(engine, &mut clear_cycles, done);
    }
    SimRun {
        setup_s,
        node_cycles,
        honest_node_cycles: honest * cycle_s.len() as u64,
        cycle_s,
        cpu_s,
        peak_rss_mb,
        before,
        after,
        traffic_before,
        traffic_after,
        trace,
        clear_cycles,
        malicious_links_end: malicious_links(engine, malicious),
        honest_blacklisted: honest_blacklisted(engine, malicious),
        fingerprint: fingerprint(engine),
    }
}

/// An untraced run on the network exactly as `sc-testkit` builds it.
pub fn untraced(w: &SimWorkload, seed: u64) -> SimRun {
    let t0 = Instant::now();
    let mut net = build_secure_network(w.params(seed));
    run(w, &mut net.engine, &net.malicious_ids, t0, false)
}

/// A traced run: the built network's nodes move, unchanged and before
/// any cycle ran, into an engine of [`Traced`] wrappers with the same
/// configuration, so the run replays the untraced one exactly.
pub fn traced(w: &SimWorkload, seed: u64) -> (SimRun, Vec<Span>, Capture) {
    let t0 = Instant::now();
    let mut net = build_secure_network(w.params(seed));
    let cfg = net.cfg;
    let mut engine: Engine<Traced> = Engine::new(SimConfig {
        seed,
        net: NetworkModel::reliable(),
        ticks_per_cycle: cfg.ticks_per_cycle,
        start_cycle: net.engine.cycle(),
        execution: Execution::Sequential,
    });
    let filler = Keypair::from_seed(Scheme::KeyedHash, [0; 32]);
    let filler_cfg = SecureConfig {
        verify_memo_capacity: 0,
        ..cfg
    };
    for addr in 0..net.engine.capacity() as Addr {
        let slot = net
            .engine
            .node_mut(addr)
            .expect("bootstrapped nodes are alive");
        let placeholder = SecureNet::Honest(Box::new(SecureCyclonNode::new(
            filler.clone(),
            addr,
            filler_cfg,
            [0; 32],
            0,
        )));
        let node = std::mem::replace(slot, placeholder);
        let moved = engine.spawn_with(|_| Traced(node));
        assert_eq!(moved, addr, "addresses carry over one to one");
    }
    let mut out = run(w, &mut engine, &net.malicious_ids, t0, true);
    let (spans, capture) = out.trace.take().expect("traced runs record a trace");
    (out, spans, capture)
}

/// End-to-end metrics of an untraced run.
pub fn report_e2e(run: &SimRun, r: &mut Report) {
    let d = delta(run);
    r.set("setup_s", run.setup_s);
    r.set("node_cycles_per_s", run.node_cycles_per_s());
    r.set(
        "cycle_ms_p50",
        median(&run.cycle_s).expect("windows are never empty") * 1e3,
    );
    r.set(
        "cpu_us_per_node_cycle",
        run.cpu_s * 1e6 / run.node_cycles as f64,
    );
    r.set("peak_rss_mb", run.peak_rss_mb);
    r.set(
        "exchange_ok_ratio",
        ratio(d.completed as f64, d.initiated as f64),
    );
    r.set(
        "paper_bytes_per_node_cycle",
        d.bytes_sent as f64 / run.honest_node_cycles as f64,
    );
}

/// Honest counters accumulated over the window.
fn delta(run: &SimRun) -> Totals {
    let (a, b) = (run.after, run.before);
    Totals {
        honest: a.honest,
        initiated: a.initiated - b.initiated,
        completed: a.completed - b.completed,
        refused: a.refused - b.refused,
        transfers_rejected: a.transfers_rejected - b.transfers_rejected,
        invalid: a.invalid - b.invalid,
        samples: a.samples - b.samples,
        proofs_generated: a.proofs_generated - b.proofs_generated,
        proofs_received: a.proofs_received - b.proofs_received,
        proofs_duplicate: a.proofs_duplicate - b.proofs_duplicate,
        proofs_invalid: a.proofs_invalid - b.proofs_invalid,
        bytes_sent: a.bytes_sent - b.bytes_sent,
        cache_entries: a.cache_entries,
        blacklist_entries: a.blacklist_entries,
    }
}

/// Share of the window's cache growth allowed before a steady-state
/// run counts as still warming up.
const MAX_CACHE_GROWTH: f64 = 0.02;

/// The workload's correctness gates.
pub fn gate(w: &SimWorkload, run: &SimRun, r: &mut Report) {
    let d = delta(run);
    r.attempted = run.node_cycles;
    if w.n_malicious == 0 {
        r.gate(
            run.after.proofs_generated + run.after.proofs_received == 0,
            "steady state generated or received violation proofs",
        );
        r.gate(
            run.after.blacklist_entries == 0,
            "steady state blacklisted a node",
        );
        r.gate(
            run.after.invalid == 0,
            "steady state saw invalid descriptors",
        );
        r.gate(
            d.initiated > 0 && d.completed == d.initiated,
            format!(
                "{} of {} exchanges failed",
                d.initiated - d.completed,
                d.initiated
            ),
        );
        let growth = cache_growth(run);
        r.gate(
            growth <= MAX_CACHE_GROWTH,
            format!(
                "sample cache still growing over the window ({:.1}%)",
                growth * 100.0
            ),
        );
    } else {
        r.gate(
            run.clear_cycles.is_some(),
            "honest views never cleared of malicious links",
        );
        r.gate(
            run.malicious_links_end == 0,
            "malicious links remain at window end",
        );
        r.gate(!run.honest_blacklisted, "an honest node was blacklisted");
    }
}

fn cache_growth(run: &SimRun) -> f64 {
    ratio(
        run.after.cache_entries as f64 - run.before.cache_entries as f64,
        run.before.cache_entries as f64,
    )
}

/// Per-layer metrics from a traced run's spans, counters, and capture.
pub fn report_layers(
    w: &SimWorkload,
    plain: &SimRun,
    run: &SimRun,
    spans: &[Span],
    capture: &Capture,
    r: &mut Report,
) {
    let nc = run.node_cycles as f64;
    let hnc = run.honest_node_cycles as f64;
    let d = delta(run);
    let (selfs, malformed) = self_times(spans);
    let mut self_us = [0.0f64; kind::COUNT];
    let mut durations: [Vec<f64>; kind::COUNT] = Default::default();
    for (s, own) in spans.iter().zip(&selfs) {
        self_us[s.kind as usize] += *own as f64 / 1e3;
        durations[s.kind as usize].push(s.dur as f64 / 1e3);
    }
    let total_us: f64 = durations[kind::CYCLE as usize].iter().sum();
    let pct = |k: u8, p: f64| percentile(&durations[k as usize], p).unwrap_or(0.0);

    r.set(
        "engine.self_us_per_node_cycle",
        self_us[kind::CYCLE as usize] / nc,
    );
    let t = &run.traffic_after;
    let t0 = &run.traffic_before;
    r.set(
        "engine.oneways_per_node_cycle",
        (t.oneways_sent - t0.oneways_sent) as f64 / nc,
    );
    r.set(
        "engine.rpcs_per_node_cycle",
        (t.rpcs_sent - t0.rpcs_sent) as f64 / nc,
    );
    r.set(
        "engine.rpc_reply_ratio",
        ratio(
            (t.rpcs_completed - t0.rpcs_completed) as f64,
            (t.rpcs_sent - t0.rpcs_sent) as f64,
        ),
    );

    r.set(
        "node.initiator_self_us_per_node_cycle",
        self_us[kind::TURN as usize] / hnc,
    );
    r.set(
        "node.responder_us_per_node_cycle",
        self_us[kind::RESPOND as usize] / hnc,
    );
    r.set("node.responder_us_p50", pct(kind::RESPOND, 50.0));
    r.set("node.responder_us_p99", pct(kind::RESPOND, 99.0));
    r.set("node.turn_us_p50", pct(kind::TURN, 50.0));
    r.set("node.turn_us_p99", pct(kind::TURN, 99.0));
    r.set(
        "node.oneway_us_per_node_cycle",
        self_us[kind::ONEWAY as usize] / hnc,
    );
    r.set("node.oneway_us_p99", pct(kind::ONEWAY, 99.0));
    r.set("node.samples_per_node_cycle", d.samples as f64 / hnc);
    r.set(
        "node.sample_cache_entries",
        run.after.cache_entries as f64 / run.after.honest as f64,
    );
    r.set("node.sample_cache_growth", cache_growth(run));
    r.set("node.refused_per_node_cycle", d.refused as f64 / hnc);
    r.set(
        "node.transfers_rejected_per_node_cycle",
        d.transfers_rejected as f64 / hnc,
    );
    r.set(
        "node.invalid_descriptors_per_node_cycle",
        d.invalid as f64 / hnc,
    );

    r.set(
        "proof.generated_per_node_cycle",
        d.proofs_generated as f64 / hnc,
    );
    r.set(
        "proof.received_per_node_cycle",
        d.proofs_received as f64 / hnc,
    );
    r.set(
        "proof.novel_ratio",
        ratio(
            d.proofs_received as f64,
            (d.proofs_received + d.proofs_duplicate + d.proofs_invalid) as f64,
        ),
    );

    if w.n_malicious > 0 {
        r.set(
            "attacks.us_per_node_cycle",
            self_us[kind::ATTACK as usize] / nc,
        );
        r.set("attacks.clear_cycles", run.clear_cycles.unwrap_or(0) as f64);
    }

    r.set(
        "wire.msgs_per_node_cycle",
        (capture.requests + capture.replies + capture.oneways) as f64 / nc,
    );

    // The layers' self times tile the cycle spans exactly; a gap means
    // spans overlapped or were mis-parented.
    let layer_sum: f64 = self_us.iter().sum();
    let gap = ratio((layer_sum - total_us).abs(), total_us);
    r.set("trace.self_time_gap_ratio", gap);
    r.gate(
        gap <= SELF_TIME_BOUND && malformed == 0,
        format!(
            "layer self times miss the cycle total by {:.3}%",
            gap * 100.0
        ),
    );
    r.set("trace.spans", spans.len() as f64);
    r.set(
        "trace.overhead_ratio",
        plain.node_cycles_per_s() / run.node_cycles_per_s() - 1.0,
    );
    r.gate(
        plain.fingerprint == run.fingerprint,
        "traced run diverged from the untraced run (views or blacklists differ)",
    );
}

/// Largest accepted gap between summed layer self times and summed
/// cycle wall time, as a share of the latter.
pub const SELF_TIME_BOUND: f64 = 0.01;

/// Replays captured traffic through the wire, descriptor, and crypto
/// layers.
pub fn report_replay(capture: &Capture, r: &mut Report) {
    let cfg = SecureConfig::default();
    let failures = replay::replay(
        &capture.msgs,
        cfg.ticks_per_cycle,
        cfg.verify_memo_capacity,
        r,
    );
    r.gate(
        !capture.msgs.is_empty() && failures == 0,
        format!("{failures} captured messages failed the wire or descriptor replay"),
    );
}
