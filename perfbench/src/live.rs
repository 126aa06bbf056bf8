//! The `live-durable` workload: eight `sc-node` processes with durable
//! state on loopback TCP, measured from outside — CPU clocks and
//! `/proc/<pid>` for the processes, `StatusReport` deltas for the
//! protocol and transport, and a single-connection control probe on an
//! open-loop schedule for latency.

use crate::metrics::Report;
use crate::procfs::{self, CpuClock};
use crate::stats::{median, percentile, ratio};
use sc_core::SecureStats;
use sc_node::transport::TransportStats;
use sc_node::{ControlClient, StatusReport, FRAME_HEADER_BYTES};
use sc_sim::Addr;
use sc_testkit::snapshot::NetSnapshot;
use std::net::{Ipv4Addr, SocketAddrV4, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Daemons in the cluster.
pub const NODES: usize = 8;
/// View length ℓ and swap length s.
pub const VIEW_LEN: usize = 6;
pub const SWAP_LEN: usize = 3;
/// Wall-clock gossip period.
const CYCLE_MS: u64 = 100;
/// Cycles between the first shared-clock cycle and the window.
const WARM_CYCLES: u64 = 10;
/// Time between spawning and the shared epoch.
const START_DELAY_MS: u64 = 400;
/// Cluster launches per run; set-up time is their median.
const SETUPS: usize = 5;
/// Control probes per second (open loop). At 100/s a window of 10 s or
/// more holds at least 1000 probes, the fewest that leave ten beyond the
/// 99th percentile.
const PROBES_PER_S: u64 = 100;
/// Settling time after the stop cycle before the window's CPU closes.
const SETTLE_MS: u64 = 300;
/// Length of the idle (post-stop linger) CPU measurement.
const IDLE_MS: u64 = 1000;
/// How long a stopped daemon lingers before exiting on its own — the
/// bound on how long daemons can outlive a benchmark killed mid-run.
const LINGER_MS: u64 = 10_000;
/// Per-operation control timeout.
const CTRL_TIMEOUT: Duration = Duration::from_millis(1000);

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn port_free(port: Addr) -> bool {
    TcpListener::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port as u16)).is_ok()
}

/// A contiguous block of free loopback ports, searched from the seed.
fn free_base(seed: u64, salt: u64) -> std::io::Result<Addr> {
    for attempt in 0..64u64 {
        let h = seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(std::process::id() as u64)
            .wrapping_add((salt * 64 + attempt).wrapping_mul(977));
        let base = 21_000 + (h % 40_000) as Addr;
        if (base..base + NODES as Addr).all(port_free) {
            return Ok(base);
        }
    }
    Err(std::io::Error::other("no free loopback port block"))
}

struct Member {
    addr: Addr,
    pid: u32,
    clock: CpuClock,
    child: Child,
}

/// A running cluster. Dropping it kills and reaps every daemon and
/// removes the state directory.
struct Cluster {
    members: Vec<Member>,
    dir: PathBuf,
    /// The shared epoch the daemons were given, as an `Instant`.
    epoch: Instant,
}

impl Cluster {
    fn launch(
        bin: &Path,
        seed: u64,
        dir: PathBuf,
        base: Addr,
        stop_cycle: u64,
    ) -> std::io::Result<Cluster> {
        std::fs::create_dir_all(&dir)?;
        let epoch_ms = unix_ms() + START_DELAY_MS;
        let mut cluster = Cluster {
            members: Vec::new(),
            dir,
            epoch: Instant::now() + Duration::from_millis(START_DELAY_MS),
        };
        for i in 0..NODES {
            let addr = base + i as Addr;
            let child = Command::new(bin)
                .args(["--addr", &addr.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--index", &i.to_string()])
                .args(["--cluster-size", &NODES.to_string()])
                .args(["--base-addr", &base.to_string()])
                .args(["--cycle-ms", &CYCLE_MS.to_string()])
                .args(["--epoch-millis", &epoch_ms.to_string()])
                .args(["--view-len", &VIEW_LEN.to_string()])
                .args(["--swap-len", &SWAP_LEN.to_string()])
                .args(["--scheme", "schnorr"])
                .args(["--stop-cycle", &stop_cycle.to_string()])
                .args(["--linger-ms", &LINGER_MS.to_string()])
                .arg("--state-dir")
                .arg(&cluster.dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            let pid = child.id();
            let clock = CpuClock::of(pid).ok_or_else(|| std::io::Error::other("no CPU clock"))?;
            cluster.members.push(Member {
                addr,
                pid,
                clock,
                child,
            });
        }
        Ok(cluster)
    }

    /// Start of shared-clock cycle `c` (cycle numbering starts at ℓ).
    fn cycle_start(&self, c: u64) -> Instant {
        self.epoch + Duration::from_millis((c - VIEW_LEN as u64) * CYCLE_MS)
    }

    fn cpu(&self) -> Vec<Duration> {
        self.members
            .iter()
            .map(|m| m.clock.read().unwrap_or_default())
            .collect()
    }

    fn user_sys(&self) -> (f64, f64) {
        self.members
            .iter()
            .filter_map(|m| procfs::user_sys(m.pid))
            .fold((0.0, 0.0), |(u, s), (du, ds)| (u + du, s + ds))
    }

    fn all_alive(&mut self) -> bool {
        self.members
            .iter_mut()
            .all(|m| matches!(m.child.try_wait(), Ok(None)))
    }

    /// Size of each daemon's durable log (`sc-node-<addr>.log`).
    fn log_sizes(&self) -> Vec<u64> {
        self.members
            .iter()
            .map(|m| {
                let log = self.dir.join(format!("sc-node-{}.log", m.addr));
                std::fs::metadata(log).map_or(0, |md| md.len())
            })
            .collect()
    }

    /// Polls until every daemon answers a status probe as joined.
    fn wait_joined(&self, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        let mut pending: Vec<Addr> = self.members.iter().map(|m| m.addr).collect();
        while Instant::now() < until {
            pending.retain(|&a| !status(a).is_some_and(|(r, _)| r.joined));
            if pending.is_empty() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        false
    }

    /// Asks every daemon to exit, reaping each; kills stragglers.
    fn shutdown(&mut self) {
        for m in &self.members {
            if let Ok(mut c) = ControlClient::connect(m.addr, CTRL_TIMEOUT) {
                let _ = c.shutdown();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for m in &mut self.members {
            loop {
                match m.child.try_wait() {
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    Ok(None) => {
                        let _ = m.child.kill();
                        let _ = m.child.wait();
                        break;
                    }
                    _ => break,
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for m in &mut self.members {
            let _ = m.child.kill();
            let _ = m.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One control round trip on a fresh connection: the report and the
/// framed size of the reply the daemon sent.
fn status(addr: Addr) -> Option<(StatusReport, u64)> {
    let mut client = ControlClient::connect(addr, CTRL_TIMEOUT).ok()?;
    let report = client.status(CTRL_TIMEOUT).ok()?;
    let bytes = (report.encode().len() + FRAME_HEADER_BYTES) as u64;
    Some((report, bytes))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Protocol and transport counters summed over the cluster.
#[derive(Clone, Copy, Default)]
struct Counters {
    stats: SecureStats,
    transport: TransportStats,
    cycles_run: u64,
    retransmits: u64,
    turns_skipped: u64,
    joined: usize,
    reports: usize,
}

fn sum(reports: &[StatusReport]) -> Counters {
    let mut c = Counters::default();
    for r in reports {
        let (s, t) = (&r.stats, &r.transport);
        c.stats.initiated += s.initiated;
        c.stats.completed += s.completed;
        c.stats.refused += s.refused;
        c.stats.transfers_rejected += s.transfers_rejected;
        c.stats.invalid_descriptors += s.invalid_descriptors;
        c.stats.samples_processed += s.samples_processed;
        c.stats.proofs_generated_cloning += s.proofs_generated_cloning;
        c.stats.proofs_generated_frequency += s.proofs_generated_frequency;
        c.stats.proofs_received += s.proofs_received;
        c.stats.proofs_duplicate += s.proofs_duplicate;
        c.stats.proofs_invalid += s.proofs_invalid;
        c.stats.bytes_sent += s.bytes_sent;
        c.transport.frames_out += t.frames_out;
        c.transport.bytes_out += t.bytes_out;
        c.transport.connect_failures += t.connect_failures;
        c.transport.peak_conns = c.transport.peak_conns.max(t.peak_conns);
        c.cycles_run += r.cycles_run;
        c.retransmits += r.retransmits;
        c.turns_skipped += r.turns_skipped;
        c.joined += r.joined as usize;
        c.reports += 1;
    }
    c
}

/// Scrapes every member once; the reply bytes are control traffic.
fn scrape(
    cluster: &Cluster,
    control_bytes: &mut u64,
    control_frames: &mut u64,
) -> Vec<StatusReport> {
    cluster
        .members
        .iter()
        .filter_map(|m| status(m.addr))
        .map(|(r, b)| {
            *control_bytes += b;
            *control_frames += 1;
            r
        })
        .collect()
}

/// Runs the workload; `dir` is a scratch directory inside the checkout.
pub fn run(bin: &Path, seed: u64, seconds: u64, dir: &Path, r: &mut Report) -> std::io::Result<()> {
    // Set-up: spawn, key generation, durable-state creation and ring
    // bootstrap, until every daemon answers as joined. Repeated; the
    // last launch is the measured cluster.
    let window = (seconds * 1000 / CYCLE_MS).max(10);
    let w0 = VIEW_LEN as u64 + WARM_CYCLES;
    let w1 = w0 + window;
    let mut setups = Vec::new();
    let mut cluster = None;
    for rep in 0..SETUPS {
        let base = free_base(seed, rep as u64)?;
        let t = Instant::now();
        let mut c = Cluster::launch(bin, seed, dir.join(format!("state-{rep}")), base, w1)?;
        let joined = c.wait_joined(Duration::from_secs(20));
        setups.push(t.elapsed().as_secs_f64());
        r.gate(joined, "a daemon never joined");
        if !joined {
            return Ok(());
        }
        if rep + 1 < SETUPS {
            c.shutdown();
        } else {
            cluster = Some(c);
        }
    }
    let mut cluster = cluster.expect("at least one launch");
    r.set("setup_s", median(&setups).expect("launched"));

    // Window start.
    let t_w0 = cluster.cycle_start(w0);
    r.gate(Instant::now() < t_w0, "set-up overran the warm-up cycles");
    sleep_until(t_w0);
    let cpu0 = cluster.cpu();
    let us0 = cluster.user_sys();
    let mut log_last = cluster.log_sizes();
    let mut log_growth = 0u64;
    let (mut ctrl_bytes, mut ctrl_frames) = (0u64, 0u64);
    let start = sum(&scrape(&cluster, &mut ctrl_bytes, &mut ctrl_frames));
    r.gate(
        start.joined == NODES,
        "not every daemon joined by the window start",
    );

    // Open-loop schedule: a probe every 1/PROBES_PER_S, and a CPU-clock
    // sample at every cycle boundary.
    let t_w1 = cluster.cycle_start(w1);
    let probe_gap = Duration::from_micros(1_000_000 / PROBES_PER_S);
    let mut next_probe = t_w0;
    let mut next_cycle = 1u64;
    let mut last_cpu: Duration = cpu0.iter().sum();
    let (mut rtt_ms, mut late_ms, mut cycle_cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = 0u64;
    let mut lost = 0u64;
    loop {
        let sample_at = cluster.cycle_start(w0 + next_cycle);
        if next_cycle <= window && sample_at <= next_probe {
            sleep_until(sample_at);
            let now: Duration = cluster.cpu().iter().sum();
            cycle_cpu_ms.push((now - last_cpu).as_secs_f64() * 1e3);
            last_cpu = now;
            // A log that shrank was compacted to one checkpoint record
            // this cycle: its new size is what was written.
            let logs = cluster.log_sizes();
            for (now, last) in logs.iter().zip(&log_last) {
                log_growth += if now >= last { now - last } else { *now };
            }
            log_last = logs;
            next_cycle += 1;
            continue;
        }
        if next_probe >= t_w1 {
            break;
        }
        let due = next_probe;
        sleep_until(due);
        late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let target = cluster.members[probes as usize % NODES].addr;
        probes += 1;
        match status(target) {
            Some((_, bytes)) => {
                rtt_ms.push(due.elapsed().as_secs_f64() * 1e3);
                ctrl_bytes += bytes;
                ctrl_frames += 1;
            }
            None => lost += 1,
        }
        next_probe += probe_gap;
    }

    // Window end: the daemons stop gossiping at w1; close the CPU
    // window once in-flight exchanges settled, then measure the idle
    // linger.
    sleep_until(t_w1 + Duration::from_millis(SETTLE_MS));
    let cpu1 = cluster.cpu();
    let us1 = cluster.user_sys();
    std::thread::sleep(Duration::from_millis(IDLE_MS));
    let cpu_idle = cluster.cpu();
    let alive = cluster.all_alive();
    let peak_rss: f64 = cluster
        .members
        .iter()
        .filter_map(|m| procfs::peak_rss_mb(&m.pid.to_string()))
        .sum();
    let (mut end_ctrl_bytes, mut end_ctrl_frames) = (0u64, 0u64);
    let reports = scrape(&cluster, &mut end_ctrl_bytes, &mut end_ctrl_frames);
    let end = sum(&reports);
    let final_ok = end.reports == NODES && {
        let snap = NetSnapshot::from_reports(reports);
        std::panic::catch_unwind(|| {
            sc_testkit::live::check_final(&snap, "live-durable", seed, VIEW_LEN, 0.85, "perfbench")
        })
        .is_ok()
    };
    cluster.shutdown();
    drop(cluster);

    r.attempted = probes;
    r.failed = lost;
    r.gate(alive, "a daemon exited during the run");
    r.gate(
        lost == 0,
        format!("{lost} of {probes} control probes went unanswered"),
    );
    r.gate(final_ok, "quiescent snapshot failed the oracle suite");
    r.gate(
        percentile(&rtt_ms, 99.0).is_some(),
        "too few probes for a 99th percentile",
    );

    let nc = (end.cycles_run - start.cycles_run) as f64;
    let window_s = window as f64 * CYCLE_MS as f64 / 1e3;
    let cpu_window: Duration = cpu1.iter().zip(&cpu0).map(|(a, b)| *a - *b).sum();
    let cpu_idle_s: f64 = cpu_idle
        .iter()
        .zip(&cpu1)
        .map(|(a, b)| (*a - *b).as_secs_f64())
        .sum();
    let paper = (end.stats.bytes_sent - start.stats.bytes_sent) as f64;
    let framed = (end.transport.bytes_out - start.transport.bytes_out) as f64 - ctrl_bytes as f64;
    let frames =
        (end.transport.frames_out - start.transport.frames_out) as f64 - ctrl_frames as f64;
    let (s0, s1) = (&start.stats, &end.stats);
    r.gate(
        framed > 0.0,
        "no gossip frames crossed the loopback transport",
    );

    r.set("node_cycles_per_s", nc / window_s);
    r.set("cycle_ms_p50", median(&cycle_cpu_ms).unwrap_or(f64::NAN));
    r.set("cpu_us_per_node_cycle", cpu_window.as_secs_f64() * 1e6 / nc);
    r.set("peak_rss_mb", peak_rss);
    r.set(
        "exchange_ok_ratio",
        ratio(
            (s1.completed - s0.completed) as f64,
            (s1.initiated - s0.initiated) as f64,
        ),
    );
    r.set("paper_bytes_per_node_cycle", paper / nc);

    r.set(
        "node.samples_per_node_cycle",
        (s1.samples_processed - s0.samples_processed) as f64 / nc,
    );
    r.set(
        "node.refused_per_node_cycle",
        (s1.refused - s0.refused) as f64 / nc,
    );
    r.set(
        "node.transfers_rejected_per_node_cycle",
        (s1.transfers_rejected - s0.transfers_rejected) as f64 / nc,
    );
    r.set(
        "node.invalid_descriptors_per_node_cycle",
        (s1.invalid_descriptors - s0.invalid_descriptors) as f64 / nc,
    );
    let generated = |s: &SecureStats| s.proofs_generated_cloning + s.proofs_generated_frequency;
    r.set(
        "proof.generated_per_node_cycle",
        (generated(s1) - generated(s0)) as f64 / nc,
    );
    let received = (s1.proofs_received - s0.proofs_received) as f64;
    r.set("proof.received_per_node_cycle", received / nc);
    let wasted =
        (s1.proofs_duplicate - s0.proofs_duplicate + s1.proofs_invalid - s0.proofs_invalid) as f64;
    r.set("proof.novel_ratio", ratio(received, received + wasted));

    r.set("storage.log_bytes_per_node_cycle", log_growth as f64 / nc);
    r.set(
        "daemon.user_cpu_us_per_node_cycle",
        (us1.0 - us0.0) * 1e6 / nc,
    );
    r.set(
        "daemon.sys_cpu_us_per_node_cycle",
        (us1.1 - us0.1) * 1e6 / nc,
    );
    r.set(
        "daemon.idle_cpu_ms_per_s",
        cpu_idle_s * 1e3 / (IDLE_MS as f64 / 1e3) / NODES as f64,
    );
    r.set(
        "daemon.retransmits_per_node_cycle",
        (end.retransmits - start.retransmits) as f64 / nc,
    );
    let skipped = (end.turns_skipped - start.turns_skipped) as f64;
    r.set("daemon.turn_miss_ratio", ratio(skipped, nc + skipped));
    r.set("transport.frames_per_node_cycle", frames / nc);
    r.set("transport.framed_bytes_per_node_cycle", framed / nc);
    r.set("transport.framed_to_paper_ratio", ratio(framed, paper));
    r.set("transport.peak_conns", end.transport.peak_conns as f64);
    r.set(
        "transport.connect_failures",
        (end.transport.connect_failures - start.transport.connect_failures) as f64,
    );
    r.set("probe.rtt_ms_p50", median(&rtt_ms).unwrap_or(f64::NAN));
    r.set("probe.rtt_ms_p99", percentile(&rtt_ms, 99.0).unwrap_or(0.0));
    r.set(
        "probe.generator_late_ms_p99",
        percentile(&late_ms, 99.0).unwrap_or(0.0),
    );
    eprintln!(
        "live-durable: {probes} probes, {} cycle samples, window cycles {w0}..{w1}, traffic crossed 127.0.0.1",
        cycle_cpu_ms.len()
    );
    Ok(())
}
