//! The event loop: a `SecureCyclonNode` on a real socket.
//!
//! Single-threaded by construction — the paper's node alternates between
//! one active gossip turn per cycle and passive request handling, and
//! one loop serves both:
//!
//! 1. A wall-clock shared across the cluster (`--epoch-millis`) maps
//!    real time to cycle numbers; each new cycle fires one active turn.
//! 2. A turn runs the node's explicit steps. `begin_turn` yields the
//!    exchange request; the loop sends it and keeps it as the one
//!    outstanding request (frame, deadline, resend schedule). The
//!    matching `Reply` frame feeds `on_exchange_reply`, and so does a
//!    passed deadline, as a timeout; each tit-for-tat round goes out the
//!    same way until the exchange ends, then `end_turn` yields the turn's
//!    one-way sends. No new turn fires while a request is outstanding.
//! 3. Every other frame is handled as it arrives, in a turn or between
//!    turns: passive RPCs, proof floods, §V-A join handshakes, and
//!    control-socket scrapes. A node waiting on its own partner still
//!    answers everyone else.
//!
//! Founding members compute the ring bootstrap locally from the shared
//! cluster seed — a zero-message legal bootstrap. Late joiners and
//! rejoiners enter through the sponsorship handshake
//! ([`FrameKind::JoinRequest`] / [`FrameKind::JoinGrant`]).

use crate::config::NodeConfig;
use crate::control::StatusReport;
use crate::fault::FaultTransport;
use crate::frame::{Frame, FrameKind};
use crate::transport::{ConnId, Inbound, TcpTransport, Transport};
use sc_core::wire;
use sc_core::{
    ring_bootstrap, FaultSpec, JoinGrantBody, SecureCyclonNode, SecureDescriptor, SecureMsg,
    ViolationProof,
};
use sc_crypto::{PublicKey, PUBLIC_KEY_LEN};
use sc_sim::{testkit::with_node_ctx, Addr};
use std::collections::VecDeque;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Outcome of a completed daemon run, for the binary's exit report.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Gossip cycles fired.
    pub cycles_run: u64,
    /// Wall-clock seconds the run loop was live.
    pub elapsed_secs: f64,
    /// Final protocol counters.
    pub stats: sc_core::SecureStats,
    /// Final transport counters.
    pub transport: crate::transport::TransportStats,
}

/// Cap on cached replies served to retransmitted requests.
const REPLY_CACHE_CAP: usize = 32;

/// The exchange message awaiting its reply.
struct Outstanding {
    /// Cycle of the turn the exchange belongs to.
    cycle: u64,
    to: Addr,
    /// The request frame; a retransmission resends it byte for byte.
    frame: Frame,
    deadline: Instant,
    next_resend: Instant,
    resends_left: u32,
}

/// A running SecureCyclon daemon.
pub struct Daemon {
    cfg: NodeConfig,
    node: SecureCyclonNode,
    transport: FaultTransport<TcpTransport>,
    joined: bool,
    start_cycle: u64,
    epoch_ms: u64,
    last_fired: Option<u64>,
    last_join_attempt: Option<u64>,
    /// Join requests awaiting the next turn boundary. Granting is
    /// deferred so `sponsor_join` spends a cycle's fresh-descriptor
    /// budget *before* that cycle's turn runs — a grant after the turn
    /// would be a second creation within one period, i.e. the sponsor
    /// would hand out a provable frequency violation against itself.
    pending_joins: VecDeque<(ConnId, PublicKey)>,
    next_req_id: u32,
    outstanding: Option<Outstanding>,
    cycles_run: u64,
    shutdown: bool,
    /// A `CtrlFault` spec awaiting its cycle boundary, with the cycle it
    /// arrived in: applying only once the clock moves past that cycle
    /// keeps every cycle under exactly one spec.
    pending_fault: Option<(FaultSpec, u64)>,
    /// Replies to recent requests, keyed `(from, req_id, request
    /// payload)`, so a retransmitted request is answered byte-for-byte
    /// without re-running the protocol handler (idempotence).
    reply_cache: VecDeque<(Addr, u32, Vec<u8>, Vec<u8>)>,
    /// RPC request frames retransmitted inside their deadline.
    retransmits: u64,
    /// Turn deadlines that passed unfired (fell behind the shared clock).
    turns_skipped: u64,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Daemon {
    /// Binds the socket and installs the bootstrap state.
    ///
    /// Founding members (`sponsor == None`, `index < cluster_size`)
    /// derive every ring keypair from the cluster seed and keep their
    /// slice of the §V-A-legal ring bootstrap; sponsored joiners start
    /// with an empty view and acquire their first descriptor through the
    /// join handshake once the loop runs.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures and `--state-dir` I/O failures.
    pub fn new(cfg: NodeConfig) -> std::io::Result<Daemon> {
        let node = match &cfg.state_dir {
            Some(dir) => {
                let path = dir.join(format!("sc-node-{}.log", cfg.addr));
                let backend = Box::new(sc_core::FileBackend::open(path)?);
                SecureCyclonNode::with_backend(
                    cfg.keypair(),
                    cfg.addr,
                    cfg.secure,
                    cfg.rng_seed(),
                    cfg.phase(),
                    backend,
                )?
            }
            None => SecureCyclonNode::new(
                cfg.keypair(),
                cfg.addr,
                cfg.secure,
                cfg.rng_seed(),
                cfg.phase(),
            ),
        };
        // Anything recovered from the durable log means a previous life
        // already ran: re-installing the ring slice would re-insert
        // descriptors that may have been signed away since — self-made
        // cloning evidence. The frequency half of the same guard is the
        // recovered emission marker (`last_emission`).
        let recovered = !node.view().is_empty() || node.last_emission().is_some();
        let tcp = TcpTransport::bind(cfg.addr, cfg.connect_timeout, cfg.max_frame_bytes)?;
        let transport = FaultTransport::new(tcp, cfg.fault_spec.clone());
        let start_cycle = cfg.secure.view_len as u64;
        let epoch_ms = if cfg.epoch_millis == 0 {
            unix_ms()
        } else {
            cfg.epoch_millis
        };
        let mut daemon = Daemon {
            node,
            transport,
            joined: false,
            start_cycle,
            epoch_ms,
            last_fired: None,
            last_join_attempt: None,
            pending_joins: VecDeque::new(),
            next_req_id: 1,
            outstanding: None,
            cycles_run: 0,
            shutdown: false,
            pending_fault: None,
            reply_cache: VecDeque::new(),
            retransmits: 0,
            turns_skipped: 0,
            cfg,
        };
        if recovered {
            daemon.joined = !daemon.node.view().is_empty();
            // Founding members recompute start_cycle the same way the
            // ring plan does, so cycle numbers stay stable across lives.
            daemon.last_fired = daemon.node.last_emission();
        } else if daemon.cfg.sponsor.is_none() {
            daemon.install_ring_slice();
        }
        Ok(daemon)
    }

    /// Computes the shared ring bootstrap and keeps this node's slice.
    fn install_ring_slice(&mut self) {
        let n = self.cfg.cluster_size;
        assert!(
            self.cfg.index < n,
            "founding member index {} outside cluster of {n}",
            self.cfg.index
        );
        let tpc = self.cfg.secure.ticks_per_cycle;
        let keypairs: Vec<_> = (0..n).map(|i| self.cfg.keypair_for(i)).collect();
        let addrs: Vec<Addr> = (0..n).map(|i| self.cfg.base_addr + i as Addr).collect();
        let phases: Vec<u64> = (0..n).map(|i| sc_core::default_phase(i, tpc)).collect();
        let plan = ring_bootstrap(&keypairs, &addrs, &phases, self.cfg.secure.view_len, tpc);
        self.start_cycle = plan.start_cycle;
        let mine = plan.per_node.into_iter().nth(self.cfg.index).unwrap();
        for desc in mine {
            self.node.accept_bootstrap(desc);
        }
        self.joined = true;
    }

    /// The cycle number the shared wall clock currently maps to.
    fn current_cycle(&self) -> u64 {
        let elapsed = unix_ms().saturating_sub(self.epoch_ms);
        self.start_cycle + elapsed / self.cfg.cycle_ms
    }

    /// The latest cycle whose *turn point* has passed. Turns fire at
    /// `boundary + phase·cycle_ms/tpc` — the wall-clock image of the
    /// engine's per-node phase stagger — so initiations spread across the
    /// cycle instead of colliding at every boundary.
    fn due_turn_cycle(&self) -> Option<u64> {
        let elapsed = unix_ms().saturating_sub(self.epoch_ms);
        let phase_ms = self.cfg.phase() * self.cfg.cycle_ms / self.cfg.secure.ticks_per_cycle;
        if elapsed < phase_ms {
            return None;
        }
        Some(self.start_cycle + (elapsed - phase_ms) / self.cfg.cycle_ms)
    }

    /// Engine-convention tick for a cycle (the tick the cycle starts at).
    fn now_ticks(&self, cycle: u64) -> u64 {
        cycle * self.cfg.secure.ticks_per_cycle
    }

    /// Runs until `--run-cycles` completes or a shutdown frame arrives.
    ///
    /// With `--stop-cycle n`, the daemon stops *firing* turns once the
    /// shared clock reaches cycle `n` but lingers serving passive RPCs
    /// and control scrapes (up to `--linger-ms`): every member of a
    /// cluster stops at the same boundary, so a harness can scrape a
    /// quiescent network — no descriptor is ever in flight between two
    /// scrapes — before shutting the processes down. Both exits, and
    /// every fault-spec change, wait for an outstanding exchange to end.
    pub fn run(&mut self) -> RunSummary {
        let started = Instant::now();
        let mut stopped_at: Option<Instant> = None;
        while !self.shutdown {
            self.poll_exchange();
            if self.outstanding.is_none() && !self.between_turns(&mut stopped_at) {
                break;
            }
            if let Some(ib) = self.transport.recv(Duration::from_millis(2)) {
                self.handle(ib);
            }
        }
        RunSummary {
            cycles_run: self.cycles_run,
            elapsed_secs: started.elapsed().as_secs_f64(),
            stats: self.node.stats(),
            transport: self.transport.stats(),
        }
    }

    /// The loop's work while no exchange is outstanding: exits, fault-spec
    /// changes, joining, and the next due turn. `false` ends the run.
    fn between_turns(&mut self, stopped_at: &mut Option<Instant>) -> bool {
        if self.cfg.run_cycles > 0 && self.cycles_run >= self.cfg.run_cycles {
            return false;
        }
        self.apply_pending_fault();
        if self.cfg.stop_cycle > 0 && self.current_cycle() >= self.cfg.stop_cycle {
            let since = *stopped_at.get_or_insert_with(Instant::now);
            return since.elapsed() < Duration::from_millis(self.cfg.linger_ms);
        }
        if !self.joined {
            self.try_join(self.current_cycle());
            return true;
        }
        let due = self.due_turn_cycle();
        let Some(due) = due.filter(|&d| self.last_fired.is_none_or(|c| d > c)) else {
            return true;
        };
        if let Some(last) = self.last_fired {
            // §IV-B allows one emission per period — a node that fell
            // behind the shared clock (or was cut off by a partition)
            // never back-fills missed turns, it just counts them.
            self.turns_skipped += due - last - 1;
        }
        self.grant_pending_join(due);
        self.last_fired = Some(due);
        let first = self.node.begin_turn(due, self.now_ticks(due));
        self.advance(due, first);
        true
    }

    /// Installs a pending `CtrlFault` spec once the clock leaves the
    /// cycle it arrived in, so no cycle straddles two specs.
    fn apply_pending_fault(&mut self) {
        if let Some((_, rx_cycle)) = &self.pending_fault {
            if self.current_cycle() > *rx_cycle {
                let (spec, _) = self.pending_fault.take().unwrap();
                self.transport.set_spec(spec);
            }
        }
    }

    /// Sends the exchange's next message and leaves it outstanding, or
    /// closes the turn for `cycle` once the node has nothing more to send.
    /// A message that cannot be handed to the OS counts as a timeout.
    fn advance(&mut self, cycle: u64, mut next: Option<(Addr, SecureMsg)>) {
        while let Some((to, msg)) = next {
            let mut frame = Frame::new(FrameKind::Request, self.cfg.addr, encode(&msg));
            frame.req_id = self.next_req_id;
            self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
            if self.transport.send_to(to, &frame) {
                let now = Instant::now();
                self.outstanding = Some(Outstanding {
                    cycle,
                    to,
                    frame,
                    deadline: now + self.cfg.rpc_timeout,
                    next_resend: now + self.resend_slice(),
                    resends_left: self.cfg.rpc_retransmits,
                });
                return;
            }
            next = self.node.on_exchange_reply(None);
        }
        let sends = self.node.end_turn(cycle);
        self.send_oneways(sends);
        self.cycles_run += 1;
    }

    /// Times out or retransmits the outstanding request. The deadline
    /// splits into retransmit slices: an unanswered request is resent
    /// byte-identically (same req_id, same descriptor) at each slice
    /// boundary. Never a re-emission — the §IV-B frequency rule forbids a
    /// second descriptor per period — and the responder's reply cache
    /// keeps duplicates idempotent.
    fn poll_exchange(&mut self) {
        let slice = self.resend_slice();
        let Some(out) = self.outstanding.as_mut() else {
            return;
        };
        let now = Instant::now();
        if now >= out.deadline {
            let cycle = out.cycle;
            self.outstanding = None;
            let next = self.node.on_exchange_reply(None);
            self.advance(cycle, next);
        } else if out.resends_left > 0 && now >= out.next_resend {
            out.resends_left -= 1;
            out.next_resend = now + slice;
            if self.transport.send_to(out.to, &out.frame) {
                self.retransmits += 1;
            }
        }
    }

    /// Time between retransmissions of an unanswered request.
    fn resend_slice(&self) -> Duration {
        self.cfg.rpc_timeout / (self.cfg.rpc_retransmits + 1)
    }

    /// Sends (at most once per cycle) a join request to the sponsor.
    fn try_join(&mut self, cycle: u64) {
        let Some(sponsor) = self.cfg.sponsor else {
            return;
        };
        if self.last_join_attempt == Some(cycle) {
            return;
        }
        self.last_join_attempt = Some(cycle);
        let payload = self.node.id().as_bytes().to_vec();
        let frame = Frame::new(FrameKind::JoinRequest, self.cfg.addr, payload);
        self.transport.send_to(sponsor, &frame);
    }

    /// Grants at most one queued sponsorship, called right before the
    /// turn for `cycle` fires: `sponsor_join` marks the cycle's
    /// fresh-descriptor budget spent, so the turn skips initiating and
    /// the sponsor stays frequency-legal (one creation per period).
    fn grant_pending_join(&mut self, cycle: u64) {
        let Some((conn, joiner)) = self.pending_joins.pop_front() else {
            return;
        };
        let now = self.now_ticks(cycle);
        let Some(desc) = self.node.sponsor_join(joiner, cycle, now) else {
            return; // budget already spent; joiner retries
        };
        let proofs = self.node.export_proofs();
        let payload = encode_join_grant(desc, &proofs, &self.cfg.wire_limits);
        let f = Frame::new(FrameKind::JoinGrant, self.cfg.addr, payload);
        self.transport.respond(conn, &f);
    }

    /// Dispatches one inbound frame.
    fn handle(&mut self, ib: Inbound) {
        let cycle = self.current_cycle();
        let period = self.cfg.secure.ticks_per_cycle;
        match ib.frame.kind {
            FrameKind::Request => {
                let from = ib.frame.from;
                // A retransmitted request (same initiator, same req_id,
                // byte-identical payload) gets the cached reply: running
                // the handler twice would double-apply the exchange.
                if ib.frame.req_id != 0 {
                    if let Some((_, _, _, cached)) = self.reply_cache.iter().find(|(a, r, p, _)| {
                        *a == from && *r == ib.frame.req_id && *p == ib.frame.payload
                    }) {
                        let mut f = Frame::new(FrameKind::Reply, self.cfg.addr, cached.clone());
                        f.req_id = ib.frame.req_id;
                        self.transport.respond(ib.conn, &f);
                        return;
                    }
                }
                let Ok(msg) =
                    wire::decode_message_with(&ib.frame.payload, period, &self.cfg.wire_limits)
                else {
                    return;
                };
                let reply = if self.joined {
                    let (reply, floods) = with_node_ctx(cycle, period, self.cfg.addr, |ctx| {
                        self.node.on_rpc_any(from, msg, ctx)
                    });
                    self.send_oneways(floods);
                    reply
                } else {
                    None
                };
                // An explicit empty reply lets the initiator observe
                // "no answer" without waiting out its RPC timeout.
                let payload = reply.as_ref().map_or_else(Vec::new, encode);
                if ib.frame.req_id != 0 {
                    if self.reply_cache.len() >= REPLY_CACHE_CAP {
                        self.reply_cache.pop_front();
                    }
                    self.reply_cache.push_back((
                        from,
                        ib.frame.req_id,
                        ib.frame.payload.clone(),
                        payload.clone(),
                    ));
                }
                let mut f = Frame::new(FrameKind::Reply, self.cfg.addr, payload);
                f.req_id = ib.frame.req_id;
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::Oneway => {
                let Ok(msg) =
                    wire::decode_message_with(&ib.frame.payload, period, &self.cfg.wire_limits)
                else {
                    return;
                };
                let ((), floods) = with_node_ctx(cycle, period, self.cfg.addr, |ctx| {
                    self.node.on_oneway_any(ib.frame.from, msg, ctx)
                });
                self.send_oneways(floods);
            }
            FrameKind::JoinRequest => {
                if ib.frame.payload.len() != PUBLIC_KEY_LEN {
                    return;
                }
                let mut key = [0u8; PUBLIC_KEY_LEN];
                key.copy_from_slice(&ib.frame.payload);
                let Some(joiner) = PublicKey::from_bytes(key) else {
                    return;
                };
                if !self.joined {
                    return;
                }
                // Queue for the next turn boundary; the joiner retries
                // each cycle, so drop duplicate keys instead of stacking
                // grants for one joiner.
                if !self.pending_joins.iter().any(|(_, k)| *k == joiner) {
                    self.pending_joins.push_back((ib.conn, joiner));
                }
            }
            FrameKind::JoinGrant => {
                if self.joined {
                    return;
                }
                if let Some((desc, proofs)) =
                    decode_join_grant(&ib.frame.payload, period, &self.cfg.wire_limits)
                {
                    if self.node.accept_sponsorship(desc, cycle) {
                        self.node.import_proofs(proofs, cycle);
                        self.joined = true;
                        // Gossip starts next cycle; never replay the one
                        // the sponsor spent its budget on.
                        self.last_fired = Some(cycle);
                    }
                }
            }
            FrameKind::CtrlStatus => {
                let report = self.status_report(cycle);
                let f = Frame::new(FrameKind::CtrlStatusReply, self.cfg.addr, report.encode());
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::CtrlShutdown => {
                self.shutdown = true;
            }
            FrameKind::CtrlFault => {
                let Ok((spec, _)) = FaultSpec::decode(&ib.frame.payload) else {
                    return; // malformed spec: no ack, client times out
                };
                self.pending_fault = Some((spec, cycle));
                let mut f = Frame::new(FrameKind::CtrlFaultReply, self.cfg.addr, Vec::new());
                f.req_id = ib.frame.req_id;
                self.transport.respond(ib.conn, &f);
            }
            FrameKind::Reply => {
                // Stale replies (their request already timed out) are
                // dropped. An empty payload is the responder's explicit
                // "no answer" and, like an undecodable one, a timeout.
                let req_id = ib.frame.req_id;
                let Some(out) = self.outstanding.take_if(|o| o.frame.req_id == req_id) else {
                    return;
                };
                let reply =
                    wire::decode_message_with(&ib.frame.payload, period, &self.cfg.wire_limits)
                        .ok();
                let next = self.node.on_exchange_reply(reply);
                self.advance(out.cycle, next);
            }
            FrameKind::CtrlStatusReply | FrameKind::CtrlFaultReply => {
                // Misdirected control traffic is dropped.
            }
        }
    }

    /// Sends one-way messages (proof floods, rejoin pings) as frames.
    fn send_oneways(&mut self, msgs: Vec<(Addr, SecureMsg)>) {
        for (to, msg) in msgs {
            let f = Frame::new(FrameKind::Oneway, self.cfg.addr, encode(&msg));
            self.transport.send_to(to, &f);
        }
    }

    /// Snapshot of the node's oracle-relevant state.
    fn status_report(&self, cycle: u64) -> StatusReport {
        StatusReport {
            addr: self.cfg.addr,
            id: self.node.id(),
            cycle,
            joined: self.joined,
            cycles_run: self.cycles_run,
            view: self
                .node
                .view()
                .iter()
                .map(|e| (e.desc.clone(), e.non_swappable))
                .collect(),
            reserve: self.node.reserve().cloned().collect(),
            blacklist: self.node.blacklist().culprits().copied().collect(),
            redemptions: self.node.redemption_count(),
            stats: self.node.stats(),
            transport: self.transport.stats(),
            retransmits: self.retransmits,
            turns_skipped: self.turns_skipped,
        }
    }
}

/// Encodes a protocol message as a frame payload.
fn encode(msg: &SecureMsg) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_message(msg, &mut out);
    out
}

/// Builds a join grant: the in-protocol [`SecureMsg::JoinGrant`] with at
/// most [`wire::WireLimits::max_proofs`] proofs, newest first, so a
/// sponsor holding more still admits joiners and the count never wraps.
fn encode_join_grant(
    descriptor: SecureDescriptor,
    proofs: &[ViolationProof],
    limits: &wire::WireLimits,
) -> Vec<u8> {
    let newest = proofs.iter().rev().take(limits.max_proofs);
    let proofs = newest.cloned().collect();
    encode(&SecureMsg::JoinGrant(Box::new(JoinGrantBody {
        descriptor,
        proofs,
    })))
}

/// Parses a join grant built by [`encode_join_grant`].
fn decode_join_grant(
    buf: &[u8],
    period: u64,
    limits: &wire::WireLimits,
) -> Option<(SecureDescriptor, Vec<ViolationProof>)> {
    match wire::decode_message_with(buf, period, limits) {
        Ok(SecureMsg::JoinGrant(body)) => Some((body.descriptor, body.proofs)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::Timestamp;
    use sc_crypto::{Keypair, Scheme};

    #[test]
    fn join_grant_keeps_the_newest_proofs_within_the_decode_cap() {
        const PERIOD: u64 = 1_000;
        let culprit = Keypair::from_seed(Scheme::KeyedHash, [7; 32]);
        let at = |t| SecureDescriptor::create(&culprit, 1, Timestamp(t));
        let limits = wire::WireLimits::DEFAULT;
        let proofs: Vec<ViolationProof> = (0..=limits.max_proofs as u64)
            .map(|i| {
                let t = i * 10 * PERIOD;
                ViolationProof::frequency(at(t), at(t + PERIOD / 2), PERIOD).unwrap()
            })
            .collect();
        let desc = at(0);
        let buf = encode_join_grant(desc.clone(), &proofs, &limits);
        let (got_desc, got) = decode_join_grant(&buf, PERIOD, &limits).expect("grant decodes");
        assert_eq!(got_desc, desc);
        assert_eq!(got.len(), limits.max_proofs);
        // Newest first; the oldest proof is the one left out.
        assert_eq!(got[0], proofs[1024]);
        assert_eq!(got[1023], proofs[1]);
    }
}
