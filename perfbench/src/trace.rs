//! The traced run's instrumentation, kept entirely in the benchmark:
//! a [`Traced`] wrapper node that records a span around every `SimNode`
//! callback, a cycle span around every `Engine::run_cycle`, and a
//! sampled capture of the messages crossing those boundaries for the
//! wire and descriptor replays.
//!
//! Spans live in a thread-local buffer (the engine runs sequentially on
//! this thread) and are written out once, when the run ends.

use crate::stats::{Span, NO_PARENT};
use sc_core::SecureMsg;
use sc_sim::{Addr, CycleCtx, NodeCtx, SimNode};
use sc_testkit::net::SecureNet;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span kinds: the layer boundary a span was recorded at.
pub mod kind {
    /// `Engine::run_cycle`.
    pub const CYCLE: u8 = 0;
    /// An honest node's `on_cycle` (initiator turn).
    pub const TURN: u8 = 1;
    /// An honest node's `on_rpc` (responder).
    pub const RESPOND: u8 = 2;
    /// An honest node's `on_oneway` (proof flood intake).
    pub const ONEWAY: u8 = 3;
    /// Any callback of a malicious node.
    pub const ATTACK: u8 = 4;
    /// Number of kinds.
    pub const COUNT: usize = 5;
}

/// One RPC request in this many is captured for replay.
const RPC_SAMPLE_EVERY: u64 = 16;
/// One one-way message in this many is captured for replay.
const ONEWAY_SAMPLE_EVERY: u64 = 64;
/// Upper bound on captured messages.
const CAPTURE_CAP: usize = 6000;

/// Message counts at the node boundary, and the sampled capture.
#[derive(Default)]
pub struct Capture {
    /// RPC requests handed to a node.
    pub requests: u64,
    /// RPC replies a node returned.
    pub replies: u64,
    /// One-way messages handed to a node.
    pub oneways: u64,
    /// Sampled messages, in delivery order.
    pub msgs: Vec<SecureMsg>,
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    capture: Capture,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        capture: Capture::default(),
    });
}

/// Starts recording spans and capturing messages.
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.origin = Instant::now();
        t.spans.clear();
        t.open.clear();
        t.capture = Capture::default();
    });
}

/// Stops recording and hands back the spans and the capture.
pub fn stop() -> (Vec<Span>, Capture) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = false;
        assert!(t.open.is_empty(), "a span was left open");
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.capture))
    })
}

/// Runs `f` inside a span of `kind` (a no-op wrapper while stopped).
pub fn span<R>(kind: u8, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let idx = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let start = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            kind,
            parent,
            start,
            dur: 0,
        });
        t.open.push(idx);
        true
    });
    let out = f();
    if opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.origin.elapsed().as_nanos() as u64;
            let idx = t.open.pop().expect("span stack underflow") as usize;
            let span = &mut t.spans[idx];
            span.dur = u32::try_from(end - span.start).unwrap_or(u32::MAX);
        });
    }
    out
}

/// Counts an RPC request; returns whether to capture it.
fn sample_rpc() -> bool {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let c = &mut t.capture;
        c.requests += 1;
        c.requests % RPC_SAMPLE_EVERY == 0 && c.msgs.len() + 2 <= CAPTURE_CAP
    })
}

/// Counts an RPC reply and stores a captured request/reply pair.
fn note_reply(request: Option<SecureMsg>, reply: Option<&SecureMsg>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let c = &mut t.capture;
        c.replies += reply.is_some() as u64;
        if let Some(request) = request {
            c.msgs.push(request);
            c.msgs.extend(reply.cloned());
        }
    });
}

fn note_oneway(msg: &SecureMsg) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let c = &mut t.capture;
        c.oneways += 1;
        if c.oneways % ONEWAY_SAMPLE_EVERY == 0 && c.msgs.len() < CAPTURE_CAP {
            c.msgs.push(msg.clone());
        }
    });
}

/// Writes spans as little-endian 17-byte records:
/// `start_ns: u64, dur_ns: u32, parent: u32, kind: u8`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        out.write_all(&s.start.to_le_bytes())?;
        out.write_all(&s.dur.to_le_bytes())?;
        out.write_all(&s.parent.to_le_bytes())?;
        out.write_all(&[s.kind])?;
    }
    out.flush()
}

/// A mixed-network node whose callbacks are spanned. Dispatch mirrors
/// `SecureNet`'s own `SimNode` impl exactly (malicious nodes drop
/// one-ways), so a traced run replays the untraced one bit for bit.
pub struct Traced(pub SecureNet);

impl SimNode for Traced {
    type Msg = SecureMsg;

    fn on_cycle(&mut self, ctx: &mut CycleCtx<'_, Self>) {
        match &mut self.0 {
            SecureNet::Honest(n) => span(kind::TURN, || n.on_cycle_any(ctx)),
            SecureNet::Malicious(n) => span(kind::ATTACK, || n.on_cycle_any(ctx)),
        }
    }

    fn on_rpc(
        &mut self,
        from: Addr,
        msg: SecureMsg,
        ctx: &mut NodeCtx<'_, SecureMsg>,
    ) -> Option<SecureMsg> {
        let copy = sample_rpc().then(|| msg.clone());
        let reply = match &mut self.0 {
            SecureNet::Honest(n) => span(kind::RESPOND, || n.on_rpc_any(from, msg, ctx)),
            SecureNet::Malicious(n) => span(kind::ATTACK, || n.on_rpc_any(from, msg, ctx)),
        };
        note_reply(copy, reply.as_ref());
        reply
    }

    fn on_oneway(&mut self, from: Addr, msg: SecureMsg, ctx: &mut NodeCtx<'_, SecureMsg>) {
        note_oneway(&msg);
        match &mut self.0 {
            SecureNet::Honest(n) => span(kind::ONEWAY, || n.on_oneway_any(from, msg, ctx)),
            SecureNet::Malicious(_) => span(kind::ATTACK, || ()),
        }
    }
}
