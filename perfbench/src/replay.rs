//! Wire, descriptor, and crypto layers replayed on traffic captured
//! during a traced run, timed outside every node span.

use crate::metrics::Report;
use sc_core::{wire, SecureDescriptor, SecureMsg, VerifyMemo};
use sc_crypto::{verify_batch, Keypair, Scheme};
use std::time::{Duration, Instant};

/// Minimum timed duration of one replay loop.
const MIN_TIMED: Duration = Duration::from_millis(150);

/// Runs `f` over `items` until at least [`MIN_TIMED`] has elapsed;
/// returns microseconds per item.
fn time_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut done = 0u64;
    while done == 0 || start.elapsed() < MIN_TIMED {
        for item in items {
            f(item);
        }
        done += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / done as f64
}

/// The descriptors a message carries (owned transfers and samples).
fn descriptors(msg: &SecureMsg) -> Vec<&SecureDescriptor> {
    match msg {
        SecureMsg::Request(b) => std::iter::once(&b.redeemed)
            .chain(std::iter::once(&b.fresh))
            .chain(&b.offered)
            .chain(&b.samples)
            .collect(),
        SecureMsg::Accept(b) => b.transfers.iter().chain(&b.samples).collect(),
        SecureMsg::Round(b) => vec![&b.transfer],
        SecureMsg::RoundReply(b) => b.transfer.iter().collect(),
        SecureMsg::JoinGrant(b) => vec![&b.descriptor],
        SecureMsg::Proof(p) => {
            let (a, b) = p.evidence();
            vec![a, b]
        }
        SecureMsg::JoinPing(_) => Vec::new(),
    }
}

/// Replays the wire codec and cold descriptor verification over `msgs`,
/// then times the crypto primitives at the observed batch size.
/// Returns the number of messages that failed to round-trip or verify.
pub fn replay(
    msgs: &[SecureMsg],
    ticks_per_cycle: u64,
    memo_capacity: usize,
    r: &mut Report,
) -> u64 {
    let mut failures = 0u64;

    // Wire: encode, then decode, every captured message.
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut buf = Vec::new();
            wire::encode_message(m, &mut buf);
            buf
        })
        .collect();
    let mut scratch = Vec::with_capacity(64 * 1024);
    r.set(
        "wire.encode_us_per_msg",
        time_per_item(msgs, |m| {
            scratch.clear();
            wire::encode_message(m, &mut scratch);
            std::hint::black_box(&scratch);
        }),
    );
    for bytes in &encoded {
        let mut again = Vec::new();
        // A decode error leaves `again` empty, which counts below.
        if let Ok(back) = wire::decode_message(bytes, ticks_per_cycle) {
            wire::encode_message(&back, &mut again);
        }
        failures += (again != *bytes) as u64;
    }
    r.set(
        "wire.decode_us_per_msg",
        time_per_item(&encoded, |b| {
            std::hint::black_box(wire::decode_message(b, ticks_per_cycle).ok());
        }),
    );
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    r.set(
        "wire.bytes_per_msg",
        bytes as f64 / msgs.len().max(1) as f64,
    );

    // Descriptors: cold batched verification, one fresh memo per message.
    let per_msg: Vec<Vec<&SecureDescriptor>> = msgs.iter().map(descriptors).collect();
    let descs: usize = per_msg.iter().map(Vec::len).sum();
    let links: usize = per_msg.iter().flatten().map(|d| d.chain().len()).sum();
    let sigs: usize = per_msg.iter().flatten().map(|d| d.chain().len() + 1).sum();
    r.set(
        "descriptor.per_msg",
        descs as f64 / msgs.len().max(1) as f64,
    );
    r.set("descriptor.links_mean", links as f64 / descs.max(1) as f64);
    for batch in &per_msg {
        let mut memo = VerifyMemo::new(memo_capacity);
        let verdicts = SecureDescriptor::verify_batch_with(batch, &mut memo);
        failures += verdicts.iter().any(|v| v.is_err()) as u64;
    }
    let with_descs: Vec<&Vec<&SecureDescriptor>> =
        per_msg.iter().filter(|b| !b.is_empty()).collect();
    r.set(
        "descriptor.verify_cold_us_per_msg",
        time_per_item(&with_descs, |batch| {
            let mut memo = VerifyMemo::new(memo_capacity);
            std::hint::black_box(SecureDescriptor::verify_batch_with(batch, &mut memo));
        }) * with_descs.len() as f64
            / msgs.len().max(1) as f64,
    );

    // Crypto: sign, single verify, and one batch at the observed size
    // (signature checks per message under a cold memo).
    let batch = (sigs as f64 / with_descs.len().max(1) as f64)
        .round()
        .max(1.0) as usize;
    r.set("crypto.batch_size", batch as f64);
    let keys: Vec<Keypair> = (0..batch.max(64))
        .map(|i| {
            let mut seed = [7u8; 32];
            seed[..8].copy_from_slice(&(i as u64).to_le_bytes());
            Keypair::from_seed(Scheme::Schnorr61, seed)
        })
        .collect();
    let digests: Vec<[u8; 32]> = (0..keys.len())
        .map(|i| sc_crypto::sha256(&(i as u64).to_le_bytes()))
        .collect();
    let signed: Vec<_> = keys
        .iter()
        .zip(&digests)
        .map(|(k, d)| (k.public(), *d, k.sign(d)))
        .collect();
    r.set(
        "crypto.sign_us",
        time_per_item(&keys, |k| {
            std::hint::black_box(k.sign(&digests[0]));
        }),
    );
    r.set(
        "crypto.verify_fast_us",
        time_per_item(&signed, |(pk, d, sig)| {
            failures += !pk.verify(d, sig) as u64;
        }),
    );
    let checks: Vec<_> = signed[..batch]
        .iter()
        .map(|(pk, d, sig)| (pk, &d[..], sig))
        .collect();
    r.set(
        "crypto.batch_verify_us_per_sig",
        time_per_item(&[()], |_| {
            failures += verify_batch(&checks).is_err() as u64;
        }) / batch as f64,
    );
    failures
}
