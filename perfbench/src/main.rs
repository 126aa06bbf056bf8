//! `sc-perfbench`: the repository benchmark.
//!
//! ```text
//! sc-perfbench --workload <sim-steady|sim-attack40|live-durable> \
//!              --seed <n> --seconds <s> --trace <0|1>
//! sc-perfbench --list     # the metric catalogue and each layer's claim
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a
//! traced run (`--trace 1`) prints every per-layer metric. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed`, and `metrics`; a failed correctness gate sets `correct` to
//! false and exits non-zero. See `perfbench/README.md`.

mod live;
mod metrics;
mod procfs;
mod replay;
mod sim;
mod stats;
mod trace;

use metrics::{Report, E2E, LAYER};
use sim::SimWorkload;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: sc-perfbench --workload <sim-steady|sim-attack40|live-durable> \
--seed <n> --seconds <s> --trace <0|1>
       sc-perfbench --list";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?.max(1);
    let trace = match num(get("--trace"), "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the metric catalogue with each per-layer metric's claim.
fn list() {
    let better = |h: bool| if h { "higher" } else { "lower" };
    for m in &E2E {
        println!(
            "{:<42} {:<6} {:<6} end-to-end",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    for m in &LAYER {
        println!(
            "{:<42} {:<6} {:<6} moves {} on {}; measured on {}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.moves,
            m.on,
            m.measured_on.join(", ")
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--list") {
        list();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sc-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut r = Report::new();
    let context = match args.workload.as_str() {
        "live-durable" => run_live(&args, &mut r),
        name => run_sim(name, &args, &mut r),
    };
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"scheme\": \"schnorr61\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, {context}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc()
    );
    let names: Vec<(&str, &str)> = if args.trace {
        LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        E2E.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (name, unit) in names {
        println!("{name:<42} {:>16.4} {unit}", r.get(name).unwrap_or(0.0));
    }
    for f in &r.failures {
        eprintln!("sc-perfbench: correctness check failed: {f}");
    }
    println!("{}", r.json(args.trace));
    if !r.correct {
        std::process::exit(1);
    }
}

fn run_sim(name: &str, args: &Args, r: &mut Report) -> String {
    let w = match name {
        "sim-steady" => SimWorkload::steady(args.seconds),
        _ => SimWorkload::attack40(args.seconds),
    };
    let plain = sim::untraced(&w, args.seed);
    sim::gate(&w, &plain, r);
    if args.trace {
        let (run, spans, capture) = sim::traced(&w, args.seed);
        sim::report_layers(&w, &plain, &run, &spans, &capture, r);
        sim::report_replay(&capture, r);
        let out = Path::new(".perfbench-out").join(format!("{name}.spans"));
        if let Err(e) = trace::write_spans(&out, &spans) {
            eprintln!("sc-perfbench: could not write {}: {e}", out.display());
        }
    } else {
        sim::report_e2e(&plain, r);
    }
    format!(
        "{}, \"window_cycles\": {}, \"node_turns\": {}, \"clear_cycles\": {}",
        w.describe(),
        plain.cycle_s.len(),
        plain.node_cycles,
        plain.clear_cycles.map_or(-1, |c| c as i64)
    )
}

fn run_live(args: &Args, r: &mut Report) -> String {
    // `run.sh` builds the daemon into the same target directory.
    let node_bin: PathBuf = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join("sc-node")))
        .filter(|bin| bin.is_file())
        .unwrap_or_else(|| {
            eprintln!("sc-perfbench: no sc-node binary next to this one; run perfbench/run.sh");
            std::process::exit(2);
        });
    let dir = Path::new(".perfbench-tmp").join(format!("live-{}", std::process::id()));
    if let Err(e) = live::run(&node_bin, args.seed, args.seconds, &dir, r) {
        r.gate(false, format!("cluster I/O failed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    if args.trace {
        // The daemons' traffic is not observable from outside; replay
        // the codec on traffic of the same shape from the simulated
        // cluster configuration.
        let w = SimWorkload::live_replica(args.seconds * 10);
        let (_, _, capture) = sim::traced(&w, args.seed);
        sim::report_replay(&capture, r);
    }
    format!(
        "\"population\": {}, \"malicious\": 0, \"view_len\": {}, \"swap_len\": {}, \"cycle_ms\": 100, \"durable\": true, \"transport\": \"tcp 127.0.0.1 (loopback)\"",
        live::NODES,
        live::VIEW_LEN,
        live::SWAP_LEN
    )
}
