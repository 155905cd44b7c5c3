//! End-to-end and per-layer benchmark of the qmx lock service.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           [--qmxctl PATH] [--forwarding on|off]
//! perfbench serve ...        (the traced wire server; qmxctl serve's flags)
//! ```
//!
//! One run measures one workload for `S` seconds, checks the outputs, and
//! prints every metric by name with its unit; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod gen;
mod loopstack;
mod simwl;
mod stats;
mod tcpstack;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload \
wire-handover|wire-mix|tcp-handover|loop-stack|sim-contended \
--seed N --seconds S --trace 0|1 [--qmxctl PATH] [--forwarding on|off]";

/// Protocol message kinds reported per grant, in `MsgKind::ALL` order.
pub const KINDS: [&str; 7] = [
    "request", "reply", "release", "inquire", "fail", "yield", "transfer",
];

/// Per-layer metrics of the traced run, with units. A layer a workload
/// does not pass through reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("tcp.wait_calls_per_grant", "count"),
    ("tcp.wait_ms_per_grant", "ms"),
    ("tcp.send_calls_per_grant", "count"),
    ("tcp.recv_calls_per_grant", "count"),
    ("tcp.empty_recv_frac", "ratio"),
    ("tcp.bytes_out_per_grant", "bytes"),
    ("node.poll_self_us_p50", "us"),
    ("node.polls_per_grant", "count"),
    ("node.idle_poll_frac", "ratio"),
    ("node.frames_in_per_grant", "count"),
    ("node.frames_out_per_grant", "count"),
    ("node.bad_frames", "count"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.bytes_per_frame", "bytes"),
    ("detector.self_ns_per_call", "ns"),
    ("detector.heartbeats_per_grant", "count"),
    ("detector.suspicions", "count"),
    ("reliable.self_ns_per_call", "ns"),
    ("reliable.acks_per_grant", "count"),
    ("reliable.retransmissions_per_grant", "count"),
    ("lockspace.self_ns_per_call", "ns"),
    ("lockspace.live_shards", "count"),
    ("protocol.self_ns_per_call", "ns"),
    ("protocol.request_per_grant", "count"),
    ("protocol.reply_per_grant", "count"),
    ("protocol.release_per_grant", "count"),
    ("protocol.inquire_per_grant", "count"),
    ("protocol.fail_per_grant", "count"),
    ("protocol.yield_per_grant", "count"),
    ("protocol.transfer_per_grant", "count"),
    ("protocol.forwarded_frac", "ratio"),
    ("client.poll_us_p50", "us"),
    ("gen.lateness_p99_ms", "ms"),
    ("gen.busy_frac", "ratio"),
    ("sim.engine_ns_per_event", "ns"),
    ("sim.protocol_ns_per_event", "ns"),
    ("sim.events_per_grant", "count"),
    ("quorum.build_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// One benchmark invocation.
pub struct Run {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Reply forwarding; off only for the one-off `2T` reference.
    pub forwarding: bool,
    /// The `qmxctl` binary serving the wire workloads.
    pub qmxctl: PathBuf,
}

/// End-to-end numbers of one workload.
pub struct Summary {
    pub setup_s: f64,
    pub grants_per_s: f64,
    pub acquire: (stats::Pct, stats::Pct),
    pub handover: (stats::Pct, stats::Pct),
    pub handover_t: f64,
    pub msgs_per_grant: f64,
    pub events_per_s: f64,
    pub peak_rss_mb: f64,
}

/// Per-layer values by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Sets one per-layer metric.
    pub fn set(&mut self, name: &str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name.to_string(), v);
    }
}

/// What a run found.
#[derive(Default)]
pub struct Report {
    /// Failed correctness checks; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Of those, aborted or rejected by the server.
    pub failed: u64,
    /// `(name, value, unit, detail)` of the metrics reported.
    pub metrics: Vec<(String, f64, &'static str, String)>,
    /// Per-layer values of a traced run.
    pub layers: Layers,
    /// Further human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a failed check.
    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, n: String) {
        self.notes.push(n);
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, detail: String) {
        self.metrics.push((name.to_string(), value, unit, detail));
    }

    /// Reports the end-to-end metrics of `s`. The two CPU-speed numbers
    /// are printed as lines but are not metrics of the JSON result: they
    /// follow the host's speed, which swings by more than any bound
    /// `BENCHMARK.json` may set (see `perfbench/README.md`).
    pub fn end_to_end(&mut self, s: &Summary) {
        let pct = |p: &stats::Pct| format!("p{:.2} of n={}", p.p, p.n);
        for (name, v) in [
            ("grants_per_s", s.grants_per_s),
            ("sim_events_per_s", s.events_per_s),
        ] {
            self.note(format!("{name} = {v} 1/s (not gated)"));
        }
        self.metric("setup_s", s.setup_s, "s", String::new());
        self.metric("acquire_p50_ms", s.acquire.0.value, "ms", pct(&s.acquire.0));
        self.metric("acquire_p99_ms", s.acquire.1.value, "ms", pct(&s.acquire.1));
        self.metric(
            "handover_p50_ms",
            s.handover.0.value,
            "ms",
            pct(&s.handover.0),
        );
        self.metric(
            "handover_p99_ms",
            s.handover.1.value,
            "ms",
            pct(&s.handover.1),
        );
        self.metric("handover_p50_T", s.handover_t, "T", String::new());
        self.metric("msgs_per_grant", s.msgs_per_grant, "count", String::new());
        self.metric("peak_rss_mb", s.peak_rss_mb, "MB", String::new());
    }

    fn print(mut self) {
        if !self.layers.0.is_empty() {
            for (name, unit) in PER_LAYER {
                let v = self.layers.0.get(*name).copied().unwrap_or(0.0);
                self.metrics
                    .push((name.to_string(), v, unit, String::new()));
            }
        }
        for (name, v, _, _) in &self.metrics {
            if !v.is_finite() {
                self.problems.push(format!("{name} is not a number"));
            }
        }
        for n in &self.notes {
            println!("{n}");
        }
        for (name, v, unit, detail) in &self.metrics {
            println!("{name} = {v} {unit} {detail}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
            println!("CHECK FAILED: no operation was attempted");
        }
        let correct = self.problems.is_empty();
        let metrics: Vec<String> = if correct {
            self.metrics
                .iter()
                .map(|(n, v, u, _)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect()
        } else {
            Vec::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// This process's high-water mark, MB.
pub fn own_peak_rss_mb() -> f64 {
    wire::vm_hwm_kb("/proc/self/status").unwrap_or(0) as f64 / 1024.0
}

/// `on` or `off`; anything else is a usage error.
pub fn on_off(flag: &str, v: &str) -> Result<bool, String> {
    match v {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("{flag} takes on or off, not '{v}'")),
    }
}

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 0,
        seconds: 10,
        trace: false,
        forwarding: true,
        qmxctl: PathBuf::from("target/release/qmxctl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|_| format!("bad {flag} '{v}'"));
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => run.seed = num()?,
            "--seconds" => run.seconds = num()?.max(1),
            "--trace" => run.trace = num()? != 0,
            "--qmxctl" => run.qmxctl = PathBuf::from(v),
            "--forwarding" => run.forwarding = on_off(flag, v)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = wire::serve(&args[1..]) {
            eprintln!("perfbench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match workload.as_str() {
        "wire-handover" => wire::run(&run, false),
        "wire-mix" => wire::run(&run, true),
        "tcp-handover" => tcpstack::run(&run),
        "loop-stack" => loopstack::run(&run),
        "sim-contended" => simwl::run(&run),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(rep) => rep.print(),
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has run, nanoseconds. Time the host stole from
/// the virtual CPU, and time other processes ran, is not in it.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// [`thread_cpu_ns`] in seconds.
pub fn thread_cpu_s() -> f64 {
    thread_cpu_ns() as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn forwarding_takes_only_on_or_off() {
        let base = ["--workload", "loop-stack", "--forwarding"];
        let with = |v: &str| parse(&args(&[&base[..], &[v]].concat()));
        assert!(with("on").unwrap().1.forwarding);
        assert!(!with("off").unwrap().1.forwarding);
        for bad in ["true", "ON", "yes", "of"] {
            assert!(with(bad).is_err(), "{bad} was accepted");
        }
    }
}
