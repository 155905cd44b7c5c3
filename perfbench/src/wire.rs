//! The wire workloads: a 5-site cluster of server processes on localhost
//! TCP, driven by one generator process over two client connections.
//!
//! * `wire-handover` — both connections (on sites 0 and 1) take turns on
//!   one resource, closed loop, zero think time, 1 ms hold. Every grant is
//!   a handover. Site 0's quorum {0,1,2} and site 1's {1,2,3} share the
//!   third-party arbiter 2, so without forwarding a handover costs two
//!   hops.
//! * `wire-mix` — the same cluster under an open loop: Poisson arrivals at
//!   a fixed rate over 64 resources with Zipf 0.9, pipelined over the same
//!   two connections.
//!
//! A run boots the cluster several times. Each boot is one `setup_s`
//! sample (launch until both connections are welcomed and one
//! acquire/release round trip is done) and one share of the measured
//! window; samples are pooled across boots, so one unlucky boot cannot
//! decide the run.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qmx_client::{ClientCore, ClientEvent};
use qmx_core::wire::Wire;
use qmx_core::{Config, DetectorConfig, Protocol, ResourceId, SiteId, TransportConfig};
use qmx_runtime::node::{Node, NodeConfig};
use qmx_runtime::proto::RejectReason;
use qmx_runtime::stack::{ServeMsg, StackConfig};
use qmx_runtime::tcp::{StreamConn, TcpTransport};
use qmx_runtime::transport::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::{Action, Arrival, Arrivals, Gen};
use crate::loopstack::PollStats;
use crate::stats::{self, Reservoir};
use crate::trace::{self, Layer, TimedTransport};
use crate::{Layers, Report, Run, Summary};

const SITES: u32 = 5;
/// Cluster boots per run; the measured window is split across them.
const BOOTS: usize = 5;
const HOLD_US: u64 = 1_000;
/// Every acquire carries this wait budget; the server aborts it after.
const WAIT_BUDGET_US: u64 = 2_000_000;
const WARMUP_US: u64 = 300_000;
/// Server lifetime beyond warm-up and window: readiness, probes, drain.
const LIFE_MARGIN_MS: u64 = 700;
/// The drain must end this long before the servers do.
const DRAIN_GUARD_US: u64 = 150_000;
/// Longest the generator sleeps between polls of its connections.
const POLL_SLICE_US: u64 = 50;
const READY_TIMEOUT: Duration = Duration::from_secs(5);
const MIX_RESOURCES: u32 = 64;
const MIX_ZIPF: f64 = 0.9;
const MIX_RATE_PER_S: f64 = 1_000.0;
/// Resources outside the workload's range, for the set-up round trip and
/// the hop probes.
pub const SETUP_RID: u32 = 1_000_000;
pub const PROBE_RID: u32 = 1_000_001;
pub const PROBES: u64 = 16;

type Client = ClientCore<StreamConn<TcpStream>>;

/// Stack constants of `qmxctl serve` (`crates/cli/src/commands.rs`), so
/// the traced server and `loop-stack` run the deployed configuration.
pub fn serve_stack(site: u32, sites: u32, forwarding: bool) -> StackConfig {
    let k = sites / 2 + 1;
    StackConfig {
        sites: (0..sites).map(SiteId).collect(),
        quorum: (0..k).map(|d| SiteId((site + d) % sites)).collect(),
        algo: Config {
            forwarding_enabled: forwarding,
        },
        transport: TransportConfig {
            rto_initial: 20_000,
            rto_max: 500_000,
            max_retries: 40,
        },
        detector: DetectorConfig {
            hb_interval: 100_000,
            hb_timeout: 500_000,
            rejoin_wait: 200_000,
            fail_confirm: 3_000_000,
        },
        majority_reconstruct: true,
    }
}

/// One booted cluster. Dropping it kills and reaps every server, so no
/// exit path of the benchmark leaves one behind.
struct Cluster {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Ports the kernel just handed out as free. Fresh ephemeral ports per
/// boot keep back-to-back runs off each other's sockets.
pub fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    held.iter().map(|l| Ok(l.local_addr()?.port())).collect()
}

impl Cluster {
    fn launch(bin: &Path, traced: bool, forwarding: bool, life_ms: u64) -> Result<Self, String> {
        let ports = free_ports(SITES as usize).map_err(|e| format!("no free ports: {e}"))?;
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: addrs.clone(),
        };
        for site in 0..SITES {
            let mut cmd = Command::new(bin);
            cmd.arg("serve")
                .args(["--site", &site.to_string(), "--sites", &SITES.to_string()])
                .args(["--listen", &addrs[site as usize]]);
            for p in (0..SITES).filter(|&p| p != site) {
                cmd.args(["--peer", &format!("{p}={}", addrs[p as usize])]);
            }
            cmd.args(["--forwarding", if forwarding { "on" } else { "off" }])
                .args(["--for-ms", &life_ms.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(if traced {
                    Stdio::inherit()
                } else {
                    Stdio::null()
                });
            let child = cmd
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
            cluster.children.push(child);
        }
        Ok(cluster)
    }

    /// True if a server already exited (e.g. it lost its port).
    fn any_exited(&mut self) -> bool {
        self.children
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(Some(_))))
    }

    /// Largest server high-water mark, MB.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| vm_hwm_kb(&format!("/proc/{}/status", c.id())))
            .fold(0.0, |m, kb| m.max(kb as f64 / 1024.0))
    }

    /// Waits for every server to end on its own and returns their
    /// standard output.
    fn finish(mut self, deadline: Instant) -> Result<Vec<String>, String> {
        let mut outs = Vec::new();
        for (site, child) in self.children.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        let mut out = String::new();
                        if let Some(mut s) = child.stdout.take() {
                            use std::io::Read;
                            let _ = s.read_to_string(&mut out);
                        }
                        if !status.success() {
                            return Err(format!("server {site} exited with {status}"));
                        }
                        outs.push(out);
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => return Err(format!("server {site} did not end on time")),
                }
            }
        }
        Ok(outs)
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, kB.
pub fn vm_hwm_kb(path: &str) -> Option<u64> {
    let s = std::fs::read_to_string(path).ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Segments with new data the kernel has sent, all sockets of this network
/// namespace (`TCPOrigDataSent`). With `TCP_NODELAY` and one write per
/// frame, one segment carries one frame.
fn data_segments_sent() -> Result<u64, String> {
    let s = std::fs::read_to_string("/proc/net/netstat")
        .map_err(|e| format!("cannot read /proc/net/netstat: {e}"))?;
    let mut lines = s.lines().filter(|l| l.starts_with("TcpExt:"));
    let (names, values) = (lines.next(), lines.next());
    let (Some(names), Some(values)) = (names, values) else {
        return Err("no TcpExt counters".into());
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "TCPOrigDataSent")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| "no TCPOrigDataSent counter".into())
}

fn next_event(c: &mut Client, deadline: Instant) -> Result<ClientEvent, String> {
    loop {
        c.poll();
        if let Some(ev) = c.next_event() {
            return Ok(ev);
        }
        if Instant::now() > deadline {
            return Err("server did not answer in time".into());
        }
        std::thread::sleep(Duration::from_micros(POLL_SLICE_US));
    }
}

/// Connects to `addr`, retrying until the server listens, and waits for
/// its welcome.
fn connect(
    tr: &mut TcpTransport,
    addr: &str,
    id: u64,
    deadline: Instant,
) -> Result<Client, String> {
    loop {
        if let Ok(mut c) = ClientCore::connect(tr, addr, id) {
            if let Ok(ClientEvent::Welcome { .. }) = next_event(&mut c, deadline) {
                return Ok(c);
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn round_trip(c: &mut Client, deadline: Instant) -> Result<(), String> {
    let rid = ResourceId(SETUP_RID);
    let req = c.acquire(rid, Some(WAIT_BUDGET_US));
    match next_event(c, deadline)? {
        ClientEvent::Granted { req: r, .. } if r == req => {}
        other => return Err(format!("set-up acquire answered with {other:?}")),
    }
    c.release(rid, req);
    match next_event(c, deadline)? {
        ClientEvent::Released { req: r, .. } if r == req => Ok(()),
        other => Err(format!("set-up release answered with {other:?}")),
    }
}

/// Median client↔site round trip of a request the site answers at once
/// (a release of a lock nobody holds), halved: one hop, ms.
fn hop_ms(c: &mut Client, deadline: Instant) -> Result<f64, String> {
    let mut rtts = Vec::new();
    for k in 0..PROBES {
        let t = Instant::now();
        c.release(ResourceId(PROBE_RID), u64::MAX - k);
        match next_event(c, deadline)? {
            ClientEvent::Rejected {
                reason: RejectReason::NotHeld,
                ..
            } => rtts.push(t.elapsed().as_secs_f64() * 1e3),
            other => return Err(format!("hop probe answered with {other:?}")),
        }
    }
    Ok(stats::median(&rtts) / 2.0)
}

/// An open-loop schedule: Poisson arrivals at `rate` over `[0, end)`,
/// each on a random connection, resources Zipf-distributed.
fn mix_schedule(seed: u64, rate_per_s: f64, end_us: u64, conns: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..MIX_RESOURCES)
        .map(|r| 1.0 / ((r + 1) as f64).powf(MIX_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mean_gap_us = 1e6 / rate_per_s;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() * mean_gap_us;
        if t >= end_us as f64 {
            return out;
        }
        let mut x = rng.gen_range(0.0..total);
        let mut rid = MIX_RESOURCES - 1;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                rid = i as u32;
                break;
            }
            x -= *w;
        }
        out.push(Arrival {
            due: t as u64,
            conn: rng.gen_range(0..conns as u64) as usize,
            rid,
        });
    }
}

/// Everything one boot measured.
struct Boot {
    setup_s: f64,
    hop_ms: f64,
    gen: Gen,
    window_s: f64,
    /// Data segments the namespace sent inside the window.
    segments: u64,
    /// Frames the generator itself sent or received inside the window.
    client_frames: u64,
    peak_rss_mb: f64,
    client_poll_us: Vec<f64>,
    busy_frac: f64,
    servers: Vec<String>,
}

fn boot(run: &Run, mix: bool, traced: bool, k: usize, window_us: u64) -> Result<Boot, String> {
    let bin = if traced {
        std::env::current_exe().map_err(|e| e.to_string())?
    } else {
        run.qmxctl.clone()
    };
    let life_ms = (WARMUP_US + window_us) / 1_000 + LIFE_MARGIN_MS;
    let mut tr = TcpTransport::new();
    let mut attempt = 0;
    let (cluster, mut clients, launched, setup_s) = loop {
        attempt += 1;
        let t0 = Instant::now();
        let mut cluster = Cluster::launch(&bin, traced, run.forwarding, life_ms)?;
        let deadline = t0 + READY_TIMEOUT;
        let ready = (|| {
            let mut a = connect(&mut tr, &cluster.addrs[0], 1, deadline)?;
            let b = connect(&mut tr, &cluster.addrs[1], 2, deadline)?;
            round_trip(&mut a, deadline)?;
            Ok::<_, String>(vec![a, b])
        })();
        match ready {
            Ok(c) => break (cluster, c, t0, t0.elapsed().as_secs_f64()),
            // A server that lost its port to another process exits at
            // once; try again on fresh ports.
            Err(_) if attempt < 3 && cluster.any_exited() => continue,
            Err(e) => return Err(e),
        }
    };
    let hop = hop_ms(&mut clients[0], Instant::now() + READY_TIMEOUT)?;

    let start = WARMUP_US;
    let end = start + window_us;
    let arrivals = if mix {
        let seed = run.seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64);
        Arrivals::Open(mix_schedule(seed, MIX_RATE_PER_S, end, clients.len()))
    } else {
        Arrivals::Closed { rid: 0 }
    };
    let mut gen = Gen::new(arrivals, clients.len(), HOLD_US, start, end);
    let mut poll_us = Reservoir::new(100_000);
    let t0 = Instant::now();
    let now_us = || t0.elapsed().as_micros() as u64;
    let (mut seg0, mut seg1) = (None, None);
    let mut client_frames = 0u64;
    let mut slept = Duration::ZERO;
    let since_launch = t0.duration_since(launched).as_micros() as u64;
    let drain_until = (life_ms * 1_000).saturating_sub(since_launch + DRAIN_GUARD_US);
    loop {
        let now = now_us();
        let in_window = now >= start && now < end;
        if now >= start && seg0.is_none() {
            seg0 = Some(data_segments_sent()?);
        }
        if now >= end && seg1.is_none() {
            seg1 = Some(data_segments_sent()?);
        }
        for (conn, c) in clients.iter_mut().enumerate() {
            let tp = Instant::now();
            c.poll();
            if traced {
                poll_us.push(tp.elapsed().as_secs_f64() * 1e6);
            }
            while let Some(ev) = c.next_event() {
                if in_window {
                    client_frames += 1;
                }
                let now = now_us();
                match ev {
                    ClientEvent::Granted { req, .. } => gen.granted(conn, req, now),
                    ClientEvent::Aborted { req, .. } => gen.failed(conn, req, true),
                    ClientEvent::Rejected { req, .. } => gen.failed(conn, req, false),
                    ClientEvent::Released { req, .. } => gen.released(conn, req),
                    ClientEvent::Welcome { .. } => {}
                    ClientEvent::Disconnected => {
                        return Err(format!("connection {conn} dropped"));
                    }
                }
            }
        }
        let now = now_us();
        for action in gen.poll(now) {
            if in_window {
                client_frames += 1;
            }
            match action {
                Action::Acquire { conn, rid, id } => {
                    let req = clients[conn].acquire(ResourceId(rid), Some(WAIT_BUDGET_US));
                    gen.sent(id, req);
                }
                Action::Release { conn, rid, req } => clients[conn].release(ResourceId(rid), req),
            }
        }
        if gen.drained(now) || now >= drain_until {
            break;
        }
        let wake = gen.next_due().unwrap_or(u64::MAX);
        let nap = wake.saturating_sub(now_us()).min(POLL_SLICE_US);
        if nap > 0 {
            let ts = Instant::now();
            std::thread::sleep(Duration::from_micros(nap));
            if now >= start && now < end {
                slept += ts.elapsed();
            }
        }
    }
    let peak_rss_mb = cluster.peak_rss_mb();
    drop(clients);
    let servers = cluster.finish(launched + Duration::from_millis(life_ms + 2_000))?;
    let window_s = window_us as f64 / 1e6;
    Ok(Boot {
        setup_s,
        hop_ms: hop,
        gen,
        window_s,
        segments: seg1.unwrap_or(0).saturating_sub(seg0.unwrap_or(0)),
        client_frames,
        peak_rss_mb,
        client_poll_us: poll_us.samples().to_vec(),
        busy_frac: 1.0 - slept.as_secs_f64() / window_s,
        servers,
    })
}

/// The `served ... N bad frames` line of an untraced server.
fn bad_frames_of(out: &str) -> Option<u64> {
    let line = out.lines().find(|l| l.starts_with("served "))?;
    let head = line.strip_suffix(" bad frames")?;
    head.rsplit(' ').next()?.parse().ok()
}

/// The `stat NAME VALUE` lines of the traced servers, one value per server.
fn server_stats(outs: &[String]) -> BTreeMap<String, Vec<f64>> {
    let mut m: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for out in outs {
        for line in out.lines() {
            let mut it = line.split_whitespace();
            if let (Some("stat"), Some(k), Some(v)) = (it.next(), it.next(), it.next()) {
                if let Ok(v) = v.parse() {
                    m.entry(k.to_string()).or_default().push(v);
                }
            }
        }
    }
    m
}

/// Runs `wire-handover` (`mix = false`) or `wire-mix`.
pub fn run(run: &Run, mix: bool) -> Result<Report, String> {
    let mut rep = Report::default();
    let plan: Vec<bool> = if run.trace {
        vec![false, true, false, true]
    } else {
        vec![false; BOOTS]
    };
    let window_us = run.seconds * 1_000_000 / plan.len() as u64;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (k, &t) in plan.iter().enumerate() {
        let b = boot(run, mix, t, k, window_us)?;
        for out in &b.servers {
            match (t, bad_frames_of(out)) {
                (false, Some(0)) | (true, _) => {}
                (false, Some(n)) => rep.problem(format!("a server reported {n} bad frames")),
                (false, None) => rep.problem("a server did not report its counters".into()),
            }
        }
        if t {
            traced.push(b);
        } else {
            plain.push(b);
        }
    }
    for b in plain.iter().chain(&traced) {
        for v in &b.gen.violations {
            rep.problem(v.clone());
        }
        if b.gen.unresolved() > 0 {
            rep.problem(format!("{} acquires never resolved", b.gen.unresolved()));
        }
        rep.attempted += b.gen.attempted;
        rep.failed += b.gen.aborted + b.gen.rejected;
    }
    let summary = summarize(&plain, &mut rep);
    if run.trace {
        let traced_summary = summarize(&traced, &mut Report::default());
        rep.layers = layers(&traced, &traced_summary, &summary);
    } else {
        rep.end_to_end(&summary);
    }
    Ok(rep)
}

/// End-to-end numbers of a set of boots. Latencies are taken per boot and
/// the median over boots is reported, so a boot that a neighbour's burst
/// of CPU use stalled does not decide the run.
fn summarize(boots: &[Boot], rep: &mut Report) -> Summary {
    let med = |f: &dyn Fn(&Boot) -> f64| stats::median(&boots.iter().map(f).collect::<Vec<_>>());
    let window_s: f64 = boots.iter().map(|b| b.window_s).sum();
    let granted: u64 = boots.iter().map(|b| b.gen.granted).sum();
    let segments: u64 = boots.iter().map(|b| b.segments).sum();
    let client_frames: u64 = boots.iter().map(|b| b.client_frames).sum();
    let handover_t = |b: &Boot| stats::p50(&b.gen.handover_ms).map_or(0.0, |p| p.value) / b.hop_ms;
    for (k, b) in boots.iter().enumerate() {
        let show = |v: &[f64], p: f64| stats::tail(v, p).map_or(0.0, |t| t.value);
        rep.note(format!(
            "boot {k}: setup {:.4} s, hop {:.3} ms, acquire p50 {} p99 {} ms, handover p50 {} p99 {} ms (n={})",
            b.setup_s,
            b.hop_ms,
            show(&b.gen.acquire_ms, 50.0),
            show(&b.gen.acquire_ms, 99.0),
            show(&b.gen.handover_ms, 50.0),
            show(&b.gen.handover_ms, 99.0),
            b.gen.handover_ms.len()
        ));
        if b.gen.handover_ms.is_empty() {
            rep.problem(format!("boot {k} observed no handover"));
        }
    }
    let attempted: u64 = boots.iter().map(|b| b.gen.attempted).sum();
    let failed_frac = boots
        .iter()
        .map(|b| b.gen.failed_frac() * b.gen.attempted as f64)
        .sum::<f64>()
        / attempted.max(1) as f64;
    rep.note(format!(
        "failed_frac = {failed_frac} (aborted + rejected + unfinished at window end, of {attempted} attempted)"
    ));
    Summary {
        setup_s: med(&|b| b.setup_s),
        grants_per_s: granted as f64 / window_s,
        acquire: (
            stats::median_pct(boots.iter().map(|b| &b.gen.acquire_ms[..]), 50.0),
            stats::median_pct(boots.iter().map(|b| &b.gen.acquire_ms[..]), 99.0),
        ),
        handover: (
            stats::median_pct(boots.iter().map(|b| &b.gen.handover_ms[..]), 50.0),
            stats::median_pct(boots.iter().map(|b| &b.gen.handover_ms[..]), 99.0),
        ),
        handover_t: med(&handover_t),
        msgs_per_grant: segments.saturating_sub(client_frames) as f64 / granted.max(1) as f64,
        events_per_s: segments as f64 / window_s,
        peak_rss_mb: med(&|b| b.peak_rss_mb),
    }
}

fn layers(traced: &[Boot], t: &Summary, plain: &Summary) -> Layers {
    let outs: Vec<String> = traced.iter().flat_map(|b| b.servers.clone()).collect();
    let s = server_stats(&outs);
    let sum = |k: &str| s.get(k).map_or(0.0, |v| v.iter().sum());
    let grants = sum("grants").max(1.0);
    let per_call =
        |layer: &str| sum(&format!("{layer}_self_ns")) / sum(&format!("{layer}_calls")).max(1.0);
    let mut l = Layers::default();
    l.set("tcp.wait_calls_per_grant", sum("tcp_waits") / grants);
    l.set("tcp.wait_ms_per_grant", sum("tcp_wait_ns") / 1e6 / grants);
    l.set("tcp.send_calls_per_grant", sum("tcp_sends") / grants);
    l.set("tcp.recv_calls_per_grant", sum("tcp_recvs") / grants);
    l.set(
        "tcp.empty_recv_frac",
        sum("tcp_empty_recvs") / sum("tcp_recvs").max(1.0),
    );
    l.set("tcp.bytes_out_per_grant", sum("tcp_bytes_out") / grants);
    let poll_p50 = s.get("poll_self_p50_ns").map_or(0.0, |v| stats::median(v));
    l.set("node.poll_self_us_p50", poll_p50 / 1e3);
    l.set("node.polls_per_grant", sum("polls") / grants);
    l.set(
        "node.idle_poll_frac",
        sum("idle_polls") / sum("polls").max(1.0),
    );
    l.set("node.frames_in_per_grant", sum("frames_in") / grants);
    l.set("node.frames_out_per_grant", sum("frames_out") / grants);
    l.set("node.bad_frames", sum("bad_frames"));
    let frames = sum("codec_frames").max(1.0);
    l.set("wire.encode_ns_per_frame", sum("codec_encode_ns") / frames);
    l.set("wire.decode_ns_per_frame", sum("codec_decode_ns") / frames);
    l.set("wire.bytes_per_frame", sum("codec_bytes") / frames);
    l.set("detector.self_ns_per_call", per_call("detector"));
    l.set("detector.heartbeats_per_grant", sum("heartbeats") / grants);
    l.set("detector.suspicions", sum("suspicions"));
    l.set("reliable.self_ns_per_call", per_call("reliable"));
    l.set("reliable.acks_per_grant", sum("acks") / grants);
    l.set(
        "reliable.retransmissions_per_grant",
        sum("retransmissions") / grants,
    );
    l.set("lockspace.self_ns_per_call", per_call("lockspace"));
    l.set(
        "lockspace.live_shards",
        sum("live_shards") / outs.len().max(1) as f64,
    );
    l.set("protocol.self_ns_per_call", per_call("protocol"));
    for kind in crate::KINDS {
        l.set(
            &format!("protocol.{kind}_per_grant"),
            sum(&format!("kind_{kind}")) / grants,
        );
    }
    let fwd = sum("forwarded");
    l.set(
        "protocol.forwarded_frac",
        fwd / (fwd + sum("arbiter_handoffs")).max(1.0),
    );
    let polls: Vec<f64> = traced
        .iter()
        .flat_map(|b| b.client_poll_us.iter().copied())
        .collect();
    l.set(
        "client.poll_us_p50",
        stats::p50(&polls).map_or(0.0, |p| p.value),
    );
    let late: Vec<f64> = traced
        .iter()
        .flat_map(|b| b.gen.lateness_ms.iter().copied())
        .collect();
    l.set(
        "gen.lateness_p99_ms",
        stats::tail(&late, 99.0).map_or(0.0, |p| p.value),
    );
    l.set(
        "gen.busy_frac",
        traced.iter().map(|b| b.busy_frac).sum::<f64>() / traced.len().max(1) as f64,
    );
    l.set(
        "trace.overhead_frac",
        1.0 - t.grants_per_s / plain.grants_per_s.max(1e-9),
    );
    let accounted = sum("node_self_ns")
        + sum("tcp_self_ns")
        + ["detector", "reliable", "lockspace", "protocol"]
            .iter()
            .map(|k| sum(&format!("{k}_self_ns")))
            .sum::<f64>()
        + sum("tcp_wait_ns");
    l.set(
        "trace.unaccounted_frac",
        1.0 - accounted / sum("wall_ns").max(1.0),
    );
    l
}

/// Flags of the traced server, the same as `qmxctl serve` takes.
struct ServeArgs {
    site: u32,
    sites: u32,
    listen: String,
    peers: Vec<(SiteId, String)>,
    forwarding: bool,
    for_ms: u64,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, String> {
    let mut a = ServeArgs {
        site: 0,
        sites: 0,
        listen: String::new(),
        peers: Vec::new(),
        forwarding: true,
        for_ms: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|_| format!("bad {flag} '{v}'"));
        match flag.as_str() {
            "--site" => a.site = num()? as u32,
            "--sites" => a.sites = num()? as u32,
            "--listen" => a.listen = v.clone(),
            "--peer" => {
                let (s, addr) = v.split_once('=').ok_or(format!("bad --peer '{v}'"))?;
                let s = s.parse().map_err(|_| format!("bad --peer '{v}'"))?;
                a.peers.push((SiteId(s), addr.to_string()));
            }
            "--forwarding" => a.forwarding = crate::on_off(flag, v)?,
            "--for-ms" => a.for_ms = num()?,
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    if a.sites == 0 || a.site >= a.sites || a.listen.is_empty() || a.for_ms == 0 {
        return Err("serve needs --site, --sites, --listen and --for-ms".into());
    }
    Ok(a)
}

/// The traced server: `qmxctl serve`'s stack and constants with a shim at
/// every layer, run by a poll/wait loop of its own that times
/// `Node::poll`. Prints the same `served` line, then its spans and counts
/// as `stat NAME VALUE` lines.
pub fn serve(args: &[String]) -> Result<(), String> {
    let a = parse_serve(args)?;
    let stack =
        trace::build_traced_stack(SiteId(a.site), &serve_stack(a.site, a.sites, a.forwarding));
    let (transport, clock) = TimedTransport::new(TcpTransport::new());
    let cfg = NodeConfig::new(SiteId(a.site), a.listen.clone(), a.peers.clone());
    let mut node = Node::new(transport, stack, cfg)
        .map_err(|e| format!("cannot listen on {}: {e}", a.listen))?;
    let wall = Instant::now();
    let end = clock.borrow_mut().now_us() + a.for_ms * 1_000;
    let mut poll = PollStats::new();
    loop {
        let wake = poll.node(&mut node);
        let now = clock.borrow_mut().now_us();
        if now >= end {
            break;
        }
        let until = wake.map_or(end, |w| w.min(end));
        let t = Instant::now();
        clock.borrow_mut().wait(Some(until));
        trace::count_wait(t.elapsed().as_nanos() as u64);
    }
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let c = node.counters();
    println!(
        "served {} for {} ms: {} sessions, {} grants, {} releases, {} bad frames",
        a.listen, a.for_ms, c.sessions_opened, c.grants, c.releases, c.bad_frames
    );
    let stat = |k: &str, v: f64| println!("stat {k} {v}");
    stat("wall_ns", wall_ns as f64);
    stat("grants", c.grants as f64);
    stat("frames_in", c.frames_in as f64);
    stat("frames_out", c.frames_out as f64);
    stat("bad_frames", c.bad_frames as f64);
    stat("polls", poll.polls as f64);
    stat("idle_polls", poll.idle_polls as f64);
    stat(
        "poll_self_p50_ns",
        stats::p50(poll.poll_self_ns.samples()).map_or(0.0, |p| p.value),
    );
    print_layer_stats(&stat);
    let tcp = trace::tcp_counts();
    stat("tcp_waits", tcp.waits as f64);
    stat("tcp_wait_ns", tcp.wait_ns as f64);
    stat("tcp_sends", tcp.sends as f64);
    stat("tcp_recvs", tcp.recvs as f64);
    stat("tcp_empty_recvs", tcp.empty_recvs as f64);
    stat("tcp_bytes_out", tcp.bytes_out as f64);
    let stack = node.protocol();
    let det = stack.detector_counters().unwrap_or_default();
    let rel = stack.transport_counters().unwrap_or_default();
    stat("heartbeats", det.heartbeats_sent as f64);
    stat("suspicions", det.suspicions as f64);
    stat("acks", rel.acks_sent as f64);
    stat("retransmissions", rel.retransmissions as f64);
    stat("live_shards", trace::live_shards(stack) as f64);
    let codec = codec_round_trip()?;
    stat("codec_frames", codec.frames as f64);
    stat("codec_bytes", codec.bytes as f64);
    stat("codec_encode_ns", codec.encode_ns as f64);
    stat("codec_decode_ns", codec.decode_ns as f64);
    Ok(())
}

/// Prints the span totals and protocol tallies of this thread.
fn print_layer_stats(stat: &dyn Fn(&str, f64)) {
    for (name, layer) in [
        ("node", Layer::Node),
        ("tcp", Layer::Tcp),
        ("detector", Layer::Detector),
        ("reliable", Layer::Reliable),
        ("lockspace", Layer::LockSpace),
        ("protocol", Layer::Protocol),
    ] {
        let t = trace::totals(layer);
        stat(&format!("{name}_calls"), t.calls as f64);
        stat(&format!("{name}_self_ns"), t.self_ns as f64);
    }
    let tally = trace::tally();
    for (kind, n) in crate::KINDS.iter().zip(tally.kinds) {
        stat(&format!("kind_{kind}"), n as f64);
    }
    stat("forwarded", tally.forwarded as f64);
    stat("arbiter_handoffs", tally.arbiter_handoffs as f64);
}

/// Codec cost of the recorded inter-site messages.
pub struct Codec {
    pub frames: u64,
    pub bytes: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
}

/// Encodes every recorded message the way the node frames it, decodes the
/// bytes again, and checks that re-encoding reproduces them exactly.
pub fn codec_round_trip() -> Result<Codec, String> {
    let msgs = trace::take_frames();
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| std::hint::black_box(m).to_bytes())
        .collect();
    let encode_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let decoded: Vec<ServeMsg> = encoded
        .iter()
        .map(|f| ServeMsg::from_bytes(std::hint::black_box(f)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("a recorded frame does not decode: {e:?}"))?;
    let decode_ns = t.elapsed().as_nanos() as u64;
    if decoded
        .iter()
        .zip(&encoded)
        .any(|(m, bytes)| &m.to_bytes() != bytes)
    {
        return Err("a decoded frame re-encodes to different bytes".into());
    }
    Ok(Codec {
        frames: msgs.len() as u64,
        // Each frame also carries its 4-byte length prefix.
        bytes: encoded.iter().map(|f| f.len() as u64 + 4).sum(),
        encode_ns,
        decode_ns,
    })
}
