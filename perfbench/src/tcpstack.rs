//! `tcp-handover`: the wire-handover shape on real localhost TCP sockets,
//! with every site in this process and one thread driving them all.
//!
//! Five `Node`s run `qmxctl serve`'s stack and constants over
//! `TcpTransport`. Two clients, on sites 0 and 1, take turns on one
//! resource: every grant is a handover, and the quorums {0,1,2} and
//! {1,2,3} share the third-party arbiter 2. One thread
//! polls every node and both clients in turn. Loopback TCP hands a
//! written segment to the receiving socket before `write` returns, so the
//! sites see the same message order on every repetition and the protocol
//! counts are exact. The holder keeps the lock until the sites have gone
//! quiet, as they would during a hold on a network, and then for a
//! seed-drawn 50–150 µs of wall time in the clients' `TcpTransport::wait`.
//!
//! Times are taken on the thread's CPU clock, which stops while the
//! thread sleeps and while the host runs something else: a latency is the
//! CPU the whole stack, socket calls included, spends between two
//! client-visible events, and throughput is grants per CPU second.

use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qmx_client::{ClientCore, ClientEvent};
use qmx_core::wire::Wire;
use qmx_core::{Protocol, ResourceId, SiteId};
use qmx_runtime::node::{Node, NodeConfig, NodeCounters};
use qmx_runtime::proto::RejectReason;
use qmx_runtime::stack::{build_stack, ServeStack};
use qmx_runtime::tcp::{StreamConn, TcpTransport};
use qmx_runtime::transport::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loopstack::{self, PollStats, SiteCounts};
use crate::stats;
use crate::trace::{self, TimedTransport};
use crate::wire::{self, PROBES, PROBE_RID, SETUP_RID};
use crate::{Report, Run, Summary};

const SITES: u32 = 5;
/// Acquires each of the two clients makes per repetition.
const ACQUIRES: u64 = 500;
const HOLD_MIN_US: u64 = 50;
const HOLD_MAX_US: u64 = 150;
const RID: ResourceId = ResourceId(0);
const MIN_REPS: usize = 3;
const BOOT_TIMEOUT: Duration = Duration::from_secs(5);
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

type Client = ClientCore<StreamConn<TcpStream>>;

/// The sites and both clients, all driven from this thread.
struct Cluster<T: Transport, P: Protocol> {
    nodes: Vec<Node<T, P>>,
    clients: Vec<Client>,
    /// The clients' transport; its `wait` is where the holder sleeps.
    tr: TcpTransport,
    /// Set on the traced cluster.
    poll: Option<PollStats>,
    shards: fn(&P) -> usize,
}

impl<T: Transport, P: Protocol> Cluster<T, P>
where
    P::Msg: Wire,
{
    /// Polls the nodes round after round until a round moves no frame,
    /// then polls the clients; true if a node moved a frame. Running the
    /// sites to quiet makes a message cascade cost the same whichever
    /// site it starts at, where a single round would charge a message to
    /// a site earlier in the order one extra round.
    fn sweep(&mut self) -> bool {
        let frames = |nodes: &[Node<T, P>]| {
            nodes
                .iter()
                .map(|n| n.counters().frames_in + n.counters().frames_out)
                .sum::<u64>()
        };
        let start = frames(&self.nodes);
        let mut last = start;
        loop {
            match &mut self.poll {
                Some(stats) => self.nodes.iter_mut().for_each(|n| {
                    stats.node(n);
                }),
                None => self.nodes.iter_mut().for_each(|n| {
                    n.poll();
                }),
            }
            let now = frames(&self.nodes);
            if now == last {
                break;
            }
            last = now;
        }
        match &mut self.poll {
            Some(stats) => self.clients.iter_mut().for_each(|c| stats.client(c)),
            None => self.clients.iter_mut().for_each(|c| c.poll()),
        }
        last != start
    }

    fn counts(&self) -> Vec<SiteCounts> {
        self.nodes
            .iter()
            .map(|n| {
                loopstack::site_counts(n.counters(), n.protocol(), (self.shards)(n.protocol()))
            })
            .collect()
    }

    /// Sweeps until client `i` has an event.
    fn next_event(&mut self, i: usize, deadline: Instant) -> Result<ClientEvent, String> {
        loop {
            if let Some(ev) = self.clients[i].next_event() {
                return Ok(ev);
            }
            if Instant::now() > deadline {
                return Err("the cluster did not answer in time".into());
            }
            self.sweep();
        }
    }

    /// Keeps the lock for `us` of wall time in `TcpTransport::wait`.
    fn hold(&mut self, us: u64) {
        let until = self.tr.now_us() + us;
        while self.tr.now_us() < until {
            if self.poll.is_some() {
                let t = Instant::now();
                self.tr.wait(Some(until));
                trace::count_wait(t.elapsed().as_nanos() as u64);
            } else {
                self.tr.wait(Some(until));
            }
        }
    }
}

/// Boots the cluster on fresh ports, connects the clients to `pair`, and
/// waits until every link is up and both clients are welcomed.
fn launch<T: Transport, P: Protocol>(
    make: &impl Fn(u32, NodeConfig) -> io::Result<Node<T, P>>,
    shards: fn(&P) -> usize,
    pair: [u32; 2],
    traced: bool,
) -> Result<Cluster<T, P>, String>
where
    P::Msg: Wire,
{
    let mut attempt = 0;
    let (nodes, addrs) = loop {
        attempt += 1;
        let ports = wire::free_ports(SITES as usize).map_err(|e| format!("no free ports: {e}"))?;
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let nodes: io::Result<Vec<_>> = (0..SITES)
            .map(|site| {
                let peers = (0..SITES)
                    .filter(|&p| p != site)
                    .map(|p| (SiteId(p), addrs[p as usize].clone()))
                    .collect();
                make(
                    site,
                    NodeConfig::new(SiteId(site), addrs[site as usize].clone(), peers),
                )
            })
            .collect();
        match nodes {
            Ok(n) => break (n, addrs),
            // Another process took a port between probing and binding.
            Err(e) if attempt < 3 && e.kind() == io::ErrorKind::AddrInUse => continue,
            Err(e) => return Err(format!("cannot boot the sites: {e}")),
        }
    };
    let mut tr = TcpTransport::new();
    let clients = pair
        .iter()
        .enumerate()
        .map(|(k, &site)| ClientCore::connect(&mut tr, &addrs[site as usize], k as u64 + 1))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect a client: {e}"))?;
    let mut c = Cluster {
        nodes,
        clients,
        tr,
        poll: traced.then(PollStats::new),
        shards,
    };
    let deadline = Instant::now() + BOOT_TIMEOUT;
    for i in 0..pair.len() {
        match c.next_event(i, deadline)? {
            ClientEvent::Welcome { .. } => {}
            other => return Err(format!("client {i} got {other:?} instead of a welcome")),
        }
    }
    loop {
        let links_up = c.nodes.iter().all(|n| {
            let k = n.counters();
            let clients = pair.iter().filter(|&&s| SiteId(s) == n.site()).count() as u64;
            k.peer_connects >= u64::from(SITES - 1)
                && k.sessions_opened >= u64::from(SITES - 1) + clients
        });
        if links_up {
            return Ok(c);
        }
        if Instant::now() > deadline {
            return Err("the sites did not connect to each other in time".into());
        }
        c.sweep();
    }
}

/// Everything one repetition measured. The window counts must be the same
/// on every repetition of one seed; the times vary.
struct Rep {
    /// Wall time from launch until the links are up, the clients are
    /// welcomed and one acquire/release round trip is done.
    setup_s: f64,
    /// CPU seconds of the measured window.
    run_s: f64,
    /// Wall seconds of the measured window.
    wall_s: f64,
    /// Half the median client↔site round trip of a request the site
    /// answers at once, CPU ms.
    hop_ms: f64,
    /// Per-site counts of the measured window.
    counts: Vec<SiteCounts>,
    acquires: u64,
    acquire_ms: Vec<f64>,
    handover_ms: Vec<f64>,
    client_events: u64,
    violations: Vec<String>,
    /// The traced window's poll loop record.
    poll: Option<PollStats>,
}

impl Rep {
    fn grants(&self) -> u64 {
        self.counts.iter().map(|c| c.node.grants).sum()
    }

    /// What must repeat exactly: protocol messages and grants per site.
    fn signature(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .map(|c| (c.data_sent, c.node.grants))
            .collect()
    }
}

/// `b - a` of the counts a window needs; `shards` is taken from `b`.
fn since(a: &SiteCounts, b: &SiteCounts) -> SiteCounts {
    SiteCounts {
        node: NodeCounters {
            frames_in: b.node.frames_in - a.node.frames_in,
            frames_out: b.node.frames_out - a.node.frames_out,
            bad_frames: b.node.bad_frames - a.node.bad_frames,
            grants: b.node.grants - a.node.grants,
            releases: b.node.releases - a.node.releases,
            ..NodeCounters::default()
        },
        data_sent: b.data_sent - a.data_sent,
        acks: b.acks - a.acks,
        retransmissions: b.retransmissions - a.retransmissions,
        heartbeats: b.heartbeats - a.heartbeats,
        suspicions: b.suspicions - a.suspicions,
        shards: b.shards,
    }
}

#[derive(Debug, Clone, Copy)]
enum Cl {
    Waiting { req: u64, since: u64 },
    Holding { req: u64 },
    Releasing { req: u64 },
    Done,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Boots a cluster, does the set-up round trip and the hop probe, then
/// runs the two clients for `ACQUIRES` acquires each.
fn rep<T: Transport, P: Protocol>(
    make: &impl Fn(u32, NodeConfig) -> io::Result<Node<T, P>>,
    shards: fn(&P) -> usize,
    seed: u64,
    traced: bool,
) -> Result<Rep, String>
where
    P::Msg: Wire,
{
    let pair = [0, 1];
    let mut rng = StdRng::seed_from_u64(seed);
    let holds: Vec<u64> = (0..2 * ACQUIRES)
        .map(|_| rng.gen_range(HOLD_MIN_US..HOLD_MAX_US))
        .collect();

    let t0 = Instant::now();
    let mut c = launch(make, shards, pair, traced)?;
    let deadline = Instant::now() + BOOT_TIMEOUT;
    let setup = ResourceId(SETUP_RID);
    let req = c.clients[0].acquire(setup, None);
    match c.next_event(0, deadline)? {
        ClientEvent::Granted { req: r, .. } if r == req => {}
        other => return Err(format!("set-up acquire answered with {other:?}")),
    }
    c.clients[0].release(setup, req);
    match c.next_event(0, deadline)? {
        ClientEvent::Released { req: r, .. } if r == req => {}
        other => return Err(format!("set-up release answered with {other:?}")),
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut rtts = Vec::new();
    for k in 0..PROBES {
        let t = crate::thread_cpu_ns();
        c.clients[0].release(ResourceId(PROBE_RID), u64::MAX - k);
        match c.next_event(0, deadline)? {
            ClientEvent::Rejected {
                reason: RejectReason::NotHeld,
                ..
            } => rtts.push(ms(crate::thread_cpu_ns() - t)),
            other => return Err(format!("hop probe answered with {other:?}")),
        }
    }
    let hop_ms = stats::median(&rtts) / 2.0;

    let before = c.counts();
    if traced {
        trace::reset();
        c.poll = Some(PollStats::new());
    }
    let wall0 = Instant::now();
    let cpu0 = crate::thread_cpu_ns();
    let mut violations = Vec::new();
    let (mut acquire_ms, mut handover_ms) = (Vec::new(), Vec::new());
    let mut acquires = 0u64;
    let mut client_events = 0u64;
    let mut holder: Option<usize> = None;
    let mut mark: Option<u64> = None;
    let mut state = [Cl::Done; 2];
    for (i, st) in state.iter_mut().enumerate() {
        let req = c.clients[i].acquire(RID, None);
        acquires += 1;
        *st = Cl::Waiting {
            req,
            since: crate::thread_cpu_ns(),
        };
    }
    let mut held = 0usize;
    while !state.iter().all(|s| matches!(s, Cl::Done)) {
        if wall0.elapsed() > RUN_TIMEOUT {
            violations.push("the clients did not finish in time".into());
            break;
        }
        let mut busy = c.sweep();
        for (i, st) in state.iter_mut().enumerate() {
            while let Some(ev) = c.clients[i].next_event() {
                client_events += 1;
                busy = true;
                let now = crate::thread_cpu_ns();
                match (ev, *st) {
                    (ClientEvent::Granted { rid, req }, Cl::Waiting { req: q, since })
                        if rid == RID && req == q =>
                    {
                        acquire_ms.push(ms(now - since));
                        if let Some(other) = holder.replace(i) {
                            violations.push(format!(
                                "client {i} was granted while client {other} held the lock"
                            ));
                        }
                        if let Some(m) = mark.take() {
                            handover_ms.push(ms(now - m));
                        }
                        *st = Cl::Holding { req };
                    }
                    (ClientEvent::Released { rid, req }, Cl::Releasing { req: q })
                        if rid == RID && req == q =>
                    {
                        *st = if acquires < 2 * ACQUIRES {
                            acquires += 1;
                            Cl::Waiting {
                                req: c.clients[i].acquire(RID, None),
                                since: crate::thread_cpu_ns(),
                            }
                        } else {
                            Cl::Done
                        };
                    }
                    (ev, now_st) => {
                        violations.push(format!("client {i} got {ev:?} while {now_st:?}"))
                    }
                }
            }
        }
        // A release goes out only once a sweep moved nothing and every
        // client event was seen, so the other client's request has
        // reached its quorum and an overlapping grant cannot slip by.
        if busy {
            continue;
        }
        for i in 0..state.len() {
            if let Cl::Holding { req } = state[i] {
                c.hold(holds[held % holds.len()]);
                held += 1;
                holder = None;
                // A handover only exists when the other client waits.
                mark = matches!(state[1 - i], Cl::Waiting { .. }).then(crate::thread_cpu_ns);
                c.clients[i].release(RID, req);
                state[i] = Cl::Releasing { req };
            }
        }
    }
    let run_s = (crate::thread_cpu_ns() - cpu0) as f64 / 1e9;
    let wall_s = wall0.elapsed().as_secs_f64();
    let after = c.counts();
    Ok(Rep {
        setup_s,
        run_s,
        wall_s,
        hop_ms,
        counts: before
            .iter()
            .zip(&after)
            .map(|(a, b)| since(a, b))
            .collect(),
        acquires,
        acquire_ms,
        handover_ms,
        client_events,
        violations,
        poll: c.poll.take(),
    })
}

fn check(reps: &[Rep], report: &mut Report) {
    for r in reps {
        for v in &r.violations {
            report.problem(v.clone());
        }
        let releases: u64 = r.counts.iter().map(|c| c.node.releases).sum();
        let seen = r.acquire_ms.len() as u64;
        if r.grants() != r.acquires || seen != r.acquires || releases != r.acquires {
            report.problem(format!(
                "{} acquires, {} grants at the sites, {seen} seen by the clients, {releases} \
                 releases: not every acquire resolved once",
                r.acquires,
                r.grants()
            ));
        }
        for c in &r.counts {
            if c.node.bad_frames > 0 || c.suspicions > 0 {
                report.problem(format!(
                    "{} bad frames, {} suspicions on a fault-free run",
                    c.node.bad_frames, c.suspicions
                ));
            }
        }
        if r.signature() != reps[0].signature() {
            report.problem("tcp-handover counts differ between repetitions of one seed".into());
        }
        report.attempted += r.acquires;
    }
}

fn summarize(reps: &[Rep], report: &mut Report) -> Summary {
    let med = |f: &dyn Fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let first = &reps[0];
    let grants = first.grants() as f64;
    let data_sent: u64 = first.counts.iter().map(|c| c.data_sent).sum();
    if reps.iter().any(|r| r.handover_ms.is_empty()) {
        report.problem("a repetition observed no handover".into());
    }
    for (k, r) in reps.iter().enumerate() {
        let show = |v: &[f64], p: f64| stats::tail(v, p).map_or(0.0, |t| t.value);
        report.note(format!(
            "rep {k}: setup {:.4} s, run {:.4} CPU s, hop {:.4} ms, acquire p50 {:.4} p99 {:.4} ms, handover p50 {:.4} p99 {:.4} ms",
            r.setup_s,
            r.run_s,
            r.hop_ms,
            show(&r.acquire_ms, 50.0),
            show(&r.acquire_ms, 99.0),
            show(&r.handover_ms, 50.0),
            show(&r.handover_ms, 99.0),
        ));
    }
    let run_s = med(&|r| r.run_s);
    report.note(format!(
        "{} repetitions, {} grants each, median run {run_s} CPU s, median hop {} CPU ms",
        reps.len(),
        first.grants(),
        med(&|r| r.hop_ms)
    ));
    Summary {
        setup_s: med(&|r| r.setup_s),
        grants_per_s: grants / run_s,
        acquire: (
            stats::median_pct(reps.iter().map(|r| &r.acquire_ms[..]), 50.0),
            stats::median_pct(reps.iter().map(|r| &r.acquire_ms[..]), 99.0),
        ),
        handover: (
            stats::median_pct(reps.iter().map(|r| &r.handover_ms[..]), 50.0),
            stats::median_pct(reps.iter().map(|r| &r.handover_ms[..]), 99.0),
        ),
        handover_t: med(&|r| stats::p50(&r.handover_ms).map_or(0.0, |p| p.value) / r.hop_ms),
        msgs_per_grant: data_sent as f64 / grants.max(1.0),
        events_per_s: med(&|r| {
            let frames: u64 = r.counts.iter().map(|c| c.node.frames_in).sum();
            (frames + r.client_events) as f64 / r.run_s
        }),
        peak_rss_mb: crate::own_peak_rss_mb(),
    }
}

/// Runs `tcp-handover`.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let fwd = run.forwarding;
    let budget = if run.trace {
        run.seconds as f64 / 2.0
    } else {
        run.seconds as f64
    };
    let plain_node = |site: u32, cfg: NodeConfig| {
        let stack = build_stack(SiteId(site), &wire::serve_stack(site, SITES, fwd));
        Node::new(TcpTransport::new(), stack, cfg)
    };
    let plain_shards: fn(&ServeStack) -> usize = |p| p.inner().inner().shard_count();
    let mut plain = Vec::new();
    let t0 = Instant::now();
    while plain.len() < MIN_REPS || t0.elapsed().as_secs_f64() < budget {
        plain.push(rep(&plain_node, plain_shards, run.seed, false)?);
    }
    check(&plain, &mut report);
    let summary = summarize(&plain, &mut report);
    if !run.trace {
        report.end_to_end(&summary);
        return Ok(report);
    }

    let traced_node = |site: u32, cfg: NodeConfig| {
        let stack = trace::build_traced_stack(SiteId(site), &wire::serve_stack(site, SITES, fwd));
        Node::new(TimedTransport::new(TcpTransport::new()).0, stack, cfg)
    };
    let mut traced = Vec::new();
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < budget {
        // Each repetition resets the spans when its window opens, so the
        // per-layer numbers describe the last window.
        traced.push(rep(&traced_node, trace::live_shards, run.seed, true)?);
    }
    check(&traced, &mut report);
    if traced[0].signature() != plain[0].signature() {
        report.problem("the traced stack did not reproduce the untraced counts".into());
    }
    let last = traced.last().expect("at least one traced repetition");
    let median_run =
        |reps: &[Rep]| stats::median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    report.layers = loopstack::stack_layers(
        last.poll.as_ref().expect("a traced repetition"),
        &last.counts,
        last.grants(),
        last.wall_s,
        median_run(&traced) / median_run(&plain) - 1.0,
    )?;
    Ok(report)
}
