//! `loop-stack`: the deployed stack on a 9-site loopback cluster in one
//! thread on the virtual clock.
//!
//! The stack is `Node` + `Detector<Reliable<LockSpace<DelayOptimal>>>` +
//! frame and wire codec, with the timer constants `qmxctl serve` uses.
//! Two closed-loop clients per site acquire a Zipf-skewed set of 16
//! resources. Link delays are drawn from `[T/2, 3T/2)` with `T = 1000`
//! virtual µs, so virtual times are exact per seed but not all equal.
//!
//! With no sockets and no sleeps, the run is pure CPU and every count is
//! exact: each repetition replays the same seed from a fresh cluster and
//! must reproduce the same counts. Throughput is taken over the thread's
//! CPU seconds, which keeps other tenants' load out of it. The untraced cluster is the
//! program's own `LoopCluster`; the traced one mirrors it with a shim at
//! every layer and must reproduce its counts exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use qmx_client::{ClientCore, ClientEvent, ClusterConfig, LoopCluster};
use qmx_core::wire::Wire;
use qmx_core::{Protocol, ResourceId, SiteId};
use qmx_runtime::loopback::{LoopConn, LoopNet, LoopTransport};
use qmx_runtime::node::{Node, NodeConfig, NodeCounters};
use qmx_runtime::stack::StackConfig;
use qmx_runtime::transport::{Conn, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, Reservoir};
use crate::trace::{self, Layer, TimedTransport, TracedStack};
use crate::{Layers, Report, Run, Summary};

const SITES: u32 = 9;
const CLIENTS_PER_SITE: u32 = 2;
const RESOURCES: u32 = 16;
const ZIPF: f64 = 0.9;
/// Mean one-way link delay, virtual µs.
const T_US: u64 = 1_000;
const HOLD_US: u64 = 1_000;
const THINK_MEAN_US: u64 = 2_000;
/// Virtual time one repetition runs clients for.
const VIRTUAL_US: u64 = 3_000_000;
/// Longest single clock step while nothing is in flight.
const MAX_STEP_US: u64 = 10_000;
const MIN_REPS: usize = 3;

/// Per-site counts the metrics need, read the same way from either
/// cluster.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteCounts {
    pub node: NodeCounters,
    pub data_sent: u64,
    pub acks: u64,
    pub retransmissions: u64,
    pub heartbeats: u64,
    pub suspicions: u64,
    pub shards: u64,
}

pub fn site_counts<P: Protocol>(node: NodeCounters, stack: &P, shards: usize) -> SiteCounts {
    let rel = stack.transport_counters().unwrap_or_default();
    let det = stack.detector_counters().unwrap_or_default();
    SiteCounts {
        node,
        data_sent: rel.data_sent,
        acks: rel.acks_sent,
        retransmissions: rel.retransmissions,
        heartbeats: det.heartbeats_sent,
        suspicions: det.suspicions,
        shards: shards as u64,
    }
}

/// What the client loop needs from a cluster.
trait Cluster {
    fn net(&self) -> &LoopNet;
    fn run_for(&mut self, dur_us: u64);
    fn add_client(&mut self, site: u32) -> usize;
    fn client(&mut self, handle: usize) -> &mut ClientCore<LoopConn>;
    fn counts(&self, site: u32) -> SiteCounts;
}

impl Cluster for LoopCluster {
    fn net(&self) -> &LoopNet {
        LoopCluster::net(self)
    }
    fn run_for(&mut self, dur_us: u64) {
        LoopCluster::run_for(self, dur_us)
    }
    fn add_client(&mut self, site: u32) -> usize {
        LoopCluster::add_client(self, site)
    }
    fn client(&mut self, handle: usize) -> &mut ClientCore<LoopConn> {
        LoopCluster::client(self, handle)
    }
    fn counts(&self, site: u32) -> SiteCounts {
        let node = self.node(site).expect("no site is ever killed");
        let shards = node.protocol().inner().inner().shard_count();
        site_counts(node.counters(), node.protocol(), shards)
    }
}

/// `LoopCluster` with the traced stack: the same boot order, addresses,
/// polling and clock stepping, plus a span around every `Node::poll`,
/// every call the nodes make through the `Conn` seam, and every
/// `ClientCore::poll`.
struct TracedCluster {
    net: LoopNet,
    nodes: Vec<Node<TimedTransport<LoopTransport>, TracedStack>>,
    clients: Vec<ClientCore<LoopConn>>,
    next_client_id: u64,
    poll: PollStats,
}

/// What a traced poll loop records about `Node::poll` and
/// `ClientCore::poll`.
pub struct PollStats {
    /// `Node::poll` calls.
    pub polls: u64,
    /// Of those, polls that moved no frame.
    pub idle_polls: u64,
    /// Self time of each `Node::poll`, ns.
    pub poll_self_ns: Reservoir,
    /// Duration of each `ClientCore::poll`, µs.
    pub client_poll_us: Reservoir,
}

impl PollStats {
    pub fn new() -> Self {
        PollStats {
            polls: 0,
            idle_polls: 0,
            poll_self_ns: Reservoir::new(200_000),
            client_poll_us: Reservoir::new(200_000),
        }
    }

    /// Polls `node` inside a span; a poll that moved no frame is idle.
    pub fn node<T: Transport, P: Protocol>(&mut self, node: &mut Node<T, P>) -> Option<u64>
    where
        P::Msg: Wire,
    {
        let before = node.counters();
        let (w, self_ns) = trace::span(Layer::Node, || node.poll());
        let after = node.counters();
        self.polls += 1;
        if (after.frames_in, after.frames_out) == (before.frames_in, before.frames_out) {
            self.idle_polls += 1;
        }
        self.poll_self_ns.push(self_ns as f64);
        w
    }

    /// Polls `client` inside a span.
    pub fn client<C: Conn>(&mut self, client: &mut ClientCore<C>) {
        let (_, ns) = trace::span(Layer::Client, || client.poll());
        self.client_poll_us.push(ns as f64 / 1e3);
    }
}

fn addr_of(site: u32) -> String {
    format!("site-{site}")
}

impl TracedCluster {
    fn new(cfg: &ClusterConfig) -> Self {
        let net = LoopNet::new(cfg.latency_us);
        let n = cfg.quorums.len() as u32;
        let nodes = (0..n)
            .map(|site| {
                let stack_cfg = StackConfig {
                    sites: (0..n).map(SiteId).collect(),
                    quorum: cfg.quorums[site as usize].clone(),
                    algo: cfg.algo.clone(),
                    transport: cfg.transport,
                    detector: cfg.detector,
                    majority_reconstruct: cfg.majority_reconstruct,
                };
                let stack = trace::build_traced_stack(SiteId(site), &stack_cfg);
                let mut node_cfg = NodeConfig::new(
                    SiteId(site),
                    addr_of(site),
                    (0..n)
                        .filter(|&p| p != site)
                        .map(|p| (SiteId(p), addr_of(p)))
                        .collect(),
                );
                node_cfg.reconnect_min_us = cfg.reconnect_min_us;
                node_cfg.reconnect_max_us = cfg.reconnect_max_us;
                let (transport, _) = TimedTransport::new(net.transport());
                Node::new(transport, stack, node_cfg).expect("fresh cluster boot")
            })
            .collect();
        TracedCluster {
            net,
            nodes,
            clients: Vec::new(),
            next_client_id: 1,
            poll: PollStats::new(),
        }
    }

    fn settle(&mut self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        for node in &mut self.nodes {
            if let Some(w) = self.poll.node(node) {
                wake = Some(wake.map_or(w, |cur: u64| cur.min(w)));
            }
        }
        for c in &mut self.clients {
            self.poll.client(c);
        }
        wake
    }
}

impl Cluster for TracedCluster {
    fn net(&self) -> &LoopNet {
        &self.net
    }

    // The same stepping as `LoopCluster::run_for`.
    fn run_for(&mut self, dur_us: u64) {
        let end = self.net.now().saturating_add(dur_us);
        let mut stuck = 0u32;
        loop {
            let wake = self.settle();
            let now = self.net.now();
            let mut next = self.net.next_event();
            if let Some(w) = wake {
                next = Some(match next {
                    Some(e) if e <= w => e,
                    _ => w,
                });
            }
            match next {
                Some(t) if t <= end => {
                    if t <= now {
                        stuck += 1;
                        if stuck > 64 {
                            self.net.advance_to(now + 1);
                            stuck = 0;
                        }
                        continue;
                    }
                    stuck = 0;
                    self.net.advance_to(t);
                }
                _ => {
                    if now < end {
                        self.net.advance_to(end);
                        self.settle();
                    }
                    return;
                }
            }
        }
    }

    fn add_client(&mut self, site: u32) -> usize {
        let id = self.next_client_id;
        self.next_client_id += 1;
        let mut t = self.net.transport();
        let core = ClientCore::connect(&mut t, &addr_of(site), id).expect("connect to a live site");
        self.clients.push(core);
        self.clients.len() - 1
    }

    fn client(&mut self, handle: usize) -> &mut ClientCore<LoopConn> {
        &mut self.clients[handle]
    }

    fn counts(&self, site: u32) -> SiteCounts {
        let node = &self.nodes[site as usize];
        let shards = trace::live_shards(node.protocol());
        site_counts(node.counters(), node.protocol(), shards)
    }
}

/// The cluster shape: ring-majority quorums as `qmxctl serve` builds them,
/// and its timer and reconnect constants.
fn config(forwarding: bool) -> ClusterConfig {
    let mut c = ClusterConfig::ring_majority(SITES);
    let serve = crate::wire::serve_stack(0, SITES, forwarding);
    c.algo = serve.algo;
    c.transport = serve.transport;
    c.detector = serve.detector;
    c.majority_reconstruct = serve.majority_reconstruct;
    c.latency_us = T_US;
    let defaults = NodeConfig::new(SiteId(0), String::new(), Vec::new());
    c.reconnect_min_us = defaults.reconnect_min_us;
    c.reconnect_max_us = defaults.reconnect_max_us;
    c
}

#[derive(Debug, Clone, Copy)]
enum Vc {
    Thinking { until: u64 },
    Waiting { rid: u32, req: u64, since: u64 },
    Holding { rid: u32, req: u64, until: u64 },
    Releasing,
    Done,
}

/// One repetition's results. Everything but the two times must be
/// identical between repetitions of one seed.
struct Rep {
    /// Wall time from boot until every link is up.
    setup_s: f64,
    /// CPU time of the client run.
    run_s: f64,
    /// Wall time of the whole repetition, boot included.
    wall_s: f64,
    counts: Vec<SiteCounts>,
    /// Acquires the clients issued.
    acquires: u64,
    acquire_us: Vec<u64>,
    handover_us: Vec<u64>,
    client_events: u64,
    end_us: u64,
    violations: Vec<String>,
}

impl Rep {
    fn signature(&self) -> (Vec<SiteCounts>, u64, &[u64], &[u64], u64, u64) {
        (
            self.counts.clone(),
            self.acquires,
            &self.acquire_us,
            &self.handover_us,
            self.client_events,
            self.end_us,
        )
    }

    fn grants(&self) -> u64 {
        self.counts.iter().map(|c| c.node.grants).sum()
    }
}

fn exp_us(rng: &mut StdRng, mean: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    (-(1.0 - u).ln() * mean as f64) as u64
}

fn zipf_rid(rng: &mut StdRng, weights: &[f64], total: f64) -> u32 {
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i as u32;
        }
        x -= *w;
    }
    weights.len() as u32 - 1
}

/// Boots a cluster with `make`, settles it, and drives the closed-loop
/// clients for `VIRTUAL_US`.
fn rep<C: Cluster>(make: impl FnOnce() -> C, seed: u64) -> Result<(Rep, C), String> {
    let t0 = Instant::now();
    let mut c = make();
    let handles: Vec<usize> = (0..SITES)
        .flat_map(|s| (0..CLIENTS_PER_SITE).map(move |_| s))
        .map(|s| c.add_client(s))
        .collect();
    let mut violations = Vec::new();
    let mut welcomed = vec![false; handles.len()];
    // Boot ends when every link is up, every session accepted, and every
    // client welcomed.
    loop {
        c.run_for(T_US / 4);
        for (i, &h) in handles.iter().enumerate() {
            for ev in c.client(h).drain_events() {
                match ev {
                    ClientEvent::Welcome { .. } => welcomed[i] = true,
                    other => violations.push(format!("unexpected {other:?} during boot")),
                }
            }
        }
        let links_up = (0..SITES).all(|s| {
            let n = c.counts(s).node;
            n.peer_connects >= u64::from(SITES - 1)
                && n.sessions_opened >= u64::from(SITES - 1 + CLIENTS_PER_SITE)
        });
        if links_up && welcomed.iter().all(|&w| w) {
            break;
        }
        if c.net().now() > 1_000_000 {
            return Err("the loopback cluster did not settle".into());
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu0 = crate::thread_cpu_s();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..RESOURCES)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let start = c.net().now();
    let end = start + VIRTUAL_US;
    let mut vcs: Vec<Vc> = handles
        .iter()
        .map(|_| Vc::Thinking {
            until: start + exp_us(&mut rng, THINK_MEAN_US),
        })
        .collect();
    let mut holders: BTreeMap<u32, usize> = BTreeMap::new();
    let mut marks: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut acquire_us, mut handover_us) = (Vec::new(), Vec::new());
    let mut client_events = 0u64;
    let mut acquires = 0u64;
    loop {
        let now = c.net().now();
        for (i, &h) in handles.iter().enumerate() {
            for ev in c.client(h).drain_events() {
                client_events += 1;
                match (ev, vcs[i]) {
                    (
                        ClientEvent::Granted { rid, req },
                        Vc::Waiting {
                            rid: r,
                            req: q,
                            since,
                        },
                    ) if rid.0 == r && req == q => {
                        acquire_us.push(now - since);
                        if let Some(other) = holders.insert(r, i) {
                            violations.push(format!(
                                "resource {r} granted to client {i} while client {other} held it"
                            ));
                        }
                        if let Some(m) = marks.remove(&r) {
                            handover_us.push(now - m);
                        }
                        vcs[i] = Vc::Holding {
                            rid: r,
                            req,
                            until: now + HOLD_US,
                        };
                    }
                    (ClientEvent::Released { .. }, Vc::Releasing) => {
                        vcs[i] = if now < end {
                            Vc::Thinking {
                                until: now + exp_us(&mut rng, THINK_MEAN_US),
                            }
                        } else {
                            Vc::Done
                        };
                    }
                    (ev, state) => {
                        violations.push(format!("client {i} got {ev:?} while {state:?}"))
                    }
                }
            }
        }
        for (i, &h) in handles.iter().enumerate() {
            match vcs[i] {
                Vc::Thinking { .. } if now >= end => vcs[i] = Vc::Done,
                Vc::Thinking { until } if until <= now => {
                    let rid = zipf_rid(&mut rng, &weights, total);
                    let req = c.client(h).acquire(ResourceId(rid), None);
                    acquires += 1;
                    vcs[i] = Vc::Waiting {
                        rid,
                        req,
                        since: now,
                    };
                }
                Vc::Holding { rid, req, until } if until <= now => {
                    c.client(h).release(ResourceId(rid), req);
                    holders.remove(&rid);
                    // A handover only exists when someone already waits.
                    let waiting = vcs
                        .iter()
                        .any(|v| matches!(v, Vc::Waiting { rid: r, .. } if *r == rid));
                    if waiting {
                        marks.insert(rid, now);
                    } else {
                        marks.remove(&rid);
                    }
                    vcs[i] = Vc::Releasing;
                }
                _ => {}
            }
        }
        if vcs.iter().all(|v| matches!(v, Vc::Done)) {
            break;
        }
        if now > end + 1_000_000 {
            violations.push("clients did not finish within a virtual second of the end".into());
            break;
        }
        let timer = vcs
            .iter()
            .filter_map(|v| match *v {
                Vc::Thinking { until } | Vc::Holding { until, .. } => Some(until),
                _ => None,
            })
            .min();
        let next = [c.net().next_event(), timer, Some(now + MAX_STEP_US)]
            .into_iter()
            .flatten()
            .min()
            .expect("a step bound");
        c.net().set_latency(T_US / 2 + rng.gen_range(0..T_US));
        c.run_for(next.saturating_sub(now).max(1));
    }
    let run_s = crate::thread_cpu_s() - cpu0;
    let wall_s = t0.elapsed().as_secs_f64();
    let counts = (0..SITES).map(|s| c.counts(s)).collect();
    let end_us = c.net().now();
    Ok((
        Rep {
            setup_s,
            run_s,
            wall_s,
            counts,
            acquires,
            acquire_us,
            handover_us,
            client_events,
            end_us,
            violations,
        },
        c,
    ))
}

fn summarize(reps: &[Rep], rep: &mut Report) -> Summary {
    let first = &reps[0];
    let ms = |v: &[u64]| v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>();
    let acquire = ms(&first.acquire_us);
    let handover = ms(&first.handover_us);
    let none = stats::Pct {
        p: 50.0,
        value: 0.0,
        n: 0,
    };
    let run_s = stats::median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let grants = first.grants();
    let frames_in: u64 = first.counts.iter().map(|c| c.node.frames_in).sum();
    let data_sent: u64 = first.counts.iter().map(|c| c.data_sent).sum();
    let h50 = stats::p50(&handover).unwrap_or(none);
    if h50.n == 0 {
        rep.problem("no handover was observed".into());
    }
    rep.note(format!(
        "{} repetitions, {grants} grants each, median run {run_s} CPU s",
        reps.len()
    ));
    Summary {
        setup_s: stats::median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        grants_per_s: grants as f64 / run_s,
        acquire: (
            stats::p50(&acquire).unwrap_or(none),
            stats::tail(&acquire, 99.0).unwrap_or(none),
        ),
        handover: (h50, stats::tail(&handover, 99.0).unwrap_or(none)),
        handover_t: h50.value * 1e3 / T_US as f64,
        msgs_per_grant: data_sent as f64 / grants.max(1) as f64,
        events_per_s: (frames_in + first.client_events) as f64 / run_s,
        peak_rss_mb: crate::own_peak_rss_mb(),
    }
}

fn check(reps: &[Rep], rep: &mut Report) {
    for r in reps {
        for v in &r.violations {
            rep.problem(v.clone());
        }
        if r.signature() != reps[0].signature() {
            rep.problem("loop-stack counts differ between repetitions of one seed".into());
        }
        for c in &r.counts {
            if c.node.bad_frames > 0 || c.suspicions > 0 {
                rep.problem(format!(
                    "{} bad frames, {} suspicions on a fault-free run",
                    c.node.bad_frames, c.suspicions
                ));
            }
        }
    }
    let first = &reps[0];
    rep.attempted += reps.iter().map(|r| r.acquires).sum::<u64>();
    let releases: u64 = first.counts.iter().map(|c| c.node.releases).sum();
    let observed = first.acquire_us.len() as u64;
    if first.grants() != first.acquires || observed != first.acquires || releases != first.acquires
    {
        rep.problem(format!(
            "{} acquires, {} grants at the sites, {observed} seen by the clients, {releases} releases: \
             not every acquire resolved once",
            first.acquires,
            first.grants()
        ));
    }
}

/// Runs `loop-stack`.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = config(run.forwarding);
    let budget = if run.trace {
        run.seconds as f64 / 2.0
    } else {
        run.seconds as f64
    };
    let mut plain = Vec::new();
    let t0 = Instant::now();
    while plain.len() < MIN_REPS || t0.elapsed().as_secs_f64() < budget {
        plain.push(rep(|| LoopCluster::new(cfg.clone()), run.seed)?.0);
    }
    check(&plain, &mut report);
    let summary = summarize(&plain, &mut report);
    if !run.trace {
        report.end_to_end(&summary);
        return Ok(report);
    }

    let mut traced = Vec::new();
    let mut wall = 0.0;
    let mut last = None;
    trace::reset();
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < budget {
        // Only the last repetition's spans are kept, so the per-layer
        // numbers describe one repetition.
        trace::reset();
        let (r, c) = rep(|| TracedCluster::new(&cfg), run.seed)?;
        wall = r.wall_s;
        traced.push(r);
        last = Some(c);
    }
    let c = last.expect("at least one traced repetition");
    check(&traced, &mut report);
    if traced[0].signature() != plain[0].signature() {
        report.problem("the traced stack did not reproduce the untraced counts".into());
    }
    let traced_run = stats::median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let plain_run = stats::median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    report.layers = stack_layers(
        &c.poll,
        &traced[0].counts,
        traced[0].grants(),
        wall,
        traced_run / plain_run - 1.0,
    )?;
    Ok(report)
}

/// The per-layer metrics of a traced stack, from the spans recorded since
/// the last `trace::reset`, the poll loop's `poll`, and the per-site
/// `counts` of the same stretch. The self times of every layer, the time
/// spent in `Transport::wait` and `trace.unaccounted_frac` add up to
/// `wall_s`.
pub fn stack_layers(
    poll: &PollStats,
    counts: &[SiteCounts],
    grants: u64,
    wall_s: f64,
    overhead: f64,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    let grants = grants.max(1) as f64;
    let sum = |f: fn(&SiteCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let per_call = |layer| {
        let t = trace::totals(layer);
        t.self_ns as f64 / t.calls.max(1) as f64
    };
    l.set(
        "node.poll_self_us_p50",
        stats::p50(poll.poll_self_ns.samples()).map_or(0.0, |p| p.value / 1e3),
    );
    let tcp = trace::tcp_counts();
    l.set("tcp.wait_calls_per_grant", tcp.waits as f64 / grants);
    l.set("tcp.wait_ms_per_grant", tcp.wait_ns as f64 / 1e6 / grants);
    l.set("tcp.send_calls_per_grant", tcp.sends as f64 / grants);
    l.set("tcp.recv_calls_per_grant", tcp.recvs as f64 / grants);
    l.set(
        "tcp.empty_recv_frac",
        tcp.empty_recvs as f64 / tcp.recvs.max(1) as f64,
    );
    l.set("tcp.bytes_out_per_grant", tcp.bytes_out as f64 / grants);
    l.set("node.polls_per_grant", poll.polls as f64 / grants);
    l.set(
        "node.idle_poll_frac",
        poll.idle_polls as f64 / poll.polls.max(1) as f64,
    );
    l.set(
        "node.frames_in_per_grant",
        sum(|s| s.node.frames_in) / grants,
    );
    l.set(
        "node.frames_out_per_grant",
        sum(|s| s.node.frames_out) / grants,
    );
    l.set("node.bad_frames", sum(|s| s.node.bad_frames));
    let codec = crate::wire::codec_round_trip()?;
    let frames = codec.frames.max(1) as f64;
    l.set("wire.encode_ns_per_frame", codec.encode_ns as f64 / frames);
    l.set("wire.decode_ns_per_frame", codec.decode_ns as f64 / frames);
    l.set("wire.bytes_per_frame", codec.bytes as f64 / frames);
    l.set("detector.self_ns_per_call", per_call(Layer::Detector));
    l.set(
        "detector.heartbeats_per_grant",
        sum(|s| s.heartbeats) / grants,
    );
    l.set("detector.suspicions", sum(|s| s.suspicions));
    l.set("reliable.self_ns_per_call", per_call(Layer::Reliable));
    l.set("reliable.acks_per_grant", sum(|s| s.acks) / grants);
    l.set(
        "reliable.retransmissions_per_grant",
        sum(|s| s.retransmissions) / grants,
    );
    l.set("lockspace.self_ns_per_call", per_call(Layer::LockSpace));
    l.set(
        "lockspace.live_shards",
        sum(|s| s.shards) / counts.len().max(1) as f64,
    );
    l.set("protocol.self_ns_per_call", per_call(Layer::Protocol));
    let tally = trace::tally();
    for (kind, n) in crate::KINDS.iter().zip(tally.kinds) {
        l.set(&format!("protocol.{kind}_per_grant"), n as f64 / grants);
    }
    let handoffs = (tally.forwarded + tally.arbiter_handoffs).max(1) as f64;
    l.set("protocol.forwarded_frac", tally.forwarded as f64 / handoffs);
    l.set(
        "client.poll_us_p50",
        stats::p50(poll.client_poll_us.samples()).map_or(0.0, |p| p.value),
    );
    l.set("trace.overhead_frac", overhead);
    let accounted: u64 = [
        Layer::Node,
        Layer::Tcp,
        Layer::Client,
        Layer::Detector,
        Layer::Reliable,
        Layer::LockSpace,
        Layer::Protocol,
    ]
    .into_iter()
    .map(|layer| trace::totals(layer).self_ns)
    .sum::<u64>()
        + tcp.wait_ns;
    l.set(
        "trace.unaccounted_frac",
        1.0 - accounted as f64 / 1e9 / wall_s,
    );
    Ok(l)
}
