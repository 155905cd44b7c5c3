//! Spans kept in memory, and the timing shims that record them.
//!
//! Every shim here times calls into one layer's public API from outside
//! and changes nothing it forwards, so a traced stack must reproduce an
//! untraced run's counts exactly (the loop-stack workload checks that).
//! Spans nest on a per-thread stack; a span's self time is its duration
//! minus the time its child spans cover. Only per-layer aggregates are
//! kept, and they are read out when the run ends.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use qmx_core::delay_optimal::Body;
use qmx_core::{
    AbortCounters, DelayOptimal, Detector, DetectorCounters, Effects, LockSpace, Msg, MsgKind,
    MsgMeta, Packet, Protocol, Reliable, ResMsg, ResourceId, SiteId, TransportCounters,
};
use qmx_runtime::stack::{RingMajoritySource, ServeMsg, StackConfig};
use qmx_runtime::transport::{Conn, Listener, Transport};

/// A layer that gets its own span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Node::poll`, timed by the benchmark's own poll loop.
    Node = 0,
    /// Socket calls through `runtime::tcp` (`Conn`/`Listener`).
    Tcp,
    /// `core::detector`.
    Detector,
    /// `core::transport` (`Reliable`).
    Reliable,
    /// `core::lockspace`.
    LockSpace,
    /// `core::delay_optimal`.
    Protocol,
    /// `qmx-client` (`ClientCore::poll`).
    Client,
}

const LAYERS: usize = 7;

/// Aggregate of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Message tallies of the innermost protocol layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Sends per [`MsgKind`], indexed like `MsgKind::ALL`.
    pub kinds: [u64; 9],
    /// Replies forwarded by the previous holder (the `T` path).
    pub forwarded: u64,
    /// Replies an arbiter sent on receiving a release (the `2T` path).
    pub arbiter_handoffs: u64,
}

struct Open {
    layer: usize,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Open>,
    totals: [Totals; LAYERS],
    tally: Tally,
    /// Inter-site messages as handed to the node, for the codec round
    /// trip.
    frames: Vec<ServeMsg>,
    tcp: TcpCounts,
}

/// Socket-call counts of the `runtime::tcp` shim.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpCounts {
    /// `Conn::send_bytes` calls.
    pub sends: u64,
    /// `Conn::recv_bytes` calls.
    pub recvs: u64,
    /// Receives that found nothing.
    pub empty_recvs: u64,
    /// Bytes handed to `send_bytes`.
    pub bytes_out: u64,
    /// `Transport::wait` calls.
    pub waits: u64,
    /// Wall time inside `Transport::wait`, ns.
    pub wait_ns: u64,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Messages kept for the codec round trip; enough for stable per-frame
/// timings without holding a whole run in memory.
const FRAME_CAP: usize = 50_000;

/// Runs `f` inside a span of `layer`, returning its result and the span's
/// self time in ns.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
    STATE.with(|s| {
        s.borrow_mut().stack.push(Open {
            layer: layer as usize,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let r = f();
    let end = Instant::now();
    let self_ns = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let open = s.stack.pop().expect("span stack underflow");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let own = dur.saturating_sub(open.child_ns);
        let t = &mut s.totals[open.layer];
        t.calls += 1;
        t.self_ns += own;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
        }
        own
    });
    (r, self_ns)
}

/// Per-layer totals so far.
pub fn totals(layer: Layer) -> Totals {
    STATE.with(|s| s.borrow().totals[layer as usize])
}

/// Protocol message tallies so far.
pub fn tally() -> Tally {
    STATE.with(|s| s.borrow().tally)
}

/// Socket-call counts so far.
pub fn tcp_counts() -> TcpCounts {
    STATE.with(|s| s.borrow().tcp)
}

/// Adds one `Transport::wait` of `ns` wall time.
pub fn count_wait(ns: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.tcp.waits += 1;
        s.tcp.wait_ns += ns;
    });
}

/// Takes the recorded inter-site messages.
pub fn take_frames() -> Vec<ServeMsg> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().frames))
}

/// Clears everything recorded on this thread.
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::default());
}

/// What a shim records about the sends of the layer it wraps: the
/// innermost protocol's messages are counted by kind, the outermost
/// layer's are sampled as frames, and the envelopes in between are left
/// alone.
pub trait Observed {
    /// Looks at `sends`, made by `site` during one call; `on_release` is
    /// set when that call delivered a release message.
    fn observe(site: SiteId, sends: &[(SiteId, Self)], on_release: bool)
    where
        Self: Sized,
    {
        let _ = (site, sends, on_release);
    }
}

impl Observed for Packet<ResMsg<Msg>> {}
impl Observed for ResMsg<Msg> {}

/// The outermost layer's sends are exactly the frames the node writes to
/// other sites; a sample of them is kept for the codec round trip.
impl Observed for ServeMsg {
    fn observe(site: SiteId, sends: &[(SiteId, Self)], _on_release: bool) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            for (to, m) in sends {
                if *to != site && s.frames.len() < FRAME_CAP {
                    s.frames.push(m.clone());
                }
            }
        });
    }
}

impl Observed for Msg {
    fn observe(site: SiteId, sends: &[(SiteId, Self)], on_release: bool) {
        STATE.with(|s| {
            let t = &mut s.borrow_mut().tally;
            for (_, m) in sends {
                let k = MsgKind::ALL
                    .iter()
                    .position(|&k| k == m.kind())
                    .expect("known kind");
                t.kinds[k] += 1;
                if let Body::Reply { arbiter, .. } = m.body {
                    if arbiter != site {
                        t.forwarded += 1;
                    } else if on_release {
                        t.arbiter_handoffs += 1;
                    }
                }
            }
        });
    }
}

/// A `Protocol` that times every state-changing call into `inner` as a
/// span of `layer` and forwards everything unchanged.
#[derive(Debug, Clone)]
pub struct Traced<P> {
    inner: P,
    layer: Layer,
}

impl<P> Traced<P> {
    /// Wraps `inner`.
    pub fn new(layer: Layer, inner: P) -> Self {
        Traced { inner, layer }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Traced<P>
where
    P::Msg: Observed,
{
    fn timed<R>(
        &mut self,
        fx: &mut Effects<P::Msg>,
        on_release: bool,
        f: impl FnOnce(&mut P, &mut Effects<P::Msg>) -> R,
    ) -> R {
        let before = fx.sends().len();
        let site = self.inner.site();
        let (r, _) = span(self.layer, || f(&mut self.inner, fx));
        P::Msg::observe(site, &fx.sends()[before..], on_release);
        r
    }
}

impl<P: Protocol> Protocol for Traced<P>
where
    P::Msg: Observed,
{
    type Msg = P::Msg;

    fn site(&self) -> SiteId {
        self.inner.site()
    }
    fn on_start(&mut self, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_start(fx))
    }
    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.request_cs(fx))
    }
    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.release_cs(fx))
    }
    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        let on_release = msg.kind() == MsgKind::Release;
        self.timed(fx, on_release, |p, fx| p.handle(from, msg, fx))
    }
    fn in_cs(&self) -> bool {
        self.inner.in_cs()
    }
    fn wants_cs(&self) -> bool {
        self.inner.wants_cs()
    }
    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        self.timed(fx, false, |p, fx| p.abort_cs(fx))
    }
    fn abortable(&self) -> bool {
        self.inner.abortable()
    }
    fn set_deadline(&mut self, deadline: Option<u64>) {
        self.inner.set_deadline(deadline)
    }
    fn abort_counters(&self) -> Option<AbortCounters> {
        self.inner.abort_counters()
    }
    fn request_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.request_cs_r(rid, fx))
    }
    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.release_cs_r(rid, fx))
    }
    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        self.timed(fx, false, |p, fx| p.abort_cs_r(rid, fx))
    }
    fn in_cs_r(&self, rid: ResourceId) -> bool {
        self.inner.in_cs_r(rid)
    }
    fn wants_cs_r(&self, rid: ResourceId) -> bool {
        self.inner.wants_cs_r(rid)
    }
    fn set_deadline_r(&mut self, rid: ResourceId, deadline: Option<u64>) {
        self.inner.set_deadline_r(rid, deadline)
    }
    fn drain_aborted_resources(&mut self) -> Vec<ResourceId> {
        span(self.layer, || self.inner.drain_aborted_resources()).0
    }
    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_site_failure(failed, fx))
    }
    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_site_suspected(site, fx))
    }
    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_site_restored(site, fx))
    }
    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_peer_rejoined(site, incarnation, fx))
    }
    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_recover(fx))
    }
    fn on_rejoin_complete(&mut self, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_rejoin_complete(fx))
    }
    fn rejoin_pending(&self) -> bool {
        self.inner.rejoin_pending()
    }
    fn set_incarnation(&mut self, incarnation: u64) {
        self.inner.set_incarnation(incarnation)
    }
    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        self.inner.set_peer_universe(peers)
    }
    fn set_now(&mut self, now: u64) {
        self.inner.set_now(now)
    }
    fn next_timer(&self) -> Option<u64> {
        self.inner.next_timer()
    }
    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        self.timed(fx, false, |p, fx| p.on_timer(now, fx))
    }
    fn transport_counters(&self) -> Option<TransportCounters> {
        self.inner.transport_counters()
    }
    fn detector_counters(&self) -> Option<DetectorCounters> {
        self.inner.detector_counters()
    }
}

/// The serving stack with a shim at every layer boundary.
pub type TracedStack = Traced<Detector<Traced<Reliable<Traced<LockSpace<Traced<DelayOptimal>>>>>>>;

/// Builds `site`'s traced stack. Mirrors `qmx_runtime::stack::build_stack`
/// layer for layer; only the shims are added.
pub fn build_traced_stack(site: SiteId, cfg: &StackConfig) -> TracedStack {
    let quorum = cfg.quorum.clone();
    let algo = cfg.algo.clone();
    let n = cfg.sites.len() as u32;
    let reconstruct = cfg.majority_reconstruct;
    let space = LockSpace::new(
        site,
        Arc::new(move |_rid| {
            let shard = if reconstruct {
                DelayOptimal::with_quorum_source(
                    site,
                    algo.clone(),
                    Box::new(RingMajoritySource::new(n)),
                )
            } else {
                DelayOptimal::new(site, quorum.clone(), algo.clone())
            };
            Traced::new(Layer::Protocol, shard)
        }),
    );
    let peers: Vec<SiteId> = cfg.sites.iter().copied().filter(|&s| s != site).collect();
    let reliable = Reliable::new(Traced::new(Layer::LockSpace, space), cfg.transport);
    Traced::new(
        Layer::Detector,
        Detector::new(Traced::new(Layer::Reliable, reliable), peers, cfg.detector),
    )
}

/// Shards the lock space of a traced stack has created.
pub fn live_shards(stack: &TracedStack) -> usize {
    stack.inner().inner().inner().inner().inner().shard_count()
}

/// A `Conn` shim: times and counts socket calls.
pub struct TimedConn<C> {
    inner: C,
}

impl<C: Conn> Conn for TimedConn<C> {
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.tcp.sends += 1;
            s.tcp.bytes_out += bytes.len() as u64;
        });
        span(Layer::Tcp, || self.inner.send_bytes(bytes)).0
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let r = span(Layer::Tcp, || self.inner.recv_bytes(buf)).0;
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.tcp.recvs += 1;
            if matches!(r, Ok(0)) {
                s.tcp.empty_recvs += 1;
            }
        });
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        span(Layer::Tcp, || self.inner.flush()).0
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }
}

/// A `Listener` shim handing out [`TimedConn`]s.
pub struct TimedListener<L> {
    inner: L,
}

impl<L: Listener> Listener for TimedListener<L> {
    type Conn = TimedConn<L::Conn>;

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        let r = span(Layer::Tcp, || self.inner.poll_accept()).0?;
        Ok(r.map(|inner| TimedConn { inner }))
    }

    fn local_addr(&self) -> String {
        self.inner.local_addr()
    }
}

/// A `Transport` shim sharing its inner transport with the poll loop, so
/// the loop can time `wait` between `Node::poll` calls.
pub struct TimedTransport<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`; the returned handle is the loop's access to it.
    pub fn new(inner: T) -> (Self, Rc<RefCell<T>>) {
        let inner = Rc::new(RefCell::new(inner));
        (
            TimedTransport {
                inner: Rc::clone(&inner),
            },
            inner,
        )
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    type Conn = TimedConn<T::Conn>;
    type Listener = TimedListener<T::Listener>;

    fn listen(&mut self, addr: &str) -> io::Result<Self::Listener> {
        Ok(TimedListener {
            inner: self.inner.borrow_mut().listen(addr)?,
        })
    }

    fn connect(&mut self, addr: &str) -> io::Result<Self::Conn> {
        let inner = span(Layer::Tcp, || self.inner.borrow_mut().connect(addr)).0?;
        Ok(TimedConn { inner })
    }

    fn now_us(&mut self) -> u64 {
        self.inner.borrow_mut().now_us()
    }

    // `Node::poll` never waits; the poll loop that owns the returned
    // handle times `wait` itself.
    fn wait(&mut self, until: Option<u64>) {
        self.inner.borrow_mut().wait(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        reset();
        let spin = |us: u64| {
            let t = Instant::now();
            while t.elapsed().as_micros() < us as u128 {}
        };
        span(Layer::Node, || {
            spin(200);
            span(Layer::Detector, || spin(300));
        });
        let node = totals(Layer::Node);
        let det = totals(Layer::Detector);
        assert_eq!((node.calls, det.calls), (1, 1));
        assert!(det.self_ns >= 300_000);
        assert!(
            node.self_ns >= 200_000 && node.self_ns < 300_000,
            "{}",
            node.self_ns
        );
        reset();
    }
}
