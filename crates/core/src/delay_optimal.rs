//! The delay-optimal quorum-based mutual exclusion algorithm (Cao–Singhal,
//! ICDCS 1998), §3 of the paper, with the §6 fault-tolerance extension.
//!
//! # Roles
//!
//! Every site simultaneously plays two roles:
//!
//! * **Requester** — wants the CS; must collect a `reply` from every member
//!   of its quorum (`req_set`). State: `replied` vector, `failed` flag,
//!   `inq_queue` of deferred inquires, and `tran_stack` of transfer
//!   obligations it must honor when it exits the CS.
//! * **Arbiter** — grants its single permission to one request at a time.
//!   State: `lock` (the request currently holding the permission) and
//!   `req_queue` (pending requests in priority order).
//!
//! # The delay-optimal idea
//!
//! In Maekawa's algorithm a site exiting the CS sends `release` to its
//! arbiters, and each arbiter then sends `reply` to the next requester: two
//! serial hops (`2T`). Here, whenever the *next-in-line* request at an
//! arbiter changes, the arbiter sends a `transfer` naming that request to
//! whoever currently holds its permission. On CS exit, the holder sends the
//! arbiter's `reply` **directly** to the named requester (one hop, `T`) and
//! tells the arbiter what it did via the `release`'s `forwarded_to` field.
//!
//! # Reconstruction notes (the paper's listing is OCR-damaged)
//!
//! The behaviour below is pinned down by the paper's prose, the Theorem 1–3
//! proofs, and the per-case message accounting of §5.2:
//!
//! * An arbiter receiving a request while busy enqueues it; if it became the
//!   queue head, the arbiter sends a `transfer` for it to the lock holder,
//!   a `fail` to the displaced previous head (this `fail` appears in the
//!   §5.2 Case 4/5 counts), and an `inquire` (piggybacked with the transfer,
//!   one wire message) iff the new head has priority over the lock holder and
//!   no inquire is already outstanding (none is sent in §5.2 Case 4, where
//!   the displaced head had already triggered one). A request that did not
//!   become head just gets a `fail` (Cases 1 and 3).
//! * `tran_stack` keeps the newest transfer per arbiter (C.1: pop the top,
//!   discard earlier entries from the same sender): each successive transfer
//!   from an arbiter names its newer queue head, superseding the previous.
//! * All permission-specific messages carry the request timestamp they refer
//!   to. The paper observes that once replies can arrive via proxies, FIFO
//!   channels alone cannot order an `inquire` after the `reply` it refers to;
//!   carrying timestamps (plus the `inq_queue` deferral of A.3/A.6) makes
//!   every stale message detectable regardless of arrival order.
//! * On a `release` that reports no forwarding while requests are queued, the
//!   arbiter grants its new head directly and piggybacks a `transfer` naming
//!   the following request (C.2). On a `release` that reports forwarding to a
//!   request that is *no longer* the head (a higher-priority request slipped
//!   in while the forwarded reply was in flight), the arbiter records the new
//!   lock holder and immediately sends it `inquire`+`transfer` so the
//!   higher-priority request can preempt — this is the race the mutual
//!   exclusion proof's Case 2.2 walks through.
//!
//! # Ablation
//!
//! [`Config::forwarding_enabled`]`= false` disables `transfer` messages and
//! direct forwarding entirely; every grant then flows arbiter-first exactly
//! as in Maekawa's algorithm, restoring the `2T` delay. The experiment
//! harness uses this to show the delay improvement is attributable to the
//! forwarding mechanism alone (same code base, one flag).

use crate::clock::{LamportClock, SeqNum, Timestamp};
use crate::protocol::{AbortCounters, Effects, MsgKind, MsgMeta, Protocol, QuorumSource, SiteId};
use crate::reqqueue::ReqQueue;
use crate::siteset::SiteSet;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Message body of the delay-optimal protocol (seven logical messages; the
/// `transfer` piggybacked on `inquire` and `reply` is folded into those
/// variants, matching the paper's one-wire-message accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// `request(sn, i)`: the sender asks for the receiver's permission.
    Request {
        /// Timestamp of the request.
        ts: Timestamp,
    },
    /// `reply(j)`: grant of arbiter `arbiter`'s permission to request `req`.
    ///
    /// May be sent by the arbiter itself or *forwarded* by the previous
    /// holder of the permission (the delay-optimal path). `transfer`
    /// optionally piggybacks a transfer obligation (A.4, C.2).
    Reply {
        /// Whose permission this grants.
        arbiter: SiteId,
        /// The request being granted.
        req: Timestamp,
        /// Piggybacked transfer: the next request in line at `arbiter`.
        transfer: Option<Timestamp>,
    },
    /// `release(i)`: the sender exited the CS. `forwarded_to` tells the
    /// arbiter whether the sender forwarded this arbiter's permission
    /// (and to which request) or returned it.
    Release {
        /// The exiting site's request (the arbiter's current lock).
        holder_req: Timestamp,
        /// `Some(b)` if the permission was forwarded to request `b`.
        forwarded_to: Option<Timestamp>,
    },
    /// `inquire(j)`: arbiter asks the holder of `holder_req` whether it can
    /// yield. Piggybacks the transfer for the new head (the paper: "whenever
    /// a site sends an inquire in response to a high priority request, the
    /// inquire is always piggybacked with a transfer").
    Inquire {
        /// The inquiring arbiter.
        arbiter: SiteId,
        /// The request currently holding the arbiter's permission.
        holder_req: Timestamp,
        /// Piggybacked transfer beneficiary (next in line), if forwarding on.
        transfer: Option<Timestamp>,
    },
    /// `fail(j)`: arbiter tells the requester of `req` it is not next in
    /// line.
    Fail {
        /// The refusing arbiter.
        arbiter: SiteId,
        /// The request being refused.
        req: Timestamp,
    },
    /// `yield(i)`: the holder of request `req` relinquishes the receiver's
    /// permission so a higher-priority request can take it.
    Yield {
        /// The yielding site's request.
        req: Timestamp,
    },
    /// `transfer(k, j)`: arbiter `arbiter` asks the holder of `holder_req`
    /// to forward its reply to request `beneficiary` upon CS exit.
    Transfer {
        /// The arbiter on whose behalf the reply will be forwarded.
        arbiter: SiteId,
        /// The next request in line at `arbiter`.
        beneficiary: Timestamp,
        /// The request currently holding the arbiter's permission.
        holder_req: Timestamp,
    },
    /// Withdrawal of request `req`: remove it from the queue and, if it
    /// holds the permission, release it (without re-queueing).
    ///
    /// Not one of the paper's seven messages: it is required by the §6
    /// quorum-reconstruction path the paper leaves implicit. When a site
    /// abandons a request (because a quorum member failed and it re-issues
    /// against a new quorum), its old request would otherwise linger in old
    /// arbiters' queues — or worse, be granted and never released. The
    /// requester also sends this in response to a grant for a request it has
    /// already abandoned. Counted as a `release` for accounting purposes.
    Relinquish {
        /// The withdrawn request.
        req: Timestamp,
    },
    /// Client-initiated abort of request `req` (an explicit
    /// [`Protocol::abort_cs`] call or a deadline expiry): remove it from
    /// the queue and, if it holds the permission, release it without
    /// re-queueing.
    ///
    /// Not one of the paper's seven messages. Arbiter-side it is handled
    /// exactly like [`Body::Relinquish`] (the §6 withdrawal) — the two are
    /// separate variants only so traces and message accounting distinguish
    /// a client abort from a quorum reconstruction. Counted as a `release`.
    Abandon {
        /// The aborted request.
        req: Timestamp,
    },
    /// Rejoin resync answer: the sender has seen the receiver's rejoin
    /// announcement and reports whether it currently holds the receiver's
    /// arbiter permission (`holds = Some(req)`) or not (`holds = None`).
    ///
    /// Not one of the paper's seven messages: the paper has no rejoin
    /// protocol at all. When a crashed arbiter restarts with fresh state,
    /// it no longer knows who holds its permission; without this assertion
    /// it would grant the permission again and violate mutual exclusion.
    /// *Every* peer answers *every* rejoin announcement exactly once, even
    /// with nothing to claim: the rejoined arbiter refuses to grant until
    /// it has heard from all peers it is waiting on, so rejoin safety does
    /// not hinge on a fixed grace window outracing the slowest link.
    /// Counted as `info`.
    Claim {
        /// The claimant's outstanding request holding the receiver's
        /// permission, or `None` if the sender holds nothing of the
        /// receiver's.
        holds: Option<Timestamp>,
    },
}

/// A wire message: protocol body plus a piggybacked Lamport clock sample.
///
/// The clock sample keeps every site's clock ahead of every request it has
/// transitively heard about, which is what makes a waiting request's
/// timestamp eventually the global minimum (starvation freedom, Theorem 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sender's clock at send time.
    pub clk: SeqNum,
    /// Protocol content.
    pub body: Body,
}

impl MsgMeta for Msg {
    fn kind(&self) -> MsgKind {
        match &self.body {
            Body::Request { .. } => MsgKind::Request,
            Body::Reply { .. } => MsgKind::Reply,
            Body::Release { .. } => MsgKind::Release,
            Body::Inquire { .. } => MsgKind::Inquire,
            Body::Fail { .. } => MsgKind::Fail,
            Body::Yield { .. } => MsgKind::Yield,
            Body::Transfer { .. } => MsgKind::Transfer,
            Body::Relinquish { .. } => MsgKind::Release,
            Body::Abandon { .. } => MsgKind::Release,
            Body::Claim { .. } => MsgKind::Info,
        }
    }
}

/// Tuning knobs for [`DelayOptimal`].
#[derive(Debug, Clone)]
pub struct Config {
    /// When `false`, disables `transfer` messages and CS-exit forwarding —
    /// the algorithm degenerates to Maekawa-style arbiter-mediated handoff
    /// with `2T` synchronization delay. Used by the ablation experiment.
    pub forwarding_enabled: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            forwarding_enabled: true,
        }
    }
}

/// Requester-side phase of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequesterPhase {
    /// No outstanding CS request.
    Idle,
    /// Waiting for replies.
    Waiting,
    /// Executing the critical section.
    InCs,
}

/// A transfer obligation held by the current permission holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TranEntry {
    /// Arbiter on whose behalf the reply must be forwarded.
    arbiter: SiteId,
    /// Request to forward the reply to.
    beneficiary: Timestamp,
}

/// A deferred inquire (A.3 "else enqueue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingInquire {
    arbiter: SiteId,
    holder_req: Timestamp,
    transfer: Option<Timestamp>,
}

/// The requester half of a site's collections (§3.1). Needed only between
/// a request and its release, so it lives behind an `Option<Box<_>>` in
/// [`Cold`] that `begin_request` allocates and `end_request` drops; an
/// idle site reads [`IDLE`].
#[derive(Clone, Default)]
struct Requester {
    replied: SiteSet,
    inq_queue: Vec<PendingInquire>,
    tran_stack: Vec<TranEntry>,
}

/// What every site without an outstanding request reads.
static IDLE: Requester = Requester {
    replied: SiteSet::new(),
    inq_queue: Vec::new(),
    tran_stack: Vec::new(),
};

/// Whether a site keeps its `req_set` between requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuorumHold {
    /// Given at construction and always kept.
    Kept,
    /// Lazy and never pulled: an empty `req_set` means "not yet needed".
    Lazy,
    /// Lazy, and the last request's fault-free quorum was dropped when it
    /// ended: an empty `req_set` stands for that quorum, which the source
    /// (a pure function of `(site, down)`) returns again for `down = ∅`.
    Released,
}

/// Permission-returning requests withheld per suspected site, keyed by
/// site id. A sorted `(site, requests)` list: it holds only the sites
/// something is withheld from (a handful under any partition), so
/// withholding toward site 99 999 costs one entry, not a slot per lower
/// id. Each per-site list stays sorted and deduplicated, and no entry is
/// ever empty, so restoration flushes in a deterministic order.
#[derive(Clone, Default, PartialEq, Eq)]
struct Withheld {
    by_site: Vec<(SiteId, Vec<Timestamp>)>,
}

impl Withheld {
    const fn new() -> Self {
        Withheld {
            by_site: Vec::new(),
        }
    }

    fn add(&mut self, site: SiteId, req: Timestamp) {
        let idx = match self.by_site.binary_search_by_key(&site, |e| e.0) {
            Ok(idx) => idx,
            Err(idx) => {
                self.by_site.insert(idx, (site, Vec::new()));
                idx
            }
        };
        let list = &mut self.by_site[idx].1;
        if let Err(pos) = list.binary_search(&req) {
            list.insert(pos, req);
        }
    }

    /// Takes and returns the (sorted) withheld requests for `site`, if any.
    fn take(&mut self, site: SiteId) -> Option<Vec<Timestamp>> {
        let idx = self.by_site.binary_search_by_key(&site, |e| e.0).ok()?;
        Some(self.by_site.remove(idx).1)
    }
}

// Map-shaped Debug, so model-checker fingerprints stay semantic rather
// than capacity-dependent.
impl fmt::Debug for Withheld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.by_site.iter().map(|(site, l)| (site, l)))
            .finish()
    }
}

/// The §6 fault state of a site. Empty on a fault-free run, so it lives
/// behind an `Option<Box<_>>` in [`Cold`] that the first suspicion,
/// failure notice or recovery allocates; until then reads see
/// [`NO_FAULTS`].
#[derive(Clone, Default)]
struct Faults {
    /// Sites currently considered unreachable: every *suspected* site
    /// (revocable, detector hearsay) plus every *confirmed-failed* one.
    /// Gates message routing and quorum selection only — a merely
    /// suspected site never loses a lock it holds, because the suspicion
    /// may be false while it is inside the CS.
    known_failed: SiteSet,
    /// Sites whose failure is definitive (the oracle's `failure(i)` notice
    /// or the detector's post-lease confirmation). Only these trigger the
    /// §6 arbiter-side cleanup that reclaims and re-grants held locks.
    /// Always a subset of `known_failed`.
    confirmed_failed: SiteSet,
    /// Permission-returning messages (release/yield/relinquish) dropped at
    /// source because the target was suspected, by target site. If the
    /// suspicion turns out false, the target's arbiter still thinks these
    /// requests are queued or hold its lock; on restoration a `Relinquish`
    /// per recorded request unwedges it.
    withheld: Withheld,
    /// While `rejoining`: peers whose rejoin answer (`Claim`) is still
    /// outstanding. The grace window must not close while this is
    /// non-empty — a pre-crash holder's claim could still be in flight.
    /// Drained by claims, peers' own rejoins, and confirmed failures
    /// (never by mere suspicion: a partitioned-but-live holder must keep
    /// gating the window).
    rejoin_awaiting: SiteSet,
}

/// What every site without a fault box reads.
static NO_FAULTS: Faults = Faults {
    known_failed: SiteSet::new(),
    confirmed_failed: SiteSet::new(),
    withheld: Withheld::new(),
    rejoin_awaiting: SiteSet::new(),
};

/// A permission return that reached the arbiter *before* it learned (via
/// the previous holder's `release`) that the returning request had been
/// granted at all.
///
/// This race is inherent to the delay-optimal forwarding path: the grant
/// travels proxy → beneficiary and the notification travels proxy →
/// arbiter on *different* links, so the beneficiary's own subsequent
/// `release`/`yield`/withdrawal (beneficiary → arbiter, a third link) can
/// overtake the notification. Per-link FIFO — all the paper assumes —
/// cannot order them. The arbiter parks the early return here and replays
/// it the moment the in-flight `release(…, forwarded_to)` names that
/// request as the new lock holder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EarlyReturn {
    /// The request exited the CS; it may itself have forwarded this
    /// arbiter's permission onward.
    Released { forwarded_to: Option<Timestamp> },
    /// The request yielded the permission but still wants the CS.
    Yielded,
    /// The request was withdrawn entirely (§6 quorum change).
    Relinquished,
}

/// One site of the delay-optimal quorum-based mutual exclusion algorithm.
///
/// See the [module documentation](self) for the protocol description. Use
/// [`DelayOptimal::new`] for the fixed-quorum protocol or
/// [`DelayOptimal::with_quorum_source`] for the §6 fault-tolerant variant.
///
/// # Layout: hot/cold split
///
/// The struct keeps only the per-step scalars inline — the fields every
/// `step`/`on_msg` dispatch reads — and banishes the collections behind one
/// `Cold` box. A `Vec<DelayOptimal>` (how the simulator and the checker
/// hold all `N` sites) is then a dense array of 104-byte elements instead
/// of several-hundred-byte ones, which is what makes iterating 10⁵ sites
/// cache-friendly: the struct-of-arrays layout the large-N engine wants,
/// expressed at container granularity. Two boxes sit one level further
/// out: the requester collections, allocated by a request and dropped
/// when it ends, and the §6 fault state, allocated by the site's first
/// fault. An idle fault-free site thus holds only its arbiter state (and,
/// unless it is lazy, its quorum).
pub struct DelayOptimal {
    site: SiteId,
    clock: LamportClock,

    // --- hot requester scalars ---
    phase: RequesterPhase,
    my_req: Option<Timestamp>,
    failed: bool,
    /// Absolute deadline for the outstanding (or parked) request. While a
    /// request is unfulfilled (`Waiting` or a parked `want_cs`),
    /// `next_timer` exposes it and `on_timer` at/past it aborts the
    /// request. Cleared on CS entry and on abort; survives a §6 quorum
    /// switch (the deadline bounds the client's wait, not one quorum's).
    deadline: Option<u64>,
    /// Client-abort counters. Monitoring only — excluded from `Debug` so
    /// model-checker fingerprints count behavior, not history.
    abort_ctrs: AbortCounters,

    // --- hot arbiter / §6 scalars ---
    lock: Option<Timestamp>,
    inaccessible: bool,
    /// A `request_cs` arrived while no live quorum existed (every candidate
    /// contains a suspect). The want is parked here — not dropped — and the
    /// request is issued automatically as soon as accessibility returns
    /// (suspicion withdrawn or suspect rejoined). Without this, a request
    /// landing inside an asymmetric-partition window would be lost forever
    /// even though the partition later heals.
    want_cs: bool,
    /// True between a post-crash restart (`on_recover`) and the end of the
    /// rejoin grace window (`on_rejoin_complete`): the arbiter enqueues
    /// requests but grants nothing, waiting for `Claim`s to re-establish
    /// who held its permission before the crash.
    rejoining: bool,

    /// Everything with a heap allocation or a large footprint.
    cold: Box<Cold>,
}

/// The cold half of [`DelayOptimal`]: configuration and every collection.
/// Touched only when the protocol actually manipulates a queue or set —
/// idle sites swept by the simulator never follow this pointer.
#[derive(Clone)]
struct Cold {
    cfg: Config,
    hold: QuorumHold,

    // --- requester state ---
    req_set: Vec<SiteId>,
    /// `None` while idle; read through [`DelayOptimal::rq`].
    rq: Option<Box<Requester>>,

    // --- arbiter state ---
    req_queue: ReqQueue,
    early_returns: std::collections::BTreeMap<Timestamp, EarlyReturn>,

    // --- fault tolerance (§6) ---
    /// `None` until the first fault; read through
    /// [`DelayOptimal::faults`].
    faults: Option<Box<Faults>>,
    quorum_source: Option<Box<dyn QuorumSource>>,
    /// All peers this site shares the system with (set once by the
    /// detector layer via `set_peer_universe`; empty for bare stacks).
    peer_universe: Vec<SiteId>,

    // Self-addressed messages processed synchronously (a site is a member of
    // its own quorum; granting itself must not cost wire messages). Empty
    // between events; its buffer is borrowed from `SPARE_LOCAL_Q`.
    local_q: VecDeque<(SiteId, Msg)>,
}

thread_local! {
    /// The buffer of whichever site is pumping self-addressed messages on
    /// this thread. A site takes it on its first self-send and `pump`
    /// hands it back once drained, so idle sites hold no queue buffer and
    /// a pump allocates only when a queue outgrows every earlier one.
    /// Pumps do not nest across sites, so the buffer is free whenever a
    /// site asks; one that found it taken would just allocate its own.
    static SPARE_LOCAL_Q: std::cell::Cell<VecDeque<(SiteId, Msg)>> =
        const { std::cell::Cell::new(VecDeque::new()) };
}

impl Clone for DelayOptimal {
    fn clone(&self) -> Self {
        DelayOptimal {
            site: self.site,
            clock: self.clock.clone(),
            phase: self.phase,
            my_req: self.my_req,
            failed: self.failed,
            deadline: self.deadline,
            abort_ctrs: self.abort_ctrs,
            lock: self.lock,
            inaccessible: self.inaccessible,
            want_cs: self.want_cs,
            rejoining: self.rejoining,
            cold: self.cold.clone(),
        }
    }
}

impl fmt::Debug for DelayOptimal {
    // Complete except for `quorum_source` (opaque): the model checker in
    // `qmx-check` fingerprints protocol state through this impl, so every
    // behaviour-relevant field must appear.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DelayOptimal")
            .field("site", &self.site)
            .field("cfg", &self.cold.cfg)
            .field("clock", &self.clock)
            .field("req_set", &self.cold.req_set)
            .field("phase", &self.phase)
            .field("my_req", &self.my_req)
            .field("replied", &self.rq().replied)
            .field("failed", &self.failed)
            .field("lock", &self.lock)
            .field("req_queue", &self.cold.req_queue)
            .field("tran_stack", &self.rq().tran_stack)
            .field("inq_queue", &self.rq().inq_queue)
            .field("early_returns", &self.cold.early_returns)
            .field("known_failed", &self.faults().known_failed)
            .field("confirmed_failed", &self.faults().confirmed_failed)
            .field("inaccessible", &self.inaccessible)
            .field("want_cs", &self.want_cs)
            .field("deadline", &self.deadline)
            .field("withheld", &self.faults().withheld)
            .field("rejoining", &self.rejoining)
            .field("peer_universe", &self.cold.peer_universe)
            .field("rejoin_awaiting", &self.faults().rejoin_awaiting)
            .field("local_q", &self.cold.local_q)
            .finish_non_exhaustive()
    }
}

impl DelayOptimal {
    /// Creates a site with a fixed quorum (`req_set`).
    ///
    /// The quorum may or may not contain the site itself; when it does, the
    /// site arbitrates its own membership locally without wire messages
    /// (which is why the paper counts `K-1` messages per round).
    ///
    /// # Panics
    ///
    /// Panics if `req_set` is empty or contains duplicates.
    pub fn new(site: SiteId, req_set: Vec<SiteId>, cfg: Config) -> Self {
        assert!(!req_set.is_empty(), "quorum must be non-empty");
        let uniq: BTreeSet<SiteId> = req_set.iter().copied().collect();
        assert_eq!(uniq.len(), req_set.len(), "quorum contains duplicates");
        Self::build(site, req_set, cfg, None)
    }

    /// The fields of a fresh site, without `new`'s quorum checks. An empty
    /// `req_set` makes the site lazy.
    fn build(
        site: SiteId,
        req_set: Vec<SiteId>,
        cfg: Config,
        quorum_source: Option<Box<dyn QuorumSource>>,
    ) -> Self {
        DelayOptimal {
            site,
            clock: LamportClock::new(),
            phase: RequesterPhase::Idle,
            my_req: None,
            failed: false,
            deadline: None,
            abort_ctrs: AbortCounters::default(),
            lock: None,
            inaccessible: false,
            want_cs: false,
            rejoining: false,
            cold: Box::new(Cold {
                cfg,
                hold: if req_set.is_empty() {
                    QuorumHold::Lazy
                } else {
                    QuorumHold::Kept
                },
                req_set,
                rq: None,
                req_queue: ReqQueue::new(),
                early_returns: std::collections::BTreeMap::new(),
                faults: None,
                quorum_source,
                peer_universe: Vec::new(),
                local_q: VecDeque::new(),
            }),
        }
    }

    /// Creates a fault-tolerant site whose quorum is (re)constructed by
    /// `source` (§6): when a quorum member fails, the site asks `source` for
    /// a replacement quorum avoiding all known-failed sites and restarts its
    /// pending request against it.
    pub fn with_quorum_source(site: SiteId, cfg: Config, source: Box<dyn QuorumSource>) -> Self {
        let req_set = source
            .quorum_avoiding(site, &BTreeSet::new())
            .expect("initial quorum must exist");
        let mut me = Self::new(site, req_set, cfg);
        me.cold.quorum_source = Some(source);
        me
    }

    /// Like [`DelayOptimal::with_quorum_source`], but defers quorum
    /// construction until the site's first `request_cs`.
    ///
    /// At large `N` most sites only ever arbitrate: they never need their
    /// own `O(√N)` quorum, and materializing one per site costs `O(N·√N)`
    /// memory up front (gigabytes at `N = 10⁵`). A lazily-initialized site
    /// starts with an empty `req_set` and pulls its quorum from `source`
    /// on the first request — wire behavior is identical, because a site
    /// that never requests never consults its quorum. Built directly, so a
    /// site costs its `Cold` box and nothing else.
    ///
    /// While the site has seen no fault, it also drops its quorum when a
    /// request ends and pulls it again for the next one: the source is a
    /// pure function of `(site, down)`, so the same quorum comes back. The
    /// first suspicion, failure notice or recovery re-pulls a dropped
    /// quorum before acting on it, so §6 reconstruction starts from the
    /// quorum the site last used, as if it had been kept.
    pub fn with_lazy_quorum_source(
        site: SiteId,
        cfg: Config,
        source: Box<dyn QuorumSource>,
    ) -> Self {
        Self::build(site, Vec::new(), cfg, Some(source))
    }

    /// The §6 fault state: [`NO_FAULTS`] until the first fault.
    fn faults(&self) -> &Faults {
        self.cold.faults.as_deref().unwrap_or(&NO_FAULTS)
    }

    /// The §6 fault state, allocated on first use. A lazy site that
    /// dropped its fault-free quorum pulls it back first, so the fault
    /// handler sees the quorum it would have kept.
    fn faults_mut(&mut self) -> &mut Faults {
        if self.cold.faults.is_none()
            && self.cold.hold == QuorumHold::Released
            && self.cold.req_set.is_empty()
        {
            let repulled = self.refresh_quorum();
            debug_assert!(repulled, "a fault-free quorum was pulled before");
        }
        self.cold.faults.get_or_insert_with(Box::default)
    }

    /// The requester collections: [`IDLE`] while no request is outstanding.
    fn rq(&self) -> &Requester {
        self.cold.rq.as_deref().unwrap_or(&IDLE)
    }

    /// The requester collections of the outstanding request.
    fn rq_mut(&mut self) -> &mut Requester {
        debug_assert_ne!(self.phase, RequesterPhase::Idle);
        self.cold.rq.get_or_insert_with(Box::default)
    }

    /// This site's current quorum. Empty for a lazy site
    /// ([`DelayOptimal::with_lazy_quorum_source`]) that has not needed its
    /// quorum yet or, while fault-free, holds no request.
    pub fn req_set(&self) -> &[SiteId] {
        &self.cold.req_set
    }

    /// Requester phase (for tests and monitors).
    pub fn phase(&self) -> RequesterPhase {
        self.phase
    }

    /// The timestamp of the outstanding request, if any.
    pub fn current_request(&self) -> Option<Timestamp> {
        self.my_req
    }

    /// Whether the site has concluded no live quorum exists (§6 step 1).
    pub fn is_inaccessible(&self) -> bool {
        self.inaccessible
    }

    /// Arbiter lock (for tests and monitors).
    pub fn lock_holder(&self) -> Option<Timestamp> {
        self.lock
    }

    /// Number of requests queued at this arbiter.
    pub fn queued_requests(&self) -> usize {
        self.cold.req_queue.len()
    }

    /// Checks the structural invariants of this site's state, returning a
    /// description of the first violation found.
    ///
    /// Drivers call this between events in tests (the simulator-based
    /// suites use it through [`DelayOptimal::assert_invariants`]); none of
    /// these can fail unless the protocol logic itself is broken.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. The arbiter's lock holder is never simultaneously queued.
        if let Some(l) = self.lock {
            if self.cold.req_queue.contains(&l) {
                return Err(format!("{}: lock {l} also sits in req_queue", self.site));
            }
        }
        // 2. No lock and a non-empty queue only transiently inside a
        //    handler; between events it means a stalled grant. Exceptions:
        //    a rejoining arbiter deliberately queues without granting
        //    until its grace window closes, and requests from merely
        //    suspected sites stay parked (granting them is pointless —
        //    the reply could not be delivered — and they are re-examined
        //    on restoration or confirmation).
        if self.lock.is_none()
            && !self.rejoining
            && self
                .cold
                .req_queue
                .iter()
                .any(|r| !self.faults().known_failed.contains(r.site))
        {
            return Err(format!(
                "{}: free lock with {} queued requests",
                self.site,
                self.cold.req_queue.len()
            ));
        }
        // 3. Requester-phase consistency.
        match self.phase {
            RequesterPhase::Idle => {
                if self.my_req.is_some() {
                    return Err(format!("{}: idle but my_req set", self.site));
                }
                if self.cold.rq.is_some() {
                    return Err(format!("{}: idle but holds requester state", self.site));
                }
            }
            RequesterPhase::Waiting => {
                if self.my_req.is_none() {
                    return Err(format!("{}: waiting without a request", self.site));
                }
            }
            RequesterPhase::InCs => {
                if !self.has_all_replies() {
                    return Err(format!(
                        "{}: in CS without all permissions ({:?} of {:?})",
                        self.site,
                        self.rq().replied,
                        self.cold.req_set
                    ));
                }
            }
        }
        // 4. Transfer obligations only for permissions we actually hold.
        let rq = self.rq();
        for e in &rq.tran_stack {
            if !rq.replied.contains(e.arbiter) {
                return Err(format!(
                    "{}: tran_stack entry for {} without its permission",
                    self.site, e.arbiter
                ));
            }
        }
        // 5. Permissions only from quorum members.
        for a in rq.replied.iter() {
            if !self.cold.req_set.contains(&a) {
                return Err(format!("{}: holds permission of non-member {a}", self.site));
            }
        }
        // 6. Internal work queue drained between events.
        if !self.cold.local_q.is_empty() {
            return Err(format!("{}: local queue not pumped", self.site));
        }
        Ok(())
    }

    /// Panics with the violation text if [`DelayOptimal::check_invariants`]
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn assert_invariants(&self) {
        if let Err(msg) = self.check_invariants() {
            panic!("protocol invariant violated: {msg}");
        }
    }

    // ------------------------------------------------------------------
    // Plumbing: route messages, short-circuiting self-addressed ones.
    // ------------------------------------------------------------------

    fn route(&mut self, fx: &mut Effects<Msg>, to: SiteId, body: Body) {
        let msg = Msg {
            clk: self.clock.current(),
            body,
        };
        if to == self.site {
            let q = &mut self.cold.local_q;
            if q.capacity() == 0 {
                *q = SPARE_LOCAL_Q.take();
            }
            q.push_back((self.site, msg));
        } else if !self.faults().known_failed.contains(to) {
            fx.send(to, msg);
        } else {
            // Messages to suspected sites are dropped at the source (§6: a
            // failed site's messages are pointless). But `known_failed` is
            // only a *suspicion*: if the target is in fact alive, dropping
            // a permission-returning message would leave its arbiter
            // convinced forever that our request is queued or holds its
            // lock. Record the returned request so restoration can send a
            // catch-all `Relinquish`.
            let returned = match &msg.body {
                Body::Release { holder_req, .. } => Some(*holder_req),
                Body::Yield { req } | Body::Relinquish { req } | Body::Abandon { req } => {
                    Some(*req)
                }
                _ => None,
            };
            if let Some(req) = returned {
                self.faults_mut().withheld.add(to, req);
            }
        }
    }

    fn pump(&mut self, fx: &mut Effects<Msg>) {
        while let Some((from, msg)) = self.cold.local_q.pop_front() {
            self.dispatch(from, msg, fx);
        }
        if self.cold.local_q.capacity() != 0 {
            SPARE_LOCAL_Q.set(std::mem::take(&mut self.cold.local_q));
        }
    }

    fn dispatch(&mut self, from: SiteId, msg: Msg, fx: &mut Effects<Msg>) {
        self.clock.observe(msg.clk);
        match msg.body {
            Body::Request { ts } => self.arb_request(ts, fx),
            Body::Reply {
                arbiter,
                req,
                transfer,
            } => self.req_reply(arbiter, req, transfer, fx),
            Body::Release {
                holder_req,
                forwarded_to,
            } => self.arb_release(holder_req, forwarded_to, fx),
            Body::Inquire {
                arbiter,
                holder_req,
                transfer,
            } => self.req_inquire(arbiter, holder_req, transfer, fx),
            Body::Fail { arbiter, req } => self.req_fail(arbiter, req, fx),
            Body::Yield { req } => self.arb_yield(from, req, fx),
            Body::Transfer {
                arbiter,
                beneficiary,
                holder_req,
            } => self.req_transfer(arbiter, beneficiary, holder_req, fx),
            Body::Relinquish { req } | Body::Abandon { req } => {
                self.arb_relinquish(from, req, fx);
            }
            Body::Claim { holds } => self.arb_claim(from, holds, fx),
        }
    }

    // ------------------------------------------------------------------
    // Arbiter role.
    // ------------------------------------------------------------------

    /// A.2: a request arrives at this arbiter.
    fn arb_request(&mut self, ts: Timestamp, fx: &mut Effects<Msg>) {
        self.clock.observe_ts(ts);
        if self.faults().confirmed_failed.contains(ts.site) {
            return; // in-flight request from a site that has since crashed
        }
        if self.faults().known_failed.contains(ts.site) {
            // Suspected but possibly alive: park the request instead of
            // granting or refusing (neither message could be delivered —
            // `route` drops traffic to suspects at source). Restoration
            // re-examines it; confirmation discards it.
            if self.lock != Some(ts) {
                self.cold.req_queue.insert(ts);
            }
            return;
        }
        match self.lock {
            None if self.rejoining => {
                // Rejoin grace window: a pre-crash holder may still claim
                // this permission; enqueue and grant at window close.
                self.cold.req_queue.insert(ts);
            }
            None => {
                // Permission free: grant immediately, do not enqueue.
                self.lock = Some(ts);
                self.route(
                    fx,
                    ts.site,
                    Body::Reply {
                        arbiter: self.site,
                        req: ts,
                        transfer: None,
                    },
                );
            }
            Some(lock) => {
                let old_head = self.cold.req_queue.head();
                self.cold.req_queue.insert(ts);
                if self.cold.req_queue.head() == Some(ts) {
                    // `ts` is the new next-in-line.
                    // An inquire is already outstanding iff the displaced
                    // head had priority over the lock holder.
                    let inquire_outstanding = old_head.is_some_and(|h| h.beats(&lock));
                    if ts.beats(&lock) {
                        // Preemption candidate: inquire (piggybacking the
                        // transfer), unless an inquire is already out.
                        self.notify_holder(lock, ts, !inquire_outstanding, fx);
                    } else {
                        // Next in line but behind the current lock: it gets
                        // the transfer promise AND a fail — §5.2 Case 1
                        // counts a fail here, and without it two
                        // self-granted requesters waiting on each other
                        // would never learn they must yield (deadlock).
                        self.notify_holder(lock, ts, false, fx);
                        self.route(
                            fx,
                            ts.site,
                            Body::Fail {
                                arbiter: self.site,
                                req: ts,
                            },
                        );
                    }
                    if let Some(h) = old_head {
                        // The displaced head is no longer next. If it had
                        // priority over the lock (so it never received a
                        // fail on arrival), fail it now (§5.2 Case 4).
                        if h.beats(&lock) {
                            self.route(
                                fx,
                                h.site,
                                Body::Fail {
                                    arbiter: self.site,
                                    req: h,
                                },
                            );
                        }
                    }
                } else {
                    // Not next in line: refuse so the requester knows it may
                    // have to yield permissions it holds elsewhere.
                    self.route(
                        fx,
                        ts.site,
                        Body::Fail {
                            arbiter: self.site,
                            req: ts,
                        },
                    );
                }
            }
        }
    }

    /// Sends the holder of `lock` a transfer for `next` (piggybacked with an
    /// inquire when preemption is wanted). With forwarding disabled
    /// (ablation), only the inquire — if any — is sent.
    fn notify_holder(
        &mut self,
        lock: Timestamp,
        next: Timestamp,
        want_inquire: bool,
        fx: &mut Effects<Msg>,
    ) {
        if want_inquire {
            self.route(
                fx,
                lock.site,
                Body::Inquire {
                    arbiter: self.site,
                    holder_req: lock,
                    transfer: self.cold.cfg.forwarding_enabled.then_some(next),
                },
            );
        } else if self.cold.cfg.forwarding_enabled {
            self.route(
                fx,
                lock.site,
                Body::Transfer {
                    arbiter: self.site,
                    beneficiary: next,
                    holder_req: lock,
                },
            );
        }
    }

    /// C.2: the lock holder exited the CS.
    fn arb_release(
        &mut self,
        holder_req: Timestamp,
        forwarded_to: Option<Timestamp>,
        fx: &mut Effects<Msg>,
    ) {
        if self.lock != Some(holder_req) {
            // The sender can only have held our permission via a forwarded
            // reply whose notification is still in flight: park the return
            // and replay it when that notification arrives.
            self.cold
                .early_returns
                .insert(holder_req, EarlyReturn::Released { forwarded_to });
            return;
        }
        self.advance_lock(forwarded_to, fx);
    }

    /// Moves the lock to the request the previous holder forwarded to (if
    /// any), replaying any returns that raced ahead of the forward
    /// notification; otherwise grants the next queued request.
    fn advance_lock(&mut self, forwarded_to: Option<Timestamp>, fx: &mut Effects<Msg>) {
        let mut fwd = forwarded_to;
        loop {
            match fwd {
                // Only a *confirmed* failure voids a forward: a merely
                // suspected beneficiary may be alive and about to enter the
                // CS on the forwarded reply, so its grant must stand.
                Some(b) if !self.faults().confirmed_failed.contains(b.site) => {
                    self.cold.req_queue.remove(&b);
                    match self.cold.early_returns.remove(&b) {
                        None => {
                            // `b` now holds our permission.
                            self.lock = Some(b);
                            if let Some(h) = self.cold.req_queue.head() {
                                // Tell the new holder who is next. If a
                                // higher-priority request slipped in while
                                // the forwarded reply was in flight, it
                                // must be able to preempt `b`: inquire.
                                let want_inquire = h.beats(&b);
                                self.notify_holder(b, h, want_inquire, fx);
                            }
                            return;
                        }
                        // `b` already returned the permission before we even
                        // learned it had it: chase the chain.
                        Some(EarlyReturn::Released { forwarded_to: f2 }) => {
                            fwd = f2;
                        }
                        Some(EarlyReturn::Yielded) => {
                            self.cold.req_queue.insert(b);
                            fwd = None;
                        }
                        Some(EarlyReturn::Relinquished) => {
                            fwd = None;
                        }
                    }
                }
                _ => {
                    // Permission returned (or forwarded to a site that has
                    // since failed): grant the next request ourselves.
                    self.grant_next(fx);
                    return;
                }
            }
        }
    }

    /// Grants the permission to the queue head (if any), piggybacking a
    /// transfer naming the subsequent request. Used on plain release, yield,
    /// and failure cleanup.
    fn grant_next(&mut self, fx: &mut Effects<Msg>) {
        if self.rejoining {
            // Grace window: leave the permission free and everything
            // queued; `on_rejoin_complete` grants once claims are in.
            self.lock = None;
            return;
        }
        // Requests from confirmed-failed sites are discarded outright;
        // requests from merely *suspected* sites stay parked in the queue
        // (their senders may be alive — restoration grants them normally)
        // but are passed over for granting. The collect only runs when a
        // failure has actually been confirmed — never on the hot path.
        if !self.faults().confirmed_failed.is_empty() {
            let discard: Vec<Timestamp> = self
                .cold
                .req_queue
                .iter()
                .filter(|r| self.faults().confirmed_failed.contains(r.site))
                .copied()
                .collect();
            for r in discard {
                self.cold.req_queue.remove(&r);
            }
        }
        let Some(p) = self
            .cold
            .req_queue
            .iter()
            .find(|r| !self.faults().known_failed.contains(r.site))
            .copied()
        else {
            self.lock = None;
            return;
        };
        self.cold.req_queue.remove(&p);
        self.lock = Some(p);
        // `p` is the highest-priority grantable request; a suspected entry
        // ahead of it cannot enter (its reply would be withheld), so no
        // inquire is needed here — matching the pop-the-minimum reasoning
        // of the fully-live case.
        let next = if self.cold.cfg.forwarding_enabled {
            self.cold.req_queue.head()
        } else {
            None
        };
        self.route(
            fx,
            p.site,
            Body::Reply {
                arbiter: self.site,
                req: p,
                transfer: next,
            },
        );
    }

    /// A.4: the current grantee yields the permission back.
    fn arb_yield(&mut self, from: SiteId, req: Timestamp, fx: &mut Effects<Msg>) {
        if req.site != from {
            return; // forged/garbled yield
        }
        if self.lock != Some(req) {
            // Early return: `req` got our permission via a forward we have
            // not heard about yet (see [`EarlyReturn`]).
            self.cold.early_returns.insert(req, EarlyReturn::Yielded);
            return;
        }
        // Re-queue the yielder, then grant the highest-priority request
        // (which may be the yielder itself if it is in fact the minimum).
        self.cold.req_queue.insert(req);
        self.grant_next(fx);
    }

    /// Rejoin resync answer: `from` has seen our rejoin announcement and
    /// reports whether it holds our arbiter permission. The grace window
    /// cannot close until every awaited peer has answered (see
    /// [`Protocol::rejoin_pending`]), so — unlike a fixed timeout — a
    /// slow link cannot deliver a positive claim to a permission that has
    /// already been granted to someone else.
    fn arb_claim(&mut self, from: SiteId, holds: Option<Timestamp>, fx: &mut Effects<Msg>) {
        if let Some(faults) = self.cold.faults.as_deref_mut() {
            faults.rejoin_awaiting.remove(from);
        }
        let Some(req) = holds else {
            return; // answer recorded; nothing claimed
        };
        if req.site != from || self.faults().confirmed_failed.contains(from) {
            return;
        }
        if self.lock == Some(req) {
            return; // already consistent
        }
        if self.lock.is_none() {
            // Re-establish the pre-crash grant. During the rejoin window
            // this is the expected path; outside it, it can only mean the
            // permission is genuinely free (nothing was granted since).
            self.cold.req_queue.remove(&req);
            self.lock = Some(req);
        } else {
            // Conflict: the permission is already held — possible only
            // through a stale or duplicated claim (the answer gate keeps
            // genuine claims inside the window). Ask the claimant to
            // yield; its §3.1 machinery hands the permission back once it
            // learns it cannot be next.
            self.route(
                fx,
                from,
                Body::Inquire {
                    arbiter: self.site,
                    holder_req: req,
                    transfer: None,
                },
            );
        }
    }

    /// A request is withdrawn entirely (quorum reconstruction, §6).
    fn arb_relinquish(&mut self, from: SiteId, req: Timestamp, fx: &mut Effects<Msg>) {
        if req.site != from {
            return;
        }
        self.cold.req_queue.remove(&req);
        if self.lock == Some(req) {
            self.grant_next(fx);
        } else {
            // Park the return unconditionally: still being queued does NOT
            // prove the permission never reached `req`. With forwarding, a
            // queued request can already hold it through an in-flight
            // transfer (the grant travels holder → beneficiary on a
            // different link than the holder's `release`), so this
            // relinquish can overtake the `release(…, forwarded_to: req)`
            // that would move the lock onto the withdrawn request —
            // `advance_lock` must find the parked entry or it wedges the
            // lock on a request that no longer exists. When no forward was
            // in flight the entry is simply never consumed: `req`'s
            // timestamp left the queue for good, so no future chain can
            // name it.
            self.cold
                .early_returns
                .insert(req, EarlyReturn::Relinquished);
        }
    }

    // ------------------------------------------------------------------
    // Requester role.
    // ------------------------------------------------------------------

    fn is_current(&self, req: Timestamp) -> bool {
        self.my_req == Some(req)
    }

    /// Counting suffices: `replied ⊆ req_set` (invariant 5 of
    /// [`DelayOptimal::check_invariants`]).
    fn has_all_replies(&self) -> bool {
        let (replied, req_set) = (&self.rq().replied, &self.cold.req_set);
        let all = replied.len() == req_set.len();
        debug_assert!(
            !all || replied.iter().all(|a| req_set.contains(&a)),
            "replied {replied:?} is not a subset of req_set {req_set:?}"
        );
        all
    }

    /// A.6: a reply (direct or forwarded) arrives.
    fn req_reply(
        &mut self,
        arbiter: SiteId,
        req: Timestamp,
        transfer: Option<Timestamp>,
        fx: &mut Effects<Msg>,
    ) {
        if !self.is_current(req) {
            // A grant for a request we have abandoned (a client abort, or a
            // quorum switch after a failure). Hand the permission straight
            // back so the arbiter is not wedged on us forever.
            if req.site == self.site {
                self.abort_ctrs.orphan_grants += 1;
                self.route(fx, arbiter, Body::Relinquish { req });
            }
            return;
        }
        if self.phase != RequesterPhase::Waiting {
            return; // duplicate grant while already in the CS: harmless
        }
        self.rq_mut().replied.insert(arbiter);
        if let Some(b) = transfer {
            self.push_transfer(arbiter, b);
        }
        // A.6: re-examine inquires that arrived before this reply. The
        // queue is empty on the uncontended path — skip the collect then.
        let rq = self.rq_mut();
        if !rq.inq_queue.is_empty() {
            let deferred: Vec<PendingInquire> = rq
                .inq_queue
                .iter()
                .filter(|p| p.arbiter == arbiter)
                .copied()
                .collect();
            rq.inq_queue.retain(|p| p.arbiter != arbiter);
            for p in deferred {
                self.req_inquire(p.arbiter, p.holder_req, p.transfer, fx);
            }
        }
        self.maybe_enter(fx);
    }

    fn maybe_enter(&mut self, fx: &mut Effects<Msg>) {
        if self.phase == RequesterPhase::Waiting && self.has_all_replies() {
            self.phase = RequesterPhase::InCs;
            // The race against an in-flight abort is resolved here: entry
            // happened, so the deadline is void (clean entry, not abort).
            self.deadline = None;
            // Pending inquires are answered by the release we will send on
            // exit; the paper drops them here.
            self.rq_mut().inq_queue.clear();
            fx.enter_cs();
        }
    }

    fn push_transfer(&mut self, arbiter: SiteId, beneficiary: Timestamp) {
        self.rq_mut().tran_stack.push(TranEntry {
            arbiter,
            beneficiary,
        });
    }

    /// A.5: a transfer obligation arrives from an arbiter.
    fn req_transfer(
        &mut self,
        arbiter: SiteId,
        beneficiary: Timestamp,
        holder_req: Timestamp,
        fx: &mut Effects<Msg>,
    ) {
        let _ = fx;
        // Valid only if it refers to our live request *and* we actually hold
        // that arbiter's permission (the paper's `replied[j] = 1` check; the
        // timestamp guard additionally rejects cross-request races).
        if !self.is_current(holder_req)
            || self.phase == RequesterPhase::Idle
            || !self.rq().replied.contains(arbiter)
        {
            return; // outdated transfer: discard (A.5)
        }
        self.push_transfer(arbiter, beneficiary);
    }

    /// A.3: an arbiter inquires whether we can yield its permission.
    fn req_inquire(
        &mut self,
        arbiter: SiteId,
        holder_req: Timestamp,
        transfer: Option<Timestamp>,
        fx: &mut Effects<Msg>,
    ) {
        if !self.is_current(holder_req) || self.phase == RequesterPhase::Idle {
            return; // stale: refers to a request we have already released
        }
        if self.phase == RequesterPhase::InCs {
            // We are in the CS (or already fully granted): the release we
            // send on exit answers the inquire. The piggybacked transfer is
            // still live — record it so exit forwards our reply.
            if let Some(b) = transfer {
                if self.rq().replied.contains(arbiter) {
                    self.push_transfer(arbiter, b);
                }
            }
            return;
        }
        if !self.rq().replied.contains(arbiter) {
            // Inquire outran the reply (possible: the reply may be forwarded
            // through a proxy on a different channel). Defer, keeping the
            // piggybacked transfer (re-dispatched by A.6/A.7).
            self.rq_mut().inq_queue.push(PendingInquire {
                arbiter,
                holder_req,
                transfer,
            });
            return;
        }
        if let Some(b) = transfer {
            self.push_transfer(arbiter, b);
        }
        if self.failed {
            // We cannot be the next to enter: yield this permission.
            self.do_yield(arbiter, fx);
        } else {
            // Still hopeful (no fail received, no yield sent): hold on. If a
            // fail arrives later, A.7 revisits this entry and yields then.
            self.rq_mut().inq_queue.push(PendingInquire {
                arbiter,
                holder_req,
                transfer: None, // transfer already recorded above
            });
        }
    }

    fn do_yield(&mut self, arbiter: SiteId, fx: &mut Effects<Msg>) {
        let req = self.my_req.expect("yield requires an outstanding request");
        let rq = self.rq_mut();
        rq.replied.remove(arbiter);
        // Transfers received on behalf of this arbiter are void: we no
        // longer hold its permission (A.3).
        rq.tran_stack.retain(|e| e.arbiter != arbiter);
        self.failed = true; // sending a yield sets `failed` (§3.1)
        self.route(fx, arbiter, Body::Yield { req });
    }

    /// A.7: an arbiter refuses us.
    fn req_fail(&mut self, arbiter: SiteId, req: Timestamp, fx: &mut Effects<Msg>) {
        if !self.is_current(req) || self.phase != RequesterPhase::Waiting {
            return; // stale fail
        }
        let _ = arbiter;
        self.failed = true;
        // Revisit deferred inquires: with `failed` now set they yield.
        let deferred = std::mem::take(&mut self.rq_mut().inq_queue);
        for p in deferred {
            self.req_inquire(p.arbiter, p.holder_req, p.transfer, fx);
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance (§6).
    // ------------------------------------------------------------------

    /// Aborts the current wait (if any) and reissues the request against a
    /// freshly constructed quorum. Called when a quorum member fails.
    /// Withdraws the outstanding request from every old-quorum arbiter
    /// (queued or granted alike) and resets requester state to idle.
    fn withdraw_current(&mut self, fx: &mut Effects<Msg>) {
        if let Some(req) = self.my_req {
            // Index loop: `route` never touches `req_set`, and indexing
            // avoids cloning the quorum on every withdrawal.
            for i in 0..self.cold.req_set.len() {
                let a = self.cold.req_set[i];
                self.route(fx, a, Body::Relinquish { req });
            }
        }
        self.end_request();
    }

    /// Returns the requester side to idle. The requester box is dropped,
    /// not cleared, so its buffers go back to the allocator: `tran_stack`
    /// keeps every superseded transfer until exit (hundreds of entries at
    /// `K ≈ 200`), `replied` spills past site 255, and a site may never
    /// request again. An absent box reads as empty, so `Debug` output
    /// matches a `clear()`. A fault-free lazy site drops its quorum too.
    fn end_request(&mut self) {
        self.cold.rq = None;
        if self.cold.hold != QuorumHold::Kept && self.cold.faults.is_none() {
            self.cold.req_set = Vec::new();
            self.cold.hold = QuorumHold::Released;
        }
        self.failed = false;
        self.my_req = None;
        self.phase = RequesterPhase::Idle;
    }

    /// Client-side abort: withdraws the outstanding request (or cancels the
    /// parked want) for good. Returns `true` iff something was withdrawn.
    ///
    /// Unlike [`DelayOptimal::withdraw_current`] (§6, which re-issues
    /// against a fresh quorum), an abort is final: the `Abandon` sent to
    /// every quorum member removes the request wherever it sits — queued,
    /// granted, or mid-forward. The arbiter-side races (abort overtaking a
    /// `Transfer`/`Inquire`, a forwarded grant overtaking the abort) resolve
    /// through the same [`EarlyReturn`] machinery as §6 withdrawal; a grant
    /// that arrives after the abort is returned by `req_reply`'s
    /// not-current path and counted as an orphan.
    fn do_abort(&mut self, fx: &mut Effects<Msg>) -> bool {
        self.deadline = None;
        if self.want_cs {
            // Parked want: nothing ever reached the wire. Cancel it locally
            // so a later heal's `unpark_want` cannot resurrect the request.
            self.want_cs = false;
            self.abort_ctrs.aborts += 1;
            return true;
        }
        if self.phase != RequesterPhase::Waiting {
            // Idle: nothing to abort. In the CS: the grant stands — the
            // only way out of an acquired lock is `release_cs`.
            return false;
        }
        if let Some(req) = self.my_req {
            for i in 0..self.cold.req_set.len() {
                let a = self.cold.req_set[i];
                self.route(fx, a, Body::Abandon { req });
            }
        }
        self.end_request();
        self.abort_ctrs.aborts += 1;
        self.pump(fx);
        true
    }

    fn refresh_quorum(&mut self) -> bool {
        // `QuorumSource` is an API boundary with observable ordered-set
        // semantics; the conversion runs only when a lazy site pulls its
        // quorum and on the failure path, and allocates nothing while no
        // site is down.
        let down = self.faults().known_failed.to_btree();
        let Some(source) = self.cold.quorum_source.as_deref() else {
            // Fixed quorum containing a failed member: inaccessible.
            self.inaccessible = true;
            return false;
        };
        match source.quorum_avoiding(self.site, &down) {
            Some(q) => {
                self.cold.req_set = q;
                self.inaccessible = false;
                true
            }
            None => {
                self.inaccessible = true;
                false
            }
        }
    }

    /// Re-evaluates `inaccessible` after the suspicion set shrank: a site
    /// that had no live quorum may have one again.
    fn recompute_accessibility(&mut self) {
        if !self.inaccessible {
            return;
        }
        if self.cold.quorum_source.is_some() {
            self.refresh_quorum();
        } else {
            self.inaccessible = self
                .cold
                .req_set
                .iter()
                .any(|m| self.faults().known_failed.contains(*m));
        }
    }

    /// Re-issues a want parked by [`Protocol::request_cs`] (or a suspicion
    /// that left no live quorum) once accessibility has returned.
    fn unpark_want(&mut self, fx: &mut Effects<Msg>) {
        if !self.want_cs || self.inaccessible || self.phase != RequesterPhase::Idle {
            return;
        }
        if (self.cold.req_set.is_empty()
            || self
                .cold
                .req_set
                .iter()
                .any(|m| self.faults().known_failed.contains(*m)))
            && !self.refresh_quorum()
        {
            return; // still no live quorum; stay parked
        }
        self.want_cs = false;
        self.begin_request(fx);
    }

    fn begin_request(&mut self, fx: &mut Effects<Msg>) {
        debug_assert_eq!(self.phase, RequesterPhase::Idle);
        let ts = Timestamp {
            seq: self.clock.tick(),
            site: self.site,
        };
        // Idle is only ever entered through `end_request` (or `new`).
        debug_assert!(self.cold.rq.is_none() && !self.failed);
        self.cold.rq = Some(Box::default());
        self.my_req = Some(ts);
        self.phase = RequesterPhase::Waiting;
        for i in 0..self.cold.req_set.len() {
            let j = self.cold.req_set[i];
            self.route(fx, j, Body::Request { ts });
        }
        self.maybe_enter(fx); // degenerate singleton quorum {self}
    }
}

impl Protocol for DelayOptimal {
    type Msg = Msg;

    fn site(&self) -> SiteId {
        self.site
    }

    fn request_cs(&mut self, fx: &mut Effects<Msg>) {
        assert_eq!(
            self.phase,
            RequesterPhase::Idle,
            "one outstanding CS request per site"
        );
        if self.inaccessible {
            self.want_cs = true;
            return;
        }
        // A suspected member cannot be requested from: `route` drops the
        // Request at source and nothing would ever re-send it, so a later
        // restoration would leave this site waiting forever on a reply it
        // never asked for. Reconstruct the quorum around the suspects
        // first (§6 step 1); with no live quorum the request parks until
        // accessibility returns. An empty `req_set` is a lazily
        // initialized site's first request: construct the quorum now.
        if (self.cold.req_set.is_empty()
            || self
                .cold
                .req_set
                .iter()
                .any(|m| self.faults().known_failed.contains(*m)))
            && !self.refresh_quorum()
        {
            self.want_cs = true;
            return;
        }
        self.begin_request(fx);
        self.pump(fx);
    }

    fn release_cs(&mut self, fx: &mut Effects<Msg>) {
        assert_eq!(self.phase, RequesterPhase::InCs, "not in CS");
        let my_req = self.my_req.expect("in CS implies a request");

        // C.1: honor the newest transfer per arbiter — forward that
        // arbiter's reply directly to the named beneficiary (the
        // delay-optimal hop), discarding older transfers from the same
        // arbiter. The stack is walked newest first, and an arbiter leaves
        // `replied` with its first forward, so older entries for it find
        // it gone. Every entry's arbiter is in `replied`: `req_transfer`
        // checks it, and a yield drops the yielded arbiter's entries.
        let mut rq = self.cold.rq.take().expect("in CS implies requester state");
        debug_assert!(rq.tran_stack.iter().all(|e| rq.replied.contains(e.arbiter)));
        let mut forwarded: Vec<(SiteId, Timestamp)> = Vec::new();
        if self.cold.cfg.forwarding_enabled {
            for e in rq.tran_stack.iter().rev() {
                if self.faults().known_failed.contains(e.beneficiary.site) {
                    continue; // §6 case 2: dead beneficiaries are purged
                }
                if rq.replied.remove(e.arbiter) {
                    self.route(
                        fx,
                        e.beneficiary.site,
                        Body::Reply {
                            arbiter: e.arbiter,
                            req: e.beneficiary,
                            transfer: None,
                        },
                    );
                    forwarded.push((e.arbiter, e.beneficiary));
                }
            }
        }

        // C.2: tell every arbiter whether its permission was forwarded.
        // Sorted by arbiter, so each lookup is a binary search.
        forwarded.sort_unstable_by_key(|&(a, _)| a);
        for i in 0..self.cold.req_set.len() {
            let j = self.cold.req_set[i];
            let fwd = forwarded
                .binary_search_by_key(&j, |&(a, _)| a)
                .ok()
                .map(|k| forwarded[k].1);
            self.route(
                fx,
                j,
                Body::Release {
                    holder_req: my_req,
                    forwarded_to: fwd,
                },
            );
        }

        self.end_request();
        self.pump(fx);
    }

    fn handle(&mut self, from: SiteId, msg: Msg, fx: &mut Effects<Msg>) {
        self.dispatch(from, msg, fx);
        self.pump(fx);
    }

    fn in_cs(&self) -> bool {
        self.phase == RequesterPhase::InCs
    }

    fn wants_cs(&self) -> bool {
        self.phase == RequesterPhase::Waiting
    }

    fn abort_cs(&mut self, fx: &mut Effects<Msg>) -> bool {
        self.do_abort(fx)
    }

    fn abortable(&self) -> bool {
        self.phase == RequesterPhase::Waiting || self.want_cs
    }

    fn set_deadline(&mut self, deadline: Option<u64>) {
        self.deadline = deadline;
    }

    fn abort_counters(&self) -> Option<AbortCounters> {
        Some(self.abort_ctrs)
    }

    fn next_timer(&self) -> Option<u64> {
        // Only an unfulfilled request keeps the deadline armed; entry and
        // abort both clear it.
        match self.deadline {
            Some(d) if self.phase == RequesterPhase::Waiting || self.want_cs => Some(d),
            _ => None,
        }
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<Msg>) {
        if let Some(d) = self.deadline {
            if now >= d && self.do_abort(fx) {
                self.abort_ctrs.deadline_aborts += 1;
            }
        }
    }

    /// §6: handle the `failure(i)` notice — a *definitive* failure (the
    /// paper's oracle, or the detector's post-lease confirmation). Only
    /// here may a lock held by the failed site be reclaimed and re-granted;
    /// mere suspicion ([`Protocol::on_site_suspected`]) never does that.
    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Msg>) {
        if failed == self.site || !self.faults_mut().confirmed_failed.insert(failed) {
            return;
        }
        let faults = self.faults_mut();
        faults.known_failed.insert(failed);
        // A confirmed-dead peer can no longer answer a rejoin.
        faults.rejoin_awaiting.remove(failed);

        // --- Arbiter-side cleanup -------------------------------------
        // Case 1: the failed site's request sits in our req_queue.
        let was_head = self.cold.req_queue.head().is_some_and(|h| h.site == failed);
        let removed = self.cold.req_queue.remove_site(failed);
        if was_head && !removed.is_empty() {
            if let (Some(lock), Some(new_head)) = (self.lock, self.cold.req_queue.head()) {
                if lock.site != failed {
                    // The dead request was next in line: point the holder at
                    // the new head instead (§6 case 1).
                    let old_head = removed[0];
                    let inquire_outstanding = old_head.beats(&lock);
                    let want_inquire = new_head.beats(&lock) && !inquire_outstanding;
                    self.notify_holder(lock, new_head, want_inquire, fx);
                }
            }
        }
        // Case 3: the failed site holds our permission: reclaim and re-grant.
        if self.lock.is_some_and(|l| l.site == failed) {
            self.grant_next(fx);
        }

        // --- Holder-side cleanup (§6 case 2) ---------------------------
        // Drop transfer obligations benefiting the dead site, and forget
        // permissions supposedly granted by it.
        if let Some(rq) = self.cold.rq.as_deref_mut() {
            rq.tran_stack.retain(|e| e.beneficiary.site != failed);
            rq.inq_queue.retain(|p| p.arbiter != failed);
        }

        // --- Requester-side: quorum reconstruction (§6 step 1) ---------
        if self.cold.req_set.contains(&failed) && self.phase != RequesterPhase::InCs {
            let wanted = self.phase == RequesterPhase::Waiting;
            // Withdraw from the OLD quorum first, then reconstruct.
            self.withdraw_current(fx);
            if self.refresh_quorum() && wanted {
                self.begin_request(fx);
            }
        }
        self.pump(fx);
    }

    /// A failure detector *suspects* `site` (missed heartbeats). The
    /// suspicion may be false — `site` may be partitioned away while
    /// actively inside the CS — so only *revocable* reactions run here:
    /// route around the suspect (drop traffic to it at source) and, as a
    /// requester, withdraw and re-issue against a quorum avoiding it. The
    /// arbiter-side cleanup that reclaims a lock the suspect holds is
    /// deliberately NOT run: re-granting a falsely suspected holder's lock
    /// would let a second site into the CS. That cleanup waits for the
    /// detector's confirmed [`Protocol::on_site_failure`] (or the
    /// suspect's own rejoin, which proves its old grant is abandoned).
    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Msg>) {
        if site == self.site || !self.faults_mut().known_failed.insert(site) {
            return;
        }
        // Requester-side quorum reconstruction (§6 step 1). Relinquishes
        // to the suspect itself are withheld by `route` and flushed on
        // restoration.
        if self.cold.req_set.contains(&site) && self.phase != RequesterPhase::InCs {
            let wanted = self.phase == RequesterPhase::Waiting;
            self.withdraw_current(fx);
            if wanted {
                if self.refresh_quorum() {
                    self.begin_request(fx);
                } else {
                    // No live quorum right now: park the want rather than
                    // dropping it, so the heal re-issues the request.
                    self.want_cs = true;
                }
            } else {
                let _ = self.refresh_quorum();
            }
        }
        self.pump(fx);
    }

    /// A suspicion proved false: reintegrate `site`.
    ///
    /// Mutual exclusion is unaffected — suspicion only ever gates message
    /// dropping, quorum selection, and *deferral* of grants (a suspect's
    /// queued requests are parked, never re-granted elsewhere) — so
    /// reintegration is (1) stop dropping its messages at source, (2)
    /// re-admit it to quorum selection, (3) flush the permission-returning
    /// messages we dropped while it was suspected, so its arbiter stops
    /// waiting on requests we no longer have, and (4) grant our own
    /// permission if it stalled parked behind the suspicion.
    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Msg>) {
        let Some(faults) = self.cold.faults.as_deref_mut() else {
            return; // never suspected anyone
        };
        if !faults.known_failed.remove(site) {
            return;
        }
        faults.confirmed_failed.remove(site);
        if let Some(reqs) = faults.withheld.take(site) {
            for req in reqs {
                self.route(fx, site, Body::Relinquish { req });
            }
        }
        self.recompute_accessibility();
        self.unpark_want(fx);
        // Un-stall the arbiter: requests parked while their senders were
        // suspected become grantable again.
        if !self.rejoining && self.lock.is_none() && !self.cold.req_queue.is_empty() {
            self.grant_next(fx);
        }
        self.pump(fx);
    }

    /// A crashed peer restarted with fresh state: purge every trace of its
    /// old incarnation, reintegrate it, and answer its rejoin resync.
    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Msg>) {
        let _ = incarnation; // used by the transport layer, not here
                             // The rejoiner lost its requester state: its old requests will
                             // never be released or withdrawn. Purge them from our arbiter.
        let _ = self.cold.req_queue.remove_site(site);
        if self.lock.is_some_and(|l| l.site == site) {
            self.grant_next(fx);
        }
        self.cold.early_returns.retain(|k, _| k.site != site);
        if let Some(rq) = self.cold.rq.as_deref_mut() {
            rq.tran_stack.retain(|e| e.beneficiary.site != site);
            rq.inq_queue.retain(|p| p.arbiter != site);
        }

        // Reintegrate (the withheld returns are moot: the fresh arbiter
        // has no queue to unwedge). A restarted peer also has nothing to
        // claim against our own rejoin.
        if let Some(faults) = self.cold.faults.as_deref_mut() {
            faults.known_failed.remove(site);
            faults.confirmed_failed.remove(site);
            let _ = faults.withheld.take(site);
            faults.rejoin_awaiting.remove(site);
        }
        self.recompute_accessibility();
        self.unpark_want(fx);
        // Purging its queued requests may also un-stall our arbiter.
        if !self.rejoining && self.lock.is_none() && !self.cold.req_queue.is_empty() {
            self.grant_next(fx);
        }

        // Answer the resync: EVERY peer reports, even with nothing to
        // claim, because the rejoined arbiter refuses to grant until all
        // its peers have answered (see `Body::Claim`).
        let holds = if self.rq().replied.contains(site) {
            self.my_req
        } else {
            None
        };
        self.route(fx, site, Body::Claim { holds });
        // Our request sat in its (lost) queue: re-issue it. FIFO transport
        // delivers the answer first, so the re-issued request lands in the
        // rejoiner's queue after the claim is accounted.
        if holds.is_none()
            && self.cold.req_set.contains(&site)
            && self.phase == RequesterPhase::Waiting
        {
            if let Some(my_req) = self.my_req {
                self.route(fx, site, Body::Request { ts: my_req });
            }
        }
        self.pump(fx);
    }

    /// This site restarted after a crash with fresh state: hold off
    /// arbitration until peers' `Claim`s re-establish who held our
    /// permission (the detector layer announces the rejoin and times the
    /// grace window; the window cannot close while
    /// [`Protocol::rejoin_pending`] still reports unanswered peers).
    fn on_recover(&mut self, fx: &mut Effects<Msg>) {
        self.rejoining = true;
        let awaiting = self
            .cold
            .peer_universe
            .iter()
            .copied()
            .filter(|&p| p != self.site)
            .collect();
        self.faults_mut().rejoin_awaiting = awaiting;
        let _ = fx;
    }

    /// The rejoin grace window closed (every awaited peer has answered and
    /// the detector's grace timer expired): resume arbitration.
    fn on_rejoin_complete(&mut self, fx: &mut Effects<Msg>) {
        self.rejoining = false;
        if let Some(faults) = self.cold.faults.as_deref_mut() {
            faults.rejoin_awaiting.clear();
        }
        if self.lock.is_none() {
            // Resolve pre-crash forward chains that were parked during the
            // window: a holder that exited while we were down may have
            // forwarded our permission onward, and its `Release` straggled
            // in over the reset link (necessarily before its rejoin
            // answer, which rides the same FIFO channel). The live holder
            // — if any — is a forward target that never itself returned
            // the permission.
            let returned: BTreeSet<Timestamp> = self.cold.early_returns.keys().copied().collect();
            let tail = self
                .cold
                .early_returns
                .values()
                .filter_map(|e| match e {
                    EarlyReturn::Released { forwarded_to } => *forwarded_to,
                    _ => None,
                })
                .find(|t| {
                    !returned.contains(t) && !self.faults().confirmed_failed.contains(t.site)
                });
            if let Some(t) = tail {
                self.cold.req_queue.remove(&t);
                self.lock = Some(t);
            }
            // A free lock at window close means every forward chain has
            // fully drained, so whatever remains parked is pre-crash-era
            // garbage (yields and relinquishes of requests re-issued over
            // the resync, or chain links consumed above): keyed by
            // timestamps that can never become the lock again. A *held*
            // lock, by contrast, may still have an in-flight forward
            // notification racing a parked return — leave the map alone
            // then, exactly as in normal operation.
            self.cold.early_returns.clear();
        }
        // Replay the parked requests as if they arrived now. The grace
        // window's `arb_request` arm enqueues without answering, but the
        // §5.2 accounting — fail the losers, promise the transfer, inquire
        // on preemption — is what tells a tied requester it must yield
        // permissions it holds elsewhere. A bare `grant_next` here would
        // grant the head silently: two self-granted requesters whose rival
        // requests both sat out a rejoin window would then wait on each
        // other forever. Replaying in priority order reproduces the
        // arrival-time messages exactly (the winner first, so every later
        // request sees the lock it loses to).
        let parked: Vec<Timestamp> = self.cold.req_queue.iter().copied().collect();
        for r in &parked {
            self.cold.req_queue.remove(r);
        }
        for r in parked {
            self.arb_request(r, fx);
        }
        self.pump(fx);
    }

    fn rejoin_pending(&self) -> bool {
        self.rejoining && !self.faults().rejoin_awaiting.is_empty()
    }

    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        self.cold.peer_universe = peers.iter().copied().filter(|&p| p != self.site).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: u32, quorum: &[u32]) -> Vec<DelayOptimal> {
        let q: Vec<SiteId> = quorum.iter().map(|&s| SiteId(s)).collect();
        (0..n)
            .map(|i| DelayOptimal::new(SiteId(i), q.clone(), Config::default()))
            .collect()
    }

    /// Synchronously delivers all in-flight messages until quiescence,
    /// in FIFO order per link. Returns the total number of wire messages.
    fn settle(sites: &mut [DelayOptimal], inflight: &mut VecDeque<(SiteId, SiteId, Msg)>) -> usize {
        let mut count = 0;
        while let Some((from, to, msg)) = inflight.pop_front() {
            count += 1;
            let mut fx = Effects::new();
            sites[to.index()].handle(from, msg, &mut fx);
            for (t, m) in fx.take_sends() {
                inflight.push_back((to, t, m));
            }
        }
        count
    }

    fn request(sites: &mut [DelayOptimal], s: u32, inflight: &mut VecDeque<(SiteId, SiteId, Msg)>) {
        let mut fx = Effects::new();
        sites[s as usize].request_cs(&mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(s), t, m));
        }
    }

    fn release(sites: &mut [DelayOptimal], s: u32, inflight: &mut VecDeque<(SiteId, SiteId, Msg)>) {
        let mut fx = Effects::new();
        sites[s as usize].release_cs(&mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(s), t, m));
        }
    }

    fn in_cs_count(sites: &[DelayOptimal]) -> usize {
        sites.iter().filter(|s| s.in_cs()).count()
    }

    #[test]
    fn uncontended_entry_costs_3_k_minus_1_messages() {
        // Quorum {0,1,2}, K = 3: request + reply + release = 3(K-1) = 6.
        let mut sites = net(3, &[0, 1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        let msgs_req_reply = settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        assert_eq!(msgs_req_reply, 4); // 2 requests + 2 replies
        release(&mut sites, 0, &mut inflight);
        let msgs_release = settle(&mut sites, &mut inflight);
        assert_eq!(msgs_release, 2); // 2 releases
        assert_eq!(msgs_req_reply + msgs_release, 6);
    }

    #[test]
    fn singleton_quorum_grants_immediately_with_zero_messages() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0)], Config::default());
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        let (sends, entered) = fx.drain();
        assert!(!entered.is_empty());
        assert!(sends.is_empty());
        assert!(s.in_cs());
        s.release_cs(&mut fx);
        let (sends, _) = fx.drain();
        assert!(sends.is_empty());
        assert!(!s.in_cs());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let mut sites = net(3, &[0, 1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_eq!(in_cs_count(&sites), 1);
        // Drain the CS in turn; each exit admits exactly one new site.
        for _ in 0..3 {
            let cur = sites.iter().position(|s| s.in_cs()).expect("someone in CS") as u32;
            release(&mut sites, cur, &mut inflight);
            settle(&mut sites, &mut inflight);
            assert!(in_cs_count(&sites) <= 1);
        }
        assert_eq!(in_cs_count(&sites), 0);
        assert!(sites.iter().all(|s| !s.wants_cs()));
    }

    #[test]
    fn priority_order_is_respected_under_fifo_delivery() {
        // Site 1 and 2 request while 0 is in the CS; 1's request has the
        // smaller timestamp, so 1 enters before 2.
        let mut sites = net(3, &[0, 1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);
        release(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[1].in_cs());
        assert!(!sites[2].in_cs());
        release(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[2].in_cs());
    }

    #[test]
    fn exit_forwards_reply_directly_to_next_requester() {
        // With 0 in CS and 1 queued everywhere, 0's release must carry a
        // forwarded reply straight to 1 (the delay-optimal hop): after
        // delivering only messages 0 -> 1 (not the arbiter round trips),
        // 1 must already be in the CS.
        let mut sites = net(2, &[0, 1]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        assert!(sites[1].wants_cs());

        let mut fx = Effects::new();
        sites[0].release_cs(&mut fx);
        let sends = fx.take_sends();
        // Deliver only what went directly to site 1.
        let mut fx1 = Effects::new();
        for (to, m) in sends {
            if to == SiteId(1) {
                sites[1].handle(SiteId(0), m, &mut fx1);
            }
        }
        assert!(
            sites[1].in_cs(),
            "site 1 must enter after one message hop from the exiting site"
        );
    }

    #[test]
    fn ablation_disables_forwarding() {
        // Same scenario as above but with forwarding off: after delivering
        // only the exiting site's direct messages to site 1, site 1 is NOT
        // in the CS (the grant must go through the arbiter: two hops).
        let q = vec![SiteId(0), SiteId(1)];
        let cfg = Config {
            forwarding_enabled: false,
        };
        let mut sites: Vec<DelayOptimal> = (0..2)
            .map(|i| DelayOptimal::new(SiteId(i), q.clone(), cfg.clone()))
            .collect();
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());

        let mut fx = Effects::new();
        sites[0].release_cs(&mut fx);
        let sends = fx.take_sends();
        let mut fx1 = Effects::new();
        let mut to_arbiter = Vec::new();
        for (to, m) in sends {
            if to == SiteId(1) {
                // Only releases flow 0->1 here; 1 is an arbiter for 0.
                sites[1].handle(SiteId(0), m.clone(), &mut fx1);
            } else {
                to_arbiter.push((to, m));
            }
        }
        // 1 got the release (as arbiter) and granted itself... no: 1's own
        // arbiter-side then replies to 1 locally. The direct-hop claim for
        // the ablation is about quorums with third-party arbiters; with a
        // 2-site quorum the arbiter IS site 1, so entry via release is the
        // 2T path collapsed. Just assert the protocol still works end to
        // end and no Transfer message was ever produced.
        let mut inflight: VecDeque<(SiteId, SiteId, Msg)> = VecDeque::new();
        for (t, m) in fx1.take_sends() {
            inflight.push_back((SiteId(1), t, m));
        }
        for (t, m) in to_arbiter {
            inflight.push_back((SiteId(0), t, m));
        }
        while let Some((from, to, m)) = inflight.pop_front() {
            assert!(
                !matches!(m.body, Body::Transfer { .. }),
                "no transfers in ablation"
            );
            let mut fx = Effects::new();
            sites[to.index()].handle(from, m, &mut fx);
            for (t, m2) in fx.take_sends() {
                inflight.push_back((to, t, m2));
            }
        }
        assert!(sites[1].in_cs());
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();
        // Fail/inquire/transfer/reply for a request we never made.
        let ghost = Timestamp::new(99, SiteId(0));
        for body in [
            Body::Fail {
                arbiter: SiteId(1),
                req: ghost,
            },
            Body::Inquire {
                arbiter: SiteId(1),
                holder_req: ghost,
                transfer: None,
            },
            Body::Transfer {
                arbiter: SiteId(1),
                beneficiary: Timestamp::new(100, SiteId(2)),
                holder_req: ghost,
            },
        ] {
            s.handle(
                SiteId(1),
                Msg {
                    clk: SeqNum(100),
                    body,
                },
                &mut fx,
            );
        }
        let (sends, entered) = fx.drain();
        assert!(sends.is_empty());
        assert!(entered.is_empty());
        // A stale *grant*, however, is answered with a relinquish so the
        // arbiter is not wedged waiting on a request we no longer hold.
        s.handle(
            SiteId(1),
            Msg {
                clk: SeqNum(100),
                body: Body::Reply {
                    arbiter: SiteId(1),
                    req: ghost,
                    transfer: None,
                },
            },
            &mut fx,
        );
        let (sends, entered) = fx.drain();
        assert_eq!(sends.len(), 1);
        assert!(entered.is_empty());
        assert_eq!(sends[0].0, SiteId(1));
        assert!(matches!(sends[0].1.body, Body::Relinquish { req } if req == ghost));
        assert_eq!(s.phase(), RequesterPhase::Idle);
        // Clock still observed the piggybacked value (Lamport).
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        assert!({ s.current_request().unwrap().seq } > SeqNum(100));
    }

    #[test]
    fn stale_release_is_ignored_by_arbiter() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0)], Config::default());
        let mut fx = Effects::new();
        s.handle(
            SiteId(1),
            Msg {
                clk: SeqNum(1),
                body: Body::Release {
                    holder_req: Timestamp::new(1, SiteId(1)),
                    forwarded_to: None,
                },
            },
            &mut fx,
        );
        assert!(fx.sends().is_empty());
        assert_eq!(s.lock_holder(), None);
    }

    #[test]
    fn yield_regrants_to_highest_priority() {
        // Arbiter 2 (not requesting itself) with quorum members 0 and 1.
        // 1 gets the lock, then 0 (higher priority) requests; 2 inquires 1;
        // 1 (failed elsewhere) yields; 2 must grant 0.
        let q = vec![SiteId(2)];
        let mut arb = DelayOptimal::new(SiteId(2), q.clone(), Config::default());
        let mut fx = Effects::new();

        let r1 = Timestamp::new(5, SiteId(1));
        arb.handle(
            SiteId(1),
            Msg {
                clk: SeqNum(5),
                body: Body::Request { ts: r1 },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        assert!(matches!(sends[0].1.body, Body::Reply { .. }));
        assert_eq!(arb.lock_holder(), Some(r1));

        let r0 = Timestamp::new(3, SiteId(0)); // higher priority
        arb.handle(
            SiteId(0),
            Msg {
                clk: SeqNum(5),
                body: Body::Request { ts: r0 },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        // Inquire (with piggybacked transfer) to the holder S1.
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, SiteId(1));
        assert!(matches!(
            sends[0].1.body,
            Body::Inquire {
                transfer: Some(b), ..
            } if b == r0
        ));

        // S1 yields.
        arb.handle(
            SiteId(1),
            Msg {
                clk: SeqNum(6),
                body: Body::Yield { req: r1 },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        assert_eq!(arb.lock_holder(), Some(r0));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, SiteId(0));
        // Reply to S0 piggybacking a transfer for the re-queued r1.
        assert!(matches!(
            sends[0].1.body,
            Body::Reply {
                req,
                transfer: Some(t),
                ..
            } if req == r0 && t == r1
        ));
    }

    #[test]
    fn next_in_line_behind_lock_gets_transfer_and_fail() {
        // Arbiter busy with r_lock; r_a arrives and becomes head but has
        // lower priority than the lock: it gets BOTH a transfer promise
        // (to the holder) and a fail (§5.2 Case 1). A later r_b that
        // displaces it gets the same treatment; r_a needs no second fail.
        let mut arb = DelayOptimal::new(SiteId(9), vec![SiteId(9)], Config::default());
        let mut fx = Effects::new();
        let r_lock = Timestamp::new(1, SiteId(1));
        let r_a = Timestamp::new(5, SiteId(2));
        let r_b = Timestamp::new(4, SiteId(3));
        arb.handle(
            SiteId(1),
            Msg {
                clk: r_lock.seq,
                body: Body::Request { ts: r_lock },
            },
            &mut fx,
        );
        fx.take_sends();
        arb.handle(
            SiteId(2),
            Msg {
                clk: r_a.seq,
                body: Body::Request { ts: r_a },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        assert!(sends.iter().any(|(to, m)| *to == SiteId(1)
            && matches!(m.body, Body::Transfer { beneficiary, .. } if beneficiary == r_a)));
        assert!(sends
            .iter()
            .any(|(to, m)| *to == SiteId(2)
                && matches!(m.body, Body::Fail { req, .. } if req == r_a)));

        arb.handle(
            SiteId(3),
            Msg {
                clk: r_b.seq,
                body: Body::Request { ts: r_b },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        let fails: Vec<_> = sends
            .iter()
            .filter(|(_, m)| matches!(m.body, Body::Fail { .. }))
            .collect();
        assert_eq!(fails.len(), 1, "r_a already failed; only r_b gets one");
        assert_eq!(fails[0].0, SiteId(3));
        assert!(sends.iter().any(|(to, m)| *to == SiteId(1)
            && matches!(m.body, Body::Transfer { beneficiary, .. } if beneficiary == r_b)));
    }

    #[test]
    fn failure_of_lock_holder_regrants() {
        let mut arb = DelayOptimal::new(SiteId(9), vec![SiteId(9)], Config::default());
        let mut fx = Effects::new();
        let r1 = Timestamp::new(1, SiteId(1));
        let r2 = Timestamp::new(2, SiteId(2));
        for ts in [r1, r2] {
            arb.handle(
                ts.site,
                Msg {
                    clk: ts.seq,
                    body: Body::Request { ts },
                },
                &mut fx,
            );
        }
        fx.take_sends();
        assert_eq!(arb.lock_holder(), Some(r1));
        arb.on_site_failure(SiteId(1), &mut fx);
        let sends = fx.take_sends();
        assert_eq!(arb.lock_holder(), Some(r2));
        assert!(sends
            .iter()
            .any(|(to, m)| *to == SiteId(2) && matches!(m.body, Body::Reply { .. })));
    }

    #[test]
    fn failure_of_quorum_member_makes_fixed_quorum_site_inaccessible() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        fx.take_sends();
        assert!(s.wants_cs());
        s.on_site_failure(SiteId(1), &mut fx);
        assert!(s.is_inaccessible());
        assert!(!s.wants_cs());
        assert_eq!(s.phase(), RequesterPhase::Idle);
    }

    #[test]
    fn request_while_member_suspected_reconstructs_before_sending() {
        // Model-checker counterexample regression: a suspicion recorded
        // while this site was in its CS leaves `known_failed` populated
        // with no quorum reconstruction. A later request over the stale
        // quorum would have its Request to the suspect dropped at source
        // by `route` — and restoration never re-sends requests — wedging
        // the site forever. The request must reconstruct (here: block as
        // inaccessible) instead of silently half-requesting.
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();
        s.on_site_suspected(SiteId(1), &mut fx);
        fx.take_sends();
        s.request_cs(&mut fx);
        assert!(fx.take_sends().is_empty(), "no half-quorum request");
        assert!(s.is_inaccessible());
        assert!(!s.wants_cs());
        assert_eq!(s.phase(), RequesterPhase::Idle);
        // Restoration makes the site accessible again AND re-issues the
        // want that parked while no live quorum existed.
        s.on_site_restored(SiteId(1), &mut fx);
        assert!(!s.is_inaccessible());
        assert!(s.wants_cs(), "parked want re-issued on restoration");
        assert!(!fx.take_sends().is_empty(), "request reaches the peer");
    }

    #[test]
    fn relinquish_overtaking_forward_notification_frees_the_lock() {
        // Model-checker counterexample regression: with forwarding, a
        // grant travels holder → beneficiary on a different link than the
        // holder's `release` → arbiter, so a beneficiary can receive the
        // forwarded reply AND withdraw (§6 quorum reconstruction) before
        // its own arbiter hears the `release(…, forwarded_to)` naming it.
        // The relinquish finds the request still queued; treating that as
        // "never granted" lets the in-flight release move the lock onto
        // the withdrawn request forever.
        let mut sites = net(2, &[0, 1]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[1].in_cs());
        // S0 queues behind S1's lock at its own arbiter; a transfer
        // obligation travels to holder S1.
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].wants_cs());
        // S1 exits: the forwarded replies and the release all enter the
        // 1→0 link. Deliver only the first forwarded reply …
        release(&mut sites, 1, &mut inflight);
        let (from, to, m) = inflight.pop_front().expect("forwarded reply in flight");
        assert!(matches!(m.body, Body::Reply { .. }));
        let mut fx = Effects::new();
        sites[to.index()].handle(from, m, &mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((to, t, m));
        }
        // … then suspect S1: §6 withdraws the request, and the local
        // relinquish overtakes the still-in-flight release.
        sites[0].on_site_suspected(SiteId(1), &mut fx);
        fx.take_sends();
        assert!(!sites[0].wants_cs());
        settle(&mut sites, &mut inflight);
        // The suspicion proves false; no arbiter may stay wedged on the
        // withdrawn request: the restoration re-issues the parked want,
        // and that fresh request must reach the CS.
        sites[0].on_site_restored(SiteId(1), &mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(0), t, m));
        }
        assert!(sites[0].wants_cs(), "parked want re-issued on restoration");
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs(), "arbiter wedged on a withdrawn request");
    }

    #[test]
    fn rejoin_window_requests_get_arrival_accounting_at_close() {
        // Model-checker counterexample regression: requests parked during
        // the rejoin grace window got no §5.2 answer when the window
        // closed — the head was granted silently and the losers never
        // received their `fail`. Two requesters that each granted
        // themselves and parked the rival's request during the window
        // would then wait on each other forever.
        let mut sites = net(2, &[0, 1]);
        let universe = [SiteId(0), SiteId(1)];
        let mut fx = Effects::new();
        // S0 restarts: the crash wiped it, recovery opens the window.
        sites[0] = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        sites[0].set_peer_universe(&universe);
        sites[0].set_incarnation(1);
        sites[0].on_start(&mut fx);
        sites[0].on_recover(&mut fx);
        assert!(fx.take_sends().is_empty());
        // S1 answers the rejoin resync with nothing to claim.
        let mut inflight = VecDeque::new();
        sites[1].on_peer_rejoined(SiteId(0), 1, &mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(1), t, m));
        }
        settle(&mut sites, &mut inflight);
        assert!(!sites[0].rejoin_pending());
        // Tie: both request concurrently with equal Lamport seq (S0 wins
        // the site-id tiebreak); each grants itself, each parks or queues
        // the rival — neither can enter yet.
        request(&mut sites, 0, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(!sites[0].in_cs() && !sites[1].in_cs());
        // Window close must replay the parked requests with arrival-time
        // accounting: S1's parked request gets its fail, S1 honors the
        // pending inquire and yields, and the tie resolves.
        sites[0].on_rejoin_complete(&mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(0), t, m));
        }
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs(), "rejoin-window tie never resolves");
        release(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[1].in_cs(), "loser never learns it must yield");
    }

    #[test]
    fn failure_with_quorum_source_restarts_request() {
        // Source that can fall back from {0,1} to {0,2}.
        #[derive(Clone)]
        struct TwoChoices;
        impl QuorumSource for TwoChoices {
            fn quorum_avoiding(
                &self,
                _site: SiteId,
                down: &BTreeSet<SiteId>,
            ) -> Option<Vec<SiteId>> {
                if !down.contains(&SiteId(1)) {
                    Some(vec![SiteId(0), SiteId(1)])
                } else if !down.contains(&SiteId(2)) {
                    Some(vec![SiteId(0), SiteId(2)])
                } else {
                    None
                }
            }

            fn box_clone(&self) -> Box<dyn QuorumSource> {
                Box::new(self.clone())
            }
        }
        let mut s =
            DelayOptimal::with_quorum_source(SiteId(0), Config::default(), Box::new(TwoChoices));
        assert_eq!(s.req_set(), &[SiteId(0), SiteId(1)]);
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        fx.take_sends();
        s.on_site_failure(SiteId(1), &mut fx);
        let sends = fx.take_sends();
        assert_eq!(s.req_set(), &[SiteId(0), SiteId(2)]);
        assert!(s.wants_cs());
        // A fresh request went out to the replacement member S2.
        assert!(sends
            .iter()
            .any(|(to, m)| *to == SiteId(2) && matches!(m.body, Body::Request { .. })));
        // And nothing was sent to the dead site.
        assert!(sends.iter().all(|(to, _)| *to != SiteId(1)));
    }

    #[test]
    fn release_to_forwarded_dead_beneficiary_regrants() {
        // Arbiter granted to r1; r2 queued; holder forwards to r2 but r2's
        // site dies before the release arrives: arbiter must re-grant.
        let mut arb = DelayOptimal::new(SiteId(9), vec![SiteId(9)], Config::default());
        let mut fx = Effects::new();
        let r1 = Timestamp::new(1, SiteId(1));
        let r2 = Timestamp::new(2, SiteId(2));
        let r3 = Timestamp::new(3, SiteId(3));
        for ts in [r1, r2, r3] {
            arb.handle(
                ts.site,
                Msg {
                    clk: ts.seq,
                    body: Body::Request { ts },
                },
                &mut fx,
            );
        }
        fx.take_sends();
        arb.on_site_failure(SiteId(2), &mut fx);
        fx.take_sends();
        arb.handle(
            SiteId(1),
            Msg {
                clk: SeqNum(9),
                body: Body::Release {
                    holder_req: r1,
                    forwarded_to: Some(r2),
                },
            },
            &mut fx,
        );
        let sends = fx.take_sends();
        assert_eq!(arb.lock_holder(), Some(r3));
        assert!(sends
            .iter()
            .any(|(to, m)| *to == SiteId(3) && matches!(m.body, Body::Reply { .. })));
    }

    /// Delivers in-flight messages like [`settle`] but silently drops
    /// anything addressed to `dead` (crash semantics: the site is gone,
    /// not slow).
    fn settle_without(
        sites: &mut [DelayOptimal],
        inflight: &mut VecDeque<(SiteId, SiteId, Msg)>,
        dead: SiteId,
    ) {
        while let Some((from, to, msg)) = inflight.pop_front() {
            if to == dead {
                continue;
            }
            let mut fx = Effects::new();
            sites[to.index()].handle(from, msg, &mut fx);
            for (t, m) in fx.take_sends() {
                inflight.push_back((to, t, m));
            }
        }
    }

    /// Announces `dead`'s failure to every survivor, queueing whatever
    /// recovery traffic that produces.
    fn fail_site(
        sites: &mut [DelayOptimal],
        inflight: &mut VecDeque<(SiteId, SiteId, Msg)>,
        dead: SiteId,
    ) {
        for (i, site) in sites.iter_mut().enumerate() {
            let from = SiteId(i as u32);
            if from == dead {
                continue;
            }
            let mut fx = Effects::new();
            site.on_site_failure(dead, &mut fx);
            for (t, m) in fx.take_sends() {
                inflight.push_back((from, t, m));
            }
        }
    }

    #[test]
    fn failed_cs_holder_end_to_end_admits_the_waiters() {
        // §6 end to end: site 0 crashes *inside* the CS while 1 and 2 wait.
        // Every arbiter must purge the dead holder's lock and grant the
        // queue head, and the survivors then drain the queue in timestamp
        // order. (The shared quorum {1,2} excludes the victim so the fixed
        // quorums stay accessible after the crash.)
        let mut sites = net(3, &[1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_eq!(in_cs_count(&sites), 1, "waiters blocked behind the holder");

        let dead = SiteId(0);
        fail_site(&mut sites, &mut inflight, dead);
        settle_without(&mut sites, &mut inflight, dead);
        // The dead holder never sent a Release, yet the earlier waiter got
        // in — and only it.
        assert!(sites[1].in_cs(), "queue head admitted after holder death");
        assert!(!sites[2].in_cs());

        release(&mut sites, 1, &mut inflight);
        settle_without(&mut sites, &mut inflight, dead);
        assert!(sites[2].in_cs(), "handoff continues past the failure");
        release(&mut sites, 2, &mut inflight);
        settle_without(&mut sites, &mut inflight, dead);
        // Only the dead site's frozen snapshot still claims the CS.
        assert!(sites[1..].iter().all(|s| !s.in_cs()));
    }

    #[test]
    fn failed_queue_head_end_to_end_is_skipped_on_release() {
        // §6 end to end: the *next in line* (not the holder) crashes. The
        // holder's release — possibly already forwarded toward the dead
        // beneficiary — must not strand the grant: the arbiter re-grants
        // past the purged queue head to the surviving waiter.
        let mut sites = net(4, &[3]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);

        let dead = SiteId(1);
        fail_site(&mut sites, &mut inflight, dead);
        settle_without(&mut sites, &mut inflight, dead);
        // The holder is unaffected by a waiter's death.
        assert!(sites[0].in_cs());

        release(&mut sites, 0, &mut inflight);
        settle_without(&mut sites, &mut inflight, dead);
        assert!(!sites[1].in_cs());
        assert!(sites[2].in_cs(), "grant skipped the dead queue head");
        release(&mut sites, 2, &mut inflight);
        settle_without(&mut sites, &mut inflight, dead);
        // Every survivor is done; only the dead site's frozen snapshot
        // still wants the CS it will never get.
        assert_eq!(in_cs_count(&sites), 0);
        for (i, s) in sites.iter().enumerate() {
            if SiteId(i as u32) != dead {
                assert!(!s.wants_cs(), "S{i} still waiting");
            }
        }
    }

    #[test]
    fn msg_kinds_map_to_paper_names() {
        let ts = Timestamp::new(1, SiteId(0));
        let cases: Vec<(Body, MsgKind)> = vec![
            (Body::Request { ts }, MsgKind::Request),
            (
                Body::Reply {
                    arbiter: SiteId(0),
                    req: ts,
                    transfer: None,
                },
                MsgKind::Reply,
            ),
            (
                Body::Release {
                    holder_req: ts,
                    forwarded_to: None,
                },
                MsgKind::Release,
            ),
            (
                Body::Inquire {
                    arbiter: SiteId(0),
                    holder_req: ts,
                    transfer: None,
                },
                MsgKind::Inquire,
            ),
            (
                Body::Fail {
                    arbiter: SiteId(0),
                    req: ts,
                },
                MsgKind::Fail,
            ),
            (Body::Yield { req: ts }, MsgKind::Yield),
            (
                Body::Transfer {
                    arbiter: SiteId(0),
                    beneficiary: ts,
                    holder_req: ts,
                },
                MsgKind::Transfer,
            ),
        ];
        for (body, kind) in cases {
            assert_eq!(
                Msg {
                    clk: SeqNum(0),
                    body
                }
                .kind(),
                kind
            );
        }
    }

    #[test]
    #[should_panic(expected = "one outstanding CS request per site")]
    fn double_request_panics() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0)], Config::default());
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        s.release_cs(&mut fx);
        s.request_cs(&mut fx);
        s.request_cs(&mut fx); // still in CS -> panic... actually Idle check
    }

    #[test]
    #[should_panic(expected = "not in CS")]
    fn release_without_cs_panics() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();
        s.release_cs(&mut fx);
    }

    // ------------------------------------------------------------------
    // Client abort / deadline path.
    // ------------------------------------------------------------------

    fn abort(sites: &mut [DelayOptimal], s: u32, inflight: &mut VecDeque<(SiteId, SiteId, Msg)>) {
        let mut fx = Effects::new();
        assert!(sites[s as usize].abort_cs(&mut fx), "abort refused");
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(s), t, m));
        }
    }

    #[test]
    fn abort_while_waiting_withdraws_from_every_arbiter() {
        // 0 holds the CS, 1 queues behind it, then gives up. The abandon
        // must leave every arbiter's queue free of 1's request, so 0's
        // release grants nobody and the system quiesces idle.
        let mut sites = net(3, &[0, 1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[1].wants_cs());

        abort(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(!sites[1].wants_cs());
        assert_eq!(sites[1].phase(), RequesterPhase::Idle);

        release(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_eq!(in_cs_count(&sites), 0, "aborted request must not enter");
        for s in &sites {
            s.assert_invariants();
            assert_eq!(s.lock_holder(), None);
        }
        let c = sites[1].abort_counters().expect("counters");
        // Every arbiter had already promised its permission to 1 via a
        // `Transfer` to the holder — those forwards cannot be retracted, so
        // 0's exit delivers three grants to the aborted site, all returned.
        assert_eq!((c.aborts, c.deadline_aborts, c.orphan_grants), (1, 0, 3));

        // The lock is not wedged: a fresh request still gets in.
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[2].in_cs());
    }

    #[test]
    fn abort_racing_forwarded_reply_returns_the_orphan_grant() {
        // The delay-optimal race: 0 exits and forwards its arbiters'
        // replies directly to 1 while 1's abandon is crossing them on the
        // wire. The grant must come back (Relinquish) rather than be
        // consumed or lost, and every arbiter must end with a free lock.
        let mut sites = net(3, &[0, 1, 2]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);

        // 0 releases (forwarded replies to 1 now in flight) ...
        release(&mut sites, 0, &mut inflight);
        // ... and 1 aborts before any of them land.
        abort(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);

        assert_eq!(
            in_cs_count(&sites),
            0,
            "grant for an aborted request consumed"
        );
        for s in &sites {
            s.assert_invariants();
            assert_eq!(s.lock_holder(), None, "{}: lock wedged", s.site());
        }
        let c = sites[1].abort_counters().expect("counters");
        assert_eq!(c.aborts, 1);
        assert!(c.orphan_grants >= 1, "forwarded grant not returned");

        // Liveness after the race: the next requester enters cleanly.
        request(&mut sites, 2, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[2].in_cs());
    }

    #[test]
    fn abort_while_inquired_hands_the_permission_to_the_higher_priority_request() {
        // 1 holds arbiter 2's permission (waiting on arbiter 3) when a
        // higher-priority request preempts it: arbiter 2 inquires. Instead
        // of yielding, 1 aborts — the abandon must free the permission for
        // the preemptor exactly like a yield would have.
        let q = vec![SiteId(2), SiteId(3)];
        let mut s1 = DelayOptimal::new(SiteId(1), q.clone(), Config::default());
        let mut s2 = DelayOptimal::new(SiteId(2), q, Config::default());

        let mut fx = Effects::new();
        s1.request_cs(&mut fx);
        let r1 = s1.current_request().expect("outstanding");
        let sends = fx.take_sends();
        let to_2 = sends
            .iter()
            .find(|(to, _)| *to == SiteId(2))
            .expect("request to arbiter 2")
            .1
            .clone();
        s2.handle(SiteId(1), to_2, &mut fx);
        let reply = fx.take_sends().pop().expect("grant").1;
        s1.handle(SiteId(2), reply, &mut fx);
        assert!(s1.wants_cs(), "still missing arbiter 3");
        assert_eq!(s2.lock_holder(), Some(r1));

        // A higher-priority request (site 0, smaller timestamp) arrives at
        // arbiter 2, which inquires the current permission holder.
        let r0 = Timestamp::new(1, SiteId(0));
        assert!(r0.beats(&r1));
        s2.handle(
            SiteId(0),
            Msg {
                clk: SeqNum(1),
                body: Body::Request { ts: r0 },
            },
            &mut fx,
        );
        let (to, inquire) = fx.take_sends().pop().expect("inquire the holder");
        assert_eq!(to, SiteId(1));
        assert!(matches!(inquire.body, Body::Inquire { .. }));
        s1.handle(SiteId(2), inquire, &mut fx);
        fx.take_sends(); // holder defers (not failed): no answer yet

        // The holder aborts instead of ever answering the inquire.
        assert!(s1.abort_cs(&mut fx));
        let abandons = fx.take_sends();
        let to_2 = abandons
            .iter()
            .find(|(to, _)| *to == SiteId(2))
            .expect("abandon to arbiter 2")
            .1
            .clone();
        s2.handle(SiteId(1), to_2, &mut fx);

        // Arbiter 2 re-granted to the preemptor, not wedged on the inquire.
        assert_eq!(s2.lock_holder(), Some(r0));
        assert!(fx
            .take_sends()
            .iter()
            .any(|(to, m)| *to == SiteId(0) && matches!(m.body, Body::Reply { .. })));
        s1.assert_invariants();
        s2.assert_invariants();
    }

    #[test]
    fn deadline_rides_the_timer_hooks() {
        // A deadline on an unfulfilled request surfaces through
        // `next_timer` and aborts from inside `on_timer`.
        let mut sites = net(2, &[0, 1]);
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());

        sites[1].set_deadline(Some(100));
        assert_eq!(sites[1].next_timer(), None, "no request yet: nothing armed");
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_eq!(sites[1].next_timer(), Some(100));
        assert!(sites[1].abortable());

        let mut fx = Effects::new();
        sites[1].on_timer(99, &mut fx);
        assert!(sites[1].wants_cs(), "fired early: deadline not due");
        sites[1].on_timer(100, &mut fx);
        assert!(!sites[1].wants_cs());
        assert_eq!(sites[1].next_timer(), None, "deadline disarmed after abort");
        for (t, m) in fx.take_sends() {
            inflight.push_back((SiteId(1), t, m));
        }
        settle(&mut sites, &mut inflight);

        release(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_eq!(in_cs_count(&sites), 0);
        let c = sites[1].abort_counters().expect("counters");
        assert_eq!((c.aborts, c.deadline_aborts), (1, 1));
    }

    #[test]
    fn deadline_is_cleared_on_entry_not_after() {
        // Entry beats the deadline: the timer must disarm (clean entry,
        // never a lost lock), and a later wake-up must not abort the CS.
        let mut sites = net(2, &[0, 1]);
        let mut inflight = VecDeque::new();
        sites[0].set_deadline(Some(50));
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        assert_eq!(sites[0].next_timer(), None);

        let mut fx = Effects::new();
        sites[0].on_timer(1_000, &mut fx);
        assert!(
            sites[0].in_cs(),
            "an acquired lock is only left via release"
        );
        assert!(!sites[0].abortable());
        assert!(!sites[0].abort_cs(&mut fx), "in-CS abort must refuse");
        assert_eq!(sites[0].abort_counters().expect("counters").aborts, 0);
    }

    #[test]
    fn parked_want_deadline_abort_is_not_resurrected_by_restore() {
        // Satellite regression: a `want_cs` parked for lack of a live
        // quorum whose deadline fires while the quorum is unreachable
        // aborts cleanly and is NOT re-issued by `unpark_want` when the
        // link heals.
        let mut s0 = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();

        // Fixed quorum with a suspected member and no quorum source:
        // inaccessible, so the request parks.
        s0.on_site_suspected(SiteId(1), &mut fx);
        assert!(s0.is_inaccessible());
        s0.set_deadline(Some(500));
        s0.request_cs(&mut fx);
        assert!(fx.take_sends().is_empty(), "parked want sends nothing");
        assert_eq!(s0.phase(), RequesterPhase::Idle);
        assert_eq!(s0.next_timer(), Some(500), "deadline armed while parked");
        assert!(s0.abortable());

        // Deadline fires while the quorum is still unreachable.
        s0.on_timer(500, &mut fx);
        assert!(fx.take_sends().is_empty(), "nothing reached the wire");
        let c = s0.abort_counters().expect("counters");
        assert_eq!((c.aborts, c.deadline_aborts), (1, 1));

        // The link heals: restoration must NOT resurrect the want.
        s0.on_site_restored(SiteId(1), &mut fx);
        let sends = fx.take_sends();
        assert!(
            !sends
                .iter()
                .any(|(_, m)| matches!(m.body, Body::Request { .. })),
            "aborted want re-issued on restore: {sends:?}"
        );
        assert_eq!(s0.phase(), RequesterPhase::Idle);
        assert!(!s0.wants_cs());
        s0.assert_invariants();
    }

    #[test]
    fn abort_is_refused_when_idle() {
        let mut s = DelayOptimal::new(SiteId(0), vec![SiteId(0), SiteId(1)], Config::default());
        let mut fx = Effects::new();
        assert!(!s.abortable());
        assert!(!s.abort_cs(&mut fx));
        assert_eq!(s.abort_counters().expect("counters").aborts, 0);
    }

    #[test]
    fn abandon_is_counted_as_a_release() {
        let ts = Timestamp::new(1, SiteId(0));
        assert_eq!(
            Msg {
                clk: SeqNum(0),
                body: Body::Abandon { req: ts },
            }
            .kind(),
            MsgKind::Release
        );
    }

    /// These sizes are the large-N memory budget: a simulator holds one
    /// `DelayOptimal` per site and one `Msg` per message in flight, and
    /// each arbiter queues one `Timestamp` per pending request. At
    /// `N = 10⁴`–`10⁵` every byte here is paid per site or per event.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn hot_types_fit_the_large_n_memory_budget() {
        use std::mem::size_of;
        assert_eq!(size_of::<Timestamp>(), 12);
        assert_eq!(size_of::<Option<Timestamp>>(), 16);
        assert_eq!(size_of::<Msg>(), 48);
        assert_eq!(size_of::<DelayOptimal>(), 104);
        // The part every site keeps; the requester half is boxed apart.
        assert_eq!(size_of::<Cold>(), 176);
        assert_eq!(size_of::<Requester>(), 112);
    }

    #[test]
    fn lazy_site_starts_without_a_quorum_and_pulls_it_on_request() {
        let source = crate::protocol::StaticQuorums::new(vec![vec![SiteId(7)]; 8]);
        let mut s =
            DelayOptimal::with_lazy_quorum_source(SiteId(7), Config::default(), Box::new(source));
        // Recorded from the site built through `new(site, vec![site])`
        // and then cleared.
        assert_eq!(
            format!("{s:?}"),
            "DelayOptimal { site: SiteId(7), cfg: Config { forwarding_enabled: true }, \
             clock: LamportClock { last: 0 }, req_set: [], phase: Idle, my_req: None, \
             replied: {}, failed: false, lock: None, req_queue: ReqQueue { set: {} }, \
             tran_stack: [], inq_queue: [], early_returns: {}, known_failed: {}, \
             confirmed_failed: {}, inaccessible: false, want_cs: false, deadline: None, \
             withheld: {}, rejoining: false, peer_universe: [], rejoin_awaiting: {}, \
             local_q: [], .. }"
        );
        assert_eq!(s.cold.req_set.capacity(), 0, "no quorum buffer until used");
        let mut fx = Effects::new();
        s.request_cs(&mut fx);
        assert_eq!(s.req_set(), &[SiteId(7)]);
        assert!(s.in_cs());
    }

    #[test]
    #[should_panic(expected = "quorum must be non-empty")]
    fn empty_quorum_panics() {
        let _ = DelayOptimal::new(SiteId(0), vec![], Config::default());
    }

    #[test]
    #[should_panic(expected = "quorum contains duplicates")]
    fn duplicate_quorum_panics() {
        let _ = DelayOptimal::new(SiteId(0), vec![SiteId(1), SiteId(1)], Config::default());
    }

    // ------------------------------------------------------------------
    // Per-request buffers are handed back when a request ends.
    // ------------------------------------------------------------------

    /// Quorum `{0, 1, 2, 299}` for every site: 299 puts a permission in
    /// the spilled part of `replied`.
    fn spill_net() -> Vec<DelayOptimal> {
        net(300, &[0, 1, 2, 299])
    }

    /// Panics unless some arbiter has two transfers pending at `s`.
    fn assert_repeated_transfers(s: &DelayOptimal) {
        let stack = &s.rq().tran_stack;
        let repeated = stack
            .iter()
            .any(|e| stack.iter().filter(|f| f.arbiter == e.arbiter).count() >= 2);
        assert!(repeated, "no arbiter sent two transfers: {stack:?}");
    }

    fn assert_buffers_handed_back(s: &DelayOptimal) {
        assert_eq!(s.phase(), RequesterPhase::Idle);
        assert!(s.cold.rq.is_none(), "requester box kept");
        assert_eq!(s.rq().tran_stack.capacity(), 0, "tran_stack kept capacity");
        assert_eq!(s.rq().inq_queue.capacity(), 0, "inq_queue kept capacity");
        assert_eq!(s.rq().replied.spill_capacity(), 0, "replied kept its spill");
        s.assert_invariants();
    }

    fn sends_of(f: impl FnOnce(&mut Effects<Msg>)) -> Vec<(SiteId, Msg)> {
        let mut fx = Effects::new();
        f(&mut fx);
        fx.take_sends()
    }

    fn send(to: u32, clk: u64, body: Body) -> (SiteId, Msg) {
        (
            SiteId(to),
            Msg {
                clk: SeqNum(clk),
                body,
            },
        )
    }

    /// Site 0's request `seq` to the other members of `{0, 1, 2, 299}`.
    fn requests_of_site_0(seq: u64) -> Vec<(SiteId, Msg)> {
        let ts = Timestamp::new(seq, SiteId(0));
        [1, 2, 299]
            .into_iter()
            .map(|to| send(to, seq, Body::Request { ts }))
            .collect()
    }

    #[test]
    fn release_hands_back_per_request_buffers() {
        let mut sites = spill_net();
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        // 2 then 1 queue behind the holder. Equal clocks, so 1 outranks
        // 2: arbiters 0, 2 and 299 see 2 first and then 1, and each sends
        // the holder a second transfer naming the new head.
        request(&mut sites, 2, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert_repeated_transfers(&sites[0]);
        assert!(sites[0].rq().replied.spill_capacity() > 0);

        let sends = sends_of(|fx| sites[0].release_cs(fx));
        assert_buffers_handed_back(&sites[0]);
        // C.1 forwards the newest transfer per arbiter, newest first; C.2
        // releases in quorum order. The trailing transfer is arbiter 0's
        // own (local) release moving its lock on to 1.
        let (me, to_1) = (Timestamp::new(1, SiteId(0)), Timestamp::new(2, SiteId(1)));
        let reply = |arbiter| Body::Reply {
            arbiter: SiteId(arbiter),
            req: to_1,
            transfer: None,
        };
        let release_msg = Body::Release {
            holder_req: me,
            forwarded_to: Some(to_1),
        };
        let expected = vec![
            send(1, 2, reply(299)),
            send(1, 2, reply(2)),
            send(1, 2, reply(1)),
            send(1, 2, reply(0)),
            send(1, 2, release_msg.clone()),
            send(2, 2, release_msg.clone()),
            send(299, 2, release_msg),
            send(
                1,
                2,
                Body::Transfer {
                    arbiter: SiteId(0),
                    beneficiary: Timestamp::new(2, SiteId(2)),
                    holder_req: to_1,
                },
            ),
        ];
        assert_eq!(sends, expected);
        for (to, m) in sends {
            inflight.push_back((SiteId(0), to, m));
        }
        settle(&mut sites, &mut inflight);
        for next in [1u32, 2] {
            assert!(sites[next as usize].in_cs(), "S{next} is next in line");
            release(&mut sites, next, &mut inflight);
            settle(&mut sites, &mut inflight);
            assert_buffers_handed_back(&sites[next as usize]);
        }

        // The former holder's next request goes out exactly as before.
        let sends = sends_of(|fx| sites[0].request_cs(fx));
        assert_eq!(sends, requests_of_site_0(3));
        for (to, m) in sends {
            inflight.push_back((SiteId(0), to, m));
        }
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
    }

    #[test]
    fn abort_hands_back_per_request_buffers() {
        let mut sites = spill_net();
        let mut inflight = VecDeque::new();
        // 0's request to arbiter 1 is held back: 0 waits holding the
        // permissions of 0, 2 and 299.
        request(&mut sites, 0, &mut inflight);
        let held = inflight
            .iter()
            .position(|(_, to, _)| *to == SiteId(1))
            .expect("request to arbiter 1");
        let held = inflight.remove(held).expect("held message");
        settle(&mut sites, &mut inflight);
        assert!(sites[0].wants_cs());
        // 5 then 4 queue at the arbiters 0 holds; 4 outranks 5, so each of
        // them sends 0 a second transfer.
        request(&mut sites, 5, &mut inflight);
        request(&mut sites, 4, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].wants_cs());
        assert_repeated_transfers(&sites[0]);

        let sends = sends_of(|fx| assert!(sites[0].abort_cs(fx)));
        assert_buffers_handed_back(&sites[0]);
        // An abandon per member, then arbiter 0 granting its freed lock
        // to 4 with a transfer naming 5.
        let abandon = Body::Abandon {
            req: Timestamp::new(1, SiteId(0)),
        };
        let expected = vec![
            send(1, 1, abandon.clone()),
            send(2, 1, abandon.clone()),
            send(299, 1, abandon),
            send(
                4,
                1,
                Body::Reply {
                    arbiter: SiteId(0),
                    req: Timestamp::new(1, SiteId(4)),
                    transfer: Some(Timestamp::new(1, SiteId(5))),
                },
            ),
        ];
        assert_eq!(sends, expected);
        inflight.push_back(held);
        for (to, m) in sends {
            inflight.push_back((SiteId(0), to, m));
        }
        settle(&mut sites, &mut inflight);

        assert_buffers_handed_back(&sites[0]);
        let sends = sends_of(|fx| sites[0].request_cs(fx));
        assert_eq!(sends, requests_of_site_0(2));
    }

    // ------------------------------------------------------------------
    // §6 fault state is allocated on the first fault.
    // ------------------------------------------------------------------

    #[test]
    fn fault_free_contended_run_allocates_no_fault_state() {
        // 16 sites on a 4×4 grid (quorum = own row ∪ own column), every
        // site requesting at once, three rounds, with a peer universe set
        // as the detector layer does.
        let quorum = |i: u32| -> Vec<SiteId> {
            let (row, col) = (i / 4, i % 4);
            (0..16)
                .filter(|&s| s / 4 == row || s % 4 == col)
                .map(SiteId)
                .collect()
        };
        let mut sites: Vec<DelayOptimal> = (0..16)
            .map(|i| DelayOptimal::new(SiteId(i), quorum(i), Config::default()))
            .collect();
        let universe: Vec<SiteId> = (0..16).map(SiteId).collect();
        for s in &mut sites {
            s.set_peer_universe(&universe);
        }
        let mut inflight = VecDeque::new();
        let mut entries = 0;
        for _ in 0..3 {
            for i in 0..16 {
                request(&mut sites, i, &mut inflight);
            }
            settle(&mut sites, &mut inflight);
            while let Some(holder) = sites.iter().position(DelayOptimal::in_cs) {
                assert_eq!(in_cs_count(&sites), 1);
                entries += 1;
                release(&mut sites, holder as u32, &mut inflight);
                settle(&mut sites, &mut inflight);
                for s in &sites {
                    s.assert_invariants();
                    assert!(
                        s.cold.faults.is_none(),
                        "{}: fault state allocated",
                        s.site()
                    );
                }
            }
        }
        assert_eq!(entries, 48);
        assert!(sites.iter().all(|s| s.phase() == RequesterPhase::Idle));
    }

    #[test]
    fn first_suspicion_allocates_fault_state_with_unchanged_debug() {
        let mut sites = net(3, &[0, 1, 2]);
        let universe = [SiteId(0), SiteId(1), SiteId(2)];
        for s in &mut sites {
            s.set_peer_universe(&universe);
        }
        let mut inflight = VecDeque::new();
        request(&mut sites, 0, &mut inflight);
        settle(&mut sites, &mut inflight);
        request(&mut sites, 1, &mut inflight);
        settle(&mut sites, &mut inflight);
        assert!(sites.iter().all(|s| s.cold.faults.is_none()));

        // 0 suspects 2 while in its CS: its release to 2 is withheld.
        let sends = sends_of(|fx| sites[0].on_site_suspected(SiteId(2), fx));
        assert!(sends.is_empty());
        assert!(sites[0].cold.faults.is_some());
        release(&mut sites, 0, &mut inflight);
        // Recorded before the fault state moved into its own box.
        assert_eq!(
            format!("{:?}", sites[0]),
            "DelayOptimal { site: SiteId(0), cfg: Config { forwarding_enabled: true }, \
             clock: LamportClock { last: 2 }, req_set: [SiteId(0), SiteId(1), SiteId(2)], \
             phase: Idle, my_req: None, replied: {}, failed: false, \
             lock: Some(Timestamp { seq: SeqNum(2), site: SiteId(1) }), \
             req_queue: ReqQueue { set: {} }, tran_stack: [], inq_queue: [], \
             early_returns: {}, known_failed: {SiteId(2)}, confirmed_failed: {}, \
             inaccessible: false, want_cs: false, deadline: None, \
             withheld: {SiteId(2): [Timestamp { seq: SeqNum(1), site: SiteId(0) }]}, \
             rejoining: false, peer_universe: [SiteId(1), SiteId(2)], \
             rejoin_awaiting: {}, local_q: [], .. }"
        );

        // Recovery and a failure notice fill the other fault fields.
        sites[2].on_recover(&mut Effects::new());
        assert!(sites[2].cold.faults.is_some());
        sites[2].on_site_failure(SiteId(1), &mut Effects::new());
        assert_eq!(
            format!("{:?}", sites[2]),
            "DelayOptimal { site: SiteId(2), cfg: Config { forwarding_enabled: true }, \
             clock: LamportClock { last: 2 }, req_set: [SiteId(0), SiteId(1), SiteId(2)], \
             phase: Idle, my_req: None, replied: {}, failed: false, \
             lock: Some(Timestamp { seq: SeqNum(1), site: SiteId(0) }), \
             req_queue: ReqQueue { set: {} }, tran_stack: [], inq_queue: [], \
             early_returns: {}, known_failed: {SiteId(1)}, confirmed_failed: {SiteId(1)}, \
             inaccessible: true, want_cs: false, deadline: None, withheld: {}, \
             rejoining: true, peer_universe: [SiteId(0), SiteId(1)], \
             rejoin_awaiting: {SiteId(0)}, local_q: [], .. }"
        );
    }

    #[test]
    fn restore_and_rejoin_of_unsuspected_peers_allocate_nothing() {
        let mut sites = net(3, &[0, 1, 2]);
        let mut fx = Effects::new();
        sites[0].on_site_restored(SiteId(1), &mut fx);
        sites[0].on_peer_rejoined(SiteId(2), 1, &mut fx);
        sites[0].on_rejoin_complete(&mut fx);
        assert!(sites[0].cold.faults.is_none());
        sites[0].assert_invariants();
    }

    #[test]
    fn withholding_toward_a_high_site_id_holds_one_entry() {
        let mut w = Withheld::default();
        let far = SiteId(99_999);
        w.add(far, Timestamp::new(2, SiteId(0)));
        w.add(far, Timestamp::new(1, SiteId(0)));
        w.add(far, Timestamp::new(2, SiteId(0)));
        w.add(SiteId(7), Timestamp::new(3, SiteId(0)));
        assert_eq!(w.by_site.len(), 2);
        assert!(w.by_site.capacity() <= 4, "{} slots", w.by_site.capacity());
        assert_eq!(
            format!("{w:?}"),
            "{SiteId(7): [Timestamp { seq: SeqNum(3), site: SiteId(0) }], \
             SiteId(99999): [Timestamp { seq: SeqNum(1), site: SiteId(0) }, \
             Timestamp { seq: SeqNum(2), site: SiteId(0) }]}"
        );
        assert_eq!(
            w.take(far),
            Some(vec![
                Timestamp::new(1, SiteId(0)),
                Timestamp::new(2, SiteId(0))
            ])
        );
        assert_eq!(w.take(far), None);
        let _ = w.take(SiteId(7));
        assert_eq!(format!("{w:?}"), "{}");
    }

    // ------------------------------------------------------------------
    // A fault-free lazy site holds its quorum only while it requests.
    // ------------------------------------------------------------------

    /// Site `s`'s quorum is `{s, s + 1}` (mod 3), or `{s, s + 2}` while
    /// `s + 1` is down.
    #[derive(Clone)]
    struct NextOrAfter;

    impl QuorumSource for NextOrAfter {
        fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
            let member = [1, 2]
                .map(|k| SiteId((site.0 + k) % 3))
                .into_iter()
                .find(|m| !down.contains(m))?;
            let mut q = vec![site, member];
            q.sort_unstable();
            Some(q)
        }

        fn box_clone(&self) -> Box<dyn QuorumSource> {
            Box::new(self.clone())
        }
    }

    fn lazy_net() -> Vec<DelayOptimal> {
        (0..3)
            .map(|i| {
                DelayOptimal::with_lazy_quorum_source(
                    SiteId(i),
                    Config::default(),
                    Box::new(NextOrAfter),
                )
            })
            .collect()
    }

    /// Runs `f` on site `s`, returns its sends and puts them in flight.
    fn step(
        sites: &mut [DelayOptimal],
        s: u32,
        inflight: &mut VecDeque<(SiteId, SiteId, Msg)>,
        f: impl FnOnce(&mut DelayOptimal, &mut Effects<Msg>),
    ) -> Vec<(SiteId, Msg)> {
        let sends = sends_of(|fx| f(&mut sites[s as usize], fx));
        for (to, m) in &sends {
            inflight.push_back((SiteId(s), *to, m.clone()));
        }
        sends
    }

    #[test]
    fn lazy_site_suspecting_a_released_quorum_member_sends_as_if_it_kept_it() {
        let mut sites = lazy_net();
        let mut inflight = VecDeque::new();
        let mut sends = Vec::new();
        sends.push(step(&mut sites, 0, &mut inflight, |s, fx| s.request_cs(fx)));
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        sends.push(step(&mut sites, 0, &mut inflight, |s, fx| s.release_cs(fx)));
        settle(&mut sites, &mut inflight);
        // Idle when it first suspects a member of the quorum it used.
        sends.push(step(&mut sites, 0, &mut inflight, |s, fx| {
            s.on_site_suspected(SiteId(1), fx)
        }));
        sends.push(step(&mut sites, 0, &mut inflight, |s, fx| {
            s.on_site_restored(SiteId(1), fx)
        }));
        sends.push(step(&mut sites, 0, &mut inflight, |s, fx| s.request_cs(fx)));
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
        // Recorded on a tree where lazy sites kept their quorum: the
        // suspicion moved it to {0, 2} and the restoration left it there.
        let ts = |seq| Timestamp::new(seq, SiteId(0));
        assert_eq!(
            sends,
            vec![
                vec![send(1, 1, Body::Request { ts: ts(1) })],
                vec![send(
                    1,
                    1,
                    Body::Release {
                        holder_req: ts(1),
                        forwarded_to: None,
                    },
                )],
                vec![],
                vec![],
                vec![send(2, 2, Body::Request { ts: ts(2) })],
            ]
        );
        assert_eq!(
            format!("{:?}", sites[0]),
            "DelayOptimal { site: SiteId(0), cfg: Config { forwarding_enabled: true }, \
             clock: LamportClock { last: 2 }, req_set: [SiteId(0), SiteId(2)], phase: InCs, \
             my_req: Some(Timestamp { seq: SeqNum(2), site: SiteId(0) }), \
             replied: {SiteId(0), SiteId(2)}, failed: false, \
             lock: Some(Timestamp { seq: SeqNum(2), site: SiteId(0) }), \
             req_queue: ReqQueue { set: {} }, tran_stack: [], inq_queue: [], \
             early_returns: {}, known_failed: {}, confirmed_failed: {}, \
             inaccessible: false, want_cs: false, deadline: None, withheld: {}, \
             rejoining: false, peer_universe: [], rejoin_awaiting: {}, local_q: [], .. }"
        );
    }

    #[test]
    fn fault_free_lazy_site_holds_its_quorum_only_while_requesting() {
        let mut sites = lazy_net();
        let mut inflight = VecDeque::new();
        let first = step(&mut sites, 0, &mut inflight, |s, fx| s.request_cs(fx));
        assert_eq!(sites[0].req_set(), &[SiteId(0), SiteId(1)]);
        assert!(sites[0].cold.rq.is_some());
        settle(&mut sites, &mut inflight);
        step(&mut sites, 0, &mut inflight, |s, fx| s.release_cs(fx));
        settle(&mut sites, &mut inflight);
        for s in &sites {
            s.assert_invariants();
            assert!(s.cold.rq.is_none(), "{}: requester box kept", s.site());
            assert!(s.req_set().is_empty(), "{}: quorum kept", s.site());
            assert_eq!(s.cold.req_set.capacity(), 0);
            assert_eq!(
                s.cold.local_q.capacity(),
                0,
                "{}: queue buffer kept",
                s.site()
            );
        }
        // The next request pulls the same quorum and asks the same
        // members, with the next timestamp.
        let second = step(&mut sites, 0, &mut inflight, |s, fx| s.request_cs(fx));
        assert_eq!(sites[0].req_set(), &[SiteId(0), SiteId(1)]);
        let ts = |seq| Timestamp::new(seq, SiteId(0));
        assert_eq!(first, vec![send(1, 1, Body::Request { ts: ts(1) })]);
        assert_eq!(second, vec![send(1, 2, Body::Request { ts: ts(2) })]);
        settle(&mut sites, &mut inflight);
        assert!(sites[0].in_cs());
    }
}
