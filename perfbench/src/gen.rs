//! Bookkeeping of the wire load generator, free of sockets and clocks.
//!
//! [`Gen`] decides when each acquire goes out and when each lock is
//! released, and checks what comes back. The caller owns the clock and the
//! connections: it feeds [`Gen::poll`] the time, puts the returned
//! [`Action`]s on the wire, and reports grants, aborts and rejections. That
//! split is what lets the tests drive it with a fake clock.
//!
//! Two arrival disciplines share the code:
//!
//! * **open loop** — a fixed schedule of due times. An acquire is timed
//!   from when it was *due*, so a stall also counts against every acquire
//!   it held back. A due acquire whose resource is already in flight on
//!   its connection waits client-side (the server allows one outstanding
//!   acquire per session and resource), still timed from its due time.
//! * **closed loop** — every connection re-acquires one resource as soon
//!   as it has released it.
//!
//! Only acquires due inside the measured window `[start, end)` are
//! counted; warm-up traffic before `start` runs through the same code.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// One scheduled acquire of an open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, microseconds.
    pub due: u64,
    /// Connection that sends it.
    pub conn: usize,
    /// Resource it acquires.
    pub rid: u32,
}

/// How acquires arrive.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// A fixed schedule, sorted by due time.
    Open(Vec<Arrival>),
    /// Every connection holds `rid` in turn, re-acquiring at once.
    Closed {
        /// The one resource.
        rid: u32,
    },
}

/// Something the caller must send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send an acquire for `rid` on `conn`, then report its request token
    /// with [`Gen::sent`].
    Acquire {
        /// Connection.
        conn: usize,
        /// Resource.
        rid: u32,
        /// The generator's id for this acquire.
        id: usize,
    },
    /// Send a release of the held request `req` on `rid`.
    Release {
        /// Connection.
        conn: usize,
        /// Resource.
        rid: u32,
        /// Request token being released.
        req: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Issued (or blocked) but no token reported yet.
    Queued,
    /// On the wire, awaiting its outcome.
    Sent { req: u64 },
    /// Granted; released at `until`.
    Held { req: u64, until: u64 },
    /// Released, aborted or rejected.
    Done,
}

#[derive(Debug, Clone)]
struct Acq {
    due: u64,
    conn: usize,
    rid: u32,
    counted: bool,
    phase: Phase,
}

/// The generator state. See the module docs.
#[derive(Debug)]
pub struct Gen {
    arrivals: Arrivals,
    next_arrival: usize,
    conns: usize,
    hold_us: u64,
    start: u64,
    end: u64,
    acqs: Vec<Acq>,
    /// Per connection: resource → the acquire occupying it (issued, sent
    /// or held).
    busy: Vec<BTreeMap<u32, usize>>,
    /// Per connection: resource → due acquires waiting client-side.
    blocked: Vec<BTreeMap<u32, VecDeque<usize>>>,
    /// Per connection: request token → acquire awaiting its outcome.
    by_req: Vec<BTreeMap<u64, usize>>,
    /// Per connection: releases sent but not yet confirmed.
    unconfirmed: Vec<BTreeMap<u64, u32>>,
    held: Vec<usize>,
    /// Resource → connection holding it (release not yet sent).
    holders: BTreeMap<u32, usize>,
    /// Resource → when a release was sent while another connection's
    /// acquire for it was queued at the server.
    release_mark: BTreeMap<u32, u64>,
    /// Acquire latencies from due time to grant, ms (counted acquires).
    pub acquire_ms: Vec<f64>,
    /// Handover gaps, release sent to the waiter's grant, ms.
    pub handover_ms: Vec<f64>,
    /// How late the generator admitted each counted open-loop arrival
    /// (its own lag, not the client-side wait behind a busy resource), ms.
    pub lateness_ms: Vec<f64>,
    /// Acquires due inside the window.
    pub attempted: u64,
    /// Counted acquires granted.
    pub granted: u64,
    /// Counted acquires aborted by the server.
    pub aborted: u64,
    /// Counted acquires rejected by the server.
    pub rejected: u64,
    /// Counted acquires still unresolved when the window closed.
    pub unfinished_at_end: Option<u64>,
    /// Broken guarantees: overlapping holders, unknown or repeated
    /// outcomes.
    pub violations: Vec<String>,
}

impl Gen {
    /// A generator over `conns` connections measuring `[start, end)`.
    pub fn new(arrivals: Arrivals, conns: usize, hold_us: u64, start: u64, end: u64) -> Self {
        if let Arrivals::Open(s) = &arrivals {
            assert!(s.windows(2).all(|w| w[0].due <= w[1].due), "unsorted");
            assert!(
                s.iter().all(|a| a.conn < conns),
                "arrival on a missing connection"
            );
        }
        Gen {
            arrivals,
            next_arrival: 0,
            conns,
            hold_us,
            start,
            end,
            acqs: Vec::new(),
            busy: vec![BTreeMap::new(); conns],
            blocked: vec![BTreeMap::new(); conns],
            by_req: vec![BTreeMap::new(); conns],
            unconfirmed: vec![BTreeMap::new(); conns],
            held: Vec::new(),
            holders: BTreeMap::new(),
            release_mark: BTreeMap::new(),
            acquire_ms: Vec::new(),
            handover_ms: Vec::new(),
            lateness_ms: Vec::new(),
            attempted: 0,
            granted: 0,
            aborted: 0,
            rejected: 0,
            unfinished_at_end: None,
            violations: Vec::new(),
        }
    }

    /// `(aborted + rejected + unfinished at window end) / attempted`.
    pub fn failed_frac(&self) -> f64 {
        let failed = self.aborted + self.rejected + self.unfinished_at_end.unwrap_or(0);
        failed as f64 / self.attempted.max(1) as f64
    }

    /// Counted acquires that never resolved (checked after the drain).
    pub fn unresolved(&self) -> u64 {
        self.acqs
            .iter()
            .filter(|a| a.counted && matches!(a.phase, Phase::Queued | Phase::Sent { .. }))
            .count() as u64
    }

    /// True once the window is over and nothing is in flight.
    pub fn drained(&self, now: u64) -> bool {
        now >= self.end
            && self.held.is_empty()
            && self.by_req.iter().all(BTreeMap::is_empty)
            && self.unconfirmed.iter().all(BTreeMap::is_empty)
            && self
                .blocked
                .iter()
                .all(|b| b.values().all(VecDeque::is_empty))
    }

    /// The next moment `poll` has work to do, if known.
    pub fn next_due(&self) -> Option<u64> {
        let mut next = self
            .held
            .iter()
            .filter_map(|&id| match self.acqs[id].phase {
                Phase::Held { until, .. } => Some(until),
                _ => None,
            })
            .min();
        if let Arrivals::Open(s) = &self.arrivals {
            if let Some(a) = s.get(self.next_arrival) {
                next = Some(next.map_or(a.due, |n| n.min(a.due)));
            }
        }
        next
    }

    fn issue(&mut self, id: usize, out: &mut Vec<Action>) {
        let (conn, rid) = (self.acqs[id].conn, self.acqs[id].rid);
        match self.busy[conn].entry(rid) {
            Entry::Occupied(_) => self.blocked[conn].entry(rid).or_default().push_back(id),
            Entry::Vacant(slot) => {
                slot.insert(id);
                out.push(Action::Acquire { conn, rid, id });
            }
        }
    }

    fn create(&mut self, due: u64, conn: usize, rid: u32) -> usize {
        let counted = due >= self.start && due < self.end;
        if counted {
            self.attempted += 1;
        }
        self.acqs.push(Acq {
            due,
            conn,
            rid,
            counted,
            phase: Phase::Queued,
        });
        self.acqs.len() - 1
    }

    /// Advances to `now`: closes the window, releases expired holds,
    /// admits due acquires and unblocks waiting ones.
    pub fn poll(&mut self, now: u64) -> Vec<Action> {
        let mut out = Vec::new();
        if now >= self.end && self.unfinished_at_end.is_none() {
            let open = self
                .acqs
                .iter()
                .filter(|a| a.counted && matches!(a.phase, Phase::Queued | Phase::Sent { .. }))
                .count();
            self.unfinished_at_end = Some(open as u64);
        }
        let mut i = 0;
        while i < self.held.len() {
            let id = self.held[i];
            match self.acqs[id].phase {
                Phase::Held { req, until } if until <= now => {
                    self.held.swap_remove(i);
                    self.release(id, req, now, &mut out);
                }
                _ => i += 1,
            }
        }
        match &self.arrivals {
            Arrivals::Open(schedule) => {
                let mut due = Vec::new();
                while let Some(a) = schedule.get(self.next_arrival) {
                    if a.due > now || a.due >= self.end {
                        break;
                    }
                    due.push(*a);
                    self.next_arrival += 1;
                }
                for a in due {
                    if a.due >= self.start {
                        self.lateness_ms.push((now - a.due) as f64 / 1000.0);
                    }
                    let id = self.create(a.due, a.conn, a.rid);
                    self.issue(id, &mut out);
                }
            }
            Arrivals::Closed { rid } => {
                let rid = *rid;
                if now < self.end {
                    for conn in 0..self.conns {
                        if !self.busy[conn].contains_key(&rid) {
                            let id = self.create(now, conn, rid);
                            self.issue(id, &mut out);
                        }
                    }
                }
            }
        }
        for conn in 0..self.conns {
            let free: Vec<u32> = self.blocked[conn]
                .iter()
                .filter(|(rid, q)| !q.is_empty() && !self.busy[conn].contains_key(rid))
                .map(|(rid, _)| *rid)
                .collect();
            for rid in free {
                let id = self.blocked[conn]
                    .get_mut(&rid)
                    .and_then(VecDeque::pop_front)
                    .expect("non-empty queue");
                self.busy[conn].insert(rid, id);
                out.push(Action::Acquire { conn, rid, id });
            }
        }
        out
    }

    fn release(&mut self, id: usize, req: u64, now: u64, out: &mut Vec<Action>) {
        let (conn, rid) = (self.acqs[id].conn, self.acqs[id].rid);
        self.acqs[id].phase = Phase::Done;
        self.busy[conn].remove(&rid);
        self.holders.remove(&rid);
        self.unconfirmed[conn].insert(req, rid);
        // A handover only exists when another connection's acquire for
        // this resource is already queued at the server.
        let waiter = self.busy.iter().enumerate().any(|(c, b)| {
            c != conn
                && b.get(&rid)
                    .is_some_and(|&w| matches!(self.acqs[w].phase, Phase::Sent { .. }))
        });
        if waiter {
            self.release_mark.insert(rid, now);
        } else {
            self.release_mark.remove(&rid);
        }
        out.push(Action::Release { conn, rid, req });
    }

    /// The acquire `id` went out carrying token `req`.
    pub fn sent(&mut self, id: usize, req: u64) {
        let a = &mut self.acqs[id];
        a.phase = Phase::Sent { req };
        self.by_req[a.conn].insert(req, id);
    }

    fn resolve(&mut self, conn: usize, req: u64, what: &str) -> Option<usize> {
        match self.by_req.get_mut(conn).and_then(|m| m.remove(&req)) {
            Some(id) => Some(id),
            None => {
                self.violations.push(format!(
                    "{what} for unknown or resolved request {req} on connection {conn}"
                ));
                None
            }
        }
    }

    /// The server granted `req` on `conn` at `now`.
    pub fn granted(&mut self, conn: usize, req: u64, now: u64) {
        let Some(id) = self.resolve(conn, req, "grant") else {
            return;
        };
        let a = self.acqs[id].clone();
        if let Some(other) = self.holders.insert(a.rid, conn) {
            self.violations.push(format!(
                "resource {} granted to connection {conn} while connection {other} held it",
                a.rid
            ));
        }
        self.acqs[id].phase = Phase::Held {
            req,
            until: now + self.hold_us,
        };
        self.held.push(id);
        let mark = self.release_mark.remove(&a.rid);
        if a.counted {
            self.granted += 1;
            self.acquire_ms
                .push(now.saturating_sub(a.due) as f64 / 1000.0);
            if let Some(r0) = mark {
                self.handover_ms
                    .push(now.saturating_sub(r0) as f64 / 1000.0);
            }
        }
    }

    /// The server withdrew (`aborted = true`) or refused `req` on `conn`.
    pub fn failed(&mut self, conn: usize, req: u64, aborted: bool) {
        let Some(id) = self.resolve(conn, req, "abort") else {
            return;
        };
        let a = &mut self.acqs[id];
        a.phase = Phase::Done;
        let (rid, counted) = (a.rid, a.counted);
        self.busy[conn].remove(&rid);
        if counted && aborted {
            self.aborted += 1;
        } else if counted {
            self.rejected += 1;
        }
    }

    /// The server confirmed the release of `req` on `conn`.
    pub fn released(&mut self, conn: usize, req: u64) {
        if self.unconfirmed[conn].remove(&req).is_none() {
            self.violations.push(format!(
                "release confirmation for unknown request {req} on connection {conn}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acquire_id(actions: &[Action]) -> usize {
        match actions {
            [Action::Acquire { id, .. }] => *id,
            other => panic!("expected one acquire, got {other:?}"),
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Fake clock in microseconds; both acquires hit resource 5 on one
        // connection, so the second waits client-side behind the first.
        let schedule = vec![
            Arrival {
                due: 100,
                conn: 0,
                rid: 5,
            },
            Arrival {
                due: 150,
                conn: 0,
                rid: 5,
            },
        ];
        let mut g = Gen::new(Arrivals::Open(schedule), 1, 1_000, 0, 10_000);
        // The generator itself runs 20 µs late for the first arrival.
        let a = acquire_id(&g.poll(120));
        g.sent(a, 1);
        assert!(g.poll(150).is_empty(), "blocked behind the first");
        g.granted(0, 1, 300);
        let actions = g.poll(1_300);
        assert_eq!(
            actions[0],
            Action::Release {
                conn: 0,
                rid: 5,
                req: 1
            }
        );
        let b = acquire_id(&actions[1..]);
        g.sent(b, 2);
        g.released(0, 1);
        g.granted(0, 2, 1_500);
        // 200 µs for the first; the second is charged its 1150 µs of
        // client-side wait as well as its 200 µs on the wire.
        assert_eq!(g.acquire_ms, vec![0.2, 1.35]);
        assert_eq!(g.lateness_ms, vec![0.02, 0.0]);
        assert!(g.violations.is_empty());
    }

    #[test]
    fn unfinished_acquires_at_window_end_count_as_failed() {
        let schedule = vec![
            Arrival {
                due: 10,
                conn: 0,
                rid: 1,
            },
            Arrival {
                due: 20,
                conn: 0,
                rid: 2,
            },
            Arrival {
                due: 30,
                conn: 0,
                rid: 3,
            },
            Arrival {
                due: 2_000,
                conn: 0,
                rid: 4,
            },
        ];
        let mut g = Gen::new(Arrivals::Open(schedule), 1, 50, 0, 1_000);
        let mut ids = Vec::new();
        for t in [10, 20, 30] {
            let id = acquire_id(&g.poll(t));
            g.sent(id, t);
            ids.push(id);
        }
        g.granted(0, 10, 40);
        g.failed(0, 20, true);
        // The window closes with request 30 still in flight.
        let _ = g.poll(1_000);
        g.granted(0, 30, 1_200);
        assert_eq!(
            g.attempted, 3,
            "the arrival due after the window is not counted"
        );
        assert_eq!(g.unfinished_at_end, Some(1));
        assert_eq!(g.aborted, 1);
        assert!((g.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.unresolved(), 0, "it did resolve during the drain");
    }

    #[test]
    fn closed_loop_hands_over_and_checks_exclusion() {
        let mut g = Gen::new(Arrivals::Closed { rid: 0 }, 2, 1_000, 0, 100_000);
        let first = g.poll(0);
        assert_eq!(first.len(), 2);
        for a in &first {
            if let Action::Acquire { id, .. } = a {
                g.sent(*id, 1);
            }
        }
        g.granted(0, 1, 500);
        let actions = g.poll(1_500);
        assert_eq!(
            actions[0],
            Action::Release {
                conn: 0,
                rid: 0,
                req: 1
            }
        );
        g.granted(1, 1, 2_000);
        assert_eq!(g.handover_ms, vec![0.5]);
        // A grant to connection 0 while 1 still holds is a violation.
        if let Some(Action::Acquire { id, .. }) = actions.get(1) {
            g.sent(*id, 2);
        }
        g.granted(0, 2, 2_100);
        assert_eq!(g.violations.len(), 1, "{:?}", g.violations);
        // So is an outcome nobody asked for.
        g.granted(1, 99, 2_200);
        assert_eq!(g.violations.len(), 2);
    }
}
