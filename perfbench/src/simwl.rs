//! `sim-contended`: `qmx-sim` runs `DelayOptimal` at large N on lazy grid
//! quorums under contention, with the program's default scheduler.
//!
//! Requests from distinct random sites arrive as a Poisson stream faster
//! than the critical section can serve them, so almost every entry is a
//! handover. Delays are exponential with mean `T = 1000` ticks; a tick is
//! read as one virtual µs, so the `ms` metrics are virtual milliseconds
//! and `T` is one of them. Throughput is taken over the thread's CPU
//! seconds. Nothing here touches the runtime.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use qmx_core::{Config, DelayOptimal, Protocol, SiteId};
use qmx_quorum::GridQuorumSource;
use qmx_sim::{DelayModel, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats;
use crate::trace::{self, Layer, Traced};
use crate::{Layers, Report, Run, Summary};

const N: usize = 10_000;
const REQUESTS: usize = 2_400;
const T_TICKS: u64 = 1_000;
const HOLD_TICKS: u64 = 100;
/// Mean gap between arrivals, about half of what one critical section
/// plus its handover takes, so a queue builds and nearly every entry is a
/// handover.
const GAP_TICKS: f64 = 1_000.0;
const MIN_REPS: usize = 3;

/// One repetition's results. Everything but the times must repeat.
struct Rep {
    setup_s: f64,
    build_s: f64,
    /// CPU time of the event loop.
    run_s: f64,
    events: usize,
    messages: u64,
    response: Vec<u64>,
    sync: Vec<u64>,
    protocol_ns: u64,
    problems: Vec<String>,
}

impl Rep {
    fn signature(&self) -> (usize, u64, &[u64], &[u64]) {
        (self.events, self.messages, &self.response, &self.sync)
    }
}

fn arrivals(seed: u64) -> Vec<(SiteId, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = BTreeSet::new();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(REQUESTS);
    while out.len() < REQUESTS {
        let site = rng.gen_range(0..N as u64) as u32;
        if !used.insert(site) {
            continue;
        }
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() * GAP_TICKS;
        out.push((SiteId(site), t as u64));
    }
    out
}

fn rep<P: Protocol>(seed: u64, wrap: fn(DelayOptimal) -> P) -> Rep {
    trace::reset();
    let t0 = Instant::now();
    let sites: Vec<P> = (0..N)
        .map(|i| {
            wrap(DelayOptimal::with_lazy_quorum_source(
                SiteId(i as u32),
                Config::default(),
                Box::new(GridQuorumSource::new(N)),
            ))
        })
        .collect();
    let build_s = t0.elapsed().as_secs_f64();
    let mut sim = Simulator::new(
        sites,
        SimConfig {
            delay: DelayModel::Exponential { mean: T_TICKS },
            hold: DelayModel::Constant(HOLD_TICKS),
            seed,
            ..SimConfig::default()
        },
    );
    sim.schedule_requests(&arrivals(seed));
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = crate::thread_cpu_s();
    // The simulator's safety monitor panics on two sites in one critical
    // section; that is a failed check, not a crash of the benchmark.
    let ran = catch_unwind(AssertUnwindSafe(|| sim.run_to_quiescence(u64::MAX / 2)));
    let run_s = crate::thread_cpu_s() - cpu0;
    let mut problems = Vec::new();
    let events = ran.unwrap_or_else(|_| {
        problems.push("the simulator's mutual-exclusion monitor fired".into());
        0
    });
    let m = sim.metrics();
    if m.completed_cs() != REQUESTS {
        problems.push(format!(
            "{} of {REQUESTS} requests completed",
            m.completed_cs()
        ));
    }
    let mut records: Vec<_> = m.records().to_vec();
    records.sort_by_key(|r| r.entered_at);
    if records.windows(2).any(|w| w[1].entered_at < w[0].exited_at) {
        problems.push("two critical sections overlap in the simulator's records".into());
    }
    Rep {
        setup_s,
        build_s,
        run_s,
        events,
        messages: m.total_messages(),
        response: m.records().iter().map(|r| r.response_time()).collect(),
        sync: m.sync_delays(),
        protocol_ns: trace::totals(Layer::Protocol).self_ns,
        problems,
    }
}

fn plain(d: DelayOptimal) -> DelayOptimal {
    d
}

fn traced(d: DelayOptimal) -> Traced<DelayOptimal> {
    Traced::new(Layer::Protocol, d)
}

fn reps<P: Protocol>(run: &Run, budget: f64, min: usize, wrap: fn(DelayOptimal) -> P) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < budget {
        out.push(rep(run.seed, wrap));
    }
    out
}

fn check(reps: &[Rep], report: &mut Report) {
    for r in reps {
        for p in &r.problems {
            report.problem(p.clone());
        }
        if r.signature() != reps[0].signature() {
            report.problem("sim-contended counts differ between repetitions of one seed".into());
        }
    }
}

fn median_of(reps: &[Rep], f: fn(&Rep) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Runs `sim-contended`.
pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let budget = run.seconds as f64 / if run.trace { 2.0 } else { 1.0 };
    let plain = reps(run, budget, MIN_REPS, plain);
    check(&plain, &mut report);
    let first = &plain[0];
    report.attempted = (plain.len() * REQUESTS) as u64;
    let run_s = median_of(&plain, |r| r.run_s);
    let ms = |v: &[u64]| v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>();
    let (response, sync) = (ms(&first.response), ms(&first.sync));
    let none = stats::Pct {
        p: 50.0,
        value: 0.0,
        n: 0,
    };
    let h50 = stats::p50(&sync).unwrap_or(none);
    if h50.n == 0 {
        report.problem("no handover was observed".into());
    }
    report.note(format!(
        "{} repetitions, {} events each, run CPU s: {:?}",
        plain.len(),
        first.events,
        plain.iter().map(|r| r.run_s).collect::<Vec<_>>()
    ));
    if !run.trace {
        report.end_to_end(&Summary {
            setup_s: median_of(&plain, |r| r.setup_s),
            grants_per_s: REQUESTS as f64 / run_s,
            acquire: (
                stats::p50(&response).unwrap_or(none),
                stats::tail(&response, 99.0).unwrap_or(none),
            ),
            handover: (h50, stats::tail(&sync, 99.0).unwrap_or(none)),
            handover_t: h50.value * 1e3 / T_TICKS as f64,
            msgs_per_grant: first.messages as f64 / REQUESTS as f64,
            events_per_s: first.events as f64 / run_s,
            peak_rss_mb: crate::own_peak_rss_mb(),
        });
        return Ok(report);
    }

    let traced = reps(run, budget, 1, traced);
    check(&traced, &mut report);
    report.attempted += (traced.len() * REQUESTS) as u64;
    if traced[0].signature() != first.signature() {
        report.problem("the traced protocol did not reproduce the untraced counts".into());
    }
    // Tallies and spans describe the last traced repetition.
    let last = traced.last().expect("at least one repetition");
    let events = last.events.max(1) as f64;
    let mut l = Layers::default();
    let run_ns = last.run_s * 1e9;
    l.set(
        "sim.engine_ns_per_event",
        (run_ns - last.protocol_ns as f64) / events,
    );
    l.set(
        "sim.protocol_ns_per_event",
        last.protocol_ns as f64 / events,
    );
    l.set("sim.events_per_grant", events / REQUESTS as f64);
    l.set("quorum.build_ms", median_of(&traced, |r| r.build_s) * 1e3);
    let t = trace::totals(Layer::Protocol);
    l.set(
        "protocol.self_ns_per_call",
        t.self_ns as f64 / t.calls.max(1) as f64,
    );
    let tally = trace::tally();
    for (kind, n) in crate::KINDS.iter().zip(tally.kinds) {
        l.set(
            &format!("protocol.{kind}_per_grant"),
            n as f64 / REQUESTS as f64,
        );
    }
    let handoffs = (tally.forwarded + tally.arbiter_handoffs).max(1) as f64;
    l.set("protocol.forwarded_frac", tally.forwarded as f64 / handoffs);
    l.set(
        "trace.overhead_frac",
        median_of(&traced, |r| r.run_s) / run_s - 1.0,
    );
    report.layers = l;
    Ok(report)
}
