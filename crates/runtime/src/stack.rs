//! Canonical protocol stack served by the networked runtime.
//!
//! The node is generic over [`Protocol`](qmx_core::Protocol); this module
//! pins the composition the paper's deployment uses — failure detection
//! over reliable delivery over a sharded multi-resource lock space over
//! the delay-optimal algorithm — and offers one builder so `qmxctl
//! serve`, the e2e tests, and the bench harness construct byte-identical
//! stacks.

use std::collections::BTreeSet;
use std::sync::Arc;

use qmx_core::{
    Config, DelayOptimal, Detector, DetectorConfig, HbMsg, LockSpace, Msg, Packet, QuorumSource,
    Reliable, ResMsg, SiteId, TransportConfig,
};

/// The full serving stack: `Detector<Reliable<LockSpace<DelayOptimal>>>`.
pub type ServeStack = Detector<Reliable<LockSpace<DelayOptimal>>>;

/// The wire message type the stack exchanges between sites.
pub type ServeMsg = HbMsg<Packet<ResMsg<Msg>>>;

/// Everything needed to build one site's [`ServeStack`].
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// All sites in the cluster.
    pub sites: Vec<SiteId>,
    /// This site's request quorum (used for every resource shard).
    pub quorum: Vec<SiteId>,
    /// Delay-optimal algorithm knobs; set `forwarding_enabled = false`
    /// for the `2T` arbiter-mediated baseline.
    pub algo: Config,
    /// Ack/retransmit tuning.
    pub transport: TransportConfig,
    /// Heartbeat/suspicion tuning.
    pub detector: DetectorConfig,
    /// With `true`, each shard gets a [`RingMajoritySource`] instead of
    /// the fixed `quorum`, enabling the paper's §6 quorum reconstruction:
    /// when a quorum member is suspected or confirmed failed, the
    /// requester rebuilds a majority from the live sites and re-issues.
    /// With `false` the fixed `quorum` is used and a site whose quorum
    /// member dies becomes inaccessible until it recovers.
    pub majority_reconstruct: bool,
}

impl StackConfig {
    /// A config for an `n`-site cluster where every site uses the full
    /// site set as its quorum (simple majority-free grid stand-in; real
    /// deployments pass quorums from `qmx-quorum`).
    pub fn all_sites(n: u32) -> Self {
        let sites: Vec<SiteId> = (0..n).map(SiteId).collect();
        StackConfig {
            quorum: sites.clone(),
            sites,
            algo: Config::default(),
            transport: TransportConfig::default(),
            detector: DetectorConfig::default(),
            majority_reconstruct: false,
        }
    }
}

/// Ring-majority quorum construction over `n` sites: the first
/// `⌊n/2⌋+1` *live* sites walking the ring from the requester. With no
/// failures this is exactly `{i, i+1, …} mod n`, the quorum shape the
/// deterministic harness uses, so enabling reconstruction does not
/// change steady-state traffic. Any two majorities of the same universe
/// intersect, so reconstruction never violates mutual exclusion.
#[derive(Debug, Clone)]
pub struct RingMajoritySource {
    n: u32,
}

impl RingMajoritySource {
    /// A source over sites `0..n`.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "need at least one site");
        RingMajoritySource { n }
    }
}

impl QuorumSource for RingMajoritySource {
    fn quorum_avoiding(&self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        let m = (self.n / 2 + 1) as usize;
        let mut q = Vec::with_capacity(m);
        for k in 0..self.n {
            let cand = SiteId((site.0 + k) % self.n);
            if !down.contains(&cand) {
                q.push(cand);
                if q.len() == m {
                    return Some(q);
                }
            }
        }
        None
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

/// Builds the serving stack for `site`.
pub fn build_stack(site: SiteId, cfg: &StackConfig) -> ServeStack {
    let quorum = cfg.quorum.clone();
    let algo = cfg.algo.clone();
    let n = cfg.sites.len() as u32;
    let reconstruct = cfg.majority_reconstruct;
    let space = LockSpace::new(
        site,
        Arc::new(move |_rid| {
            if reconstruct {
                DelayOptimal::with_quorum_source(
                    site,
                    algo.clone(),
                    Box::new(RingMajoritySource::new(n)),
                )
            } else {
                DelayOptimal::new(site, quorum.clone(), algo.clone())
            }
        }),
    );
    let peers: Vec<SiteId> = cfg.sites.iter().copied().filter(|&s| s != site).collect();
    Detector::new(Reliable::new(space, cfg.transport), peers, cfg.detector)
}
