//! Deterministic fault injection for chaos-testing the cluster stack.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs traffic
//! according to a [`FaultPlan`]: seeded probabilistic faults (drop, delay,
//! duplicate, corrupt — applied to outbound frames) plus deterministic
//! rules that fire at the Nth operation against a given peer/tag (kill the
//! link, or kill this whole process). Every decision comes from a ChaCha8
//! stream seeded by `(plan seed, rank)`, so a failing chaos run replays
//! bit-identically from its seed — no sockets or real crashes needed to
//! exercise recovery paths.
//!
//! Plans have a compact textual form (the CLI's `--fault-plan`):
//!
//! ```text
//! seed=7;rank=2;drop=0.05;delay=0.1:40;dup=0.01;corrupt=0.01;kill=0:3;die=5
//! ```
//!
//! * `seed=N` — RNG seed for the probabilistic faults (default 0).
//! * `rank=R` — the plan applies only on rank `R` (others run faultless).
//! * `drop=P` — each outbound frame is silently discarded with probability `P`.
//! * `delay=P:MS` — each outbound frame is delayed `MS` ms with probability `P`.
//! * `dup=P` — each outbound frame is sent twice with probability `P`.
//! * `corrupt=P` — one bit of an outbound frame is flipped with
//!   probability `P`.
//! * `kill=PEER[:TAG]:N` — from this rank's `N`th operation (send or
//!   receive, 1-based) against `PEER` (optionally only ops on `TAG`), the
//!   peer appears dead: every later exchange with it fails with
//!   [`CommError::Disconnected`].
//! * `die=N` — this process exits (status 17) at its `N`th transport
//!   operation, simulating a hard rank kill. **Process-fatal**: only
//!   meaningful for multi-process backends, never in-process simulations.
//!
//! Probabilistic faults act on the send side only; deterministic rules
//! count both sends and receives. Every backend carries encoded bytes, so
//! every rule acts the same on the simulator as over TCP; the
//! communicator's frame check turns a duplicate into a dropped frame and a
//! corruption into a typed [`CommError::Codec`].

use crate::comm::{CommError, Tag};
use crate::transport::{Frame, Transport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::time::Duration;

/// Exit status used by the `die=N` rule, distinguishable from panics (101)
/// and ordinary failures (1) in launcher logs.
pub const FAULT_DEATH_EXIT_CODE: i32 = 17;

/// What a deterministic [`FaultRule`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The matched peer appears dead from this operation on.
    KillPeer,
    /// This process exits with [`FAULT_DEATH_EXIT_CODE`].
    Die,
}

/// A deterministic trigger: fire `action` at the `nth` matching operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Restrict matching to operations against this peer (`None` = any).
    pub peer: Option<usize>,
    /// Restrict matching to operations on this tag (`None` = any).
    pub tag: Option<Tag>,
    /// 1-based count of matching operations at which the rule fires.
    pub nth: u64,
    /// What happens when the rule fires.
    pub action: FaultAction,
}

/// A deterministic, seeded schedule of faults for one rank's transport.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic fault stream.
    pub seed: u64,
    /// When set, the plan is active only on this rank; [`FaultPlan::for_rank`]
    /// returns an empty plan elsewhere.
    pub rank: Option<usize>,
    /// Per-send drop probability.
    pub drop_prob: f64,
    /// Per-send delay probability.
    pub delay_prob: f64,
    /// Delay applied when the delay fault fires.
    pub delay: Duration,
    /// Per-send duplication probability.
    pub dup_prob: f64,
    /// Per-send single-bit corruption probability.
    pub corrupt_prob: f64,
    /// Deterministic Nth-operation rules.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rank: None,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::ZERO,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            rules: Vec::new(),
        }
    }

    /// `true` when the plan can never perturb anything.
    pub fn is_empty(&self) -> bool {
        self.drop_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.rules.is_empty()
    }

    /// The plan as seen by `rank`: itself when the `rank=` filter matches
    /// (or is absent), the empty plan otherwise.
    pub fn for_rank(&self, rank: usize) -> FaultPlan {
        match self.rank {
            Some(r) if r != rank => FaultPlan::none(),
            _ => self.clone(),
        }
    }

    /// Parses the textual plan format (see the module docs). Never panics:
    /// any input is either a valid plan or a typed [`FaultPlanError`].
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::none();
        for directive in spec.split(';') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let (key, value) = directive
                .split_once('=')
                .ok_or_else(|| FaultPlanError::new(directive, "expected key=value"))?;
            let err = |detail: &str| FaultPlanError::new(directive, detail);
            match key.trim() {
                "seed" => plan.seed = parse_u64(value).map_err(&err)?,
                "rank" => {
                    plan.rank = Some(parse_u64(value).map_err(&err)? as usize);
                }
                "drop" => plan.drop_prob = parse_prob(value).map_err(&err)?,
                "dup" => plan.dup_prob = parse_prob(value).map_err(&err)?,
                "corrupt" => plan.corrupt_prob = parse_prob(value).map_err(&err)?,
                "delay" => {
                    let (p, ms) = value
                        .split_once(':')
                        .ok_or_else(|| err("expected delay=PROB:MS"))?;
                    plan.delay_prob = parse_prob(p).map_err(&err)?;
                    plan.delay = Duration::from_millis(parse_u64(ms).map_err(&err)?);
                }
                "kill" => {
                    let parts: Vec<&str> = value.split(':').collect();
                    let (peer, tag, nth) = match parts.as_slice() {
                        [peer, nth] => (peer, None, nth),
                        [peer, tag, nth] => (peer, Some(*tag), nth),
                        _ => return Err(err("expected kill=PEER[:TAG]:N")),
                    };
                    let tag = match tag {
                        None => None,
                        Some(t) => Some(parse_u64(t).map_err(&err)? as Tag),
                    };
                    plan.rules.push(FaultRule {
                        peer: Some(parse_u64(peer).map_err(&err)? as usize),
                        tag,
                        nth: parse_nth(nth).map_err(&err)?,
                        action: FaultAction::KillPeer,
                    });
                }
                "die" => plan.rules.push(FaultRule {
                    peer: None,
                    tag: None,
                    nth: parse_nth(value).map_err(&err)?,
                    action: FaultAction::Die,
                }),
                _ => return Err(err("unknown directive")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical textual form; `FaultPlan::parse(plan.to_string())`
    /// round-trips (durations are rendered in whole milliseconds).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = vec![format!("seed={}", self.seed)];
        if let Some(r) = self.rank {
            parts.push(format!("rank={r}"));
        }
        if self.drop_prob > 0.0 {
            parts.push(format!("drop={}", self.drop_prob));
        }
        if self.delay_prob > 0.0 {
            parts.push(format!(
                "delay={}:{}",
                self.delay_prob,
                self.delay.as_millis()
            ));
        }
        if self.dup_prob > 0.0 {
            parts.push(format!("dup={}", self.dup_prob));
        }
        if self.corrupt_prob > 0.0 {
            parts.push(format!("corrupt={}", self.corrupt_prob));
        }
        for rule in &self.rules {
            match rule.action {
                FaultAction::Die => parts.push(format!("die={}", rule.nth)),
                FaultAction::KillPeer => match (rule.peer, rule.tag) {
                    (Some(p), Some(t)) => parts.push(format!("kill={p}:{t}:{}", rule.nth)),
                    (Some(p), None) => parts.push(format!("kill={p}:{}", rule.nth)),
                    // Unrepresentable in the textual form; render as any-peer
                    // via peer 0 is wrong, so keep the rule out of Display.
                    (None, _) => {}
                },
            }
        }
        write!(f, "{}", parts.join(";"))
    }
}

/// A malformed fault-plan directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The offending directive text.
    pub directive: String,
    /// What is wrong with it.
    pub detail: String,
}

impl FaultPlanError {
    fn new(directive: &str, detail: &str) -> Self {
        FaultPlanError {
            directive: directive.to_string(),
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad fault-plan directive {:?}: {}",
            self.directive, self.detail
        )
    }
}

impl std::error::Error for FaultPlanError {}

fn parse_u64(s: &str) -> Result<u64, &'static str> {
    s.trim().parse::<u64>().map_err(|_| "expected an integer")
}

fn parse_nth(s: &str) -> Result<u64, &'static str> {
    let n = parse_u64(s)?;
    if n == 0 {
        return Err("operation counts are 1-based");
    }
    Ok(n)
}

fn parse_prob(s: &str) -> Result<f64, &'static str> {
    let p = s
        .trim()
        .parse::<f64>()
        .map_err(|_| "expected a probability")?;
    if !(0.0..=1.0).contains(&p) {
        return Err("probability outside [0, 1]");
    }
    Ok(p)
}

/// A [`Transport`] decorator that perturbs traffic per a [`FaultPlan`].
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    rng: ChaCha8Rng,
    /// Total operations (sends + receives) performed so far.
    ops: u64,
    /// Per-rule count of matching operations.
    rule_hits: Vec<u64>,
    /// Peers a `KillPeer` rule has severed.
    dead: Vec<bool>,
}

impl FaultyTransport {
    /// Wraps `inner`. The probabilistic stream is seeded by
    /// `(plan.seed, inner.rank())`, so each rank of a cluster perturbs
    /// independently yet deterministically under one shared plan.
    pub fn wrap(inner: Box<dyn Transport>, plan: FaultPlan) -> Self {
        let plan = plan.for_rank(inner.rank());
        let seed = plan
            .seed
            .wrapping_add((inner.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let size = inner.size();
        let rule_hits = vec![0; plan.rules.len()];
        FaultyTransport {
            inner,
            rng: ChaCha8Rng::seed_from_u64(seed),
            ops: 0,
            rule_hits,
            dead: vec![false; size],
            plan,
        }
    }

    /// Ranks this transport currently considers dead (severed by rules).
    pub fn dead_peers(&self) -> Vec<usize> {
        self.dead
            .iter()
            .enumerate()
            .filter_map(|(r, &d)| d.then_some(r))
            .collect()
    }

    /// Counts this operation against every rule; applies `Die`/`KillPeer`
    /// actions that fire. Returns `true` when `peer` is (now) dead.
    fn advance_rules(&mut self, peer: usize, tag: Tag) -> bool {
        self.ops += 1;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            let peer_ok = rule.peer.is_none_or(|p| p == peer);
            let tag_ok = rule.tag.is_none_or(|t| t == tag);
            if !(peer_ok && tag_ok) {
                continue;
            }
            self.rule_hits[i] += 1;
            if self.rule_hits[i] == rule.nth {
                match rule.action {
                    FaultAction::Die => {
                        // A hard, unclean death: the whole point is to leave
                        // peers with a half-open socket mid-protocol.
                        std::process::exit(FAULT_DEATH_EXIT_CODE);
                    }
                    FaultAction::KillPeer => self.dead[peer] = true,
                }
            }
        }
        self.dead[peer]
    }

    fn disconnected(&self, peer: usize, tag: Tag) -> CommError {
        CommError::Disconnected {
            rank: self.inner.rank(),
            peer,
            tag: Some(tag),
        }
    }
}

impl Transport for FaultyTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn is_virtual(&self) -> bool {
        self.inner.is_virtual()
    }

    fn send(&mut self, dest: usize, tag: Tag, mut frame: Frame) -> Result<(), CommError> {
        if self.advance_rules(dest, tag) {
            return Err(self.disconnected(dest, tag));
        }
        // Fixed draw order (drop, delay, dup, corrupt), each drawn only when
        // its probability is set: the stream depends on the plan and the
        // operation sequence alone, never on payload contents.
        if self.plan.drop_prob > 0.0 && self.rng.gen_bool(self.plan.drop_prob) {
            return Ok(()); // discarded in flight
        }
        if self.plan.delay_prob > 0.0 && self.rng.gen_bool(self.plan.delay_prob) {
            std::thread::sleep(self.plan.delay);
        }
        let duplicate = self.plan.dup_prob > 0.0 && self.rng.gen_bool(self.plan.dup_prob);
        let corrupt = self.plan.corrupt_prob > 0.0 && self.rng.gen_bool(self.plan.corrupt_prob);
        if corrupt && !frame.bytes.is_empty() {
            let i = self.rng.gen_range(0..frame.bytes.len());
            frame.bytes[i] ^= 1u8 << self.rng.gen_range(0..8u32);
        }
        if !duplicate {
            return self.inner.send(dest, tag, frame);
        }
        self.inner.send(dest, tag, frame.clone())?;
        // The original is delivered; a copy that finds the peer already
        // gone (it may have finished on the original) is not an error.
        let _ = self.inner.send(dest, tag, frame);
        Ok(())
    }

    fn recv(&mut self, src: usize, tag: Tag, timeout: Duration) -> Result<Frame, CommError> {
        if self.advance_rules(src, tag) {
            return Err(self.disconnected(src, tag));
        }
        self.inner.recv(src, tag, timeout)
    }
}

impl fmt::Debug for FaultyTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("rank", &self.rank())
            .field("plan", &self.plan)
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SimTransport;

    fn frame(bytes: &[u8]) -> Frame {
        Frame {
            bytes: bytes.to_vec(),
            ..Frame::default()
        }
    }

    #[test]
    fn parse_full_plan_round_trips() {
        let spec = "seed=7;rank=2;drop=0.05;delay=0.1:40;dup=0.01;corrupt=0.02;kill=0:3;die=5";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rank, Some(2));
        assert_eq!(plan.delay, Duration::from_millis(40));
        assert_eq!(plan.rules.len(), 2);
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_garbage_without_panicking() {
        for bad in [
            "wat",
            "drop",
            "drop=2.0",
            "drop=-1",
            "kill=",
            "kill=1",
            "die=0",
            "kill=a:b",
            "delay=0.5",
            "seed=x",
            "=",
            ";=;",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" ; ;; ").unwrap().is_empty());
    }

    #[test]
    fn rank_filter_empties_other_ranks() {
        let plan = FaultPlan::parse("rank=1;drop=0.5;kill=0:1").unwrap();
        assert!(plan.for_rank(0).is_empty());
        assert!(!plan.for_rank(1).is_empty());
    }

    #[test]
    fn kill_rule_severs_peer_at_nth_op() {
        let mesh = SimTransport::mesh(2);
        let mut endpoints = mesh.into_iter();
        let t0 = endpoints.next().unwrap();
        let mut t1 = endpoints.next().unwrap();
        let plan = FaultPlan::parse("kill=1:3").unwrap();
        let mut faulty = FaultyTransport::wrap(Box::new(t0), plan);
        faulty.send(1, 9, frame(b"a")).unwrap(); // op 1
        faulty.send(1, 9, frame(b"b")).unwrap(); // op 2
        let r = faulty.send(1, 9, frame(b"c")); // op 3: fires
        assert!(matches!(r, Err(CommError::Disconnected { peer: 1, .. })));
        assert_eq!(faulty.dead_peers(), vec![1]);
        // Earlier frames were delivered.
        for expect in [b"a", b"b"] {
            let got = t1.recv(0, 9, Duration::from_millis(200)).unwrap();
            assert_eq!(got.bytes, expect);
        }
    }

    #[test]
    fn probabilistic_faults_replay_deterministically() {
        let run = || {
            let mesh = SimTransport::mesh(2);
            let mut endpoints = mesh.into_iter();
            let t0 = endpoints.next().unwrap();
            let mut t1 = endpoints.next().unwrap();
            let plan = FaultPlan::parse("seed=42;drop=0.4;dup=0.3;corrupt=0.2").unwrap();
            let mut faulty = FaultyTransport::wrap(Box::new(t0), plan);
            for i in 0..32u8 {
                faulty.send(1, 5, frame(&[i, i ^ 0xFF])).unwrap();
            }
            let mut seen = Vec::new();
            while let Ok(f) = t1.recv(0, 5, Duration::from_millis(50)) {
                seen.push(f.bytes);
            }
            seen
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same op sequence → same delivered frames");
        assert!(a.len() < 40, "some of 32 frames must have been dropped");
    }
}
