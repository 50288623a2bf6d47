//! Callee-side authorization plane (xover-authz).
//!
//! The paper leaves caller authorization to callee-side software (§3.4):
//! `world_call` will happily transfer control to any callee whose WID
//! the caller can name. Eight PRs in, that is the suite's last open
//! door — the exact failure class of cross-domain hypervisor attacks
//! and CROSSLINE-style forged identities (see PAPERS.md). This module
//! closes it with a policy engine the *runtime* enforces on the
//! callee's behalf, before any world transition is issued:
//!
//! * **Capability grants.** A caller WID is admitted to an explicit
//!   callee set (or all callees). Ungranted callers are refused with
//!   [`CallError::Denied`] — a verdict, never a panic.
//! * **Generation-stamped revocation.** [`AuthzPolicy::revoke`] bumps a
//!   global policy generation and stamps the grant dead. Workers check
//!   the shared policy per call and observe the generation at every
//!   batch boundary, so in-flight batches and switchless-resident work
//!   stop authorizing within one batch — the same staleness bound the
//!   epoch table's retire log gives deletions.
//! * **Token-bucket rate limits priced in virtual time.** Buckets
//!   refill from the executing worker's virtual clock, so a throttled
//!   caller is throttled in simulated cycles, not host wall time.
//! * **Chain provenance.** A request carries the worlds it was
//!   re-issued through ([`crate::router::Provenance`]); the policy
//!   requires every recorded hop to hold the same grant as the
//!   immediate caller and bounds the chain depth, so a confused deputy
//!   — a granted intermediary laundering calls for an ungranted origin
//!   — is denied at the policy, not discovered at the symptom.
//!
//! Locking: the grants sit behind an `RwLock` whose read side every
//! dispatch-time [`AuthzPolicy::check`] and gateway
//! [`AuthzPolicy::would_admit`] probe shares, so workers do not
//! serialize on the policy; grant, revoke and rate changes take the
//! write side, and a revocation is visible to the next check after it
//! returns. Token buckets have their own mutex, which a check takes only
//! when a rate limit applies, and only while it still holds the grants
//! read guard: [`AuthzPolicy::set_rate`] takes the grants write lock and
//! then the bucket lock, so a check never sees a new rate with an old
//! bucket. Grant and callee maps hash with the runtime's integer hasher
//! (the keys are table-minted WIDs).
//!
//! Everything here is host-side bookkeeping: checks charge **zero
//! virtual cycles**, so a policy that denies nothing is invisible in
//! the cycle accounting — `AuthzConfig::off()` (the default) and a
//! permissive policy are both bit-for-bit cycle-exact against PR 8
//! (asserted by `tests/authz_props.rs` and the `authz` bench).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crossover::world::Wid;

use crate::inthash::{IntMap, IntSet};
use crate::router::{CallError, CallRequest};

/// Whether the authz plane is consulted at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuthzMode {
    /// No policy object is built; the dispatch path carries zero checks
    /// (bit-for-bit identical to the pre-authz runtime).
    #[default]
    Off,
    /// Every dispatched call is checked against the shared policy.
    Enforce,
}

/// Per-caller token-bucket tuning. Tokens are whole calls; refill is
/// measured against the executing worker's *virtual* clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Bucket capacity: calls a caller may burst before throttling.
    pub burst: u64,
    /// Tokens refilled per million virtual cycles.
    pub refill_per_mcycle: u64,
}

/// Tuning for the authz plane. `Copy`, so it rides in the runtime
/// config like every other plane's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthzConfig {
    /// Off (default) or enforcing.
    pub mode: AuthzMode,
    /// What happens to callers with no grant entry: admit (`true`, a
    /// default-open policy that only constrains named callers) or deny
    /// (`false`, a default-closed allow-list).
    pub default_allow: bool,
    /// Maximum provenance chain depth admitted; deeper chains are
    /// refused with [`CallError::ChainTooDeep`].
    pub max_chain_depth: u8,
    /// Pool-wide default rate limit applied to callers whose grant does
    /// not carry its own; `None` disables rate limiting for them.
    pub rate: Option<RateLimitConfig>,
}

impl AuthzConfig {
    /// The plane disabled (the default): no policy, no checks, no cost.
    pub fn off() -> AuthzConfig {
        AuthzConfig::default()
    }

    /// Enforcing, default-closed (ungranted callers are denied), with a
    /// chain-depth bound and no rate limit.
    pub fn enforcing() -> AuthzConfig {
        AuthzConfig {
            mode: AuthzMode::Enforce,
            default_allow: false,
            max_chain_depth: 2,
            rate: None,
        }
    }

    /// Enforcing but admitting everything: no grants required, no rate
    /// limits, chain depth unbounded. Denies nothing — the parity
    /// configuration the cycle-exactness claims are asserted against.
    pub fn permissive() -> AuthzConfig {
        AuthzConfig {
            mode: AuthzMode::Enforce,
            default_allow: true,
            max_chain_depth: u8::MAX,
            rate: None,
        }
    }

    /// Whether a policy object should be built at all.
    pub fn enabled(&self) -> bool {
        self.mode == AuthzMode::Enforce
    }
}

impl Default for AuthzConfig {
    fn default() -> AuthzConfig {
        AuthzConfig {
            mode: AuthzMode::Off,
            default_allow: false,
            max_chain_depth: 2,
            rate: None,
        }
    }
}

/// One caller's capability: the callee set it may reach, generation
/// stamps, and an optional private rate limit.
#[derive(Debug, Clone)]
struct Grant {
    /// Callees admitted; `None` means all.
    callees: Option<IntSet<u64>>,
    /// Set when the grant was revoked: the policy generation the
    /// revocation published. A revoked grant is kept (not removed) so
    /// [`CallError::Revoked`] is distinguishable from never-granted.
    revoked_at: Option<u64>,
    /// Per-caller rate override (else [`AuthzConfig::rate`] applies).
    rate: Option<RateLimitConfig>,
}

/// A caller's token bucket, in micro-tokens so refill stays integral.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    micro_tokens: u64,
    last_refill_cycles: u64,
}

const MICRO: u64 = 1_000_000;

impl Bucket {
    fn full(rate: &RateLimitConfig, now: u64) -> Bucket {
        Bucket {
            micro_tokens: rate.burst.saturating_mul(MICRO),
            last_refill_cycles: now,
        }
    }

    /// Refills from virtual time, then tries to take one token.
    /// `refill_per_mcycle` tokens per 10^6 cycles is exactly
    /// `refill_per_mcycle` micro-tokens per cycle. Worker clocks are
    /// not totally ordered across the pool, so an older `now` simply
    /// skips the refill (monotonic guard) — time never runs backwards
    /// inside one bucket.
    fn take(&mut self, rate: &RateLimitConfig, now: u64) -> bool {
        if now > self.last_refill_cycles {
            let added = (now - self.last_refill_cycles).saturating_mul(rate.refill_per_mcycle);
            self.micro_tokens = self
                .micro_tokens
                .saturating_add(added)
                .min(rate.burst.saturating_mul(MICRO));
            self.last_refill_cycles = now;
        }
        if self.micro_tokens >= MICRO {
            self.micro_tokens -= MICRO;
            true
        } else {
            false
        }
    }
}

/// Capability grants by raw caller WID.
type Grants = IntMap<u64, Grant>;

/// Point-in-time counters for reports and the `xover_authz_*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthzSummary {
    /// Whether a policy was installed at all.
    pub enabled: bool,
    /// Calls checked against the policy.
    pub checks: u64,
    /// Refusals: no grant for the caller (or a provenance hop).
    pub denied: u64,
    /// Refusals: the grant existed but was revoked.
    pub revoked_denies: u64,
    /// Refusals: token bucket ran dry.
    pub rate_limited: u64,
    /// Refusals: provenance chain too deep.
    pub chain_too_deep: u64,
    /// Revocations published (generation bumps).
    pub revocations: u64,
    /// Current policy generation.
    pub generation: u64,
}

impl AuthzSummary {
    /// All refusals, every family.
    pub fn total_denied(&self) -> u64 {
        self.denied + self.revoked_denies + self.rate_limited + self.chain_too_deep
    }
}

/// The shared callee-side policy engine. One instance per service,
/// behind an `Arc`; workers consult it at dispatch, the service at
/// channel attach, the gateway (side-effect-free) at admission.
///
/// All state is host-side: nothing here charges virtual cycles.
#[derive(Debug)]
pub struct AuthzPolicy {
    config: AuthzConfig,
    /// Bumped by every revocation. Workers snapshot it at batch
    /// boundaries; a change is the revocation-visibility marker.
    generation: AtomicU64,
    /// Read-shared by every check; written by grant/revoke/rate changes.
    grants: RwLock<Grants>,
    /// Token buckets by raw caller WID; locked only by a rate-limited
    /// check (under the grants read guard) and by `set_rate` (under the
    /// grants write guard).
    buckets: Mutex<IntMap<u64, Bucket>>,
    checks: AtomicU64,
    denied: AtomicU64,
    revoked_denies: AtomicU64,
    rate_limited: AtomicU64,
    chain_too_deep: AtomicU64,
    revocations: AtomicU64,
}

impl AuthzPolicy {
    /// A fresh policy for `config`. With `default_allow` unset this is
    /// a deny-all policy until grants arrive.
    pub fn new(config: AuthzConfig) -> AuthzPolicy {
        AuthzPolicy {
            config,
            generation: AtomicU64::new(0),
            grants: RwLock::new(Grants::default()),
            buckets: Mutex::new(IntMap::default()),
            checks: AtomicU64::new(0),
            denied: AtomicU64::new(0),
            revoked_denies: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            chain_too_deep: AtomicU64::new(0),
            revocations: AtomicU64::new(0),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &AuthzConfig {
        &self.config
    }

    /// Admits `caller` to `callee` (adding to any existing callee set).
    /// Re-granting a revoked caller resurrects it with a fresh grant.
    pub fn grant(&self, caller: Wid, callee: Wid) {
        let mut grants = self.write();
        let g = grants.entry(caller.raw()).or_insert_with(|| Grant {
            callees: Some(IntSet::default()),
            revoked_at: None,
            rate: None,
        });
        if g.revoked_at.is_some() {
            g.revoked_at = None;
            g.callees = Some(IntSet::default());
        }
        if let Some(set) = &mut g.callees {
            set.insert(callee.raw());
        }
    }

    /// Admits `caller` to every callee.
    pub fn grant_all(&self, caller: Wid) {
        self.write().insert(
            caller.raw(),
            Grant {
                callees: None,
                revoked_at: None,
                rate: None,
            },
        );
    }

    /// Attaches a private rate limit to `caller`'s grant (creating an
    /// all-callee grant if none exists).
    pub fn set_rate(&self, caller: Wid, rate: RateLimitConfig) {
        let mut grants = self.write();
        let g = grants.entry(caller.raw()).or_insert_with(|| Grant {
            callees: None,
            revoked_at: None,
            rate: None,
        });
        g.rate = Some(rate);
        // A fresh limit starts with a fresh bucket. Taken while the
        // grants write guard is held, so no check sees the new rate
        // against the old bucket.
        self.buckets().remove(&caller.raw());
    }

    /// Revokes `caller`'s grant and publishes a new policy generation.
    /// Returns the generation; in-flight and switchless-resident work
    /// stops authorizing as this caller within one batch. Revoking a
    /// never-granted caller still pins it denied under `default_allow`
    /// policies (the grant is recorded dead, not absent).
    pub fn revoke(&self, caller: Wid) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.write()
            .entry(caller.raw())
            .and_modify(|g| g.revoked_at = Some(generation))
            .or_insert_with(|| Grant {
                callees: Some(IntSet::default()),
                revoked_at: Some(generation),
                rate: None,
            });
        self.revocations.fetch_add(1, Ordering::Relaxed);
        generation
    }

    /// Current policy generation (monotone; bumped per revocation).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The full dispatch-time check: chain depth, grant (caller and
    /// every recorded provenance hop), then the rate limit. `now` is
    /// the executing worker's virtual clock — the only time the bucket
    /// ever sees. Charges nothing; counts every refusal.
    ///
    /// # Errors
    ///
    /// A denial-family [`CallError`] ([`CallError::is_denial`]) naming
    /// the first rule the call broke.
    pub fn check(&self, req: &CallRequest, now: u64) -> Result<(), CallError> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        let depth = req.provenance.depth();
        if depth > self.config.max_chain_depth {
            self.chain_too_deep.fetch_add(1, Ordering::Relaxed);
            return Err(CallError::ChainTooDeep {
                depth,
                max: self.config.max_chain_depth,
            });
        }
        let grants = self.read();
        // The immediate caller and every recorded hop must each hold
        // the grant — transitive authority, the confused-deputy fix.
        for principal in std::iter::once(req.caller).chain(req.provenance.hops()) {
            if let Err(err) = admitted(&grants, &self.config, principal, req.callee) {
                match &err {
                    CallError::Revoked { .. } => {
                        self.revoked_denies.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => self.denied.fetch_add(1, Ordering::Relaxed),
                };
                return Err(err);
            }
        }
        // Rate-limit the immediate caller only: hops lend authority,
        // they don't spend their own budget on relayed traffic.
        let rate = grants
            .get(&req.caller.raw())
            .and_then(|g| g.rate)
            .or(self.config.rate);
        if let Some(rate) = rate {
            // Still under the grants read guard: `set_rate` cannot swap
            // this caller's rate and bucket between the lookup above
            // and the take below.
            let mut buckets = self.buckets();
            let bucket = buckets
                .entry(req.caller.raw())
                .or_insert_with(|| Bucket::full(&rate, now));
            if !bucket.take(&rate, now) {
                drop(buckets);
                drop(grants);
                self.rate_limited.fetch_add(1, Ordering::Relaxed);
                return Err(CallError::RateLimited { caller: req.caller });
            }
        }
        Ok(())
    }

    /// Side-effect-free admission probe for the gateway: would a call
    /// from `caller` to `callee` (no provenance) pass the grant check?
    /// Consumes no tokens and counts nothing, so a gateway pre-shed
    /// never perturbs the policy's own accounting.
    pub fn would_admit(&self, caller: Wid, callee: Wid) -> bool {
        admitted(&self.read(), &self.config, caller, callee).is_ok()
    }

    /// Counters for reports and gauges.
    pub fn summary(&self) -> AuthzSummary {
        AuthzSummary {
            enabled: true,
            checks: self.checks.load(Ordering::Relaxed),
            denied: self.denied.load(Ordering::Relaxed),
            revoked_denies: self.revoked_denies.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            chain_too_deep: self.chain_too_deep.load(Ordering::Relaxed),
            revocations: self.revocations.load(Ordering::Relaxed),
            generation: self.generation(),
        }
    }

    // Every update below leaves the maps valid at each step, so a guard
    // poisoned by a panicking holder is recovered rather than spread.
    fn read(&self) -> RwLockReadGuard<'_, Grants> {
        self.grants.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Grants> {
        self.grants.write().unwrap_or_else(|e| e.into_inner())
    }

    fn buckets(&self) -> MutexGuard<'_, IntMap<u64, Bucket>> {
        self.buckets.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The grant check for one principal, free of counters so the caller
/// decides whether the probe is accounted.
fn admitted(
    grants: &Grants,
    config: &AuthzConfig,
    principal: Wid,
    callee: Wid,
) -> Result<(), CallError> {
    match grants.get(&principal.raw()) {
        Some(g) => {
            if let Some(generation) = g.revoked_at {
                return Err(CallError::Revoked {
                    caller: principal,
                    generation,
                });
            }
            match &g.callees {
                None => Ok(()),
                Some(set) if set.contains(&callee.raw()) => Ok(()),
                Some(_) => Err(CallError::Denied {
                    caller: principal,
                    callee,
                }),
            }
        }
        None if config.default_allow => Ok(()),
        None => Err(CallError::Denied {
            caller: principal,
            callee,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wid(raw: u64) -> Wid {
        Wid::from_raw(raw)
    }

    fn req(caller: u64, callee: u64) -> CallRequest {
        CallRequest::new(wid(caller), wid(callee), 100, 10)
    }

    #[test]
    fn default_closed_denies_until_granted() {
        let p = AuthzPolicy::new(AuthzConfig::enforcing());
        assert!(matches!(
            p.check(&req(1, 2), 0),
            Err(CallError::Denied { .. })
        ));
        p.grant(wid(1), wid(2));
        assert!(p.check(&req(1, 2), 0).is_ok());
        // The grant is per-callee: world 3 stays closed.
        assert!(matches!(
            p.check(&req(1, 3), 0),
            Err(CallError::Denied { .. })
        ));
        p.grant_all(wid(1));
        assert!(p.check(&req(1, 3), 0).is_ok());
        let s = p.summary();
        assert_eq!(s.denied, 2);
        assert_eq!(s.checks, 4);
    }

    #[test]
    fn permissive_policy_denies_nothing_and_counts_checks() {
        let p = AuthzPolicy::new(AuthzConfig::permissive());
        for i in 0..10 {
            assert!(p.check(&req(i, i + 1), i).is_ok(), "{i}");
        }
        assert_eq!(p.summary().total_denied(), 0);
        assert_eq!(p.summary().checks, 10);
    }

    #[test]
    fn revocation_bumps_the_generation_and_is_typed() {
        let p = AuthzPolicy::new(AuthzConfig::enforcing());
        p.grant(wid(1), wid(2));
        assert!(p.check(&req(1, 2), 0).is_ok());
        assert_eq!(p.generation(), 0);
        let g = p.revoke(wid(1));
        assert_eq!(g, 1);
        assert_eq!(p.generation(), 1);
        match p.check(&req(1, 2), 0) {
            Err(CallError::Revoked { generation, .. }) => assert_eq!(generation, 1),
            other => panic!("want Revoked, got {other:?}"),
        }
        // Revoked beats default-allow: a dead grant pins the caller out
        // even under a default-open policy.
        let open = AuthzPolicy::new(AuthzConfig::permissive());
        open.revoke(wid(7));
        assert!(matches!(
            open.check(&req(7, 2), 0),
            Err(CallError::Revoked { .. })
        ));
        // Re-granting resurrects.
        p.grant(wid(1), wid(2));
        assert!(p.check(&req(1, 2), 0).is_ok());
        assert_eq!(p.summary().revocations, 1);
        assert_eq!(p.summary().revoked_denies, 1);
    }

    #[test]
    fn chain_depth_and_hop_grants_stop_confused_deputies() {
        let mut cfg = AuthzConfig::enforcing();
        cfg.max_chain_depth = 2;
        let p = AuthzPolicy::new(cfg);
        p.grant(wid(1), wid(9)); // deputy is granted
        p.grant(wid(2), wid(9)); // honest origin is granted
                                 // Honest relay: origin 2 via deputy — wait, provenance carries
                                 // the *origin*; the immediate caller is the deputy.
        let honest = req(1, 9).via(wid(2));
        assert!(p.check(&honest, 0).is_ok());
        // Confused deputy: ungranted origin 3 laundering through 1.
        let laundered = req(1, 9).via(wid(3));
        assert!(matches!(
            p.check(&laundered, 0),
            Err(CallError::Denied { caller, .. }) if caller == wid(3)
        ));
        // Depth bound: three hops exceed max_chain_depth = 2.
        let deep = req(1, 9).via(wid(2)).via(wid(2)).via(wid(2));
        assert!(matches!(
            p.check(&deep, 0),
            Err(CallError::ChainTooDeep { depth: 3, max: 2 })
        ));
        let s = p.summary();
        assert_eq!(s.denied, 1);
        assert_eq!(s.chain_too_deep, 1);
    }

    #[test]
    fn token_bucket_refills_in_virtual_time() {
        let mut cfg = AuthzConfig::permissive();
        cfg.rate = Some(RateLimitConfig {
            burst: 2,
            refill_per_mcycle: 1, // 1 token per 10^6 cycles
        });
        let p = AuthzPolicy::new(cfg);
        // Burst of 2 admitted at t=0, third throttled.
        assert!(p.check(&req(1, 2), 0).is_ok());
        assert!(p.check(&req(1, 2), 0).is_ok());
        assert!(matches!(
            p.check(&req(1, 2), 0),
            Err(CallError::RateLimited { .. })
        ));
        // One million virtual cycles later: exactly one token back.
        assert!(p.check(&req(1, 2), 1_000_000).is_ok());
        assert!(matches!(
            p.check(&req(1, 2), 1_000_000),
            Err(CallError::RateLimited { .. })
        ));
        // Refill caps at the burst: a long quiet period buys 2, not 10.
        assert!(p.check(&req(1, 2), 100_000_000).is_ok());
        assert!(p.check(&req(1, 2), 100_000_000).is_ok());
        assert!(matches!(
            p.check(&req(1, 2), 100_000_000),
            Err(CallError::RateLimited { .. })
        ));
        assert_eq!(p.summary().rate_limited, 3);
        // Another caller has its own bucket.
        assert!(p.check(&req(5, 2), 0).is_ok());
    }

    #[test]
    fn would_admit_is_side_effect_free() {
        let p = AuthzPolicy::new(AuthzConfig::enforcing());
        p.grant(wid(1), wid(2));
        assert!(p.would_admit(wid(1), wid(2)));
        assert!(!p.would_admit(wid(3), wid(2)));
        let s = p.summary();
        assert_eq!(s.checks, 0, "probes are not checks");
        assert_eq!(s.total_denied(), 0, "probes count nothing");
    }
}
