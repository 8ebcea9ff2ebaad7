//! Tier-aware adaptive admission: an AIMD concurrency limiter that
//! sheds load in *value order* instead of answering overload with
//! tier-blind 503s.
//!
//! The paper's contract is the lever: a request annotated with a loose
//! tolerance has explicitly agreed to a cheaper answer, so under
//! pressure the service can serve it from a cheaper routing plan — a
//! **brownout** — and still honor the annotation. Only when even that
//! is not enough do requests get rejected, with a `Retry-After` hint.
//! Strict tiers (tolerance below [`AdmissionConfig::protect_below`])
//! are never browned out or rejected here: their latency SLO is the
//! product being sold.
//!
//! Pressure is measured as in-flight requests against an adaptive
//! limit: additive increase each calm sentinel window, multiplicative
//! decrease on any window that saw congestion (front-door queue
//! overflow, brownouts, or rejections). Decisions fall into three
//! bands:
//!
//! ```text
//! pressure <  limit                 → Admit
//! pressure <  limit · reject_factor → Brownout (fall back to Admit if
//!                                     no cheaper plan qualifies)
//! pressure >= limit · reject_factor → Reject (429 + Retry-After)
//! ```
//!
//! Brownout has two rungs, tried cheapest-first:
//!
//! 1. **Looser tier** — serve from the loosest deployed tier whose
//!    *predicted mean degradation* (from the deployment's own
//!    [`RoutingRules::guarantees`]) stays within the request's
//!    declared tolerance, and bill at that tier's cheaper price.
//! 2. **Plan rewrite** — run the matched tier's own policy but
//!    thriftily: concurrent cascades become sequential, finish-out
//!    becomes early-terminate. Answers are bit-identical (the answer
//!    depends only on confidence vs. threshold), so billing is
//!    unchanged; only speculative compute is shed.

use crate::obs::tier_key;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tt_core::objective::Objective;
use tt_core::policy::{Policy, Scheduling, Termination};
use tt_core::profile::ProfileMatrix;
use tt_core::rulegen::RoutingRules;

/// Tuning for an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Concurrency limit at startup.
    pub initial_limit: usize,
    /// Floor the multiplicative decrease never crosses.
    pub min_limit: usize,
    /// Ceiling the additive increase never crosses.
    pub max_limit: usize,
    /// Slots added per calm window (AIMD's additive step).
    pub additive_increase: usize,
    /// Limit multiplier applied on a congested window, in `(0, 1)`.
    pub decrease_factor: f64,
    /// Pressure at `limit * reject_factor` and beyond is rejected
    /// outright; between `limit` and that point it is browned out.
    /// Must be > 1.
    pub reject_factor: f64,
    /// Requests declaring a tolerance strictly below this are *strict*:
    /// always admitted on their intended plan.
    pub protect_below: f64,
    /// The `Retry-After` hint attached to rejections, seconds.
    pub retry_after_secs: u64,
}

impl AdmissionConfig {
    /// Generous defaults: the limiter only bites under real overload.
    pub fn defaults() -> Self {
        AdmissionConfig {
            initial_limit: 64,
            min_limit: 4,
            max_limit: 4096,
            additive_increase: 2,
            decrease_factor: 0.5,
            reject_factor: 2.0,
            protect_below: 0.005,
            retry_after_secs: 1,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nonsensical field.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_limit == 0 {
            return Err("min_limit must be >= 1".into());
        }
        if self.min_limit > self.initial_limit || self.initial_limit > self.max_limit {
            return Err(format!(
                "limits must satisfy min <= initial <= max, got {} <= {} <= {}",
                self.min_limit, self.initial_limit, self.max_limit
            ));
        }
        if !(self.decrease_factor > 0.0 && self.decrease_factor < 1.0) {
            return Err(format!(
                "decrease_factor {} outside (0, 1)",
                self.decrease_factor
            ));
        }
        if self.reject_factor <= 1.0 {
            return Err(format!("reject_factor {} must be > 1", self.reject_factor));
        }
        if !(0.0..=1.0).contains(&self.protect_below) {
            return Err(format!(
                "protect_below {} outside [0, 1]",
                self.protect_below
            ));
        }
        Ok(())
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig::defaults()
    }
}

/// Which brownout rung served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutLevel {
    /// The matched tier's own policy, rewritten to shed speculative
    /// compute (sequential, early-terminate). Same answers, same bill.
    Rewrite,
    /// A looser deployed tier's policy, within the declared tolerance,
    /// billed at that tier's cheaper price.
    LooserTier,
}

impl BrownoutLevel {
    /// Stable wire/label name (`Brownout:` response header, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            BrownoutLevel::Rewrite => "rewrite",
            BrownoutLevel::LooserTier => "looser-tier",
        }
    }
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Serve on the intended routing plan.
    Admit,
    /// Serve on a cheaper plan that stays within the declared
    /// tolerance.
    Brownout {
        /// The substitute policy to execute.
        policy: Policy,
        /// Tolerance tier to bill (the tier actually served).
        billed_tolerance: f64,
        /// Which rung produced the plan.
        level: BrownoutLevel,
    },
    /// Turn the request away.
    Reject {
        /// `Retry-After` hint, seconds.
        retry_after_secs: u64,
    },
}

/// Per-tier admission tallies (for `/metrics` and load reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierAdmission {
    /// Requests admitted on their intended plan.
    pub admitted: u64,
    /// Requests served via a brownout plan.
    pub browned_out: u64,
    /// Requests rejected.
    pub rejected: u64,
}

/// One tolerance's admission tallies as atomics, so accounting a
/// decision takes no lock.
#[derive(Debug, Default)]
struct TierTallies {
    admitted: AtomicU64,
    browned_out: AtomicU64,
    rejected: AtomicU64,
}

impl TierTallies {
    fn count(&self, decision: &AdmissionDecision) {
        match decision {
            AdmissionDecision::Admit => &self.admitted,
            AdmissionDecision::Brownout { .. } => &self.browned_out,
            AdmissionDecision::Reject { .. } => &self.rejected,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> TierAdmission {
        TierAdmission {
            admitted: self.admitted.load(Ordering::Relaxed),
            browned_out: self.browned_out.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Every tolerance ever tallied: the deployed tiers' (shared with the
/// plans table) and any other tolerance requests declared. Keyed by
/// the tolerance's bits; rendered to tier keys only at scrape.
type TallyBook = Vec<(Objective, u64, Arc<TierTallies>)>;

/// One deployed tier's brownout-relevant facts, plus its tallies.
#[derive(Debug, Clone)]
struct TierPlan {
    tolerance: f64,
    policy: Policy,
    /// Predicted mean relative degradation vs. the baseline, from the
    /// rules' own guarantees.
    predicted_degradation: f64,
    tallies: Arc<TierTallies>,
}

/// Brownout candidates for one objective, tolerance-ascending.
#[derive(Debug, Clone)]
struct ObjectivePlans {
    objective: Objective,
    tiers: Vec<TierPlan>,
}

/// RAII in-flight marker; dropping it releases the slot.
#[derive(Debug)]
pub struct InFlight {
    counter: Arc<AtomicUsize>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The AIMD admission controller. One per service; shared by every
/// HTTP worker.
pub struct AdmissionController {
    config: AdmissionConfig,
    limit: AtomicUsize,
    in_flight: Arc<AtomicUsize>,
    /// Set by any congestion signal since the last window tick.
    congested: AtomicBool,
    admitted_total: AtomicU64,
    brownouts_total: AtomicU64,
    rejected_total: AtomicU64,
    congestion_events: AtomicU64,
    limit_decreases: AtomicU64,
    per_tier: Mutex<TallyBook>,
    plans: RwLock<Vec<ObjectivePlans>>,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("limit", &self.limit.load(Ordering::Relaxed))
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// A controller with an empty brownout table (every brownout-band
    /// decision falls back to `Admit` until
    /// [`AdmissionController::rebuild_plans`] runs).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AdmissionConfig::validate`].
    pub fn new(config: AdmissionConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("admission config: {e}");
        }
        AdmissionController {
            limit: AtomicUsize::new(config.initial_limit),
            in_flight: Arc::new(AtomicUsize::new(0)),
            congested: AtomicBool::new(false),
            admitted_total: AtomicU64::new(0),
            brownouts_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            congestion_events: AtomicU64::new(0),
            limit_decreases: AtomicU64::new(0),
            per_tier: Mutex::new(Vec::new()),
            plans: RwLock::new(Vec::new()),
            config,
        }
    }

    /// (Re)derive the brownout table from a deployment's routing rules
    /// — called at construction and after every rules hot-swap, so
    /// brownout plans never reference a quarantined version.
    ///
    /// # Panics
    ///
    /// Panics if a deployed policy cannot be evaluated against
    /// `matrix` (the frontend would have panicked serving it anyway).
    pub fn rebuild_plans<'a>(
        &self,
        matrix: &ProfileMatrix,
        rule_sets: impl IntoIterator<Item = &'a RoutingRules>,
        latency_quantile: f64,
    ) {
        let mut plans = Vec::new();
        for rules in rule_sets {
            let guarantees = rules
                .guarantees(matrix, latency_quantile)
                .expect("deployed rules must evaluate against their own matrix");
            let mut tiers: Vec<TierPlan> = guarantees
                .iter()
                .map(|g| {
                    let predicted_degradation = if g.baseline_mean_err > 0.0 {
                        ((g.predicted_mean_err - g.baseline_mean_err) / g.baseline_mean_err)
                            .max(0.0)
                    } else if g.predicted_mean_err > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    };
                    TierPlan {
                        tolerance: g.tolerance,
                        policy: g.policy,
                        predicted_degradation,
                        tallies: self.tallies(rules.objective(), g.tolerance),
                    }
                })
                .collect();
            tiers.sort_by(|a, b| {
                a.tolerance
                    .partial_cmp(&b.tolerance)
                    .expect("finite tolerances")
            });
            plans.push(ObjectivePlans {
                objective: rules.objective(),
                tiers,
            });
        }
        *self.plans.write() = plans;
    }

    /// Mark a request in flight; pressure stays raised until the guard
    /// drops.
    pub fn begin(&self) -> InFlight {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        InFlight {
            counter: Arc::clone(&self.in_flight),
        }
    }

    /// Requests currently in flight.
    pub fn pressure(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// The current concurrency limit.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::SeqCst)
    }

    /// Install an externally chosen concurrency limit — the capacity
    /// tuner's fast path on a traffic surge — clamped to the
    /// configured `min_limit..=max_limit` bounds. Returns the limit
    /// actually installed; AIMD pacing continues from it on the next
    /// window tick.
    pub fn set_limit(&self, limit: usize) -> usize {
        let clamped = limit.clamp(self.config.min_limit, self.config.max_limit);
        self.limit.store(clamped, Ordering::SeqCst);
        clamped
    }

    /// Report a congestion signal from outside the decision path (the
    /// front door's dispatch queue overflowing).
    pub fn on_congestion(&self) {
        self.congestion_events.fetch_add(1, Ordering::SeqCst);
        self.congested.store(true, Ordering::SeqCst);
    }

    /// Close one AIMD window: multiplicative decrease if anything
    /// congested since the last tick, additive increase otherwise.
    /// Returns the new limit.
    pub fn on_window_tick(&self) -> usize {
        let congested = self.congested.swap(false, Ordering::SeqCst);
        let limit = self.limit.load(Ordering::SeqCst);
        let next = if congested {
            self.limit_decreases.fetch_add(1, Ordering::SeqCst);
            ((limit as f64 * self.config.decrease_factor).floor() as usize)
                .max(self.config.min_limit)
        } else {
            limit
                .saturating_add(self.config.additive_increase)
                .min(self.config.max_limit)
        };
        self.limit.store(next, Ordering::SeqCst);
        next
    }

    /// Decide a request's fate at the live pressure reading.
    pub fn decide(&self, objective: Objective, tolerance: f64) -> AdmissionDecision {
        self.decide_at(objective, tolerance, self.pressure())
    }

    /// [`AdmissionController::decide`] at an explicit pressure reading
    /// (deterministic tests drive this directly).
    pub fn decide_at(
        &self,
        objective: Objective,
        tolerance: f64,
        pressure: usize,
    ) -> AdmissionDecision {
        let limit = self.limit();
        let plans = self.plans.read();
        let tiers = plans
            .iter()
            .find(|p| p.objective == objective)
            .map_or(&[][..], |p| &p.tiers[..]);
        let decision = if tolerance < self.config.protect_below || pressure < limit {
            AdmissionDecision::Admit
        } else if (pressure as f64) < limit as f64 * self.config.reject_factor {
            self.congested.store(true, Ordering::SeqCst);
            Self::brownout_plan(tiers, tolerance).unwrap_or(AdmissionDecision::Admit)
        } else {
            self.congested.store(true, Ordering::SeqCst);
            AdmissionDecision::Reject {
                retry_after_secs: self.config.retry_after_secs,
            }
        };
        match decision {
            AdmissionDecision::Admit => &self.admitted_total,
            AdmissionDecision::Brownout { .. } => &self.brownouts_total,
            AdmissionDecision::Reject { .. } => &self.rejected_total,
        }
        .fetch_add(1, Ordering::SeqCst);
        // A request declaring a deployed tolerance exactly is tallied
        // on the tier's own counters; any other tolerance goes through
        // the book.
        match tiers
            .iter()
            .find(|t| t.tolerance.to_bits() == tolerance.to_bits())
        {
            Some(tier) => tier.tallies.count(&decision),
            None => self.tallies(objective, tolerance).count(&decision),
        }
        decision
    }

    /// The tallies for `(objective, tolerance)`, registered on first
    /// use.
    fn tallies(&self, objective: Objective, tolerance: f64) -> Arc<TierTallies> {
        let mut book = self.per_tier.lock();
        let bits = tolerance.to_bits();
        if let Some((_, _, t)) = book.iter().find(|(o, b, _)| *o == objective && *b == bits) {
            return Arc::clone(t);
        }
        let tallies = Arc::new(TierTallies::default());
        book.push((objective, bits, Arc::clone(&tallies)));
        tallies
    }

    /// The cheapest qualifying brownout plan among an objective's
    /// `tiers`, or `None` when even the rewrite rung changes nothing.
    fn brownout_plan(tiers: &[TierPlan], tolerance: f64) -> Option<AdmissionDecision> {
        // The tier the request would normally match (downward rule).
        let matched = tiers
            .iter()
            .rev()
            .find(|t| t.tolerance <= tolerance + 1e-12)?;
        // Rung 1: the loosest deployed tier still inside the declared
        // tolerance, by the rules' own degradation predictions.
        for t in tiers.iter().rev() {
            if t.tolerance <= matched.tolerance {
                break;
            }
            if t.predicted_degradation <= tolerance + 1e-9 {
                return Some(AdmissionDecision::Brownout {
                    policy: t.policy,
                    billed_tolerance: t.tolerance,
                    level: BrownoutLevel::LooserTier,
                });
            }
        }
        // Rung 2: same tier, thrifty execution.
        let thrifty = thrifty_plan(matched.policy);
        (thrifty != matched.policy).then_some(AdmissionDecision::Brownout {
            policy: thrifty,
            billed_tolerance: tolerance,
            level: BrownoutLevel::Rewrite,
        })
    }

    /// Lifetime totals: `(admitted, browned_out, rejected)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.admitted_total.load(Ordering::SeqCst),
            self.brownouts_total.load(Ordering::SeqCst),
            self.rejected_total.load(Ordering::SeqCst),
        )
    }

    /// Congestion signals reported via
    /// [`AdmissionController::on_congestion`].
    pub fn congestion_events(&self) -> u64 {
        self.congestion_events.load(Ordering::SeqCst)
    }

    /// Windows that closed with a multiplicative decrease.
    pub fn limit_decreases(&self) -> u64 {
        self.limit_decreases.load(Ordering::SeqCst)
    }

    /// Per-tier tallies sorted by tier key (tolerances that render to
    /// the same key are summed).
    pub fn tier_admissions(&self) -> Vec<(String, TierAdmission)> {
        let mut out: BTreeMap<String, TierAdmission> = BTreeMap::new();
        for (objective, bits, tallies) in self.per_tier.lock().iter() {
            let t = tallies.load();
            if t == TierAdmission::default() {
                continue;
            }
            let slot = out
                .entry(tier_key(*objective, f64::from_bits(*bits)))
                .or_default();
            slot.admitted += t.admitted;
            slot.browned_out += t.browned_out;
            slot.rejected += t.rejected;
        }
        out.into_iter().collect()
    }

    /// The `Retry-After` hint for shed responses, seconds.
    pub fn retry_after_secs(&self) -> u64 {
        self.config.retry_after_secs
    }
}

/// The always-safe plan rewrite: identical answers (confidence vs.
/// threshold is scheduling-independent), strictly less speculative
/// compute.
fn thrifty_plan(policy: Policy) -> Policy {
    match policy {
        Policy::Cascade {
            cheap,
            accurate,
            threshold,
            ..
        } => Policy::Cascade {
            cheap,
            accurate,
            threshold,
            scheduling: Scheduling::Sequential,
            termination: Termination::EarlyTerminate,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frontend, demo_matrix};

    fn controller() -> AdmissionController {
        let matrix = demo_matrix(120, 5);
        let frontend = demo_frontend(&matrix, 5);
        let ctl = AdmissionController::new(AdmissionConfig {
            initial_limit: 8,
            ..AdmissionConfig::defaults()
        });
        ctl.rebuild_plans(&matrix, frontend.rules(), 0.99);
        ctl
    }

    #[test]
    fn bands_partition_pressure() {
        let ctl = controller(); // limit 8, reject at 16
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 0),
            AdmissionDecision::Admit
        );
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 7),
            AdmissionDecision::Admit
        );
        assert!(matches!(
            ctl.decide_at(Objective::Cost, 0.10, 8),
            AdmissionDecision::Brownout { .. } | AdmissionDecision::Admit
        ));
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 16),
            AdmissionDecision::Reject {
                retry_after_secs: 1
            }
        );
    }

    #[test]
    fn strict_tiers_are_always_admitted() {
        let ctl = controller();
        for pressure in [0, 8, 16, 1000] {
            assert_eq!(
                ctl.decide_at(Objective::ResponseTime, 0.0, pressure),
                AdmissionDecision::Admit,
                "pressure {pressure}"
            );
        }
    }

    #[test]
    fn brownout_stays_within_declared_tolerance() {
        let ctl = controller();
        let plans = ctl.plans.read();
        for objective in [Objective::ResponseTime, Objective::Cost] {
            let tiers = &plans
                .iter()
                .find(|p| p.objective == objective)
                .unwrap()
                .tiers;
            drop_checks(&ctl, objective, tiers);
        }

        fn drop_checks(ctl: &AdmissionController, objective: Objective, tiers: &[TierPlan]) {
            for declared in [0.01, 0.05, 0.10] {
                if let AdmissionDecision::Brownout {
                    billed_tolerance,
                    level,
                    ..
                } = ctl.decide_at(objective, declared, 8)
                {
                    if level == BrownoutLevel::LooserTier {
                        let tier = tiers
                            .iter()
                            .find(|t| (t.tolerance - billed_tolerance).abs() < 1e-12)
                            .expect("billed tier is deployed");
                        assert!(
                            tier.predicted_degradation <= declared + 1e-9,
                            "{objective} declared {declared}: browned to {billed_tolerance} \
                             predicting {}",
                            tier.predicted_degradation
                        );
                    } else {
                        assert_eq!(billed_tolerance, declared);
                    }
                }
            }
        }
    }

    #[test]
    fn rewrite_rung_preserves_the_tier_and_changes_only_execution() {
        let p = Policy::Cascade {
            cheap: 0,
            accurate: 2,
            threshold: 0.8,
            scheduling: Scheduling::Concurrent,
            termination: Termination::FinishOut,
        };
        assert_eq!(
            thrifty_plan(p),
            Policy::Cascade {
                cheap: 0,
                accurate: 2,
                threshold: 0.8,
                scheduling: Scheduling::Sequential,
                termination: Termination::EarlyTerminate,
            }
        );
        let single = Policy::Single { version: 1 };
        assert_eq!(thrifty_plan(single), single);
    }

    #[test]
    fn aimd_decreases_on_congestion_and_recovers_additively() {
        let ctl = AdmissionController::new(AdmissionConfig {
            initial_limit: 64,
            min_limit: 4,
            additive_increase: 2,
            decrease_factor: 0.5,
            ..AdmissionConfig::defaults()
        });
        ctl.on_congestion();
        assert_eq!(ctl.on_window_tick(), 32);
        ctl.on_congestion();
        assert_eq!(ctl.on_window_tick(), 16);
        // Calm windows recover linearly.
        assert_eq!(ctl.on_window_tick(), 18);
        assert_eq!(ctl.on_window_tick(), 20);
        assert_eq!(ctl.limit_decreases(), 2);
        assert_eq!(ctl.congestion_events(), 2);
        // The floor holds.
        for _ in 0..20 {
            ctl.on_congestion();
            ctl.on_window_tick();
        }
        assert_eq!(ctl.limit(), 4);
    }

    #[test]
    fn shed_band_decisions_mark_the_window_congested() {
        let ctl = controller(); // limit 8
        let _ = ctl.decide_at(Objective::Cost, 0.10, 20); // reject band
        assert_eq!(ctl.on_window_tick(), 4); // 8 * 0.5
    }

    #[test]
    fn in_flight_guard_tracks_pressure() {
        let ctl = controller();
        assert_eq!(ctl.pressure(), 0);
        let a = ctl.begin();
        let b = ctl.begin();
        assert_eq!(ctl.pressure(), 2);
        drop(a);
        assert_eq!(ctl.pressure(), 1);
        drop(b);
        assert_eq!(ctl.pressure(), 0);
    }

    #[test]
    fn per_tier_tallies_accumulate() {
        let ctl = controller();
        let _ = ctl.decide_at(Objective::Cost, 0.10, 0); // admit
        let _ = ctl.decide_at(Objective::Cost, 0.10, 20); // reject
        let _ = ctl.decide_at(Objective::ResponseTime, 0.0, 20); // strict admit
        let tiers = ctl.tier_admissions();
        let cost = tiers
            .iter()
            .find(|(k, _)| k == "cost/0.100")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(cost.admitted, 1);
        assert_eq!(cost.rejected, 1);
        let strict = tiers
            .iter()
            .find(|(k, _)| k == "response-time/0.000")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(strict.admitted, 1);
        let (admitted, browned, rejected) = ctl.totals();
        assert_eq!(admitted + browned + rejected, 3);
    }

    #[test]
    fn empty_table_admits_in_the_brownout_band() {
        let ctl = AdmissionController::new(AdmissionConfig {
            initial_limit: 8,
            ..AdmissionConfig::defaults()
        });
        assert_eq!(
            ctl.decide_at(Objective::Cost, 0.10, 8),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn config_validation_catches_nonsense() {
        assert!(AdmissionConfig::defaults().validate().is_ok());
        for bad in [
            AdmissionConfig {
                min_limit: 0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                min_limit: 100,
                initial_limit: 10,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                decrease_factor: 1.0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                reject_factor: 1.0,
                ..AdmissionConfig::defaults()
            },
            AdmissionConfig {
                protect_below: -0.1,
                ..AdmissionConfig::defaults()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
