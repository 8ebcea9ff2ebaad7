//! Live observability for the wire service: a bounded metrics
//! registry, request-scoped tracing, and the tier-guarantee SLO
//! sentinel, assembled from [`tt_obs`] and wired to the deployment's
//! *advertised* guarantees.
//!
//! The interesting part is the wiring, not the plumbing: at service
//! construction the frontend's routing rules are replayed through
//! [`RoutingRules::guarantees`] to extract, per tier, the tolerance ε
//! and the predicted latency at a chosen quantile. Those predictions
//! become [`SloTarget`]s, so the sentinel holds live traffic against
//! exactly what the rule generator promised — the paper's contract
//! ("this tier degrades accuracy at most ε versus the premium tier")
//! made observable at runtime.
//!
//! The same rules are compiled into a deployed-tier table, rebuilt on
//! every [`Observability::rebind`]: each request resolves its tier in
//! it once ([`Observability::resolve`]) and records through the
//! returned [`TierRef`], so the hot path neither formats tier keys nor
//! takes a lock per record.
//!
//! Everything the hot path records is integer-accumulated (fixed-point
//! quality errors, histogram bucket counts), so a fixed request set
//! produces bit-identical `/metrics` totals regardless of thread
//! interleaving.

use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tt_core::objective::Objective;
use tt_core::profile::ProfileMatrix;
use tt_core::rulegen::RoutingRules;
use tt_obs::{
    AdmissionOutcome, BucketScheme, Counter, EventLog, HistogramHandle, MetricsRegistry,
    SloSentinel, SloTarget, TierTelemetry, Tracer, WindowStore, WindowTier,
};
use tt_serve::frontend::TieredFrontend;

/// Observability tuning for a [`crate::service::ComputeService`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch; `false` removes the registry, tracer, and
    /// sentinel entirely (the uninstrumented baseline the overhead
    /// benchmark compares against).
    pub enabled: bool,
    /// Finished request traces retained in the tracer's ring.
    pub trace_capacity: usize,
    /// Optional JSONL file sink mirroring every finished trace.
    pub trace_file: Option<PathBuf>,
    /// Sliding-window length for SLO verdicts.
    pub slo_window: Duration,
    /// Minimum window requests per tier before a verdict is rendered.
    pub slo_min_requests: u64,
    /// Quantile at which tier latency is predicted and checked.
    pub latency_quantile: f64,
    /// Live latency may exceed the prediction by this factor before
    /// the tier is ruled out of contract (live serving pays queueing
    /// and scheduling costs the profile does not model).
    pub latency_headroom: f64,
    /// `Some(n)`: the service's event trace keeps only the newest `n`
    /// events (per-tier aggregates still cover the whole stream).
    /// `None`: retain everything, as the simulation recorders do.
    pub trace_retention: Option<usize>,
    /// Duration of one telemetry window ([`WindowStore`]), sealed by
    /// the idle-tick heartbeat.
    pub telemetry_window: Duration,
    /// Sealed telemetry windows retained in the bounded ring.
    pub window_capacity: usize,
    /// Control-plane events retained in the bounded event log.
    pub event_capacity: usize,
}

impl ObsConfig {
    /// Instrumentation on, with bounded retention everywhere.
    pub fn defaults() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: 256,
            trace_file: None,
            slo_window: Duration::from_millis(250),
            slo_min_requests: 20,
            latency_quantile: 0.99,
            latency_headroom: 2.0,
            trace_retention: Some(4096),
            telemetry_window: Duration::from_millis(250),
            window_capacity: 64,
            event_capacity: 1024,
        }
    }

    /// Instrumentation fully off (unbounded trace, no registry).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            trace_retention: None,
            ..ObsConfig::defaults()
        }
    }
}

/// Everything [`Observability::record_served`] needs to know about
/// one served request.
#[derive(Debug, Clone, Copy)]
pub struct ServedSample {
    /// Simulated (accounted) latency of the serving policy.
    pub sim_latency_us: u64,
    /// Quality error of the version that answered.
    pub quality_err: f64,
    /// The baseline (premium-tier) version's error on the same
    /// payload.
    pub baseline_err: f64,
    /// Whether resilience degraded the request to a cheaper version.
    pub degraded: bool,
    /// Model invocations the request consumed (retries, hedges).
    pub invocations: u64,
    /// The model version that answered — keys the telemetry windows'
    /// per-version service-time histograms (the planner's input).
    pub version: usize,
}

/// The stable tier key used across `/metrics`, SLO verdicts, and
/// `/healthz` degradation reasons: `"{objective}/{tolerance:.3}"`,
/// e.g. `"cost/0.050"`.
pub fn tier_key(objective: Objective, tolerance: f64) -> String {
    format!("{objective}/{tolerance:.3}")
}

/// How the semantic result cache disposed of one compute request, for
/// the per-tier counters on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// Served from cache on a bit-equal input fingerprint.
    HitExact,
    /// Served from cache via the semantic admissibility rule.
    HitSemantic,
    /// Cache consulted, no admissible entry; the request executed.
    Miss,
    /// Cache not consulted (disabled, epoch-fenced node, brownout, or
    /// client `Cache-Control: no-cache`).
    Bypass,
}

/// One deployed tier's pre-resolved recording sinks: its key rendered
/// once, its SLO telemetry, its telemetry-window counters, and its
/// per-tier cache counters (registered on first use, so a deployment
/// without a cache keeps no cache series).
#[derive(Debug)]
struct DeployedTier {
    objective: Objective,
    tolerance: f64,
    key: String,
    baseline_version: usize,
    telemetry: Arc<TierTelemetry>,
    window: Arc<WindowTier>,
    cache_counters: [OnceLock<Arc<Counter>>; 3],
}

/// A request's tier, resolved once against the deployed-tier table:
/// every per-request record (arrival, admission, cache, served) goes
/// through it without formatting a key or taking the table's lock
/// again.
#[derive(Debug, Clone)]
pub struct TierRef {
    objective: Objective,
    /// The tolerance the request asked for.
    tolerance: f64,
    /// The deployed tier serving it (downward-compatibility rule);
    /// `None` when no tier of the objective is that loose or strict.
    deployed: Option<Arc<DeployedTier>>,
}

impl TierRef {
    /// The baseline (premium) version of the deployed tier's
    /// objective, when a deployed tier serves the request.
    pub fn baseline_version(&self) -> Option<usize> {
        self.deployed.as_ref().map(|t| t.baseline_version)
    }
}

/// One objective's deployed tiers, ascending by tolerance.
struct ObjectiveTiers {
    objective: Objective,
    slots: Vec<Arc<DeployedTier>>,
}

/// The deployed-tier table: built when rules are installed, read once
/// per request.
#[derive(Default)]
struct TierTable {
    objectives: Vec<ObjectiveTiers>,
}

impl TierTable {
    /// The largest deployed tolerance not exceeding the request's.
    fn resolve(&self, objective: Objective, tolerance: f64) -> Option<&Arc<DeployedTier>> {
        let tiers = self.objectives.iter().find(|t| t.objective == objective)?;
        tiers
            .slots
            .iter()
            .take_while(|t| t.tolerance <= tolerance + 1e-12)
            .last()
    }

    fn tiers(&self) -> impl Iterator<Item = &Arc<DeployedTier>> {
        self.objectives.iter().flat_map(|o| o.slots.iter())
    }
}

/// Build sentinel targets and the deployed-tier table for a
/// deployment, reusing telemetry sinks from `reuse` (matched by
/// objective + tolerance) so a rebind keeps lifetime series
/// continuous. Window counters are shared by key inside the store.
fn build_tiers(
    matrix: &ProfileMatrix,
    frontend: &TieredFrontend,
    config: &ObsConfig,
    windows: &WindowStore,
    reuse: &TierTable,
) -> (Vec<(SloTarget, Arc<TierTelemetry>)>, TierTable) {
    let recycled = |objective: Objective, tolerance: f64| -> Option<Arc<TierTelemetry>> {
        reuse
            .tiers()
            .find(|t| t.objective == objective && (t.tolerance - tolerance).abs() < 1e-12)
            .map(|t| Arc::clone(&t.telemetry))
    };
    let mut targets = Vec::new();
    let mut table = TierTable::default();
    // The frontend stores rules per objective in a hash map;
    // sort so sentinel registration (and thus verdict order on
    // `/metrics`) is identical across runs.
    let mut rule_sets: Vec<&RoutingRules> = frontend.rules().collect();
    rule_sets.sort_by_key(|r| r.objective().name());
    for rules in rule_sets {
        let guarantees = rules
            .guarantees(matrix, config.latency_quantile)
            .expect("deployed rules must evaluate against their own matrix");
        let mut slots = Vec::with_capacity(guarantees.len());
        for g in &guarantees {
            let telemetry = recycled(g.objective, g.tolerance)
                .unwrap_or_else(|| Arc::new(TierTelemetry::new(BucketScheme::DEFAULT)));
            let max_latency_us =
                (g.predicted_latency_us as f64 * config.latency_headroom.max(1.0)).ceil() as u64;
            let key = tier_key(g.objective, g.tolerance);
            targets.push((
                SloTarget {
                    key: key.clone(),
                    max_degradation: g.tolerance,
                    latency_quantile: g.latency_quantile,
                    max_latency_us,
                    min_requests: config.slo_min_requests,
                },
                Arc::clone(&telemetry),
            ));
            slots.push(Arc::new(DeployedTier {
                objective: rules.objective(),
                tolerance: g.tolerance,
                window: windows.tier(&key),
                key,
                baseline_version: rules.baseline_version(),
                telemetry,
                cache_counters: Default::default(),
            }));
        }
        slots.sort_by(|a, b| {
            a.tolerance
                .partial_cmp(&b.tolerance)
                .expect("finite tolerances")
        });
        table.objectives.push(ObjectiveTiers {
            objective: rules.objective(),
            slots,
        });
    }
    (targets, table)
}

/// The service's live observability: registry, tracer, sentinel, and
/// the per-tier telemetry the hot path feeds.
///
/// The sentinel and tier wiring sit behind a lock so a routing-rules
/// hot-swap can [`Observability::rebind`] them to the new deployment's
/// guarantees; telemetry sinks are *reused* across rebinds (matched by
/// tier key), so lifetime series on `/metrics` never reset.
pub struct Observability {
    registry: MetricsRegistry,
    tracer: Tracer,
    windows: WindowStore,
    events: EventLog,
    sentinel: RwLock<Arc<SloSentinel>>,
    tiers: RwLock<Arc<TierTable>>,
    /// Windows evaluated by sentinels retired in earlier rebinds.
    windows_carried: AtomicU64,
    config: ObsConfig,
    started: Instant,
    // Pre-resolved hot-path handles: record without touching the
    // registry's shard locks.
    requests_total: Arc<Counter>,
    requests_degraded: Arc<Counter>,
    requests_dropped: Arc<Counter>,
    model_invocations: Arc<Counter>,
    sim_latency: HistogramHandle,
    cache_hit: Arc<Counter>,
    cache_hit_semantic: Arc<Counter>,
    cache_miss: Arc<Counter>,
    cache_bypass: Arc<Counter>,
    cache_hit_latency: HistogramHandle,
}

impl Observability {
    /// Wire observability to a deployment: one [`SloTarget`] and one
    /// [`TierTelemetry`] per advertised tier, targets taken from the
    /// routing rules' own predictions.
    ///
    /// `started` is the monotonic anchor all span timestamps and
    /// sentinel windows are measured from (share the service's so one
    /// clock rules the whole request path).
    ///
    /// # Panics
    ///
    /// Panics if a deployed policy cannot be evaluated against
    /// `matrix` (the frontend would have panicked serving it anyway).
    pub fn new(
        matrix: &ProfileMatrix,
        frontend: &TieredFrontend,
        config: &ObsConfig,
        started: Instant,
    ) -> Self {
        let registry = MetricsRegistry::default();
        let tracer = match &config.trace_file {
            Some(path) => Tracer::new(config.trace_capacity)
                .with_file_sink(path)
                .unwrap_or_else(|_| Tracer::new(config.trace_capacity)),
            None => Tracer::new(config.trace_capacity),
        };
        let windows = WindowStore::new(
            config.telemetry_window.as_micros().max(1) as u64,
            config.window_capacity.max(1),
        );
        let (targets, tiers) =
            build_tiers(matrix, frontend, config, &windows, &TierTable::default());
        let sentinel = SloSentinel::new(config.slo_window.as_micros().max(1) as u64, targets);
        Observability {
            requests_total: registry.counter("requests_total"),
            requests_degraded: registry.counter("requests_degraded"),
            requests_dropped: registry.counter("requests_dropped"),
            model_invocations: registry.counter("model_invocations"),
            sim_latency: registry.histogram("sim_latency_us"),
            cache_hit: registry.counter("cache_hit"),
            cache_hit_semantic: registry.counter("cache_hit_semantic"),
            cache_miss: registry.counter("cache_miss"),
            cache_bypass: registry.counter("cache_bypass"),
            cache_hit_latency: registry.histogram("cache_hit_latency_us"),
            registry,
            tracer,
            windows,
            events: EventLog::new(config.event_capacity.max(1)),
            sentinel: RwLock::new(Arc::new(sentinel)),
            tiers: RwLock::new(Arc::new(tiers)),
            windows_carried: AtomicU64::new(0),
            config: config.clone(),
            started,
        }
    }

    /// Re-wire the sentinel and tier telemetry to a *new* deployment
    /// (a routing-rules hot-swap): fresh [`SloTarget`]s from the new
    /// rules' own guarantees, telemetry sinks reused by tier key so
    /// lifetime `/metrics` series stay continuous, and the new
    /// sentinel rebased to the present instant so its first window
    /// judges only post-swap traffic.
    pub fn rebind(&self, matrix: &ProfileMatrix, frontend: &TieredFrontend) {
        let old_tiers = Arc::clone(&self.tiers.read());
        let (targets, tiers) =
            build_tiers(matrix, frontend, &self.config, &self.windows, &old_tiers);
        let sentinel = SloSentinel::new(self.config.slo_window.as_micros().max(1) as u64, targets);
        sentinel.rebase(self.now_us());
        let carried = self.sentinel.read().windows_evaluated();
        self.windows_carried.fetch_add(carried, Ordering::SeqCst);
        // Publish tiers first, then the sentinel: a racing reader sees
        // a coherent (new tiers, old sentinel) or (new, new) pairing,
        // never a sentinel watching tiers that no longer exist.
        *self.tiers.write() = Arc::new(tiers);
        *self.sentinel.write() = Arc::new(sentinel);
    }

    /// The metrics registry (for `/metrics` and ad-hoc series).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The request tracer (for `/trace/recent`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The windowed telemetry store (for `/metrics/windows` and the
    /// capacity planner's input contract).
    pub fn windows(&self) -> &WindowStore {
        &self.windows
    }

    /// The control-plane event log (for `/events`).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Record a control-plane event stamped with the service clock.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) -> u64 {
        self.events.record(self.now_us(), kind, detail)
    }

    /// The SLO sentinel (for `/metrics` verdicts and `/healthz`).
    /// Returned by handle: a rules hot-swap replaces the sentinel, and
    /// a caller holding the old handle keeps a coherent (if stale)
    /// view instead of a dangling one.
    pub fn sentinel(&self) -> Arc<SloSentinel> {
        Arc::clone(&self.sentinel.read())
    }

    /// Windows evaluated across the whole service lifetime, including
    /// sentinels retired by rules hot-swaps.
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_carried.load(Ordering::SeqCst) + self.sentinel.read().windows_evaluated()
    }

    /// Microseconds since the service's monotonic anchor — the
    /// timestamp base for spans and sentinel windows.
    pub fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Advance the sentinel and the telemetry window store; evaluates
    /// a sentinel window (and seals a telemetry window) when one has
    /// elapsed. Called from the server's accept loop between accepts.
    pub fn tick(&self) -> bool {
        let now = self.now_us();
        self.windows.tick(now);
        let sentinel = self.sentinel();
        sentinel.tick(now)
    }

    /// Resolve a request's tier against the deployed-tier table: the
    /// *largest* deployed tolerance not exceeding the request's (the
    /// routing tables' downward-compatibility rule). One table read
    /// per request; every record for the request goes through the
    /// returned handle.
    pub fn resolve(&self, objective: Objective, tolerance: f64) -> TierRef {
        TierRef {
            objective,
            tolerance,
            deployed: self.tiers.read().resolve(objective, tolerance).cloned(),
        }
    }

    /// The baseline (premium) version for an objective's tiers.
    pub fn baseline_version(&self, objective: Objective) -> Option<usize> {
        self.tiers
            .read()
            .tiers()
            .find(|t| t.objective == objective)
            .map(|t| t.baseline_version)
    }

    /// The telemetry sink serving a consumer-requested tolerance (see
    /// [`Observability::resolve`]).
    pub fn telemetry(&self, objective: Objective, tolerance: f64) -> Option<Arc<TierTelemetry>> {
        self.resolve(objective, tolerance)
            .deployed
            .map(|t| Arc::clone(&t.telemetry))
    }

    /// Per-tier lifetime telemetry as `(key, telemetry)` pairs sorted
    /// by key — the deterministic iteration `/metrics` renders from.
    pub fn tier_telemetry(&self) -> Vec<(String, Arc<TierTelemetry>)> {
        let mut out: Vec<(String, Arc<TierTelemetry>)> = self
            .tiers
            .read()
            .tiers()
            .map(|t| (t.key.clone(), Arc::clone(&t.telemetry)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Record one served request into the registry, its tier's
    /// telemetry, and the telemetry window's per-version service-time
    /// histogram. `tier` is the tier billed. Every operation is an
    /// atomic add.
    pub fn record_served(&self, tier: &TierRef, sample: &ServedSample) {
        self.requests_total.inc();
        if sample.degraded {
            self.requests_degraded.inc();
        }
        self.model_invocations.add(sample.invocations);
        self.sim_latency.record(sample.sim_latency_us);
        self.windows
            .record_service(sample.version, sample.sim_latency_us);
        if let Some(deployed) = &tier.deployed {
            deployed.telemetry.record(
                sample.sim_latency_us,
                sample.quality_err,
                sample.baseline_err,
                sample.degraded,
            );
        }
    }

    /// Record one request no version could answer: global counters
    /// plus a shed count on the tier's open telemetry window.
    pub fn record_dropped(&self, tier: &TierRef) {
        self.requests_total.inc();
        self.requests_dropped.inc();
        self.with_window(tier, |w| w.record_admission(AdmissionOutcome::Shed));
    }

    /// Record one request arriving for a tier (pre-admission) into the
    /// open telemetry window — the planner's per-tier arrival rate.
    pub fn record_arrival(&self, tier: &TierRef) {
        self.with_window(tier, WindowTier::record_arrival);
    }

    /// Record the admission controller's decision for one request into
    /// the open telemetry window.
    pub fn record_admission(&self, tier: &TierRef, outcome: AdmissionOutcome) {
        self.with_window(tier, |w| w.record_admission(outcome));
    }

    /// The telemetry-window counters for a request: the *deployed*
    /// tier's (downward-compatibility rule, same as telemetry), falling
    /// back to the raw request key — resolved through the store — when
    /// no tier matches.
    fn with_window(&self, tier: &TierRef, record: impl FnOnce(&WindowTier)) {
        match &tier.deployed {
            Some(deployed) => record(&deployed.window),
            None => record(&self.windows.tier(&tier_key(tier.objective, tier.tolerance))),
        }
    }

    /// Record one cache disposition: the global counters, the hit-path
    /// latency histogram (the deterministic accounted hit latency, not
    /// wall clock, so `/metrics` totals stay run-identical), and a
    /// per-tier counter named `cache_{hit,miss,bypass}:{tier_key}`
    /// under the request's *deployed* tier (downward-compatibility
    /// rule, same as telemetry). Per-tier series resolve through the
    /// bounded registry on a tier's first event, so tier cardinality
    /// can degrade fidelity but never memory.
    pub fn record_cache(&self, tier: &TierRef, event: CacheEvent) {
        let (kind, slot) = match event {
            CacheEvent::HitExact | CacheEvent::HitSemantic => {
                self.cache_hit.inc();
                if event == CacheEvent::HitSemantic {
                    self.cache_hit_semantic.inc();
                }
                self.cache_hit_latency
                    .record(crate::service::CACHE_HIT_SIM_LATENCY_US);
                ("cache_hit", 0)
            }
            CacheEvent::Miss => {
                self.cache_miss.inc();
                ("cache_miss", 1)
            }
            CacheEvent::Bypass => {
                self.cache_bypass.inc();
                ("cache_bypass", 2)
            }
        };
        // Hits and misses (actual cache consults) also land on the
        // tier's open telemetry window; bypasses don't consult.
        if event != CacheEvent::Bypass {
            self.with_window(tier, |w| w.record_cache(event != CacheEvent::Miss));
        }
        if let Some(deployed) = &tier.deployed {
            deployed.cache_counters[slot]
                .get_or_init(|| self.registry.counter(&format!("{kind}:{}", deployed.key)))
                .inc();
        }
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("registry", &self.registry)
            .field("tracer", &self.tracer)
            .field("sentinel", &self.sentinel)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{demo_frontend, demo_matrix, DEMO_TIERS};

    fn obs() -> Observability {
        let matrix = demo_matrix(120, 5);
        let frontend = demo_frontend(&matrix, 5);
        Observability::new(&matrix, &frontend, &ObsConfig::defaults(), Instant::now())
    }

    #[test]
    fn targets_cover_every_advertised_tier() {
        let obs = obs();
        let keys: Vec<String> = obs.sentinel().targets().map(|t| t.key.clone()).collect();
        for objective in [Objective::ResponseTime, Objective::Cost] {
            for &tol in &DEMO_TIERS {
                let key = tier_key(objective, tol);
                assert!(keys.contains(&key), "missing target {key}");
            }
        }
        // Latency bounds come from predictions, scaled by headroom.
        assert!(obs.sentinel().targets().all(|t| t.max_latency_us > 0));
    }

    #[test]
    fn telemetry_lookup_uses_downward_compatibility() {
        let obs = obs();
        // 3% tolerance is served (and watched) as the 1% tier.
        let at_1pct = obs.telemetry(Objective::Cost, 0.01).expect("1% tier");
        let at_3pct = obs.telemetry(Objective::Cost, 0.03).expect("3% lookup");
        assert!(Arc::ptr_eq(&at_1pct, &at_3pct));
        at_3pct.record(1_000, 0.1, 0.1, false);
        assert_eq!(at_1pct.requests(), 1);
    }

    #[test]
    fn record_served_feeds_registry_and_tier() {
        let obs = obs();
        let tier = obs.resolve(Objective::Cost, 0.05);
        obs.record_served(
            &tier,
            &ServedSample {
                sim_latency_us: 9_000,
                quality_err: 0.2,
                baseline_err: 0.1,
                degraded: true,
                invocations: 2,
                version: 1,
            },
        );
        obs.record_dropped(&tier);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counters["requests_total"], 2);
        assert_eq!(snap.counters["requests_degraded"], 1);
        assert_eq!(snap.counters["requests_dropped"], 1);
        assert_eq!(snap.counters["model_invocations"], 2);
        assert_eq!(snap.histograms["sim_latency_us"].count(), 1);
        let tier = obs.telemetry(Objective::Cost, 0.05).unwrap();
        assert_eq!(tier.requests(), 1);
        assert_eq!(tier.degraded(), 1);
    }

    #[test]
    fn rebind_reuses_telemetry_and_carries_window_counts() {
        let matrix = demo_matrix(120, 5);
        let frontend = demo_frontend(&matrix, 5);
        let obs = Observability::new(&matrix, &frontend, &ObsConfig::defaults(), Instant::now());
        let before = obs.telemetry(Objective::Cost, 0.05).unwrap();
        before.record(1_000, 0.1, 0.1, false);
        obs.sentinel().force_tick(obs.now_us());
        obs.sentinel().force_tick(obs.now_us());
        assert_eq!(obs.windows_evaluated(), 2);

        obs.rebind(&matrix, &frontend);
        // Same tier key → same sink: lifetime series continue.
        let after = obs.telemetry(Objective::Cost, 0.05).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        assert_eq!(after.requests(), 1);
        // The retired sentinel's windows are carried, the new sentinel
        // starts unevaluated and judges only post-rebind traffic.
        assert_eq!(obs.windows_evaluated(), 2);
        assert!(obs.sentinel().verdicts().iter().all(|v| !v.evaluated));
        obs.sentinel().force_tick(obs.now_us());
        assert_eq!(obs.windows_evaluated(), 3);
        let verdicts = obs.sentinel().verdicts();
        assert!(verdicts.iter().all(|v| v.window_requests == 0));
    }

    #[test]
    fn tier_keys_are_stable_and_sorted() {
        let obs = obs();
        let tiers = obs.tier_telemetry();
        assert_eq!(tiers.len(), 8);
        assert!(tiers.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(tier_key(Objective::Cost, 0.05), "cost/0.050");
        assert_eq!(
            tier_key(Objective::ResponseTime, 0.0),
            "response-time/0.000"
        );
    }
}
