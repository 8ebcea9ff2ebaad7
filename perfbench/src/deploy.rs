//! The three workloads: what each deploys, how it is loaded, and the
//! timed set-up that boots it.

use crate::client::{render_request, ResponseParser, WireResponse};
use crate::driver::Pace;
use crate::trace::{SpanLog, TracedHandler};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_asr::CorpusConfig;
use tt_cache::CacheConfig;
use tt_core::objective::Objective;
use tt_core::profile::ProfileMatrix;
use tt_core::request::{ServiceRequest, Tolerance};
use tt_core::rulegen::RoutingRuleGenerator;
use tt_net::cluster::FleetConfig;
use tt_net::demo::{demo_frontend, demo_matrix};
use tt_net::server::{HttpHandler, RunningServer};
use tt_net::ServiceConfig;
use tt_net::{ComputeService, Fleet, ObsConfig, ResultCache, RouteStrategy, Server, ServerConfig};
use tt_serve::frontend::TieredFrontend;
use tt_workloads::{AsrWorkload, Keyspace, RequestMix};

/// Seed of every deployment (corpus, demo matrix, rule generation).
/// Fixed, so set-up does the same work on every run; `--seed` varies
/// only the request stream.
pub const DEPLOY_SEED: u64 = 2024;
/// Utterances the ASR deployment profiles: about 1 s of decoding under
/// the seven beam configurations on a 2-CPU host.
pub const ASR_UTTERANCES: usize = 60;
/// Rule-generation confidence for the ASR tiers.
pub const ASR_CONFIDENCE: f64 = 0.999;
/// Tolerance tiers the ASR deployment advertises.
pub const ASR_TIERS: [f64; 4] = [0.0, 0.01, 0.05, 0.10];
/// Open-loop rate of `asr-tiers`. With a median answer of about 1.3 ms,
/// each of two connections is busy about 40% of the time.
pub const ASR_RATE: f64 = 600.0;
/// Payloads of the demo deployment.
pub const DEMO_PAYLOADS: usize = 300;
/// Requests generated per stream; longer runs cycle through it.
pub const STREAM_LEN: usize = 1 << 17;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's ASR service, open loop.
    AsrTiers,
    /// The demo deployment with no model time, closed loop.
    HotPath,
    /// Two nodes behind the front tier with the result cache, Zipf keys.
    FleetZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::AsrTiers, Workload::HotPath, Workload::FleetZipf];

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AsrTiers => "asr-tiers",
            Workload::HotPath => "hot-path",
            Workload::FleetZipf => "fleet-zipf",
        }
    }

    /// How its load is paced.
    pub fn pace(self) -> Pace {
        match self {
            Workload::AsrTiers => Pace::Open { rate: ASR_RATE },
            Workload::HotPath | Workload::FleetZipf => Pace::Closed,
        }
    }

    /// Length of one measured sub-window. Each holds over 1,000
    /// requests, enough for a p99 with ten samples beyond it; the closed
    /// loops complete that many in a small fraction of a second.
    pub fn chunk(self) -> Duration {
        match self {
            Workload::AsrTiers => Duration::from_secs(2),
            Workload::HotPath | Workload::FleetZipf => Duration::from_millis(500),
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::AsrTiers => 3,
            Workload::HotPath | Workload::FleetZipf => 9,
        }
    }

    /// Requests at the head of the stream over which the deterministic
    /// metrics (`usd_per_1k_req`, `served_err`) are taken, so they
    /// repeat exactly for a seed whatever the run's timing. An open
    /// loop's schedule is itself a function of the seed, so there it is
    /// every request sent.
    pub fn fixed_prefix(self) -> u64 {
        match self {
            Workload::AsrTiers => u64::MAX,
            Workload::HotPath | Workload::FleetZipf => 100_000,
        }
    }

    fn keyspace(self) -> Keyspace {
        match self {
            Workload::FleetZipf => Keyspace::Zipf { s: 1.2 },
            Workload::AsrTiers | Workload::HotPath => Keyspace::Uniform,
        }
    }

    /// Wall-clock sleep per profiled microsecond of model time.
    pub fn latency_scale(self) -> f64 {
        match self {
            Workload::AsrTiers => 1e-3,
            Workload::HotPath => 0.0,
            Workload::FleetZipf => 0.05,
        }
    }

    fn payloads(self) -> usize {
        match self {
            Workload::AsrTiers => ASR_UTTERANCES,
            Workload::HotPath | Workload::FleetZipf => DEMO_PAYLOADS,
        }
    }

    /// The request stream for `seed`: the representative tier mix over
    /// this workload's keys.
    pub fn stream(self, seed: u64, len: usize) -> Vec<ServiceRequest> {
        RequestMix::representative().sample_keyed(len, self.payloads(), seed, &self.keyspace())
    }
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Profiling the deployment (decoding the corpus, or drawing the
    /// demo matrix). Inside `Fleet::launch` for `fleet-zipf`, so 0 there.
    pub profile_s: f64,
    /// Generating routing rules (inside `Fleet::launch` for `fleet-zipf`).
    pub rulegen_s: f64,
    /// Building the service, binding and spawning the server, and
    /// answering the first request.
    pub boot_s: f64,
}

impl SetupTimes {
    /// Boot until the first request is answered.
    pub fn total_s(&self) -> f64 {
        self.profile_s + self.rulegen_s + self.boot_s
    }
}

enum Host {
    Node(RunningServer),
    Fleet(Box<Fleet>),
}

/// A booted deployment.
pub struct Deployment {
    /// Where clients connect (the node, or the fleet's front tier).
    pub addr: SocketAddr,
    /// Every compute node.
    pub services: Vec<Arc<ComputeService>>,
    matrix: Arc<ProfileMatrix>,
    frontend: TieredFrontend,
    host: Host,
}

/// How to boot: observability wiring, and an optional span log that
/// wraps a single node's handler.
pub struct BootOptions<'a> {
    /// The nodes' observability configuration.
    pub obs: ObsConfig,
    /// Wrap a single node's handler in a [`TracedHandler`].
    pub spans: Option<&'a Arc<SpanLog>>,
}

/// The request a set-up waits on: boot ends when it is answered.
pub fn probe_request() -> ServiceRequest {
    ServiceRequest::new(
        0,
        Tolerance::new(0.01).expect("valid tolerance"),
        Objective::ResponseTime,
    )
}

/// Set up `workload` once, timing each phase, and answer the probe.
///
/// # Errors
///
/// Socket errors while binding or probing.
pub fn boot(
    workload: Workload,
    options: &BootOptions<'_>,
) -> io::Result<(Deployment, SetupTimes, WireResponse)> {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let config = ServiceConfig {
        latency_scale: workload.latency_scale(),
        obs: options.obs.clone(),
        ..ServiceConfig::defaults()
    };
    let deployment = match workload {
        Workload::AsrTiers | Workload::HotPath => {
            let matrix = Arc::new(match workload {
                Workload::AsrTiers => AsrWorkload::build(
                    CorpusConfig::evaluation()
                        .with_utterances(ASR_UTTERANCES)
                        .with_seed(DEPLOY_SEED),
                )
                .matrix()
                .clone(),
                _ => demo_matrix(DEMO_PAYLOADS, DEPLOY_SEED),
            });
            times.profile_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let frontend = match workload {
                Workload::AsrTiers => asr_frontend(&matrix),
                _ => demo_frontend(&matrix, DEPLOY_SEED),
            };
            times.rulegen_s = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let deployment = single_node(matrix, frontend, config, options.spans)?;
            times.boot_s = t2.elapsed().as_secs_f64();
            deployment
        }
        Workload::FleetZipf => {
            // The fleet's own defaults: per-node supervisors off, since
            // rule updates are the fleet control plane's job.
            let defaults = FleetConfig::defaults(2);
            let service = ServiceConfig {
                latency_scale: workload.latency_scale(),
                obs: options.obs.clone(),
                cache: Some(Arc::new(ResultCache::new(CacheConfig::defaults()))),
                ..defaults.service.clone()
            };
            let fleet = Fleet::launch(FleetConfig {
                strategy: RouteStrategy::RoundRobin,
                payloads: DEMO_PAYLOADS,
                seed: DEPLOY_SEED,
                service,
                ..defaults
            })?;
            times.boot_s = t0.elapsed().as_secs_f64();
            let services: Vec<Arc<ComputeService>> = (0..fleet.nodes())
                .map(|id| Arc::clone(fleet.node_service(id)))
                .collect();
            Deployment {
                addr: fleet.front_addr(),
                matrix: Arc::new(services[0].matrix().clone()),
                frontend: services[0].frontend(),
                services,
                host: Host::Fleet(Box::new(fleet)),
            }
        }
    };
    let t3 = Instant::now();
    let probe = probe(deployment.addr)?;
    times.boot_s += t3.elapsed().as_secs_f64();
    Ok((deployment, times, probe))
}

/// The ASR tiers: both objectives at [`ASR_TIERS`].
fn asr_frontend(matrix: &ProfileMatrix) -> TieredFrontend {
    let generator = RoutingRuleGenerator::with_defaults(matrix, ASR_CONFIDENCE, DEPLOY_SEED)
        .expect("the ASR matrix supports rule generation");
    TieredFrontend::new(
        [Objective::ResponseTime, Objective::Cost]
            .into_iter()
            .map(|objective| {
                generator
                    .generate(&ASR_TIERS, objective)
                    .expect("ASR rules generate")
            })
            .collect(),
    )
}

fn single_node(
    matrix: Arc<ProfileMatrix>,
    frontend: TieredFrontend,
    config: ServiceConfig,
    spans: Option<&Arc<SpanLog>>,
) -> io::Result<Deployment> {
    let service = Arc::new(ComputeService::new(
        Arc::clone(&matrix),
        frontend.clone(),
        config,
    ));
    let running = match spans {
        Some(log) => serve(Arc::new(TracedHandler::new(
            Arc::clone(&service),
            Arc::clone(log),
        )))?,
        None => serve(Arc::clone(&service))?,
    };
    Ok(Deployment {
        addr: running.addr(),
        services: vec![service],
        matrix,
        frontend,
        host: Host::Node(running),
    })
}

fn serve<H: HttpHandler>(handler: Arc<H>) -> io::Result<RunningServer> {
    Ok(Server::bind("127.0.0.1:0", handler, ServerConfig::default())?.spawn())
}

/// Send one request on a fresh blocking connection and wait for its
/// answer, which must be a `200`: a fault-free deployment that cannot
/// answer is a failed set-up.
fn probe(addr: SocketAddr) -> io::Result<WireResponse> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut wire = Vec::new();
    render_request(&mut wire, &probe_request(), None);
    conn.write_all(&wire)?;
    let mut parser = ResponseParser::default();
    let mut buf = [0u8; 4096];
    loop {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "probe: connection closed",
            ));
        }
        parser.push(&buf[..n]);
        if let Some(response) = parser
            .next_response()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            if response.status != 200 {
                return Err(io::Error::other(format!(
                    "probe answered {}: {}",
                    response.status, response.body
                )));
            }
            return Ok(response);
        }
    }
}

impl Deployment {
    /// The profiled deployment answers come from.
    pub fn matrix(&self) -> &ProfileMatrix {
        &self.matrix
    }

    /// The routing rules clients are served under.
    pub fn frontend(&self) -> &TieredFrontend {
        &self.frontend
    }

    /// Per-tier `(billed requests, revenue)` as the program accounts it:
    /// `snapshot()` on a single node, `Fleet::billing_totals` on a fleet.
    pub fn billing(&self) -> BTreeMap<(String, u32), (usize, f64)> {
        match &self.host {
            Host::Fleet(fleet) => fleet.billing_totals(),
            Host::Node(_) => self.services[0]
                .snapshot()
                .billing
                .tiers
                .into_iter()
                .map(|(key, tier)| (key, (tier.requests, tier.revenue.as_dollars())))
                .collect(),
        }
    }

    /// Requests the nodes dropped.
    pub fn dropped(&self) -> usize {
        self.services
            .iter()
            .map(|s| s.snapshot().resilience.dropped_requests)
            .sum()
    }

    /// A second server straight onto node 0, bypassing the front tier,
    /// its handler wrapped for tracing.
    ///
    /// # Errors
    ///
    /// Socket errors while binding.
    pub fn direct_node(&self, spans: &Arc<SpanLog>) -> io::Result<RunningServer> {
        serve(Arc::new(TracedHandler::new(
            Arc::clone(&self.services[0]),
            Arc::clone(spans),
        )))
    }

    /// The same deployment booted again with another observability
    /// configuration (no re-profiling for a single node).
    ///
    /// # Errors
    ///
    /// Socket errors while binding or probing.
    pub fn reboot_with(
        &self,
        workload: Workload,
        obs: ObsConfig,
    ) -> io::Result<(Deployment, WireResponse)> {
        let deployment = match workload {
            Workload::FleetZipf => {
                let (deployment, _, probe) = boot(workload, &BootOptions { obs, spans: None })?;
                return Ok((deployment, probe));
            }
            _ => single_node(
                Arc::clone(&self.matrix),
                self.frontend.clone(),
                ServiceConfig {
                    latency_scale: workload.latency_scale(),
                    obs,
                    ..ServiceConfig::defaults()
                },
                None,
            )?,
        };
        let probe = probe(deployment.addr)?;
        Ok((deployment, probe))
    }

    /// Stop every server and wait for it.
    ///
    /// # Errors
    ///
    /// The first server thread's error.
    pub fn shutdown(self) -> io::Result<()> {
        match self.host {
            Host::Node(running) => running.stop(),
            Host::Fleet(fleet) => fleet.shutdown(),
        }
    }
}
