//! Output checks. Every answer is checked as it arrives, and the
//! program's own billing is reconciled with what the client was charged
//! once a deployment's load is over.

use crate::client::{Answer, CacheTag, WireResponse};
use crate::deploy::Deployment;
use std::collections::BTreeMap;
use tt_core::objective::Objective;
use tt_core::request::ServiceRequest;

/// Violations quoted in full; the rest are only counted.
const QUOTED: usize = 8;

/// Client-side ledger and check results for one deployment.
pub struct Checker<'d> {
    deployment: &'d Deployment,
    baselines: BTreeMap<String, usize>,
    billed: BTreeMap<(String, u32), (usize, f64)>,
    violations: u64,
    quoted: Vec<String>,
}

impl<'d> Checker<'d> {
    /// A fresh ledger for `deployment`.
    pub fn new(deployment: &'d Deployment) -> Self {
        let baselines = deployment
            .frontend()
            .rules()
            .map(|rules| (rules.objective().to_string(), rules.baseline_version()))
            .collect();
        Checker {
            deployment,
            baselines,
            billed: BTreeMap::new(),
            violations: 0,
            quoted: Vec::new(),
        }
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        if self.quoted.len() < QUOTED {
            self.quoted.push(what);
        }
    }

    /// Check one response to `request`; a `200` yields its answer.
    /// Non-200s and transport failures are failures, not violations.
    pub fn record(
        &mut self,
        request: &ServiceRequest,
        response: Option<&WireResponse>,
    ) -> Option<Answer> {
        let response = response.filter(|r| r.status == 200)?;
        let answer = match Answer::parse(&response.body) {
            Ok(answer) => answer,
            Err(why) => {
                self.violation(why);
                return None;
            }
        };
        self.check(request, response.cache, &answer);
        let key = (
            request.objective.to_string(),
            (answer.billed_tolerance * 1000.0).round() as u32,
        );
        let slot = self.billed.entry(key).or_insert((0, 0.0));
        slot.0 += 1;
        slot.1 += answer.price_usd;
        Some(answer)
    }

    fn check(&mut self, request: &ServiceRequest, cache: CacheTag, a: &Answer) {
        let matrix = self.deployment.matrix();
        let tier = format!("{}/{}", request.objective, request.tolerance.value());
        if a.payload != request.payload || a.tolerance != request.tolerance.value() {
            return self.violation(format!(
                "{tier}: answer for payload {} at tolerance {} to a request for payload {}",
                a.payload, a.tolerance, request.payload
            ));
        }
        if a.version >= matrix.versions() {
            return self.violation(format!("{tier}: unknown version {}", a.version));
        }
        let row = matrix.get(a.payload, a.version).quality_err;
        if a.quality_err != row {
            self.violation(format!(
                "{tier}: payload {} version {} quality_err {} but the profile row says {row}",
                a.payload, a.version, a.quality_err
            ));
        }
        if !a.brownout && a.billed_tolerance != a.tolerance {
            self.violation(format!(
                "{tier}: billed at {} without a brownout",
                a.billed_tolerance
            ));
        }
        let price = self.deployment.services[0]
            .schedule()
            .price_for(a.billed_tolerance)
            .as_dollars();
        if a.price_usd != price {
            self.violation(format!(
                "{tier}: price {} but the schedule says {price}",
                a.price_usd
            ));
        }
        if request.tolerance.value() == 0.0 {
            self.check_strict(request.objective, cache, a, &tier);
        }
    }

    /// A strict answer is the baseline's: executed by the baseline
    /// version, or an exact cache hit whose stored answer has the
    /// baseline's quality (the cache's zero-degradation contract). A
    /// semantic hit is never allowed.
    fn check_strict(&mut self, objective: Objective, cache: CacheTag, a: &Answer, tier: &str) {
        let baseline = self.baselines[&objective.to_string()];
        match cache {
            CacheTag::HitSemantic => {
                self.violation(format!("{tier}: strict tier served a semantic cache hit"));
            }
            CacheTag::HitExact => {
                let base_err = self
                    .deployment
                    .matrix()
                    .get(a.payload, baseline)
                    .quality_err;
                if a.quality_err != base_err {
                    self.violation(format!(
                        "{tier}: strict exact hit with quality_err {} against the baseline's {base_err}",
                        a.quality_err
                    ));
                }
            }
            _ if a.version != baseline => self.violation(format!(
                "{tier}: strict answer from version {} not baseline {baseline}",
                a.version
            )),
            _ => {}
        }
    }

    /// Reconcile billing and drops; returns every finding.
    pub fn finish(mut self) -> Findings {
        let program = self.deployment.billing();
        let tiers: Vec<(String, u32)> = program.keys().chain(self.billed.keys()).cloned().collect();
        for key in tiers {
            let (count, revenue) = program.get(&key).copied().unwrap_or((0, 0.0));
            let (client_count, client_revenue) = self.billed.get(&key).copied().unwrap_or((0, 0.0));
            let tolerance = 1e-9 * revenue.abs().max(client_revenue.abs()).max(1e-12);
            if count != client_count || (revenue - client_revenue).abs() > tolerance {
                self.violation(format!(
                    "billing {}/{}: program billed {count} requests for ${revenue}, \
                     client saw {client_count} 200s charged ${client_revenue}",
                    key.0, key.1
                ));
            }
        }
        let dropped = self.deployment.dropped();
        if dropped != 0 {
            self.violation(format!("{dropped} dropped requests"));
        }
        Findings {
            violations: self.violations,
            quoted: self.quoted,
            answered: self.billed.values().map(|(n, _)| *n as u64).sum(),
        }
    }
}

/// What the checks found for one deployment.
#[derive(Debug, Clone, Default)]
pub struct Findings {
    /// Violations, all kinds.
    pub violations: u64,
    /// The first few, in words.
    pub quoted: Vec<String>,
    /// `200`s checked.
    pub answered: u64,
}

impl Findings {
    /// Fold another deployment's findings in.
    pub fn merge(&mut self, other: Findings) {
        self.violations += other.violations;
        self.answered += other.answered;
        for q in other.quoted {
            if self.quoted.len() < QUOTED {
                self.quoted.push(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{boot, probe_request, BootOptions, Workload};
    use tt_core::request::Tolerance;
    use tt_net::ObsConfig;

    fn answer(
        version: usize,
        payload: usize,
        tolerance: f64,
        quality_err: f64,
        price: f64,
    ) -> String {
        format!(
            "{{\n  \"version\": {version},\n  \"payload\": {payload},\n  \"tolerance\": {tolerance},\n  \
             \"billed_tolerance\": {tolerance},\n  \"quality_err\": {quality_err},\n  \
             \"latency_us\": 100,\n  \"price_usd\": {price},\n  \"degraded\": false\n}}\n"
        )
    }

    fn reply(body: String, cache: CacheTag) -> WireResponse {
        WireResponse {
            status: 200,
            cache,
            served_by: None,
            body,
        }
    }

    #[test]
    fn forged_answers_and_unbilled_charges_are_caught() {
        let options = BootOptions {
            obs: ObsConfig::defaults(),
            spans: None,
        };
        let (deployment, _, probe) = boot(Workload::HotPath, &options).expect("boot");
        let matrix = deployment.matrix();
        let baseline = deployment
            .frontend()
            .rules()
            .next()
            .expect("rules")
            .baseline_version();
        let other = (baseline + 1) % matrix.versions();
        let strict = ServiceRequest::new(3, Tolerance::ZERO, Objective::ResponseTime);
        let price = deployment.services[0]
            .schedule()
            .price_for(0.0)
            .as_dollars();
        let truth = matrix.get(3, baseline).quality_err;

        // The real probe answer passes and bills cleanly.
        let mut clean = Checker::new(&deployment);
        assert!(clean.record(&probe_request(), Some(&probe)).is_some());
        let findings = clean.finish();
        assert_eq!(
            (findings.violations, findings.answered),
            (0, 1),
            "{:?}",
            findings.quoted
        );

        let forged = [
            // Quality that is not the profile row's.
            reply(answer(baseline, 3, 0.0, truth + 0.5, price), CacheTag::Off),
            // A price off the schedule.
            reply(answer(baseline, 3, 0.0, truth, price * 2.0), CacheTag::Off),
            // A strict answer from a non-baseline version.
            reply(
                answer(other, 3, 0.0, matrix.get(3, other).quality_err, price),
                CacheTag::Off,
            ),
            // A strict semantic cache hit.
            reply(
                answer(baseline, 3, 0.0, truth, price),
                CacheTag::HitSemantic,
            ),
        ];
        let mut checker = Checker::new(&deployment);
        assert!(checker.record(&probe_request(), Some(&probe)).is_some());
        for response in &forged {
            checker.record(&strict, Some(response));
        }
        let findings = checker.finish();
        // Four forged answers, plus the billing reconciliation: the
        // client was charged for four 200s the program never billed.
        assert_eq!(findings.violations, 5, "{:?}", findings.quoted);
        assert!(findings
            .quoted
            .iter()
            .any(|q| q.starts_with("billing response-time/0")));
        deployment.shutdown().expect("shutdown");
    }
}
