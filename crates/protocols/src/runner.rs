//! Campaign runners: execute a protocol across exhaustive or sampled run
//! sets, validating properties and collecting decision statistics.

use eba_model::{enumerate, sample, FailurePattern, InitialConfig, Scenario};
use eba_sim::stats::DecisionStats;
use eba_sim::{execute_unchecked, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Aggregate results of running one protocol over a set of runs.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Protocol name.
    pub protocol: String,
    /// Scenario description.
    pub scenario: String,
    /// Number of runs executed.
    pub runs: u64,
    /// Decision-time statistics over nonfaulty processors.
    pub stats: DecisionStats,
    /// Runs violating weak agreement.
    pub agreement_violations: u64,
    /// Runs violating weak validity.
    pub validity_violations: u64,
    /// Runs in which some nonfaulty processor did not decide within the
    /// horizon.
    pub decision_violations: u64,
    /// Runs whose nonfaulty decisions were not simultaneous.
    pub non_simultaneous: u64,
    /// Total messages delivered across all runs.
    pub messages_delivered: u64,
}

impl CampaignReport {
    /// Whether every executed run satisfied weak agreement and weak
    /// validity.
    #[must_use]
    pub fn safe(&self) -> bool {
        self.agreement_violations == 0 && self.validity_violations == 0
    }

    /// Whether every run additionally satisfied the decision property.
    #[must_use]
    pub fn live(&self) -> bool {
        self.safe() && self.decision_violations == 0
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: runs={} {} agree-viol={} valid-viol={} undecided-runs={}",
            self.protocol,
            self.scenario,
            self.runs,
            self.stats,
            self.agreement_violations,
            self.validity_violations,
            self.decision_violations,
        )
    }
}

/// Runs `protocol` over an explicit list of `(config, pattern)` runs.
pub fn run_campaign<P: Protocol>(
    protocol: &P,
    scenario: &Scenario,
    runs: impl IntoIterator<Item = (InitialConfig, FailurePattern)>,
) -> CampaignReport {
    let mut report = CampaignReport {
        protocol: protocol.name().to_owned(),
        scenario: scenario.to_string(),
        runs: 0,
        stats: DecisionStats::new(),
        agreement_violations: 0,
        validity_violations: 0,
        decision_violations: 0,
        non_simultaneous: 0,
        messages_delivered: 0,
    };
    for (config, pattern) in runs {
        let trace = execute_unchecked(protocol, &config, &pattern, scenario.horizon());
        report.runs += 1;
        report.stats.record_trace(&trace);
        report.agreement_violations += u64::from(!trace.satisfies_weak_agreement());
        report.validity_violations += u64::from(!trace.satisfies_weak_validity());
        report.decision_violations += u64::from(!trace.satisfies_decision());
        report.non_simultaneous += u64::from(!trace.satisfies_simultaneity());
        report.messages_delivered += trace.messages_delivered();
    }
    report
}

/// Runs `protocol` over **every** run of the scenario (all configurations
/// × all canonical failure patterns). Exponential; check
/// [`enumerate::count_patterns`] first.
pub fn run_exhaustive<P: Protocol>(protocol: &P, scenario: &Scenario) -> CampaignReport {
    let configs: Vec<InitialConfig> = InitialConfig::enumerate_all(scenario.n()).collect();
    let runs = enumerate::patterns(scenario).flat_map(|pattern| {
        configs
            .iter()
            .cloned()
            .map(move |config| (config, pattern.clone()))
            .collect::<Vec<_>>()
    });
    run_campaign(protocol, scenario, runs)
}

/// Runs `protocol` over `count` seeded random runs of the scenario.
pub fn run_sampled<P: Protocol>(
    protocol: &P,
    scenario: &Scenario,
    count: usize,
    seed: u64,
) -> CampaignReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = sample::PatternSampler::new(*scenario);
    let runs: Vec<(InitialConfig, FailurePattern)> = (0..count)
        .map(|_| {
            (
                sample::random_config(scenario.n(), &mut rng),
                sampler.sample(&mut rng),
            )
        })
        .collect();
    run_campaign(protocol, scenario, runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChainOmission, FloodMin, P0Opt, Relay};
    use eba_model::FailureMode;

    #[test]
    fn exhaustive_p0_campaign_is_live() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let report = run_exhaustive(&Relay::p0(1), &scenario);
        assert!(report.live(), "{report}");
        assert_eq!(report.runs, 8 * enumerate::count_patterns(&scenario) as u64);
        assert!(report.stats.decided() > 0);
    }

    #[test]
    fn exhaustive_p0opt_campaign_is_live() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let report = run_exhaustive(&P0Opt::new(1), &scenario);
        assert!(report.live(), "{report}");
    }

    #[test]
    fn sampled_campaigns_are_reproducible() {
        let scenario = Scenario::new(8, 2, FailureMode::Crash, 4).unwrap();
        let a = run_sampled(&P0Opt::new(2), &scenario, 100, 7);
        let b = run_sampled(&P0Opt::new(2), &scenario, 100, 7);
        assert_eq!(a.stats.histogram(), b.stats.histogram());
        assert!(a.live(), "{a}");
    }

    #[test]
    fn floodmin_is_simultaneous_in_crash_mode() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let report = run_exhaustive(&FloodMin::new(1), &scenario);
        assert!(report.live(), "{report}");
        assert_eq!(report.non_simultaneous, 0);
    }

    #[test]
    fn chain_omission_sampled_campaign_is_live() {
        let scenario = Scenario::new(8, 3, FailureMode::Omission, 5).unwrap();
        let report = run_sampled(&ChainOmission::new(8), &scenario, 200, 11);
        assert!(report.live(), "{report}");
    }

    #[test]
    fn report_display_mentions_protocol() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let report = run_sampled(&Relay::p0(1), &scenario, 10, 1);
        assert!(report.to_string().contains("P0"));
    }
}
