//! Campaign runners: execute a protocol across exhaustive or sampled run
//! sets, validating properties and collecting decision statistics.

use eba_model::{enumerate, sample, FailurePattern, InitialConfig, Scenario, ScenarioSpace};
use eba_sim::chaos::{supervised_indexed, EngineFault, FaultInjector, FaultSite, NoChaos};
use eba_sim::stats::DecisionStats;
use eba_sim::{execute_unchecked, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

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

    /// Folds another report (over a disjoint slice of the same campaign)
    /// into this one. Every field is a sum or a merge, so the result is
    /// independent of merge order.
    pub fn merge(&mut self, other: &CampaignReport) {
        self.runs += other.runs;
        self.stats.merge(&other.stats);
        self.agreement_violations += other.agreement_violations;
        self.validity_violations += other.validity_violations;
        self.decision_violations += other.decision_violations;
        self.non_simultaneous += other.non_simultaneous;
        self.messages_delivered += other.messages_delivered;
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

/// Runs `protocol` over every run of the scenario, splitting the pattern
/// axis into [`ScenarioSpace`] shards executed by `threads` worker
/// threads. Every aggregate in the report is commutative, so the result
/// equals [`run_exhaustive`] for any thread count.
pub fn run_exhaustive_threaded<P: Protocol + Sync>(
    protocol: &P,
    scenario: &Scenario,
    threads: usize,
) -> CampaignReport {
    match run_exhaustive_supervised(protocol, scenario, threads, &(Arc::new(NoChaos) as _)) {
        Ok(report) => report,
        // Unreachable without an injector: supervision retries a panicked
        // shard and falls back to sequential re-execution before erroring.
        Err(fault) => panic!("{fault}"),
    }
}

/// [`run_exhaustive_threaded`] with explicit worker supervision and fault
/// injection: each campaign shard runs under `catch_unwind`, a panicked
/// shard is retried once on a fresh thread and then recomputed
/// sequentially, and only a persistently failing shard surfaces as a
/// typed [`EngineFault`]. Aggregates merge in shard order, so the report
/// is identical to the sequential one whenever `Ok` is returned — even
/// when recovery paths were taken.
///
/// # Errors
///
/// Returns [`EngineFault::WorkerPanicked`] when a shard fails all
/// supervision attempts (in practice only under an injector that fires
/// three times at the same site).
pub fn run_exhaustive_supervised<P: Protocol + Sync>(
    protocol: &P,
    scenario: &Scenario,
    threads: usize,
    chaos: &Arc<dyn FaultInjector>,
) -> Result<CampaignReport, EngineFault> {
    let workers = threads.max(1);
    let space = ScenarioSpace::new(*scenario);
    let shards = space.shards(workers * 4);
    let configs: Vec<InitialConfig> = InitialConfig::enumerate_all(scenario.n()).collect();
    let (partials, _faults) =
        supervised_indexed(shards.len(), workers, FaultSite::CampaignShard, |index| {
            if let Err(e) = chaos.inject(FaultSite::CampaignShard, index) {
                panic!("{e}");
            }
            let runs = space.shard_patterns(shards[index]).flat_map(|pattern| {
                configs
                    .iter()
                    .cloned()
                    .map(move |config| (config, pattern.clone()))
            });
            run_campaign(protocol, scenario, runs)
        })?;
    let mut merged: Option<CampaignReport> = None;
    for partial in partials {
        match &mut merged {
            None => merged = Some(partial),
            Some(acc) => acc.merge(&partial),
        }
    }
    Ok(merged.expect("a scenario always has at least one shard"))
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
    fn threaded_campaign_matches_sequential() {
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let sequential = run_exhaustive(&Relay::p0(1), &scenario);
        for threads in [1, 2, 5] {
            let threaded = run_exhaustive_threaded(&Relay::p0(1), &scenario, threads);
            assert_eq!(threaded.runs, sequential.runs, "{threads} threads");
            assert_eq!(threaded.stats.histogram(), sequential.stats.histogram());
            assert_eq!(threaded.stats.undecided(), sequential.stats.undecided());
            assert_eq!(threaded.messages_delivered, sequential.messages_delivered);
            assert_eq!(
                threaded.agreement_violations,
                sequential.agreement_violations
            );
            assert_eq!(threaded.non_simultaneous, sequential.non_simultaneous);
        }
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
    fn injected_campaign_shard_panic_degrades_to_identical_report() {
        use eba_sim::chaos::{ChaosPlan, FaultKind};
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let baseline = run_exhaustive(&Relay::p0(1), &scenario);
        let plan = ChaosPlan::new().with_fault(FaultSite::CampaignShard, 0, FaultKind::Panic);
        let plan = Arc::new(plan);
        let chaos: Arc<dyn FaultInjector> = Arc::clone(&plan) as _;
        let report = run_exhaustive_supervised(&Relay::p0(1), &scenario, 4, &chaos).unwrap();
        assert_eq!(plan.fired(), 1, "the injected fault must actually fire");
        assert_eq!(report.runs, baseline.runs);
        assert_eq!(report.stats.histogram(), baseline.stats.histogram());
        assert_eq!(report.messages_delivered, baseline.messages_delivered);
        assert_eq!(report.non_simultaneous, baseline.non_simultaneous);
    }

    #[test]
    fn single_worker_campaign_shard_runs_supervised() {
        use eba_sim::chaos::{ChaosPlan, FaultKind};
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let baseline = run_exhaustive(&Relay::p0(1), &scenario);
        let plan =
            Arc::new(ChaosPlan::new().with_fault(FaultSite::CampaignShard, 0, FaultKind::Panic));
        let chaos: Arc<dyn FaultInjector> = Arc::clone(&plan) as _;
        let report = run_exhaustive_supervised(&Relay::p0(1), &scenario, 1, &chaos).unwrap();
        assert_eq!(plan.fired(), 1, "one worker must consult the injector");
        // The rendering covers runs, decision statistics and violations.
        assert_eq!(report.to_string(), baseline.to_string());
        assert_eq!(report.stats.histogram(), baseline.stats.histogram());
        assert_eq!(report.non_simultaneous, baseline.non_simultaneous);
        assert_eq!(report.messages_delivered, baseline.messages_delivered);
    }

    #[test]
    fn persistent_campaign_shard_panic_is_a_typed_fault() {
        use eba_sim::chaos::{ChaosPlan, FaultKind};
        let scenario = Scenario::new(3, 1, FailureMode::Omission, 2).unwrap();
        let chaos: Arc<dyn FaultInjector> = Arc::new(ChaosPlan::new().with_recurring_fault(
            FaultSite::CampaignShard,
            2,
            FaultKind::Panic,
            3,
        ));
        let fault = run_exhaustive_supervised(&Relay::p0(1), &scenario, 4, &chaos).unwrap_err();
        match fault {
            EngineFault::WorkerPanicked { site, index, .. } => {
                assert_eq!(site, FaultSite::CampaignShard);
                assert_eq!(index, 2);
            }
            other => panic!("expected a worker fault, got {other}"),
        }
    }

    #[test]
    fn report_display_mentions_protocol() {
        let scenario = Scenario::new(3, 1, FailureMode::Crash, 3).unwrap();
        let report = run_sampled(&Relay::p0(1), &scenario, 10, 1);
        assert!(report.to_string().contains("P0"));
    }
}
