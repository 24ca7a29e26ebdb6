//! Shared simulation plumbing for the experiment modules.

use vmt_core::PolicyKind;
use vmt_dcsim::{ClusterConfig, Simulation, SimulationResult, TelemetryConfig};
use vmt_workload::{DiurnalTrace, TraceConfig};

/// A fully specified experiment run: cluster + trace + policy.
///
/// # Examples
///
/// ```
/// use vmt_core::PolicyKind;
/// use vmt_experiments::runner::Run;
///
/// let result = Run::new(20, PolicyKind::RoundRobin).execute();
/// assert_eq!(result.scheduler_name, "round-robin");
/// ```
#[derive(Debug, Clone)]
pub struct Run {
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// Trace configuration.
    pub trace: TraceConfig,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Worker threads for the sharded physics tick (results are
    /// bit-identical at any value; see `ServerFarm::set_threads`).
    /// Defaults to [`vmt_dcsim::default_tick_threads`], which honours
    /// the `VMT_THREADS` environment variable. A tick uses
    /// [`vmt_dcsim::tick_fan_out`] of them, which is what
    /// [`execute_all`] budgets by.
    pub tick_threads: usize,
}

impl Run {
    /// A paper-default run of `servers` servers under `policy`.
    pub fn new(servers: usize, policy: PolicyKind) -> Self {
        Self {
            cluster: ClusterConfig::paper_default(servers),
            trace: TraceConfig::paper_default(),
            policy,
            tick_threads: vmt_dcsim::default_tick_threads(),
        }
    }

    /// Sets the physics-tick thread count for this run.
    pub fn with_tick_threads(mut self, threads: usize) -> Self {
        self.tick_threads = threads.max(1);
        self
    }

    /// Executes the run.
    pub fn execute(&self) -> SimulationResult {
        let scheduler = self.policy.build(&self.cluster);
        Simulation::new(
            self.cluster.clone(),
            DiurnalTrace::new(self.trace.clone()),
            scheduler,
        )
        .with_threads(self.tick_threads)
        .run()
    }

    /// Executes the run with telemetry attached.
    ///
    /// `TelemetryConfig` is not `Clone` (it owns the event sink), so it
    /// is a per-call argument rather than a field of the reusable `Run`.
    /// Keep clones of the config's `summary` handle and registry before
    /// calling to read the results; telemetry is observational only, so
    /// the returned `SimulationResult` is identical to `execute()`'s.
    pub fn execute_with_telemetry(&self, telemetry: TelemetryConfig) -> SimulationResult {
        let scheduler = self.policy.build(&self.cluster);
        Simulation::new(
            self.cluster.clone(),
            DiurnalTrace::new(self.trace.clone()),
            scheduler,
        )
        .with_threads(self.tick_threads)
        .with_telemetry(telemetry)
        .run()
    }
}

/// Executes several runs on a bounded worker pool and returns the
/// results in input order.
///
/// Parameter sweeps dominate the harness's wall-clock; the runs are
/// independent and deterministic, so parallel execution changes nothing
/// in the output. The pool runs `min(runs, cores ÷ widest tick
/// fan-out)` workers, the fan-out being what [`vmt_dcsim::tick_fan_out`]
/// says a run's tick actually uses: whole runs fill the cores their
/// ticks leave idle, so the paper's 100- and 1,000-server sweeps run
/// one run per core, while a sweep of farms large enough to fan their
/// own ticks out across every core runs them one at a time.
pub fn execute_all(runs: &[Run]) -> Vec<SimulationResult> {
    execute_on(runs, sweep_workers(runs))
}

/// Sweep workers for `runs`: the machine's cores divided by the widest
/// tick fan-out among them (the threads a tick actually uses, not the
/// threads it requests), and at most one per run. Sweep workers × tick
/// workers never exceeds the cores.
fn sweep_workers(runs: &[Run]) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let fan_out = runs
        .iter()
        .map(|r| vmt_dcsim::tick_fan_out(r.cluster.num_servers, r.tick_threads))
        .max()
        .unwrap_or(1);
    (cores / fan_out).min(runs.len()).max(1)
}

/// Executes `runs` on `workers` threads (serially at one), results in
/// input order.
fn execute_on(runs: &[Run], workers: usize) -> Vec<SimulationResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if workers <= 1 {
        return runs.iter().map(Run::execute).collect();
    }
    // Work-stealing by index claim: each worker grabs the next
    // unclaimed run and writes its result into that run's slot, so the
    // output order is the input order regardless of completion order.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SimulationResult>>> =
        (0..runs.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(run) = runs.get(i) else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(run.execute());
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("all runs executed")
        })
        .collect()
}

/// Peak cooling-load reduction of `subject` relative to `baseline`, in
/// percent (the paper's headline metric).
pub fn reduction_percent(subject: &SimulationResult, baseline: &SimulationResult) -> f64 {
    subject.compare_peak(baseline).reduction_percent()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_worker_count_matches_serial_in_input_order() {
        let runs = vec![
            Run::new(4, PolicyKind::RoundRobin),
            Run::new(40, PolicyKind::vmt_wa(22.0)),
            Run::new(4, PolicyKind::CoolestFirst),
            Run::new(40, PolicyKind::VmtTa { gv: 20.0 }),
            Run::new(40, PolicyKind::RoundRobin),
            Run::new(4, PolicyKind::vmt_wa(24.0)),
        ];
        let serial: Vec<_> = runs.iter().map(Run::execute).collect();
        for workers in [1, 2, 3, 7] {
            assert_eq!(execute_on(&runs, workers), serial, "{workers} workers");
        }
    }

    #[test]
    fn sweep_budget_counts_the_threads_ticks_use() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        // 1,000-server ticks never fan out, whatever they request, so
        // whole runs fill the cores.
        let mut runs: Vec<Run> = (0..5)
            .map(|_| Run::new(1000, PolicyKind::RoundRobin).with_tick_threads(cores))
            .collect();
        assert_eq!(sweep_workers(&runs), cores.min(5));
        // A 100k-server run at `cores` threads fans out to every core
        // up to its 48 workers (100,000 / 2,048), leaving none for a
        // second run on any host of at most 48 cores.
        runs.push(Run::new(100_000, PolicyKind::RoundRobin).with_tick_threads(cores));
        let expected = if cores <= 48 { 1 } else { (cores / 48).min(6) };
        assert_eq!(sweep_workers(&runs), expected);
        assert_eq!(sweep_workers(&[]), 1);
    }

    #[test]
    fn reduction_vs_self_is_zero() {
        let r = Run::new(4, PolicyKind::RoundRobin).execute();
        assert_eq!(reduction_percent(&r, &r), 0.0);
    }
}
