/**
 * @file
 * Central registry of observability instrument and span names.
 *
 * Every counter, gauge, histogram and span name in the tree lives
 * here, as a `leo.<subsystem>.<name>` constant — one source of truth
 * so a typo'd name is a missing-identifier compile error instead of a
 * silently forked metric. The leo-lint `obs-naming` check enforces
 * the contract from the other side: an instrument constructed from a
 * raw string literal anywhere in src/, tools/ or bench/ fails the
 * lint unless the literal both matches the scheme and appears in this
 * header (see DESIGN.md "Static analysis and enforced invariants").
 *
 * Naming scheme (DESIGN.md "Observability"): dot-joined lowercase
 * components, `leo.<subsystem>.<noun>.<verb>` for counters
 * (leo.em.fits.completed), `leo.<subsystem>.<noun>.<unit>` for
 * histograms (leo.em.iter.ms) and gauges (leo.em.workspace.bytes),
 * `leo.<subsystem>.<operation>` for spans (leo.em.fit).
 */

#ifndef LEO_OBS_NAMES_HH
#define LEO_OBS_NAMES_HH

namespace leo::obs::names
{

// ---- em: the LEO EM estimator (src/estimators/leo.cc) ----------- //
inline constexpr const char *kEmFitsCompleted = "leo.em.fits.completed";
inline constexpr const char *kEmIterationsRun = "leo.em.iterations.run";
inline constexpr const char *kEmRidgeRetried = "leo.em.ridge.retried";
inline constexpr const char *kEmIterMs = "leo.em.iter.ms";
inline constexpr const char *kEmWorkspaceBytes = "leo.em.workspace.bytes";
inline constexpr const char *kEmFitSpan = "leo.em.fit";
inline constexpr const char *kEmIterSpan = "leo.em.iter";
inline constexpr const char *kEmBasisColumns = "leo.em.basis.columns";
inline constexpr const char *kEmPriorBasisSpan = "leo.em.prior_basis";
inline constexpr const char *kEmPriorBasisBuilt =
    "leo.em.prior_basis.built";

// ---- linalg: the dense kernels (src/linalg/kernels.cc) ---------- //
/** Doubles per vector in the kernel build the process runs: 4 for
 *  AVX2, 2 for the portable build (SSE2 on x86-64). */
inline constexpr const char *kLinalgSimdLanes = "leo.linalg.simd.lanes";

// ---- sanitize: estimator input sanitization --------------------- //
inline constexpr const char *kSanitizeSamplesRejected =
    "leo.sanitize.samples.rejected";
inline constexpr const char *kSanitizeSamplesMerged =
    "leo.sanitize.samples.merged";

// ---- sampling: variance-guided active sampling ------------------ //
inline constexpr const char *kSamplingProbesMeasured =
    "leo.sampling.probes.measured";
inline constexpr const char *kSamplingRoundsGuided =
    "leo.sampling.rounds.guided";
inline constexpr const char *kSamplingProbeSpan = "leo.sampling.probe";

// ---- lp: the simplex solver (src/linalg/simplex.cc) ------------- //
inline constexpr const char *kLpSolvesRun = "leo.lp.solves.run";
inline constexpr const char *kLpPivotsStepped = "leo.lp.pivots.stepped";
inline constexpr const char *kLpSolveSpan = "leo.lp.solve";

// ---- pool: the deterministic thread pool ------------------------ //
inline constexpr const char *kPoolTasksPosted = "leo.pool.tasks.posted";
inline constexpr const char *kPoolTasksExecuted =
    "leo.pool.tasks.executed";
inline constexpr const char *kPoolQueueDepth = "leo.pool.queue.depth";
inline constexpr const char *kPoolWaitMs = "leo.pool.wait.ms";
inline constexpr const char *kPoolTaskMs = "leo.pool.task.ms";

// ---- optimizer: schedule/plan computation ----------------------- //
inline constexpr const char *kOptimizerPlansComputed =
    "leo.optimizer.plans.computed";
inline constexpr const char *kOptimizerPlansInfeasible =
    "leo.optimizer.plans.infeasible";
inline constexpr const char *kOptimizerPlanSpan = "leo.optimizer.plan";

// ---- optimizer: global multi-app co-scheduling ------------------ //
inline constexpr const char *kOptimizerGlobalPlansComputed =
    "leo.optimizer.global.plans.computed";
inline constexpr const char *kOptimizerGlobalPlansInfeasible =
    "leo.optimizer.global.plans.infeasible";
inline constexpr const char *kOptimizerGlobalPlanSpan =
    "leo.optimizer.global.plan";

// ---- faults: the fault injector --------------------------------- //
inline constexpr const char *kFaultsReadingsSeen =
    "leo.faults.readings.seen";
inline constexpr const char *kFaultsReadingsCorrupted =
    "leo.faults.readings.corrupted";

// ---- profiler: the telemetry sweep profiler --------------------- //
inline constexpr const char *kProfilerConfigsMeasured =
    "leo.profiler.configs.measured";
inline constexpr const char *kProfilerSweepsRun =
    "leo.profiler.sweeps.run";
inline constexpr const char *kProfilerMeasureSpan = "leo.profiler.measure";

// ---- controller: the online energy controller ------------------- //
inline constexpr const char *kControllerWindowSpan =
    "leo.controller.window";
inline constexpr const char *kControllerFitSpan = "leo.controller.fit";
inline constexpr const char *kControllerChangepointLatency =
    "leo.controller.changepoint.latency.windows";

// ---- service: the multi-tenant serving core --------------------- //
inline constexpr const char *kServiceTenantsAdmitted =
    "leo.service.tenants.admitted";
inline constexpr const char *kServiceTenantsRejected =
    "leo.service.tenants.rejected";
inline constexpr const char *kServiceTenantsClosed =
    "leo.service.tenants.closed";
inline constexpr const char *kServiceTenantsActive =
    "leo.service.tenants.active";
inline constexpr const char *kServiceSamplesEnqueued =
    "leo.service.samples.enqueued";
inline constexpr const char *kServiceSamplesDropped =
    "leo.service.samples.dropped";
inline constexpr const char *kServiceWindowsProcessed =
    "leo.service.windows.processed";
inline constexpr const char *kServiceTicksRun =
    "leo.service.ticks.run";
inline constexpr const char *kServiceFitsBatched =
    "leo.service.fits.batched";
inline constexpr const char *kServiceCacheHits =
    "leo.service.cache.hits";
inline constexpr const char *kServiceCacheMisses =
    "leo.service.cache.misses";
inline constexpr const char *kServiceCacheEvictions =
    "leo.service.cache.evictions";
inline constexpr const char *kServicePriorRefreshes =
    "leo.service.prior.refreshes";
inline constexpr const char *kServiceGlobalReplans =
    "leo.service.global.replans";
inline constexpr const char *kServiceGlobalInfeasible =
    "leo.service.global.infeasible";
inline constexpr const char *kServiceSnapshotsSaved =
    "leo.service.snapshots.saved";
inline constexpr const char *kServiceSnapshotsRestored =
    "leo.service.snapshots.restored";
inline constexpr const char *kServiceTickMs = "leo.service.tick.ms";
inline constexpr const char *kServiceTickSpan = "leo.service.tick";
inline constexpr const char *kServiceFitSpan = "leo.service.fit";
inline constexpr const char *kServiceSnapshotSpan =
    "leo.service.snapshot";
inline constexpr const char *kServiceRestoreSpan = "leo.service.restore";

// ---- bench: benchmark-local instruments ------------------------- //
inline constexpr const char *kBenchFitMs = "leo.bench.fit.ms";
inline constexpr const char *kBenchFitIters = "leo.bench.fit.iters";
inline constexpr const char *kBenchLowRankMs = "leo.bench.lowrank.ms";
inline constexpr const char *kBenchTrialSpan = "leo.bench.trial";

} // namespace leo::obs::names

#endif // LEO_OBS_NAMES_HH
