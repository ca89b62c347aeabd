//===- dopebench/src/TracedOps.cpp - traced_ops workload ------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operator's path, with tracing on. One round:
///   1. an arbitrated three-tenant ColocationSim (default shard setting)
///      records into a tracer and keeps its lease journal;
///   2. the drained trace and the journal go through writeTraceJsonl into
///      memory and back through readTraceJsonl;
///   3. a fresh Arbiter is warmStart-ed from the read-back journal, then
///      round-trips through snapshot() / restore();
///   4. a PipelineSim profile with task-instance records goes through
///      TaskDag, CriticalPath, WhatIfModel::fromProfile, recommendExtents
///      and validateRecommendation, and the colocation tenants through
///      recommendShares and validateShares.
/// Checks: the JSONL round trips return what was written, the warm-started
/// arbiter holds the live run's final leases, restore(snapshot()) is
/// lossless, both validation reports are Ok, and no tracer dropped a
/// record. ColocationSim steps a fluid model and never touches the event
/// queue.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/CriticalPath.h"
#include "analysis/Scenarios.h"
#include "analysis/TaskDag.h"
#include "analysis/WhatIf.h"
#include "apps/NativeKernels.h"
#include "arbiter/Arbiter.h"
#include "sim/ColocationSim.h"
#include "sim/PipelineSim.h"
#include "support/Trace.h"

#include <sstream>

using namespace dope;
using namespace dopebench;

namespace {

constexpr double ColocationSeconds = 12000.0;
constexpr uint64_t ProfileItems = 3000;
/// Ring capacity per recording thread: each round records from one
/// thread, and a round's records fit with room to spare, so any drop is
/// a failure rather than expected pressure.
constexpr size_t TraceCapacity = 1 << 20;
constexpr double ValidationBound = 0.15;
constexpr size_t AdmissionLimit = 64;
/// Latency limit behind slo_attain, in simulated time.
constexpr double SloMs = 16500.0;

bool sameRecords(const std::vector<TraceRecord> &A,
                 const std::vector<TraceRecord> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Time != B[I].Time || A[I].Kind != B[I].Kind ||
        A[I].Tid != B[I].Tid || A[I].Name != B[I].Name || A[I].A != B[I].A ||
        A[I].B != B[I].B || A[I].Detail != B[I].Detail)
      return false;
  return true;
}

/// The inputs of one round, built during set-up.
struct RoundInputs {
  WhatIfColocationScenario Colocation;
  WhatIfPipelineScenario Profile;
  std::unique_ptr<Tracer> ColocationTrace;
  std::unique_ptr<Tracer> ProfileTrace;
  std::unique_ptr<ColocationSim> Colo;
  std::unique_ptr<PipelineSim> ProfileSim;
  /// Wall time of the two parts of set-up.
  double BuildSeconds = 0.0;
  double WarmupSeconds = 0.0;
};

RoundInputs setUp(uint64_t Seed, bool Traced) {
  const double Start = wallSeconds();
  RoundInputs In;
  In.Colocation = whatifColocationScenario();
  In.Colocation.Opts.Seed = hashWork(Seed * 31 + 1, 2);
  In.Colocation.Opts.DurationSeconds = ColocationSeconds;
  // Bounded queues: the heavy tenant sheds instead of growing a backlog
  // whose latency would only measure the run's length.
  for (ColocationTenantSpec &Tenant : In.Colocation.Tenants)
    Tenant.AdmissionLimit = AdmissionLimit;
  In.Profile = whatifPipelineScenario();
  In.Profile.Opts.Seed = hashWork(Seed * 31 + 2, 2);
  In.Profile.Opts.NumItems = ProfileItems;
  In.Profile.Opts.TraceTaskInstances = Traced;
  In.ColocationTrace = std::make_unique<Tracer>(TraceCapacity);
  In.ProfileTrace = std::make_unique<Tracer>(TraceCapacity);
  ColocationSimOptions ColoOpts = In.Colocation.Opts;
  PipelineSimOptions ProfileOpts = In.Profile.Opts;
  if (Traced) {
    ColoOpts.TraceSink = In.ColocationTrace.get();
    ProfileOpts.TraceSink = In.ProfileTrace.get();
  }
  In.Colo = std::make_unique<ColocationSim>(In.Colocation.Tenants, ColoOpts);
  In.ProfileSim = std::make_unique<PipelineSim>(In.Profile.App, ProfileOpts);

  const double Built = wallSeconds();
  In.BuildSeconds = Built - Start;

  // Warm-up: a short untraced colocation run faults in code and
  // allocator state before the timed job.
  ColocationSimOptions WarmOpts = In.Colocation.Opts;
  WarmOpts.DurationSeconds = 6000.0;
  (void)ColocationSim(In.Colocation.Tenants, WarmOpts).run();
  In.WarmupSeconds = wallSeconds() - Built;
  return In;
}

struct RoundResult {
  double JobSeconds = 0.0;
  uint64_t Items = 0;
  uint64_t Checks = 0;
  uint64_t Failed = 0;
  Samples Response; // ms of simulated time
  // Layer timings.
  double ColocationSeconds = 0.0, ProfileSeconds = 0.0;
  double WriteSeconds = 0.0, ReadSeconds = 0.0, Bytes = 0.0;
  double WarmStartSeconds = 0.0, SnapshotRestoreSeconds = 0.0;
  double DagSeconds = 0.0, RecommendSeconds = 0.0, ValidateSeconds = 0.0;
  double Records = 0.0, Dropped = 0.0, JournalRecords = 0.0;
  double PredErr = 0.0;
  uint64_t TenantSteps = 0;

  /// The job's wall time split into the timed steps and the rest.
  std::vector<double> parts() const {
    std::vector<double> Steps = {
        ColocationSeconds, ProfileSeconds,         WriteSeconds,
        ReadSeconds,       WarmStartSeconds,       SnapshotRestoreSeconds,
        DagSeconds,        RecommendSeconds,       ValidateSeconds};
    double Rest = JobSeconds;
    for (double S : Steps)
      Rest -= S;
    Steps.push_back(Rest);
    return Steps;
  }
};

/// Writes \p Records as JSONL and reads them back; true when lossless.
bool roundTrip(const std::vector<TraceRecord> &Records, RoundResult &R,
               std::vector<TraceRecord> &Back) {
  std::stringstream Stream;
  double T = wallSeconds();
  writeTraceJsonl(Records, Stream);
  R.WriteSeconds += wallSeconds() - T;
  R.Bytes += static_cast<double>(Stream.str().size());
  T = wallSeconds();
  std::optional<std::vector<TraceRecord>> Read = readTraceJsonl(Stream);
  R.ReadSeconds += wallSeconds() - T;
  if (!Read)
    return false;
  Back = std::move(*Read);
  return sameRecords(Records, Back);
}

RoundResult runJob(RoundInputs &In, bool Traced) {
  RoundResult R;
  auto check = [&](bool Ok) {
    ++R.Checks;
    R.Failed += Ok ? 0 : 1;
  };
  const double JobStart = wallSeconds();

  double T = wallSeconds();
  const ColocationSimResult Colo = In.Colo->run();
  R.ColocationSeconds = wallSeconds() - T;
  R.TenantSteps = static_cast<uint64_t>(
      In.Colocation.Tenants.size() *
      (ColocationSeconds / In.Colocation.Opts.StepSeconds));
  for (const TenantStats &TS : Colo.Tenants)
    R.Items += TS.Completed;

  // Export and read back the trace and the host journal.
  std::vector<TraceRecord> Journal;
  if (Traced) {
    T = wallSeconds();
    const std::vector<TraceRecord> Records = In.ColocationTrace->drain();
    R.WriteSeconds += wallSeconds() - T;
    R.Records += static_cast<double>(In.ColocationTrace->recordedTotal());
    R.Dropped += static_cast<double>(In.ColocationTrace->droppedRecords());
    check(In.ColocationTrace->droppedRecords() == 0);
    std::vector<TraceRecord> Back;
    check(roundTrip(Records, R, Back));
    check(roundTrip(Colo.ProtocolJournal, R, Journal));
  } else {
    Journal = Colo.ProtocolJournal;
  }
  R.JournalRecords = static_cast<double>(Journal.size());

  // Warm-start a fresh arbiter from the journal: it must hold the live
  // run's final leases.
  ArbiterOptions ArbOpts = In.Colocation.Opts.Arbiter;
  ArbOpts.TotalThreads = In.Colocation.Opts.Contexts;
  T = wallSeconds();
  Arbiter Warm(ArbOpts);
  std::vector<TenantId> Ids;
  for (const ColocationTenantSpec &Spec : In.Colocation.Tenants)
    Ids.push_back(Warm.addTenant(Spec.Tenant, 0.0));
  Warm.warmStart(Journal);
  R.WarmStartSeconds = wallSeconds() - T;
  bool LeasesMatch = !Colo.AllocationTimeline.empty();
  for (size_t I = 0; LeasesMatch && I != Ids.size(); ++I)
    LeasesMatch = Warm.leaseOf(Ids[I]).Threads ==
                  Colo.AllocationTimeline.back().Granted[I];
  check(LeasesMatch);

  // restore(snapshot()) must be lossless.
  T = wallSeconds();
  const JsonValue Snapshot = Warm.snapshot();
  Arbiter Restored(ArbOpts);
  const bool RestoreOk = Restored.restore(Snapshot);
  R.SnapshotRestoreSeconds = wallSeconds() - T;
  check(RestoreOk && Restored.snapshot().dump() == Snapshot.dump());

  // The what-if profile: trace -> DAG -> critical path -> model ->
  // recommendation -> re-simulated validation.
  T = wallSeconds();
  const PipelineSimResult Profiled =
      In.ProfileSim->run(nullptr, In.Profile.BaselineExtents);
  R.ProfileSeconds = wallSeconds() - T;
  R.Items += Profiled.ItemsCompleted;
  // The fluid colocation model quantizes latency to its step, so request
  // latency is the profiled pipeline's per-item sojourn.
  R.Response = responseSamplesMs(Profiled.Stats);
  check(Profiled.ItemsCompleted == ProfileItems);
  if (Traced) {
    T = wallSeconds();
    std::vector<TraceRecord> Records = In.ProfileTrace->drain();
    R.WriteSeconds += wallSeconds() - T;
    R.Records += static_cast<double>(In.ProfileTrace->recordedTotal());
    R.Dropped += static_cast<double>(In.ProfileTrace->droppedRecords());
    check(In.ProfileTrace->droppedRecords() == 0);

    T = wallSeconds();
    const CriticalPathProfile Profile =
        computeCriticalPath(TaskDag::build(std::move(Records)));
    R.DagSeconds = wallSeconds() - T;

    T = wallSeconds();
    const WhatIfModel Model = WhatIfModel::fromProfile(
        Profile, In.Profile.Opts.Contexts, In.Profile.App.OversubPenalty,
        In.Profile.App.ThreadOverheadPenalty);
    const std::vector<Recommendation> Recs =
        recommendExtents(Model, In.Profile.Opts.Contexts, 1);
    const ShareRecommendation Shares = recommendShares(
        In.Colocation.Tenants, In.Colocation.Opts.Contexts);
    R.RecommendSeconds = wallSeconds() - T;
    check(!Recs.empty());

    T = wallSeconds();
    bool Valid = false;
    if (!Recs.empty()) {
      PipelineSim Sim(In.Profile.App, In.Profile.Opts);
      const ValidationReport Report =
          validateRecommendation(Sim, Recs.front(), ValidationBound);
      R.PredErr = Report.RelError;
      Valid = Report.Ok;
    }
    ColocationSimOptions ShareOpts = In.Colocation.Opts;
    ShareOpts.DurationSeconds = whatifColocationScenario().Opts.DurationSeconds;
    const ValidationReport ShareReport = validateShares(
        In.Colocation.Tenants, ShareOpts, Shares, ValidationBound);
    R.ValidateSeconds = wallSeconds() - T;
    check(Valid);
    check(ShareReport.Ok);
  }
  R.JobSeconds = wallSeconds() - JobStart;
  return R;
}

} // namespace

Outcome dopebench::runTracedOps(const RunArgs &Args) {
  Outcome Out;
  Samples Response;
  // Wall time of each part of set-up and of the job (RoundResult::parts)
  // over the measured rounds. Every round times its steps, so both kinds
  // of round run the same job.
  std::vector<Samples> SetupParts(2), Parts;
  uint64_t RoundItems = 0; // of the warm-up round
  std::vector<RoundResult> Timed;
  Samples TracedSim, UntracedSim;

  forEachRound(Args, /*RotateCpus=*/true, [&](unsigned, Phase P) {
    RoundInputs In = setUp(Args.Seed, true);
    RoundResult R = runJob(In, true);
    // Every round replays the same seeded sims, so it completes the same
    // items as the warm-up round.
    if (P == Phase::Warmup)
      RoundItems = R.Items;
    Out.Attempted += R.Checks + 1;
    Out.Failed += R.Failed + (R.Items == RoundItems ? 0 : 1);
    if (P == Phase::Warmup)
      return;
    SetupParts[0].add(In.BuildSeconds);
    SetupParts[1].add(In.WarmupSeconds);
    const std::vector<double> RoundParts = R.parts();
    Parts.resize(RoundParts.size());
    for (size_t I = 0; I != RoundParts.size(); ++I)
      Parts[I].add(RoundParts[I]);
    if (Response.count() == 0)
      Response = R.Response;
    if (P != Phase::Timed)
      return;
    // The same sims without a trace sink, for the tracing overhead.
    // Recording a trace must not change what the sims complete.
    RoundInputs Untraced = setUp(Args.Seed, false);
    const RoundResult U = runJob(Untraced, false);
    Out.Attempted += U.Checks + 1;
    Out.Failed += U.Failed + (U.Items == R.Items ? 0 : 1);
    TracedSim.add(R.ColocationSeconds + R.ProfileSeconds);
    UntracedSim.add(U.ColocationSeconds + U.ProfileSeconds);
    Timed.push_back(std::move(R));
  });

  MetricMap &M = Out.Metrics;
  if (!Args.Trace) {
    const double JobSeconds = fastestParts(Parts);
    M["setup_s"] = fastestParts(SetupParts);
    M["job_s"] = JobSeconds;
    M["tput_items_per_s"] = static_cast<double>(RoundItems) / JobSeconds;
    M["resp_p50_ms"] = Response.pct(0.50);
    M["resp_p99_ms"] = Response.pct(0.99);
    M["slo_attain"] = static_cast<double>(Response.countAtMost(SloMs)) /
                      static_cast<double>(Response.count());
    Out.Info["resp_samples"] = static_cast<double>(Response.count());
    Out.Info["rounds"] = static_cast<double>(Parts[0].count());
    return Out;
  }

  auto median = [&](double RoundResult::*Field) {
    Samples S;
    for (const RoundResult &R : Timed)
      S.add(R.*Field);
    return S.median();
  };
  double ColoSeconds = 0, Steps = 0, Layers = 0, JobSum = 0;
  for (const RoundResult &R : Timed) {
    ColoSeconds += R.ColocationSeconds;
    Steps += static_cast<double>(R.TenantSteps);
    Layers += R.JobSeconds - R.parts().back();
    JobSum += R.JobSeconds;
  }
  M["sim.colocation.steps_per_s"] = Steps / ColoSeconds;
  M["support.trace_records"] = median(&RoundResult::Records);
  M["support.trace_dropped"] = median(&RoundResult::Dropped);
  M["support.trace_write_s"] = median(&RoundResult::WriteSeconds);
  M["support.trace_bytes"] = median(&RoundResult::Bytes);
  M["support.trace_read_s"] = median(&RoundResult::ReadSeconds);
  M["support.trace_overhead_frac"] =
      TracedSim.min() / UntracedSim.min() - 1.0;
  M["arbiter.warmstart_s"] = median(&RoundResult::WarmStartSeconds);
  M["arbiter.snapshot_restore_s"] =
      median(&RoundResult::SnapshotRestoreSeconds);
  M["arbiter.journal_records"] = median(&RoundResult::JournalRecords);
  M["analysis.dag_s"] = median(&RoundResult::DagSeconds);
  M["analysis.recommend_s"] = median(&RoundResult::RecommendSeconds);
  M["analysis.validate_s"] = median(&RoundResult::ValidateSeconds);
  M["analysis.pred_err"] = median(&RoundResult::PredErr);
  M["unattributed_frac"] = 1.0 - Layers / JobSum;
  // No round here is free of step timers (job_s is built from them), so
  // there is nothing to compare against: the metric reads 0. The cost of
  // recording the trace is support.trace_overhead_frac.
  M["trace_run_overhead_frac"] = 0.0;
  Out.Info["rounds_timed"] = static_cast<double>(Timed.size());
  Out.Info["rounds_plain"] =
      static_cast<double>(Parts[0].count() - Timed.size());
  return Out;
}
