//===- sim/PipelineSim.h - Pipeline application simulation -----*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Discrete-event simulation of a staged pipeline application (ferret,
/// dedup) on the simulated C-context platform, driving real Mechanism
/// objects (TBF, TB, FDP, SEDA, TPC, statics).
///
/// Platform model: processor sharing. Every in-service item progresses at
/// a per-thread rate of min(1, C_eff / BusyThreads) where
/// C_eff = C / (1 + gamma * max(0, BusyThreads / C - 1)); gamma is the
/// application's oversubscription penalty (context switching and cache
/// pollution — the reason "Pthreads-OS" helps ferret but hurts dedup in
/// the paper's Table 15). Items flow stage to stage through bounded
/// queues with producer blocking; a stage's measured begin..end time
/// therefore includes CPU contention but excludes blocked-on-full time,
/// matching where the paper's applications place Task::begin/Task::end.
///
/// Workloads: batch (a feeder keeps the first stage's queue topped up
/// until N items have entered) or open loop (Poisson arrivals) for
/// response-time experiments. Power is modelled by PowerModel and
/// published through a FeatureRegistry with PDU-like sampling lag.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_PIPELINESIM_H
#define DOPE_SIM_PIPELINESIM_H

#include "core/FeatureRegistry.h"
#include "core/Mechanism.h"
#include "core/Placement.h"
#include "core/Task.h"
#include "core/Topology.h"
#include "metrics/FaultStats.h"
#include "metrics/ResponseStats.h"
#include "metrics/TimeSeries.h"
#include "sim/EventQueue.h"
#include "sim/FaultInjector.h"
#include "sim/PowerModel.h"
#include "support/MovingAverage.h"
#include "support/Random.h"
#include "support/Trace.h"
#include "workload/Arrivals.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace dope {

/// One pipeline stage of the application model.
struct PipelineStageSpec {
  std::string Name;
  /// Parallel stages accept any extent; sequential stages are pinned at 1.
  bool Parallel = true;
  /// Mean per-item service time in seconds (at rate 1.0).
  double ServiceSeconds = 1.0;
  /// Coefficient of variation of the per-item service time.
  double Cv = 0.15;
};

/// A pipeline application model, optionally with a fused variant exposed
/// as a second descriptor alternative (paper Sec. 7.2: the developer
/// registers the fused task; DoPE spawns it when TBF triggers fusion).
struct PipelineAppModel {
  std::string Name = "pipeline";
  std::vector<PipelineStageSpec> Stages;
  /// Fused variant; empty when the application exposes none.
  std::vector<PipelineStageSpec> FusedStages;
  /// Oversubscription penalty gamma (see file header): applies when more
  /// threads are simultaneously *busy* than the platform has contexts.
  double OversubPenalty = 0.1;
  /// Thread-footprint penalty delta: created-but-possibly-idle threads
  /// still pollute caches and consume memory, slowing everyone down by
  /// 1 / (1 + delta * max(0, TotalThreads / C - 1)). This is what makes
  /// "Pthreads-OS" a wash for memory-bound dedup while compute-bound
  /// ferret tolerates it (paper Sec. 8.2.2).
  double ThreadOverheadPenalty = 0.02;
};

/// How stage replicas are mapped onto the platform's cores.
enum class PlacementPolicy {
  /// Ignore placement entirely (no communication modelling).
  None,
  /// Locality-maximizing: every socket hosts a slice of every stage and
  /// items are routed to local consumers (placePartitioned +
  /// RoutingPolicy::LocalityPreferring).
  LocalityAware,
  /// Oblivious: stages striped across sockets, uniform routing.
  Oblivious,
};

/// Simulation options.
struct PipelineSimOptions {
  unsigned Contexts = 24;
  uint64_t Seed = 42;
  /// Socket/core structure of the platform (paper: 4 sockets x 6 cores).
  Topology Topo{4, 6, 3.0};
  /// Placement policy for stage replicas.
  PlacementPolicy Place = PlacementPolicy::None;
  /// Per-item inter-stage hand-off cost at communication cost 1.0 (one
  /// intra-socket hop); 0 disables communication modelling.
  double CommSecondsPerHop = 0.0;
  /// Open loop: Poisson arrivals at ArrivalRate. Batch otherwise.
  bool OpenLoop = false;
  double ArrivalRate = 1.0;
  /// Load-factor schedule modulating the open-loop arrival rate over time
  /// (burst/overload traces); an empty trace keeps the rate constant.
  LoadTrace ArrivalTrace;
  /// Admission control: arrivals finding this many items already waiting
  /// in the outer queue are shed (counted, not enqueued), bounding queue
  /// occupancy under overload. 0 disables shedding.
  size_t AdmissionLimit = 0;
  /// Items to push through the pipeline.
  uint64_t NumItems = 2000;
  /// Mechanism decision cadence.
  double DecisionIntervalSeconds = 0.5;
  /// Pause charged per applied reconfiguration.
  double ReconfigPauseSeconds = 0.05;
  /// Inter-stage queue capacity (bounded, producers block).
  size_t QueueCapacity = 64;
  /// Items excluded from response statistics (open loop warm-up).
  uint64_t WarmupItems = 0;
  /// Safety bound on virtual time.
  double MaxSimSeconds = 1e6;
  /// Power model of the platform and its budget (0 = unconstrained).
  PowerModel Power{24, 450.0, 6.25};
  double PowerBudgetWatts = 0.0;
  /// Sampling lag of the power measurement path (paper: 13 samples/min).
  double PowerSampleIntervalSeconds = 60.0 / 13.0;
  /// Width of throughput/power trace windows.
  double TraceWindowSeconds = 1.0;
  /// Structured tracer recording decisions, queue depths, reconfigs, and
  /// fault events in virtual time; null disables tracing. During run()
  /// the tracer's clock is retargeted to the simulator's virtual clock
  /// (and restored afterwards) so mirrored log lines share the domain.
  Tracer *TraceSink = nullptr;
  /// Also emit TaskBegin/TaskEnd records for every item service, with
  /// parentage (B = item id, Detail = upstream stage) linking each
  /// stage's instance to the one that produced the item. Off by default:
  /// instance records are per-item and dominate trace volume; the
  /// what-if profiler turns them on to reconstruct the spawn DAG.
  bool TraceTaskInstances = false;
};

/// A scheduled disturbance: at Time, scale stage Stage's service time by
/// Factor (models the "system event" transient of Fig. 14).
struct Disturbance {
  double Time = 0.0;
  size_t Stage = 0;
  double Factor = 1.0;
  /// Duration of the disturbance; the factor reverts afterwards.
  double Duration = 0.0;
};

/// Results of one simulated run.
struct PipelineSimResult {
  uint64_t ItemsCompleted = 0;
  double TotalSeconds = 0.0;
  /// Overall items/second.
  double Throughput = 0.0;
  /// Open-loop response statistics.
  ResponseStats Stats;
  /// Windowed throughput over time (Fig. 13 / Fig. 14 traces).
  TimeSeries ThroughputSeries{"throughput"};
  /// Sampled power over time (Fig. 14 trace).
  TimeSeries PowerSeries{"power"};
  /// Total configured threads over time.
  TimeSeries ThreadsSeries{"threads"};
  uint64_t Reconfigurations = 0;
  /// Proposals rejected by validateConfig (a mechanism bug); the
  /// running config stayed in force.
  uint64_t InvalidProposals = 0;
  /// Extents per stage at the end of the run.
  std::vector<unsigned> FinalExtents;
  /// True when the run ended on the fused alternative.
  bool EndedFused = false;
  /// Failure/recovery counters (kills, wedges, sheds, drops).
  /// TimeToRecoverSeconds is left for the harness to fill — the engine
  /// does not know the caller's recovery target.
  FaultStats Faults;
  /// Virtual time of the first injected fault; negative without faults.
  double FirstFaultTime = -1.0;
  /// Live contexts at the end of the run (Contexts minus kills).
  unsigned LiveContextsAtEnd = 0;
  /// Peak outer-queue occupancy observed at arrival instants (open loop);
  /// with admission control this is bounded by AdmissionLimit.
  size_t PeakOuterQueue = 0;
};

/// The pipeline simulator.
class PipelineSim {
public:
  PipelineSim(PipelineAppModel App, PipelineSimOptions Opts);

  /// Runs the workload under \p Mech (nullptr = static). \p InitialExtents
  /// sets the starting per-stage extents of the unfused pipeline; empty
  /// means all ones.
  PipelineSimResult run(Mechanism *Mech,
                        std::vector<unsigned> InitialExtents = {});

  /// Adds a disturbance applied during subsequent run() calls.
  void addDisturbance(const Disturbance &D) { Disturbances.push_back(D); }
  void clearDisturbances() { Disturbances.clear(); }

  /// Installs the fault plan applied during subsequent run() calls (the
  /// injector itself is re-seeded per run from the options seed).
  void setFaultPlan(FaultPlan Plan) { Faults = std::move(Plan); }

  /// Analytic throughput bound of a configuration: the lesser of the
  /// bottleneck stage capacity min_i(n_i / s_i) and the CPU pool bound
  /// C_eff / sum_i(s_i). Used for calibration and tests.
  double analyticThroughput(const std::vector<unsigned> &Extents,
                            bool Fused = false) const;

  const PipelineAppModel &app() const { return App; }
  const ParDescriptor *rootRegion() const { return Root; }

private:
  void buildGraph();

  PipelineAppModel App;
  PipelineSimOptions Opts;
  std::vector<Disturbance> Disturbances;
  FaultPlan Faults;

  TaskGraph Graph;
  ParDescriptor *Root = nullptr;
  Task *Driver = nullptr;
  std::vector<Task *> StageTasks;
  std::vector<Task *> FusedTasks;
};

} // namespace dope

#endif // DOPE_SIM_PIPELINESIM_H
