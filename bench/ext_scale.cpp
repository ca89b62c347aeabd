//===- bench/ext_scale.cpp - Platform-scale simulator acceptance ----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scale acceptance for the simulators: a platform-sized colocation
/// scenario (120 tenants, over a million simulated events) and a
/// pipeline replica fleet fanned out across host threads. Checked:
///
///   1. The platform run simulates at least 1M events (200k under
///      --quick) and a repeat run is bit-identical: per-tenant stats,
///      fairness, allocation timeline, protocol journal and the
///      work-proportional simulated event count. Events per wall second
///      is reported; bench/perf_suite gates the simulator's rate.
///
///   2. The fleet splits a ferret batch across 2/4/8 independent
///      PipelineSim replicas (replica r runs seed + 0x9e37 * r). The
///      replicas run as independent jobs through parallelSweep, one
///      worker per hardware context; the fleet must conserve the batch
///      and match a one-worker repeat run exactly.
///
/// --quick shrinks both (40 tenants; 4000 items over 2/4 replicas).
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "ParallelSweep.h"

#include "apps/PipelineApps.h"
#include "sim/ColocationSim.h"
#include "sim/PipelineSim.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace dope;
using namespace dope::bench;

namespace {

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point Start) {
  return std::chrono::duration<double>(SteadyClock::now() - Start).count();
}

/// A platform-sized mixed fleet: every third tenant is a
/// latency-sensitive nested-parallel frontend, the rest are
/// throughput-goal batch pipelines with staggered arrival rates.
std::vector<ColocationTenantSpec> fleetTenants(unsigned Count) {
  std::vector<ColocationTenantSpec> Specs;
  Specs.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    ColocationTenantSpec T;
    if (I % 3 == 0) {
      T.Tenant.Name = "svc" + std::to_string(I);
      T.Tenant.Goal = TenantGoal::ResponseTime;
      T.Tenant.Weight = 2.0;
      T.Tenant.MinThreads = 1;
      T.Tenant.SloSeconds = 0.5;
      T.Kind = ColocationTenantSpec::AppKind::NestServer;
      T.Nest.Name = T.Tenant.Name;
      T.Nest.SeqServiceSeconds = 0.05;
      T.Nest.Curve = SpeedupCurve(0.1, 0.2);
      T.ArrivalRate = 20.0 + (I % 7);
    } else {
      T.Tenant.Name = "job" + std::to_string(I);
      T.Tenant.Goal = TenantGoal::Throughput;
      T.Tenant.Weight = 1.0;
      T.Kind = ColocationTenantSpec::AppKind::Pipeline;
      T.Pipeline.Name = T.Tenant.Name;
      T.Pipeline.Stages = {{"decode", true, 0.02, 0.15},
                           {"work", true, 0.1, 0.15},
                           {"sink", true, 0.03, 0.15}};
      T.ArrivalRate = 40.0 + 5.0 * (I % 13);
    }
    Specs.push_back(std::move(T));
  }
  return Specs;
}

ColocationSimResult runPlatform(unsigned Tenants, double Duration,
                                uint64_t Seed, double &WallSeconds) {
  ColocationSimOptions Opts;
  Opts.Contexts = 2 * Tenants;
  Opts.Seed = Seed;
  Opts.DurationSeconds = Duration;
  Opts.StepSeconds = 0.05;
  Opts.WarmupSeconds = 4.0;
  Opts.Policy = ColocationPolicy::Arbiter;
  Opts.Arbiter.EpochSeconds = 2.0;
  Opts.Arbiter.LeaseTtlSeconds = 5.0;

  ColocationSim Sim(fleetTenants(Tenants), Opts);
  const auto Start = SteadyClock::now();
  ColocationSimResult R = Sim.run();
  WallSeconds = secondsSince(Start);
  return R;
}

bool sameStats(const TenantStats &A, const TenantStats &B) {
  return A.Name == B.Name && A.Arrived == B.Arrived &&
         A.Completed == B.Completed && A.Shed == B.Shed &&
         A.SloHits == B.SloHits && A.ThreadSeconds == B.ThreadSeconds &&
         A.LeaseChanges == B.LeaseChanges &&
         A.Responses.count() == B.Responses.count() &&
         A.Responses.meanResponseTime() == B.Responses.meanResponseTime() &&
         A.goalAttainment() == B.goalAttainment();
}

bool sameRecord(const TraceRecord &A, const TraceRecord &B) {
  return A.Time == B.Time && A.Kind == B.Kind && A.Name == B.Name &&
         A.A == B.A && A.B == B.B && A.Detail == B.Detail;
}

/// Bit-exact comparison of everything the colocation sim reports.
bool identicalResults(const ColocationSimResult &First,
                      const ColocationSimResult &Repeat) {
  if (First.Tenants.size() != Repeat.Tenants.size() ||
      First.LeaseChanges != Repeat.LeaseChanges ||
      First.SimulatedEvents != Repeat.SimulatedEvents ||
      First.Fairness.AggregateAttainment !=
          Repeat.Fairness.AggregateAttainment ||
      First.Fairness.MinAttainment != Repeat.Fairness.MinAttainment ||
      First.Fairness.JainIndex != Repeat.Fairness.JainIndex)
    return false;
  for (size_t I = 0; I != First.Tenants.size(); ++I)
    if (!sameStats(First.Tenants[I], Repeat.Tenants[I]))
      return false;
  if (First.AllocationTimeline.size() != Repeat.AllocationTimeline.size())
    return false;
  for (size_t I = 0; I != First.AllocationTimeline.size(); ++I) {
    const AllocationSample &A = First.AllocationTimeline[I];
    const AllocationSample &B = Repeat.AllocationTimeline[I];
    if (A.Time != B.Time || A.Granted != B.Granted)
      return false;
  }
  if (First.ProtocolJournal.size() != Repeat.ProtocolJournal.size())
    return false;
  for (size_t I = 0; I != First.ProtocolJournal.size(); ++I)
    if (!sameRecord(First.ProtocolJournal[I], Repeat.ProtocolJournal[I]))
      return false;
  return true;
}

struct FleetResult {
  std::vector<PipelineSimResult> Replicas;
  uint64_t ItemsCompleted = 0;
  double P95ResponseSeconds = 0.0; // worst replica: the fleet-level tail
};

/// Runs a ferret batch of \p Items split across \p Replicas independent
/// PipelineSim replicas on \p Workers threads. Replica r runs seed
/// Seed + 0x9e37 * r with an equal share of the items (the first
/// Items % Replicas replicas take one more).
FleetResult runPipelines(unsigned Replicas, uint64_t Items, uint64_t Seed,
                         unsigned Workers, double &WallSeconds) {
  const PipelineAppModel App = makeFerretApp();
  const std::vector<unsigned> InitialExtents = {1, 2, 8, 2, 4, 1};
  const auto Start = SteadyClock::now();
  FleetResult Fleet;
  Fleet.Replicas = parallelSweep<PipelineSimResult>(
      Replicas, Workers, [&](size_t R) {
        PipelineSimOptions Opts;
        Opts.Seed = Seed + 0x9e37 * static_cast<uint64_t>(R);
        Opts.Contexts = 24;
        Opts.NumItems = Items / Replicas + (R < Items % Replicas ? 1 : 0);
        PipelineSim Sim(App, Opts);
        return Sim.run(nullptr, InitialExtents);
      });
  WallSeconds = secondsSince(Start);
  for (const PipelineSimResult &R : Fleet.Replicas) {
    Fleet.ItemsCompleted += R.ItemsCompleted;
    Fleet.P95ResponseSeconds = std::max(Fleet.P95ResponseSeconds,
                                        R.Stats.responsePercentile(0.95));
  }
  return Fleet;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionParser Options(
      "Platform-scale simulator acceptance: a 120-tenant colocation "
      "platform checked identical across repeat runs, and a pipeline "
      "replica fleet fanned out across host threads");
  addCommonOptions(Options);
  parseOrExit(Options, Argc, Argv);

  const bool Csv = Options.getFlag("csv");
  const bool Quick = Options.getFlag("quick");
  const uint64_t Seed = static_cast<uint64_t>(Options.getInt("seed"));

  const unsigned Tenants = Quick ? 40 : 120;
  const double Duration = Quick ? 80.0 : 120.0;
  const uint64_t FleetItems = Quick ? 4000 : 40000;
  const std::vector<unsigned> FleetSizes =
      Quick ? std::vector<unsigned>{2, 4} : std::vector<unsigned>{2, 4, 8};

  bool Ok = true;

  // Colocation platform: the run and a repeat, compared bit for bit.
  double Wall = 0.0, RepeatWall = 0.0;
  const ColocationSimResult R = runPlatform(Tenants, Duration, Seed, Wall);
  const ColocationSimResult Repeat =
      runPlatform(Tenants, Duration, Seed, RepeatWall);
  const bool Same = identicalResults(R, Repeat);
  Ok &= checkShape(Same, "colocation platform run is bit-identical across "
                         "repeat runs");

  Table T({"run", "events", "wall_s", "events_per_s"});
  for (const auto &[Name, W] : {std::pair<const char *, double>{"first", Wall},
                                {"repeat", RepeatWall}})
    T.addRow({Name, std::to_string(R.SimulatedEvents),
              Table::formatDouble(W, 3),
              Table::formatDouble(
                  W > 0.0 ? static_cast<double>(R.SimulatedEvents) / W : 0.0,
                  0)});
  emitTable("Colocation platform (" + std::to_string(Tenants) + " tenants, " +
                Table::formatDouble(Duration, 0) + " sim s)",
            T, Csv);

  const uint64_t EventFloor = Quick ? 200000 : 1000000;
  Ok &= checkShape(R.SimulatedEvents >= EventFloor,
                   "platform scenario simulates >= " +
                       std::to_string(EventFloor) + " events (got " +
                       std::to_string(R.SimulatedEvents) + ")");

  // Pipeline replica fleet: load split across replicas, items conserved,
  // the parallel run identical to a one-worker repeat.
  const unsigned Workers = resolveSweepWorkers(0);
  Table F({"replicas", "items", "wall_s", "items_per_s", "fleet_p95_s"});
  for (unsigned Replicas : FleetSizes) {
    double FleetWall = 0.0, SerialWall = 0.0;
    const FleetResult Fleet =
        runPipelines(Replicas, FleetItems, Seed, Workers, FleetWall);
    const FleetResult Serial =
        runPipelines(Replicas, FleetItems, Seed, 1, SerialWall);
    bool FleetSame = Fleet.ItemsCompleted == Serial.ItemsCompleted &&
                     Fleet.Replicas.size() == Serial.Replicas.size();
    for (size_t I = 0; FleetSame && I != Fleet.Replicas.size(); ++I) {
      const PipelineSimResult &A = Fleet.Replicas[I];
      const PipelineSimResult &B = Serial.Replicas[I];
      FleetSame = A.ItemsCompleted == B.ItemsCompleted &&
                  A.TotalSeconds == B.TotalSeconds &&
                  A.Throughput == B.Throughput;
    }
    Ok &= checkShape(FleetSame, "fleet of " + std::to_string(Replicas) +
                                    " is deterministic across repeat runs");
    Ok &= checkShape(Fleet.ItemsCompleted == FleetItems,
                     "fleet of " + std::to_string(Replicas) +
                         " conserves the batch (" +
                         std::to_string(Fleet.ItemsCompleted) + "/" +
                         std::to_string(FleetItems) + " items)");
    F.addRow({std::to_string(Replicas), std::to_string(Fleet.ItemsCompleted),
              Table::formatDouble(FleetWall, 3),
              Table::formatDouble(
                  FleetWall > 0.0 ? Fleet.ItemsCompleted / FleetWall : 0.0, 0),
              Table::formatDouble(Fleet.P95ResponseSeconds, 3)});
  }
  emitTable("Pipeline replica fleet (ferret, " + std::to_string(FleetItems) +
                " items, " + std::to_string(Workers) + " workers)",
            F, Csv);

  if (!Ok)
    std::printf("RESULT: FAIL\n");
  else
    std::printf("RESULT: OK\n");
  return Ok ? 0 : 1;
}
