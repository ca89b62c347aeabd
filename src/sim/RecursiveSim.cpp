//===- sim/RecursiveSim.cpp - Recursive task-tree workload model -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/RecursiveSim.h"

#include "core/Config.h"
#include "core/ControlStep.h"
#include "core/FeatureRegistry.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>

using namespace dope;

RecursiveSim::RecursiveSim(RecursiveWorkModel TheModel,
                           RecursiveSimOptions TheOpts)
    : Model(std::move(TheModel)), Opts(TheOpts) {
  // The region the mechanism navigates: one PAR task under a
  // tree-marked descriptor — the same shape buildTaskTree produces.
  TreeTask = Graph.createTask(Model.Name, [](TaskRuntime &) {
    return TaskStatus::Finished;
  }, LoadFn(), Graph.parDescriptor());
  Root = Graph.createTreeRegion(TreeTask, /*DefaultGrain=*/64);
}

namespace {

/// One epoch of the round-based model, at jitter factor \p J.
struct EpochModel {
  uint64_t Tasks = 0;
  double PerTaskSeconds = 0.0;
  double MakespanSeconds = 0.0;
  double StealRate = 0.0;
  double MeanOutstanding = 0.0;
};

EpochModel modelEpoch(const RecursiveWorkModel &M, uint64_t Leaves,
                      unsigned Grain, unsigned Workers, double J) {
  EpochModel E;
  const uint64_t G = std::max<uint64_t>(1, Grain);
  const unsigned W = std::max(1u, Workers);
  E.Tasks = (Leaves + G - 1) / G;
  E.PerTaskSeconds =
      static_cast<double>(G) * M.LeafSeconds * J + M.TaskOverheadSeconds;
  const uint64_t Rounds = (E.Tasks + W - 1) / W;
  // Round quantization (idle contexts once tasks run short) plus the
  // imbalance tail: coarse tasks' jitter no longer averages out, so
  // the epoch stretches by a W/T-proportional factor.
  const double Imbalance =
      1.0 + M.ImbalanceWeight * static_cast<double>(W) /
                static_cast<double>(E.Tasks);
  E.MakespanSeconds =
      static_cast<double>(Rounds) * E.PerTaskSeconds * Imbalance;
  E.StealRate =
      M.StealFraction * static_cast<double>(E.Tasks) / E.MakespanSeconds;
  // Auto-split materializes the whole epoch's task set up front, so
  // outstanding work decays T -> 0 over the epoch; its mean is T/2.
  E.MeanOutstanding = static_cast<double>(E.Tasks) / 2.0;
  return E;
}

} // namespace

double RecursiveSim::epochSeconds(unsigned Grain, unsigned Extent) const {
  return modelEpoch(Model, Opts.LeavesPerEpoch, Grain, Extent, 1.0)
      .MakespanSeconds;
}

RecursiveSimResult RecursiveSim::run(Mechanism *Mech, unsigned InitialGrain,
                                     unsigned InitialExtent) {
  if (Mech)
    Mech->reset();

  RegionConfig Current = defaultConfig(*Root);
  Current.Tasks.front().Grain = std::max(1u, InitialGrain);
  Current.Tasks.front().Extent =
      std::clamp(InitialExtent, 1u, std::max(1u, Opts.Workers));

  RecursiveSimResult Result;
  SplitMix64 Rng(Opts.Seed);
  double Clock = 0.0;
  uint64_t Done = 0;
  uint64_t Epoch = 0;

  while (Done < Opts.Leaves) {
    const uint64_t L = std::min<uint64_t>(Opts.LeavesPerEpoch,
                                          Opts.Leaves - Done);
    const unsigned Grain = Current.Tasks.front().Grain;
    const unsigned Extent = Current.Tasks.front().Extent;

    // Per-epoch service jitter in [1 - Cv, 1 + Cv], seeded.
    const double U =
        static_cast<double>(Rng.next() >> 11) * 0x1.0p-53; // [0, 1)
    const double J = 1.0 + Model.JitterCv * (2.0 * U - 1.0);

    const EpochModel E = modelEpoch(Model, L, Grain, Extent, J);
    Clock += E.MakespanSeconds;
    Done += L;
    ++Epoch;

    if (!Mech || Done >= Opts.Leaves)
      continue;

    // Snapshot + features, exactly as the native TreeEngine exports
    // them, then one consult at the epoch boundary.
    const RegionSnapshot Snap = snapshotRegion(
        *Root, &Current.Tasks, [&E](const Task &, size_t, TaskSnapshot &TS) {
          TS.ExecTime = E.PerTaskSeconds;
          TS.Load = E.MeanOutstanding;
          TS.LastLoad = E.MeanOutstanding;
          TS.Invocations = E.Tasks;
        });

    FeatureRegistry Features;
    const double StealRate = E.StealRate;
    const double MeanTask = E.PerTaskSeconds;
    Features.registerFeature("StealRate", [StealRate] { return StealRate; });
    Features.registerFeature("MeanTaskSeconds",
                             [MeanTask] { return MeanTask; });

    MechanismContext Ctx;
    Ctx.MaxThreads = Opts.Workers;
    Ctx.Features = &Features;
    Ctx.NowSeconds = Clock;

    // No ceiling: the simulated platform time-shares oversubscribed
    // contexts and holds no lease (see NoThreadCeiling).
    ControlStepResult Step =
        controlStep(*Mech, *Root, Snap, Current, Ctx, NoThreadCeiling);
    Result.InvalidProposals += Step.Outcome == StepOutcome::Invalid;
    if (Step.Outcome != StepOutcome::Accepted)
      continue;
    Current = std::move(*Step.Proposal);
    ++Result.Reconfigurations;
    Clock += Opts.ReconfigPauseSeconds;
    Result.DecisionLog.push_back(std::to_string(Epoch) + ": " +
                                 toString(*Root, Current));
  }

  Result.TotalSeconds = Clock;
  Result.Throughput =
      Clock > 0.0 ? static_cast<double>(Opts.Leaves) / Clock : 0.0;
  Result.FinalGrain = Current.Tasks.front().Grain;
  Result.FinalExtent = Current.Tasks.front().Extent;
  return Result;
}
