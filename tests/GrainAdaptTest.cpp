//===- tests/GrainAdaptTest.cpp - Grain-walking mechanism tests ------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit coverage of GrainAdaptMechanism: thrash coarsening, starvation
// refinement, clamping at both grain bounds, the plateau hold with its
// drift and budget re-open conditions, and bit-identical decisions when
// the same tree stream replays twice through the harness.
//
//===----------------------------------------------------------------------===//

#include "mechanisms/GrainAdapt.h"

#include "core/Config.h"
#include "core/FeatureRegistry.h"
#include "core/Replay.h"
#include "core/Task.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

/// A tree-marked region over one PAR task — the shape buildTaskTree and
/// the TaskTree replay harness both produce.
struct TreeGraph {
  std::unique_ptr<TaskGraph> Graph;
  Task *T = nullptr;
  ParDescriptor *Root = nullptr;
};

TreeGraph makeTreeGraph(unsigned DefaultGrain = 64) {
  TreeGraph G;
  G.Graph = std::make_unique<TaskGraph>();
  G.T = G.Graph->createTask("descend", dummyFn(), LoadFn(),
                            G.Graph->parDescriptor());
  G.Root = G.Graph->createTreeRegion(G.T, DefaultGrain);
  return G;
}

RegionSnapshot makeTreeSnapshot(const TreeGraph &G, double ExecTime,
                                double Load, uint64_t Invocations = 100) {
  RegionSnapshot Snap;
  TaskSnapshot TS;
  TS.TaskId = G.T->id();
  TS.Name = G.T->name();
  TS.Kind = G.T->kind();
  TS.ExecTime = ExecTime;
  TS.Load = Load;
  TS.LastLoad = Load;
  TS.Invocations = Invocations;
  Snap.Tasks.push_back(std::move(TS));
  return Snap;
}

/// One consult with explicit runtime signals. The features mirror what
/// TreeRegionHandle::registerFeatures wires up on the real engine.
struct TreeSignals {
  double StealRate = 0.0;
  double MeanTaskSeconds = 400e-6;
  double Load = 100.0;
  uint64_t Invocations = 100;
  unsigned MaxThreads = 8;
};

std::optional<RegionConfig> consult(GrainAdaptMechanism &M,
                                    const TreeGraph &G,
                                    const RegionConfig &Current,
                                    const TreeSignals &Sig) {
  FeatureRegistry Features;
  Features.registerFeature("StealRate",
                           [&Sig] { return Sig.StealRate; });
  Features.registerFeature("MeanTaskSeconds",
                           [&Sig] { return Sig.MeanTaskSeconds; });
  MechanismContext Ctx;
  Ctx.MaxThreads = Sig.MaxThreads;
  Ctx.Features = &Features;
  RegionSnapshot Snap =
      makeTreeSnapshot(G, Sig.MeanTaskSeconds, Sig.Load, Sig.Invocations);
  return M.reconfigure(*G.Root, Snap, Current, Ctx);
}

unsigned grainOf(const RegionConfig &C) { return C.Tasks.front().Grain; }
unsigned extentOf(const RegionConfig &C) { return C.Tasks.front().Extent; }

TreeSignals thrashing() {
  TreeSignals Sig;
  Sig.StealRate = 4000.0;       // > ThrashStealsPerSec
  Sig.MeanTaskSeconds = 40e-6;  // < MinTaskSeconds
  Sig.Load = 500.0;
  return Sig;
}

TreeSignals starving() {
  TreeSignals Sig;
  Sig.StealRate = 40.0;
  Sig.MeanTaskSeconds = 900e-6;
  Sig.Load = 3.0; // < StarveLoadFactor * extent(8)
  return Sig;
}

TreeSignals inBand() {
  TreeSignals Sig;
  Sig.StealRate = 60.0;
  Sig.MeanTaskSeconds = 400e-6;
  Sig.Load = 100.0;
  return Sig;
}

/// In-band consult that pins the extent to the budget; subsequent
/// in-band consults then converge on the plateau.
RegionConfig settled(GrainAdaptMechanism &M, const TreeGraph &G) {
  RegionConfig C = defaultConfig(*G.Root);
  if (std::optional<RegionConfig> Next = consult(M, G, C, inBand()))
    C = *Next;
  EXPECT_FALSE(consult(M, G, C, inBand()).has_value());
  EXPECT_TRUE(M.converged());
  return C;
}

TEST(GrainAdapt, NonTreeRegionIsLeftUntouched) {
  TaskGraph Graph;
  Task *T = Graph.createTask("flat", dummyFn(), LoadFn(),
                             Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({T});
  GrainAdaptMechanism M;
  RegionConfig C = defaultConfig(*Root);
  RegionSnapshot Snap;
  TaskSnapshot TS;
  TS.TaskId = T->id();
  TS.ExecTime = 0.1;
  TS.Invocations = 100;
  Snap.Tasks.push_back(std::move(TS));
  MechanismContext Ctx;
  Ctx.MaxThreads = 8;
  EXPECT_FALSE(M.reconfigure(*Root, Snap, C, Ctx).has_value());
}

TEST(GrainAdapt, UnmeasuredRegionHolds) {
  TreeGraph G = makeTreeGraph();
  GrainAdaptMechanism M;
  TreeSignals Sig = thrashing();
  Sig.Invocations = 0;
  EXPECT_FALSE(consult(M, G, defaultConfig(*G.Root), Sig).has_value());
  EXPECT_FALSE(M.converged()); // gated, not converged
}

TEST(GrainAdapt, ThrashDoublesGrainAndPinsExtentToBudget) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = defaultConfig(*G.Root);
  ASSERT_EQ(grainOf(C), 64u);
  ASSERT_EQ(extentOf(C), 1u);

  std::optional<RegionConfig> Next = consult(M, G, C, thrashing());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(grainOf(*Next), 128u);
  EXPECT_EQ(extentOf(*Next), 8u);

  Next = consult(M, G, *Next, thrashing());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(grainOf(*Next), 256u);
}

TEST(GrainAdapt, ThrashClampsAtMaxGrain) {
  GrainAdaptParams P;
  P.MaxGrain = 256;
  TreeGraph G = makeTreeGraph(256);
  GrainAdaptMechanism M(P);
  RegionConfig C = defaultConfig(*G.Root);
  C.Tasks.front().Extent = 8; // already at budget

  // Still thrashing but the grain cannot grow: the proposal equals the
  // current configuration, so the walker settles instead of spinning.
  EXPECT_FALSE(consult(M, G, C, thrashing()).has_value());
  EXPECT_TRUE(M.converged());
}

TEST(GrainAdapt, StarvationHalvesGrain) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = defaultConfig(*G.Root);
  C.Tasks.front().Extent = 8;

  std::optional<RegionConfig> Next = consult(M, G, C, starving());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(grainOf(*Next), 32u);
  EXPECT_EQ(extentOf(*Next), 8u);
}

TEST(GrainAdapt, StarvationStopsAtMinGrain) {
  TreeGraph G = makeTreeGraph(1);
  GrainAdaptMechanism M;
  RegionConfig C = defaultConfig(*G.Root);
  C.Tasks.front().Extent = 8;

  EXPECT_FALSE(consult(M, G, C, starving()).has_value());
  EXPECT_TRUE(M.converged());
}

TEST(GrainAdapt, PlateauHoldsUnderSmallDrift) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = settled(M, G);

  // 25% drift is within ReexploreDrift (50%): the plateau holds even
  // though the load momentarily looks starved.
  TreeSignals Sig = inBand();
  Sig.MeanTaskSeconds = 500e-6;
  Sig.Load = 3.0;
  EXPECT_FALSE(consult(M, G, C, Sig).has_value());
  EXPECT_TRUE(M.converged());
}

TEST(GrainAdapt, DriftReopensTheWalk) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = settled(M, G);

  // Task cost drifts far beyond the plateau while the region starves:
  // the walk re-opens and refines.
  std::optional<RegionConfig> Next = consult(M, G, C, starving());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(grainOf(*Next), 32u);
  EXPECT_FALSE(M.converged());
}

TEST(GrainAdapt, BudgetMoveReopensTheWalk) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = settled(M, G);

  // Lease revocation: same in-band signals, smaller budget. The grain
  // stays put but the extent must follow the envelope down.
  TreeSignals Sig = inBand();
  Sig.MaxThreads = 3;
  std::optional<RegionConfig> Next = consult(M, G, C, Sig);
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(grainOf(*Next), 64u);
  EXPECT_EQ(extentOf(*Next), 3u);

  // And re-converges under the new budget.
  EXPECT_FALSE(consult(M, G, *Next, Sig).has_value());
  EXPECT_TRUE(M.converged());

  // Re-grant re-opens again and restores the extent.
  Next = consult(M, G, *Next, inBand());
  ASSERT_TRUE(Next.has_value());
  EXPECT_EQ(extentOf(*Next), 8u);
}

TEST(GrainAdapt, ResetForgetsThePlateau) {
  TreeGraph G = makeTreeGraph(64);
  GrainAdaptMechanism M;
  RegionConfig C = settled(M, G);
  M.reset();
  EXPECT_FALSE(M.converged());
  // Walking again: the same in-band signals converge afresh.
  EXPECT_FALSE(consult(M, G, C, inBand()).has_value());
  EXPECT_TRUE(M.converged());
}

/// The full policy through the replay harness, twice: a thrash phase, a
/// plateau, a starved phase, a second plateau — decisions (including the
/// rendered "g=" configs) must be bit-identical across runs.
TEST(GrainAdapt, HarnessReplayIsDeterministic) {
  FeatureStream S;
  S.Name = "tree-walk-unit";
  S.Kind = FeatureStream::GraphKind::TaskTree;
  S.MaxThreads = 8;
  S.DefaultGrain = 64;
  S.Stages = {{"descend", true}};
  struct Obs {
    double Steal, Mean, Load;
  };
  const Obs Phases[] = {
      {4000, 40e-6, 500}, {4000, 40e-6, 500}, {60, 350e-6, 64},
      {60, 350e-6, 64},   {40, 900e-6, 9},    {70, 450e-6, 80},
      {70, 450e-6, 80},
  };
  for (size_t I = 0; I != std::size(Phases); ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * static_cast<double>(I + 1);
    Step.Features = {{"StealRate", Phases[I].Steal},
                     {"MeanTaskSeconds", Phases[I].Mean}};
    Step.ExecTime = {Phases[I].Mean};
    Step.Load = {Phases[I].Load};
    S.Steps.push_back(std::move(Step));
  }

  auto RunOnce = [&S] {
    GrainAdaptMechanism M;
    ReplayMechanismHarness Harness(S);
    return Harness.run(M);
  };
  const ReplayResult A = RunOnce();
  const ReplayResult B = RunOnce();

  EXPECT_EQ(A.InvalidProposals, 0u);
  EXPECT_EQ(A.OverEnvelopeProposals, 0u);
  ASSERT_EQ(A.Decisions.size(), 3u); // double, double, halve
  EXPECT_NE(A.Decisions[0].Config.find("g=128"), std::string::npos);
  EXPECT_NE(A.Decisions[1].Config.find("g=256"), std::string::npos);
  EXPECT_NE(A.Decisions[2].Config.find("g=128"), std::string::npos);
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size());
  for (size_t I = 0; I != A.Decisions.size(); ++I)
    EXPECT_EQ(A.Decisions[I], B.Decisions[I]) << "decision " << I;
}

} // namespace
