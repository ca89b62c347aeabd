//===- tests/ControlStepTest.cpp - The one control step --------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// controlStep turns one consult into an accepted configuration or a
// refusal, and writes the consult's Decision record. The unit tests pin
// each outcome and its record; the cross-host tests drive the native
// executive, the replay harness and the three simulators with one buggy
// mechanism and check that each host refuses exactly what its ceiling
// says it must.
//
//===----------------------------------------------------------------------===//

#include "core/ControlStep.h"

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "core/Dope.h"
#include "core/Replay.h"
#include "queue/WorkQueue.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "sim/RecursiveSim.h"
#include "support/Trace.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace dope;
using namespace dope::testing_helpers;

namespace {

/// Proposes a fixed configuration (or nothing) on every consult.
class ScriptedMechanism : public Mechanism {
public:
  explicit ScriptedMechanism(std::optional<RegionConfig> Proposal)
      : Proposal(std::move(Proposal)) {}
  std::string name() const override { return "Scripted"; }
  std::optional<RegionConfig> reconfigure(const ParDescriptor &,
                                          const RegionSnapshot &,
                                          const RegionConfig &,
                                          const MechanismContext &) override {
    return Proposal;
  }

private:
  std::optional<RegionConfig> Proposal;
};

/// A server-nest configuration: K outer replicas, each with M inner.
RegionConfig nestConfig(unsigned K, unsigned M) {
  TaskConfig Inner;
  Inner.Extent = M;
  TaskConfig Outer;
  Outer.Extent = K;
  Outer.AltIndex = 0;
  Outer.Inner.push_back(Inner);
  RegionConfig Config;
  Config.Tasks.push_back(Outer);
  return Config;
}

struct StepRun {
  ControlStepResult Result;
  std::vector<TraceRecord> Records;
};

/// One traced control step on the server nest, running 4x2 (8 threads)
/// at t = 2.5.
StepRun runStep(std::optional<RegionConfig> Proposal, unsigned Ceiling) {
  const ServerNestGraph G = makeServerNestGraph();
  Tracer Trace(64);
  MechanismContext Ctx;
  Ctx.MaxThreads = 8;
  Ctx.NowSeconds = 2.5;
  Ctx.Trace = &Trace;
  ScriptedMechanism M(std::move(Proposal));
  StepRun Run;
  Run.Result = controlStep(M, *G.Root, makeServerSnapshot(G, 1.0, 4, 2),
                           nestConfig(4, 2), Ctx, Ceiling);
  Run.Records = Trace.drain();
  return Run;
}

/// The run made exactly one Decision record, with these fields.
void expectDecision(const StepRun &Run, double Threads, double Accepted,
                    const RegionConfig &Config) {
  const ServerNestGraph G = makeServerNestGraph();
  ASSERT_EQ(Run.Records.size(), 1u);
  const TraceRecord &R = Run.Records.front();
  EXPECT_EQ(R.Kind, TraceKind::Decision);
  EXPECT_EQ(R.Name, "Scripted");
  EXPECT_EQ(R.Time, 2.5);
  EXPECT_EQ(R.A, Threads);
  EXPECT_EQ(R.B, Accepted);
  EXPECT_EQ(R.Detail, toString(*G.Root, Config));
}

} // namespace

TEST(ControlStep, NoProposalKeepsTheRunningConfig) {
  const StepRun Run = runStep(std::nullopt, 8);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::Kept);
  EXPECT_FALSE(Run.Result.Proposal.has_value());
  expectDecision(Run, 8.0, 0.0, nestConfig(4, 2));
}

TEST(ControlStep, EqualProposalIsNoChange) {
  const StepRun Run = runStep(nestConfig(4, 2), 8);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::Kept);
  EXPECT_FALSE(Run.Result.Proposal.has_value());
  expectDecision(Run, 8.0, 0.0, nestConfig(4, 2));
}

TEST(ControlStep, InvalidProposalIsRefusedAndFlagged) {
  RegionConfig WrongArity = nestConfig(2, 2);
  WrongArity.Tasks.push_back(WrongArity.Tasks.front());
  // Invalid is checked before the ceiling: this proposal is both.
  const StepRun Run = runStep(WrongArity, 1);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::Invalid);
  EXPECT_TRUE(Run.Result.Proposal == WrongArity);
  EXPECT_EQ(Run.Result.Error, "region config arity mismatch");
  expectDecision(Run, 8.0, 0.0, nestConfig(4, 2));
}

TEST(ControlStep, ProposalOverTheCeilingIsRefused) {
  const StepRun Run = runStep(nestConfig(5, 2), 8);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::OverCeiling);
  EXPECT_TRUE(Run.Result.Proposal == nestConfig(5, 2));
  EXPECT_TRUE(Run.Result.Error.empty());
  expectDecision(Run, 8.0, 0.0, nestConfig(4, 2));
}

TEST(ControlStep, ProposalAtTheCeilingIsAccepted) {
  const StepRun Run = runStep(nestConfig(2, 4), 8);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::Accepted);
  EXPECT_TRUE(Run.Result.Proposal == nestConfig(2, 4));
  expectDecision(Run, 8.0, 1.0, nestConfig(2, 4));
}

TEST(ControlStep, NoCeilingAcceptsOversubscription) {
  const StepRun Run = runStep(nestConfig(5, 2), NoThreadCeiling);
  EXPECT_EQ(Run.Result.Outcome, StepOutcome::Accepted);
  EXPECT_TRUE(Run.Result.Proposal == nestConfig(5, 2));
  expectDecision(Run, 10.0, 1.0, nestConfig(5, 2));
}

TEST(ControlStep, UntracedStepStillDecides) {
  const ServerNestGraph G = makeServerNestGraph();
  MechanismContext Ctx;
  Ctx.MaxThreads = 8;
  ScriptedMechanism M(nestConfig(2, 2));
  const ControlStepResult R =
      controlStep(M, *G.Root, makeServerSnapshot(G, 1.0, 4, 2),
                  nestConfig(4, 2), Ctx, 8);
  EXPECT_EQ(R.Outcome, StepOutcome::Accepted);
  EXPECT_TRUE(R.Proposal == nestConfig(2, 2));
}

//===----------------------------------------------------------------------===//
// One mechanism, five hosts
//===----------------------------------------------------------------------===//

TEST(ControlStepHosts, NativeExecutiveRefusesBothProposals) {
  // One DOALL worker polling a queue the test closes once the mechanism
  // has made a few proposals of each kind.
  TaskGraph Graph;
  WorkQueue<int> Queue;
  TaskFn Fn = [&Queue](TaskRuntime &RT) {
    if (RT.begin() == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    if (!Queue.tryPop()) {
      if (Queue.closed())
        return TaskStatus::Finished;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return RT.end();
  };
  Task *Work = Graph.createTask("worker", Fn, LoadFn(), Graph.parDescriptor());
  ParDescriptor *Root = Graph.createRegion({Work});

  Tracer Trace(1 << 14);
  Tracer::setActive(&Trace); // mirrors the executive's warnings
  OverreachCounts Counts;
  DopeOptions Opts;
  Opts.MaxThreads = 4;
  Opts.Trace = &Trace;
  Opts.Mech = std::make_unique<OverreachingMechanism>(Counts);
  std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
  for (int I = 0; I != 500 && Counts.OverCeiling < 3; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Queue.close();
  EXPECT_EQ(D->wait(), TaskStatus::Finished);
  EXPECT_EQ(totalThreads(*Root, D->currentConfig()), 1u);
  D.reset();
  Tracer::setActive(nullptr);

  ASSERT_GE(Counts.OverCeiling, 3u);
  size_t Decisions = 0, InvalidWarnings = 0, EnvelopeWarnings = 0;
  for (const TraceRecord &R : Trace.drain()) {
    if (R.Kind == TraceKind::Decision) {
      ++Decisions;
      EXPECT_EQ(R.B, 0.0);
      EXPECT_EQ(R.A, 1.0);
    } else if (R.Kind == TraceKind::Log) {
      InvalidWarnings += R.Detail.find("mechanism 'Overreaching' produced "
                                       "invalid config") == 0;
      EnvelopeWarnings += R.Detail == "mechanism 'Overreaching' exceeded "
                                      "thread envelope (5 > 4)";
    }
  }
  EXPECT_EQ(Decisions, Counts.WrongArity + Counts.OverCeiling);
  EXPECT_EQ(InvalidWarnings, Counts.WrongArity);
  EXPECT_EQ(EnvelopeWarnings, Counts.OverCeiling);
}

TEST(ControlStepHosts, ReplayRefusesBothProposals) {
  FeatureStream S;
  S.Name = "overreach";
  S.Kind = FeatureStream::GraphKind::ServerNest;
  S.Stages.push_back({"server", true});
  S.MaxThreads = 8;
  for (int I = 0; I != 10; ++I) {
    ReplayStep Step;
    Step.Time = 0.5 * (I + 1);
    Step.ExecTime.push_back(1.0);
    Step.Load.push_back(4.0);
    S.Steps.push_back(std::move(Step));
  }
  OverreachCounts Counts;
  OverreachingMechanism M(Counts);
  ReplayMechanismHarness Harness(std::move(S));
  const ReplayResult R = Harness.run(M);
  EXPECT_EQ(Counts.WrongArity, 5u);
  EXPECT_EQ(Counts.OverCeiling, 5u);
  EXPECT_EQ(R.InvalidProposals, Counts.WrongArity);
  EXPECT_EQ(R.OverEnvelopeProposals, Counts.OverCeiling);
  EXPECT_TRUE(R.Decisions.empty());
}

TEST(ControlStepHosts, PipelineSimRefusesOnlyTheInvalidProposal) {
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.NumItems = 300;
  Opts.Seed = 5;
  PipelineSim Sim(makeFerretApp(), Opts);
  OverreachCounts Counts;
  OverreachingMechanism M(Counts);
  const PipelineSimResult R = Sim.run(&M, {1, 6, 6, 5, 5, 1});
  EXPECT_GE(Counts.WrongArity, 2u);
  EXPECT_EQ(R.InvalidProposals, Counts.WrongArity);
  // The over-ceiling config is accepted once and then kept.
  EXPECT_EQ(Counts.OverCeiling, 1u);
  EXPECT_EQ(R.Reconfigurations, 1u);
  EXPECT_EQ(R.FinalExtents, (std::vector<unsigned>{1, 25, 6, 5, 5, 1}));
}

TEST(ControlStepHosts, NestServerSimRefusesOnlyTheInvalidProposal) {
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.LoadFactor = 0.5;
  Opts.NumTransactions = 300;
  Opts.Seed = 7;
  NestServerSim Sim(makeX264App().Model, Opts);
  OverreachCounts Counts;
  OverreachingMechanism M(Counts);
  const NestSimResult R = Sim.run(&M, 6, 4);
  EXPECT_EQ(R.Stats.count(), Opts.NumTransactions);
  EXPECT_GE(Counts.WrongArity, 2u);
  EXPECT_EQ(R.InvalidProposals, Counts.WrongArity);
  EXPECT_EQ(Counts.OverCeiling, 1u);
  EXPECT_EQ(R.Reconfigurations, 1u);
}

TEST(ControlStepHosts, RecursiveSimRefusesOnlyTheInvalidProposal) {
  RecursiveSimOptions Opts;
  Opts.Workers = 8;
  Opts.Leaves = 1ull << 18;
  Opts.LeavesPerEpoch = 1ull << 14; // 16 epochs
  Opts.Seed = 42;
  RecursiveSim Sim(RecursiveWorkModel(), Opts);
  OverreachCounts Counts;
  OverreachingMechanism M(Counts);
  const RecursiveSimResult R = Sim.run(&M, 256, 8);
  EXPECT_GE(Counts.WrongArity, 2u);
  EXPECT_EQ(R.InvalidProposals, Counts.WrongArity);
  EXPECT_EQ(Counts.OverCeiling, 1u);
  EXPECT_EQ(R.Reconfigurations, 1u);
  EXPECT_EQ(R.FinalExtent, 9u);
}
