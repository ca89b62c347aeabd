//===- tests/IntegrationTest.cpp - Cross-module shape tests -------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end checks that the paper's qualitative results hold on small
/// workloads (the benchmark harnesses in bench/ run the full-size
/// versions). Each test corresponds to one claim in Sec. 8 of the paper.
///
//===----------------------------------------------------------------------===//

#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "mechanisms/Edp.h"
#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/Tpc.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"
#include "mechanisms/ServerNest.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "support/Statistics.h"
#include "workload/Arrivals.h"

#include <gtest/gtest.h>

using namespace dope;

namespace {

TEST(Integration, Figure2LatencyThroughputTradeoff) {
  NestAppBundle App = makeX264App();
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.NumTransactions = 400;
  Opts.Seed = 3;

  // Light load: inner parallelism wins on response time.
  Opts.LoadFactor = 0.3;
  NestServerSim Light(App.Model, Opts);
  EXPECT_LT(Light.run(nullptr, 3, 8).Stats.meanResponseTime(),
            Light.run(nullptr, 24, 1).Stats.meanResponseTime());

  // Heavy load: sequential transactions win.
  Opts.LoadFactor = 1.0;
  Opts.NumTransactions = 600;
  NestServerSim Heavy(App.Model, Opts);
  EXPECT_GT(Heavy.run(nullptr, 3, 8).Stats.meanResponseTime(),
            Heavy.run(nullptr, 24, 1).Stats.meanResponseTime());
}

TEST(Integration, Figure11AdaptiveDominatesAtCrossover) {
  // At the crossover load, neither static wins — the adaptive
  // configuration produces "an average DoP somewhere in between".
  NestAppBundle App = makeX264App();
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.LoadFactor = 0.8;
  Opts.NumTransactions = 600;
  Opts.Seed = 11;
  NestServerSim Sim(App.Model, Opts);

  const double Seq = Sim.run(nullptr, 24, 1).Stats.meanResponseTime();
  const double Par = Sim.run(nullptr, 3, 8).Stats.meanResponseTime();
  WqtHMechanism WqtH(App.WqtH);
  const double Adaptive =
      Sim.run(&WqtH, 24, 1).Stats.meanResponseTime();
  EXPECT_LT(Adaptive, std::max(Seq, Par));
  EXPECT_LT(Adaptive, std::min(Seq, Par) * 1.25);
}

TEST(Integration, Table15OrderingOnSmallRuns) {
  std::vector<double> TbfGains;
  for (const PipelineAppModel &App : allPipelineApps()) {
    PipelineSimOptions Opts;
    Opts.Contexts = 24;
    Opts.Seed = 21;
    Opts.NumItems = 700;
    PipelineSim Sim(App, Opts);

    std::vector<unsigned> Even;
    for (const PipelineStageSpec &S : App.Stages)
      Even.push_back(S.Parallel ? 7 : 1);
    const double Baseline = Sim.run(nullptr, Even).Throughput;
    ASSERT_GT(Baseline, 0.0);

    TbfMechanism Tbf;
    const double WithTbf = Sim.run(&Tbf, Even).Throughput;
    TbfGains.push_back(WithTbf / Baseline);

    SedaMechanism Seda;
    const double WithSeda = Sim.run(&Seda, Even).Throughput;
    EXPECT_GE(WithTbf, WithSeda * 0.98) << App.Name;
  }
  // Geomean improvement in the ballpark of the paper's 2.36x.
  EXPECT_GT(geomean(TbfGains), 1.6);
}

TEST(Integration, FdpAndTbfAgreeOnTheBottleneck) {
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Seed = 5;
  Opts.NumItems = 1500;
  PipelineSim Sim(App, Opts);

  TbfMechanism Tb({0.5, /*EnableFusion=*/false});
  PipelineSimResult RTb = Sim.run(&Tb, {});
  FdpMechanism Fdp;
  PipelineSimResult RFdp = Sim.run(&Fdp, {});

  // Both allocate the most threads to the extract stage (index 2).
  auto ArgMax = [](const std::vector<unsigned> &V) {
    size_t Best = 0;
    for (size_t I = 1; I != V.size(); ++I)
      if (V[I] > V[Best])
        Best = I;
    return Best;
  };
  EXPECT_EQ(ArgMax(RTb.FinalExtents), 2u);
  EXPECT_EQ(ArgMax(RFdp.FinalExtents), 2u);
}

TEST(Integration, TpcHoldsBudgetWhileSedaWouldNot) {
  PipelineAppModel App = makeFerretApp();
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Seed = 9;
  Opts.NumItems = 1500;
  Opts.PowerBudgetWatts = 540.0;
  Opts.DecisionIntervalSeconds = 1.0;
  PipelineSim Sim(App, Opts);

  TpcMechanism Tpc;
  PipelineSimResult R = Sim.run(&Tpc, {});
  EXPECT_EQ(R.ItemsCompleted, 1500u);
  // Power must settle at/below the budget for the trailing half.
  double LateMax = 0.0;
  for (size_t I = 0; I != R.PowerSeries.size(); ++I)
    if (R.PowerSeries.point(I).Time > R.TotalSeconds * 0.6)
      LateMax = std::max(LateMax, R.PowerSeries.point(I).Value);
  EXPECT_LE(LateMax, 540.0 + 2 * 6.25);
}

TEST(Integration, StepLoadTraceDrivesModeSwitches) {
  NestAppBundle App = makeX264App();
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.NumTransactions = 500;
  Opts.Seed = 17;
  Opts.Trace = LoadTrace::makeStepPattern(0.2, 0.95, 150.0, 20);
  NestServerSim Sim(App.Model, Opts);

  WqtHMechanism WqtH(App.WqtH);
  NestSimResult R = Sim.run(&WqtH, 24, 1);
  EXPECT_EQ(R.Stats.count(), 500u);
  // The mechanism must visit both modes: the extent trace contains both
  // sequential (1) and parallel (Mmax) decisions.
  bool SawSeq = false, SawPar = false;
  for (size_t I = 0; I != R.InnerExtentTrace.size(); ++I) {
    const double V = R.InnerExtentTrace.point(I).Value;
    SawSeq |= V <= 1.5;
    SawPar |= V >= App.MMax - 0.5;
  }
  EXPECT_TRUE(SawSeq);
  EXPECT_TRUE(SawPar);
  EXPECT_GE(R.Reconfigurations, 2u);
}

TEST(Integration, DeterministicAcrossWholeStack) {
  // A full adaptive pipeline run is bit-reproducible for a fixed seed.
  PipelineAppModel App = makeDedupApp();
  PipelineSimOptions Opts;
  Opts.Contexts = 24;
  Opts.Seed = 99;
  Opts.NumItems = 600;
  PipelineSim A(App, Opts), B(App, Opts);
  TbfMechanism TbfA, TbfB;
  PipelineSimResult RA = A.run(&TbfA, {});
  PipelineSimResult RB = B.run(&TbfB, {});
  EXPECT_DOUBLE_EQ(RA.Throughput, RB.Throughput);
  EXPECT_EQ(RA.Reconfigurations, RB.Reconfigurations);
  EXPECT_EQ(RA.FinalExtents, RB.FinalExtents);
  EXPECT_DOUBLE_EQ(RA.TotalSeconds, RB.TotalSeconds);
}

TEST(Integration, EdpMechanismStableUnderRisingLoad) {
  NestAppBundle App = makeSwaptionsApp();
  NestSimOptions Opts;
  Opts.Contexts = 24;
  Opts.NumTransactions = 500;
  Opts.Seed = 31;
  LoadTrace Trace;
  Trace.addPhase(0.2, 200.0);
  Trace.addPhase(0.9, 200.0);
  Opts.Trace = Trace;
  NestServerSim Sim(App.Model, Opts);
  EdpMechanism Edp({App.Model.Curve, 8, 1.15, 0});
  NestSimResult R = Sim.run(&Edp, 24, 1);
  EXPECT_EQ(R.Stats.count(), 500u);
  // EDP must not melt down when the load rises: p95 stays bounded.
  EXPECT_LT(R.Stats.responsePercentile(0.95),
            App.Model.SeqServiceSeconds * 5.0);
}

} // namespace
