//===- tests/WhatIfTest.cpp - Causal what-if profiler tests ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The what-if analysis stack, bottom up: spawn-DAG reconstruction from
/// task-instance traces (including lenient reads of torn or garbage
/// lines and per-thread-merge order independence), critical-path attribution
/// on hand-built DAGs, the throughput projection against the simulator's
/// own analytic bound, recommendation determinism, and the committed
/// golden artifacts (trace, recommendations, warm-start hint, colocation
/// shares). Goldens regenerate via the whatif-regen target
/// (`dope_whatif regen --dir tests/golden`).
///
//===----------------------------------------------------------------------===//

#include "analysis/CriticalPath.h"
#include "analysis/Scenarios.h"
#include "analysis/TaskDag.h"
#include "analysis/WhatIf.h"
#include "core/WarmStart.h"
#include "sim/PipelineSim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

using namespace dope;

#ifndef DOPE_GOLDEN_DIR
#error "DOPE_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(DOPE_GOLDEN_DIR) + "/" + Name;
}

std::string readFileOrEmpty(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream OS;
  OS << IS.rdbuf();
  return OS.str();
}

/// The scenario's canonical task-instance records (deterministic).
std::vector<TraceRecord> scenarioRecords() {
  return runWhatifPipelineScenario(whatifPipelineScenario()).second;
}

/// Structural DAG equality: same instances in the same order with the
/// same parent links.
void expectSameDag(const TaskDag &A, const TaskDag &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.roots(), B.roots());
  ASSERT_EQ(A.taskNames(), B.taskNames());
  for (size_t I = 0; I != A.size(); ++I) {
    const TaskInstance &X = A.instances()[I];
    const TaskInstance &Y = B.instances()[I];
    EXPECT_EQ(X.Task, Y.Task) << "instance " << I;
    EXPECT_EQ(X.Id, Y.Id) << "instance " << I;
    EXPECT_EQ(X.Parent, Y.Parent) << "instance " << I;
    EXPECT_DOUBLE_EQ(X.BeginTime, Y.BeginTime) << "instance " << I;
    EXPECT_DOUBLE_EQ(X.EndTime, Y.EndTime) << "instance " << I;
  }
}

/// A tiny hand-built trace: root "a" [0,1], then "b" spawned by it
/// waiting 0.5 s [1.5, 2.5], then two overlapping "c" children of b.
std::vector<TraceRecord> handBuiltRecords() {
  std::vector<TraceRecord> R;
  auto Begin = [&](double T, const char *Name, double Id, double SpawnerId,
                   const char *Spawner) {
    R.push_back({T, TraceKind::TaskBegin, 0, Name, Id, SpawnerId, Spawner});
  };
  auto End = [&](double T, const char *Name, double Id, double Elapsed) {
    R.push_back({T, TraceKind::TaskEnd, 0, Name, Id, Elapsed, ""});
  };
  Begin(0.0, "a", 1, 0, "");
  End(1.0, "a", 1, 1.0);
  Begin(1.5, "b", 1, 1, "a");
  End(2.5, "b", 1, 1.0);
  Begin(2.5, "c", 1, 1, "b");
  Begin(2.5, "c", 2, 1, "b");
  End(3.0, "c", 1, 0.5);
  End(3.5, "c", 2, 1.0);
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// TaskDag reconstruction
//===----------------------------------------------------------------------===//

TEST(TaskDag, ReconstructsPipelineParentage) {
  const TaskDag Dag = TaskDag::build(scenarioRecords());

  // 400 items through 4 stages, all completed.
  EXPECT_EQ(Dag.size(), 1600u);
  EXPECT_EQ(Dag.completedCount(), 1600u);
  EXPECT_EQ(Dag.openCount(), 0u);

  // Stage order recovered from first appearance.
  const std::vector<std::string> Expected = {"load", "rank", "compress",
                                             "write"};
  EXPECT_EQ(Dag.taskNames(), Expected);

  // Only the first stage's instances are roots.
  EXPECT_EQ(Dag.roots().size(), 400u);
  for (size_t Root : Dag.roots())
    EXPECT_EQ(Dag.instances()[Root].Task, "load");

  // Every non-root descends from the upstream stage's instance for the
  // same item id.
  for (const TaskInstance &Inst : Dag.instances()) {
    if (Inst.Parent == TaskInstance::npos) {
      EXPECT_EQ(Inst.Task, "load");
      continue;
    }
    const TaskInstance &Parent = Dag.instances()[Inst.Parent];
    EXPECT_EQ(Parent.Id, Inst.Id);
    const auto It = std::find(Expected.begin(), Expected.end(), Inst.Task);
    ASSERT_NE(It, Expected.begin());
    EXPECT_EQ(Parent.Task, *(It - 1));
  }
}

TEST(TaskDag, OrderInvariantUnderShuffleAndShardMerge) {
  std::vector<TraceRecord> Records = scenarioRecords();
  const TaskDag Oracle = TaskDag::build(Records);

  // A seeded shuffle: any permutation of the multiset is the same DAG.
  std::vector<TraceRecord> Shuffled = Records;
  std::mt19937 Rng(7);
  std::shuffle(Shuffled.begin(), Shuffled.end(), Rng);
  expectSameDag(Oracle, TaskDag::build(std::move(Shuffled)));

  // A multi-threaded run's post-merge trace: records dealt round-robin
  // to three per-thread rings, then concatenated ring by ring (per-ring
  // order intact, global order scrambled).
  std::vector<TraceRecord> Merged;
  for (size_t Ring = 0; Ring != 3; ++Ring)
    for (size_t I = Ring; I < Records.size(); I += 3)
      Merged.push_back(Records[I]);
  expectSameDag(Oracle, TaskDag::build(std::move(Merged)));
}

TEST(TaskDag, LenientReaderSkipsGarbageLines) {
  std::vector<TraceRecord> Records = scenarioRecords();
  const TaskDag Oracle = TaskDag::build(Records);

  std::ostringstream OS;
  writeTraceJsonl(Records, OS);
  std::string Text = OS.str();

  // Wedge a non-JSON line and a non-object line into the middle.
  const size_t Mid = Text.find('\n', Text.size() / 2);
  ASSERT_NE(Mid, std::string::npos);
  Text.insert(Mid + 1, "{torn garbage not json\n[1,2,3]\n");

  std::istringstream IS(Text);
  TraceReadStats Stats;
  const TaskDag Dag = TaskDag::fromJsonl(IS, &Stats);
  EXPECT_EQ(Stats.Skipped, 2u);
  EXPECT_EQ(Stats.Parsed, Records.size());
  expectSameDag(Oracle, Dag);
}

TEST(TaskDag, TornFinalRecordLeavesInstanceOpen) {
  std::vector<TraceRecord> Records = scenarioRecords();
  const TaskDag Oracle = TaskDag::build(Records);

  std::ostringstream OS;
  writeTraceJsonl(Records, OS);
  std::string Text = OS.str();

  // A crash mid-write tears the final line (the last TaskEnd): cut it in
  // half. The reader skips it and the instance stays open.
  ASSERT_EQ(Text.back(), '\n');
  const size_t LastLine = Text.rfind('\n', Text.size() - 2);
  ASSERT_NE(LastLine, std::string::npos);
  const size_t Keep = LastLine + 1 + (Text.size() - LastLine) / 2;
  Text.resize(Keep);

  std::istringstream IS(Text);
  TraceReadStats Stats;
  const TaskDag Dag = TaskDag::fromJsonl(IS, &Stats);
  EXPECT_EQ(Stats.Skipped, 1u);
  EXPECT_EQ(Stats.Parsed, Records.size() - 1);
  EXPECT_EQ(Dag.size(), Oracle.size());
  EXPECT_EQ(Dag.openCount(), 1u);
  EXPECT_EQ(Dag.completedCount(), Oracle.completedCount() - 1);
}

//===----------------------------------------------------------------------===//
// Critical path
//===----------------------------------------------------------------------===//

TEST(CriticalPath, HandBuiltChainAttribution) {
  const TaskDag Dag = TaskDag::build(handBuiltRecords());
  ASSERT_EQ(Dag.size(), 4u);
  const CriticalPathProfile P = computeCriticalPath(Dag);

  // Work: 1 + 1 + 0.5 + 1.
  EXPECT_NEAR(P.TotalWorkSeconds, 3.5, 1e-12);
  EXPECT_NEAR(P.WallSeconds, 3.5, 1e-12);
  // Span: a(1) + wait(0.5) + b(1) + wait(0) + the slower c(1).
  EXPECT_NEAR(P.SpanSeconds, 3.5, 1e-12);
  const std::vector<std::string> Critical = {"a", "b", "c"};
  EXPECT_EQ(P.CriticalTasks, Critical);

  ASSERT_EQ(P.Stages.size(), 3u);
  EXPECT_EQ(P.Stages[0].Task, "a");
  EXPECT_NEAR(P.Stages[1].WaitSeconds, 0.5, 1e-12);
  EXPECT_EQ(P.Stages[0].MaxConcurrent, 1u);
  EXPECT_EQ(P.Stages[1].MaxConcurrent, 1u);
  // The two c instances overlap on [2.5, 3.0).
  EXPECT_EQ(P.Stages[2].MaxConcurrent, 2u);
  EXPECT_NEAR(P.Stages[2].WorkSeconds, 1.5, 1e-12);
}

TEST(CriticalPath, ScenarioProfileFindsTheStarvedStage) {
  const TaskDag Dag = TaskDag::build(scenarioRecords());
  const CriticalPathProfile P = computeCriticalPath(Dag);

  ASSERT_EQ(P.Stages.size(), 4u);
  // rank is the heavy stage: most work, essentially all the wait.
  const StageProfile &Rank = P.Stages[1];
  EXPECT_EQ(Rank.Task, "rank");
  for (const StageProfile &SP : P.Stages)
    EXPECT_GE(Rank.WorkSeconds, SP.WorkSeconds);
  EXPECT_GT(Rank.WaitSeconds, 100.0);
  // Its measured service time tracks the configured 0.24 s mean.
  EXPECT_NEAR(Rank.MeanExecSeconds, 0.24, 0.03);
  // The run admits far more parallelism than it achieved.
  EXPECT_GT(P.InherentParallelism, 2.0 * P.AchievedParallelism);
}

//===----------------------------------------------------------------------===//
// What-if model
//===----------------------------------------------------------------------===//

TEST(WhatIf, ProjectionMatchesSimAnalyticBound) {
  const WhatIfPipelineScenario Scenario = whatifPipelineScenario();
  const WhatIfModel Model =
      WhatIfModel::fromApp(Scenario.App, Scenario.Opts.Contexts);
  PipelineSim Sim(Scenario.App, Scenario.Opts);

  // With sequential stages at 1 the projection must reproduce the
  // simulator's own analytic fixed point exactly — prediction error then
  // measures model error, never solver divergence.
  const std::vector<std::vector<unsigned>> Cases = {
      {1, 1, 1, 1}, {1, 2, 2, 1}, {1, 8, 3, 1}, {1, 12, 5, 1}};
  for (const std::vector<unsigned> &E : Cases)
    EXPECT_NEAR(Model.projectThroughput(E),
                Sim.analyticThroughput(E, /*Fused=*/false), 1e-9);
}

TEST(WhatIf, FromProfileInfersParallelismFromOverlap) {
  const CriticalPathProfile P =
      computeCriticalPath(TaskDag::build(scenarioRecords()));
  const WhatIfModel Model = WhatIfModel::fromProfile(P, 24);

  // load/write ran at DoP 1 and never overlapped: the trace cannot prove
  // them parallelizable, so the model must not grow them. rank/compress
  // overlapped at 2.
  const std::vector<unsigned> Baseline = {1, 2, 2, 1};
  EXPECT_EQ(Model.BaselineExtents, Baseline);
  ASSERT_EQ(Model.Parallel.size(), 4u);
  EXPECT_FALSE(Model.Parallel[0]);
  EXPECT_TRUE(Model.Parallel[1]);
  EXPECT_TRUE(Model.Parallel[2]);
  EXPECT_FALSE(Model.Parallel[3]);
}

TEST(WhatIf, RecommendationsDeterministicAndRanked) {
  const CriticalPathProfile P =
      computeCriticalPath(TaskDag::build(scenarioRecords()));
  const WhatIfModel Model = WhatIfModel::fromProfile(P, 24);

  const std::vector<Recommendation> A = recommendExtents(Model, 24, 5);
  const std::vector<Recommendation> B = recommendExtents(Model, 24, 5);
  ASSERT_FALSE(A.empty());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Extents, B[I].Extents);
    EXPECT_DOUBLE_EQ(A[I].PredictedThroughput, B[I].PredictedThroughput);
  }
  for (size_t I = 1; I != A.size(); ++I)
    EXPECT_GE(A[I - 1].PredictedThroughput, A[I].PredictedThroughput);

  // The winner grows only the observably-parallel stages and predicts a
  // real speedup over the measured baseline.
  EXPECT_EQ(A.front().Extents[0], 1u);
  EXPECT_EQ(A.front().Extents[3], 1u);
  EXPECT_GT(A.front().Extents[1], 2u);
  EXPECT_GT(A.front().PredictedSpeedup, 2.0);
}

TEST(WhatIf, TopRecommendationValidatesWithinBound) {
  const WhatIfPipelineScenario Scenario = whatifPipelineScenario();
  const CriticalPathProfile P =
      computeCriticalPath(TaskDag::build(scenarioRecords()));
  const WhatIfModel Model = WhatIfModel::fromProfile(
      P, Scenario.Opts.Contexts, Scenario.App.OversubPenalty,
      Scenario.App.ThreadOverheadPenalty);
  const std::vector<Recommendation> Recs =
      recommendExtents(Model, Scenario.Opts.Contexts, 1);
  ASSERT_FALSE(Recs.empty());

  PipelineSim Sim(Scenario.App, Scenario.Opts);
  const ValidationReport Report =
      validateRecommendation(Sim, Recs.front(), 0.15);
  EXPECT_TRUE(Report.Ok) << "predicted " << Report.Predicted << " actual "
                         << Report.Actual << " rel_error "
                         << Report.RelError;
  // And the recommendation actually helps: re-simulated throughput beats
  // the traced baseline run by a wide margin.
  const double Baseline =
      runWhatifPipelineScenario(Scenario).first.Throughput;
  EXPECT_GT(Report.Actual, 2.0 * Baseline);
}

TEST(WhatIf, ColocationSharesValidateWithinBound) {
  const WhatIfColocationScenario Scenario = whatifColocationScenario();
  const ShareRecommendation Rec =
      recommendShares(Scenario.Tenants, Scenario.Opts.Contexts);
  ASSERT_EQ(Rec.Shares.size(), Scenario.Tenants.size());
  unsigned Total = 0;
  for (unsigned S : Rec.Shares)
    Total += S;
  EXPECT_EQ(Total, Scenario.Opts.Contexts);

  const ValidationReport Report =
      validateShares(Scenario.Tenants, Scenario.Opts, Rec, 0.15);
  EXPECT_TRUE(Report.Ok) << "predicted " << Report.Predicted << " actual "
                         << Report.Actual << " rel_error "
                         << Report.RelError;
}

//===----------------------------------------------------------------------===//
// Committed goldens
//===----------------------------------------------------------------------===//

TEST(WhatIfGolden, TraceMatchesCommitted) {
  std::ostringstream OS;
  writeTraceJsonl(scenarioRecords(), OS);
  const std::string Committed =
      readFileOrEmpty(goldenPath("whatif-pipeline.trace.jsonl"));
  ASSERT_FALSE(Committed.empty())
      << "missing golden trace (run the whatif-regen target)";
  EXPECT_EQ(OS.str(), Committed)
      << "scenario trace drifted from the committed golden (intentional "
         "change? regenerate with the whatif-regen target)";
}

TEST(WhatIfGolden, RecommendationsMatchCommitted) {
  const WhatIfPipelineScenario Scenario = whatifPipelineScenario();
  const std::string Committed =
      readFileOrEmpty(goldenPath("whatif-pipeline.trace.jsonl"));
  ASSERT_FALSE(Committed.empty());

  // The committed recommendations must be reproducible from the
  // committed *trace* — the full offline path a user of dope_whatif
  // runs, not a shortcut through in-memory records.
  std::istringstream IS(Committed);
  TraceReadStats Stats;
  const TaskDag Dag = TaskDag::fromJsonl(IS, &Stats);
  EXPECT_EQ(Stats.Skipped, 0u);
  const WhatIfModel Model = WhatIfModel::fromProfile(
      computeCriticalPath(Dag), Scenario.Opts.Contexts,
      Scenario.App.OversubPenalty, Scenario.App.ThreadOverheadPenalty);
  const std::vector<Recommendation> Recs =
      recommendExtents(Model, Scenario.Opts.Contexts, 5);

  EXPECT_EQ(toJson(Recs).dump() + "\n",
            readFileOrEmpty(goldenPath("whatif-pipeline.recommend.json")))
      << "recommendations drifted from the committed golden (intentional "
         "change? regenerate with the whatif-regen target)";

  const WarmStartHint Hint = makeWarmStartHint("FDP", Recs.front());
  EXPECT_EQ(writeWarmStartHint(Hint) + "\n",
            readFileOrEmpty(goldenPath("whatif-pipeline.hint.json")));
}

TEST(WhatIfGolden, SharesMatchCommitted) {
  const WhatIfColocationScenario Scenario = whatifColocationScenario();
  const ShareRecommendation Rec =
      recommendShares(Scenario.Tenants, Scenario.Opts.Contexts);
  EXPECT_EQ(toJson(Rec).dump() + "\n",
            readFileOrEmpty(goldenPath("whatif-colocation.shares.json")))
      << "share split drifted from the committed golden (intentional "
         "change? regenerate with the whatif-regen target)";
}
