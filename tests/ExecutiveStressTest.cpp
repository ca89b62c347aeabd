//===- tests/ExecutiveStressTest.cpp - Randomized executive stress -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized robustness tests of the native executive: random pipeline
/// shapes, random configuration churn, and random workload sizes, all
/// checked against exact item-conservation invariants. Seeds are fixed
/// per test instantiation so failures reproduce.
///
//===----------------------------------------------------------------------===//

#include "core/Builders.h"

#include "support/Random.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <stdexcept>
#include <thread>

using namespace dope;

namespace {

/// Returns a random valid configuration for a builder pipeline whose
/// middle stages are all parallel.
RegionConfig randomConfig(const ParDescriptor &Pipe, Rng &R,
                          unsigned MaxThreads) {
  RegionConfig Config = defaultConfig(Pipe);
  unsigned Budget = MaxThreads;
  Budget -= static_cast<unsigned>(Config.Tasks.size()); // one thread each
  for (size_t I = 0; I != Config.Tasks.size(); ++I) {
    if (Pipe.tasks()[I]->kind() != TaskKind::Parallel || Budget == 0)
      continue;
    const unsigned Extra =
        static_cast<unsigned>(R.uniformInt(Budget + 1));
    Config.Tasks[I].Extent = 1 + Extra;
    Budget -= Extra;
  }
  return Config;
}

/// Mechanism that jumps to a fresh random configuration every decision.
class RandomWalkMechanism : public Mechanism {
public:
  RandomWalkMechanism(const ParDescriptor &Pipe, uint64_t Seed,
                      unsigned MaxThreads)
      : Pipe(Pipe), Gen(Seed), MaxThreads(MaxThreads) {}
  std::string name() const override { return "RandomWalk"; }
  std::optional<RegionConfig>
  reconfigure(const ParDescriptor &, const RegionSnapshot &,
              const RegionConfig &, const MechanismContext &) override {
    return randomConfig(Pipe, Gen, MaxThreads);
  }

private:
  const ParDescriptor &Pipe;
  Rng Gen;
  unsigned MaxThreads;
};

class ExecutiveStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutiveStress, RandomPipelineUnderRandomChurnConservesItems) {
  const uint64_t Seed = testing_helpers::loggedSeed(GetParam());
  Rng R(Seed);
  const int Items = 500 + static_cast<int>(R.uniformInt(1500));
  const unsigned MiddleStages = 1 + static_cast<unsigned>(R.uniformInt(3));
  const unsigned SourceSpin = 500 + static_cast<unsigned>(R.uniformInt(2000));
  const unsigned StageSpin = 500 + static_cast<unsigned>(R.uniformInt(2000));

  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::atomic<long long> Sum{0};

  PipelineBuilder B(Graph);
  B.queueCapacity(1 + R.uniformInt(64));
  B.source<int>("gen", [&, SourceSpin]() -> std::optional<int> {
    const int I = Next.load();
    if (I >= Items)
      return std::nullopt;
    for (volatile unsigned Spin = 0; Spin < SourceSpin;)
      Spin = Spin + 1;
    Next.store(I + 1);
    return I;
  });
  for (unsigned S = 0; S != MiddleStages; ++S)
    B.stage<int, int>("work" + std::to_string(S), [StageSpin](int X) {
      for (volatile unsigned Spin = 0; Spin < StageSpin;)
        Spin = Spin + 1;
      return X;
    });
  B.sink<int>("add", [&](int X) { Sum.fetch_add(X); });
  ParDescriptor *Pipe = B.build();

  const unsigned MaxThreads =
      static_cast<unsigned>(Pipe->size()) + 1 +
      static_cast<unsigned>(R.uniformInt(4));

  DopeOptions Opts;
  Opts.MaxThreads = MaxThreads;
  Opts.MonitorIntervalSeconds = 0.001;
  Opts.MinReconfigIntervalSeconds = 0.001;
  Opts.Mech =
      std::make_unique<RandomWalkMechanism>(*Pipe, Seed ^ 1, MaxThreads);
  std::unique_ptr<Dope> D = Dope::create(Pipe, std::move(Opts));
  D->wait();

  EXPECT_EQ(Sum.load(),
            static_cast<long long>(Items - 1) * Items / 2)
      << "seed " << Seed << " items " << Items << " stages "
      << MiddleStages << " threads " << MaxThreads;
}

TEST_P(ExecutiveStress, FaultInjectedPipelineConservesItems) {
  // The fault-injecting variant: stage functors deterministically throw
  // and stall at scheduled invocations while a random-walk mechanism
  // churns the configuration. With a retry policy on every stage the
  // run must still complete with exact item conservation (faults are
  // injected *before* an item is popped, so a retried invocation never
  // loses work), no deadlock (the test's TIMEOUT is the watchdog), and
  // balanced Init/Fini hooks (every epoch's FiniCB ran exactly once).
  const uint64_t Seed = testing_helpers::loggedSeed(GetParam());
  Rng R(Seed);
  const int Items = 300 + static_cast<int>(R.uniformInt(700));
  const unsigned MiddleStages = 1 + static_cast<unsigned>(R.uniformInt(3));
  const uint64_t ThrowEvery = 23 + R.uniformInt(40);
  const uint64_t StallEvery = 31 + R.uniformInt(40);

  TaskGraph Graph;
  std::atomic<int> Next{0};
  std::atomic<long long> Sum{0};
  struct HookCounts {
    std::atomic<int> Inits{0};
    std::atomic<int> Finis{0};
  };
  std::deque<HookCounts> Hooks;
  struct StageState {
    std::atomic<uint64_t> Invocations{0};
  };
  std::deque<StageState> States;
  std::vector<Task *> Tasks;

  using IntQueue = BoundedQueue<int>;
  auto SourceOut = std::make_shared<IntQueue>(16);
  {
    HookCounts &H = Hooks.emplace_back();
    TaskFn Fn = [&, SourceOut](TaskRuntime &RT) {
      if (RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      const int I = Next.load();
      if (I >= Items)
        return TaskStatus::Finished;
      Next.store(I + 1);
      SourceOut->push(I);
      (void)RT.end();
      return TaskStatus::Executing;
    };
    Tasks.push_back(Graph.createTask(
        "gen", std::move(Fn), LoadFn(), Graph.seqDescriptor(),
        [&H, SourceOut] {
          H.Inits.fetch_add(1);
          SourceOut->reopen();
        },
        [&H, SourceOut] {
          H.Finis.fetch_add(1);
          SourceOut->close();
        }));
  }

  std::shared_ptr<IntQueue> Upstream = SourceOut;
  for (unsigned S = 0; S != MiddleStages; ++S) {
    auto InQ = Upstream;
    auto OutQ = std::make_shared<IntQueue>(16);
    HookCounts &H = Hooks.emplace_back();
    StageState &State = States.emplace_back();
    TaskFn Fn = [&State, InQ, OutQ, ThrowEvery,
                 StallEvery](TaskRuntime &RT) {
      // Faults fire before the pop so a retried invocation never holds
      // (and therefore never loses) an item.
      const uint64_t N = State.Invocations.fetch_add(1);
      if (N % ThrowEvery == ThrowEvery - 1)
        throw std::runtime_error("injected stage fault");
      if (N % StallEvery == StallEvery - 1)
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      std::optional<int> Item = InQ->waitAndPop();
      if (!Item)
        return TaskStatus::Finished;
      (void)RT.begin();
      (void)RT.end();
      OutQ->push(*Item);
      return TaskStatus::Executing;
    };
    LoadFn Load = [InQ] { return static_cast<double>(InQ->size()); };
    TaskDescriptor *Desc = Graph.parDescriptor();
    Desc->setRetryPolicy({/*MaxAttempts=*/1000, /*BackoffSeconds=*/0.0});
    Tasks.push_back(Graph.createTask(
        "work" + std::to_string(S), std::move(Fn), std::move(Load), Desc,
        [&H, OutQ] {
          H.Inits.fetch_add(1);
          OutQ->reopen();
        },
        [&H, OutQ] {
          H.Finis.fetch_add(1);
          OutQ->close();
        }));
    Upstream = OutQ;
  }

  {
    auto InQ = Upstream;
    TaskFn Fn = [&, InQ](TaskRuntime &RT) {
      std::optional<int> Item = InQ->waitAndPop();
      if (!Item)
        return TaskStatus::Finished;
      (void)RT.begin();
      Sum.fetch_add(*Item);
      (void)RT.end();
      return TaskStatus::Executing;
    };
    LoadFn Load = [InQ] { return static_cast<double>(InQ->size()); };
    Tasks.push_back(Graph.createTask("add", std::move(Fn), std::move(Load),
                                     Graph.seqDescriptor()));
  }

  ParDescriptor *Pipe = Graph.createRegion(Tasks);
  const unsigned MaxThreads =
      static_cast<unsigned>(Pipe->size()) + 1 +
      static_cast<unsigned>(R.uniformInt(4));

  DopeOptions Opts;
  Opts.MaxThreads = MaxThreads;
  Opts.MonitorIntervalSeconds = 0.001;
  Opts.MinReconfigIntervalSeconds = 0.001;
  Opts.Mech =
      std::make_unique<RandomWalkMechanism>(*Pipe, Seed ^ 1, MaxThreads);
  std::unique_ptr<Dope> D = Dope::create(Pipe, std::move(Opts));

  EXPECT_EQ(D->wait(), TaskStatus::Finished)
      << "seed " << Seed << ": " << (D->failure() ? toString(*D->failure())
                                                  : std::string("no cause"));
  EXPECT_EQ(Sum.load(), static_cast<long long>(Items - 1) * Items / 2)
      << "seed " << Seed << " items " << Items << " stages " << MiddleStages;
  EXPECT_GT(D->failureLog().retries(), 0u)
      << "fault injection never fired (seed " << Seed << ")";
  EXPECT_EQ(D->failureLog().failures(), 0u);
  for (size_t I = 0; I != Hooks.size(); ++I) {
    EXPECT_EQ(Hooks[I].Inits.load(), Hooks[I].Finis.load())
        << "task " << I << " Init/Fini imbalance (seed " << Seed << ")";
    EXPECT_GE(Hooks[I].Finis.load(), 1) << "task " << I << " never quiesced";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutiveStress,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
