//===- dopebench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: run arguments, the round loop that
/// fills a run's time budget, sample sets with percentiles, the metric
/// sink every workload reports into, and the forwarding timing wrapper
/// that times mechanism consults without changing their decisions.
///
//===----------------------------------------------------------------------===//

#ifndef DOPEBENCH_BENCH_H
#define DOPEBENCH_BENCH_H

#include "core/Mechanism.h"
#include "metrics/ResponseStats.h"
#include "support/Statistics.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dopebench {

/// Monotonic wall-clock seconds.
inline double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Arguments of one benchmark invocation.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  /// False: measure end-to-end metrics with no per-layer timing. True:
  /// alternate untimed and layer-timed rounds and report per-layer
  /// metrics.
  bool Trace = false;
};

/// A multiset of measurements. Percentiles come from
/// dope::PercentileTracker; this adds what it lacks: merging, sums and
/// threshold counts.
class Samples {
public:
  void add(double X) {
    Values.push_back(X);
    Tracker.addSample(X);
  }
  void append(const Samples &Other) {
    for (double X : Other.Values)
      add(X);
  }
  size_t count() const { return Values.size(); }
  /// q-quantile, q in [0, 1]; 0 when empty.
  double pct(double Q) const { return Tracker.percentile(Q); }
  double median() const { return pct(0.5); }
  double min() const { return pct(0.0); }
  double max() const { return pct(1.0); }
  double sum() const;
  /// Number of samples <= \p Limit.
  size_t countAtMost(double Limit) const;

private:
  std::vector<double> Values;
  dope::PercentileTracker Tracker;
};

/// The response times a ResponseStats holds, in milliseconds, recovered
/// from its exact interpolating percentile: rank k of n sits at
/// q = k / (n - 1).
Samples responseSamplesMs(const dope::ResponseStats &Stats);

/// Metric values of one run, keyed by name; units live in main.cpp's
/// metric lists.
using MetricMap = std::map<std::string, double>;

/// What a workload hands back to main().
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricMap Metrics;
  /// Context printed on the info line (sample counts, rounds, ...).
  std::map<std::string, double> Info;
};

/// What a round is for. The first round of a run is a warm-up: its outputs
/// are verified but its timings are dropped. The rest are measured; with
/// layer timing on they alternate plain and layer-timed.
enum class Phase { Warmup, Plain, Timed };

/// Measured rounds a run makes at the least, whatever its time budget.
constexpr unsigned MinMeasuredRounds = 3;

/// Runs \p Round (index, phase) until \p Args.Seconds of wall time have
/// passed and at least MinMeasuredRounds measured rounds ran. With
/// \p RotateCpus, a single-threaded workload runs round k on the k-th
/// processor it may use (mod their count): a busy neighbour on the host
/// slows one processor at a time, so the run's fast rounds come from
/// whichever processor is quiet.
void forEachRound(const RunArgs &Args, bool RotateCpus,
                  const std::function<void(unsigned, Phase)> &Round);

/// The wall-clock estimator of a job made of parts that every round
/// repeats: the sum over parts of each part's fastest time. Other tenants
/// of a shared host only ever slow the benchmark down, in phases of
/// seconds; a part takes milliseconds and is measured once per round on a
/// rotating processor, so its fastest time needs one quiet moment anywhere
/// in the run, where a fast whole round needs a quiet stretch as long as
/// the round and a median needs the run to be mostly quiet.
inline double fastestParts(const std::vector<Samples> &PartTimes) {
  double Sum = 0.0;
  for (const Samples &Part : PartTimes)
    Sum += Part.min();
  return Sum;
}

/// What a TimedMechanism records: consult durations in seconds and the
/// number of consults that proposed a configuration change.
struct ConsultLog {
  Samples Seconds;
  uint64_t Changes = 0;
};

/// Forwarding Mechanism wrapper: times every reconfigure() consult and
/// counts the ones that propose a configuration change. Decisions pass
/// through untouched, so a wrapped run must match an unwrapped one
/// exactly. \p OnChange, when set, runs (on the consulting thread) after
/// each proposed change, with the wall time the decision left the
/// wrapper. The log is shared, so it outlives an executive that owns and
/// destroys the wrapper.
class TimedMechanism : public dope::Mechanism {
public:
  explicit TimedMechanism(
      std::unique_ptr<dope::Mechanism> Inner,
      std::function<void(const dope::RegionConfig &, double)> OnChange = {})
      : Inner(std::move(Inner)), OnChange(std::move(OnChange)) {}

  std::string name() const override { return Inner->name(); }
  std::optional<dope::RegionConfig>
  reconfigure(const dope::ParDescriptor &Region,
              const dope::RegionSnapshot &Root,
              const dope::RegionConfig &Current,
              const dope::MechanismContext &Ctx) override;
  void reset() override { Inner->reset(); }
  void seedWarmStart(const dope::WarmStartHint &Hint) override {
    Inner->seedWarmStart(Hint);
  }

  /// Read it once the consulting thread has stopped.
  std::shared_ptr<const ConsultLog> log() const { return Log; }

private:
  std::unique_ptr<dope::Mechanism> Inner;
  std::function<void(const dope::RegionConfig &, double)> OnChange;
  std::shared_ptr<ConsultLog> Log = std::make_shared<ConsultLog>();
};

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Workload entry points.
Outcome runNativeServer(const RunArgs &Args);
Outcome runSimSweep(const RunArgs &Args);
Outcome runTracedOps(const RunArgs &Args);

/// Thread budget of the native executive; the generator adds one thread.
constexpr unsigned NativeThreadBudget = 3;

} // namespace dopebench

#endif // DOPEBENCH_BENCH_H
