//===- dopebench/src/Bench.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <numeric>

using namespace dopebench;

double Samples::sum() const {
  return std::accumulate(Values.begin(), Values.end(), 0.0);
}

size_t Samples::countAtMost(double Limit) const {
  return static_cast<size_t>(
      std::count_if(Values.begin(), Values.end(),
                    [Limit](double X) { return X <= Limit; }));
}

Samples dopebench::responseSamplesMs(const dope::ResponseStats &Stats) {
  Samples Out;
  const size_t N = Stats.count();
  if (N == 1)
    Out.add(Stats.responsePercentile(0.0) * 1e3);
  for (size_t K = 0; N > 1 && K != N; ++K)
    Out.add(Stats.responsePercentile(std::min(
                1.0, static_cast<double>(K) / static_cast<double>(N - 1))) *
            1e3);
  return Out;
}

void dopebench::forEachRound(
    const RunArgs &Args, bool RotateCpus,
    const std::function<void(unsigned, Phase)> &Round) {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  std::vector<int> Cpus;
  if (RotateCpus && sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  const double Start = wallSeconds();
  for (unsigned R = 0;; ++R) {
    const double Elapsed = wallSeconds() - Start;
    // Stop before a round that would overrun the budget, judged by the
    // mean round so far.
    if (R > MinMeasuredRounds && Elapsed * (R + 1) / R > Args.Seconds)
      break;
    if (!Cpus.empty()) {
      // Traced runs alternate phases, so they advance one processor per
      // pair of rounds; both phases then visit every processor.
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(Cpus[(Args.Trace ? R / 2 : R) % Cpus.size()], &One);
      sched_setaffinity(0, sizeof(One), &One);
    }
    // Each round starts from a trimmed heap, so the peak resident set does
    // not depend on how fragmentation built up over the earlier rounds.
    malloc_trim(0);
    Round(R, R == 0                      ? Phase::Warmup
             : Args.Trace && R % 2 == 0 ? Phase::Timed
                                        : Phase::Plain);
  }
  if (!Cpus.empty())
    sched_setaffinity(0, sizeof(Allowed), &Allowed);
}

std::optional<dope::RegionConfig>
TimedMechanism::reconfigure(const dope::ParDescriptor &Region,
                            const dope::RegionSnapshot &Root,
                            const dope::RegionConfig &Current,
                            const dope::MechanismContext &Ctx) {
  const double Start = wallSeconds();
  std::optional<dope::RegionConfig> Next =
      Inner->reconfigure(Region, Root, Current, Ctx);
  const double End = wallSeconds();
  Log->Seconds.add(End - Start);
  if (Next && !(*Next == Current)) {
    ++Log->Changes;
    if (OnChange)
      OnChange(*Next, End);
  }
  return Next;
}
