//===- dopebench/src/SimSweep.cpp - sim_sweep workload --------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The figure harnesses' work, single-threaded and untraced: a
/// NestServerSim load sweep of x264 (the Fig. 11 case) under WQT-H,
/// WQ-Linear and the two statics, plus PipelineSim batch runs of ferret
/// and dedup (Table 15) and open-loop ferret runs with admission control
/// (Fig. 12), each under SEDA, FDP, TBF and the even static split. Event
/// dispatch, snapshot building and mechanism consults do the work; no
/// real threads or tracers are involved.
///
/// Every round replays the same seeded sweep, so every round must
/// reproduce round 0 exactly; layer-timed rounds wrap each mechanism in
/// the forwarding timing wrapper, which must not change a single result.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/NativeKernels.h"
#include "apps/NestApps.h"
#include "apps/PipelineApps.h"
#include "mechanisms/Fdp.h"
#include "mechanisms/Seda.h"
#include "mechanisms/ServerNest.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/WqLinear.h"
#include "mechanisms/WqtH.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"

#include <algorithm>

using namespace dope;
using namespace dopebench;

namespace {

constexpr unsigned Contexts = 24;
constexpr uint64_t NestTransactions = 4000;
constexpr uint64_t BatchItems = 4000;
constexpr uint64_t OpenItems = 4000;
constexpr size_t AdmissionLimit = 48;
/// Static Par saturates near load 0.78; above it its queue grows for the
/// whole run and the tail would measure only the run's length.
const double NestLoads[] = {0.3, 0.5, 0.7};
/// Open-loop ferret load, relative to the even static split's capacity.
const double OpenLoads[] = {0.8, 1.3};
/// Latency limit behind slo_attain, in simulated time.
constexpr double SloMs = 120000.0;

enum class Scheme { StaticA, StaticB, WqtH, WqLinear, Seda, Fdp, Tbf };

/// One simulator run of the sweep, built during set-up.
struct SimRun {
  bool Nest = false;
  bool OpenLoop = false;
  Scheme Kind = Scheme::StaticA;
  std::unique_ptr<NestServerSim> NestSim;
  NestAppBundle NestApp;
  std::unique_ptr<PipelineSim> PipeSim;
  std::vector<unsigned> Extents;
  std::unique_ptr<Mechanism> Mech;
  uint64_t Offered = 0;
};

/// What must repeat exactly from round to round.
struct Fingerprint {
  uint64_t Completed = 0;
  uint64_t Shed = 0;
  uint64_t Reconfigs = 0;
  double TotalSeconds = 0.0;
  double MeanResponse = 0.0;
  bool operator==(const Fingerprint &) const = default;
};

std::vector<unsigned> evenExtents(const PipelineAppModel &App) {
  unsigned Seq = 0, Par = 0;
  for (const PipelineStageSpec &S : App.Stages)
    (S.Parallel ? Par : Seq) += 1;
  const unsigned Budget = Contexts - Seq;
  std::vector<unsigned> Extents;
  unsigned Handed = 0, Seen = 0;
  for (const PipelineStageSpec &S : App.Stages) {
    if (!S.Parallel) {
      Extents.push_back(1);
      continue;
    }
    const unsigned Share = Budget * ++Seen / Par - Handed;
    Extents.push_back(std::max(1u, Share));
    Handed += Share;
  }
  return Extents;
}

std::unique_ptr<Mechanism> makeMechanism(Scheme Kind,
                                         const NestAppBundle &App) {
  switch (Kind) {
  case Scheme::WqtH:
    return std::make_unique<WqtHMechanism>(App.WqtH);
  case Scheme::WqLinear:
    return std::make_unique<WqLinearMechanism>(App.WqLinear);
  case Scheme::Seda:
    return std::make_unique<SedaMechanism>();
  case Scheme::Fdp:
    return std::make_unique<FdpMechanism>();
  case Scheme::Tbf:
    return std::make_unique<TbfMechanism>(TbfParams{0.5, true});
  default:
    return nullptr;
  }
}

/// Builds every run of the sweep: the set-up of one round.
std::vector<SimRun> buildSweep(uint64_t Seed, bool Timed) {
  std::vector<SimRun> Runs;
  auto RunSeed = [&] {
    return hashWork(Seed * 6364136223846793005ULL + Runs.size(), 2);
  };
  auto Wrap = [&](SimRun &R) {
    if (Timed && R.Mech)
      R.Mech = std::make_unique<TimedMechanism>(std::move(R.Mech));
  };

  for (double Load : NestLoads) {
    for (Scheme Kind : {Scheme::StaticA, Scheme::StaticB, Scheme::WqtH,
                        Scheme::WqLinear}) {
      SimRun R;
      R.Nest = true;
      R.Kind = Kind;
      R.NestApp = makeX264App();
      NestSimOptions Opts;
      Opts.Contexts = Contexts;
      Opts.LoadFactor = Load;
      Opts.NumTransactions = NestTransactions;
      Opts.Seed = RunSeed();
      R.NestSim = std::make_unique<NestServerSim>(R.NestApp.Model, Opts);
      R.Mech = makeMechanism(Kind, R.NestApp);
      R.Offered = NestTransactions;
      Wrap(R);
      Runs.push_back(std::move(R));
    }
  }

  for (const PipelineAppModel &App : allPipelineApps()) {
    for (Scheme Kind :
         {Scheme::StaticA, Scheme::Seda, Scheme::Fdp, Scheme::Tbf}) {
      SimRun R;
      R.Kind = Kind;
      PipelineSimOptions Opts;
      Opts.Contexts = Contexts;
      Opts.NumItems = BatchItems;
      Opts.Seed = RunSeed();
      R.PipeSim = std::make_unique<PipelineSim>(App, Opts);
      R.Extents = evenExtents(App);
      R.Mech = makeMechanism(Kind, R.NestApp);
      R.Offered = BatchItems;
      Wrap(R);
      Runs.push_back(std::move(R));
    }
  }

  const PipelineAppModel Ferret = makeFerretApp();
  const std::vector<unsigned> Even = evenExtents(Ferret);
  PipelineSimOptions Probe;
  Probe.Contexts = Contexts;
  const double Capacity = PipelineSim(Ferret, Probe).analyticThroughput(Even);
  for (double Load : OpenLoads) {
    for (Scheme Kind :
         {Scheme::StaticA, Scheme::Seda, Scheme::Fdp, Scheme::Tbf}) {
      SimRun R;
      R.OpenLoop = true;
      R.Kind = Kind;
      PipelineSimOptions Opts;
      Opts.Contexts = Contexts;
      Opts.OpenLoop = true;
      Opts.ArrivalRate = Load * Capacity;
      Opts.AdmissionLimit = AdmissionLimit;
      Opts.NumItems = OpenItems;
      Opts.Seed = RunSeed();
      R.PipeSim = std::make_unique<PipelineSim>(Ferret, Opts);
      R.Extents = Even;
      R.Mech = makeMechanism(Kind, R.NestApp);
      R.Offered = OpenItems;
      Wrap(R);
      Runs.push_back(std::move(R));
    }
  }
  return Runs;
}

struct RunResult {
  Fingerprint Print;
  double WallSeconds = 0.0;
  Samples Response; // ms of simulated time; open-loop runs only
};

RunResult execute(SimRun &R) {
  RunResult Out;
  const double Start = wallSeconds();
  if (R.Nest) {
    const unsigned Inner = R.Kind == Scheme::StaticB ? R.NestApp.MMax : 1;
    const unsigned Outer = R.Kind == Scheme::StaticB
                               ? outerExtentFor(Contexts, Inner)
                               : Contexts;
    const NestSimResult Res = R.NestSim->run(R.Mech.get(), Outer, Inner);
    Out.WallSeconds = wallSeconds() - Start;
    Out.Print = {Res.Stats.count(), 0, Res.Reconfigurations, Res.TotalSeconds,
                 Res.Stats.meanResponseTime()};
    Out.Response = responseSamplesMs(Res.Stats);
  } else {
    const PipelineSimResult Res = R.PipeSim->run(R.Mech.get(), R.Extents);
    Out.WallSeconds = wallSeconds() - Start;
    Out.Print = {Res.ItemsCompleted,
                 Res.Faults.ItemsShed + Res.Faults.ItemsDropped,
                 Res.Reconfigurations, Res.TotalSeconds,
                 Res.Stats.meanResponseTime()};
    if (R.OpenLoop)
      Out.Response = responseSamplesMs(Res.Stats);
  }
  return Out;
}

/// A short x264 WQT-H run and a short ferret batch run, part of set-up:
/// they fault in code and allocator state before the timed sweep.
void warmUp(uint64_t Seed) {
  NestAppBundle App = makeX264App();
  NestSimOptions NestOpts;
  NestOpts.Contexts = Contexts;
  NestOpts.LoadFactor = 0.7;
  NestOpts.NumTransactions = 4000;
  NestOpts.Seed = Seed;
  WqtHMechanism WqtH(App.WqtH);
  (void)NestServerSim(App.Model, NestOpts).run(&WqtH, Contexts, 1);
  const PipelineAppModel Ferret = makeFerretApp();
  PipelineSimOptions PipeOpts;
  PipeOpts.Contexts = Contexts;
  PipeOpts.NumItems = 4000;
  PipeOpts.Seed = Seed;
  FdpMechanism Fdp;
  (void)PipelineSim(Ferret, PipeOpts).run(&Fdp, evenExtents(Ferret));
}

} // namespace

Outcome dopebench::runSimSweep(const RunArgs &Args) {
  Outcome Out;
  std::vector<Fingerprint> Reference;
  Samples Response;
  uint64_t Shed = 0;
  Samples ConsultSeconds, ConsultCounts, Reconfigs;
  // Wall time of the two parts of set-up (building the sweep, warm-up)
  // and of each sim run of the sweep, per round kind.
  std::vector<Samples> SetupParts(2), PlainParts, TimedParts;
  uint64_t SweepItems = 0;
  uint64_t Changes = 0;
  double NestItems = 0, NestWall = 0, PipeItems = 0, PipeWall = 0;
  double RunWall = 0, TimedJobWall = 0;

  forEachRound(Args, /*RotateCpus=*/true, [&](unsigned Round, Phase P) {
    const bool Timed = P == Phase::Timed;
    const double SetupStart = wallSeconds();
    std::vector<SimRun> Runs = buildSweep(Args.Seed, Timed);
    const double Built = wallSeconds();
    warmUp(Args.Seed);
    const double JobStart = wallSeconds();
    std::vector<RunResult> Results;
    for (SimRun &R : Runs)
      Results.push_back(execute(R));
    const double JobEnd = wallSeconds();

    uint64_t Items = 0, RoundReconfigs = 0, RoundConsults = 0;
    for (size_t I = 0; I != Runs.size(); ++I) {
      const SimRun &R = Runs[I];
      const RunResult &Res = Results[I];
      Out.Attempted += R.Offered;
      // Every offered item is completed or counted as shed, and the
      // round repeats round 0 exactly.
      const uint64_t Accounted = Res.Print.Completed + Res.Print.Shed;
      if (Round == 0)
        Reference.push_back(Res.Print);
      if (!(Res.Print == Reference[I]))
        Out.Failed += R.Offered;
      else if (Accounted < R.Offered)
        Out.Failed += R.Offered - Accounted;
      Items += Res.Print.Completed;
      RoundReconfigs += Res.Print.Reconfigs;
      if (P != Phase::Warmup) {
        std::vector<Samples> &Parts = Timed ? TimedParts : PlainParts;
        Parts.resize(Runs.size());
        Parts[I].add(Res.WallSeconds);
      }
      if (Round == 0) {
        Response.append(Res.Response);
        if (R.OpenLoop)
          Shed += Res.Print.Shed;
      }
      if (!Timed)
        continue;
      RunWall += Res.WallSeconds;
      (R.Nest ? NestItems : PipeItems) += Res.Print.Completed;
      (R.Nest ? NestWall : PipeWall) += Res.WallSeconds;
      if (auto *T = dynamic_cast<TimedMechanism *>(R.Mech.get())) {
        ConsultSeconds.append(T->log()->Seconds);
        RoundConsults += T->log()->Seconds.count();
        Changes += T->log()->Changes;
      }
    }
    if (P == Phase::Warmup) {
      SweepItems = Items;
      return;
    }
    if (!Timed) {
      SetupParts[0].add(Built - SetupStart);
      SetupParts[1].add(JobStart - Built);
      return;
    }
    TimedJobWall += JobEnd - JobStart;
    Reconfigs.add(static_cast<double>(RoundReconfigs));
    ConsultCounts.add(static_cast<double>(RoundConsults));
  });

  MetricMap &M = Out.Metrics;
  if (!Args.Trace) {
    // Every round completes the warm-up round's items, or it failed.
    const double JobSeconds = fastestParts(PlainParts);
    M["setup_s"] = fastestParts(SetupParts);
    M["job_s"] = JobSeconds;
    M["tput_items_per_s"] = static_cast<double>(SweepItems) / JobSeconds;
    M["resp_p50_ms"] = Response.pct(0.50);
    M["resp_p99_ms"] = Response.pct(0.99);
    M["slo_attain"] = static_cast<double>(Response.countAtMost(SloMs)) /
                      static_cast<double>(Response.count() + Shed);
    Out.Info["resp_samples"] = static_cast<double>(Response.count());
    Out.Info["rounds"] = static_cast<double>(SetupParts[0].count());
    return Out;
  }
  const double Consult = ConsultSeconds.sum();
  M["sim.nest.items_per_s"] = NestItems / NestWall;
  M["sim.pipeline.items_per_s"] = PipeItems / PipeWall;
  M["mechanisms.consults"] = ConsultCounts.median();
  M["mechanisms.consult_us"] = ConsultSeconds.median() * 1e6;
  M["mechanisms.consult_frac"] = Consult / RunWall;
  M["mechanisms.change_frac"] = static_cast<double>(Changes) /
                                static_cast<double>(ConsultSeconds.count());
  M["sim.self_frac"] = (RunWall - Consult) / TimedJobWall;
  M["sim.reconfigs"] = Reconfigs.median();
  M["unattributed_frac"] = 1.0 - RunWall / TimedJobWall;
  M["trace_run_overhead_frac"] =
      fastestParts(TimedParts) / fastestParts(PlainParts) - 1.0;
  Out.Info["rounds_timed"] = static_cast<double>(Reconfigs.count());
  Out.Info["rounds_plain"] = static_cast<double>(SetupParts[0].count());
  return Out;
}
