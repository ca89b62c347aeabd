//===- sim/NestServerSim.cpp - Two-level nest server simulation ------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/NestServerSim.h"

#include "core/ControlStep.h"

#include "mechanisms/ServerNest.h"

#include "support/RingDeque.h"

#include <cassert>
#include <cmath>
#include <functional>

using namespace dope;

NestServerSim::NestServerSim(NestAppModel App, NestSimOptions Opts)
    : App(std::move(App)), Opts(Opts) {
  assert(this->App.SeqServiceSeconds > 0.0 && "transaction needs work");
  assert(Opts.Contexts >= 1 && "platform needs contexts");
  assert(Opts.LoadFactor > 0.0 && "load factor must be positive");
  buildGraph();
}

void NestServerSim::buildGraph() {
  // The model graph only carries structure; its functors never run.
  TaskFn Dummy = [](TaskRuntime &) { return TaskStatus::Finished; };
  InnerTask = Graph.createTask(App.Name + ".work", Dummy, LoadFn(),
                               Graph.parDescriptor());
  ParDescriptor *InnerRegion = Graph.createRegion({InnerTask});
  OuterTask = Graph.createTask(
      App.Name, Dummy, LoadFn(),
      Graph.createDescriptor(TaskKind::Parallel, {InnerRegion}));
  Root = Graph.createRegion({OuterTask});
}

double NestServerSim::maxThroughput() const {
  return static_cast<double>(Opts.Contexts) / App.SeqServiceSeconds;
}

double NestServerSim::arrivalRate() const {
  return Opts.LoadFactor * maxThroughput();
}

NestSimResult NestServerSim::run(Mechanism *Mech, unsigned InitialOuter,
                                 unsigned InitialInner) {
  assert(InitialOuter >= 1 && InitialInner >= 1 && "extents must be >= 1");
  if (Mech)
    Mech->reset();

  EventQueue Events;
  Rng ArrivalRng(Opts.Seed);
  Rng ServiceRng(Opts.Seed ^ 0x5eedf00dULL);

  NestSimResult Result;

  // Retarget the tracer's clock to virtual time for the duration of the
  // run, and make it the process-wide sink for mirrored log lines.
  Tracer *Sink = Opts.TraceSink;
  Tracer *PrevActive = nullptr;
  if (Sink) {
    PrevActive = Tracer::active();
    Sink->setClock([&Events] { return Events.now(); });
    Tracer::setActive(Sink);
  }

  // Mutable simulation state.
  RegionConfig Config =
      makeServerConfig(*Root, InitialOuter, InitialInner, /*AltIndex=*/0);
  unsigned OuterK = serverOuterExtent(Config);
  unsigned InnerM = serverInnerExtent(Config);

  RingDeque<Job> Queue;
  unsigned ActiveJobs = 0;
  unsigned BusyContexts = 0;
  uint64_t Arrived = 0;
  uint64_t Completed = 0;
  double PausedUntil = 0.0;
  Ema ExecTimeEma(0.25);
  Ema LoadEma(0.25);
  double LastQueueSample = 0.0;

  // Forward declaration pattern for mutually recursive lambdas.
  std::function<void()> TryStart;

  auto ServiceTime = [&](unsigned M) {
    const double Base = App.SeqServiceSeconds / App.Curve.speedup(M);
    const double Jittered = ServiceRng.logNormal(Base, App.ServiceCv);
    // Oversubscription slowdown, based on actually busy contexts
    // (statics may violate k*m <= C; adaptive configs never do).
    const double Ratio = static_cast<double>(BusyContexts) /
                         static_cast<double>(Opts.Contexts);
    if (Ratio <= 1.0)
      return Jittered;
    return Jittered *
           std::pow(Ratio, 1.0 + Opts.OversubscribePenalty);
  };

  auto CompleteJob = [&](const Job &J, double CompletionTime) {
    ++Completed;
    if (Sink && Opts.TraceTaskInstances)
      Sink->recordAt(CompletionTime, TraceKind::TaskEnd, OuterTask->name(),
                     static_cast<double>(J.Id),
                     CompletionTime - J.StartTime);
    if (Completed > Opts.WarmupTransactions)
      Result.Stats.recordTransaction(J.ArrivalTime, J.StartTime,
                                     CompletionTime);
    ExecTimeEma.addSample(CompletionTime - J.StartTime);
    assert(ActiveJobs > 0 && "completion without active job");
    --ActiveJobs;
    BusyContexts -= std::min(BusyContexts, J.InnerExtent);
    TryStart();
  };

  TryStart = [&]() {
    const double Now = Events.now();
    if (Now < PausedUntil)
      return;
    // Admission is context-based: a transaction starts as soon as its
    // inner extent fits in the free hardware contexts. This matches the
    // executive's thread-budget semantics and makes mode transitions
    // gradual: in-flight transactions finish under their old extent
    // while new ones already start under the new one. Deliberately
    // oversubscribed static configurations (k*m > C) fall back to
    // job-slot admission and pay the contention penalty in ServiceTime.
    const bool Oversubscribed =
        static_cast<uint64_t>(OuterK) * InnerM > Opts.Contexts;
    for (;;) {
      if (Queue.empty())
        break;
      if (Oversubscribed) {
        if (ActiveJobs >= OuterK)
          break;
      } else if (BusyContexts + InnerM > Opts.Contexts) {
        break;
      }
      Job J = Queue.front();
      Queue.pop_front();
      J.StartTime = Now;
      J.InnerExtent = InnerM;
      if (Sink && Opts.TraceTaskInstances)
        Sink->recordAt(Now, TraceKind::TaskBegin, OuterTask->name(),
                       static_cast<double>(J.Id));
      ++ActiveJobs;
      BusyContexts += InnerM;
      const double Duration = ServiceTime(InnerM);
      Events.scheduleAfter(Duration,
                           [&, J, Now, Duration] {
                             CompleteJob(J, Now + Duration);
                           });
    }
  };

  // Poisson arrival process; with a LoadTrace the instantaneous rate
  // follows the schedule.
  const bool HasTrace = Opts.Trace.phaseCount() > 0;
  std::function<void()> ScheduleArrival = [&]() {
    if (Arrived >= Opts.NumTransactions)
      return;
    double Rate = arrivalRate();
    if (HasTrace) {
      const double Factor = Opts.Trace.loadFactorAt(Events.now());
      Rate = std::max(1e-9, Factor * maxThroughput());
    }
    const double Gap = ArrivalRng.exponential(Rate);
    Events.scheduleAfter(Gap, [&] {
      ++Arrived;
      Queue.push_back({Events.now(), 0.0, 0, Arrived - 1});
      TryStart();
      ScheduleArrival();
    });
  };
  ScheduleArrival();

  // Mechanism decision ticks.
  std::function<void()> DecisionTick = [&]() {
    if (Completed >= Opts.NumTransactions)
      return;
    const double Now = Events.now();
    LastQueueSample = static_cast<double>(Queue.size());
    LoadEma.addSample(LastQueueSample);
    if (Sink)
      Sink->recordAt(Now, TraceKind::QueueDepth, OuterTask->name(),
                     LastQueueSample, static_cast<double>(ActiveJobs));

    if (Mech) {
      const RegionSnapshot Snap = snapshotRegion(
          *Root, &Config.Tasks, [&](const Task &T, size_t, TaskSnapshot &TS) {
            TS.Invocations = Completed;
            if (&T != OuterTask) {
              TS.ExecTime = ExecTimeEma.value() / static_cast<double>(InnerM);
              return;
            }
            TS.ExecTime = ExecTimeEma.value();
            TS.Load = LoadEma.value();
            TS.LastLoad = LastQueueSample;
          });

      MechanismContext Ctx;
      Ctx.MaxThreads = Opts.Contexts;
      Ctx.NowSeconds = Now;
      Ctx.Trace = Sink;

      // No ceiling: the simulated platform time-shares oversubscribed
      // contexts and holds no lease (see NoThreadCeiling).
      ControlStepResult Step =
          controlStep(*Mech, *Root, Snap, Config, Ctx, NoThreadCeiling);
      Result.InvalidProposals += Step.Outcome == StepOutcome::Invalid;
      if (Step.Outcome == StepOutcome::Accepted) {
        Config = std::move(*Step.Proposal);
        OuterK = serverOuterExtent(Config);
        InnerM = serverInnerExtent(Config);
        ++Result.Reconfigurations;
        PausedUntil = Now + Opts.ReconfigPauseSeconds;
        if (Sink)
          Sink->recordAt(Now, TraceKind::Reconfig, "sim", OuterK, InnerM,
                         toString(*Root, Config));
        Events.scheduleAfter(Opts.ReconfigPauseSeconds, [&] { TryStart(); });
      }
    }
    Result.InnerExtentTrace.addPoint(Now, static_cast<double>(InnerM));
    Events.scheduleAfter(Opts.DecisionIntervalSeconds, DecisionTick);
  };
  Events.scheduleAfter(Opts.DecisionIntervalSeconds, DecisionTick);

  // Run to completion: all transactions done or the safety horizon hit.
  while (Completed < Opts.NumTransactions &&
         Events.now() < Opts.MaxSimSeconds) {
    if (!Events.step(Opts.MaxSimSeconds))
      break;
  }

  if (Sink) {
    Sink->setClock({});
    if (Tracer::active() == Sink)
      Tracer::setActive(PrevActive);
  }

  Result.TotalSeconds = Events.now();
  Result.Throughput = Result.TotalSeconds > 0.0
                          ? static_cast<double>(Completed) /
                                Result.TotalSeconds
                          : 0.0;
  return Result;
}
