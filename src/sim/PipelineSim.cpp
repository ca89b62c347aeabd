//===- sim/PipelineSim.cpp - Pipeline application simulation ---------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/PipelineSim.h"

#include "core/ControlStep.h"

#include "support/Logging.h"
#include "support/RingDeque.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

using namespace dope;

PipelineSim::PipelineSim(PipelineAppModel App, PipelineSimOptions Opts)
    : App(std::move(App)), Opts(Opts) {
  assert(!this->App.Stages.empty() && "pipeline needs stages");
  assert(Opts.Contexts >= 1 && "platform needs contexts");
  buildGraph();
}

void PipelineSim::buildGraph() {
  TaskFn Dummy = [](TaskRuntime &) { return TaskStatus::Finished; };
  auto MakeStageTasks = [&](const std::vector<PipelineStageSpec> &Specs,
                            std::vector<Task *> &Out) -> ParDescriptor * {
    Out.clear();
    for (const PipelineStageSpec &Spec : Specs)
      Out.push_back(Graph.createTask(Spec.Name, Dummy, LoadFn(),
                                     Spec.Parallel ? Graph.parDescriptor()
                                                   : Graph.seqDescriptor()));
    return Graph.createRegion(Out);
  };

  std::vector<ParDescriptor *> Alternatives;
  Alternatives.push_back(MakeStageTasks(App.Stages, StageTasks));
  if (!App.FusedStages.empty())
    Alternatives.push_back(MakeStageTasks(App.FusedStages, FusedTasks));

  Driver = Graph.createTask(
      App.Name, Dummy, LoadFn(),
      Graph.createDescriptor(TaskKind::Sequential, Alternatives));
  Root = Graph.createRegion({Driver});
}

double PipelineSim::analyticThroughput(const std::vector<unsigned> &Extents,
                                       bool Fused) const {
  const std::vector<PipelineStageSpec> &Specs =
      Fused ? App.FusedStages : App.Stages;
  assert(Extents.size() == Specs.size() && "extent arity mismatch");
  const double C = static_cast<double>(Opts.Contexts);

  // The thread-footprint penalty depends on *created* threads; the CPU
  // contention penalty depends on *busy* threads, which self-regulate in
  // steady state: stages upstream of the bottleneck block on full
  // queues, stages downstream starve, so only the bottleneck keeps all
  // its threads busy. Solve the fixed point
  //
  //   t = (n_b / s_b) * r,  B = sum_i min(n_i, t * s_i / r),
  //   r = Footprint * min(1, C_eff(B) / B)
  //
  // where b is the bottleneck stage (max s_i / n_i).
  double TotalThreads = 0.0;
  for (unsigned E : Extents)
    TotalThreads += E;
  const double Footprint =
      1.0 / (1.0 + App.ThreadOverheadPenalty *
                       std::max(0.0, TotalThreads / C - 1.0));

  size_t Bottleneck = 0;
  for (size_t I = 1; I != Specs.size(); ++I) {
    if (Specs[I].ServiceSeconds / Extents[I] >
        Specs[Bottleneck].ServiceSeconds / Extents[Bottleneck])
      Bottleneck = I;
  }

  double Rate = Footprint;
  for (int Iteration = 0; Iteration != 100; ++Iteration) {
    const double T =
        static_cast<double>(Extents[Bottleneck]) /
        Specs[Bottleneck].ServiceSeconds * Rate;
    double Busy = 0.0;
    for (size_t I = 0; I != Specs.size(); ++I)
      Busy += std::min(static_cast<double>(Extents[I]),
                       T * Specs[I].ServiceSeconds /
                           std::max(Rate, 1e-12));
    const double CEff =
        C / (1.0 + App.OversubPenalty * std::max(0.0, Busy / C - 1.0));
    const double Next = Footprint * std::min(1.0, CEff / Busy);
    Rate = 0.5 * Rate + 0.5 * Next; // damped fixed-point iteration
  }
  return static_cast<double>(Extents[Bottleneck]) /
         Specs[Bottleneck].ServiceSeconds * Rate;
}

namespace {

/// Run-local simulation engine.
class Engine {
public:
  Engine(const PipelineAppModel &App, const PipelineSimOptions &Opts,
         const std::vector<Disturbance> &Disturbances,
         const ParDescriptor &Root, const Task &Driver, Mechanism *Mech,
         std::vector<unsigned> InitialExtents, FaultInjector *Faults)
      : App(App), Opts(Opts), Disturbances(Disturbances), Root(Root),
        Driver(Driver), Mech(Mech), Faults(Faults),
        ServiceRng(Opts.Seed ^ 0xabcdefULL), ArrivalRng(Opts.Seed),
        Completions(Opts.TraceWindowSeconds) {
    activateAlternative(0, std::move(InitialExtents));
    Features.registerFeature(
        "SystemPower", [this] { return currentPower(); },
        Opts.PowerSampleIntervalSeconds);
    // The one signal mechanisms need to re-plan around core loss
    // (MechanismContext::effectiveThreads reads it).
    Features.registerFeature("LiveContexts", [this] {
      return static_cast<double>(liveContexts());
    });
    Trace = Opts.TraceSink;
    Features.setTracer(Trace);
  }

  PipelineSimResult run();

private:
  struct Item {
    uint64_t Id = 0;
    double ArrivalTime = 0.0;
    double FirstStart = -1.0;
  };
  struct Service {
    size_t Stage = 0;
    Item It;
    double Remaining = 0.0;
    double StartTime = 0.0;
  };
  struct BlockedProducer {
    size_t Stage = 0;
    Item It;
  };
  struct StageMetrics {
    Ema ExecTime{0.3};
    Ema Load{0.3};
    double LastLoad = 0.0;
    uint64_t Invocations = 0;
  };

  const std::vector<PipelineStageSpec> &activeSpecs() const {
    return ActiveAlt == 1 ? App.FusedStages : App.Stages;
  }

  double currentPower() const {
    return Opts.Power.watts(static_cast<double>(Running.size()));
  }

  unsigned liveContexts() const {
    return DeadContexts >= Opts.Contexts ? 1u : Opts.Contexts - DeadContexts;
  }

  /// All items awaiting completion (batch-mode termination must account
  /// for items that can never complete: shed at admission or lost to a
  /// dropped hand-off).
  uint64_t itemsResolved() const { return ItemsDone + ItemsLost + ItemsShed; }

  double totalExtent() const {
    double Total = 0.0;
    for (unsigned E : Extents)
      Total += E;
    return Total;
  }

  /// Per-thread progress rate under the processor-sharing model. Killed
  /// contexts are gone: the sharing pool is the *live* context count.
  double rate() const {
    if (Paused)
      return 0.0;
    const double Busy = static_cast<double>(Running.size());
    if (Busy == 0.0)
      return 1.0;
    const double C = static_cast<double>(liveContexts());
    const double Footprint =
        1.0 / (1.0 + App.ThreadOverheadPenalty *
                         std::max(0.0, totalExtent() / C - 1.0));
    const double CEff =
        C / (1.0 + App.OversubPenalty * std::max(0.0, Busy / C - 1.0));
    return Footprint * std::min(1.0, CEff / Busy);
  }

  /// Applies elapsed virtual time to all running services.
  void advance() {
    const double Now = Events.now();
    const double Dt = Now - LastUpdate;
    if (Dt <= 0.0)
      return;
    const double Work = CurrentRate * Dt;
    for (Service &S : Running)
      S.Remaining = std::max(0.0, S.Remaining - Work);
    LastUpdate = Now;
  }

  void refreshRate() { CurrentRate = rate(); }

  /// (Re)schedules the single completion-horizon event.
  void rescheduleHorizon() {
    if (HorizonEvent != 0) {
      Events.cancel(HorizonEvent);
      HorizonEvent = 0;
    }
    if (Running.empty() || CurrentRate <= 0.0)
      return;
    double MinRemaining = Running.front().Remaining;
    for (const Service &S : Running)
      MinRemaining = std::min(MinRemaining, S.Remaining);
    HorizonEvent = Events.scheduleAfter(
        std::max(0.0, MinRemaining / CurrentRate) + 1e-12,
        [this] {
          HorizonEvent = 0;
          onHorizon();
        });
  }

  void onHorizon() {
    advance();
    // Complete every service that ran out of work (FIFO among ties).
    for (size_t I = 0; I < Running.size();) {
      if (Running[I].Remaining <= 1e-9) {
        Service Done = Running[I];
        Running.erase(Running.begin() + static_cast<long>(I));
        completeService(Done);
      } else {
        ++I;
      }
    }
    startServices();
    refreshRate();
    rescheduleHorizon();
  }

  void completeService(const Service &Done) {
    StageMetrics &M = Metrics[Done.Stage];
    M.ExecTime.addSample(Events.now() - Done.StartTime);
    ++M.Invocations;
    if (Trace && Opts.TraceTaskInstances)
      Trace->recordAt(Events.now(), TraceKind::TaskEnd,
                      activeSpecs()[Done.Stage].Name,
                      static_cast<double>(Done.It.Id),
                      Events.now() - Done.StartTime);

    const size_t Last = activeSpecs().size() - 1;
    if (Done.Stage == Last) {
      finishItem(Done.It);
      assert(InUse[Done.Stage] > 0 && "stage accounting underflow");
      --InUse[Done.Stage];
      return;
    }
    // Injected hand-off loss: the item vanishes between stages.
    if (Faults && Faults->dropHandoff()) {
      ++ItemsLost;
      assert(InUse[Done.Stage] > 0 && "stage accounting underflow");
      --InUse[Done.Stage];
      return;
    }
    // Hand off to the next stage's queue; block when full.
    if (Queues[Done.Stage + 1].size() < Opts.QueueCapacity) {
      Queues[Done.Stage + 1].push_back(Done.It);
      assert(InUse[Done.Stage] > 0 && "stage accounting underflow");
      --InUse[Done.Stage];
    } else {
      Blocked[Done.Stage].push_back({Done.Stage, Done.It});
    }
  }

  void finishItem(const Item &It) {
    ++ItemsDone;
    Completions.recordEvent(Events.now());
    if (ItemsDone > Opts.WarmupItems)
      Stats.recordTransaction(It.ArrivalTime,
                              It.FirstStart < 0.0 ? It.ArrivalTime
                                                  : It.FirstStart,
                              Events.now());
  }

  /// Pops the head of stage \p S's input queue, cascading unblocks.
  Item popInput(size_t S) {
    assert(!Queues[S].empty() && "pop from empty queue");
    Item It = Queues[S].front();
    Queues[S].pop_front();
    // A slot opened: an upstream blocked producer can push now.
    if (S > 0 && !Blocked[S - 1].empty()) {
      BlockedProducer P = Blocked[S - 1].front();
      Blocked[S - 1].pop_front();
      Queues[S].push_back(P.It);
      assert(InUse[S - 1] > 0 && "stage accounting underflow");
      --InUse[S - 1];
    } else if (S == 0) {
      feed();
    }
    return It;
  }

  /// Keeps the first stage's queue topped up (batch feeder + migration
  /// backlog).
  void feed() {
    while (Queues[0].size() < Opts.QueueCapacity) {
      if (!MigrationBacklog.empty()) {
        Queues[0].push_back(MigrationBacklog.front());
        MigrationBacklog.pop_front();
        continue;
      }
      if (Opts.OpenLoop || Fed >= Opts.NumItems)
        return;
      Queues[0].push_back({Fed, Events.now(), -1.0});
      ++Fed;
    }
  }

  void startServices() {
    if (Paused)
      return;
    const std::vector<PipelineStageSpec> &Specs = activeSpecs();
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t S = 0; S != Specs.size(); ++S) {
        while (InUse[S] < Extents[S] && !Queues[S].empty()) {
          Item It = popInput(S);
          if (It.FirstStart < 0.0)
            It.FirstStart = Events.now();
          Service Svc;
          Svc.Stage = S;
          Svc.It = It;
          Svc.StartTime = Events.now();
          // Instance record with parentage: stage S's instance for item
          // Id descends from stage S-1's instance for the same item (the
          // first stage's instances are roots). A = B = item id because
          // the per-stage instance id *is* the item id here.
          if (Trace && Opts.TraceTaskInstances)
            Trace->recordAt(Events.now(), TraceKind::TaskBegin, Specs[S].Name,
                            static_cast<double>(It.Id),
                            static_cast<double>(It.Id),
                            S == 0 ? std::string() : Specs[S - 1].Name);
          double Scale = DisturbFactor[S];
          if (Faults) {
            Scale *= stallFactor(S);
            Scale *= Faults->stragglerScale();
          }
          Svc.Remaining =
              ServiceRng.logNormal(Specs[S].ServiceSeconds * Scale,
                                   Specs[S].Cv) +
              CommOverhead[S];
          Running.push_back(Svc);
          ++InUse[S];
          Progress = true;
        }
      }
    }
  }

  /// Installs stage structures for alternative \p Alt with \p NewExtents
  /// (empty = all ones). Items still in the machine restart at stage 0.
  void activateAlternative(int Alt, std::vector<unsigned> NewExtents) {
    const std::vector<PipelineStageSpec> &Specs =
        Alt == 1 ? App.FusedStages : App.Stages;
    assert(!Specs.empty() && "activating an absent alternative");

    // Salvage in-flight items in rough pipeline order. Wedged replicas
    // are released here too: reconfiguration respawns stage replicas on
    // live contexts, so their items re-enter at the head of the pipeline.
    RingDeque<Item> Salvaged;
    if (!Queues.empty()) {
      for (size_t S = Queues.size(); S-- > 0;) {
        for (const Service &Svc : Running)
          if (Svc.Stage == S)
            Salvaged.push_back(Svc.It);
        for (const Service &Svc : Wedged)
          if (Svc.Stage == S)
            Salvaged.push_back(Svc.It);
        for (const BlockedProducer &P : Blocked[S])
          Salvaged.push_back(P.It);
        for (const Item &It : Queues[S])
          Salvaged.push_back(It);
      }
    }
    Running.clear();
    Wedged.clear();

    ActiveAlt = Alt;
    Queues.assign(Specs.size(), {});
    Blocked.assign(Specs.size(), {});
    InUse.assign(Specs.size(), 0);
    Metrics.assign(Specs.size(), StageMetrics());
    DisturbFactor.assign(Specs.size(), 1.0);
    if (NewExtents.empty())
      NewExtents.assign(Specs.size(), 1);
    assert(NewExtents.size() == Specs.size() && "extent arity mismatch");
    for (size_t I = 0; I != Specs.size(); ++I)
      if (!Specs[I].Parallel)
        NewExtents[I] = 1;
    Extents = std::move(NewExtents);
    recomputeCommOverhead();

    for (const Item &It : Salvaged)
      MigrationBacklog.push_back(It);
    feed();
  }

  /// Recomputes the per-item communication overhead each stage pays for
  /// its *input* hand-off, from the current placement.
  void recomputeCommOverhead() {
    CommOverhead.assign(Extents.size(), 0.0);
    if (Opts.Place == PlacementPolicy::None ||
        Opts.CommSecondsPerHop <= 0.0 || Extents.size() < 2)
      return;
    const bool Local = Opts.Place == PlacementPolicy::LocalityAware;
    const Placement P = Local ? placePartitioned(Opts.Topo, Extents)
                              : placeStriped(Opts.Topo, Extents);
    const RoutingPolicy Routing = Local
                                      ? RoutingPolicy::LocalityPreferring
                                      : RoutingPolicy::Uniform;
    for (size_t S = 1; S != Extents.size(); ++S)
      CommOverhead[S] = Opts.CommSecondsPerHop *
                        stageHandoffCost(Opts.Topo, P, S - 1, Routing);
  }

  /// Builds the snapshot of the running \p Config handed to the
  /// mechanism: stage metrics on the active alternative only.
  RegionSnapshot buildSnapshot(const RegionConfig &Config) const {
    const std::vector<Task *> &Active =
        Driver.descriptor()->alternative(ActiveAlt)->tasks();
    return snapshotRegion(Root, &Config.Tasks,
                          [&](const Task &T, size_t S, TaskSnapshot &TS) {
      if (&T == &Driver)
        TS.Invocations = ItemsDone;
      // Stage S of the active alternative; the same position in another
      // alternative is a different task and stays unmeasured.
      if (S >= Metrics.size() || Active[S] != &T)
        return;
      TS.ExecTime = Metrics[S].ExecTime.value();
      TS.Load = Metrics[S].Load.value();
      TS.LastLoad = Metrics[S].LastLoad;
      TS.Invocations = Metrics[S].Invocations;
    });
  }

  RegionConfig currentConfig() const {
    TaskConfig DriverConfig;
    DriverConfig.Extent = 1;
    DriverConfig.AltIndex = ActiveAlt;
    for (unsigned E : Extents) {
      TaskConfig TC;
      TC.Extent = E;
      DriverConfig.Inner.push_back(TC);
    }
    RegionConfig Config;
    Config.Tasks.push_back(std::move(DriverConfig));
    return Config;
  }

  void applyConfig(const RegionConfig &Config) {
    assert(Config.Tasks.size() == 1 && "driver-shaped config expected");
    const TaskConfig &DriverConfig = Config.Tasks.front();
    const int Alt = DriverConfig.AltIndex >= 0 ? DriverConfig.AltIndex : 0;
    std::vector<unsigned> NewExtents;
    for (const TaskConfig &TC : DriverConfig.Inner)
      NewExtents.push_back(TC.Extent);

    advance();
    if (Alt != ActiveAlt) {
      activateAlternative(Alt, std::move(NewExtents));
    } else {
      assert(NewExtents.size() == Extents.size() && "extent arity mismatch");
      const std::vector<PipelineStageSpec> &Specs = activeSpecs();
      for (size_t I = 0; I != Extents.size(); ++I)
        Extents[I] = Specs[I].Parallel ? std::max(1u, NewExtents[I]) : 1;
      recomputeCommOverhead();
      // Reconfiguration respawns the stages' task loops, which unwedges
      // replicas stuck on killed contexts: fresh replicas start on live
      // contexts and the stuck items restart at the head.
      for (const Service &Svc : Wedged) {
        assert(InUse[Svc.Stage] > 0 && "stage accounting underflow");
        --InUse[Svc.Stage];
        MigrationBacklog.push_back(Svc.It);
      }
      Wedged.clear();
      feed();
    }
    ++Reconfigs;
    if (Trace)
      Trace->recordAt(Events.now(), TraceKind::Reconfig, "sim",
                      totalThreads(Root, Config), 0.0,
                      toString(Root, Config));

    // Suspend/quiesce/respawn cost: nothing progresses for the pause.
    Paused = true;
    refreshRate();
    rescheduleHorizon();
    Events.scheduleAfter(Opts.ReconfigPauseSeconds, [this] {
      advance();
      Paused = false;
      startServices();
      refreshRate();
      rescheduleHorizon();
    });
  }

  void decisionTick() {
    if (itemsResolved() >= Opts.NumItems)
      return;
    advance();
    // Sample queue occupancies (the LoadCB signal).
    const std::vector<PipelineStageSpec> &Specs = activeSpecs();
    for (size_t S = 0; S != Queues.size(); ++S) {
      Metrics[S].LastLoad = static_cast<double>(Queues[S].size());
      Metrics[S].Load.addSample(Metrics[S].LastLoad);
      if (Trace)
        Trace->recordAt(Events.now(), TraceKind::QueueDepth, Specs[S].Name,
                        Metrics[S].LastLoad);
    }
    ThreadsTrace.addPoint(Events.now(), totalExtent());

    if (Mech) {
      MechanismContext Ctx;
      Ctx.MaxThreads = Opts.Contexts;
      Ctx.PowerBudgetWatts = Opts.PowerBudgetWatts;
      Ctx.Features = &Features;
      Ctx.NowSeconds = Events.now();
      Ctx.Trace = Trace;
      // No ceiling: the simulated platform time-shares oversubscribed
      // contexts and holds no lease (see NoThreadCeiling).
      const RegionConfig Config = currentConfig();
      ControlStepResult Step = controlStep(*Mech, Root, buildSnapshot(Config),
                                           Config, Ctx, NoThreadCeiling);
      InvalidProposals += Step.Outcome == StepOutcome::Invalid;
      if (Step.Outcome == StepOutcome::Accepted)
        applyConfig(*Step.Proposal);
    }
    Events.scheduleAfter(Opts.DecisionIntervalSeconds,
                         [this] { decisionTick(); });
  }

  void powerTick() {
    advance();
    PowerTrace.addPoint(Events.now(), currentPower());
    if (itemsResolved() >= Opts.NumItems)
      return;
    Events.scheduleAfter(Opts.PowerSampleIntervalSeconds,
                         [this] { powerTick(); });
  }

  void scheduleArrival() {
    if (Fed >= Opts.NumItems)
      return;
    // Burst/overload traces modulate the Poisson rate; an empty trace is
    // a constant load factor of 1.
    double LoadFactor = Opts.ArrivalTrace.phaseCount() > 0
                            ? Opts.ArrivalTrace.loadFactorAt(Events.now())
                            : 1.0;
    LoadFactor = std::max(LoadFactor, 1e-3);
    const double Gap = ArrivalRng.exponential(Opts.ArrivalRate * LoadFactor);
    Events.scheduleAfter(Gap, [this] {
      advance();
      PeakOuterQueue = std::max(PeakOuterQueue, Queues[0].size());
      // Admission control: shedding at the outer queue keeps occupancy
      // (and therefore response time) bounded under overload.
      if (Opts.AdmissionLimit > 0 &&
          Queues[0].size() >= Opts.AdmissionLimit) {
        ++ItemsShed;
        ++Fed;
      } else {
        Queues[0].push_back({Fed, Events.now(), -1.0});
        ++Fed;
        startServices();
        refreshRate();
        rescheduleHorizon();
      }
      scheduleArrival();
    });
  }

  void scheduleDisturbances() {
    for (const Disturbance &D : Disturbances) {
      Events.scheduleAt(D.Time, [this, D] {
        if (D.Stage < DisturbFactor.size())
          DisturbFactor[D.Stage] = D.Factor;
      });
      if (D.Duration > 0.0)
        Events.scheduleAt(D.Time + D.Duration, [this, D] {
          if (D.Stage < DisturbFactor.size())
            DisturbFactor[D.Stage] = 1.0;
        });
    }
  }

  void noteFault() {
    ++Incidents;
    if (FirstFaultTime < 0.0)
      FirstFaultTime = Events.now();
  }

  /// Removes \p Kill.Count contexts from the platform. A replica running
  /// on a killed context wedges: it keeps its stage slot (InUse) but
  /// leaves the processor-sharing pool, so the stage runs short-handed
  /// until a reconfiguration respawns it.
  void applyContextKill(const ContextKillEvent &Kill) {
    advance();
    noteFault();
    if (Trace)
      Trace->recordAt(Events.now(), TraceKind::Fault, "context-kill",
                      Kill.Count, liveContexts());
    const std::vector<PipelineStageSpec> &Specs = activeSpecs();
    for (unsigned K = 0; K != Kill.Count && DeadContexts + 1 < Opts.Contexts;
         ++K) {
      ++DeadContexts;
      // The victim is whichever replica ran on the killed context: a
      // random running service (sequential stages spared by default —
      // see ContextKillEvent::SpareSequentialStages).
      std::vector<size_t> Candidates;
      for (size_t I = 0; I != Running.size(); ++I)
        if (!Kill.SpareSequentialStages || Specs[Running[I].Stage].Parallel)
          Candidates.push_back(I);
      if (Candidates.empty())
        continue; // the killed context was idle
      const size_t Victim =
          Candidates[Faults->pickVictim(Candidates.size())];
      Wedged.push_back(Running[Victim]);
      Running.erase(Running.begin() + static_cast<long>(Victim));
      ++WedgedCount;
    }
    startServices();
    refreshRate();
    rescheduleHorizon();
  }

  void scheduleFaults() {
    if (!Faults)
      return;
    const FaultPlan &Plan = Faults->plan();
    for (const ContextKillEvent &Kill : Plan.Kills)
      Events.scheduleAt(Kill.Time,
                        [this, Kill] { applyContextKill(Kill); });
    for (size_t I = 0; I != Plan.Stalls.size(); ++I) {
      const StallEvent Stall = Plan.Stalls[I];
      // Active stalls are kept apart from DisturbFactor, which
      // activateAlternative resets on a mid-stall alternative switch.
      Events.scheduleAt(Stall.Time, [this, Stall, I] {
        noteFault();
        if (Trace)
          Trace->recordAt(Events.now(), TraceKind::Fault, "stall",
                          Stall.Factor, Stall.DurationSeconds);
        ActiveStalls.emplace_back(I, Stall);
      });
      Events.scheduleAt(Stall.Time + Stall.DurationSeconds, [this, I] {
        for (auto It = ActiveStalls.begin(); It != ActiveStalls.end(); ++It)
          if (It->first == I) {
            ActiveStalls.erase(It);
            break;
          }
      });
    }
  }

  /// Service-time inflation stage \p S currently suffers from transient
  /// stall episodes.
  double stallFactor(size_t S) const {
    double Factor = 1.0;
    for (const auto &[Id, Stall] : ActiveStalls)
      if (Stall.Stage < 0 || static_cast<size_t>(Stall.Stage) == S)
        Factor *= Stall.Factor;
    return Factor;
  }

  const PipelineAppModel &App;
  const PipelineSimOptions &Opts;
  const std::vector<Disturbance> &Disturbances;
  const ParDescriptor &Root;
  const Task &Driver;
  Mechanism *Mech;
  /// Fault injection; null when the run has no fault plan.
  FaultInjector *Faults;

  /// Structured trace sink (Opts.TraceSink), null when tracing is off.
  Tracer *Trace = nullptr;

  EventQueue Events;
  Rng ServiceRng;
  Rng ArrivalRng;
  FeatureRegistry Features;

  int ActiveAlt = 0;
  std::vector<unsigned> Extents;
  std::vector<RingDeque<Item>> Queues;
  std::vector<RingDeque<BlockedProducer>> Blocked;
  std::vector<unsigned> InUse;
  std::vector<StageMetrics> Metrics;
  std::vector<double> DisturbFactor;
  std::vector<double> CommOverhead;
  std::vector<Service> Running;
  RingDeque<Item> MigrationBacklog;

  uint64_t Fed = 0;
  uint64_t ItemsDone = 0;
  uint64_t Reconfigs = 0;
  uint64_t InvalidProposals = 0;
  bool Paused = false;
  double LastUpdate = 0.0;
  double CurrentRate = 1.0;
  EventId HorizonEvent = 0;

  // Fault state. Wedged replicas hold a stage slot (InUse) but are not in
  // Running, so they consume no CPU; a reconfiguration releases their
  // items into MigrationBacklog.
  unsigned DeadContexts = 0;
  std::vector<Service> Wedged;
  std::vector<std::pair<size_t, StallEvent>> ActiveStalls;
  uint64_t ItemsLost = 0;
  uint64_t ItemsShed = 0;
  uint64_t WedgedCount = 0;
  uint64_t Incidents = 0;
  double FirstFaultTime = -1.0;
  size_t PeakOuterQueue = 0;

  ResponseStats Stats;
  RateTracker Completions;
  TimeSeries PowerTrace{"power"};
  TimeSeries ThreadsTrace{"threads"};
};

PipelineSimResult Engine::run() {
  // Tracing runs in virtual time: retarget the tracer clock for the
  // duration of the run so mirrored log lines land in the same domain,
  // and restore it before this engine (captured by the clock) dies.
  Tracer *PrevActive = nullptr;
  if (Trace) {
    PrevActive = Tracer::active();
    Trace->setClock([this] { return Events.now(); });
    Tracer::setActive(Trace);
  }

  scheduleDisturbances();
  scheduleFaults();
  if (Opts.OpenLoop) {
    assert(Opts.ArrivalRate > 0.0 && "open loop needs an arrival rate");
    scheduleArrival();
  } else {
    feed();
  }
  startServices();
  refreshRate();
  rescheduleHorizon();
  Events.scheduleAfter(Opts.DecisionIntervalSeconds,
                       [this] { decisionTick(); });
  Events.scheduleAfter(Opts.PowerSampleIntervalSeconds,
                       [this] { powerTick(); });

  while (itemsResolved() < Opts.NumItems && Events.now() < Opts.MaxSimSeconds) {
    if (!Events.step(Opts.MaxSimSeconds))
      break;
  }
  if (itemsResolved() < Opts.NumItems)
    DOPE_LOG_WARN("pipeline sim ended early: %llu/%llu items (t=%.1fs)",
                  static_cast<unsigned long long>(ItemsDone),
                  static_cast<unsigned long long>(Opts.NumItems),
                  Events.now());

  Completions.finish(Events.now());

  PipelineSimResult Result;
  Result.ItemsCompleted = ItemsDone;
  Result.TotalSeconds = Events.now();
  Result.Throughput = Result.TotalSeconds > 0.0
                          ? static_cast<double>(ItemsDone) /
                                Result.TotalSeconds
                          : 0.0;
  Result.Stats = Stats;
  Result.ThroughputSeries = Completions.series();
  Result.PowerSeries = PowerTrace;
  Result.ThreadsSeries = ThreadsTrace;
  Result.Reconfigurations = Reconfigs;
  Result.InvalidProposals = InvalidProposals;
  Result.FinalExtents = Extents;
  Result.EndedFused = ActiveAlt == 1;
  Result.Faults.ContextsKilled = DeadContexts;
  Result.Faults.ReplicasWedged = WedgedCount;
  Result.Faults.Incidents = Incidents;
  Result.Faults.ItemsShed = ItemsShed;
  Result.Faults.ItemsDropped = ItemsLost;
  Result.FirstFaultTime = FirstFaultTime;
  Result.LiveContextsAtEnd = liveContexts();
  Result.PeakOuterQueue = PeakOuterQueue;

  if (Trace) {
    Trace->setClock({});
    if (Tracer::active() == Trace)
      Tracer::setActive(PrevActive);
  }
  return Result;
}

} // namespace

PipelineSimResult PipelineSim::run(Mechanism *Mech,
                                   std::vector<unsigned> InitialExtents) {
  if (Mech)
    Mech->reset();
  FaultInjector Injector(Faults, Opts.Seed);
  Engine E(App, Opts, Disturbances, *Root, *Driver, Mech,
           std::move(InitialExtents),
           Faults.empty() ? nullptr : &Injector);
  return E.run();
}
