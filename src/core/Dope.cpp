//===- core/Dope.cpp - The Degree of Parallelism Executive -----------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Dope.h"

#include "core/ControlStep.h"

#include "support/Clock.h"
#include "support/Compiler.h"
#include "support/Logging.h"

#include <algorithm>
#include <cassert>

using namespace dope;

Mechanism::~Mechanism() = default;

namespace dope {

/// Shared state of one region epoch. Replicas reach it through a
/// shared_ptr captured by their pool job, so a replica the quiesce
/// watchdog abandoned can still count down after the spawning runRegion
/// frame returned.
struct RegionRunState {
  /// Countdown latch used to join the epoch's replicas.
  class Latch {
  public:
    explicit Latch(unsigned Count) : Count(Count) {}

    void countDown() {
      std::lock_guard<std::mutex> Lock(Mutex);
      assert(Count > 0 && "latch underflow");
      if (--Count == 0)
        Cond.notify_all();
    }

    void wait() {
      std::unique_lock<std::mutex> Lock(Mutex);
      Cond.wait(Lock, [this] { return Count == 0; });
    }

    /// Returns true when the latch reached zero within \p Seconds.
    bool waitFor(double Seconds) {
      std::unique_lock<std::mutex> Lock(Mutex);
      return Cond.wait_for(Lock, secondsDuration(Seconds),
                           [this] { return Count == 0; });
    }

  private:
    std::mutex Mutex;
    std::condition_variable Cond;
    unsigned Count;
  };

  RegionRunState(const ParDescriptor &TheRegion, RegionConfig TheConfig,
                 void *UserContext, unsigned TotalReplicas,
                 const RegionRunState *Parent, std::string SpawnerName,
                 unsigned SpawnerReplica)
      : Region(&TheRegion), Config(std::move(TheConfig)),
        UserContext(UserContext), Parent(Parent),
        SpawnerName(std::move(SpawnerName)), SpawnerReplica(SpawnerReplica),
        Done(TotalReplicas), Remaining(Config.Tasks.size()),
        FiniDone(Config.Tasks.size()) {
    for (size_t I = 0; I != Config.Tasks.size(); ++I)
      Remaining[I].store(Config.Tasks[I].Extent, std::memory_order_relaxed);
  }

  /// Runs task \p TaskIndex's FiniCB exactly once per epoch, whether the
  /// last replica triggers it naturally, the watchdog forces it early, or
  /// a permanent failure aborts the epoch. Const because abort paths only
  /// hold const pointers to ancestor epochs.
  void finiOnce(size_t TaskIndex) const {
    if (!FiniDone[TaskIndex].exchange(true, std::memory_order_acq_rel))
      Region->tasks()[TaskIndex]->runFini();
  }

  bool abandoned() const {
    return Abandoned.load(std::memory_order_acquire) ||
           (Parent && Parent->abandoned());
  }

  const ParDescriptor *Region;
  const RegionConfig Config;
  void *UserContext;
  const RegionRunState *Parent;
  /// Task name and replica index of the parent replica whose Task::wait
  /// opened this region; empty name for the root region. Stamped into
  /// every replica's TaskBegin record (B = replica, Detail = name) so
  /// offline analysis can rebuild the spawn DAG.
  const std::string SpawnerName;
  const unsigned SpawnerReplica;
  Latch Done;
  std::vector<std::atomic<unsigned>> Remaining;
  mutable std::vector<std::atomic<bool>> FiniDone;
  std::atomic<unsigned> MasterFinished{0};
  std::atomic<bool> Failed{false};
  std::atomic<bool> Abandoned{false};
};

} // namespace dope

//===----------------------------------------------------------------------===//
// TaskRuntime
//===----------------------------------------------------------------------===//

bool TaskRuntime::abandoned() const { return Run && Run->abandoned(); }

DOPE_HOT TaskStatus TaskRuntime::begin() {
  BeginTime = monotonicSeconds();
  if (Tracer *Tr = Executive.Trace) {
    if (Run && !Run->SpawnerName.empty())
      Tr->recordAt(BeginTime, TraceKind::TaskBegin, TheTask.name(), Replica,
                   Run->SpawnerReplica, Run->SpawnerName);
    else
      Tr->recordAt(BeginTime, TraceKind::TaskBegin, TheTask.name(), Replica);
  }
  if (Executive.StopFlag.load(std::memory_order_acquire) ||
      Executive.suspendRequested() || abandoned())
    return TaskStatus::Suspended;
  return TaskStatus::Executing;
}

DOPE_COLD void TaskRuntime::flushWindow() {
  if (Window.Count == 0)
    return;
  Executive.metricsFor(TheTask).recordExecTimeBatch(Window.Count,
                                                    Window.TotalSeconds);
  Window.Count = 0;
  Window.TotalSeconds = 0.0;
}

DOPE_HOT TaskStatus TaskRuntime::end() {
  if (BeginTime >= 0.0) {
    const double Now = monotonicSeconds();
    const double Elapsed = Now - BeginTime;
    // Accumulate locally; flush to the shared TaskMetrics in batches so
    // monitoring "each and every instance" costs two loads and two adds
    // per instance, not a mutex round-trip.
    if (Window.Count == 0)
      Window.FirstSampleTime = Now;
    ++Window.Count;
    Window.TotalSeconds += Elapsed;
    if (Window.Count >= WindowMaxSamples ||
        Now - Window.FirstSampleTime >= WindowMaxSeconds)
      flushWindow();
    BeginTime = -1.0;
    if (Tracer *Tr = Executive.Trace)
      Tr->recordAt(Now, TraceKind::TaskEnd, TheTask.name(), Replica, Elapsed);
  }
  if (Executive.StopFlag.load(std::memory_order_acquire) ||
      Executive.suspendRequested() || abandoned())
    return TaskStatus::Suspended;
  return TaskStatus::Executing;
}

TaskStatus TaskRuntime::wait(void *InnerContext) {
  if (Tracer *Tr = Executive.Trace)
    Tr->record(TraceKind::TaskWait, TheTask.name(), Replica);
  return Executive.runInnerRegion(TheTask, Replica, Config, InnerContext, Run);
}

double TaskRuntime::nowSeconds() const { return monotonicSeconds(); }

//===----------------------------------------------------------------------===//
// Construction / lifecycle
//===----------------------------------------------------------------------===//

static void collectTasks(const ParDescriptor &Region,
                         std::vector<const Task *> &Out) {
  for (Task *T : Region.tasks()) {
    Out.push_back(T);
    for (ParDescriptor *Alt : T->descriptor()->alternatives())
      collectTasks(*Alt, Out);
  }
}

Dope::Dope(ParDescriptor *Root, DopeOptions Opts)
    : Root(Root), Options(std::move(Opts)) {
  assert(Root && "root region required");
  assert(Options.MaxThreads >= 1 && "need at least one thread");
  Envelope.store(Options.MaxThreads, std::memory_order_release);
  // The full-machine envelope an executive starts with counts as
  // granted now; the TTL clock (when enabled) starts here.
  EnvelopeRenewedAt.store(monotonicSeconds(), std::memory_order_release);

  if (Options.InitialConfig.Tasks.empty())
    ActiveConfig = defaultConfig(*Root);
  else
    ActiveConfig = Options.InitialConfig;

  std::string Error;
  if (!validateConfig(*Root, ActiveConfig, &Error)) {
    DOPE_LOG_ERROR("invalid initial configuration: %s", Error.c_str());
    assert(false && "invalid initial configuration");
    ActiveConfig = defaultConfig(*Root);
  }

  std::vector<const Task *> AllTasks;
  collectTasks(*Root, AllTasks);
  for (const Task *T : AllTasks) {
    if (T->id() >= Metrics.size())
      Metrics.resize(T->id() + 1);
    Metrics[T->id()] = std::make_unique<TaskMetrics>();
  }

  // Mechanisms size configurations against the live budget
  // (MechanismContext::effectiveThreads); the native platform loses
  // contexts when the watchdog writes off wedged replicas.
  Features.registerFeature(
      "LiveContexts", [this] { return static_cast<double>(liveThreads()); });

  if (Options.Trace) {
    Trace = Options.Trace;
  } else if (!Options.TraceFile.empty()) {
    OwnedTrace = std::make_unique<Tracer>(Options.TraceCapacityPerThread);
    Trace = OwnedTrace.get();
  }
  if (Trace) {
    Features.setTracer(Trace);
    // All executive records are stamped with monotonicSeconds (seconds
    // since process-local origin); retarget the tracer's clock so
    // records it stamps itself (waits, decisions, faults, mirrored log
    // lines) share that domain instead of raw steady_clock time.
    Trace->setClock([] { return monotonicSeconds(); });
    // Route log lines into the trace (shared timestamp domain). Only an
    // owned tracer claims the process-wide slot; external tracers are
    // activated by their owner.
    if (OwnedTrace && !Tracer::active())
      Tracer::setActive(Trace);
  }
}

unsigned Dope::liveThreads() const {
  const unsigned Env = Envelope.load(std::memory_order_acquire);
  const unsigned Lost = LostThreads.load(std::memory_order_acquire);
  return Lost >= Env ? 1u : Env - Lost;
}

void Dope::renewThreadEnvelope() {
  EnvelopeRenewedAt.store(monotonicSeconds(), std::memory_order_release);
}

void Dope::setThreadEnvelope(unsigned Threads) {
  const unsigned New = std::clamp(Threads, 1u, Options.MaxThreads);
  // Any envelope message from the arbiter — including a re-grant of the
  // current value — proves the arbiter is alive and renews the lease.
  renewThreadEnvelope();
  const unsigned Old = Envelope.exchange(New, std::memory_order_acq_rel);
  if (New == Old)
    return;
  if (Trace)
    Trace->record(New < Old ? TraceKind::LeaseRevoke : TraceKind::LeaseGrant,
                  "envelope", New, Old);
  DOPE_LOG_DEBUG("thread envelope %u -> %u", Old, New);
  // A shrink below the running footprint must be realized through the
  // quiesce path: request a suspend so runMain re-enters the region with
  // the configuration degraded to the new live budget. Growth needs no
  // interruption — the next mechanism consult sees the wider ceiling.
  bool ShrinkBelowActive = false;
  {
    std::lock_guard<std::mutex> Lock(ConfigMutex);
    ShrinkBelowActive =
        New < Old && totalThreads(*Root, ActiveConfig) > liveThreads();
  }
  if (ShrinkBelowActive)
    SuspendFlag.store(true, std::memory_order_release);
}

std::unique_ptr<Dope> Dope::create(ParDescriptor *Root, DopeOptions Opts) {
  // Cannot use std::make_unique with a private constructor.
  std::unique_ptr<Dope> D(new Dope(Root, std::move(Opts)));
  D->MainThread = std::thread([Raw = D.get()] { Raw->runMain(); });
  D->ControllerThread = std::thread([Raw = D.get()] { Raw->runController(); });
  return D;
}

void Dope::destroy(std::unique_ptr<Dope> D) {
  assert(D && "destroying a null executive");
  D->wait();
  D.reset();
}

Dope::~Dope() {
  // An executive destroyed before natural completion stops the
  // application in an orderly fashion.
  if (!Finished.load(std::memory_order_acquire))
    requestStop();
  if (MainThread.joinable())
    MainThread.join();
  if (ControllerThread.joinable())
    ControllerThread.join();

  if (Trace) {
    if (!Options.TraceFile.empty()) {
      std::string Error;
      if (!writeTraceFile(Trace->drain(), Options.TraceFile, &Error))
        DOPE_LOG_WARN("trace: %s", Error.c_str());
    }
    // Hand an external tracer back on its default clock.
    Trace->setClock({});
  }
}

TaskStatus Dope::wait() {
  std::unique_lock<std::mutex> Lock(DoneMutex);
  DoneCond.wait(Lock,
                [this] { return Finished.load(std::memory_order_acquire); });
  return FailFlag.load(std::memory_order_acquire) ? TaskStatus::Failed
                                                  : TaskStatus::Finished;
}

bool Dope::waitFor(double Seconds) {
  std::unique_lock<std::mutex> Lock(DoneMutex);
  return DoneCond.wait_for(
      Lock, secondsDuration(Seconds),
      [this] { return Finished.load(std::memory_order_acquire); });
}

TaskStatus Dope::status() const {
  if (!Finished.load(std::memory_order_acquire))
    return TaskStatus::Executing;
  return FailFlag.load(std::memory_order_acquire) ? TaskStatus::Failed
                                                  : TaskStatus::Finished;
}

bool Dope::finished() const {
  return Finished.load(std::memory_order_acquire);
}

void Dope::requestStop() {
  StopFlag.store(true, std::memory_order_release);
  SuspendFlag.store(true, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Mechanism-developer API
//===----------------------------------------------------------------------===//

double Dope::getExecTime(const Task *T) const {
  const TaskMetrics *M = metricsForIfPresent(*T);
  return M ? M->execTime() : 0.0;
}

double Dope::getLoad(const Task *T) const {
  const TaskMetrics *M = metricsForIfPresent(*T);
  return M ? M->load() : 0.0;
}

void Dope::registerCB(const std::string &Feature, FeatureFn Callback,
                      double MinSampleIntervalSeconds) {
  Features.registerFeature(Feature, std::move(Callback),
                           MinSampleIntervalSeconds);
}

std::optional<double> Dope::getValue(const std::string &Feature) const {
  return Features.getValue(Feature, monotonicSeconds());
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

RegionConfig Dope::currentConfig() const {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  return ActiveConfig;
}

uint64_t Dope::reconfigurationCount() const {
  return ReconfigCount.load(std::memory_order_acquire);
}

TaskMetrics &Dope::metricsFor(const Task &T) {
  assert(T.id() < Metrics.size() && Metrics[T.id()] &&
         "task not registered with this executive");
  return *Metrics[T.id()];
}

const TaskMetrics *Dope::metricsForIfPresent(const Task &T) const {
  return T.id() < Metrics.size() ? Metrics[T.id()].get() : nullptr;
}

RegionSnapshot Dope::snapshot() const {
  const RegionConfig Config = currentConfig();
  return snapshotRegion(*Root, &Config.Tasks,
                        [this](const Task &T, size_t, TaskSnapshot &TS) {
                          const TaskMetrics *M = metricsForIfPresent(T);
                          if (!M)
                            return;
                          TS.ExecTime = M->execTime();
                          TS.Load = M->load();
                          TS.LastLoad = M->lastLoad();
                          TS.Invocations = M->invocations();
                        });
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

/// Collects pointers to every TaskConfig in the tree, inner levels
/// included.
static void collectTaskConfigs(std::vector<TaskConfig> &Tasks,
                               std::vector<TaskConfig *> &Out) {
  for (TaskConfig &TC : Tasks) {
    Out.push_back(&TC);
    collectTaskConfigs(TC.Inner, Out);
  }
}

/// Shrinks \p Config until it occupies at most \p Budget threads by
/// repeatedly decrementing the widest extent (> 1). Returns true when the
/// configuration changed. May stop above budget when every extent is
/// already 1 (the minimal configuration).
static bool degradeConfigToBudget(const ParDescriptor &Region,
                                  RegionConfig &Config, unsigned Budget) {
  bool Changed = false;
  while (totalThreads(Region, Config) > Budget) {
    std::vector<TaskConfig *> All;
    collectTaskConfigs(Config.Tasks, All);
    TaskConfig *Widest = nullptr;
    for (TaskConfig *TC : All)
      if (TC->Extent > 1 && (!Widest || TC->Extent > Widest->Extent))
        Widest = TC;
    if (!Widest)
      break;
    --Widest->Extent;
    Changed = true;
  }
  return Changed;
}

void Dope::runMain() {
  for (;;) {
    RegionConfig Config;
    {
      std::lock_guard<std::mutex> Lock(ConfigMutex);
      if (HasPendingConfig) {
        ActiveConfig = PendingConfig;
        HasPendingConfig = false;
        ReconfigCount.fetch_add(1, std::memory_order_acq_rel);
        if (Trace)
          Trace->record(TraceKind::Reconfig, "apply",
                        totalThreads(*Root, ActiveConfig), 0.0,
                        toString(*Root, ActiveConfig));
      }
      // Contexts wedged inside abandoned replicas shrink the budget;
      // clamp the next epoch so it does not overcommit what is left.
      const unsigned Live = liveThreads();
      if (totalThreads(*Root, ActiveConfig) > Live &&
          degradeConfigToBudget(*Root, ActiveConfig, Live)) {
        DOPE_LOG_WARN("degraded configuration to %s (%u live contexts)",
                      toString(*Root, ActiveConfig).c_str(), Live);
        if (Trace)
          Trace->record(TraceKind::Reconfig, "degrade",
                        totalThreads(*Root, ActiveConfig), Live,
                        toString(*Root, ActiveConfig));
      }
      Config = ActiveConfig;
    }
    if (StopFlag.load(std::memory_order_acquire))
      break;

    // A fresh epoch starts with the suspend request cleared.
    SuspendFlag.store(false, std::memory_order_release);

    const TaskStatus Status = runRegion(*Root, Config, nullptr, /*IsRoot=*/true);
    if (Status == TaskStatus::Finished)
      break;
    if (Status == TaskStatus::Failed) {
      FailFlag.store(true, std::memory_order_release);
      break;
    }
    assert(Status == TaskStatus::Suspended && "unexpected region status");
    if (StopFlag.load(std::memory_order_acquire))
      break;
    // Loop: apply any pending configuration and re-enter the region.
  }

  {
    std::lock_guard<std::mutex> Lock(DoneMutex);
    Finished.store(true, std::memory_order_release);
  }
  DoneCond.notify_all();
}

TaskStatus Dope::runRegion(const ParDescriptor &Region,
                           const RegionConfig &Config, void *UserContext,
                           bool IsRoot, const RegionRunState *Parent,
                           const std::string &SpawnerName,
                           unsigned SpawnerReplica) {
  assert(Config.Tasks.size() == Region.size() && "config arity mismatch");
  const std::vector<Task *> &Tasks = Region.tasks();

  // InitCBs restore consistency before the parallel region is (re)entered.
  for (Task *T : Tasks)
    T->runInit();

  unsigned TotalReplicas = 0;
  for (const TaskConfig &TC : Config.Tasks)
    TotalReplicas += TC.Extent;

  auto Run =
      std::make_shared<RegionRunState>(Region, Config, UserContext,
                                       TotalReplicas, Parent, SpawnerName,
                                       SpawnerReplica);

  const unsigned MasterExtent = Config.Tasks[0].Extent;

  // Captures the shared epoch state by value: a replica abandoned by the
  // watchdog outlives this frame and must not touch its locals.
  auto RunReplica = [this](const std::shared_ptr<RegionRunState> &R,
                           size_t TaskIndex, unsigned Replica) {
    const Task &T = *R->Region->tasks()[TaskIndex];
    const TaskStatus Status =
        taskLoop(T, R->Config.Tasks[TaskIndex], Replica, R->UserContext, *R);
    if (TaskIndex == 0 && Status == TaskStatus::Finished)
      R->MasterFinished.fetch_add(1, std::memory_order_acq_rel);
    // The last replica of a task to stop runs the task's FiniCB, which
    // lets downstream tasks drain to a consistent state (sentinels,
    // queue closure). finiOnce keeps that exactly-once even when the
    // watchdog forced the FiniCB ahead of a stuck replica.
    if (R->Remaining[TaskIndex].fetch_sub(1, std::memory_order_acq_rel) == 1)
      R->finiOnce(TaskIndex);
    R->Done.countDown();
  };

  // Spawn all replicas except the master's replica 0, which runs on the
  // calling thread (the paper's master-task role).
  for (size_t I = 0; I != Tasks.size(); ++I) {
    const unsigned Extent = Config.Tasks[I].Extent;
    for (unsigned R = 0; R != Extent; ++R) {
      if (I == 0 && R == 0)
        continue;
      Pool.submit([RunReplica, Run, I, R] { RunReplica(Run, I, R); });
    }
  }
  RunReplica(Run, 0, 0);

  // Quiesce watchdog (root epochs only): once the master replica stopped
  // on this thread, the remaining replicas get QuiesceDeadlineSeconds to
  // stop. A stuck replica must not deadlock the executive.
  const double Deadline = IsRoot ? Options.QuiesceDeadlineSeconds : 0.0;
  if (Deadline <= 0.0) {
    Run->Done.wait();
  } else if (!Run->Done.waitFor(Deadline)) {
    Run->Abandoned.store(true, std::memory_order_release);
    for (size_t I = 0; I != Tasks.size(); ++I) {
      if (Run->Remaining[I].load(std::memory_order_acquire) == 0)
        continue;
      Log.recordIncident();
      if (Trace)
        Trace->record(TraceKind::Fault, "watchdog", Deadline, 0.0,
                      Tasks[I]->name() + " missed quiesce deadline");
      DOPE_LOG_WARN("watchdog: task '%s' missed the %.3fs quiesce deadline; "
                    "forcing its FiniCB",
                    Tasks[I]->name().c_str(), Deadline);
      // Forcing the FiniCB closes the task's downstream queues, which is
      // what replicas blocked on a starved hand-off are waiting for.
      Run->finiOnce(I);
    }
    // Grace window: stragglers unblocked by the forced closes drain out;
    // whoever is still running is written off as lost capacity.
    if (!Run->Done.waitFor(Deadline)) {
      unsigned Lost = 0;
      for (std::atomic<unsigned> &Rem : Run->Remaining)
        Lost += Rem.load(std::memory_order_acquire);
      if (Lost != 0) {
        LostThreads.fetch_add(Lost, std::memory_order_acq_rel);
        if (Trace)
          Trace->record(TraceKind::Fault, "lost-contexts", Lost,
                        liveThreads());
        DOPE_LOG_WARN("watchdog: abandoned %u stuck replica(s); "
                      "%u live context(s) remain",
                      Lost, liveThreads());
      }
    }
  }

  if (Run->Failed.load(std::memory_order_acquire))
    return TaskStatus::Failed;
  return Run->MasterFinished.load(std::memory_order_acquire) == MasterExtent
             ? TaskStatus::Finished
             : TaskStatus::Suspended;
}

void Dope::recordReplicaFailure(const Task &T, unsigned Replica,
                                std::string Message, unsigned Attempts,
                                RegionRunState &Run) {
  TaskFailure F;
  F.TaskId = T.id();
  F.TaskName = T.name();
  F.Replica = Replica;
  F.Message = std::move(Message);
  F.TimeSeconds = monotonicSeconds();
  F.Attempts = Attempts;
  const std::string Description = toString(F);
  if (Trace)
    Trace->record(TraceKind::Fault, "task-failure", Replica, Attempts,
                  Description);
  if (Log.recordFailure(std::move(F)))
    DOPE_LOG_ERROR("%s", Description.c_str());
  Run.Failed.store(true, std::memory_order_release);
  // Ask the rest of the application to quiesce; the epoch resolves FAILED
  // once its replicas stop.
  SuspendFlag.store(true, std::memory_order_release);
  // A permanent failure aborts the run, so force every FiniCB in the
  // failing epoch and its ancestors (exactly once each — finiOnce). The
  // closes unblock replicas wedged on full or empty queues: a producer
  // blocked pushing toward the dead task can never be drained by it, and
  // without the forced close it would never observe the suspend.
  for (const RegionRunState *R = &Run; R; R = R->Parent)
    for (size_t I = 0; I != R->Region->tasks().size(); ++I)
      R->finiOnce(I);
}

TaskStatus Dope::taskLoop(const Task &T, const TaskConfig &Config,
                          unsigned Replica, void *UserContext,
                          RegionRunState &Run) {
  TaskRuntime RT(*this, T, Config, Replica, UserContext, &Run);
  const RetryPolicy &Policy = T.descriptor()->retryPolicy();
  const unsigned MaxAttempts = std::max(1u, Policy.MaxAttempts);
  unsigned Attempts = 0;
  double Backoff = Policy.BackoffSeconds;
  for (;;) {
    if (Run.abandoned())
      return TaskStatus::Suspended;

    TaskStatus Status = TaskStatus::Executing;
    std::string Error;
    bool Threw = false;
    try {
      Status = T.invoke(RT);
    } catch (const std::exception &E) {
      Threw = true;
      Error = E.what();
    } catch (...) {
      Threw = true;
      Error = "non-standard exception";
    }

    if (!Threw) {
      if (Status == TaskStatus::Executing) {
        // A clean instance ends the failure streak.
        Attempts = 0;
        Backoff = Policy.BackoffSeconds;
        continue;
      }
      if (Status == TaskStatus::Failed)
        recordReplicaFailure(T, Replica, "functor reported failure", 1, Run);
      return Status;
    }

    ++Attempts;
    if (Attempts < MaxAttempts &&
        !StopFlag.load(std::memory_order_acquire) && !Run.abandoned()) {
      Log.recordRetry();
      if (Trace)
        Trace->record(TraceKind::Fault, "retry", Replica, Attempts,
                      T.name() + ": " + Error);
      DOPE_LOG_DEBUG("task '%s' replica %u threw (%s); retry %u/%u",
                     T.name().c_str(), Replica, Error.c_str(), Attempts,
                     MaxAttempts - 1);
      if (Backoff > 0.0) {
        sleepSeconds(Backoff);
        Backoff *= Policy.BackoffMultiplier;
      }
      continue;
    }
    recordReplicaFailure(T, Replica, std::move(Error), Attempts, Run);
    return TaskStatus::Failed;
  }
}

TaskStatus Dope::runInnerRegion(const Task &Parent, unsigned ParentReplica,
                                const TaskConfig &Config, void *UserContext,
                                const RegionRunState *ParentRun) {
  if (Config.AltIndex < 0)
    return TaskStatus::Finished;
  const ParDescriptor *Inner =
      Parent.descriptor()->alternative(static_cast<size_t>(Config.AltIndex));
  RegionConfig InnerConfig;
  InnerConfig.Tasks = Config.Inner;
  return runRegion(*Inner, InnerConfig, UserContext, /*IsRoot=*/false,
                   ParentRun, Parent.name(), ParentReplica);
}

//===----------------------------------------------------------------------===//
// Controller
//===----------------------------------------------------------------------===//

void Dope::runController() {
  while (!Finished.load(std::memory_order_acquire) &&
         !StopFlag.load(std::memory_order_acquire)) {
    sleepSeconds(Options.MonitorIntervalSeconds);
    if (Finished.load(std::memory_order_acquire))
      break;

    // Envelope lease TTL: an arbiter that stopped renewing may be dead
    // or partitioned — treat the unrenewed envelope as expired and
    // shrink gracefully to the self-preservation floor through the
    // ordinary quiesce path (setThreadEnvelope suspends the epoch if the
    // active footprint exceeds the floor; nothing is killed). The shrink
    // itself renews the lease timestamp, so expiry fires once; a later
    // renewal or re-grant restores the wider ceiling.
    if (Options.EnvelopeTtlSeconds > 0.0) {
      const unsigned Floor =
          std::clamp(Options.EnvelopeExpireFloor, 1u, Options.MaxThreads);
      const double Renewed =
          EnvelopeRenewedAt.load(std::memory_order_acquire);
      if (threadEnvelope() > Floor &&
          monotonicSeconds() >= Renewed + Options.EnvelopeTtlSeconds) {
        if (Trace)
          Trace->record(TraceKind::LeaseExpire, "envelope",
                        static_cast<double>(Floor),
                        static_cast<double>(threadEnvelope()), "ttl");
        DOPE_LOG_WARN("thread envelope lease expired (no renewal in %.3fs); "
                      "shrinking %u -> %u",
                      Options.EnvelopeTtlSeconds, threadEnvelope(), Floor);
        setThreadEnvelope(Floor);
      }
    }

    // Sample application load features.
    std::vector<const Task *> AllTasks;
    collectTasks(*Root, AllTasks);
    for (const Task *T : AllTasks)
      if (T->hasLoadCallback()) {
        const double Load = T->sampleLoad();
        metricsFor(*T).recordLoad(Load);
        if (Trace)
          Trace->record(TraceKind::QueueDepth, T->name(), Load);
      }

    if (!Options.Mech)
      continue;

    const double Now = monotonicSeconds();
    if (Now - LastReconfigTime < Options.MinReconfigIntervalSeconds)
      continue;

    MechanismContext Ctx;
    Ctx.MaxThreads = Options.MaxThreads;
    Ctx.PowerBudgetWatts = Options.PowerBudgetWatts;
    Ctx.Features = &Features;
    Ctx.NowSeconds = Now;
    Ctx.Trace = Trace;

    const RegionConfig Current = currentConfig();
    const unsigned Envelope = threadEnvelope();
    ControlStepResult Step = controlStep(*Options.Mech, *Root, snapshot(),
                                         Current, Ctx, Envelope);
    if (Step.Outcome == StepOutcome::Invalid)
      DOPE_LOG_WARN("mechanism '%s' produced invalid config: %s",
                    Options.Mech->name().c_str(), Step.Error.c_str());
    else if (Step.Outcome == StepOutcome::OverCeiling)
      DOPE_LOG_WARN("mechanism '%s' exceeded thread envelope (%u > %u)",
                    Options.Mech->name().c_str(),
                    totalThreads(*Root, *Step.Proposal), Envelope);
    if (Step.Outcome != StepOutcome::Accepted)
      continue;
    const RegionConfig &Next = *Step.Proposal;

    {
      std::lock_guard<std::mutex> Lock(ConfigMutex);
      PendingConfig = Next;
      HasPendingConfig = true;
    }
    SuspendFlag.store(true, std::memory_order_release);
    LastReconfigTime = Now;
    DOPE_LOG_DEBUG("reconfiguring to %s", toString(*Root, Next).c_str());
  }
}
