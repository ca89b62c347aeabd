//===- dopebench/src/NativeServer.cpp - native_server workload ------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (examples/transcode_server.cpp) on real
/// threads with tracing off: an outer DOALL over video requests whose
/// inner region is a decode -> transform -> encode pipeline, adapted by
/// WQT-H under a thread budget of NativeThreadBudget. One generator thread
/// (the caller) submits requests open-loop on a seeded Poisson schedule
/// that alternates light and burst phases, so WQT-H flips between the
/// pipelined latency mode and the sequential throughput mode several
/// times per round. Latency runs from each request's due time.
///
/// A round builds the graph, creates the executive and serves a closed
/// warm-up batch (set-up), then replays one schedule (the timed job), then
/// tears down and verifies every video against a sequential reference.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "apps/NativeKernels.h"
#include "core/Dope.h"
#include "mechanisms/WqtH.h"
#include "queue/WorkQueue.h"
#include "workload/Arrivals.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <condition_variable>
#include <cstdio>
#include <thread>

using namespace dope;
using namespace dopebench;

namespace {

// Per-frame work of the three stages is roughly balanced, so the
// pipelined inner region cuts one video's latency while the sequential
// mode serves more videos at once, the trade WQT-H rides.
constexpr uint32_t FramesPerVideo = 16;
constexpr size_t FrameBytes = 2048;
constexpr unsigned TransformPasses = 24;
constexpr uint64_t DecodeIterations = 12000;
constexpr uint64_t EncodeIterations = 12000;
/// Distinct videos; requests pick one, so references are computed once.
constexpr unsigned Titles = 24;

/// Open-loop schedule of one round: Cycles x (light phase, burst phase).
/// A burst is a short Poisson spike far above capacity, so its backlog is
/// set by the number of requests it brings rather than by how close the
/// offered rate sits to the service rate; the tail it leaves then scales
/// with the service time instead of blowing up near saturation.
constexpr unsigned Cycles = 2;
constexpr double LightSeconds = 0.50;
constexpr double LightRate = 200.0;
constexpr double BurstSeconds = 0.005;
constexpr double BurstRate = 5000.0;
/// Requests served closed-loop during set-up.
constexpr unsigned WarmupRequests = 12;
/// Latency limit behind slo_attain (stated in BENCHMARK.json).
constexpr double SloSeconds = 0.050;
/// Requests pooled into one latency window: enough that its 99th
/// percentile has twenty samples beyond it.
constexpr size_t WindowRequests = 2000;

uint64_t titleSeed(uint64_t RunSeed, unsigned Title) {
  return hashWork(RunSeed * 0x100000001b3ULL + Title, 4);
}

Frame decodeFrame(uint64_t TitleSeed, uint32_t Index) {
  return makeFrame(Index, FrameBytes,
                   hashWork(TitleSeed ^ Index, DecodeIterations));
}

uint64_t encodeFrame(const Frame &F) {
  return hashWork(frameChecksum(F), EncodeIterations);
}

uint64_t transcodeSequential(uint64_t TitleSeed) {
  uint64_t Sum = 0;
  for (uint32_t F = 0; F != FramesPerVideo; ++F)
    Sum += encodeFrame(transformFrame(decodeFrame(TitleSeed, F),
                                      TransformPasses));
  return Sum;
}

struct Request {
  uint32_t Id = 0;
  unsigned Title = 0;
  /// Due time, seconds after the round's epoch.
  double Due = 0.0;
};

/// Per-transaction state of the inner pipeline (TaskRuntime::context()).
struct TranscodeJob {
  uint64_t TitleSeed = 0;
  WorkQueue<Frame> Decoded;
  WorkQueue<Frame> Transformed;
  std::atomic<uint32_t> NextFrame{0};
  std::atomic<uint64_t> Checksum{0};
  std::atomic<bool> Aborted{false};
};

/// Layer timings of the layer-timed rounds. Every span is wall time on the
/// calling thread; Busy sums the leaf spans worker threads spend inside
/// layer calls and kernels during the timed jobs, so the rest of their
/// job time is unattributed.
struct LayerSpans {
  std::mutex Mutex;
  Samples BeginEnd, Push, PopWait, InnerWait, Reconfig;
  double BusySeconds = 0.0;
  double KernelSeconds = 0.0;
  /// The current round's timed job, [epoch, last completion]; spans count
  /// toward Busy only for their share inside it, so set-up and the idle
  /// tail after the job are left out.
  double WindowStart = HUGE_VAL;
  double WindowEnd = HUGE_VAL;

  /// Decision waiting for its first begin(): target (extent, inner).
  std::atomic<bool> Pending{false};
  unsigned PendingExtent = 0;
  bool PendingInner = false;
  double PendingSince = 0.0;

  /// Counts \p Busy seconds of the span [Start, End] in proportion to the
  /// span's overlap with the job window. Call with Mutex held.
  void countBusy(double Start, double End, double Busy, bool Kernel) {
    const double Overlap =
        std::min(End, WindowEnd) - std::max(Start, WindowStart);
    if (!(Overlap > 0.0))
      return;
    const double Share = std::min(1.0, Overlap / (End - Start));
    BusySeconds += Busy * Share;
    if (Kernel)
      KernelSeconds += Busy * Share;
  }

  void add(Samples &S, double X, double Start, double End, double Busy) {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.add(X);
    countBusy(Start, End, Busy, false);
  }
};

// Leaf time spent on this thread inside the current Task::wait, which the
// wait span must not count a second time.
thread_local double NestedLeafSeconds = 0.0;

class Server {
public:
  Server(std::vector<Request> Schedule, const std::vector<uint64_t> &TitleSeeds,
         LayerSpans *Spans)
      : Schedule(std::move(Schedule)), TitleSeeds(TitleSeeds), Spans(Spans),
        Expected(static_cast<uint32_t>(this->Schedule.size()) +
                 WarmupRequests),
        Latency(Expected, -1.0), Checksums(Expected, 0) {
    buildGraph();
  }

  ParDescriptor *root() const { return Root; }
  WorkQueue<Request> &requests() { return Requests; }
  const std::vector<Request> &schedule() const { return Schedule; }
  const std::vector<double> &latency() const { return Latency; }
  const std::vector<uint64_t> &checksums() const { return Checksums; }
  uint64_t redos() const { return Redos.load(); }
  double lastCompletion() const { return LastCompletion; }
  void setEpoch(double E) { Epoch = E; }

  /// Blocks until \p Count requests have completed.
  void awaitCompleted(uint32_t Count) {
    std::unique_lock<std::mutex> Lock(ResultMutex);
    Progress.wait(Lock, [&] { return Completed >= Count; });
  }

  /// Queue push, timed on layer-timed rounds. \p Leaf marks pushes made by
  /// worker threads (their time counts toward attributed busy time).
  template <typename T> void push(WorkQueue<T> &Q, T Item, bool Leaf) {
    if (!Spans) {
      Q.push(std::move(Item));
      return;
    }
    const double Start = wallSeconds();
    Q.push(std::move(Item));
    leaf(Spans->Push, Start, wallSeconds(), 1e6, Leaf);
  }

private:
  template <typename T> std::optional<T> pop(WorkQueue<T> &Q) {
    if (!Spans)
      return Q.waitAndPop();
    const double Start = wallSeconds();
    std::optional<T> Item = Q.waitAndPop();
    leaf(Spans->PopWait, Start, wallSeconds(), 1e3, true);
    return Item;
  }

  template <typename Fn> auto kernel(Fn &&Body) {
    if (!Spans)
      return Body();
    const double Start = wallSeconds();
    auto Result = Body();
    const double End = wallSeconds();
    NestedLeafSeconds += End - Start;
    std::lock_guard<std::mutex> Lock(Spans->Mutex);
    Spans->countBusy(Start, End, End - Start, true);
    return Result;
  }

  void leaf(Samples &S, double Start, double End, double Scale,
            bool CountBusy) {
    const double Dur = End - Start;
    if (CountBusy)
      NestedLeafSeconds += Dur;
    Spans->add(S, Dur * Scale, Start, End, CountBusy ? Dur : 0.0);
  }

  /// Task::begin; \p Cost receives its duration for the matching end().
  TaskStatus begin(TaskRuntime &RT, bool Outer, double &Cost) {
    if (!Spans)
      return RT.begin();
    const double Start = wallSeconds();
    const TaskStatus Status = RT.begin();
    const double End = wallSeconds();
    const double BeginSeconds = Cost = End - Start;
    NestedLeafSeconds += BeginSeconds;
    {
      std::lock_guard<std::mutex> Lock(Spans->Mutex);
      Spans->countBusy(Start, End, BeginSeconds, false);
    }
    // The first begin() under a configuration a timed decision proposed
    // closes that reconfiguration's latency.
    if (Outer && Status != TaskStatus::Suspended &&
        Spans->Pending.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> Lock(Spans->Mutex);
      if (Spans->Pending.load() && Spans->PendingExtent == RT.extent() &&
          Spans->PendingInner == RT.innerActive()) {
        Spans->Reconfig.add((End - Spans->PendingSince) * 1e3);
        Spans->Pending.store(false);
      }
    }
    return Status;
  }

  TaskStatus end(TaskRuntime &RT, double BeginSeconds) {
    if (!Spans)
      return RT.end();
    const double Start = wallSeconds();
    const TaskStatus Status = RT.end();
    const double End = wallSeconds();
    NestedLeafSeconds += End - Start;
    Spans->add(Spans->BeginEnd, (BeginSeconds + End - Start) * 1e6, Start, End,
               End - Start);
    return Status;
  }

  TaskStatus wait(TaskRuntime &RT, TranscodeJob &Job) {
    if (!Spans)
      return RT.wait(&Job);
    NestedLeafSeconds = 0.0;
    const double Start = wallSeconds();
    const TaskStatus Status = RT.wait(&Job);
    const double End = wallSeconds();
    const double Self = std::max(0.0, End - Start - NestedLeafSeconds);
    Spans->add(Spans->InnerWait, (End - Start) * 1e3, Start, End, Self);
    return Status;
  }

  void complete(const Request &R, uint64_t Checksum) {
    const double Now = wallSeconds();
    std::lock_guard<std::mutex> Lock(ResultMutex);
    Latency[R.Id] = Now - (Epoch + R.Due);
    Checksums[R.Id] = Checksum;
    LastCompletion = Now;
    // The last completion ends the service: closing the request queue
    // releases replicas blocked on it. Interrupted transactions are
    // re-queued before they count, so the count is exact.
    if (++Completed == Expected) {
      if (Spans) {
        std::lock_guard<std::mutex> SpansLock(Spans->Mutex);
        Spans->WindowEnd = Now;
      }
      Requests.close();
    }
    Progress.notify_all();
  }

  void buildGraph();

  std::vector<Request> Schedule;
  const std::vector<uint64_t> &TitleSeeds;
  LayerSpans *Spans;
  const uint32_t Expected;

  TaskGraph Graph;
  ParDescriptor *Root = nullptr;
  WorkQueue<Request> Requests;
  std::atomic<uint64_t> Redos{0};

  std::mutex ResultMutex;
  std::condition_variable Progress;
  uint32_t Completed = 0;
  std::vector<double> Latency;
  std::vector<uint64_t> Checksums;
  double LastCompletion = 0.0;
  double Epoch = 0.0;
};

void Server::buildGraph() {
  TaskFn DecodeFn = [this](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    double BeginCost = 0.0;
    if (begin(RT, false, BeginCost) == TaskStatus::Suspended) {
      // FiniCB role: steer downstream to a consistent state.
      Job->Aborted.store(true);
      Job->Decoded.close();
      return TaskStatus::Suspended;
    }
    const uint32_t F = Job->NextFrame.fetch_add(1);
    if (F >= FramesPerVideo) {
      Job->Decoded.close();
      return TaskStatus::Finished;
    }
    push(Job->Decoded, kernel([&] { return decodeFrame(Job->TitleSeed, F); }),
         true);
    (void)end(RT, BeginCost);
    return TaskStatus::Executing;
  };
  // Like the paper's Transform, the downstream stages ignore suspension
  // and drain to the sentinel (queue closure).
  TaskFn TransformFn = [this](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    std::optional<Frame> In = pop(Job->Decoded);
    if (!In) {
      Job->Transformed.close();
      return TaskStatus::Finished;
    }
    push(Job->Transformed,
         kernel([&] { return transformFrame(*In, TransformPasses); }), true);
    return TaskStatus::Executing;
  };
  TaskFn EncodeFn = [this](TaskRuntime &RT) {
    auto *Job = static_cast<TranscodeJob *>(RT.context());
    std::optional<Frame> Out = pop(Job->Transformed);
    if (!Out)
      return TaskStatus::Finished;
    Job->Checksum.fetch_add(kernel([&] { return encodeFrame(*Out); }));
    return TaskStatus::Executing;
  };

  Task *Decode =
      Graph.createTask("decode", DecodeFn, LoadFn(), Graph.seqDescriptor());
  Task *Transform = Graph.createTask("transform", TransformFn, LoadFn(),
                                     Graph.parDescriptor());
  Task *Encode =
      Graph.createTask("encode", EncodeFn, LoadFn(), Graph.seqDescriptor());
  ParDescriptor *Inner = Graph.createRegion({Decode, Transform, Encode});

  TaskFn TranscodeFn = [this](TaskRuntime &RT) {
    double BeginCost = 0.0;
    if (begin(RT, true, BeginCost) == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    std::optional<Request> Req = pop(Requests);
    if (!Req)
      return TaskStatus::Finished;
    uint64_t Checksum = 0;
    bool Completed = false;
    if (RT.innerActive()) {
      TranscodeJob Job;
      Job.TitleSeed = TitleSeeds[Req->Title];
      if (wait(RT, Job) == TaskStatus::Finished && !Job.Aborted.load()) {
        Checksum = Job.Checksum.load();
        Completed = true;
      }
    } else {
      Checksum =
          kernel([&] { return transcodeSequential(TitleSeeds[Req->Title]); });
      Completed = true;
    }
    if (!Completed) {
      // Interrupted mid-video by a suspension: re-queue and re-run it
      // from scratch (transactions are idempotent).
      Redos.fetch_add(1);
      push(Requests, *Req, true);
      return TaskStatus::Suspended;
    }
    complete(*Req, Checksum);
    if (end(RT, BeginCost) == TaskStatus::Suspended)
      return TaskStatus::Suspended;
    return TaskStatus::Executing;
  };
  Task *Transcode = Graph.createTask(
      "transcode", TranscodeFn,
      [this] { return static_cast<double>(Requests.size()); },
      Graph.createDescriptor(TaskKind::Parallel, {Inner}));
  Root = Graph.createRegion({Transcode});
}

/// The open-loop schedule of round \p Round: seeded Poisson arrivals in
/// alternating light and burst phases.
std::vector<Request> makeSchedule(uint64_t Seed, unsigned Round) {
  std::vector<Request> Out;
  Rng Pick(hashWork(Seed * 7919 + Round, 2));
  double PhaseStart = 0.0;
  unsigned Phase = 0;
  for (unsigned C = 0; C != Cycles; ++C) {
    for (const auto &[Rate, Length] : {std::pair{LightRate, LightSeconds},
                                       std::pair{BurstRate, BurstSeconds}}) {
      PoissonProcess Arrivals(
          Rate, hashWork(Seed * 104729 + Round * 64 + Phase++, 2));
      for (double T = Arrivals.nextArrival(); T < Length;
           T = Arrivals.nextArrival()) {
        Request R;
        R.Id = static_cast<uint32_t>(Out.size());
        R.Title = static_cast<unsigned>(Pick.uniformInt(Titles));
        R.Due = PhaseStart + T;
        Out.push_back(R);
      }
      PhaseStart += Length;
    }
  }
  return Out;
}

struct RoundResult {
  double SetupSeconds = 0.0;
  double CreateSeconds = 0.0;
  double JobSeconds = 0.0;
  uint64_t Requests = 0;
  uint64_t Failed = 0;
  uint64_t Redos = 0;
  uint64_t Reconfigs = 0; // during the timed job
  Samples Latency;
  Samples Late;
  Samples Consults; // seconds
};

RoundResult runRound(uint64_t Seed, unsigned Index,
                     const std::vector<uint64_t> &TitleSeeds,
                     const std::vector<uint64_t> &References,
                     LayerSpans *Spans) {
  RoundResult R;
  const double SetupStart = wallSeconds();
  Server S(makeSchedule(Seed, Index), TitleSeeds, Spans);

  WqtHParams Params;
  Params.QueueThreshold = 3.0;
  Params.NOff = 3;
  Params.NOn = 3;
  Params.MMax = NativeThreadBudget; // decode + transform + encode
  DopeOptions Opts;
  Opts.MaxThreads = NativeThreadBudget;
  Opts.MonitorIntervalSeconds = 0.002;
  Opts.MinReconfigIntervalSeconds = 0.01;
  std::shared_ptr<const ConsultLog> Consults;
  if (Spans) {
    // A decision the previous executive never carried out must not be
    // closed by this one's first begin().
    Spans->Pending.store(false);
    {
      std::lock_guard<std::mutex> Lock(Spans->Mutex);
      Spans->WindowStart = Spans->WindowEnd = HUGE_VAL;
    }
    auto Wrapper = std::make_unique<TimedMechanism>(
        std::make_unique<WqtHMechanism>(Params),
        [Spans](const RegionConfig &Next, double At) {
          std::lock_guard<std::mutex> Lock(Spans->Mutex);
          Spans->PendingExtent = Next.Tasks.front().Extent;
          Spans->PendingInner = Next.Tasks.front().AltIndex >= 0;
          Spans->PendingSince = At;
          Spans->Pending.store(true, std::memory_order_release);
        });
    Consults = Wrapper->log();
    Opts.Mech = std::move(Wrapper);
  } else {
    Opts.Mech = std::make_unique<WqtHMechanism>(Params);
  }

  const double CreateStart = wallSeconds();
  std::unique_ptr<Dope> Executive = Dope::create(S.root(), std::move(Opts));
  R.CreateSeconds = wallSeconds() - CreateStart;

  const uint32_t N = static_cast<uint32_t>(S.schedule().size());
  S.setEpoch(wallSeconds());
  for (uint32_t W = 0; W != WarmupRequests; ++W)
    S.push(S.requests(), Request{N + W, W % Titles, 0.0}, false);
  S.awaitCompleted(WarmupRequests);
  R.SetupSeconds = wallSeconds() - SetupStart;

  // The timed job: one generator thread replays the schedule open-loop.
  const uint64_t ReconfigsAtEpoch = Executive->reconfigurationCount();
  const double Epoch = wallSeconds();
  S.setEpoch(Epoch);
  if (Spans) {
    std::lock_guard<std::mutex> Lock(Spans->Mutex);
    Spans->WindowStart = Epoch;
  }
  for (const Request &Req : S.schedule()) {
    const double Due = Epoch + Req.Due;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(Due))));
    R.Late.add((wallSeconds() - Due) * 1e3);
    S.push(S.requests(), Req, false);
  }
  S.awaitCompleted(N + WarmupRequests);
  R.JobSeconds = S.lastCompletion() - Epoch;

  Executive->wait();
  R.Reconfigs = Executive->reconfigurationCount() - ReconfigsAtEpoch;
  // Destroying the executive joins its controller, the consulting thread.
  Executive.reset();
  if (Consults)
    R.Consults = Consults->Seconds;

  // Every video, warm-up included, must match its sequential reference.
  R.Requests = N;
  R.Redos = S.redos();
  for (uint32_t Id = 0; Id != N + WarmupRequests; ++Id) {
    const unsigned Title = Id < N ? S.schedule()[Id].Title : (Id - N) % Titles;
    const bool Ok = S.latency()[Id] >= 0.0 &&
                    S.checksums()[Id] == References[Title];
    R.Failed += Ok ? 0 : 1;
    if (Ok && Id < N)
      R.Latency.add(S.latency()[Id] * 1e3);
  }
  return R;
}

} // namespace

Outcome dopebench::runNativeServer(const RunArgs &Args) {
  std::vector<uint64_t> TitleSeeds, References;
  for (unsigned T = 0; T != Titles; ++T) {
    TitleSeeds.push_back(titleSeed(Args.Seed, T));
    References.push_back(transcodeSequential(TitleSeeds.back()));
  }

  Outcome Out;
  // Latency percentiles come from windows of consecutive rounds holding at
  // least WindowRequests requests each; the run reports the median window,
  // so a phase in which the host stalled the threads cannot set the run's
  // tail.
  Samples Setup, Job, Tput, Latency, Window, P50, PlainReconfigs;
  Samples WindowP50, WindowP99;
  uint64_t Requests = 0;
  Samples TimedJob, TimedP50, Create, Late, Reconfigs, ConsultCounts;
  Samples ConsultSeconds;
  uint64_t Redos = 0, Transactions = 0;
  LayerSpans Spans;
  double TimedJobSeconds = 0.0;

  forEachRound(Args, /*RotateCpus=*/false, [&](unsigned Round, Phase P) {
    const bool Timed = P == Phase::Timed;
    RoundResult R = runRound(Args.Seed, Round, TitleSeeds, References,
                             Timed ? &Spans : nullptr);
    // Requests must match their references, and the schedule must make
    // WQT-H reconfigure at least once in every round.
    Out.Attempted += R.Requests + WarmupRequests + 1;
    Out.Failed += R.Failed + (R.Reconfigs > 0 ? 0 : 1);
    std::fprintf(stderr, "dopebench: round %u p50 %.3f ms p99 %.3f ms\n",
                 Round, R.Latency.pct(0.50), R.Latency.pct(0.99));
    if (P == Phase::Warmup)
      return;
    if (!Timed) {
      Setup.add(R.SetupSeconds);
      Job.add(R.JobSeconds);
      Tput.add(static_cast<double>(R.Requests) / R.JobSeconds);
      P50.add(R.Latency.pct(0.50));
      Latency.append(R.Latency);
      Window.append(R.Latency);
      if (Window.count() >= WindowRequests) {
        WindowP50.add(Window.pct(0.50));
        WindowP99.add(Window.pct(0.99));
        Window = Samples();
      }
      Requests += R.Requests;
      PlainReconfigs.add(static_cast<double>(R.Reconfigs));
      return;
    }
    TimedJob.add(R.JobSeconds);
    TimedP50.add(R.Latency.pct(0.50));
    TimedJobSeconds += R.JobSeconds;
    Create.add(R.CreateSeconds);
    Late.append(R.Late);
    Reconfigs.add(static_cast<double>(R.Reconfigs));
    ConsultCounts.add(static_cast<double>(R.Consults.count()));
    ConsultSeconds.append(R.Consults);
    Redos += R.Redos;
    Transactions += R.Requests + WarmupRequests + R.Redos;
  });

  MetricMap &M = Out.Metrics;
  if (!Args.Trace) {
    M["setup_s"] = Setup.median();
    M["job_s"] = Job.median();
    M["tput_items_per_s"] = Tput.median();
    if (WindowP50.count() == 0) { // a run too short for one full window
      WindowP50.add(Latency.pct(0.50));
      WindowP99.add(Latency.pct(0.99));
    }
    M["resp_p50_ms"] = WindowP50.median();
    M["resp_p99_ms"] = WindowP99.median();
    // Failed requests have no latency and count as misses.
    M["slo_attain"] = static_cast<double>(
                      Latency.countAtMost(SloSeconds * 1e3)) /
                      static_cast<double>(Requests);
    Out.Info["rounds"] = static_cast<double>(Job.count());
    Out.Info["resp_samples"] = static_cast<double>(Latency.count());
    Out.Info["resp_windows"] = static_cast<double>(WindowP50.count());
    Out.Info["reconfigs_min_per_round"] = PlainReconfigs.pct(0.0);
    return Out;
  }

  M["core.create_s"] = Create.median();
  M["core.begin_end_us"] = Spans.BeginEnd.median();
  M["core.begin_end_pairs"] = static_cast<double>(Spans.BeginEnd.count());
  M["core.inner_wait_ms"] = Spans.InnerWait.median();
  M["core.reconfigs"] = Reconfigs.median();
  M["core.reconfig_p50_ms"] = Spans.Reconfig.median();
  M["core.reconfig_max_ms"] = Spans.Reconfig.max();
  M["core.redo_frac"] = static_cast<double>(Redos) /
                        static_cast<double>(Transactions);
  M["queue.push_us"] = Spans.Push.median();
  M["queue.pop_wait_ms"] = Spans.PopWait.median();
  M["mechanisms.consults"] = ConsultCounts.median();
  M["mechanisms.consult_us"] = ConsultSeconds.median() * 1e6;
  M["workload.late_p99_ms"] = Late.pct(0.99);
  M["workload.late_max_ms"] = Late.max();
  const double WorkerSeconds = TimedJobSeconds * NativeThreadBudget;
  M["apps.kernel_frac"] = Spans.KernelSeconds / WorkerSeconds;
  M["unattributed_frac"] = 1.0 - Spans.BusySeconds / WorkerSeconds;
  // Served latency, not the schedule-bound job time, shows what the
  // layer timing costs here.
  M["trace_run_overhead_frac"] = TimedP50.median() / P50.median() - 1.0;
  Out.Info["rounds_timed"] = static_cast<double>(TimedJob.count());
  Out.Info["rounds_plain"] = static_cast<double>(Job.count());
  return Out;
}
