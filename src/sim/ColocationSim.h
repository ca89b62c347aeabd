//===- sim/ColocationSim.h - Multi-tenant platform simulator ---*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Co-scheduling simulator: several DoPE-style tenants (pipeline batch
/// jobs and nested-parallel servers) share one platform's hardware
/// contexts under a pluggable division policy:
///
///  - Arbiter: the platform arbiter re-divides threads each epoch from
///    observed per-tenant telemetry (the tentpole under test).
///  - StaticSplit: a fixed partition (the "provisioned silos" baseline).
///  - Oversubscribed: every tenant spawns as if it owned the machine
///    and the OS time-slices — the paper's Pthreads-OS baseline lifted
///    to multi-tenancy.
///
/// Unlike PipelineSim/NestServerSim (event-driven, single tenant), this
/// is a fixed-step fluid simulation: each tenant is reduced to a
/// capacity curve capacity(k) derived from its app model, and real
/// per-item FIFO queues preserve genuine wait-time distributions so p95
/// response and SLO attainment are meaningful. Deterministic under a
/// seed: arrivals are the only randomness.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_SIM_COLOCATIONSIM_H
#define DOPE_SIM_COLOCATIONSIM_H

#include "arbiter/Arbiter.h"
#include "metrics/TenantStats.h"
#include "sim/FaultInjector.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"
#include "support/Trace.h"
#include "workload/Arrivals.h"

#include <cstdint>
#include <vector>

namespace dope {

enum class ColocationPolicy {
  Arbiter,
  StaticSplit,
  Oversubscribed,
};

const char *toString(ColocationPolicy Policy);

/// How one tenant deviates from the honest lease protocol. All fields
/// default off; the chaos harness (bench/ext_chaos) drives them to test
/// the arbiter's liveness and containment machinery.
struct TenantMisbehavior {
  /// The tenant process dies at this time: it stops serving and stops
  /// reporting, and never comes back. Its lease must expire by TTL.
  /// Negative disables.
  double CrashSeconds = -1.0;

  /// Heartbeat-loss window [SilentFromSeconds, SilentUntilSeconds): the
  /// tenant keeps serving but its reports never reach the arbiter (a
  /// control-plane partition). Disabled when the window is empty.
  double SilentFromSeconds = 0.0;
  double SilentUntilSeconds = 0.0;

  /// Byzantine sampler from this time on: reported throughput and
  /// offered rate are inflated by ReportedRateFactor. Negative disables.
  double ByzantineFromSeconds = -1.0;
  double ReportedRateFactor = 3.0;

  /// Byzantine clock: once byzantine, every other sample carries a
  /// rewound timestamp (non-monotone).
  bool NonMonotoneClock = false;

  /// Envelope violator: the tenant runs this many threads above its
  /// granted lease, stealing capacity from the others.
  unsigned EnvelopeViolationThreads = 0;

  bool any() const {
    return CrashSeconds >= 0.0 || SilentUntilSeconds > SilentFromSeconds ||
           ByzantineFromSeconds >= 0.0 || EnvelopeViolationThreads > 0;
  }
  bool silentAt(double T) const {
    return SilentUntilSeconds > SilentFromSeconds && T >= SilentFromSeconds &&
           T < SilentUntilSeconds;
  }
  bool byzantineAt(double T) const {
    return ByzantineFromSeconds >= 0.0 && T >= ByzantineFromSeconds;
  }
};

/// One tenant of the shared platform: an arbitration contract plus an
/// application model the simulator reduces to capacity/latency curves.
struct ColocationTenantSpec {
  TenantSpec Tenant;

  /// Protocol deviations for chaos runs (defaults: honest tenant).
  TenantMisbehavior Misbehavior;

  enum class AppKind { Pipeline, NestServer };
  AppKind Kind = AppKind::Pipeline;

  /// Kind == Pipeline: capacity(k) via greedy stage replication.
  PipelineAppModel Pipeline;

  /// Kind == NestServer: capacity(k) via the best inner extent.
  NestAppModel Nest;

  /// Base offered load, items/second.
  double ArrivalRate = 1.0;

  /// Load-factor schedule modulating ArrivalRate (empty = constant).
  LoadTrace ArrivalSchedule;

  /// Arrivals finding this many queued items are shed; 0 disables.
  size_t AdmissionLimit = 0;
};

/// Arbiter kill/restart schedule for chaos runs.
struct ArbiterOutage {
  /// The arbiter process dies at this epoch boundary (negative: never).
  /// Leases freeze while it is down; tenants keep serving what they
  /// hold and their reports are journaled by the host but land nowhere.
  double KillSeconds = -1.0;

  /// The arbiter restarts at this epoch boundary (negative: never).
  double RestartSeconds = -1.0;

  enum class RestartMode {
    /// Fresh arbiter; live tenants re-register and re-learn from
    /// scratch (the slow path warm restarts are measured against).
    Cold,
    /// Restore from the JSON snapshot taken at kill time.
    Snapshot,
    /// Re-register live tenants, then reconstruct utility curves and
    /// actual holdings from the host's protocol journal (Arbiter::
    /// warmStart over recorded Heartbeat/lease records).
    WarmTrace,
  };
  RestartMode Mode = RestartMode::Snapshot;

  bool enabled() const { return KillSeconds >= 0.0; }
};

struct ColocationSimOptions {
  unsigned Contexts = 24;
  uint64_t Seed = 42;
  double DurationSeconds = 300.0;

  /// Fluid-step quantum.
  double StepSeconds = 0.05;

  /// Statistics ignore completions before this time.
  double WarmupSeconds = 0.0;

  ColocationPolicy Policy = ColocationPolicy::Arbiter;

  /// Arbiter policy configuration (Trace is wired by the sim;
  /// TotalThreads is overridden with Contexts).
  ArbiterOptions Arbiter;

  /// Capacity lost by a tenant while it quiesces into a changed lease.
  double ReconfigPauseSeconds = 0.1;

  /// StaticSplit: per-tenant thread shares; empty = equal split.
  std::vector<unsigned> StaticShares;

  /// Oversubscribed: contention penalty per unit of oversubscription.
  double OversubPenalty = 0.15;

  /// Optional trace sink (lease decisions, per-epoch counters). The sim
  /// stamps records with virtual time.
  Tracer *TraceSink = nullptr;

  /// Arbiter kill/restart schedule (chaos runs; disabled by default).
  ArbiterOutage Outage;

  /// Optional fault injector consulted once per tenant-epoch for
  /// heartbeat loss (FaultPlan::HeartbeatDropProbability). The caller
  /// keeps ownership; null disables.
  FaultInjector *Faults = nullptr;
};

/// The arbiter-side allocation at one epoch boundary, in tenant spec
/// order — what recovery metrics diff against an uninterrupted run.
struct AllocationSample {
  double Time = 0.0;
  std::vector<unsigned> Granted;
};

struct ColocationSimResult {
  std::vector<TenantStats> Tenants;
  FairnessSummary Fairness;
  uint64_t LeaseChanges = 0;
  double DurationSeconds = 0.0;

  /// Work-proportional simulated-event count: one per tenant-step
  /// update plus one per arrival and per completion. Events/s =
  /// SimulatedEvents / wall time is the simulator-rate metric
  /// bench/ext_scale and the perf suite report.
  uint64_t SimulatedEvents = 0;

  /// Per-epoch granted threads (Arbiter policy only).
  std::vector<AllocationSample> AllocationTimeline;

  /// The host's durable protocol log: every heartbeat a tenant sent
  /// (even while the arbiter was down) and every lease change applied,
  /// as trace records. This is the journal a WarmTrace restart replays,
  /// and what ChaosInvariants checks.
  std::vector<TraceRecord> ProtocolJournal;
};

class ColocationSim {
public:
  /// Throws std::invalid_argument for an empty tenant list, fewer
  /// Contexts than tenants, or a non-positive StepSeconds,
  /// DurationSeconds or Arbiter.EpochSeconds.
  ColocationSim(std::vector<ColocationTenantSpec> Tenants,
                ColocationSimOptions Options);

  ColocationSimResult run();

  /// Sustainable completions/second of \p Spec's app given \p Threads —
  /// exposed for tests and for sizing scenarios.
  static double capacity(const ColocationTenantSpec &Spec, unsigned Threads);

  /// Intrinsic (no-queueing) per-item latency at \p Threads.
  static double serviceLatency(const ColocationTenantSpec &Spec,
                               unsigned Threads);

private:
  std::vector<ColocationTenantSpec> Specs;
  ColocationSimOptions Opts;
};

} // namespace dope

#endif // DOPE_SIM_COLOCATIONSIM_H
