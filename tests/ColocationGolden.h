//===- tests/ColocationGolden.h - Colocation journal golden ----*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The colocation simulator's golden scenarios, shared by the test suite
/// (tests/ColocationSimTest.cpp) and the golden writer (`dope_trace
/// regen`, the trace-regen target). A nine-tenant platform of latency
/// frontends and batch pipelines runs under five control-plane
/// schedules — honest, chaos, an arbiter outage with a warm-trace or a
/// snapshot restart, and chaos plus injected heartbeat loss — and each
/// run renders to one JSONL document holding everything the run
/// decides: per-tenant counters, the fairness summary, lease and event
/// totals, the allocation timeline, the protocol journal, and the
/// canonicalized trace. The committed tests/golden/colocation-*.jsonl
/// files pin that output byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_TESTS_COLOCATIONGOLDEN_H
#define DOPE_TESTS_COLOCATIONGOLDEN_H

#include "sim/ColocationSim.h"
#include "sim/FaultInjector.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <sstream>
#include <string>
#include <vector>

namespace dope {
namespace colocation_golden {

constexpr double EpochSeconds = 2.0;
constexpr double LeaseTtl = 5.0;
constexpr unsigned Contexts = 32;
constexpr double Duration = 40.0;
constexpr uint64_t GoldenSeed = 42;

enum class Scenario {
  Honest,         // no misbehavior
  Chaos,          // crash + silent window + byzantine + envelope violator
  OutageWarm,     // chaos mix + arbiter kill, warm-trace restart
  OutageSnapshot, // chaos mix + arbiter kill, snapshot restart
  InjectedFaults, // chaos mix + shared-RNG heartbeat drops
};

inline const std::vector<Scenario> &allScenarios() {
  static const std::vector<Scenario> All = {
      Scenario::Honest, Scenario::Chaos, Scenario::OutageWarm,
      Scenario::OutageSnapshot, Scenario::InjectedFaults};
  return All;
}

inline const char *scenarioName(Scenario S) {
  switch (S) {
  case Scenario::Honest:
    return "honest";
  case Scenario::Chaos:
    return "chaos";
  case Scenario::OutageWarm:
    return "outage-warm-trace";
  case Scenario::OutageSnapshot:
    return "outage-snapshot";
  case Scenario::InjectedFaults:
    return "injected-faults";
  }
  return "?";
}

/// File name of \p S's golden under tests/golden/.
inline std::string goldenFile(Scenario S) {
  return std::string("colocation-") + scenarioName(S) + ".golden.jsonl";
}

/// Mixed platform population: latency frontends and throughput batch
/// pipelines.
inline std::vector<ColocationTenantSpec> platformTenants() {
  std::vector<ColocationTenantSpec> Tenants;
  for (int F = 0; F != 3; ++F) {
    ColocationTenantSpec T;
    T.Tenant.Name = "frontend" + std::to_string(F);
    T.Tenant.Goal = TenantGoal::ResponseTime;
    T.Tenant.Weight = 2.0;
    T.Tenant.MinThreads = 2;
    T.Tenant.SloSeconds = 0.5;
    T.Kind = ColocationTenantSpec::AppKind::NestServer;
    T.Nest.Name = T.Tenant.Name;
    T.Nest.SeqServiceSeconds = 0.05;
    T.Nest.Curve = SpeedupCurve(0.1, 0.2);
    T.ArrivalRate = 20.0 + 5.0 * F;
    Tenants.push_back(std::move(T));
  }
  const char *Names[6] = {"batch", "miner", "indexer", "etl", "ocr", "rank"};
  for (int B = 0; B != 6; ++B) {
    ColocationTenantSpec T;
    T.Tenant.Name = Names[B];
    T.Tenant.Goal = TenantGoal::Throughput;
    T.Tenant.Weight = 1.0;
    T.Kind = ColocationTenantSpec::AppKind::Pipeline;
    T.Pipeline.Name = Names[B];
    T.Pipeline.Stages = {{"decode", true, 0.02, 0.15},
                         {"work", true, 0.1, 0.15},
                         {"sink", true, 0.03, 0.15}};
    T.ArrivalRate = 40.0 + 15.0 * B;
    Tenants.push_back(std::move(T));
  }
  return Tenants;
}

/// Runs scenario \p S at \p Seed, tracing into \p Trace when non-null.
inline ColocationSimResult runScenario(Scenario S, uint64_t Seed,
                                       Tracer *Trace = nullptr) {
  std::vector<ColocationTenantSpec> Tenants = platformTenants();
  if (S != Scenario::Honest) {
    Tenants[0].Misbehavior.SilentFromSeconds = 14.0;
    Tenants[0].Misbehavior.SilentUntilSeconds = 24.0;
    Tenants[3].Misbehavior.CrashSeconds = 17.3;
    Tenants[4].Misbehavior.ByzantineFromSeconds = 10.0;
    Tenants[4].Misbehavior.NonMonotoneClock = true;
    Tenants[5].Misbehavior.EnvelopeViolationThreads = 3;
  }

  ColocationSimOptions Opts;
  Opts.Contexts = Contexts;
  Opts.Seed = Seed;
  Opts.DurationSeconds = Duration;
  Opts.StepSeconds = 0.05;
  Opts.WarmupSeconds = 4.0;
  Opts.Policy = ColocationPolicy::Arbiter;
  Opts.Arbiter.EpochSeconds = EpochSeconds;
  Opts.Arbiter.LeaseTtlSeconds = LeaseTtl;
  Opts.TraceSink = Trace;
  if (S == Scenario::OutageWarm || S == Scenario::OutageSnapshot) {
    Opts.Outage.KillSeconds = 18.0;
    Opts.Outage.RestartSeconds = 24.0;
    Opts.Outage.Mode = S == Scenario::OutageWarm
                           ? ArbiterOutage::RestartMode::WarmTrace
                           : ArbiterOutage::RestartMode::Snapshot;
  }

  FaultPlan Plan;
  Plan.HeartbeatDropProbability = 0.2;
  FaultInjector Faults(Plan, Seed);
  if (S == Scenario::InjectedFaults)
    Opts.Faults = &Faults;

  ColocationSim Sim(std::move(Tenants), Opts);
  return Sim.run();
}

/// Renders one run as the golden JSONL document: a summary line, one
/// line per tenant, the allocation timeline, then the protocol journal
/// and the canonicalized trace (writer thread ids zeroed), each opened
/// by a section line carrying its record count.
inline std::string renderGolden(Scenario S, const ColocationSimResult &R,
                                std::vector<TraceRecord> Trace) {
  std::string Out;
  auto Line = [&Out](const JsonValue &V) {
    Out += V.dump();
    Out += '\n';
  };

  JsonValue Summary = JsonValue::makeObject();
  Summary.set("section", "summary");
  Summary.set("scenario", scenarioName(S));
  Summary.set("duration", R.DurationSeconds);
  Summary.set("lease_changes", R.LeaseChanges);
  Summary.set("simulated_events", R.SimulatedEvents);
  Summary.set("aggregate_attainment", R.Fairness.AggregateAttainment);
  Summary.set("min_attainment", R.Fairness.MinAttainment);
  Summary.set("jain_index", R.Fairness.JainIndex);
  Line(Summary);

  for (const TenantStats &T : R.Tenants) {
    JsonValue V = JsonValue::makeObject();
    V.set("section", "tenant");
    V.set("name", T.Name);
    V.set("latency_sensitive", T.LatencySensitive);
    V.set("weight", T.Weight);
    V.set("slo", T.SloSeconds);
    V.set("arrived", T.Arrived);
    V.set("completed", T.Completed);
    V.set("shed", T.Shed);
    V.set("slo_hits", T.SloHits);
    V.set("lease_changes", T.LeaseChanges);
    V.set("thread_seconds", T.ThreadSeconds);
    V.set("responses", static_cast<uint64_t>(T.Responses.count()));
    V.set("mean_response", T.Responses.meanResponseTime());
    V.set("mean_exec", T.Responses.meanExecTime());
    V.set("mean_wait", T.Responses.meanWaitTime());
    V.set("p95_response", T.Responses.responsePercentile(0.95));
    V.set("max_response", T.Responses.maxResponseTime());
    V.set("attainment", T.goalAttainment());
    Line(V);
  }

  for (const AllocationSample &A : R.AllocationTimeline) {
    JsonValue V = JsonValue::makeObject();
    V.set("section", "allocation");
    V.set("t", A.Time);
    JsonValue Granted = JsonValue::makeArray();
    for (unsigned G : A.Granted)
      Granted.push(JsonValue(static_cast<uint64_t>(G)));
    V.set("granted", std::move(Granted));
    Line(V);
  }

  auto Records = [&](const char *Section,
                     const std::vector<TraceRecord> &Recs) {
    JsonValue V = JsonValue::makeObject();
    V.set("section", Section);
    V.set("records", static_cast<uint64_t>(Recs.size()));
    Line(V);
    std::ostringstream OS;
    writeTraceJsonl(Recs, OS);
    Out += OS.str();
  };
  Records("journal", R.ProtocolJournal);
  canonicalizeTrace(Trace);
  for (TraceRecord &Rec : Trace)
    Rec.Tid = 0;
  Records("trace", Trace);
  return Out;
}

/// Runs \p S at the golden seed and renders it. \p Dropped receives the
/// tracer's lost-record count (a golden must not be a truncated trace).
inline std::string goldenText(Scenario S, uint64_t *Dropped = nullptr) {
  Tracer Trace(1 << 16);
  const ColocationSimResult R = runScenario(S, GoldenSeed, &Trace);
  if (Dropped)
    *Dropped = Trace.droppedRecords();
  return renderGolden(S, R, Trace.drain());
}

} // namespace colocation_golden
} // namespace dope

#endif // DOPE_TESTS_COLOCATIONGOLDEN_H
