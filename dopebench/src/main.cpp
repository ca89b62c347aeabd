//===- dopebench/src/main.cpp - Repository benchmark binary ---------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   dopebench --workload <native_server|sim_sweep|traced_ops>
///             --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload for the given wall time and prints, as the last line
/// of standard output, one JSON object with the keys correct, attempted,
/// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
/// reports the per-layer metrics. Every metric is printed on every
/// workload: a layer a workload bypasses reports the zero the benchmark
/// measured for it. The line before it is an info object recording the
/// host's processor count, the build type, the seed and sample counts.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace dopebench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec EndToEnd[] = {
    {"setup_s", "s"},          {"job_s", "s"},
    {"tput_items_per_s", "1/s"}, {"resp_p50_ms", "ms"},
    {"resp_p99_ms", "ms"},     {"slo_attain", "frac"},
    {"ok_frac", "frac"},       {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec PerLayer[] = {
    {"core.create_s", "s"},
    {"core.begin_end_us", "us"},
    {"core.begin_end_pairs", "count"},
    {"core.inner_wait_ms", "ms"},
    {"core.reconfigs", "count/round"},
    {"core.reconfig_p50_ms", "ms"},
    {"core.reconfig_max_ms", "ms"},
    {"core.redo_frac", "frac"},
    {"queue.push_us", "us"},
    {"queue.pop_wait_ms", "ms"},
    {"mechanisms.consults", "count/round"},
    {"mechanisms.consult_us", "us"},
    {"mechanisms.consult_frac", "frac"},
    {"mechanisms.change_frac", "frac"},
    {"workload.late_p99_ms", "ms"},
    {"workload.late_max_ms", "ms"},
    {"apps.kernel_frac", "frac"},
    {"sim.nest.items_per_s", "1/s"},
    {"sim.pipeline.items_per_s", "1/s"},
    {"sim.colocation.steps_per_s", "1/s"},
    {"sim.self_frac", "frac"},
    {"sim.reconfigs", "count/round"},
    {"support.trace_records", "count/round"},
    {"support.trace_dropped", "count"},
    {"support.trace_write_s", "s"},
    {"support.trace_bytes", "B"},
    {"support.trace_read_s", "s"},
    {"support.trace_overhead_frac", "frac"},
    {"arbiter.warmstart_s", "s"},
    {"arbiter.snapshot_restore_s", "s"},
    {"arbiter.journal_records", "count"},
    {"analysis.dag_s", "s"},
    {"analysis.recommend_s", "s"},
    {"analysis.validate_s", "s"},
    {"analysis.pred_err", "frac"},
    {"unattributed_frac", "frac"},
    {"trace_run_overhead_frac", "frac"},
};

unsigned hostProcessors() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

[[noreturn]] void usage(const char *Message) {
  std::fprintf(stderr,
               "dopebench: %s\nusage: dopebench --workload "
               "<native_server|sim_sweep|traced_ops> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               Message);
  std::exit(2);
}

RunArgs parseArgs(int Argc, char **Argv) {
  RunArgs Args;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Args.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      Args.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      Args.Seconds = std::strtod(Value, &End);
      if (!(Args.Seconds > 0.0 && Args.Seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        usage("--trace takes 0 or 1");
      Args.Trace = Value[0] == '1';
    } else {
      usage(("unknown option " + Flag).c_str());
    }
    if (End && *End != '\0')
      usage(("malformed value for " + Flag).c_str());
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return Args;
}

} // namespace

double dopebench::peakRssMb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss survives
  // exec and would report a larger parent (the Python launcher) instead.
  std::FILE *Status = std::fopen("/proc/self/status", "r");
  char Line[256];
  double Kib = 0.0;
  while (Status && std::fgets(Line, sizeof(Line), Status))
    if (std::strncmp(Line, "VmHWM:", 6) == 0)
      Kib = std::strtod(Line + 6, nullptr);
  if (Status)
    std::fclose(Status);
  return Kib / 1024.0;
}

int main(int Argc, char **Argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "dopebench: refusing to measure a build with "
                       "assertions enabled (configure a Release build)\n");
  return 2;
#endif
  const RunArgs Args = parseArgs(Argc, Argv);
  const unsigned Nproc = hostProcessors();

  Outcome Out;
  if (Args.Workload == "native_server") {
    if (NativeThreadBudget + 1 > Nproc) {
      std::fprintf(stderr,
                   "dopebench: native_server needs %u processors (thread "
                   "budget %u plus the generator); this host offers %u\n",
                   NativeThreadBudget + 1, NativeThreadBudget, Nproc);
      return 2;
    }
    Out = runNativeServer(Args);
  } else if (Args.Workload == "sim_sweep") {
    Out = runSimSweep(Args);
  } else if (Args.Workload == "traced_ops") {
    Out = runTracedOps(Args);
  } else {
    usage(("unknown workload " + Args.Workload).c_str());
  }

  if (Out.Attempted == 0) {
    std::fprintf(stderr, "dopebench: workload attempted no operations\n");
    return 1;
  }
  Out.Metrics["ok_frac"] = 1.0 - static_cast<double>(Out.Failed) /
                           static_cast<double>(Out.Attempted);
  Out.Metrics["peak_rss_mb"] = peakRssMb();

  dope::JsonValue Info = dope::JsonValue::makeObject();
  Info.set("workload", dope::JsonValue(Args.Workload));
  Info.set("seed", dope::JsonValue(Args.Seed));
  Info.set("seconds", dope::JsonValue(Args.Seconds));
  Info.set("trace", dope::JsonValue(Args.Trace ? 1 : 0));
  Info.set("nproc", dope::JsonValue(static_cast<uint64_t>(Nproc)));
  Info.set("build_type", dope::JsonValue(DOPEBENCH_BUILD_TYPE));
  for (const auto &[Key, Value] : Out.Info)
    Info.set(Key, dope::JsonValue(Value));
  dope::JsonValue InfoLine = dope::JsonValue::makeObject();
  InfoLine.set("info", Info);
  std::printf("%s\n", InfoLine.dump().c_str());

  bool Complete = true;
  dope::JsonValue Metrics = dope::JsonValue::makeObject();
  auto emit = [&](const MetricSpec &Spec) {
    const auto It = Out.Metrics.find(Spec.Name);
    const double Value = It == Out.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(Value))
      Complete = false;
    dope::JsonValue M = dope::JsonValue::makeObject();
    M.set("value", dope::JsonValue(std::isfinite(Value) ? Value : 0.0));
    M.set("unit", dope::JsonValue(Spec.Unit));
    Metrics.set(Spec.Name, M);
  };
  if (Args.Trace) {
    for (const MetricSpec &Spec : PerLayer)
      emit(Spec);
  } else {
    for (const MetricSpec &Spec : EndToEnd) {
      if (!Out.Metrics.count(Spec.Name))
        Complete = false;
      emit(Spec);
    }
  }

  dope::JsonValue Result = dope::JsonValue::makeObject();
  Result.set("correct", dope::JsonValue(Out.Failed == 0 && Complete));
  Result.set("attempted", dope::JsonValue(Out.Attempted));
  Result.set("failed", dope::JsonValue(Out.Failed));
  Result.set("metrics", Metrics);
  std::printf("%s\n", Result.dump().c_str());
  return 0;
}
