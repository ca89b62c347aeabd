//===- core/Mechanism.h - Parallelism adaptation mechanisms ---*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mechanism-developer face of DoPE (Sec. 5 of the paper). A mechanism
/// is an optimization routine that takes an objective (encoded by which
/// mechanism the administrator selects), a set of constraints (threads,
/// power), and monitored application/platform features, and determines the
/// optimal parallelism configuration:
///
///   ParDescriptor *Mechanism::reconfigureParallelism(ParDescriptor *pd,
///                                                    int nthreads);
///
/// Here the signature is value-oriented: mechanisms receive a read-only
/// RegionSnapshot (metrics + structure) and the currently running
/// RegionConfig, and return the configuration to switch to. Returning the
/// current configuration (or std::nullopt) means "no change"; the
/// executive only triggers the suspend/quiesce protocol on a change.
///
/// Every host (core/Dope.h, core/Replay.h, sim/) consults mechanisms
/// through the one control step in core/ControlStep.h, so the same
/// mechanism code runs, and its proposals are checked, the same way in
/// unit tests, native runs, replay and the simulated experiments.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_MECHANISM_H
#define DOPE_CORE_MECHANISM_H

#include "core/Config.h"
#include "core/FeatureRegistry.h"
#include "core/Monitor.h"
#include "core/WarmStart.h"
#include "support/Trace.h"

#include <optional>
#include <string>

namespace dope {

/// Constraint and environment information passed to a mechanism at every
/// reconfiguration opportunity.
struct MechanismContext {
  /// Maximum number of hardware threads available (administrator
  /// constraint "with N threads").
  unsigned MaxThreads = 1;

  /// Power budget in watts; <= 0 means unconstrained.
  double PowerBudgetWatts = 0.0;

  /// Platform features (power, temperature, ...), may be null.
  const FeatureRegistry *Features = nullptr;

  /// Current time in seconds (monotonic native clock or virtual simulator
  /// clock).
  double NowSeconds = 0.0;

  /// Tracer recording decision inputs, may be null. When set, every
  /// feature() read is recorded as a FeatureRead so a trace shows exactly
  /// which features a mechanism consulted for each decision.
  Tracer *Trace = nullptr;

  /// Convenience: reads a platform feature, with \p Fallback when absent.
  double feature(const std::string &Name, double Fallback = 0.0) const {
    double Result = Fallback;
    if (Features) {
      if (std::optional<double> Value = Features->getValue(Name, NowSeconds))
        Result = *Value;
    }
    if (Trace)
      Trace->recordAt(NowSeconds, TraceKind::FeatureRead, Name, Result);
    return Result;
  }

  /// The thread budget mechanisms should plan against: the administrator
  /// constraint MaxThreads shrunk by contexts the platform reports lost
  /// (the "LiveContexts" feature, registered by the executive and by the
  /// simulator's fault injector). Falls back to MaxThreads when the
  /// feature is absent; always in [1, MaxThreads]. Mechanisms that size
  /// configurations with effectiveThreads() re-plan around core loss with
  /// no other fault-specific logic.
  unsigned effectiveThreads() const {
    const double Live = feature("LiveContexts", static_cast<double>(MaxThreads));
    if (!(Live >= 1.0))
      return 1;
    if (Live >= static_cast<double>(MaxThreads))
      return MaxThreads;
    return static_cast<unsigned>(Live);
  }
};

/// Base class for all parallelism adaptation mechanisms.
class Mechanism {
public:
  virtual ~Mechanism();

  /// Short identifier, e.g. "WQT-H", "TBF".
  virtual std::string name() const = 0;

  /// Computes the configuration to run next.
  ///
  /// \p Root is the monitored snapshot of the root parallel region,
  /// \p Current the configuration currently executing, and \p Ctx the
  /// constraints. Returns std::nullopt or a configuration equal to
  /// \p Current to keep running unchanged.
  virtual std::optional<RegionConfig>
  reconfigure(const ParDescriptor &Region, const RegionSnapshot &Root,
              const RegionConfig &Current, const MechanismContext &Ctx) = 0;

  /// Clears adaptation state (hysteresis counters, hill-climbing history).
  /// A mechanism holding a warm-start hint re-applies it here: restarts
  /// begin at the hinted configuration, not the cold default.
  virtual void reset() {}

  /// Installs an offline-derived starting configuration (see
  /// core/WarmStart.h). Supporting mechanisms jump to the hinted
  /// configuration at the next (re)start and fall back to normal
  /// adaptation from there; a hint that names a different mechanism or is
  /// structurally infeasible is ignored. Default: ignore all hints.
  virtual void seedWarmStart(const WarmStartHint &Hint) { (void)Hint; }

protected:
  Mechanism() = default;
};

} // namespace dope

#endif // DOPE_CORE_MECHANISM_H
