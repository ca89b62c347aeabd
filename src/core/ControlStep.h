//===- core/ControlStep.h - The one mechanism consult ----------*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a mechanism is consulted. A host (the native executive,
/// the replay harness, a simulator) builds a snapshot, calls controlStep,
/// counts what it reports and applies the accepted configuration, so a
/// proposal is checked the same way wherever the mechanism runs.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_CORE_CONTROLSTEP_H
#define DOPE_CORE_CONTROLSTEP_H

#include "core/Mechanism.h"

#include <limits>

namespace dope {

/// The simulators' ceiling: the simulated platforms time-share
/// oversubscribed contexts, which SEDA and Pthreads-OS rely on, and they
/// hold no thread lease.
inline constexpr unsigned NoThreadCeiling =
    std::numeric_limits<unsigned>::max();

/// What one consult did with the running configuration.
enum class StepOutcome {
  Kept,        ///< No proposal, or one equal to the running config.
  Accepted,    ///< The proposal is the config to switch to.
  Invalid,     ///< The proposal failed validateConfig: a mechanism bug.
  OverCeiling, ///< The proposal's totalThreads exceeded the ceiling.
};

struct ControlStepResult {
  StepOutcome Outcome = StepOutcome::Kept;
  /// The mechanism's proposal unless Outcome is Kept: the config to apply
  /// when Accepted, the refused one otherwise.
  std::optional<RegionConfig> Proposal;
  /// validateConfig's error when Outcome is Invalid.
  std::string Error;
};

/// Consults \p M once. No proposal, or one equal to \p Current, keeps
/// \p Current; one that fails validateConfig, or whose totalThreads
/// exceeds \p Ceiling, is refused. Writes the consult's one Decision
/// record to Ctx.Trace at Ctx.NowSeconds: A and Detail describe the
/// config that runs next, B is 1 iff it changed.
ControlStepResult controlStep(Mechanism &M, const ParDescriptor &Region,
                              const RegionSnapshot &Snap,
                              const RegionConfig &Current,
                              const MechanismContext &Ctx, unsigned Ceiling);

} // namespace dope

#endif // DOPE_CORE_CONTROLSTEP_H
