//===- mechanisms/Factory.h - Canonical mechanism construction -*- C++ -*-===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Creates mechanisms by their paper names with the canonical parameters
/// used by the golden-trace conformance suite. The `dope_trace regen`
/// tool and MechanismConformanceTest must construct byte-identical
/// controllers, so the construction lives here, in one place.
///
//===----------------------------------------------------------------------===//

#ifndef DOPE_MECHANISMS_FACTORY_H
#define DOPE_MECHANISMS_FACTORY_H

#include "core/Mechanism.h"

#include <memory>
#include <string>
#include <vector>

namespace dope {

/// Creates the canonical instance of the mechanism named \p Name
/// ("WQT-H", "WQ-Linear", "TBF", "TB", "FDP", "SEDA", "TPC",
/// "GrainAdapt"); null for unknown names. Parameters are the defaults used throughout the
/// benchmarks, pinned here so golden traces stay stable.
std::unique_ptr<Mechanism> createMechanismByName(const std::string &Name);

/// Like createMechanismByName, but seeds the instance with \p Hint (when
/// non-null and applicable to \p Name) before returning it — the
/// trace -> dope_whatif -> warm-start loop's construction entry point.
/// Identical parameters to the unhinted factory, so a null or
/// inapplicable hint reproduces the canonical mechanism exactly.
std::unique_ptr<Mechanism>
createMechanismByName(const std::string &Name, const WarmStartHint *Hint);

/// One (mechanism, stream) pairing of the conformance suite: replaying
/// golden/<StreamName>.stream.jsonl through createMechanismByName(
/// MechanismName) must reproduce golden/<decisionsFile()>.decisions.jsonl.
struct ConformanceCase {
  const char *MechanismName;
  const char *StreamName;

  /// Basename of the golden decisions file; null defaults to
  /// MechanismName. Lets one mechanism appear in several cases (e.g.
  /// TB both free-running and under lease revocations).
  const char *DecisionsName = nullptr;

  const char *decisionsFile() const {
    return DecisionsName ? DecisionsName : MechanismName;
  }
};

/// All pairings covered by the golden suite — every mechanism
/// createMechanismByName builds, each on a stream that exercises its
/// decision logic.
const std::vector<ConformanceCase> &conformanceCases();

} // namespace dope

#endif // DOPE_MECHANISMS_FACTORY_H
