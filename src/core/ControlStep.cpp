//===- core/ControlStep.cpp - The executive's one control step -------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/ControlStep.h"

using namespace dope;

ControlStepResult dope::controlStep(Mechanism &M, const ParDescriptor &Region,
                                    const RegionSnapshot &Snap,
                                    const RegionConfig &Current,
                                    const MechanismContext &Ctx,
                                    unsigned Ceiling) {
  ControlStepResult Result;
  Result.Proposal = M.reconfigure(Region, Snap, Current, Ctx);
  if (!Result.Proposal || *Result.Proposal == Current)
    Result.Proposal.reset();
  else if (!validateConfig(Region, *Result.Proposal, &Result.Error))
    Result.Outcome = StepOutcome::Invalid;
  else if (totalThreads(Region, *Result.Proposal) > Ceiling)
    Result.Outcome = StepOutcome::OverCeiling;
  else
    Result.Outcome = StepOutcome::Accepted;

  if (Ctx.Trace) {
    const bool Changed = Result.Outcome == StepOutcome::Accepted;
    const RegionConfig &Chosen = Changed ? *Result.Proposal : Current;
    Ctx.Trace->recordAt(Ctx.NowSeconds, TraceKind::Decision, M.name(),
                        totalThreads(Region, Chosen), Changed ? 1.0 : 0.0,
                        toString(Region, Chosen));
  }
  return Result;
}
