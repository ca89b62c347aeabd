//===- core/Replay.cpp - Deterministic mechanism replay --------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Replay.h"

#include "core/ControlStep.h"

#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

using namespace dope;

//===----------------------------------------------------------------------===//
// Stream serialization
//===----------------------------------------------------------------------===//

static const char *graphKindName(FeatureStream::GraphKind Kind) {
  switch (Kind) {
  case FeatureStream::GraphKind::Pipeline:
    return "pipeline";
  case FeatureStream::GraphKind::ServerNest:
    return "server-nest";
  case FeatureStream::GraphKind::TaskTree:
    return "task-tree";
  }
  return "pipeline";
}

static JsonValue stagesToJson(const std::vector<ReplayStageSpec> &Stages) {
  JsonValue A = JsonValue::makeArray();
  for (const ReplayStageSpec &S : Stages) {
    JsonValue O = JsonValue::makeObject();
    O.set("name", JsonValue(S.Name));
    O.set("parallel", JsonValue(S.Parallel));
    A.push(std::move(O));
  }
  return A;
}

static JsonValue doublesToJson(const std::vector<double> &Values) {
  JsonValue A = JsonValue::makeArray();
  for (double V : Values)
    A.push(JsonValue(V));
  return A;
}

static std::vector<double> jsonToDoubles(const JsonValue *A) {
  std::vector<double> Out;
  if (A && A->isArray())
    for (size_t I = 0; I != A->size(); ++I)
      Out.push_back(A->at(I).asDouble());
  return Out;
}

void dope::writeFeatureStream(const FeatureStream &Stream, std::ostream &OS) {
  JsonValue Header = JsonValue::makeObject();
  Header.set("stream", JsonValue(Stream.Name));
  Header.set("kind", JsonValue(graphKindName(Stream.Kind)));
  Header.set("maxThreads", JsonValue(static_cast<double>(Stream.MaxThreads)));
  if (Stream.PowerBudgetWatts > 0.0)
    Header.set("powerBudget", JsonValue(Stream.PowerBudgetWatts));
  if (Stream.Kind == FeatureStream::GraphKind::TaskTree)
    Header.set("defaultGrain",
               JsonValue(static_cast<double>(Stream.DefaultGrain)));
  Header.set("stages", stagesToJson(Stream.Stages));
  if (!Stream.FusedStages.empty())
    Header.set("fusedStages", stagesToJson(Stream.FusedStages));
  OS << Header.dump() << '\n';

  for (const ReplayStep &Step : Stream.Steps) {
    JsonValue O = JsonValue::makeObject();
    O.set("t", JsonValue(Step.Time));
    if (Step.ThreadEnvelope != 0)
      O.set("envelope",
            JsonValue(static_cast<double>(Step.ThreadEnvelope)));
    if (!Step.Features.empty()) {
      JsonValue F = JsonValue::makeObject();
      for (const auto &[Name, Value] : Step.Features)
        F.set(Name, JsonValue(Value));
      O.set("features", std::move(F));
    }
    if (!Step.ExecTime.empty())
      O.set("exec", doublesToJson(Step.ExecTime));
    if (!Step.Load.empty())
      O.set("load", doublesToJson(Step.Load));
    if (!Step.FusedExecTime.empty())
      O.set("fusedExec", doublesToJson(Step.FusedExecTime));
    if (!Step.FusedLoad.empty())
      O.set("fusedLoad", doublesToJson(Step.FusedLoad));
    OS << O.dump() << '\n';
  }
}

/// True when no non-empty line remains in \p IS — a parse failure on the
/// previous line was the file's torn tail, not interior corruption.
static bool atTornTail(std::istream &IS) {
  std::string Rest;
  while (std::getline(IS, Rest))
    if (!Rest.empty())
      return false;
  return true;
}

static bool parseStages(const JsonValue *A,
                        std::vector<ReplayStageSpec> &Out) {
  if (!A)
    return true;
  if (!A->isArray())
    return false;
  for (size_t I = 0; I != A->size(); ++I) {
    const JsonValue &S = A->at(I);
    if (!S.isObject())
      return false;
    ReplayStageSpec Spec;
    Spec.Name = S.getString("name");
    Spec.Parallel = S.getBool("parallel", true);
    Out.push_back(std::move(Spec));
  }
  return true;
}

std::optional<FeatureStream> dope::readFeatureStream(std::istream &IS,
                                                     std::string *Error,
                                                     bool *TornTail) {
  auto Fail = [&](const std::string &Message) -> std::optional<FeatureStream> {
    if (Error)
      *Error = Message;
    return std::nullopt;
  };
  if (TornTail)
    *TornTail = false;

  FeatureStream Stream;
  std::string Line;
  size_t LineNo = 0;
  bool SawHeader = false;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseError;
    std::optional<JsonValue> V = JsonValue::parse(Line, &ParseError);
    if (!V || !V->isObject()) {
      // A crash mid-write leaves a truncated last record; keep the
      // intact prefix rather than failing the whole stream. The header
      // must still parse — a torn header is an empty stream.
      if (SawHeader && atTornTail(IS)) {
        if (TornTail)
          *TornTail = true;
        break;
      }
      return Fail("line " + std::to_string(LineNo) + ": " +
                  (ParseError.empty() ? "not an object" : ParseError));
    }

    if (!SawHeader) {
      SawHeader = true;
      Stream.Name = V->getString("stream");
      const std::string Kind = V->getString("kind", "pipeline");
      if (Kind == "pipeline")
        Stream.Kind = FeatureStream::GraphKind::Pipeline;
      else if (Kind == "server-nest")
        Stream.Kind = FeatureStream::GraphKind::ServerNest;
      else if (Kind == "task-tree")
        Stream.Kind = FeatureStream::GraphKind::TaskTree;
      else
        return Fail("line " + std::to_string(LineNo) + ": unknown kind '" +
                    Kind + "'");
      Stream.MaxThreads = static_cast<unsigned>(V->getNumber("maxThreads", 8));
      Stream.DefaultGrain =
          static_cast<unsigned>(V->getNumber("defaultGrain", 64));
      Stream.PowerBudgetWatts = V->getNumber("powerBudget", 0.0);
      if (!parseStages(V->get("stages"), Stream.Stages) ||
          !parseStages(V->get("fusedStages"), Stream.FusedStages))
        return Fail("line " + std::to_string(LineNo) + ": malformed stages");
      if (Stream.Stages.empty())
        return Fail("line " + std::to_string(LineNo) + ": stream needs stages");
      continue;
    }

    ReplayStep Step;
    Step.Time = V->getNumber("t");
    Step.ThreadEnvelope =
        static_cast<unsigned>(V->getNumber("envelope", 0.0));
    if (const JsonValue *F = V->get("features")) {
      if (!F->isObject())
        return Fail("line " + std::to_string(LineNo) + ": malformed features");
      // JsonValue objects preserve order, so re-reading keeps the stable
      // feature order the writer chose.
      for (const auto &[Key, Value] : F->members())
        Step.Features.emplace_back(Key, Value.asDouble());
    }
    Step.ExecTime = jsonToDoubles(V->get("exec"));
    Step.Load = jsonToDoubles(V->get("load"));
    Step.FusedExecTime = jsonToDoubles(V->get("fusedExec"));
    Step.FusedLoad = jsonToDoubles(V->get("fusedLoad"));
    Stream.Steps.push_back(std::move(Step));
  }
  if (!SawHeader)
    return Fail("empty stream file");
  return Stream;
}

//===----------------------------------------------------------------------===//
// Decision serialization + diff
//===----------------------------------------------------------------------===//

void dope::writeDecisions(const std::vector<ReplayDecision> &Decisions,
                          std::ostream &OS) {
  for (const ReplayDecision &D : Decisions) {
    JsonValue O = JsonValue::makeObject();
    O.set("step", JsonValue(D.Step));
    O.set("t", JsonValue(D.Time));
    O.set("config", JsonValue(D.Config));
    O.set("threads", JsonValue(static_cast<double>(D.TotalThreads)));
    O.set("budget", JsonValue(static_cast<double>(D.Budget)));
    JsonValue Extents = JsonValue::makeArray();
    for (unsigned E : D.Extents)
      Extents.push(JsonValue(static_cast<double>(E)));
    O.set("extents", std::move(Extents));
    OS << O.dump() << '\n';
  }
}

std::optional<std::vector<ReplayDecision>>
dope::readDecisions(std::istream &IS, std::string *Error, bool *TornTail) {
  if (TornTail)
    *TornTail = false;
  std::vector<ReplayDecision> Out;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseError;
    std::optional<JsonValue> V = JsonValue::parse(Line, &ParseError);
    if (!V || !V->isObject()) {
      if (atTornTail(IS)) {
        if (TornTail)
          *TornTail = true;
        break;
      }
      if (Error)
        *Error = "line " + std::to_string(LineNo) + ": " +
                 (ParseError.empty() ? "not an object" : ParseError);
      return std::nullopt;
    }
    ReplayDecision D;
    D.Step = static_cast<uint64_t>(V->getNumber("step"));
    D.Time = V->getNumber("t");
    D.Config = V->getString("config");
    D.TotalThreads = static_cast<unsigned>(V->getNumber("threads"));
    D.Budget = static_cast<unsigned>(V->getNumber("budget"));
    if (const JsonValue *Extents = V->get("extents"); Extents &&
                                                      Extents->isArray())
      for (size_t I = 0; I != Extents->size(); ++I)
        D.Extents.push_back(static_cast<unsigned>(Extents->at(I).asDouble()));
    Out.push_back(std::move(D));
  }
  return Out;
}

static std::string renderDecision(const ReplayDecision &D) {
  std::ostringstream OS;
  OS << "step " << D.Step << " t=" << D.Time << " threads=" << D.TotalThreads
     << " budget=" << D.Budget << " config=" << D.Config;
  return OS.str();
}

std::optional<std::string>
dope::diffDecisions(const std::vector<ReplayDecision> &Expected,
                    const std::vector<ReplayDecision> &Actual) {
  const size_t Common = std::min(Expected.size(), Actual.size());
  for (size_t I = 0; I != Common; ++I) {
    if (Expected[I] == Actual[I])
      continue;
    std::ostringstream OS;
    OS << "decision sequences diverge at decision " << I << ":\n"
       << "  expected: " << renderDecision(Expected[I]) << "\n"
       << "  actual:   " << renderDecision(Actual[I]);
    return OS.str();
  }
  if (Expected.size() != Actual.size()) {
    std::ostringstream OS;
    OS << "decision sequences diverge at decision " << Common << ":\n";
    if (Expected.size() > Actual.size())
      OS << "  expected: " << renderDecision(Expected[Common]) << "\n"
         << "  actual:   <end of sequence — " << Actual.size()
         << " decision(s)>";
    else
      OS << "  expected: <end of sequence — " << Expected.size()
         << " decision(s)>\n"
         << "  actual:   " << renderDecision(Actual[Common]);
    return OS.str();
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

std::vector<unsigned> dope::flattenExtents(const RegionConfig &Config) {
  std::vector<unsigned> Out;
  std::function<void(const std::vector<TaskConfig> &)> Walk =
      [&](const std::vector<TaskConfig> &Tasks) {
        for (const TaskConfig &TC : Tasks) {
          Out.push_back(TC.Extent);
          Walk(TC.Inner);
        }
      };
  Walk(Config.Tasks);
  return Out;
}

static TaskFn replayDummyFn() {
  return [](TaskRuntime &) { return TaskStatus::Finished; };
}

ReplayMechanismHarness::ReplayMechanismHarness(FeatureStream TheStream)
    : Stream(std::move(TheStream)), Graph(std::make_unique<TaskGraph>()) {
  assert(!Stream.Stages.empty() && "stream needs at least one stage");
  if (Stream.Kind == FeatureStream::GraphKind::TaskTree) {
    // Tree-marked single-task region: defaultConfig seeds the grain, so
    // grain-adaptation decisions replay exactly like extent decisions.
    TreeTask = Graph->createTask(Stream.Stages.front().Name.empty()
                                     ? "tree"
                                     : Stream.Stages.front().Name,
                                 replayDummyFn(), LoadFn(),
                                 Graph->parDescriptor());
    Root = Graph->createTreeRegion(
        TreeTask, Stream.DefaultGrain == 0 ? 64 : Stream.DefaultGrain);
    return;
  }
  if (Stream.Kind == FeatureStream::GraphKind::ServerNest) {
    // root{ outer(PAR, alt0 = { work(PAR) }) } — same shape the nest
    // simulator and the WQT mechanisms assume.
    InnerWork = Graph->createTask("work", replayDummyFn(), LoadFn(),
                                  Graph->parDescriptor());
    ParDescriptor *Inner = Graph->createRegion({InnerWork});
    Outer = Graph->createTask(
        Stream.Stages.front().Name.empty() ? "outer"
                                           : Stream.Stages.front().Name,
        replayDummyFn(), LoadFn(),
        Graph->createDescriptor(TaskKind::Parallel, {Inner}));
    Root = Graph->createRegion({Outer});
    return;
  }

  // Driver-wrapped pipeline: root{ driver(SEQ, alt0 = Stages,
  // alt1 = FusedStages) }.
  auto MakeRegion = [&](const std::vector<ReplayStageSpec> &Specs,
                        std::vector<Task *> &Out) {
    for (const ReplayStageSpec &Spec : Specs)
      Out.push_back(Graph->createTask(Spec.Name, replayDummyFn(), LoadFn(),
                                      Spec.Parallel ? Graph->parDescriptor()
                                                    : Graph->seqDescriptor()));
    return Graph->createRegion(Out);
  };
  std::vector<ParDescriptor *> Alts;
  Alts.push_back(MakeRegion(Stream.Stages, StageTasks));
  if (!Stream.FusedStages.empty())
    Alts.push_back(MakeRegion(Stream.FusedStages, FusedTasks));
  Driver = Graph->createTask("driver", replayDummyFn(), LoadFn(),
                             Graph->createDescriptor(TaskKind::Sequential,
                                                     Alts));
  Root = Graph->createRegion({Driver});
}

ReplayMechanismHarness::~ReplayMechanismHarness() = default;

RegionSnapshot
ReplayMechanismHarness::buildSnapshot(const ReplayStep &Step,
                                      const RegionConfig &Current,
                                      uint64_t Invocations) const {
  // The step's (execution time, load) of every measured task, by task id.
  std::map<unsigned, std::pair<double, double>> ById;
  auto Fill = [&](const std::vector<Task *> &Tasks,
                  const std::vector<double> &Exec,
                  const std::vector<double> &Load) {
    for (size_t I = 0; I != Tasks.size(); ++I)
      ById[Tasks[I]->id()] = {I < Exec.size() ? Exec[I] : 0.0,
                              I < Load.size() ? Load[I] : 0.0};
  };
  if (Stream.Kind == FeatureStream::GraphKind::TaskTree) {
    Fill({TreeTask}, Step.ExecTime, Step.Load);
  } else if (Stream.Kind == FeatureStream::GraphKind::ServerNest) {
    Fill({Outer, InnerWork}, Step.ExecTime, Step.Load);
  } else {
    Fill(StageTasks, Step.ExecTime, Step.Load);
    Fill(FusedTasks, Step.FusedExecTime, Step.FusedLoad);
  }

  return snapshotRegion(*Root, &Current.Tasks,
                        [&](const Task &T, size_t, TaskSnapshot &TS) {
    auto It = ById.find(T.id());
    if (It == ById.end())
      return;
    TS.ExecTime = It->second.first;
    TS.Load = TS.LastLoad = It->second.second;
    // A stage with no execution-time measurement has not run; zero
    // invocations gates mechanisms that require a fully measured region
    // (PipelineView::fullyMeasured).
    TS.Invocations = TS.ExecTime > 0.0 ? Invocations : 0;
  });
}

ReplayResult ReplayMechanismHarness::run(Mechanism &M, Tracer *Trace) {
  M.reset();
  Registry.setTracer(Trace);

  RegionConfig Current = defaultConfig(*Root);
  ReplayResult Result;
  std::set<std::string> Registered;
  unsigned Envelope = Stream.MaxThreads;

  for (size_t I = 0; I != Stream.Steps.size(); ++I) {
    const ReplayStep &Step = Stream.Steps[I];
    if (Step.ThreadEnvelope != 0)
      Envelope = std::clamp(Step.ThreadEnvelope, 1u, Stream.MaxThreads);

    CurrentFeatures.clear();
    for (const auto &[Name, Value] : Step.Features)
      CurrentFeatures[Name] = Value;
    if (Hook_)
      Hook_(I, Current, CurrentFeatures);

    // The registry mirrors exactly this step's features: a feature absent
    // from the step is unregistered so mechanisms observe their declared
    // fallbacks, just as they would against a platform that never
    // registered it.
    for (auto It = Registered.begin(); It != Registered.end();) {
      if (CurrentFeatures.count(*It) == 0) {
        Registry.unregisterFeature(*It);
        It = Registered.erase(It);
      } else {
        ++It;
      }
    }
    for (const auto &[Name, Value] : CurrentFeatures)
      if (Registered.insert(Name).second)
        Registry.registerFeature(Name, [this, Key = Name] {
          auto It = CurrentFeatures.find(Key);
          return It == CurrentFeatures.end() ? 0.0 : It->second;
        });

    const RegionSnapshot Snap =
        buildSnapshot(Step, Current, /*Invocations=*/10 + I);

    MechanismContext Ctx;
    Ctx.MaxThreads = Envelope;
    Ctx.PowerBudgetWatts = Stream.PowerBudgetWatts;
    Ctx.Features = &Registry;
    Ctx.NowSeconds = Step.Time;
    Ctx.Trace = Trace;

    ControlStepResult Outcome =
        controlStep(M, *Root, Snap, Current, Ctx, Envelope);
    Result.InvalidProposals += Outcome.Outcome == StepOutcome::Invalid;
    Result.OverEnvelopeProposals += Outcome.Outcome == StepOutcome::OverCeiling;
    if (Outcome.Outcome != StepOutcome::Accepted)
      continue;

    Current = std::move(*Outcome.Proposal);
    ReplayDecision D;
    D.Step = I;
    D.Time = Step.Time;
    D.Config = toString(*Root, Current);
    D.TotalThreads = totalThreads(*Root, Current);
    // The budget the mechanism planned against, read without tracing: the
    // mechanism, not the harness, owns the FeatureRead records.
    MechanismContext Untraced = Ctx;
    Untraced.Trace = nullptr;
    D.Budget = Untraced.effectiveThreads();
    D.Extents = flattenExtents(Current);
    Result.Decisions.push_back(std::move(D));
  }

  Registry.setTracer(nullptr);
  Result.FinalConfig = std::move(Current);
  return Result;
}
