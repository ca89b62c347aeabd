//===- support/Trace.cpp - Structured decision tracing ---------------------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Clock.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>

using namespace dope;

//===----------------------------------------------------------------------===//
// Kind names
//===----------------------------------------------------------------------===//

static constexpr const char *KindNames[] = {
    "feature",  "feature-read", "decision",    "queue",
    "begin",    "end",          "wait",        "reconfig",
    "fault",    "log",          "counter",     "lease-grant",
    "lease-revoke", "tenant-utility", "lease-expire", "heartbeat",
    "compliance", "steal"};

const char *dope::toString(TraceKind Kind) {
  return KindNames[static_cast<size_t>(Kind)];
}

std::optional<TraceKind> dope::traceKindFromString(std::string_view Name) {
  for (size_t I = 0; I != std::size(KindNames); ++I)
    if (Name == KindNames[I])
      return static_cast<TraceKind>(I);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

/// One thread's ring. The writing thread and drain() synchronize on the
/// per-buffer mutex; writers of different threads never share a buffer,
/// so the lock is uncontended outside drains.
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(uint32_t Tid) : Tid(Tid) {}

  std::mutex Mutex;
  const uint32_t Tid;
  std::vector<TraceRecord> Ring DOPE_GUARDED_BY(Mutex);
  // Oldest record once the ring wrapped.
  size_t Head DOPE_GUARDED_BY(Mutex) = 0;
  uint64_t Written DOPE_GUARDED_BY(Mutex) = 0;
  uint64_t Dropped DOPE_GUARDED_BY(Mutex) = 0;
};

namespace {

/// Thread-local association of tracer id -> buffer. Ids are process
/// unique and never reused, so a stale slot of a destroyed tracer can
/// never be mistaken for a live one. The buffer is stored untyped
/// because ThreadBuffer is private to Tracer.
struct TlsSlot {
  uint64_t TracerId;
  void *Buf;
};

thread_local std::vector<TlsSlot> TlsSlots;

std::atomic<uint64_t> NextTracerId{1};
std::atomic<Tracer *> ActiveTracer{nullptr};

} // namespace

Tracer::Tracer(size_t CapacityPerThread)
    : Capacity(std::max<size_t>(16, CapacityPerThread)),
      Id(NextTracerId.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  Tracer *Self = this;
  ActiveTracer.compare_exchange_strong(Self, nullptr,
                                       std::memory_order_acq_rel);
}

Tracer *Tracer::active() {
  return ActiveTracer.load(std::memory_order_acquire);
}

void Tracer::setActive(Tracer *T) {
  ActiveTracer.store(T, std::memory_order_release);
}

void Tracer::setClock(std::function<double()> NewClock) {
  std::lock_guard<std::mutex> Lock(ClockMutex);
  Clock = std::move(NewClock);
}

double Tracer::now() const {
  {
    std::lock_guard<std::mutex> Lock(ClockMutex);
    if (Clock)
      return Clock();
  }
  // Default clock domain: the process-wide monotonic origin every other
  // native component stamps with (support/Clock.h) — not a raw
  // steady_clock read, which the determinism lint (DL001) forbids
  // outside the Clock abstraction.
  return monotonicSeconds();
}

Tracer::ThreadBuffer &Tracer::buffer() {
  for (const TlsSlot &Slot : TlsSlots)
    if (Slot.TracerId == Id)
      return *static_cast<ThreadBuffer *>(Slot.Buf);
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  Buffers.push_back(
      std::make_unique<ThreadBuffer>(static_cast<uint32_t>(Buffers.size())));
  ThreadBuffer *Buf = Buffers.back().get();
  TlsSlots.push_back({Id, Buf});
  return *Buf;
}

void Tracer::append(ThreadBuffer &Buf, TraceRecord R) {
  std::lock_guard<std::mutex> Lock(Buf.Mutex);
  R.Tid = Buf.Tid;
  ++Buf.Written;
  if (Buf.Ring.size() < Capacity) {
    Buf.Ring.push_back(std::move(R));
    return;
  }
  Buf.Ring[Buf.Head] = std::move(R);
  Buf.Head = (Buf.Head + 1) % Capacity;
  ++Buf.Dropped;
}

DOPE_HOT void Tracer::record(TraceKind Kind, std::string_view Name, double A,
                             double B, std::string Detail) {
  // Tracing is a diagnostic facility, not a control path: the clock mutex
  // below is uncontended except while a test swaps the clock in.
  // dope-lint: allow(HP004)
  recordAt(now(), Kind, Name, A, B, std::move(Detail));
}

DOPE_HOT void Tracer::recordAt(double Time, TraceKind Kind,
                               std::string_view Name, double A, double B,
                               std::string Detail) {
  TraceRecord R;
  R.Time = Time;
  R.Kind = Kind;
  R.Name.assign(Name);
  R.A = A;
  R.B = B;
  R.Detail = std::move(Detail);
  // The buffer mutex is per-thread (never contended in steady state) and
  // the registry mutex is only taken on a thread's first record; keeping
  // them is the tracer's documented bounded-overhead trade-off.
  // dope-lint: allow(HP004)
  append(buffer(), std::move(R));
}

std::vector<TraceRecord> Tracer::drain() {
  std::vector<TraceRecord> Out;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const std::unique_ptr<ThreadBuffer> &Buf : Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    // Chronological ring order: from the oldest (Head) around.
    for (size_t I = 0; I != Buf->Ring.size(); ++I)
      Out.push_back(
          std::move(Buf->Ring[(Buf->Head + I) % Buf->Ring.size()]));
    Buf->Ring.clear();
    Buf->Head = 0;
  }
  const auto ByTime = [](const TraceRecord &L, const TraceRecord &R) {
    return L.Time < R.Time;
  };
  // A single writer's ring is usually in time order already (simulator
  // traces have one writer); a stable sort would leave it unchanged.
  if (!std::is_sorted(Out.begin(), Out.end(), ByTime))
    std::stable_sort(Out.begin(), Out.end(), ByTime);
  return Out;
}

void dope::canonicalizeTrace(std::vector<TraceRecord> &Records) {
  std::sort(Records.begin(), Records.end(),
            [](const TraceRecord &L, const TraceRecord &R) {
              if (L.Time != R.Time)
                return L.Time < R.Time;
              if (L.Kind != R.Kind)
                return static_cast<int>(L.Kind) < static_cast<int>(R.Kind);
              if (int C = L.Name.compare(R.Name))
                return C < 0;
              if (L.A != R.A)
                return L.A < R.A;
              if (L.B != R.B)
                return L.B < R.B;
              return L.Detail < R.Detail;
            });
}

uint64_t Tracer::droppedRecords() const {
  auto *Self = const_cast<Tracer *>(this);
  std::lock_guard<std::mutex> Lock(Self->RegistryMutex);
  uint64_t Total = 0;
  for (const std::unique_ptr<ThreadBuffer> &Buf : Self->Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Total += Buf->Dropped;
  }
  return Total;
}

uint64_t Tracer::recordedTotal() const {
  auto *Self = const_cast<Tracer *>(this);
  std::lock_guard<std::mutex> Lock(Self->RegistryMutex);
  uint64_t Total = 0;
  for (const std::unique_ptr<ThreadBuffer> &Buf : Self->Buffers) {
    std::lock_guard<std::mutex> BufLock(Buf->Mutex);
    Total += Buf->Written;
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Exporters append into one buffer and hand it to the stream in large
/// chunks: per-record ostream << calls dominated export time at trace
/// sizes the figure harnesses produce. The JSON bytes are built with
/// JsonValue::appendNumber / escapeTo, so output is identical to the
/// JsonValue-based writer the goldens were recorded with.
static constexpr size_t FlushChunkBytes = 1 << 16;

static void flushBuffer(std::string &Buf, std::ostream &OS, bool Force) {
  if (Buf.empty() || (!Force && Buf.size() < FlushChunkBytes))
    return;
  OS.write(Buf.data(), static_cast<std::streamsize>(Buf.size()));
  Buf.clear();
}

void dope::writeTraceJsonl(const std::vector<TraceRecord> &Records,
                           std::ostream &OS) {
  std::string Buf;
  Buf.reserve(FlushChunkBytes + 1024);
  for (const TraceRecord &R : Records) {
    Buf += "{\"t\":";
    JsonValue::appendNumber(Buf, R.Time);
    Buf += ",\"kind\":\"";
    Buf += toString(R.Kind);
    Buf += "\",\"tid\":";
    JsonValue::appendNumber(Buf, static_cast<double>(R.Tid));
    Buf += ",\"name\":\"";
    JsonValue::escapeTo(Buf, R.Name);
    Buf += '"';
    if (R.A != 0.0) {
      Buf += ",\"a\":";
      JsonValue::appendNumber(Buf, R.A);
    }
    if (R.B != 0.0) {
      Buf += ",\"b\":";
      JsonValue::appendNumber(Buf, R.B);
    }
    if (!R.Detail.empty()) {
      Buf += ",\"detail\":\"";
      JsonValue::escapeTo(Buf, R.Detail);
      Buf += '"';
    }
    Buf += "}\n";
    flushBuffer(Buf, OS, /*Force=*/false);
  }
  flushBuffer(Buf, OS, /*Force=*/true);
}

namespace {

bool isThreadIndex(double Tid) {
  return Tid >= 0.0 && Tid < 4294967296.0 && Tid == std::floor(Tid);
}

/// Steps past \p Lit when the text at \p P starts with it.
bool scanLiteral(const char *&P, const char *End, std::string_view Lit) {
  if (static_cast<size_t>(End - P) < Lit.size() ||
      std::string_view(P, Lit.size()) != Lit)
    return false;
  P += Lit.size();
  return true;
}

/// Scans a string body without escapes and its closing quote.
bool scanString(const char *&P, const char *End, std::string_view &Out) {
  const char *Begin = P;
  for (; P != End && *P != '"'; ++P)
    if (*P == '\\')
      return false;
  if (P == End)
    return false;
  Out = std::string_view(Begin, static_cast<size_t>(P++ - Begin));
  return true;
}

/// Scans a number that starts with a digit, or '-' and a digit, and fits
/// a double. Other forms strtod takes (inf, nan, '+', ".5", hex) and
/// out-of-range magnitudes are left to the parser.
bool scanNumber(const char *&P, const char *End, double &Out) {
  const char *Digit = P != End && *P == '-' ? P + 1 : P;
  if (Digit == End || *Digit < '0' || *Digit > '9')
    return false;
  const std::from_chars_result R = std::from_chars(P, End, Out);
  P = R.ptr;
  return R.ec == std::errc();
}

/// Reads \p Line straight into \p R when it is exactly what
/// writeTraceJsonl writes: keys in its order with no whitespace, plain
/// numbers, strings without escapes, a known kind and a valid tid.
/// Returns false on anything else, and the line goes to parseRecord,
/// which reads the same values from every line this accepts.
bool scanRecord(std::string_view Line, TraceRecord &R) {
  const char *P = Line.data();
  const char *End = P + Line.size();
  std::string_view Kind, Name, Detail;
  double Tid = 0.0;
  if (!scanLiteral(P, End, "{\"t\":") || !scanNumber(P, End, R.Time) ||
      !scanLiteral(P, End, ",\"kind\":\"") || !scanString(P, End, Kind) ||
      !scanLiteral(P, End, ",\"tid\":") || !scanNumber(P, End, Tid) ||
      !scanLiteral(P, End, ",\"name\":\"") || !scanString(P, End, Name))
    return false;
  if (scanLiteral(P, End, ",\"a\":") && !scanNumber(P, End, R.A))
    return false;
  if (scanLiteral(P, End, ",\"b\":") && !scanNumber(P, End, R.B))
    return false;
  if (scanLiteral(P, End, ",\"detail\":\"") && !scanString(P, End, Detail))
    return false;
  const std::optional<TraceKind> K = traceKindFromString(Kind);
  if (!scanLiteral(P, End, "}") || P != End || !K || !isThreadIndex(Tid))
    return false;
  R.Kind = *K;
  R.Tid = static_cast<uint32_t>(Tid);
  R.Name.assign(Name);
  R.Detail.assign(Detail);
  return true;
}

/// Reads \p Line through JsonValue into every field of \p R. Returns why
/// the line is not a record, or an empty string when it is one.
std::string parseRecord(std::string_view Line, TraceRecord &R) {
  std::string Error;
  std::optional<JsonValue> V = JsonValue::parse(Line, &Error);
  if (!V)
    return Error;
  if (!V->isObject())
    return "not an object";
  std::optional<TraceKind> Kind = traceKindFromString(V->getString("kind"));
  if (!Kind)
    return "unknown kind '" + V->getString("kind") + "'";
  const double Tid = V->getNumber("tid");
  if (!isThreadIndex(Tid)) {
    Error = "tid ";
    JsonValue::appendNumber(Error, Tid);
    return Error + " is not an integer in [0, 2^32)";
  }
  R.Time = V->getNumber("t");
  R.Kind = *Kind;
  R.Tid = static_cast<uint32_t>(Tid);
  R.Name = V->getString("name");
  R.A = V->getNumber("a");
  R.B = V->getNumber("b");
  R.Detail = V->getString("detail");
  return Error;
}

/// The one reader loop: one line at a time, blank lines ignored. Strict
/// mode stops at the first line that is not a record.
std::vector<TraceRecord> readLines(std::istream &IS, bool Strict,
                                   TraceReadStats &Stats) {
  Stats = TraceReadStats();
  std::vector<TraceRecord> Out;
  std::string Line;
  uint64_t LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord R;
    if (!scanRecord(Line, R)) {
      if (std::string Error = parseRecord(Line, R); !Error.empty()) {
        if (Stats.Skipped++ == 0) {
          Stats.FirstSkippedLine = LineNo;
          Stats.FirstError = std::move(Error);
        }
        if (Strict)
          break;
        continue;
      }
    }
    ++Stats.Parsed;
    Out.push_back(std::move(R));
  }
  return Out;
}

} // namespace

std::optional<std::vector<TraceRecord>>
dope::readTraceJsonl(std::istream &IS, std::string *Error) {
  TraceReadStats Stats;
  std::vector<TraceRecord> Out = readLines(IS, /*Strict=*/true, Stats);
  if (Stats.Skipped == 0)
    return Out;
  if (Error)
    *Error = "line " + std::to_string(Stats.FirstSkippedLine) + ": " +
             Stats.FirstError;
  return std::nullopt;
}

std::vector<TraceRecord> dope::readTraceJsonlLenient(std::istream &IS,
                                                     TraceReadStats *Stats) {
  TraceReadStats Local;
  return readLines(IS, /*Strict=*/false, Stats ? *Stats : Local);
}

void dope::writeChromeTrace(const std::vector<TraceRecord> &Records,
                            std::ostream &OS) {
  // trace_event JSON array form; timestamps in microseconds. Task
  // begin/end map to duration events on the writer's thread track;
  // features and queue depths map to counter tracks; everything else is
  // an instant event.
  std::string Buf;
  Buf.reserve(FlushChunkBytes + 1024);
  Buf += '[';
  bool First = true;
  for (const TraceRecord &R : Records) {
    if (!First)
      Buf += ",\n";
    First = false;
    Buf += "{\"pid\":1,\"tid\":";
    JsonValue::appendNumber(Buf, static_cast<double>(R.Tid));
    Buf += ",\"ts\":";
    JsonValue::appendNumber(Buf, R.Time * 1e6);
    switch (R.Kind) {
    case TraceKind::TaskBegin:
    case TraceKind::TaskEnd:
      Buf += R.Kind == TraceKind::TaskBegin ? ",\"ph\":\"B\",\"name\":\""
                                            : ",\"ph\":\"E\",\"name\":\"";
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\"}";
      break;
    case TraceKind::FeatureSample:
    case TraceKind::FeatureRead:
    case TraceKind::QueueDepth:
    case TraceKind::TenantUtility:
    case TraceKind::Heartbeat:
    case TraceKind::Counter:
      Buf += ",\"ph\":\"C\",\"name\":\"";
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\",\"args\":{\"value\":";
      JsonValue::appendNumber(Buf, R.A);
      Buf += "}}";
      break;
    default: {
      Buf += ",\"ph\":\"i\",\"s\":\"g\",\"name\":\"";
      JsonValue::escapeTo(Buf, toString(R.Kind));
      Buf += ':';
      JsonValue::escapeTo(Buf, R.Name);
      Buf += "\",\"args\":{";
      bool FirstArg = true;
      if (!R.Detail.empty()) {
        Buf += "\"detail\":\"";
        JsonValue::escapeTo(Buf, R.Detail);
        Buf += '"';
        FirstArg = false;
      }
      if (R.A != 0.0) {
        if (!FirstArg)
          Buf += ',';
        Buf += "\"a\":";
        JsonValue::appendNumber(Buf, R.A);
        FirstArg = false;
      }
      if (R.B != 0.0) {
        if (!FirstArg)
          Buf += ',';
        Buf += "\"b\":";
        JsonValue::appendNumber(Buf, R.B);
      }
      Buf += "}}";
      break;
    }
    }
    flushBuffer(Buf, OS, /*Force=*/false);
  }
  Buf += "]\n";
  flushBuffer(Buf, OS, /*Force=*/true);
}

bool dope::writeTraceFile(const std::vector<TraceRecord> &Records,
                          const std::string &Path, std::string *Error) {
  std::ofstream OS(Path);
  if (!OS) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  const bool Chrome =
      Path.size() >= 5 && Path.compare(Path.size() - 5, 5, ".json") == 0;
  if (Chrome)
    writeChromeTrace(Records, OS);
  else
    writeTraceJsonl(Records, OS);
  OS.flush();
  if (!OS) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}
