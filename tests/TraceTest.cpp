//===- tests/TraceTest.cpp - Tracer, JSON, exporters, replay I/O -----------===//
//
// Part of the DoPE reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the observability subsystem: the JSON value, the Tracer
/// ring buffers and clock domain, both exporters with round trips, the
/// Logging mirror, stream/decision serialization, the decision differ,
/// and the tracer wiring of the executive and the simulators.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Logging.h"
#include "support/Trace.h"

#include "core/Dope.h"
#include "core/Replay.h"
#include "metrics/TimeSeries.h"
#include "mechanisms/Tbf.h"
#include "mechanisms/WqtH.h"
#include "sim/NestServerSim.h"
#include "sim/PipelineSim.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

using namespace dope;
using namespace dope::testing_helpers;

//===----------------------------------------------------------------------===//
// JsonValue
//===----------------------------------------------------------------------===//

TEST(JsonValue, DumpParseRoundTrip) {
  JsonValue O = JsonValue::makeObject();
  O.set("name", JsonValue("pipeline \"x\"\n"));
  O.set("count", JsonValue(42));
  O.set("ratio", JsonValue(0.375));
  O.set("ok", JsonValue(true));
  O.set("none", JsonValue());
  JsonValue A = JsonValue::makeArray();
  A.push(JsonValue(1));
  A.push(JsonValue(2.5));
  O.set("list", std::move(A));

  const std::string Text = O.dump();
  std::string Error;
  std::optional<JsonValue> Back = JsonValue::parse(Text, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->getString("name"), "pipeline \"x\"\n");
  EXPECT_EQ(Back->getNumber("count"), 42.0);
  EXPECT_EQ(Back->getNumber("ratio"), 0.375);
  EXPECT_TRUE(Back->getBool("ok"));
  ASSERT_NE(Back->get("none"), nullptr);
  EXPECT_TRUE(Back->get("none")->isNull());
  ASSERT_NE(Back->get("list"), nullptr);
  ASSERT_EQ(Back->get("list")->size(), 2u);
  EXPECT_EQ(Back->get("list")->at(1).asDouble(), 2.5);
}

TEST(JsonValue, ObjectPreservesInsertionOrder) {
  JsonValue O = JsonValue::makeObject();
  O.set("zebra", JsonValue(1));
  O.set("alpha", JsonValue(2));
  O.set("mid", JsonValue(3));
  EXPECT_EQ(O.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Re-setting a key updates in place, it does not reorder.
  O.set("alpha", JsonValue(9));
  EXPECT_EQ(O.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(JsonValue, IntegersStayIntegers) {
  EXPECT_EQ(JsonValue(3.0).dump(), "3");
  EXPECT_EQ(JsonValue(-17).dump(), "-17");
  EXPECT_EQ(JsonValue(0.25).dump(), "0.25");
}

TEST(JsonValue, ParseErrorsCarryOffsets) {
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("{\"a\": }", &Error).has_value());
  EXPECT_NE(Error.find("offset"), std::string::npos);
  EXPECT_FALSE(JsonValue::parse("[1, 2] trailing", &Error).has_value());
  EXPECT_NE(Error.find("trailing"), std::string::npos);
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &Error).has_value());
}

TEST(JsonValue, UnicodeEscapesTakeOnlyHexDigits) {
  std::string Error;
  for (const char *Bad : {"\"\\u00zz\"", "\"\\uzzzz\"", "\"\\u+041\"",
                          "\"\\u-041\"", "\"\\u 041\""}) {
    EXPECT_FALSE(JsonValue::parse(Bad, &Error).has_value()) << Bad;
    EXPECT_NE(Error.find("bad \\u escape"), std::string::npos) << Error;
  }
  std::optional<JsonValue> V = JsonValue::parse("\"\\u0041\\u00e9\\u20AC\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asString(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonValue, SurrogatePairDecodesToOneFourByteSequence) {
  // U+1F600, not the 6-byte CESU-8 of its two halves.
  std::optional<JsonValue> V = JsonValue::parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asString(), "\xF0\x9F\x98\x80");
  V = JsonValue::parse("\"\\uDBFF\\uDFFF\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asString(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonValue, LoneSurrogatesAreRejected) {
  std::string Error;
  for (const char *Bad : {"\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\n\"",
                          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\"",
                          "\"\\ude00\"", "\"\\ude00\\ud83d\""}) {
    EXPECT_FALSE(JsonValue::parse(Bad, &Error).has_value()) << Bad;
    EXPECT_NE(Error.find("surrogate"), std::string::npos) << Error;
  }
  // A high half cut off before its low half's digits.
  EXPECT_FALSE(JsonValue::parse("\"\\ud83d\\ude", &Error).has_value());
}

TEST(JsonValue, NumbersEndAtTheEndOfTheView) {
  // The view holds "12" of "12345": the number must not run on into
  // bytes past its end.
  std::string Error;
  std::optional<JsonValue> V =
      JsonValue::parse(std::string_view("12345", 2), &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->asDouble(), 12.0);

  // A view with no terminator after it: a heap copy of exactly its bytes.
  const std::string_view Source = "[3.5,-1e2]";
  const std::unique_ptr<char[]> Unterminated(new char[Source.size()]);
  std::copy(Source.begin(), Source.end(), Unterminated.get());
  V = JsonValue::parse(std::string_view(Unterminated.get(), Source.size()),
                       &Error);
  ASSERT_TRUE(V.has_value()) << Error;
  EXPECT_EQ(V->at(0).asDouble(), 3.5);
  EXPECT_EQ(V->at(1).asDouble(), -100.0);
  V = JsonValue::parse(std::string_view(Unterminated.get(), 3), &Error);
  EXPECT_FALSE(V.has_value());
  EXPECT_EQ(Error, "expected ']' at offset 3");
}

TEST(JsonValue, NonFiniteNumbersStillParse) {
  // appendNumber writes non-finite values as %.17g does, so the parser
  // keeps reading them back, and keeps saturating out-of-range input.
  for (double D : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    std::string Text;
    JsonValue::appendNumber(Text, D);
    std::optional<JsonValue> V = JsonValue::parse(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    if (std::isnan(D))
      EXPECT_TRUE(std::isnan(V->asDouble()));
    else
      EXPECT_EQ(V->asDouble(), D);
  }
  std::optional<JsonValue> V = JsonValue::parse("[1e400,-1e400,1e-400]");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->at(0).asDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(V->at(1).asDouble(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(V->at(2).asDouble(), 0.0);
}

/// The number formatting appendNumber had when the goldens were written.
static std::string snprintfNumber(double D) {
  char Buf[40];
  if (std::isfinite(D) && D == std::floor(D) && std::abs(D) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(D));
  else
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  return Buf;
}

static double doubleFromBits(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

static uint64_t bitsOf(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(D));
  return Bits;
}

TEST(JsonValue, AppendNumberMatchesSnprintf) {
  Rng R(loggedSeed(0x4A534F4E));
  std::vector<double> Values = {0.0,
                                -0.0,
                                1e15,
                                -1e15,
                                1e15 - 1,
                                1e15 + 1,
                                -(1e15 - 1),
                                -(1e15 + 1),
                                0.1,
                                1.0 / 3.0,
                                9007199254740993.0,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  for (int I = 0; I != 100000; ++I) {
    switch (R.uniformInt(4)) {
    case 0: // any bit pattern: every exponent, subnormals, inf and nan
      Values.push_back(doubleFromBits(R.next()));
      break;
    case 1: // integers on both sides of the 1e15 switch to %.17g
      Values.push_back(std::floor(R.uniform(-2e15, 2e15)));
      break;
    case 2: // trace-like magnitudes: times, rates, fractions
      Values.push_back(R.uniform(-1.0, 1.0) *
                       std::pow(10.0, R.uniform(-8.0, 8.0)));
      break;
    default: // small integers and halves
      Values.push_back(static_cast<double>(R.uniformInt(2000)) / 2.0 - 500);
    }
  }
  for (double D : Values) {
    std::string Got;
    JsonValue::appendNumber(Got, D);
    ASSERT_EQ(Got, snprintfNumber(D)) << "bits 0x" << std::hex << bitsOf(D);
  }
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Tracer, DrainReturnsTimeSortedRecords) {
  Tracer T(64);
  T.recordAt(3.0, TraceKind::Decision, "late");
  T.recordAt(1.0, TraceKind::Decision, "early");
  T.recordAt(2.0, TraceKind::Decision, "middle");

  std::vector<TraceRecord> Records = T.drain();
  ASSERT_EQ(Records.size(), 3u);
  EXPECT_EQ(Records[0].Name, "early");
  EXPECT_EQ(Records[1].Name, "middle");
  EXPECT_EQ(Records[2].Name, "late");
  // Drain clears.
  EXPECT_TRUE(T.drain().empty());
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer T(16); // capacity floor is 16
  for (int I = 0; I != 40; ++I)
    T.recordAt(static_cast<double>(I), TraceKind::Counter, "c",
               static_cast<double>(I));
  EXPECT_EQ(T.recordedTotal(), 40u);
  EXPECT_EQ(T.droppedRecords(), 24u);

  std::vector<TraceRecord> Records = T.drain();
  ASSERT_EQ(Records.size(), 16u);
  // The survivors are the newest 16, still in order.
  EXPECT_EQ(Records.front().A, 24.0);
  EXPECT_EQ(Records.back().A, 39.0);
}

TEST(Tracer, PerThreadBuffersGetDistinctTids) {
  Tracer T(256);
  constexpr int Threads = 4, PerThread = 50;
  std::vector<std::thread> Workers;
  for (int W = 0; W != Threads; ++W)
    Workers.emplace_back([&T] {
      for (int I = 0; I != PerThread; ++I)
        T.record(TraceKind::Counter, "w");
    });
  for (std::thread &W : Workers)
    W.join();

  std::vector<TraceRecord> Records = T.drain();
  ASSERT_EQ(Records.size(),
            static_cast<size_t>(Threads) * PerThread);
  std::set<uint32_t> Tids;
  for (const TraceRecord &R : Records)
    Tids.insert(R.Tid);
  EXPECT_EQ(Tids.size(), static_cast<size_t>(Threads));
  EXPECT_EQ(T.droppedRecords(), 0u);
}

TEST(Tracer, ClockRetargeting) {
  Tracer T(64);
  double VirtualNow = 12.5;
  T.setClock([&VirtualNow] { return VirtualNow; });
  T.record(TraceKind::Counter, "a");
  VirtualNow = 99.0;
  T.record(TraceKind::Counter, "b");
  T.setClock({}); // back to native

  std::vector<TraceRecord> Records = T.drain();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Time, 12.5);
  EXPECT_EQ(Records[1].Time, 99.0);
}

TEST(Tracer, ActiveSlotClearedOnDestruction) {
  Tracer *Before = Tracer::active();
  {
    Tracer T(64);
    Tracer::setActive(&T);
    EXPECT_EQ(Tracer::active(), &T);
  }
  EXPECT_EQ(Tracer::active(), nullptr);
  Tracer::setActive(Before);
}

TEST(Tracer, LoggingMirrorsIntoActiveTracer) {
  Tracer T(64);
  T.setClock([] { return 7.0; });
  Tracer *Before = Tracer::active();
  Tracer::setActive(&T);
  DOPE_LOG_ERROR("trace mirror check %d", 42);
  Tracer::setActive(Before);

  std::vector<TraceRecord> Records = T.drain();
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Kind, TraceKind::Log);
  EXPECT_EQ(Records[0].Time, 7.0);
  EXPECT_NE(Records[0].Detail.find("trace mirror check 42"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

static std::vector<TraceRecord> sampleRecords() {
  std::vector<TraceRecord> Records;
  TraceRecord R;
  R.Time = 0.5;
  R.Kind = TraceKind::TaskBegin;
  R.Tid = 1;
  R.Name = "rank";
  R.A = 2;
  Records.push_back(R);
  R.Time = 0.75;
  R.Kind = TraceKind::Decision;
  R.Name = "TBF";
  R.A = 8;
  R.B = 1;
  R.Detail = "<(1, PIPE <(1, PAR), (7, PAR)>)>";
  Records.push_back(R);
  R.Time = 0.9;
  R.Kind = TraceKind::TaskEnd;
  R.Name = "rank";
  R.A = 2;
  R.B = 0.4;
  R.Detail.clear();
  Records.push_back(R);
  return Records;
}

TEST(TraceExport, JsonlRoundTrip) {
  const std::vector<TraceRecord> Records = sampleRecords();
  std::stringstream SS;
  writeTraceJsonl(Records, SS);

  std::string Error;
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(SS, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  ASSERT_EQ(Back->size(), Records.size());
  for (size_t I = 0; I != Records.size(); ++I) {
    EXPECT_EQ((*Back)[I].Time, Records[I].Time);
    EXPECT_EQ((*Back)[I].Kind, Records[I].Kind);
    EXPECT_EQ((*Back)[I].Tid, Records[I].Tid);
    EXPECT_EQ((*Back)[I].Name, Records[I].Name);
    EXPECT_EQ((*Back)[I].A, Records[I].A);
    EXPECT_EQ((*Back)[I].B, Records[I].B);
    EXPECT_EQ((*Back)[I].Detail, Records[I].Detail);
  }
}

TEST(TraceExport, JsonlRejectsUnknownKind) {
  std::stringstream SS("{\"t\":1,\"kind\":\"nonsense\",\"name\":\"x\"}\n"
                       "{\"t\":2,\"kind\":\"begin\",\"name\":\"y\"}\n");
  std::string Error;
  EXPECT_FALSE(readTraceJsonl(SS, &Error).has_value());
  EXPECT_NE(Error.find("nonsense"), std::string::npos);
  // The strict read stops at the bad line; what follows stays unread.
  std::string Rest;
  ASSERT_TRUE(std::getline(SS, Rest));
  EXPECT_EQ(Rest.rfind("{\"t\":2,", 0), 0u);
}

TEST(TraceExport, LeaseProtocolKindsRoundTrip) {
  std::vector<TraceRecord> Records;
  TraceRecord R;
  R.Time = 5.0;
  R.Kind = TraceKind::LeaseExpire;
  R.Name = "tenant-a";
  R.A = 0;
  R.B = 6;
  R.Detail = "ttl";
  Records.push_back(R);
  R.Time = 5.5;
  R.Kind = TraceKind::Heartbeat;
  R.Name = "tenant-b";
  R.A = 4;
  R.B = 30.0;
  R.Detail = "saturated";
  Records.push_back(R);
  R.Time = 6.0;
  R.Kind = TraceKind::ComplianceVerdict;
  R.Name = "tenant-c";
  R.A = 4.0;
  R.B = 2.0;
  R.Detail = "envelope-exceeded";
  Records.push_back(R);

  std::stringstream SS;
  writeTraceJsonl(Records, SS);
  std::string Error;
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(SS, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  ASSERT_EQ(Back->size(), 3u);
  EXPECT_EQ((*Back)[0].Kind, TraceKind::LeaseExpire);
  EXPECT_EQ((*Back)[0].Detail, "ttl");
  EXPECT_EQ((*Back)[1].Kind, TraceKind::Heartbeat);
  EXPECT_EQ((*Back)[1].Detail, "saturated");
  EXPECT_EQ((*Back)[2].Kind, TraceKind::ComplianceVerdict);
  EXPECT_EQ((*Back)[2].B, 2.0);
}

TEST(TraceExport, LenientReaderSkipsCorruptionWithHonestCounts) {
  // A crashed writer's file: valid records, a corrupt interior line (a
  // foreign tool interleaved), and a torn final record.
  std::stringstream SS;
  SS << "{\"t\":1,\"kind\":\"heartbeat\",\"name\":\"a\",\"a\":4}\n"
     << "not json at all\n"
     << "{\"t\":2,\"kind\":\"lease-grant\",\"name\":\"a\",\"a\":6}\n"
     << "{\"t\":3,\"kind\":\"lease-revoke\",\"na";

  TraceReadStats Stats;
  const std::vector<TraceRecord> Records = readTraceJsonlLenient(SS, &Stats);
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Kind, TraceKind::Heartbeat);
  EXPECT_EQ(Records[1].Kind, TraceKind::LeaseGrant);
  EXPECT_EQ(Stats.Parsed, 2u);
  EXPECT_EQ(Stats.Skipped, 2u);
  EXPECT_EQ(Stats.FirstSkippedLine, 2u);
  EXPECT_FALSE(Stats.FirstError.empty());

  // A clean stream reports zero skips.
  std::stringstream Clean;
  writeTraceJsonl(sampleRecords(), Clean);
  TraceReadStats CleanStats;
  EXPECT_EQ(readTraceJsonlLenient(Clean, &CleanStats).size(), 3u);
  EXPECT_EQ(CleanStats.Skipped, 0u);

  // Stats passed in again describe the latest read only.
  std::stringstream Again;
  writeTraceJsonl(sampleRecords(), Again);
  EXPECT_EQ(readTraceJsonlLenient(Again, &Stats).size(), 3u);
  EXPECT_EQ(Stats.Parsed, 3u);
  EXPECT_EQ(Stats.Skipped, 0u);
  EXPECT_EQ(Stats.FirstSkippedLine, 0u);
  EXPECT_TRUE(Stats.FirstError.empty());
}

TEST(TraceExport, TidMustBeAThreadIndex) {
  for (const char *Tid : {"-1", "1.5", "4294967296", "1e400", "-inf", "nan"}) {
    const std::string Bad =
        std::string("{\"t\":2,\"kind\":\"begin\",\"tid\":") + Tid +
        ",\"name\":\"x\"}\n";
    std::stringstream Strict("{\"t\":1,\"kind\":\"begin\",\"name\":\"x\"}\n" +
                             Bad);
    std::string Error;
    EXPECT_FALSE(readTraceJsonl(Strict, &Error).has_value()) << Tid;
    EXPECT_EQ(Error.rfind("line 2: tid ", 0), 0u) << Error;

    std::stringstream Lenient(Bad);
    TraceReadStats Stats;
    EXPECT_TRUE(readTraceJsonlLenient(Lenient, &Stats).empty()) << Tid;
    EXPECT_EQ(Stats.Skipped, 1u);
    EXPECT_EQ(Stats.FirstSkippedLine, 1u);
  }
  std::stringstream Edge(
      "{\"t\":1,\"kind\":\"begin\",\"tid\":4294967295,\"name\":\"x\"}\n"
      "{\"t\":1,\"kind\":\"begin\",\"tid\": 4294967295,\"name\":\"x\"}\n");
  std::string Error;
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(Edge, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  ASSERT_EQ(Back->size(), 2u);
  EXPECT_EQ((*Back)[0].Tid, 4294967295u);
  EXPECT_EQ((*Back)[1].Tid, 4294967295u);
}

/// Bit-level record equality: distinguishes -0.0 from 0.0 and compares
/// NaNs by payload.
static bool sameBits(const TraceRecord &L, const TraceRecord &R) {
  return bitsOf(L.Time) == bitsOf(R.Time) && L.Kind == R.Kind &&
         L.Tid == R.Tid && L.Name == R.Name && bitsOf(L.A) == bitsOf(R.A) &&
         bitsOf(L.B) == bitsOf(R.B) && L.Detail == R.Detail;
}

/// A string of pieces JSONL must carry: quotes, backslashes, every kind
/// of control character, multi-byte UTF-8, and JSON punctuation.
static std::string randomText(Rng &R) {
  static const char *const Pieces[] = {
      "a",  "Z",  "7",    " ",    "\"",     "\\",   "/",      "\n",
      "\t", "\r", "\x01", "\x1f", "\x7f",   "\xc3\xa9", "\xe2\x82\xac",
      ",",  ":",  "{",    "}",    "\xf0\x9f\x98\x80", "u0041", "rank"};
  std::string Out;
  for (uint64_t N = R.uniformInt(12); N != 0; --N)
    Out += Pieces[R.uniformInt(std::size(Pieces))];
  if (R.uniformInt(8) == 0)
    Out += '\0';
  return Out;
}

static double randomTraceNumber(Rng &R) {
  static const double Special[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      1e15 - 1,
      1e15,
      1e15 + 1,
      -(1e15 - 1),
      -(1e15 + 1),
      9007199254740993.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  switch (R.uniformInt(4)) {
  case 0:
    return Special[R.uniformInt(std::size(Special))];
  case 1: {
    const double D = doubleFromBits(R.next());
    return std::isnan(D) ? 0.5 : D;
  }
  case 2:
    return std::floor(R.uniform(-1e6, 1e6));
  default:
    return R.uniform(0.0, 1e4);
  }
}

TEST(TraceExport, RandomRecordsRoundTripBitExactly) {
  Rng R(loggedSeed(0x54524143));
  std::vector<TraceRecord> Records;
  for (int I = 0; I != 4000; ++I) {
    TraceRecord Rec;
    Rec.Time = randomTraceNumber(R);
    Rec.Kind = static_cast<TraceKind>(
        R.uniformInt(static_cast<uint64_t>(TraceKind::Steal) + 1));
    switch (R.uniformInt(3)) {
    case 0:
      Rec.Tid = static_cast<uint32_t>(R.uniformInt(64));
      break;
    case 1:
      Rec.Tid = static_cast<uint32_t>(R.next());
      break;
    default:
      Rec.Tid = std::numeric_limits<uint32_t>::max();
    }
    Rec.Name = randomText(R);
    Rec.A = randomTraceNumber(R);
    Rec.B = randomTraceNumber(R);
    Rec.Detail = randomText(R);
    Records.push_back(std::move(Rec));
  }
  std::stringstream SS;
  writeTraceJsonl(Records, SS);
  std::string Error;
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(SS, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  ASSERT_EQ(Back->size(), Records.size());
  for (size_t I = 0; I != Records.size(); ++I) {
    // The format has never kept the sign of a zero: -0.0 prints through
    // the integer branch as "0", and a zero A or B is not written.
    TraceRecord Expected = Records[I];
    for (double *D : {&Expected.Time, &Expected.A, &Expected.B})
      if (*D == 0.0)
        *D = 0.0;
    ASSERT_TRUE(sameBits((*Back)[I], Expected)) << "record " << I;
  }
}

/// What the JSONL reader read from one line before the scanner existed:
/// the line through JsonValue::parse, typed lookups with their
/// fallbacks, and the rule that "tid" is an integer in [0, 2^32).
struct ReferenceLine {
  std::optional<TraceRecord> Record;
  std::string Error;
};

static ReferenceLine referenceReadLine(const std::string &Line) {
  ReferenceLine Out;
  std::optional<JsonValue> V = JsonValue::parse(Line, &Out.Error);
  if (!V || !V->isObject()) {
    if (Out.Error.empty())
      Out.Error = "not an object";
    return Out;
  }
  std::optional<TraceKind> Kind = traceKindFromString(V->getString("kind"));
  if (!Kind) {
    Out.Error = "unknown kind '" + V->getString("kind") + "'";
    return Out;
  }
  const double Tid = V->getNumber("tid");
  if (!(Tid >= 0.0 && Tid < 4294967296.0 && Tid == std::floor(Tid))) {
    Out.Error = "tid ";
    JsonValue::appendNumber(Out.Error, Tid);
    Out.Error += " is not an integer in [0, 2^32)";
    return Out;
  }
  TraceRecord R;
  R.Time = V->getNumber("t");
  R.Kind = *Kind;
  R.Tid = static_cast<uint32_t>(Tid);
  R.Name = V->getString("name");
  R.A = V->getNumber("a");
  R.B = V->getNumber("b");
  R.Detail = V->getString("detail");
  Out.Record = std::move(R);
  return Out;
}

/// Empty when readTraceJsonl reads \p Line as the reference does: the
/// same record bit for bit, or the same error text. \p SS is scratch,
/// reused so the check does not build a stream per line.
static std::string readMismatch(const std::string &Line,
                                std::istringstream &SS) {
  const ReferenceLine Ref = referenceReadLine(Line);
  SS.clear();
  SS.str(Line);
  std::string Error;
  std::optional<std::vector<TraceRecord>> Got = readTraceJsonl(SS, &Error);
  if (!Ref.Record) {
    if (Got)
      return "accepted, reference says: " + Ref.Error;
    if (Error != "line 1: " + Ref.Error)
      return "error '" + Error + "', reference '" + Ref.Error + "'";
    return {};
  }
  if (!Got)
    return "rejected: " + Error;
  if (Got->size() != 1 || !sameBits(Got->front(), *Ref.Record))
    return "read a different record";
  return {};
}

/// Textual edits of one line: the forms the scanner must hand back to
/// the parser, or read exactly as the parser does.
static std::vector<std::string> mutationsOf(const std::string &Line, Rng &R) {
  std::vector<std::string> Out;
  auto replaceAll = [](std::string S, const std::string &From,
                       const std::string &To) {
    for (size_t At = S.find(From); At != std::string::npos;
         At = S.find(From, At + To.size()))
      S.replace(At, From.size(), To);
    return S;
  };
  Out.push_back(replaceAll(Line, ":", ": "));
  Out.push_back(replaceAll(Line, ",", " ,"));
  Out.push_back(" " + Line);
  Out.push_back(Line + " ");
  Out.push_back(Line + "\r");
  Out.push_back(Line + "{}");
  if (Line.size() > 1 && Line.front() == '{') {
    const std::string Body = Line.substr(1);
    Out.push_back("{\"zz\":1," + Body);
    Out.push_back("{\"zz\":[1,{\"t\":2}],\"\\u0074\":3," + Body);
    Out.push_back("{\"a\":7," + Body);
    Out.push_back("{\"kind\":\"fault\"," + Body);
  }
  if (Line.size() > 1 && Line.back() == '}') {
    const std::string Head = Line.substr(0, Line.size() - 1);
    Out.push_back(Head + ",\"a\":7}");
    Out.push_back(Head + ",\"kind\":\"steal\"}");
    Out.push_back(Head + ",\"tid\":3}");
  }
  // Escapes inside the string values the scanner copies directly.
  for (const char *Key : {"\"name\":\"", "\"kind\":\"", "\"detail\":\""}) {
    const size_t At = Line.find(Key);
    if (At == std::string::npos)
      continue;
    const size_t First = At + std::strlen(Key);
    std::string Escaped = Line;
    char Hex[8];
    std::snprintf(Hex, sizeof(Hex), "\\u%04x",
                  static_cast<unsigned char>(Line[First]));
    Escaped.replace(First, 1, Hex);
    Out.push_back(std::move(Escaped));
    Out.push_back(Line.substr(0, First) + "\\t" + Line.substr(First));
  }
  // Reordered, missing, retyped and non-finite members, built through
  // JsonValue.
  if (std::optional<JsonValue> V = JsonValue::parse(Line);
      V && V->isObject()) {
    JsonValue Reversed = JsonValue::makeObject();
    for (auto It = V->members().rbegin(); It != V->members().rend(); ++It)
      Reversed.set(It->first, It->second);
    Out.push_back(Reversed.dump());
    for (const auto &[Dropped, Unused] : V->members()) {
      JsonValue Without = JsonValue::makeObject();
      for (const auto &[Key, Value] : V->members())
        if (Key != Dropped)
          Without.set(Key, Value);
      Out.push_back(Without.dump());
    }
    const std::pair<const char *, JsonValue> Edits[] = {
        {"name", JsonValue(5)},
        {"detail", JsonValue(true)},
        {"kind", JsonValue(3)},
        {"t", JsonValue("1")},
        {"tid", JsonValue("0")},
        {"a", JsonValue()},
        {"b", JsonValue::makeArray()}};
    for (const auto &[Key, Value] : Edits) {
      JsonValue Edited = *V;
      Edited.set(Key, Value);
      Out.push_back(Edited.dump());
    }
    static const char *const NumberKeys[] = {"t", "tid", "a", "b"};
    static const char *const Numbers[] = {
        "nan", "-nan", "inf",  "-inf", "1e400", "-1e400",     "1e-400",
        "+1",  ".5",   "0x10", "-",    "1e",    "01",         "1.5",
        "-0",  "-1",   "1e15", "4294967295",    "4294967296", "2.5e-310",
        "nan(7)"};
    for (int I = 0; I != 4; ++I) {
      const std::string Key = NumberKeys[R.uniformInt(std::size(NumberKeys))];
      JsonValue Edited = *V;
      Edited.set(Key, JsonValue(0.25));
      Out.push_back(replaceAll(Edited.dump(), "\"" + Key + "\":0.25",
                               "\"" + Key + "\":" +
                                   Numbers[R.uniformInt(std::size(Numbers))]));
    }
  }
  // Torn lines: a crash can cut a line anywhere.
  for (int I = 0; I != 2 && !Line.empty(); ++I)
    Out.push_back(Line.substr(0, R.uniformInt(Line.size())));
  return Out;
}

TEST(TraceExport, ReaderMatchesJsonValueReferenceOnGoldenLines) {
  Rng R(loggedSeed(0x474F4C44));
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(DOPE_GOLDEN_DIR))
    if (Entry.path().extension() == ".jsonl")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  size_t Lines = 0, Checked = 0, Mismatches = 0;
  std::istringstream Scratch;
  for (const std::filesystem::path &File : Files) {
    std::ifstream IS(File);
    std::string Line;
    std::stringstream Mutated;
    while (std::getline(IS, Line)) {
      ++Lines;
      // Every line as written, and a seeded sixteenth of them mutated
      // (a sanitizer build runs this too); the seed varies the sample.
      std::vector<std::string> Cases;
      if (R.uniformInt(16) == 0)
        Cases = mutationsOf(Line, R);
      Cases.push_back(Line);
      for (const std::string &Case : Cases) {
        ++Checked;
        Mutated << Case << '\n';
        if (Case.empty())
          continue;
        if (std::string Why = readMismatch(Case, Scratch); !Why.empty())
          if (++Mismatches <= 5)
            ADD_FAILURE() << File.filename() << ": " << Why << "\n  line: "
                          << Case;
      }
    }

    // The lenient mode of the same loop over the whole mutated file.
    std::vector<TraceRecord> Expected;
    TraceReadStats ExpectedStats;
    std::string Case;
    for (uint64_t LineNo = 1; std::getline(Mutated, Case); ++LineNo) {
      if (Case.empty())
        continue;
      ReferenceLine Ref = referenceReadLine(Case);
      if (Ref.Record) {
        Expected.push_back(std::move(*Ref.Record));
        continue;
      }
      if (ExpectedStats.Skipped++ == 0) {
        ExpectedStats.FirstSkippedLine = LineNo;
        ExpectedStats.FirstError = Ref.Error;
      }
    }
    Mutated.clear();
    Mutated.seekg(0);
    TraceReadStats Stats;
    const std::vector<TraceRecord> Got = readTraceJsonlLenient(Mutated, &Stats);
    ASSERT_EQ(Got.size(), Expected.size()) << File.filename();
    for (size_t I = 0; I != Got.size(); ++I)
      ASSERT_TRUE(sameBits(Got[I], Expected[I])) << File.filename() << " #" << I;
    EXPECT_EQ(Stats.Parsed, Expected.size());
    EXPECT_EQ(Stats.Skipped, ExpectedStats.Skipped);
    EXPECT_EQ(Stats.FirstSkippedLine, ExpectedStats.FirstSkippedLine);
    EXPECT_EQ(Stats.FirstError, ExpectedStats.FirstError);
  }
  EXPECT_EQ(Mismatches, 0u) << "of " << Checked << " lines";
  EXPECT_GT(Lines, 1000u);
}

TEST(TraceExport, ChromeTraceIsWellFormedJson) {
  std::stringstream SS;
  writeChromeTrace(sampleRecords(), SS);
  std::string Error;
  std::optional<JsonValue> Doc = JsonValue::parse(SS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_TRUE(Doc->isArray());
  ASSERT_EQ(Doc->size(), 3u);
  // Begin/end become B/E duration events; microsecond timestamps.
  EXPECT_EQ(Doc->at(0).getString("ph"), "B");
  EXPECT_EQ(Doc->at(0).getNumber("ts"), 0.5e6);
  EXPECT_EQ(Doc->at(2).getString("ph"), "E");
  // The decision is an instant event with the config in args.
  EXPECT_EQ(Doc->at(1).getString("ph"), "i");
  const JsonValue *Args = Doc->at(1).get("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_NE(Args->getString("detail").find("PIPE"), std::string::npos);
}

TEST(TraceExport, WriteTraceFilePicksFormatByExtension) {
  const std::string Base = ::testing::TempDir() + "dope_trace_test";
  const std::string JsonlPath = Base + ".jsonl";
  const std::string ChromePath = Base + ".json";
  std::string Error;
  ASSERT_TRUE(writeTraceFile(sampleRecords(), JsonlPath, &Error)) << Error;
  ASSERT_TRUE(writeTraceFile(sampleRecords(), ChromePath, &Error)) << Error;

  std::ifstream Jsonl(JsonlPath);
  std::optional<std::vector<TraceRecord>> Back = readTraceJsonl(Jsonl);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->size(), 3u);

  std::ifstream Chrome(ChromePath);
  std::stringstream Contents;
  Contents << Chrome.rdbuf();
  std::optional<JsonValue> Doc = JsonValue::parse(Contents.str());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_TRUE(Doc->isArray());

  std::remove(JsonlPath.c_str());
  std::remove(ChromePath.c_str());
}

//===----------------------------------------------------------------------===//
// Stream / decision serialization and diffing
//===----------------------------------------------------------------------===//

static FeatureStream sampleStream() {
  FeatureStream S;
  S.Name = "sample";
  S.Kind = FeatureStream::GraphKind::Pipeline;
  S.MaxThreads = 6;
  S.PowerBudgetWatts = 120.0;
  S.Stages = {{"read", false}, {"work", true}};
  S.FusedStages = {{"fused", true}};
  ReplayStep Step;
  Step.Time = 0.5;
  Step.Features = {{"SystemPower", 80.0}, {"LiveContexts", 6.0}};
  Step.ExecTime = {0.1, 0.9};
  Step.Load = {2.0, 5.0};
  Step.FusedExecTime = {0.7};
  Step.FusedLoad = {3.0};
  S.Steps.push_back(Step);
  Step.Time = 1.0;
  Step.Features.clear();
  S.Steps.push_back(Step);
  return S;
}

TEST(ReplayIo, FeatureStreamRoundTrip) {
  const FeatureStream S = sampleStream();
  std::stringstream SS;
  writeFeatureStream(S, SS);

  std::string Error;
  std::optional<FeatureStream> Back = readFeatureStream(SS, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Name, S.Name);
  EXPECT_EQ(Back->Kind, S.Kind);
  EXPECT_EQ(Back->MaxThreads, S.MaxThreads);
  EXPECT_EQ(Back->PowerBudgetWatts, S.PowerBudgetWatts);
  ASSERT_EQ(Back->Stages.size(), 2u);
  EXPECT_EQ(Back->Stages[0].Name, "read");
  EXPECT_FALSE(Back->Stages[0].Parallel);
  ASSERT_EQ(Back->FusedStages.size(), 1u);
  ASSERT_EQ(Back->Steps.size(), 2u);
  EXPECT_EQ(Back->Steps[0].Features, S.Steps[0].Features);
  EXPECT_EQ(Back->Steps[0].ExecTime, S.Steps[0].ExecTime);
  EXPECT_EQ(Back->Steps[0].FusedLoad, S.Steps[0].FusedLoad);
  EXPECT_TRUE(Back->Steps[1].Features.empty());
}

TEST(ReplayIo, DecisionsRoundTripAndDiff) {
  ReplayDecision D1;
  D1.Step = 3;
  D1.Time = 1.5;
  D1.Config = "<(2, PAR)>";
  D1.TotalThreads = 2;
  D1.Budget = 8;
  D1.Extents = {2};
  ReplayDecision D2 = D1;
  D2.Step = 7;
  D2.Time = 3.5;
  D2.Config = "<(4, PAR)>";
  D2.TotalThreads = 4;
  D2.Extents = {4};

  std::stringstream SS;
  writeDecisions({D1, D2}, SS);
  std::optional<std::vector<ReplayDecision>> Back = readDecisions(SS);
  ASSERT_TRUE(Back.has_value());
  ASSERT_EQ(Back->size(), 2u);
  EXPECT_EQ((*Back)[0], D1);
  EXPECT_EQ((*Back)[1], D2);

  // Identical sequences: no report.
  EXPECT_FALSE(diffDecisions({D1, D2}, {D1, D2}).has_value());

  // A divergent decision names its index and both renderings.
  ReplayDecision Wrong = D2;
  Wrong.TotalThreads = 5;
  std::optional<std::string> Report = diffDecisions({D1, D2}, {D1, Wrong});
  ASSERT_TRUE(Report.has_value());
  EXPECT_NE(Report->find("decision 1"), std::string::npos);
  EXPECT_NE(Report->find("threads=4"), std::string::npos);
  EXPECT_NE(Report->find("threads=5"), std::string::npos);

  // Length mismatch reports the end of the shorter sequence.
  Report = diffDecisions({D1, D2}, {D1});
  ASSERT_TRUE(Report.has_value());
  EXPECT_NE(Report->find("end of sequence"), std::string::npos);
}

TEST(ReplayIo, FeatureStreamToleratesATornFinalRecord) {
  const FeatureStream S = sampleStream();
  std::stringstream Whole;
  writeFeatureStream(S, Whole);
  const std::string Text = Whole.str();

  // Chop the final record mid-line: the writer died there. The intact
  // prefix must load, with the torn tail reported.
  const size_t LastLine = Text.rfind('\n', Text.size() - 2);
  ASSERT_NE(LastLine, std::string::npos);
  std::stringstream Torn(Text.substr(0, LastLine + 1 + 20));
  std::string Error;
  bool TornTail = false;
  std::optional<FeatureStream> Back =
      readFeatureStream(Torn, &Error, &TornTail);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_TRUE(TornTail);
  EXPECT_EQ(Back->Steps.size(), S.Steps.size() - 1);

  // Corruption that is NOT the tail still fails the whole read: the
  // suffix after the bad line proves the file did not end there.
  std::stringstream Interior(std::string("garbage\n") + Text);
  TornTail = false;
  EXPECT_FALSE(readFeatureStream(Interior, &Error, &TornTail).has_value());
  EXPECT_FALSE(TornTail);
}

TEST(ReplayIo, DecisionsTolerateATornFinalRecord) {
  ReplayDecision D1;
  D1.Step = 1;
  D1.Config = "<(2, PAR)>";
  D1.TotalThreads = 2;
  D1.Extents = {2};
  ReplayDecision D2 = D1;
  D2.Step = 2;

  std::stringstream Whole;
  writeDecisions({D1, D2}, Whole);
  const std::string Text = Whole.str();
  const size_t LastLine = Text.rfind('\n', Text.size() - 2);
  ASSERT_NE(LastLine, std::string::npos);

  std::stringstream Torn(Text.substr(0, LastLine + 1 + 10));
  std::string Error;
  bool TornTail = false;
  std::optional<std::vector<ReplayDecision>> Back =
      readDecisions(Torn, &Error, &TornTail);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_TRUE(TornTail);
  ASSERT_EQ(Back->size(), 1u);
  EXPECT_EQ((*Back)[0], D1);
}

//===----------------------------------------------------------------------===//
// Replay harness + mechanism-context tracing
//===----------------------------------------------------------------------===//

TEST(ReplayHarness, RecordsFeatureReadsAndDecisions) {
  FeatureStream S;
  S.Name = "wqth-trace";
  S.Kind = FeatureStream::GraphKind::ServerNest;
  S.MaxThreads = 8;
  S.Stages = {{"server", true}};
  for (int I = 0; I != 3; ++I) {
    ReplayStep Step;
    Step.Time = 0.25 * (I + 1);
    Step.ExecTime = {1.0, 0.5};
    Step.Load = {2.0, 2.0};
    S.Steps.push_back(Step);
  }

  WqtHParams Params;
  WqtHMechanism Mech(Params);
  Tracer Trace(256);
  ReplayMechanismHarness Harness(S);
  const ReplayResult Result = Harness.run(Mech, &Trace);
  EXPECT_EQ(Result.InvalidProposals, 0u);
  EXPECT_EQ(Result.OverEnvelopeProposals, 0u);
  // WQT-H proposes <(8, PAR)> immediately; the later steps repeat it.
  ASSERT_EQ(Result.Decisions.size(), 1u);
  EXPECT_EQ(Result.Decisions[0].Step, 0u);
  EXPECT_EQ(Result.Decisions[0].TotalThreads, 8u);

  // Every consult left a Decision record stamped with stream time; only
  // the first one is an accepted change (B = 1).
  std::vector<TraceRecord> Records = Trace.drain();
  std::vector<const TraceRecord *> Decisions;
  for (const TraceRecord &R : Records)
    if (R.Kind == TraceKind::Decision)
      Decisions.push_back(&R);
  ASSERT_EQ(Decisions.size(), 3u);
  EXPECT_EQ(Decisions[0]->Time, 0.25);
  EXPECT_EQ(Decisions[0]->B, 1.0);
  EXPECT_EQ(Decisions[1]->B, 0.0);
  EXPECT_EQ(Decisions[2]->B, 0.0);
}

TEST(MechanismContext, FeatureReadsAreTracedWithFallbacks) {
  FeatureRegistry Registry;
  Registry.registerFeature("LiveContexts", [] { return 5.0; });
  Tracer Trace(64);

  MechanismContext Ctx;
  Ctx.MaxThreads = 8;
  Ctx.Features = &Registry;
  Ctx.NowSeconds = 2.0;
  Ctx.Trace = &Trace;
  EXPECT_EQ(Ctx.feature("LiveContexts", 0.0), 5.0);
  EXPECT_EQ(Ctx.feature("SystemPower", 42.0), 42.0); // unregistered
  EXPECT_EQ(Ctx.effectiveThreads(), 5u);

  std::vector<TraceRecord> Records = Trace.drain();
  std::vector<const TraceRecord *> Reads;
  for (const TraceRecord &R : Records)
    if (R.Kind == TraceKind::FeatureRead)
      Reads.push_back(&R);
  ASSERT_GE(Reads.size(), 2u);
  EXPECT_EQ(Reads[0]->Name, "LiveContexts");
  EXPECT_EQ(Reads[0]->A, 5.0);
  EXPECT_EQ(Reads[0]->Time, 2.0);
  EXPECT_EQ(Reads[1]->Name, "SystemPower");
  EXPECT_EQ(Reads[1]->A, 42.0);
}

TEST(FeatureRegistryTrace, FreshSamplesOnly) {
  FeatureRegistry Registry;
  int Calls = 0;
  Registry.registerFeature("Queue", [&Calls] {
    ++Calls;
    return static_cast<double>(Calls);
  }, /*MinSampleIntervalSeconds=*/1.0);
  Tracer Trace(64);
  Registry.setTracer(&Trace);

  EXPECT_TRUE(Registry.getValue("Queue", 0.0).has_value());
  // Within the sampling interval: served from cache, no new sample.
  EXPECT_TRUE(Registry.getValue("Queue", 0.5).has_value());
  EXPECT_TRUE(Registry.getValue("Queue", 1.5).has_value());
  Registry.setTracer(nullptr);

  std::vector<TraceRecord> Records = Trace.drain();
  size_t Samples = 0;
  for (const TraceRecord &R : Records)
    if (R.Kind == TraceKind::FeatureSample)
      ++Samples;
  EXPECT_EQ(Samples, 2u);
  EXPECT_EQ(Calls, 2);
}

TEST(TimeSeriesTrace, AppendToEmitsCounters) {
  TimeSeries Series("throughput");
  Series.addPoint(1.0, 10.0);
  Series.addPoint(2.0, 12.0);
  Tracer Trace(64);
  Series.appendTo(Trace);

  std::vector<TraceRecord> Records = Trace.drain();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Kind, TraceKind::Counter);
  EXPECT_EQ(Records[0].Name, "throughput");
  EXPECT_EQ(Records[0].Time, 1.0);
  EXPECT_EQ(Records[1].A, 12.0);
}

//===----------------------------------------------------------------------===//
// Executive + simulator wiring
//===----------------------------------------------------------------------===//

TEST(ExecutiveTrace, TaskLifecycleLandsInTraceFile) {
  const std::string Path = ::testing::TempDir() + "dope_exec_trace.jsonl";
  {
    TaskGraph Graph;
    std::atomic<int> Remaining{50};
    TaskFn Fn = [&](TaskRuntime &RT) {
      if (RT.begin() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      if (Remaining.fetch_sub(1) <= 0)
        return TaskStatus::Finished;
      if (RT.end() == TaskStatus::Suspended)
        return TaskStatus::Suspended;
      return TaskStatus::Executing;
    };
    Task *Work = Graph.createTask("work", Fn, LoadFn(),
                                  Graph.parDescriptor());
    ParDescriptor *Root = Graph.createRegion({Work});

    DopeOptions Opts;
    Opts.MaxThreads = 2;
    Opts.TraceFile = Path;
    RegionConfig Config;
    TaskConfig TC;
    TC.Extent = 2;
    Config.Tasks.push_back(TC);
    Opts.InitialConfig = Config;
    std::unique_ptr<Dope> D = Dope::create(Root, std::move(Opts));
    D->wait();
  } // destructor flushes the trace

  std::ifstream IS(Path);
  ASSERT_TRUE(IS.good());
  std::string Error;
  std::optional<std::vector<TraceRecord>> Records =
      readTraceJsonl(IS, &Error);
  ASSERT_TRUE(Records.has_value()) << Error;
  size_t Begins = 0, Ends = 0;
  for (const TraceRecord &R : *Records) {
    Begins += R.Kind == TraceKind::TaskBegin;
    Ends += R.Kind == TraceKind::TaskEnd;
    if (R.Kind == TraceKind::TaskBegin || R.Kind == TraceKind::TaskEnd) {
      EXPECT_EQ(R.Name, "work");
    }
  }
  EXPECT_GT(Begins, 0u);
  EXPECT_GT(Ends, 0u);
  std::remove(Path.c_str());
}

TEST(SimTrace, NestSimRecordsDecisionsInVirtualTime) {
  NestAppModel App;
  App.SeqServiceSeconds = 0.4;
  App.Curve = SpeedupCurve(0.05, 0.0);

  NestSimOptions Opts;
  Opts.Contexts = 8;
  Opts.NumTransactions = 120;
  Opts.Seed = 7;
  Tracer Trace(1 << 16);
  Opts.TraceSink = &Trace;

  NestServerSim Sim(App, Opts);
  WqtHParams Params;
  Params.MMax = 4;
  WqtHMechanism Mech(Params);
  const NestSimResult Result = Sim.run(&Mech, 8, 1);

  // The run restored the tracer's native clock and the active slot.
  EXPECT_EQ(Tracer::active(), nullptr);

  std::vector<TraceRecord> Records = Trace.drain();
  size_t Decisions = 0, Queues = 0, Reconfigs = 0;
  double LastTime = 0.0;
  for (const TraceRecord &R : Records) {
    Decisions += R.Kind == TraceKind::Decision;
    Queues += R.Kind == TraceKind::QueueDepth;
    Reconfigs += R.Kind == TraceKind::Reconfig;
    EXPECT_GE(R.Time, LastTime);
    LastTime = R.Time;
  }
  EXPECT_GT(Decisions, 0u);
  EXPECT_GT(Queues, 0u);
  EXPECT_EQ(Reconfigs, Result.Reconfigurations);
  // Virtual timestamps: bounded by the simulated duration.
  EXPECT_LE(LastTime, Result.TotalSeconds + 1e-9);
}

TEST(SimTrace, PipelineSimRecordsDecisionsInVirtualTime) {
  PipelineAppModel App;
  App.Stages = {{"in", true, 0.05, 0.1},
                {"work", true, 0.4, 0.1},
                {"out", true, 0.05, 0.1}};

  PipelineSimOptions Opts;
  Opts.Contexts = 8;
  Opts.NumItems = 300;
  Opts.Seed = 11;
  Tracer Trace(1 << 16);
  Opts.TraceSink = &Trace;

  PipelineSim Sim(App, Opts);
  TbfMechanism Mech((TbfParams()));
  const PipelineSimResult Result = Sim.run(&Mech);
  EXPECT_EQ(Tracer::active(), nullptr);

  std::vector<TraceRecord> Records = Trace.drain();
  size_t Decisions = 0, Queues = 0, Reconfigs = 0;
  for (const TraceRecord &R : Records) {
    Decisions += R.Kind == TraceKind::Decision;
    Queues += R.Kind == TraceKind::QueueDepth;
    Reconfigs += R.Kind == TraceKind::Reconfig;
  }
  EXPECT_GT(Decisions, 0u);
  EXPECT_GT(Queues, 0u);
  EXPECT_EQ(Reconfigs, Result.Reconfigurations);
}
