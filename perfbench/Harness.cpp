//===- perfbench/Harness.cpp - Common harness code and entry point --------===//
//
//   perfbench-harness --workload exchange|campaign|serve --seed N
//                     --seconds S --trace 0|1 --run-dir DIR
//                     [--served PATH]
//
// Prints one JSON document on its last stdout line: metrics, verdict
// tallies and notes (see Result). perfbench/run.py builds the harness,
// runs it, checks the verdict gate and prints the benchmark's result.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "campaign/Campaign.h"
#include "json/Json.h"
#include "passes/BugConfig.h"
#include "workload/RandomProgram.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

using namespace crellvm;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secondsSince(int64_t StartNs) { return (nowNs() - StartNs) * 1e-9; }

double selfCpuSeconds() {
  struct rusage RU;
  if (::getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return RU.ru_utime.tv_sec + RU.ru_utime.tv_usec * 1e-6 + RU.ru_stime.tv_sec +
         RU.ru_stime.tv_usec * 1e-6;
}

double procCpuSeconds(int Pid, double *SysOut) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  if (!std::getline(In, Line))
    return -1;
  // The command name may contain spaces; fields resume after its ')'.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream Fields(Line.substr(Close + 2));
  std::string F;
  double UTime = -1, STime = -1;
  // After ')' the state is field 3; utime and stime are fields 14 and 15.
  for (int I = 3; I <= 15 && (Fields >> F); ++I) {
    if (I == 14)
      UTime = std::strtod(F.c_str(), nullptr);
    if (I == 15)
      STime = std::strtod(F.c_str(), nullptr);
  }
  if (UTime < 0 || STime < 0)
    return -1;
  double Tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  if (SysOut)
    *SysOut = STime / Tick;
  return (UTime + STime) / Tick;
}

double procPeakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

Percentile percentile(std::vector<double> Samples, double Q) {
  Percentile P;
  P.N = Samples.size();
  if (Samples.empty())
    return P;
  // Highest percentile with at least ten samples beyond it, in whole
  // percent; below 20 samples even the median has fewer than ten beyond,
  // and the median is reported anyway.
  double Supported = std::floor(100.0 * (1.0 - 10.0 / P.N)) / 100.0;
  P.Q = std::max(0.5, std::min(Q, Supported));
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(std::ceil(P.Q * P.N));
  P.Value = Samples[std::max<size_t>(Rank, 1) - 1];
  return P;
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

// --- Spans -------------------------------------------------------------------

const char *layerName(Layer L) {
  static const char *const Names[] = {
      "unit",           "driver.glue",      "passes.pcal",
      "passes.orig",    "ir.print",         "ir.parse",
      "proofgen.to_json", "json.write",     "json.parse",
      "proofgen.from_json", "driver.file",  "checker.validate",
      "difftool.diff",  "cache.fingerprint", "cache.lookup",
      "cache.store",    "wire.encode",
      "wire.write",     "wire.response",    "wire.decode"};
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                static_cast<size_t>(Layer::Count));
  return Names[static_cast<size_t>(L)];
}

const char *const PassNames[4] = {"mem2reg", "instcombine", "licm", "gvn"};

uint8_t passIndex(const std::string &Name) {
  for (uint8_t I = 0; I != 4; ++I)
    if (Name == PassNames[I])
      return I;
  return NoPass;
}

namespace {

struct SpanBuffer {
  std::vector<Span> Spans;
  std::vector<int32_t> Open; ///< stack of open span indices
};

std::mutex BuffersMu;
std::vector<std::unique_ptr<SpanBuffer>> Buffers; // guarded by BuffersMu

SpanBuffer &threadBuffer() {
  thread_local SpanBuffer *Buf = nullptr;
  if (!Buf) {
    auto Owned = std::make_unique<SpanBuffer>();
    Owned->Spans.reserve(1 << 16);
    Buf = Owned.get();
    std::lock_guard<std::mutex> L(BuffersMu);
    Buffers.push_back(std::move(Owned));
  }
  return *Buf;
}

} // namespace

ScopedSpan::ScopedSpan(Layer Name, uint32_t Unit, uint8_t Pass) {
  SpanBuffer &B = threadBuffer();
  Span S;
  S.Name = Name;
  S.Parent = B.Open.empty() ? -1 : B.Open.back();
  if (S.Parent >= 0) {
    const Span &P = B.Spans[S.Parent];
    S.Unit = P.Unit;
    S.Pass = P.Pass;
  }
  if (Unit != ~0u)
    S.Unit = Unit;
  if (Pass != NoPass)
    S.Pass = Pass;
  Index = static_cast<int32_t>(B.Spans.size());
  B.Open.push_back(Index);
  S.Start = nowNs();
  B.Spans.push_back(S);
}

ScopedSpan::~ScopedSpan() {
  int64_t End = nowNs();
  SpanBuffer &B = threadBuffer();
  Span &S = B.Spans[Index];
  S.End = End;
  B.Open.pop_back();
  if (S.Parent >= 0)
    B.Spans[S.Parent].ChildNs += End - S.Start;
}

void recordSpan(Layer Name, uint32_t Unit, int64_t Start, int64_t End) {
  Span S;
  S.Name = Name;
  S.Unit = Unit;
  S.Start = Start;
  S.End = End;
  threadBuffer().Spans.push_back(S);
}

LayerTotals collectSpans() {
  LayerTotals T;
  std::lock_guard<std::mutex> L(BuffersMu);
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans) {
      size_t N = static_cast<size_t>(S.Name);
      double Self = static_cast<double>(S.End - S.Start - S.ChildNs);
      T.SelfNs[N] += Self;
      ++T.Spans[N];
      if (S.Pass != NoPass)
        T.SelfNsByPass[N][S.Pass] += Self;
    }
  return T;
}

bool writeSpans(const std::string &Path) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << "layer\tpass\tunit\tparent\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> L(BuffersMu);
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans)
      Out << layerName(S.Name) << '\t'
          << (S.Pass == NoPass ? "-" : PassNames[S.Pass]) << '\t' << S.Unit
          << '\t' << S.Parent << '\t' << S.Start << '\t' << S.End << '\n';
  return static_cast<bool>(Out);
}

// --- Tallies -----------------------------------------------------------------

Tallies talliesOf(const driver::StatsMap &S) {
  Tallies T;
  for (const auto &KV : S) {
    Tally &X = T[KV.first];
    X.V += KV.second.V;
    X.F += KV.second.F;
    X.NS += KV.second.NS;
    X.Diff += KV.second.DiffMismatches;
  }
  return T;
}

void addTallies(Tallies &Into, const Tallies &From) {
  for (const auto &KV : From) {
    Tally &X = Into[KV.first];
    X.V += KV.second.V;
    X.F += KV.second.F;
    X.NS += KV.second.NS;
    X.Diff += KV.second.Diff;
  }
}

double decidedRatio(const Tallies &T) {
  uint64_t V = 0, NS = 0;
  for (const auto &KV : T) {
    V += KV.second.V;
    NS += KV.second.NS;
  }
  return V ? double(V - NS) / double(V) : 0;
}

// --- Per-layer metrics -------------------------------------------------------

void addLayerMetrics(Result &R, const LayerTotals &L, double Units) {
  auto Ms = [&](Layer X) {
    return Units ? L.SelfNs[static_cast<size_t>(X)] * 1e-6 / Units : 0;
  };
  auto PerPass = [&](const std::string &Name, Layer X) {
    R.metric(Name, Ms(X), "ms");
    for (int P = 0; P != 4; ++P)
      R.metric(Name + "." + PassNames[P],
               Units ? L.SelfNsByPass[static_cast<size_t>(X)][P] * 1e-6 / Units
                     : 0,
               "ms");
  };
  R.metric("ir.print_ms", Ms(Layer::IrPrint), "ms");
  R.metric("ir.parse_ms", Ms(Layer::IrParse), "ms");
  R.metric("proofgen.to_json_ms", Ms(Layer::ProofToJson), "ms");
  R.metric("json.write_ms", Ms(Layer::JsonWrite), "ms");
  R.metric("json.parse_ms", Ms(Layer::JsonParse), "ms");
  R.metric("proofgen.from_json_ms", Ms(Layer::ProofFromJson), "ms");
  R.metric("driver.file_ms", Ms(Layer::DriverFile), "ms");
  PerPass("passes.pcal_ms", Layer::PassesPCal);
  PerPass("passes.orig_ms", Layer::PassesOrig);
  PerPass("checker.validate_ms", Layer::CheckerValidate);
  R.metric("difftool.diff_ms", Ms(Layer::DifftoolDiff), "ms");
  R.metric("cache.fingerprint_ms", Ms(Layer::CacheFingerprint), "ms");
  R.metric("cache.lookup_ms", Ms(Layer::CacheLookup), "ms");
  R.metric("cache.store_ms", Ms(Layer::CacheStore), "ms");
  R.metric("driver.glue_ms", Ms(Layer::Pass) + Ms(Layer::Unit), "ms");
}

void addCheckerCounts(Result &R, const Tallies &T, double Units) {
  uint64_t V = 0, F = 0, NS = 0;
  for (const auto &KV : T) {
    V += KV.second.V;
    F += KV.second.F;
    NS += KV.second.NS;
  }
  R.metric("checker.functions", Units ? V / Units : 0, "count");
  R.metric("checker.failed", Units ? F / Units : 0, "count");
  R.metric("checker.not_supported", Units ? NS / Units : 0, "count");
}

double tracedUnitNs(const LayerTotals &L) {
  double Sum = 0;
  for (size_t I = 0; I != static_cast<size_t>(Layer::WireEncode); ++I)
    Sum += L.SelfNs[I];
  return Sum;
}

/// The ledger: each layer's share of the traced unit time.
void addLedgerNotes(Result &R, const LayerTotals &L, const std::string &Of) {
  double Total = tracedUnitNs(L);
  if (Total <= 0)
    return;
  for (size_t I = 0; I != static_cast<size_t>(Layer::WireEncode); ++I) {
    if (L.SelfNs[I] <= 0)
      continue;
    std::ostringstream OS;
    OS.precision(3);
    OS << "ledger: " << layerName(static_cast<Layer>(I)) << " "
       << std::fixed << 100.0 * L.SelfNs[I] / Total << "% of " << Of;
    R.Notes.push_back(OS.str());
  }
}

// --- Result document ---------------------------------------------------------

void Result::latency(const std::string &Name, std::vector<double> SamplesMs,
                     double Q) {
  Percentile P = percentile(std::move(SamplesMs), Q);
  metric(Name, P.Value, "ms");
  std::ostringstream OS;
  OS << Name << ": p" << std::lround(P.Q * 100) << " of " << P.N
     << " samples";
  Notes.push_back(OS.str());
}

namespace {

json::Value talliesJson(const Tallies &T) {
  json::Value Out = json::Value::object();
  for (const auto &KV : T) {
    json::Value X = json::Value::object();
    X.set("V", KV.second.V);
    X.set("F", KV.second.F);
    X.set("NS", KV.second.NS);
    X.set("diff", KV.second.Diff);
    Out.set(KV.first, std::move(X));
  }
  return Out;
}

json::Value stringsJson(const std::vector<std::string> &Items) {
  json::Value Out = json::Value::array();
  for (const std::string &S : Items)
    Out.push(S);
  return Out;
}

} // namespace

std::string Result::toJson() const {
  json::Value MetricsDoc = json::Value::object();
  for (const auto &[Name, ValueUnit] : Metrics) {
    // json::Value has no floating-point kind, so a value travels as its
    // shortest round-trip decimal text; null when it is not finite.
    json::Value Text;
    if (std::isfinite(ValueUnit.first)) {
      char Buf[32];
      auto End = std::to_chars(Buf, Buf + sizeof(Buf), ValueUnit.first).ptr;
      Text = json::Value(std::string(Buf, End));
    }
    json::Value M = json::Value::object();
    M.set("value", std::move(Text));
    M.set("unit", ValueUnit.second);
    MetricsDoc.set(Name, std::move(M));
  }
  json::Value Doc = json::Value::object();
  Doc.set("attempted", Attempted);
  Doc.set("failed", Failed);
  Doc.set("metrics", std::move(MetricsDoc));
  Doc.set("gate_tallies", talliesJson(GateTallies));
  Doc.set("run_tallies", talliesJson(RunTallies));
  Doc.set("verdict_mismatches", VerdictMismatches);
  Doc.set("notes", stringsJson(Notes));
  Doc.set("errors", stringsJson(Errors));
  return Doc.write();
}

// --- Inputs and settings ----------------------------------------------------

const passes::BugConfig &bugs371() {
  static const passes::BugConfig B = *passes::BugConfig::byName("371");
  return B;
}

ir::Module unitModule(uint64_t Seed, uint64_t Index) {
  workload::GenOptions G;
  G.Seed = campaign::unitSeed(Seed, Index);
  return workload::generateModule(G);
}

driver::DriverOptions driverOptions(const Settings &S, bool WriteFiles) {
  driver::DriverOptions D;
  D.WriteFiles = WriteFiles;
  D.BinaryProofs = false;
  D.ExchangeDir = S.RunDir + "/exchange";
  return D;
}

/// The gate set: the first GateUnits units of the default seed GateSeed.
/// perfbench/pinned_tallies.json pins its per-pass tallies, so both
/// constants change only together with that file.
constexpr uint64_t GateSeed = 1;
constexpr size_t GateUnits = 48;

Tallies gateTallies(const Settings &S, bool WriteFiles) {
  driver::BatchOptions B;
  B.Jobs = S.Jobs;
  driver::BatchReport Rep = driver::runBatchValidated(
      bugs371(), driverOptions(S, WriteFiles), GateUnits,
      [](size_t I) { return unitModule(GateSeed, I); }, B);
  return talliesOf(Rep.Stats);
}

} // namespace perfbench

using namespace perfbench;

int main(int Argc, char **Argv) {
  Settings S;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string A = Argv[I], V = Argv[I + 1];
    if (A == "--workload")
      S.Workload = V;
    else if (A == "--seed")
      S.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      S.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      S.Trace = V == "1";
    else if (A == "--run-dir")
      S.RunDir = V;
    else if (A == "--served")
      S.Served = V;
    else {
      std::cerr << "perfbench-harness: unknown option " << A << "\n";
      return 2;
    }
  }
  if (S.RunDir.empty() || S.Seconds <= 0 ||
      !(S.Workload == "exchange" || S.Workload == "campaign" ||
        S.Workload == "serve") ||
      (S.Workload == "serve" && S.Served.empty())) {
    std::cerr << "perfbench-harness: bad or missing options\n";
    return 2;
  }
  Result R;
  int Rc = S.Workload == "serve" ? runServe(S, R) : runBatch(S, R);
  for (const std::string &E : R.Errors)
    std::cerr << "error: " << E << "\n";
  std::cout << R.toJson() << std::endl;
  return Rc;
}
