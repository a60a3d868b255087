//===- perfbench/Batch.cpp - The exchange and campaign workloads ----------===//
//
// Both workloads validate seeded units in-process through
// driver::runBatchValidated with 2 workers, bug preset 371, cache and
// plans off:
//
//   exchange  WriteFiles = true, JSON-text proofs: the paper's Fig. 1
//             protocol as `crellvm-validate --files` runs it. Proof I/O is
//             most of a unit's CPU here.
//   campaign  WriteFiles = false: in-memory artifacts, as the
//             `crellvm-campaign` local backend runs. The I/O layers do no
//             work, so the checker dominates.
//
// Untraced runs report the end-to-end metrics. A traced run first runs the
// real driver untraced over the same units, then replays the driver's
// Fig. 1 sequence through the public functions with a span around every
// call, and requires the replay's verdicts to equal the driver's unit for
// unit.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "checker/Validator.h"
#include "difftool/Diff.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "json/Json.h"
#include "passes/Pipeline.h"
#include "proofgen/ProofJson.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace crellvm;

namespace perfbench {
namespace {

/// Distinct units generated per run; the timed phase cycles through them.
/// Large enough that few units recur within a run, so the p99 reflects
/// many distinct slow units rather than the slowest few.
constexpr size_t PoolSize = 2048;
/// Set-up repetitions; setup_s is their median. One repetition takes about
/// 0.15 s, so a scheduling hiccup is a large share of it; the median of
/// eleven leaves such outliers out.
constexpr int SetupReps = 11;
/// Units per runBatchValidated call in the timed loop. Each call ends with
/// at most one unit's worth of idle worker, so large rounds keep that
/// tail small.
constexpr size_t RoundUnits = 512;
/// The timed phase is cut into this many equal windows; throughput is the
/// median of the windows' rates, so one stall on a shared machine moves
/// one window, not the result.
constexpr int Windows = 5;
/// Untimed validation before anything is timed.
constexpr double WarmupSeconds = 1.0;
/// Untraced/traced round pairs in a traced run.
constexpr int TraceRounds = 4;

/// What the untraced timed phase observed.
struct TimedPhase {
  uint64_t Attempted = 0, Ok = 0, Failed = 0;
  std::vector<double> UnitMs;           ///< per Ok unit: call to verdict
  std::vector<uint64_t> OkIndex;        ///< global unit index per Ok unit
  std::vector<Tallies> OkTallies;       ///< per Ok unit
  double WallS = 0, CpuS = 0;
  std::vector<double> WindowRate, WindowCpuRate;
};

/// Validates units NextUnit, NextUnit + 1, ... (cycling through \p Pool)
/// for \p Seconds and advances NextUnit past the last unit issued.
TimedPhase runTimed(const Settings &S, const std::vector<ir::Module> &Pool,
                    bool WriteFiles, double Seconds, uint64_t &NextUnit) {
  TimedPhase Out;
  ThreadPool Workers(S.Jobs);
  driver::DriverOptions DOpts = driverOptions(S, WriteFiles);
  std::atomic<uint64_t> OkCount{0};
  const int64_t T0 = nowNs();
  const int64_t Deadline = T0 + static_cast<int64_t>(Seconds * 1e9);
  const double Cpu0 = selfCpuSeconds();

  // Window sampler: completion count and CPU time at each boundary.
  std::vector<std::pair<uint64_t, double>> Marks(Windows + 1);
  Marks[0] = {0, Cpu0};
  std::thread Sampler([&] {
    for (int W = 1; W <= Windows; ++W) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              T0 + static_cast<int64_t>(Seconds * 1e9 * W / Windows))));
      Marks[W] = {OkCount.load(), selfCpuSeconds()};
    }
  });

  std::mutex Mu;
  int64_t LastDone = T0;
  for (; nowNs() < Deadline; NextUnit += RoundUnits) {
    const uint64_t Base = NextUnit;
    std::vector<int64_t> StartNs(RoundUnits, 0);
    driver::BatchOptions B;
    B.Jobs = S.Jobs;
    B.CancelUnit = [Deadline](size_t) { return nowNs() >= Deadline; };
    B.OnUnitDone = [&](size_t I, const driver::StatsMap &Unit,
                       driver::UnitOutcome O, const std::string &) {
      int64_t Done = nowNs();
      if (O == driver::UnitOutcome::Cancelled)
        return;
      std::lock_guard<std::mutex> L(Mu);
      ++Out.Attempted;
      if (O != driver::UnitOutcome::Ok) {
        ++Out.Failed;
        return;
      }
      ++Out.Ok;
      OkCount.fetch_add(1);
      LastDone = std::max(LastDone, Done);
      Out.UnitMs.push_back((Done - StartNs[I]) * 1e-6);
      Out.OkIndex.push_back(Base + I);
      Out.OkTallies.push_back(talliesOf(Unit));
    };
    driver::runBatchValidated(
        bugs371(), DOpts, RoundUnits,
        [&](size_t I) {
          StartNs[I] = nowNs();
          return Pool[(Base + I) % Pool.size()];
        },
        B, &Workers);
  }
  Out.CpuS = selfCpuSeconds() - Cpu0;
  Out.WallS = (LastDone - T0) * 1e-9;
  Sampler.join();
  double WindowS = Seconds / Windows;
  for (int W = 1; W <= Windows; ++W) {
    double Units = double(Marks[W].first - Marks[W - 1].first);
    double Cpu = Marks[W].second - Marks[W - 1].second;
    Out.WindowRate.push_back(Units / WindowS);
    Out.WindowCpuRate.push_back(Cpu > 0 ? Units / Cpu : 0);
  }
  return Out;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The driver's per-unit protocol (ValidationDriver::runPipelineValidated
/// without a cache), one span around each call into a layer. Returns the
/// unit's tallies; adds the proof text bytes to \p ProofBytes.
Tallies replayUnit(const Settings &S, const ir::Module &Input, uint32_t Unit,
                   bool WriteFiles, uint64_t &ProofBytes) {
  ScopedSpan USpan(Layer::Unit, Unit);
  Tallies T;
  // Two copies, as in the driver: the unit generator's and the pipeline's.
  ir::Module Unit0 = Input;
  ir::Module Cur = Unit0;
  std::string Dir = S.RunDir + "/exchange";
  if (WriteFiles) {
    ScopedSpan F(Layer::DriverFile);
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
  }
  uint64_t FileCounter = 0;
  for (auto &P : passes::makeO2Pipeline(bugs371())) {
    ScopedSpan PSpan(Layer::Pass, Unit, passIndex(P->name()));
    passes::PassResult WithProof = [&] {
      ScopedSpan X(Layer::PassesPCal);
      return P->run(Cur, /*GenProof=*/true);
    }();
    passes::PassResult Plain = [&] {
      ScopedSpan X(Layer::PassesOrig);
      return P->run(Cur, /*GenProof=*/false);
    }();
    ir::Module SrcForCheck = Cur;
    ir::Module TgtForCheck = WithProof.Tgt;
    proofgen::Proof ProofForCheck = WithProof.Proof;
    if (WriteFiles) {
      std::string Base = Dir + "/" + P->name() + ".trace.u" +
                         std::to_string(Unit) + "." +
                         std::to_string(FileCounter++);
      auto Print = [](const ir::Module &M) {
        ScopedSpan X(Layer::IrPrint);
        return ir::printModule(M);
      };
      auto Write = [](const std::string &Path, const std::string &Text) {
        ScopedSpan X(Layer::DriverFile);
        writeFile(Path, Text);
      };
      auto Read = [](const std::string &Path) {
        ScopedSpan X(Layer::DriverFile);
        return readFile(Path);
      };
      auto Parse = [](const std::string &Text) {
        ScopedSpan X(Layer::IrParse);
        std::string Err;
        return ir::parseModule(Text, &Err);
      };
      Write(Base + ".src.ll", Print(Cur));
      Write(Base + ".tgt.ll", Print(WithProof.Tgt));
      json::Value PV = [&] {
        ScopedSpan X(Layer::ProofToJson);
        return proofgen::proofToJson(WithProof.Proof);
      }();
      std::string PText = [&] {
        ScopedSpan X(Layer::JsonWrite);
        return PV.write();
      }();
      ProofBytes += PText.size();
      Write(Base + ".proof.json", PText);
      auto SrcM = Parse(Read(Base + ".src.ll"));
      auto TgtM = Parse(Read(Base + ".tgt.ll"));
      std::string Back = Read(Base + ".proof.json");
      auto Tree = [&] {
        ScopedSpan X(Layer::JsonParse);
        std::string Err;
        return json::parse(Back, &Err);
      }();
      auto Pr = [&]() -> std::optional<proofgen::Proof> {
        ScopedSpan X(Layer::ProofFromJson);
        if (!Tree)
          return std::nullopt;
        std::string Err;
        return proofgen::proofFromJson(*Tree, &Err);
      }();
      if (!SrcM || !TgtM || !Pr)
        throw std::runtime_error("exchange artifact failed to round-trip");
      SrcForCheck = std::move(*SrcM);
      TgtForCheck = std::move(*TgtM);
      ProofForCheck = std::move(*Pr);
      ScopedSpan X(Layer::DriverFile);
      std::error_code EC;
      std::filesystem::remove(Base + ".src.ll", EC);
      std::filesystem::remove(Base + ".tgt.ll", EC);
      std::filesystem::remove(Base + ".proof.json", EC);
    }
    checker::ModuleResult MR = [&] {
      ScopedSpan X(Layer::CheckerValidate);
      return checker::validate(SrcForCheck, TgtForCheck, ProofForCheck);
    }();
    Tally &PT = T[P->name()];
    PT.V += MR.Functions.size();
    PT.F += MR.countFailed();
    PT.NS += MR.countNotSupported();
    bool Same = [&] {
      ScopedSpan X(Layer::DifftoolDiff);
      return static_cast<bool>(difftool::diffModules(Plain.Tgt, WithProof.Tgt));
    }();
    PT.Diff += Same ? 0 : 1;
    Cur = std::move(WithProof.Tgt);
  }
  return T;
}

} // namespace

int runBatch(const Settings &S, Result &R) {
  const bool WriteFiles = S.Workload == "exchange";

  // Set-up: generate the run's units. Repeated so setup_s is a median;
  // the last repetition's modules are used.
  std::vector<ir::Module> Pool;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != (S.Trace ? 1 : SetupReps); ++Rep) {
    Pool.clear(); // peak RSS should count one set of inputs, not two
    Pool.shrink_to_fit();
    int64_t T0 = nowNs();
    Pool.reserve(PoolSize);
    for (size_t I = 0; I != PoolSize; ++I)
      Pool.push_back(unitModule(S.Seed, I));
    SetupS.push_back(secondsSince(T0));
  }

  // Warm-up, untimed: the first second of validation runs a few percent
  // slower (the heap is still growing), which would otherwise bias the
  // first window and the traced run's untraced baseline.
  uint64_t NextUnit = 0;
  runTimed(S, Pool, WriteFiles, WarmupSeconds, NextUnit);

  // Every measured unit counts toward attempted/failed and the run's
  // tallies; a unit recurs every PoolSize indices and its verdicts must
  // not change.
  std::vector<Tallies> FirstSeen(Pool.size());
  std::vector<bool> Seen(Pool.size(), false);
  auto Account = [&](const TimedPhase &T) {
    R.Attempted += T.Attempted;
    R.Failed += T.Failed;
    for (size_t I = 0; I != T.OkIndex.size(); ++I) {
      addTallies(R.RunTallies, T.OkTallies[I]);
      size_t P = T.OkIndex[I] % Pool.size();
      if (!Seen[P]) {
        Seen[P] = true;
        FirstSeen[P] = T.OkTallies[I];
      } else if (!(FirstSeen[P] == T.OkTallies[I])) {
        ++R.VerdictMismatches;
      }
    }
  };

  if (!S.Trace) {
    TimedPhase T = runTimed(S, Pool, WriteFiles, S.Seconds, NextUnit);
    Account(T);
    R.metric("setup_s", median(SetupS), "s");
    R.metric("units_per_s", median(T.WindowRate), "1/s");
    R.metric("units_per_cpu_s", median(T.WindowCpuRate), "1/s");
    R.latency("verdict_p50_ms", T.UnitMs, 0.50);
    R.latency("verdict_p99_ms", T.UnitMs, 0.99);
    R.metric("peak_rss_mb", procPeakRssMb(::getpid()), "MB");
    R.metric("decided_ratio", decidedRatio(R.RunTallies), "ratio");
    R.metric("ok_ratio", T.Attempted ? double(T.Ok) / T.Attempted : 0,
             "ratio");
    std::ostringstream OS;
    OS << "timed " << T.Ok << " units in " << T.WallS << " s wall, " << T.CpuS
       << " CPU-s; window rates";
    for (double W : T.WindowRate)
      OS << " " << W;
    R.Notes.push_back(OS.str());
    R.GateTallies = gateTallies(S, WriteFiles);
    return 0;
  }

  // Traced run: rounds of the real driver, untraced, each followed by the
  // traced replay of exactly the units it validated. Interleaving puts any
  // drift of a shared machine on both sides alike.
  ThreadPool Workers(S.Jobs);
  double UntracedWallS = 0, ReplayS = 0, UnitMsSum = 0;
  uint64_t Units = 0;
  std::atomic<uint64_t> ProofBytes{0};
  std::atomic<uint64_t> ReplayErrors{0};
  for (int Round = 0; Round != TraceRounds; ++Round) {
    TimedPhase T = runTimed(S, Pool, WriteFiles,
                            S.Seconds / (2 * TraceRounds), NextUnit);
    Account(T);
    UntracedWallS += T.WallS;
    for (double Ms : T.UnitMs)
      UnitMsSum += Ms;
    Units += T.OkIndex.size();
    std::vector<Tallies> Replayed(T.OkIndex.size());
    int64_t T0 = nowNs();
    parallelFor(Workers, T.OkIndex.size(), [&](size_t I) {
      uint64_t Bytes = 0;
      try {
        Replayed[I] =
            replayUnit(S, Pool[T.OkIndex[I] % Pool.size()],
                       static_cast<uint32_t>(T.OkIndex[I]), WriteFiles, Bytes);
      } catch (const std::exception &) {
        ReplayErrors.fetch_add(1);
      }
      ProofBytes.fetch_add(Bytes);
    });
    ReplayS += secondsSince(T0);
    for (size_t I = 0; I != Replayed.size(); ++I)
      if (!(Replayed[I] == T.OkTallies[I]))
        ++R.VerdictMismatches;
  }
  if (ReplayErrors)
    R.Errors.push_back("traced replay threw on " +
                       std::to_string(ReplayErrors.load()) + " units");

  double U = double(Units);
  LayerTotals L = collectSpans();
  addLayerMetrics(R, L, U);
  addCheckerCounts(R, R.RunTallies, U);
  R.metric("proofgen.proof_bytes", U ? ProofBytes / U : 0, "count");
  R.metric("support.pool_busy_ratio",
           UntracedWallS > 0 ? UnitMsSum * 1e-3 / (S.Jobs * UntracedWallS) : 0,
           "ratio");
  R.metric("trace.overhead_ratio",
           UntracedWallS > 0 ? ReplayS / UntracedWallS : 0, "ratio");
  double TracedUnitMs = U ? tracedUnitNs(L) * 1e-6 / U : 0;
  double UntracedUnitMs = U ? UnitMsSum / U : 0;
  R.metric("trace.accounted_ratio",
           UntracedUnitMs > 0 ? TracedUnitMs / UntracedUnitMs : 0, "ratio");
  // Layers only the serve workload exercises.
  for (auto [Name, Unit] :
       {std::pair{"cache.hit_ratio", "ratio"},
        {"server.queue_wait_ms", "ms"}, {"server.service_ms", "ms"},
        {"server.batch_size", "count"}, {"server.linger_hit_ratio", "ratio"},
        {"server.rejected_ratio", "ratio"}, {"wire.encode_us", "us"},
        {"wire.decode_us", "us"}, {"wire.bytes_per_req", "count"},
        {"ledger.wire_share", "ratio"},
        {"ledger.cold_fingerprint_store_share", "ratio"}})
    R.metric(Name, 0, Unit);
  addLedgerNotes(R, L, S.Workload + " unit time");
  std::ostringstream OS;
  OS << "traced " << Units << " units in " << TraceRounds
     << " interleaved rounds: untraced " << UntracedUnitMs
     << " ms/unit, traced layers sum to " << TracedUnitMs << " ms/unit";
  R.Notes.push_back(OS.str());
  writeSpans(S.RunDir + "/spans.tsv");
  R.GateTallies = gateTallies(S, WriteFiles);
  return 0;
}

} // namespace perfbench
