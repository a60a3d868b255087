//===- perfbench/Serve.cpp - The serve workload ---------------------------===//
//
// Spawns `crellvm-served --jobs 2 --cache=rw` with a fresh memory-only cache
// and socket, and drives it from one process over one Unix-socket
// connection: a closed loop that keeps Window requests in flight and sends
// the next one as each response arrives. Each request is timed from its
// send to its response. Every request carries module text; about half
// resend a module from a small hot set (cache hits after the first send),
// the rest are fresh modules that miss, get checked and are stored. This is
// the only workload that exercises admission, queue, linger, batching, the
// wire codec and the cache.
//
// The window equals the daemon's batch size, so the daemon is saturated: a
// request waits for the batch ahead of it and then for its own, and its
// latency is about Window divided by the request rate. Serve latency here
// restates serve throughput. Loads at which requests do not queue were
// measured on a shared 4-core machine and spread too much to resolve a 25%
// bound (see perfbench/README.md): an open loop at a fixed Poisson rate,
// whose latency percentiles moved 30-100% between runs; one request in
// flight, whose p50 and p99 spread 0.21-0.37 across ten seeds; and four in
// flight, whose rate differed by a quarter between two seeds.
//
// The cache's disk tier rewrites its whole index file on every store, so a
// 20 s run wrote about 400 MB and slowed with each run as the disk
// throttled. The timed daemon therefore runs a memory-only cache; the
// traced replay attaches the disk tier, so cache.store_ms still carries its
// cost.
//
// The daemon's CPU time and peak RSS come from /proc before it is shut
// down; its exit code and the drain equation are checked. A traced run adds
// client spans (encode -> write -> response -> decode), takes the server's
// layer figures as exact sum/count differences of its stats document
// around the timed phase, and replays the serve cache path in-process to
// time fingerprinting, lookup and store.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cache/Fingerprint.h"
#include "cache/ValidationCache.h"
#include "checker/Validator.h"
#include "checker/Version.h"
#include "difftool/Diff.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "passes/Pipeline.h"
#include "server/HealthProbe.h"
#include "server/Protocol.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace crellvm;

namespace perfbench {
namespace {

/// Set-up repetitions; setup_s is their median.
constexpr int SetupReps = 5;
/// Modules in the hot set; resends of these hit the cache after the first
/// send. Half the requests are hot, so the hot set's mean module cost
/// weighs on every metric; a set of 8 made it vary visibly from seed to
/// seed, 64 averages it out while each hot module is still resent often.
constexpr size_t HotSetSize = 64;
/// Share of requests that resend a hot module.
constexpr double HotShare = 0.5;
/// Requests in flight: the daemon's default batch size (BatchMax), so every
/// batch the dispatcher forms can be full.
constexpr size_t Window = 32;
/// Fresh modules generated per run. The timed phase stops early if they
/// run out, which needs well over twice today's throughput.
constexpr size_t FreshModules = 3072;
/// Leading requests of the sequence replayed in-process by a traced run.
constexpr size_t ReplayRequests = 320;
/// Fresh (missing) modules checked against the in-process driver after
/// the timed phase, besides every hot module.
constexpr size_t ReferenceFresh = 40;

struct Daemon {
  int Pid = -1;
  std::string Socket;
};

/// Starts a daemon with a fresh socket and a fresh, memory-only read-write
/// cache (an empty --cache-dir), so the hot set warms only within the run.
bool spawnDaemon(const Settings &S, int Rep, Daemon &D, std::string &Err) {
  std::string Tag = S.RunDir + "/served" + std::to_string(Rep);
  D.Socket = Tag + ".sock";
  std::string Log = Tag + ".log";
  std::error_code EC;
  std::filesystem::remove(D.Socket, EC);
  std::vector<std::string> Args = {S.Served,     "--socket", D.Socket,
                                   "--jobs",     std::to_string(S.Jobs),
                                   "--cache=rw", "--cache-dir", ""};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, S.Served.c_str(), &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0) {
    Err = "cannot spawn " + S.Served + ": " + std::strerror(Rc);
    return false;
  }
  D.Pid = Pid;
  return true;
}

/// Polls readiness with pings until the daemon answers ok, dies or the
/// time runs out.
bool waitReady(Daemon &D, double TimeoutS, std::string &Err) {
  int64_t T0 = nowNs();
  while (secondsSince(T0) < TimeoutS) {
    int Status = 0;
    if (::waitpid(D.Pid, &Status, WNOHANG) == D.Pid) {
      D.Pid = -1; // reaped
      Err = "daemon exited during start-up";
      return false;
    }
    server::ProbeResult P = server::probePing(D.Socket, 500);
    if (P.Ready)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Err = "daemon not ready after " + std::to_string(TimeoutS) + " s";
  return false;
}

int connectTo(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.size() + 1 > sizeof(Addr.sun_path))
    return -1;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  // A daemon that stops answering must fail the run, not hang it.
  timeval TV{60, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  return Fd;
}

std::optional<server::Response> call(int Fd, const server::Request &R) {
  std::string Frame;
  if (!server::writeFrame(Fd, server::requestToJson(R)) ||
      !server::readFrame(Fd, Frame))
    return std::nullopt;
  return server::responseFromJson(Frame);
}

/// Asks the daemon to drain and exit; returns its exit code, or -1 when it
/// had to be killed.
int stopDaemon(Daemon &D) {
  if (D.Pid < 0)
    return -1;
  int Fd = connectTo(D.Socket);
  if (Fd >= 0) {
    server::Request R;
    R.Kind = server::RequestKind::Shutdown;
    call(Fd, R);
    ::close(Fd);
  }
  int Status = 0;
  int64_t T0 = nowNs();
  for (;;) {
    pid_t W = ::waitpid(D.Pid, &Status, WNOHANG);
    if (W == D.Pid)
      break;
    if (W < 0 && errno != EINTR) {
      D.Pid = -1;
      return -1;
    }
    if (secondsSince(T0) > 30) {
      ::kill(D.Pid, SIGKILL);
      ::waitpid(D.Pid, &Status, 0);
      D.Pid = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  D.Pid = -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// One request of the run's sequence: which module it sends.
struct PlannedRequest {
  bool Hot = false;
  size_t Module = 0; ///< index into Inputs::Modules
};

struct Inputs {
  std::vector<ir::Module> Modules; ///< hot set first, then fresh modules
  std::vector<std::string> Texts;  ///< printed modules, as sent
  std::vector<PlannedRequest> Sequence;
};

Inputs makeInputs(const Settings &S) {
  Inputs In;
  std::mt19937_64 Rng(S.Seed * 0x9e3779b97f4a7c15ull + 0x5e17e);
  std::uniform_real_distribution<double> Coin(0, 1);
  std::uniform_int_distribution<size_t> HotPick(0, HotSetSize - 1);
  for (size_t Fresh = 0; Fresh != FreshModules;) {
    PlannedRequest R;
    R.Hot = Coin(Rng) < HotShare;
    R.Module = R.Hot ? HotPick(Rng) : HotSetSize + Fresh++;
    In.Sequence.push_back(R);
  }
  for (size_t I = 0; I != HotSetSize + FreshModules; ++I) {
    In.Modules.push_back(unitModule(S.Seed, I));
    In.Texts.push_back(ir::printModule(In.Modules.back()));
  }
  return In;
}

/// What the client saw for one request: the send fields are written by
/// the sending thread, the rest by the receiving thread, both under the
/// run's mutex.
struct Outcome {
  int64_t StartNs = 0, EncodedNs = 0, WrittenNs = 0;
  size_t RequestBytes = 0;
  int64_t RecvNs = 0, DecodedNs = 0;
  size_t ResponseBytes = 0;
  bool Answered = false;
  server::ResponseStatus Status = server::ResponseStatus::Error;
  std::map<std::string, server::PassVerdicts> Passes;
};

struct TimedPhase {
  std::vector<Outcome> Out; ///< one per request sent
  bool RanOut = false;      ///< the sequence ended before the time did
  int64_t T0 = 0;
  double CpuS = 0, SysS = 0, PeakRssMb = 0;
  json::Value StatsBefore, StatsAfter;
  std::string Error;
};

/// Keeps Window requests in flight over one connection for \p Seconds,
/// then waits for the outstanding responses.
TimedPhase runTimed(const Settings &S, const Inputs &In, const Daemon &D) {
  TimedPhase P;
  P.Out.resize(In.Sequence.size());
  int Fd = connectTo(D.Socket);
  if (Fd < 0) {
    P.Error = "cannot connect to " + D.Socket;
    return P;
  }
  server::Request StatsReq;
  StatsReq.Kind = server::RequestKind::Stats;
  StatsReq.Id = -1;
  auto Before = call(Fd, StatsReq);
  if (!Before) {
    P.Error = "stats request failed";
    ::close(Fd);
    return P;
  }
  P.StatsBefore = Before->Stats;
  double Sys0 = 0;
  double Cpu0 = procCpuSeconds(D.Pid, &Sys0);

  std::mutex Mu;
  std::condition_variable Cv;
  size_t Received = 0;      // guarded by Mu
  bool Closing = false;     // guarded by Mu
  std::string ReceiveError; // guarded by Mu
  std::thread Receiver([&] {
    std::string Frame;
    for (;;) {
      if (!server::readFrame(Fd, Frame)) {
        // EOF is expected once the sender shuts the read side down;
        // anything earlier means the daemon went away.
        std::lock_guard<std::mutex> L(Mu);
        if (!Closing)
          ReceiveError = "connection to the daemon lost";
        Cv.notify_all();
        return;
      }
      int64_t Recv = nowNs();
      auto Rsp = server::responseFromJson(Frame);
      int64_t Decoded = nowNs();
      std::lock_guard<std::mutex> L(Mu);
      if (!Rsp || Rsp->Id < 0 || static_cast<size_t>(Rsp->Id) >= P.Out.size()) {
        ReceiveError = "malformed response from daemon";
        Cv.notify_all();
        return;
      }
      Outcome &O = P.Out[Rsp->Id];
      O.RecvNs = Recv;
      O.DecodedNs = Decoded;
      O.ResponseBytes = Frame.size() + 4;
      O.Status = Rsp->Status;
      O.Passes = std::move(Rsp->Passes);
      O.Answered = true;
      ++Received;
      Cv.notify_all();
    }
  });

  P.T0 = nowNs();
  const int64_t Deadline = P.T0 + static_cast<int64_t>(S.Seconds * 1e9);
  size_t Sent = 0;
  for (; Sent != In.Sequence.size() && nowNs() < Deadline; ++Sent) {
    {
      std::unique_lock<std::mutex> L(Mu);
      if (!Cv.wait_for(L, std::chrono::seconds(60), [&] {
            return Sent - Received < Window || !ReceiveError.empty();
          }))
        ReceiveError = "no response from the daemon within 60 s";
      if (!ReceiveError.empty())
        break;
    }
    int64_t Start = nowNs();
    server::Request R;
    R.Kind = server::RequestKind::Validate;
    R.Id = static_cast<int64_t>(Sent);
    R.Bugs = "371";
    R.ModuleText = In.Texts[In.Sequence[Sent].Module];
    std::string Payload = server::requestToJson(R);
    int64_t Encoded = nowNs();
    bool Ok = server::writeFrame(Fd, Payload);
    int64_t Written = nowNs();
    {
      std::lock_guard<std::mutex> L(Mu);
      Outcome &O = P.Out[Sent];
      O.StartNs = Start;
      O.EncodedNs = Encoded;
      O.WrittenNs = Written;
      O.RequestBytes = Payload.size() + 4;
    }
    if (!Ok) {
      P.Error = "write to daemon failed";
      break;
    }
  }
  P.RanOut = Sent == In.Sequence.size();
  {
    std::unique_lock<std::mutex> L(Mu);
    if (!Cv.wait_for(L, std::chrono::seconds(60), [&] {
          return Received == Sent || !ReceiveError.empty();
        }) && P.Error.empty())
      P.Error = "daemon answered " + std::to_string(Received) + " of " +
                std::to_string(Sent) + " requests within 60 s";
    if (P.Error.empty())
      P.Error = ReceiveError;
    Closing = true;
  }
  ::shutdown(Fd, SHUT_RD);
  Receiver.join();
  ::close(Fd);
  P.Out.resize(Sent);
  if (S.Trace)
    for (size_t I = 0; I != Sent; ++I) {
      const Outcome &O = P.Out[I];
      recordSpan(Layer::WireEncode, I, O.StartNs, O.EncodedNs);
      recordSpan(Layer::WireWrite, I, O.EncodedNs, O.WrittenNs);
      if (O.Answered) {
        recordSpan(Layer::WireResponse, I, O.WrittenNs, O.RecvNs);
        recordSpan(Layer::WireDecode, I, O.RecvNs, O.DecodedNs);
      }
    }
  double Sys1 = 0;
  P.CpuS = procCpuSeconds(D.Pid, &Sys1) - Cpu0;
  P.SysS = Sys1 - Sys0;
  P.PeakRssMb = procPeakRssMb(D.Pid);
  int StatsFd = connectTo(D.Socket);
  std::optional<server::Response> After;
  if (StatsFd >= 0) {
    After = call(StatsFd, StatsReq);
    ::close(StatsFd);
  }
  if (After)
    P.StatsAfter = After->Stats;
  else if (P.Error.empty())
    P.Error = "final stats request failed";
  return P;
}

int64_t statInt(const json::Value &Doc, std::initializer_list<const char *> Path) {
  const json::Value *V = &Doc;
  for (const char *Key : Path) {
    if (V->kind() != json::Value::Kind::Object)
      return 0;
    V = V->find(Key);
    if (!V)
      return 0;
  }
  return V->kind() == json::Value::Kind::Int ? V->getInt() : 0;
}

Tallies talliesOfResponse(const std::map<std::string, server::PassVerdicts> &P) {
  Tallies T;
  for (const auto &KV : P)
    T[KV.first] = Tally{KV.second.V, KV.second.F, KV.second.NS, KV.second.Diff};
  return T;
}

/// The serve cache path of ValidationDriver::runPipelineValidated with a
/// read-write cache and in-memory artifacts, preceded by the daemon's
/// admission parse, one span around each call into a layer.
struct ReplayCost {
  bool Cold = true;        ///< every pass missed the cache
  int64_t FpStoreNs = 0;   ///< fingerprinting plus storing
  int64_t TotalNs = 0;
};

Tallies replayRequest(const std::string &Text, uint32_t Unit,
                      cache::ValidationCache &VC, ReplayCost &Cost) {
  int64_t Start = nowNs();
  Tallies T;
  {
    ScopedSpan USpan(Layer::Unit, Unit);
    std::optional<ir::Module> M = [&] {
      ScopedSpan X(Layer::IrParse);
      std::string Err;
      return ir::parseModule(Text, &Err);
    }();
    if (!M)
      throw std::runtime_error("request module failed to parse");
    ir::Module Cur = std::move(*M);
    std::string CurText;
    const passes::BugConfig &Bugs = bugs371();
    for (auto &P : passes::makeO2Pipeline(Bugs)) {
      ScopedSpan PSpan(Layer::Pass, Unit, passIndex(P->name()));
      passes::PassResult WithProof = [&] {
        ScopedSpan X(Layer::PassesPCal);
        return P->run(Cur, /*GenProof=*/true);
      }();
      std::string SrcText;
      if (CurText.empty()) {
        ScopedSpan X(Layer::IrPrint);
        SrcText = ir::printModule(Cur);
      } else {
        SrcText = std::move(CurText);
      }
      std::string TgtText = [&] {
        ScopedSpan X(Layer::IrPrint);
        return ir::printModule(WithProof.Tgt);
      }();
      int64_t FpStart = nowNs();
      cache::Fingerprint FP = [&] {
        ScopedSpan X(Layer::CacheFingerprint);
        return cache::fingerprintValidation(SrcText, TgtText, WithProof.Proof,
                                            P->name(),
                                            checker::versionFingerprint(), Bugs);
      }();
      Cost.FpStoreNs += nowNs() - FpStart;
      std::optional<cache::Verdict> Replay = [&] {
        ScopedSpan X(Layer::CacheLookup);
        return VC.lookup(FP);
      }();
      Tally &PT = T[P->name()];
      if (Replay) {
        Cost.Cold = false;
        PT.V += Replay->Checker.Functions.size();
        PT.F += Replay->Checker.countFailed();
        PT.NS += Replay->Checker.countNotSupported();
        PT.Diff += Replay->DiffMismatches;
      } else {
        passes::PassResult Plain = [&] {
          ScopedSpan X(Layer::PassesOrig);
          return P->run(Cur, /*GenProof=*/false);
        }();
        ir::Module SrcForCheck = Cur;
        ir::Module TgtForCheck = WithProof.Tgt;
        proofgen::Proof ProofForCheck = WithProof.Proof;
        checker::ModuleResult MR = [&] {
          ScopedSpan X(Layer::CheckerValidate);
          return checker::validate(SrcForCheck, TgtForCheck, ProofForCheck);
        }();
        PT.V += MR.Functions.size();
        PT.F += MR.countFailed();
        PT.NS += MR.countNotSupported();
        bool Same = [&] {
          ScopedSpan X(Layer::DifftoolDiff);
          return static_cast<bool>(
              difftool::diffModules(Plain.Tgt, WithProof.Tgt));
        }();
        PT.Diff += Same ? 0 : 1;
        int64_t StoreStart = nowNs();
        {
          ScopedSpan X(Layer::CacheStore);
          cache::Verdict V;
          V.Checker = std::move(MR);
          V.DiffMismatches = Same ? 0 : 1;
          VC.store(FP, V);
        }
        Cost.FpStoreNs += nowNs() - StoreStart;
      }
      CurText = std::move(TgtText);
      Cur = std::move(WithProof.Tgt);
    }
  }
  Cost.TotalNs = nowNs() - Start;
  return T;
}

/// A fresh read-write cache with the disk tier crellvm-served attaches by
/// default, so the replay's cache.store_ms includes the disk tier's cost.
cache::ValidationCacheOptions replayCacheOptions(const Settings &S,
                                                 const std::string &Name) {
  cache::ValidationCacheOptions O;
  O.Policy = cache::CachePolicy::ReadWrite;
  O.Dir = S.RunDir + "/" + Name;
  std::error_code EC;
  std::filesystem::remove_all(O.Dir, EC);
  return O;
}

} // namespace

int runServe(const Settings &S, Result &R) {
  // Set-up: generate the request sequence and its modules, spawn the
  // daemon with a fresh cache and socket, and wait for a ready ping.
  // Repeated so setup_s is a median; the last daemon serves the timed
  // phase.
  Inputs In;
  Daemon D;
  std::vector<double> SetupS;
  std::string Err;
  for (int Rep = 0; Rep != (S.Trace ? 1 : SetupReps); ++Rep) {
    if (D.Pid >= 0 && stopDaemon(D) != 0)
      R.Errors.push_back("set-up daemon did not exit cleanly");
    int64_t T0 = nowNs();
    In = makeInputs(S);
    if (!spawnDaemon(S, Rep, D, Err) || !waitReady(D, 60, Err)) {
      R.Errors.push_back(Err);
      stopDaemon(D);
      return 1;
    }
    SetupS.push_back(secondsSince(T0));
  }

  TimedPhase P = runTimed(S, In, D);
  int Exit = stopDaemon(D);
  if (!P.Error.empty())
    R.Errors.push_back(P.Error);
  if (Exit != 0)
    R.Errors.push_back("daemon exit code " + std::to_string(Exit));
  uint64_t Accepted = statInt(P.StatsAfter, {"requests", "accepted"});
  uint64_t Answered = statInt(P.StatsAfter, {"requests", "completed"}) +
                      statInt(P.StatsAfter, {"requests", "deadline_exceeded"}) +
                      statInt(P.StatsAfter, {"requests", "internal_errors"});
  if (Accepted != Answered)
    R.Errors.push_back("drain equation broken: accepted " +
                       std::to_string(Accepted) + " != answered " +
                       std::to_string(Answered));

  // Outcomes. A request that was refused or never answered misses every
  // latency limit, so it enters the percentiles as infinitely late.
  const size_t N = P.Out.size();
  uint64_t OkCount = 0;
  int64_t LastRecv = P.T0;
  std::vector<double> LatencyMs;
  double EncodeNs = 0, DecodeNs = 0, Bytes = 0;
  std::vector<const Outcome *> FirstHot(HotSetSize, nullptr);
  for (size_t I = 0; I != N; ++I) {
    const Outcome &O = P.Out[I];
    const PlannedRequest &Sc = In.Sequence[I];
    bool Ok = O.Answered && O.Status == server::ResponseStatus::Ok;
    LatencyMs.push_back(Ok ? (O.RecvNs - O.StartNs) * 1e-6
                           : std::numeric_limits<double>::infinity());
    EncodeNs += O.EncodedNs - O.StartNs;
    DecodeNs += O.DecodedNs - O.RecvNs;
    Bytes += O.RequestBytes + O.ResponseBytes;
    if (!Ok)
      continue;
    ++OkCount;
    LastRecv = std::max(LastRecv, O.RecvNs);
    addTallies(R.RunTallies, talliesOfResponse(O.Passes));
    if (Sc.Hot) {
      const Outcome *&F = FirstHot[Sc.Module];
      if (!F)
        F = &O;
      else if (!(F->Passes == O.Passes))
        ++R.VerdictMismatches;
    }
  }
  R.Attempted = N;
  R.Failed = N - OkCount;

  // The in-process driver must reach the daemon's verdicts on the same
  // modules: every hot module and the first fresh ones sent.
  {
    std::vector<size_t> Ref;
    std::vector<const Outcome *> RefOutcome;
    for (size_t H = 0; H != HotSetSize; ++H)
      if (FirstHot[H]) {
        Ref.push_back(H);
        RefOutcome.push_back(FirstHot[H]);
      }
    for (size_t I = 0; I != N && Ref.size() < HotSetSize + ReferenceFresh; ++I)
      if (!In.Sequence[I].Hot && P.Out[I].Answered &&
          P.Out[I].Status == server::ResponseStatus::Ok) {
        Ref.push_back(In.Sequence[I].Module);
        RefOutcome.push_back(&P.Out[I]);
      }
    driver::BatchOptions B;
    B.Jobs = S.Jobs;
    std::vector<std::map<std::string, server::PassVerdicts>> Got(Ref.size());
    B.OnUnitDone = [&Got](size_t I, const driver::StatsMap &Unit,
                          driver::UnitOutcome, const std::string &) {
      Got[I] = server::passVerdictsOf(Unit);
    };
    driver::runBatchValidated(
        bugs371(), driverOptions(S, false), Ref.size(),
        [&](size_t I) { return In.Modules[Ref[I]]; }, B);
    for (size_t I = 0; I != Ref.size(); ++I)
      if (!(Got[I] == RefOutcome[I]->Passes))
        ++R.VerdictMismatches;
  }

  double WallS = (LastRecv - P.T0) * 1e-9;
  if (!S.Trace) {
    R.metric("setup_s", median(SetupS), "s");
    R.metric("units_per_s", WallS > 0 ? OkCount / WallS : 0, "1/s");
    R.metric("units_per_cpu_s", P.CpuS > 0 ? OkCount / P.CpuS : 0, "1/s");
    R.latency("verdict_p50_ms", LatencyMs, 0.50);
    R.latency("verdict_p99_ms", LatencyMs, 0.99);
    R.metric("peak_rss_mb", P.PeakRssMb, "MB");
    R.metric("decided_ratio", decidedRatio(R.RunTallies), "ratio");
    R.metric("ok_ratio", N ? double(OkCount) / N : 0, "ratio");
    std::ostringstream OS;
    OS << "window " << Window << ": " << OkCount << " of " << N
       << " requests ok in " << WallS << " s, daemon " << P.CpuS
       << " CPU-s (" << P.SysS << " system)";
    if (P.RanOut)
      OS << "; the request sequence ran out before the time did";
    R.Notes.push_back(OS.str());
  } else {
    auto Delta = [&](std::initializer_list<const char *> Path) {
      return double(statInt(P.StatsAfter, Path) - statInt(P.StatsBefore, Path));
    };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
    double QueueSum = Delta({"latency_us", "queue", "sum"});
    double QueueCount = Delta({"latency_us", "queue", "count"});
    double TotalSum = Delta({"latency_us", "total", "sum"});
    double TotalCount = Delta({"latency_us", "total", "count"});
    double Hits = Delta({"cache", "hits"}), Misses = Delta({"cache", "misses"});
    double Rejected = Delta({"requests", "rejected_queue_full"}) +
                      Delta({"requests", "rejected_shutting_down"}) +
                      Delta({"requests", "rejected_quarantined"});

    // In-process replay of the sequence's first requests: the real driver
    // untraced, then the traced replay, each with a fresh cache.
    size_t M = std::min(N, ReplayRequests);
    {
      // Warm-up, untimed, so neither timed pass starts on a cold heap.
      driver::BatchOptions B;
      B.Jobs = S.Jobs;
      driver::runBatchValidated(
          bugs371(), driverOptions(S, false), std::min<size_t>(M, 64),
          [&](size_t I) { return In.Modules[In.Sequence[I].Module]; }, B);
    }
    cache::ValidationCache Untraced(replayCacheOptions(S, "replay-untraced"));
    driver::DriverOptions DOpts = driverOptions(S, false);
    DOpts.Cache = &Untraced;
    driver::BatchOptions B;
    B.Jobs = S.Jobs;
    std::vector<Tallies> DriverT(M);
    std::vector<double> DriverMs(M);
    std::vector<int64_t> StartNs(M);
    B.OnUnitDone = [&](size_t I, const driver::StatsMap &Unit,
                       driver::UnitOutcome, const std::string &) {
      DriverT[I] = talliesOf(Unit);
      DriverMs[I] = (nowNs() - StartNs[I]) * 1e-6;
    };
    driver::BatchReport Rep = driver::runBatchValidated(
        bugs371(), DOpts, M,
        [&](size_t I) {
          StartNs[I] = nowNs();
          std::string Err;
          // A parse failure throws here, fails the unit and so the gate.
          return ir::parseModule(In.Texts[In.Sequence[I].Module], &Err)
              .value();
        },
        B);

    cache::ValidationCache Traced(replayCacheOptions(S, "replay-traced"));
    std::vector<Tallies> ReplayT(M);
    std::vector<ReplayCost> Costs(M);
    std::atomic<uint64_t> ReplayErrors{0};
    ThreadPool Workers(S.Jobs);
    int64_t T0 = nowNs();
    parallelFor(Workers, M, [&](size_t I) {
      try {
        ReplayT[I] = replayRequest(In.Texts[In.Sequence[I].Module],
                                   static_cast<uint32_t>(I), Traced, Costs[I]);
      } catch (const std::exception &) {
        ReplayErrors.fetch_add(1);
      }
    });
    double ReplayS = secondsSince(T0);
    if (ReplayErrors)
      R.Errors.push_back("traced replay threw on " +
                         std::to_string(ReplayErrors.load()) + " requests");
    Tallies Replayed;
    for (size_t I = 0; I != M; ++I) {
      if (!(ReplayT[I] == DriverT[I]) ||
          !(ReplayT[I] == talliesOfResponse(P.Out[I].Passes)))
        ++R.VerdictMismatches;
      addTallies(Replayed, ReplayT[I]);
    }

    LayerTotals L = collectSpans();
    addLayerMetrics(R, L, double(M));
    addCheckerCounts(R, Replayed, double(M));
    R.metric("proofgen.proof_bytes", 0, "count");
    R.metric("support.pool_busy_ratio", Ratio(P.CpuS, S.Jobs * WallS),
             "ratio");
    R.metric("trace.overhead_ratio",
             Ratio(Rep.WallSeconds > 0 ? M / Rep.WallSeconds : 0,
                   ReplayS > 0 ? M / ReplayS : 0),
             "ratio");
    double DriverMsSum = 0;
    for (double Ms : DriverMs)
      DriverMsSum += Ms;
    R.metric("trace.accounted_ratio",
             Ratio(tracedUnitNs(L) * 1e-6, DriverMsSum), "ratio");
    R.metric("cache.hit_ratio", Ratio(Hits, Hits + Misses), "ratio");
    R.metric("server.queue_wait_ms", Ratio(QueueSum, QueueCount) * 1e-3, "ms");
    R.metric("server.service_ms", Ratio(TotalSum - QueueSum, TotalCount) * 1e-3,
             "ms");
    R.metric("server.batch_size",
             Ratio(Delta({"batching", "batched_units"}),
                   Delta({"batching", "batches_formed"})),
             "count");
    R.metric("server.linger_hit_ratio",
             Ratio(Delta({"batching", "linger_hits"}),
                   Delta({"batching", "linger_waits"})),
             "ratio");
    R.metric("server.rejected_ratio", Ratio(Rejected, double(N)), "ratio");
    R.metric("wire.encode_us", Ratio(EncodeNs, double(N)) * 1e-3, "us");
    R.metric("wire.decode_us", Ratio(DecodeNs, double(N)) * 1e-3, "us");
    R.metric("wire.bytes_per_req", Ratio(Bytes, double(N)), "count");
    double LatencySum = 0;
    for (double Ms : LatencyMs)
      LatencySum += std::isfinite(Ms) ? Ms : 0;
    R.metric("ledger.wire_share",
             Ratio((EncodeNs + DecodeNs) * 1e-6, LatencySum), "ratio");
    double ColdFpStore = 0, ColdTotal = 0;
    for (const ReplayCost &C : Costs)
      if (C.Cold) {
        ColdFpStore += C.FpStoreNs;
        ColdTotal += C.TotalNs;
      }
    R.metric("ledger.cold_fingerprint_store_share",
             Ratio(ColdFpStore, ColdTotal), "ratio");
    {
      std::ostringstream OS;
      OS << "cache.hit_ratio base: " << Hits + Misses
         << " pass lookups; replayed " << M << " of " << N << " requests";
      R.Notes.push_back(OS.str());
    }
    addLedgerNotes(R, L, "serve request validation time (in-process replay)");
    writeSpans(S.RunDir + "/spans.tsv");
  }

  R.GateTallies = gateTallies(S, false);
  return 0;
}

} // namespace perfbench
