//===- perfbench/Harness.h - Shared pieces of the benchmark harness -------===//
///
/// \file
/// Clocks, process accounting, raw-sample percentiles, the in-memory span
/// recorder and the result document shared by the batch workloads
/// (exchange, campaign) and the serve workload.
///
/// Spans are recorded from the harness's own code around calls into each
/// module's public functions; nothing inside src/ is instrumented. Each
/// thread appends to its own buffer, so recording takes no lock. A span's
/// self time is its duration minus the time its child spans cover; since
/// children run on their parent's thread, strictly nested, that is the
/// duration minus the sum of the children's durations.
///
//===----------------------------------------------------------------------===//
#ifndef CRELLVM_PERFBENCH_HARNESS_H
#define CRELLVM_PERFBENCH_HARNESS_H

#include "driver/Driver.h"
#include "ir/Module.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- Clocks and process accounting ------------------------------------------

int64_t nowNs();
double secondsSince(int64_t StartNs);
/// User + system CPU seconds of this process.
double selfCpuSeconds();
/// User + system CPU seconds of process \p Pid, from /proc; -1 on error.
/// The system part alone is stored to \p SysOut when given.
double procCpuSeconds(int Pid, double *SysOut = nullptr);
/// Peak resident set (VmHWM) of process \p Pid in MiB; 0 on error.
double procPeakRssMb(int Pid);

// --- Percentiles from raw samples --------------------------------------------

/// A nearest-rank percentile of raw samples. The requested percentile is
/// lowered to the highest one that still has at least ten samples beyond
/// it, and the percentile actually used is reported with the sample count.
struct Percentile {
  double Value = 0;
  double Q = 0;  ///< the percentile used, in [0, 1]
  size_t N = 0;  ///< samples it was taken from
};
Percentile percentile(std::vector<double> Samples, double Q);
double median(std::vector<double> Samples);

// --- Spans -------------------------------------------------------------------

/// Layer names; the per-layer metric of layer X is "X_ms" (self time per
/// unit) unless noted otherwise.
enum class Layer : uint8_t {
  Unit,          ///< one unit or request (root)
  Pass,          ///< one pass of the pipeline, protocol glue only
  PassesPCal,    ///< Pass::run with proof
  PassesOrig,    ///< Pass::run without proof
  IrPrint,       ///< ir::printModule
  IrParse,       ///< ir::parseModule
  ProofToJson,   ///< proofgen::proofToJson
  JsonWrite,     ///< json::Value::write
  JsonParse,     ///< json::parse
  ProofFromJson, ///< proofgen::proofFromJson
  DriverFile,    ///< exchange file writes, reads and removals
  CheckerValidate, ///< checker::validate
  DifftoolDiff,  ///< difftool::diffModules
  CacheFingerprint, ///< cache::fingerprintValidation
  CacheLookup,   ///< cache::ValidationCache::lookup
  CacheStore,    ///< cache::ValidationCache::store
  WireEncode,    ///< client: server::requestToJson
  WireWrite,     ///< client: server::writeFrame
  WireResponse,  ///< client: end of write to the response frame read
  WireDecode,    ///< client: server::responseFromJson
  Count
};
const char *layerName(Layer L);

/// Index of a pipeline pass by name (mem2reg, instcombine, licm, gvn);
/// NoPass for spans that belong to no single pass.
constexpr uint8_t NoPass = 0xff;
uint8_t passIndex(const std::string &Name);
extern const char *const PassNames[4];

struct Span {
  int64_t Start = 0, End = 0;
  int64_t ChildNs = 0; ///< summed durations of direct children
  uint32_t Unit = 0;
  int32_t Parent = -1; ///< index in the same thread's buffer
  Layer Name = Layer::Unit;
  uint8_t Pass = NoPass;
};

/// Opens a span on the calling thread; closes it on destruction. The
/// enclosing open span on the same thread is its parent, and the unit id
/// and pass are inherited from it unless given.
class ScopedSpan {
public:
  ScopedSpan(Layer Name, uint32_t Unit = ~0u, uint8_t Pass = NoPass);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int32_t Index;
};

/// Appends a span that was timed elsewhere (client spans that cross the
/// sender and receiver threads). It has no parent and no children.
void recordSpan(Layer Name, uint32_t Unit, int64_t Start, int64_t End);

/// Per-layer totals over every span recorded so far.
struct LayerTotals {
  double SelfNs[static_cast<size_t>(Layer::Count)] = {};
  double SelfNsByPass[static_cast<size_t>(Layer::Count)][4] = {};
  uint64_t Spans[static_cast<size_t>(Layer::Count)] = {};
};
LayerTotals collectSpans();
/// Writes every recorded span as tab-separated lines (layer, pass, unit,
/// parent, start_ns, end_ns); false on I/O error.
bool writeSpans(const std::string &Path);

// --- Verdict tallies ---------------------------------------------------------

struct Tally {
  uint64_t V = 0, F = 0, NS = 0, Diff = 0;
  bool operator==(const Tally &O) const = default;
};
using Tallies = std::map<std::string, Tally>; ///< by pass name
Tallies talliesOf(const crellvm::driver::StatsMap &S);
void addTallies(Tallies &Into, const Tallies &From);
/// (V - NS) / V over all passes: the share of function validations the
/// checker decided.
double decidedRatio(const Tallies &T);

// --- The harness's result document -------------------------------------------

/// What one run reports; run.py turns it into the benchmark's result line
/// after checking the verdict gate.
struct Result {
  uint64_t Attempted = 0, Failed = 0;
  /// Metric name -> (value, unit); end-to-end and per-layer alike.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Human-readable notes (percentile used, sample counts, ledger).
  std::vector<std::string> Notes;
  /// Gate inputs: tallies of the default-seed gate set, tallies of the
  /// measured units, and the number of units whose verdicts disagreed with
  /// an independent computation of the same units.
  Tallies GateTallies, RunTallies;
  uint64_t VerdictMismatches = 0;
  std::vector<std::string> Errors;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, {Value, Unit}});
  }
  void latency(const std::string &Name, std::vector<double> SamplesMs,
               double Q);
  std::string toJson() const;
};

// --- Inputs and settings ----------------------------------------------------

struct Settings {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RunDir;     ///< scratch directory owned by this run
  std::string Served;     ///< crellvm-served binary (serve workload)
  unsigned Jobs = 2;      ///< validation workers in every workload
};

/// The paper's Fig. 6 configuration: LLVM 3.7.1's planted bugs.
const crellvm::passes::BugConfig &bugs371();
/// Module \p Index of campaign \p Seed (campaign::unitSeed ->
/// workload::generateModule).
crellvm::ir::Module unitModule(uint64_t Seed, uint64_t Index);
/// The driver settings of a workload: exchange = Fig. 1 file protocol
/// with JSON-text proofs; campaign and serve = in-memory artifacts.
crellvm::driver::DriverOptions driverOptions(const Settings &S,
                                             bool WriteFiles);
/// Validates the gate set (the first 48 units of seed 1) and returns the
/// per-pass tallies, which perfbench/pinned_tallies.json pins.
Tallies gateTallies(const Settings &S, bool WriteFiles);

/// Per-layer metrics derived from spans, per unit of \p Units.
void addLayerMetrics(Result &R, const LayerTotals &L, double Units);
/// checker.functions / failed / not_supported per unit.
void addCheckerCounts(Result &R, const Tallies &T, double Units);
/// Self time of every validation layer (client spans excluded), in ns.
double tracedUnitNs(const LayerTotals &L);
/// Notes giving each layer's share of the traced unit time.
void addLedgerNotes(Result &R, const LayerTotals &L, const std::string &Of);

int runBatch(const Settings &S, Result &R);
int runServe(const Settings &S, Result &R);

} // namespace perfbench

#endif // CRELLVM_PERFBENCH_HARNESS_H
