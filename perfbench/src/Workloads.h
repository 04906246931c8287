//===- Workloads.h - The benchmark's workloads and checks -------*- C++ -*-==//
///
/// \file
/// Three workloads drive the library from outside, through its public
/// APIs only:
///
///  * batch-mixed  — one-shot `QueryEngine::runAll` over generated,
///    lint-admitted programs × the 24-spec SC/TSC + hardware-TM pool;
///  * serve-churn  — a resident `QueryServer` behind the connection
///    multiplexer on a Unix socket, with a verdict store, under
///    closed-loop clients sending small batches (a hot set plus a steady
///    share of never-seen programs);
///  * synth-forbid — `synthesizeForbid` for x86 (|E| = 5) then Power
///    (|E| = 4) with work stealing.
///
/// Every answer is checked: against the independent-evaluation reference,
/// the one-shot engine's bytes, or a pinned suite digest.
///
//===----------------------------------------------------------------------===//

#ifndef TMWBENCH_WORKLOADS_H
#define TMWBENCH_WORKLOADS_H

#include "Common.h"
#include "Gen.h"

#include "enumerate/Enumerator.h"
#include "query/Query.h"

#include <memory>
#include <string>
#include <vector>

namespace tmwbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Worker threads, client threads, and connections (min(nproc, 4)).
  unsigned Jobs = 1;
  /// Scratch directory for the store file, socket, and trace output.
  std::string RunDir = ".bench_run";
  /// Pinned synthesis digest file.
  std::string PinnedDigest = "perfbench/pinned/synth_forbid.txt";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Report {
  std::vector<Metric> Metrics;
  Tally T;
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr unsigned kSetupReps = 5;

/// The 24-spec pool: SC/TSC plus the hardware TM models, their
/// ablations, baselines, and implementation wrappers.
const std::vector<std::string> &specPool();

/// One request per program, each against the whole spec pool.
std::vector<tmw::CheckRequest>
poolRequests(const std::vector<GenProgram> &Programs);

/// Compare each response's canonical JSON against \p Reference (same
/// order) and tally one answer per response. Returns the mismatches.
uint64_t checkResponses(const std::vector<tmw::CheckResponse> &Got,
                        const std::vector<std::string> &Reference,
                        Tally &T);

/// Replace the `name` line of a generated source (a never-seen copy of an
/// admitted program: identical candidates, a fresh cache and store key).
std::string renameSource(const std::string &Source, const std::string &Name);

/// Canonical digest lines of a synthesized suite: "<arch> <|E|> <count>"
/// followed by the sorted canonical hashes of its tests.
std::string suiteDigest(const char *Arch, unsigned NumEvents,
                        const std::vector<tmw::Execution> &Tests);

/// Tally a suite digest against the pinned one: one answer per pinned or
/// produced test, failed when it is missing from the other side.
void checkDigest(const std::string &Got, const std::string &Pinned, Tally &T);

int runBatchMixed(const RunArgs &A, Report &R);
int runServeChurn(const RunArgs &A, Report &R);
int runSynthForbid(const RunArgs &A, Report &R);
/// The traced pass: every per-layer metric (see README.md).
int runTraced(const RunArgs &A, Report &R);

//===----------------------------------------------------------------------===//
// Shared pieces of the workloads, reused by the traced pass.
//===----------------------------------------------------------------------===//

/// Programs per batch-mixed pass.
inline constexpr size_t kBatchPrograms = 4000;

/// batch-mixed and synth-forbid read `peak_rss_mb` once this many passes
/// are done, so that it measures memory at a fixed amount of work, not
/// after however many passes the host's speed allowed.
inline constexpr size_t kRssAfterPasses = 2;

struct ServeResult {
  /// Median set-up, in reference-host CPU seconds.
  double SetupS = 0;
  /// Median round of load, per 1000 batches: in reference-host CPU
  /// seconds, and in seconds of wall time on this host.
  double CpuS = 0, WallS = 0;
  /// Median host factor of the rounds.
  double HostFactor = 0;
  /// Batch round-trip percentiles.
  double P50Ms = 0, P99Ms = 0;
  /// Measured batches (round-trip samples); ServerBatches adds warm-up.
  uint64_t Batches = 0;
  uint64_t ServerBatches = 0, BadBatches = 0, BackpressurePauses = 0;
  uint64_t ProgramHits = 0, ProgramMisses = 0, PlanHits = 0, PlanMisses = 0;
  uint64_t StoreHits = 0, StoreMisses = 0, StoreAppends = 0;
  uint64_t LogBytes = 0;
  /// Wall time under load (the rounds, without the pauses between them).
  double SessionSeconds = 0;
  /// Peak RSS once a fixed number of batches completed.
  double PeakRssMb = 0;
  /// Client-side batch round-trip spans, one recorder per client.
  double SpanSeconds = 0;
};

/// Run one serve-churn session for \p Seconds of measured load. Returns
/// a process exit code (nonzero: refused, e.g. the store cannot open).
int serveSession(const RunArgs &A, double Seconds, Tally &T, ServeResult &Out);

/// The synthesis inputs: the TM and baseline models of both
/// architectures (resolved through the registry) and their vocabularies.
struct SynthInputs {
  std::unique_ptr<tmw::MemoryModel> X86, X86Base, Power, PowerBase;
  tmw::Vocabulary X86Vocab, PowerVocab;
};
SynthInputs synthInputs();

struct SynthPass {
  double X86Seconds = 0, PowerSeconds = 0;
  uint64_t Bases = 0, Placements = 0, Steals = 0, Splits = 0;
  double Balance = 0;
  /// Discovery time of each test, from the start of its own suite.
  std::vector<double> FoundAtMs;
  std::string Digest;
  std::vector<tmw::Execution> Tests;
};

/// One synthesis pass (x86 then Power), digested.
SynthPass synthPass(const SynthInputs &In, unsigned Jobs);

} // namespace tmwbench

#endif // TMWBENCH_WORKLOADS_H
