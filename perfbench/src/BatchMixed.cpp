//===- BatchMixed.cpp - One-shot batches over generated programs ----------===//
///
/// A pass is one cache-less, store-less `QueryEngine::runAll` over a few
/// thousand admitted programs, each against the 24-spec pool, at jobs =
/// min(nproc, 4) — the one-shot `litmus_tool --json` path. Every
/// response must be byte-equal to the `EvalStrategy::Independent`
/// reference computed once per run.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <cstdio>

using namespace tmw;

namespace tmwbench {

const std::vector<std::string> &specPool() {
  static const std::vector<std::string> Pool = {
      "tsc", "x86", "power", "armv8", "power/-TxnOrder", "power8",
      "sc", "power/-StrongIsol", "power/+baseline", "armv8-rtl",
      "x86/-TxnOrder", "armv8/-TxnOrder", "armv8-silicon",
      "x86/-StrongIsol", "x86/+baseline", "armv8/-StrongIsol",
      "armv8/+baseline", "power/-thb", "power/-tprop1", "x86-impl",
      "power8/-TxnOrder", "tsc-impl", "sc/+baseline", "armv8-rtl/-TxnOrder"};
  return Pool;
}

std::vector<CheckRequest>
poolRequests(const std::vector<GenProgram> &Programs) {
  std::vector<CheckRequest> Out;
  Out.reserve(Programs.size());
  for (const GenProgram &G : Programs) {
    CheckRequest R;
    R.Source = G.Source;
    R.ModelSpecs = specPool();
    Out.push_back(std::move(R));
  }
  return Out;
}

uint64_t checkResponses(const std::vector<CheckResponse> &Got,
                        const std::vector<std::string> &Reference,
                        Tally &T) {
  uint64_t Bad = 0;
  for (size_t I = 0; I < Reference.size(); ++I) {
    bool Ok = I < Got.size() && Got[I] && toJson(Got[I]) == Reference[I];
    Bad += !Ok;
    T.record(Ok);
  }
  return Bad;
}

std::string renameSource(const std::string &Source, const std::string &Name) {
  size_t Nl = Source.find('\n');
  return "name " + Name + Source.substr(Nl);
}

int runBatchMixed(const RunArgs &A, Report &R) {
  PassMeter Setup;
  std::vector<CheckRequest> Requests;
  GenStats Stats;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep)
    Setup.pass([&] {
      GenStats S;
      std::vector<GenProgram> Programs =
          generatePool(A.Seed, kBatchPrograms, &S);
      Requests = poolRequests(Programs);
      Stats = S;
    });

  // The reference: independent per-model evaluation, canonical bytes.
  std::vector<std::string> Reference;
  {
    std::vector<CheckResponse> Ref =
        QueryEngine({.Jobs = A.Jobs, .Strategy = EvalStrategy::Independent})
            .runAll(Requests);
    for (const CheckResponse &Resp : Ref)
      Reference.push_back(Resp ? toJson(Resp) : std::string());
  }

  QueryEngine Engine({.Jobs = A.Jobs});
  PassMeter Passes;
  std::vector<double> Walls, RequestMs;
  double RssMb = 0;
  Clock::time_point Start = Clock::now();
  do {
    std::vector<CheckResponse> Got;
    Passes.pass([&] {
      Clock::time_point T0 = Clock::now();
      Got = Engine.runAll(Requests);
      Walls.push_back(secondsSince(T0));
    });
    for (const CheckResponse &Resp : Got)
      RequestMs.push_back(Resp.Seconds * 1e3);
    checkResponses(Got, Reference, R.T);
    if (Passes.passes() == kRssAfterPasses)
      RssMb = peakRssMb();
  } while (secondsSince(Start) < A.Seconds);

  std::printf("batch-mixed: %zu programs x %zu specs, %zu passes, "
              "admitted %llu of %llu drawn\n",
              Requests.size(), specPool().size(), Passes.passes(),
              static_cast<unsigned long long>(Stats.Admitted),
              static_cast<unsigned long long>(Stats.Generated));
  std::printf("batch-mixed: on this host, median pass wall %.4f s, "
              "request p50 %.4f ms, p99 %.4f ms (%zu samples); host "
              "factor %.3f\n",
              median(Walls), tailPercentile(RequestMs, 50),
              tailPercentile(RequestMs, 99), RequestMs.size(),
              Passes.medianHostFactor());
  R.add("setup_s", Setup.medianRefSeconds(), "s");
  R.add("cpu_s", Passes.medianRefSeconds(), "s");
  R.add("peak_rss_mb", RssMb > 0 ? RssMb : peakRssMb(), "MB");
  return 0;
}

} // namespace tmwbench
