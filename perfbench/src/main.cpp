//===- main.cpp - The benchmark command -----------------------------------===//
///
///   tmwbench --workload <batch-mixed|serve-churn|synth-forbid>
///            --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one workload for about `--seconds` and prints every metric by
/// name and unit, then, as the last line, one JSON object:
/// {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
/// end-to-end metrics, `--trace 1` the per-layer ones from a separate
/// traced run. Exits nonzero when any answer is wrong, errored, refused,
/// or lost. `--pin-synth <file>` writes the synthesis digest the
/// synth-forbid workload checks against.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

using namespace tmwbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tmwbench --workload <batch-mixed|serve-churn|"
               "synth-forbid> --seed <n> --seconds <s> --trace <0|1>\n"
               "       tmwbench --pin-synth <file>\n");
  return 2;
}

template <class T> bool parseNum(const char *S, T &Out) {
  const char *End = S + std::strlen(S);
  auto [P, Ec] = std::from_chars(S, End, Out);
  return Ec == std::errc() && P == End;
}

void printResult(const Report &R, bool Correct) {
  for (const Metric &M : R.Metrics)
    std::printf("%-34s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  bool Listed = false;
  for (const Metric &M : R.Metrics)
    Listed |= M.Name == "failed_frac";
  if (!Listed)
    std::printf("%-34s %.6g\n", "failed_frac", R.T.failedFrac());
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.T.Attempted.load());
  Json += ", \"failed\": " + std::to_string(R.T.Failed.load());
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", R.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
            Buf + ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

} // namespace

int main(int argc, char **argv) {
  RunArgs A;
  unsigned Cores = std::thread::hardware_concurrency();
  A.Jobs = std::max(1u, std::min(Cores, 4u));
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseNum(V, A.Seed))
        return usage();
    } else if (Flag == "--seconds") {
      if (!parseNum(V, A.Seconds) || A.Seconds <= 0)
        return usage();
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage();
      A.Trace = V[0] == '1';
    } else if (Flag == "--run-dir") {
      A.RunDir = V;
    } else if (Flag == "--pinned") {
      A.PinnedDigest = V;
    } else if (Flag == "--pin-synth") {
      SynthPass P = synthPass(synthInputs(), A.Jobs);
      std::ofstream Out(V, std::ios::binary);
      Out << P.Digest;
      return Out ? 0 : 1;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload ||
      (A.Workload != "batch-mixed" && A.Workload != "serve-churn" &&
       A.Workload != "synth-forbid"))
    return usage();

  Report R;
  int Rc;
  if (A.Trace)
    Rc = runTraced(A, R);
  else if (A.Workload == "batch-mixed")
    Rc = runBatchMixed(A, R);
  else if (A.Workload == "serve-churn")
    Rc = runServeChurn(A, R);
  else
    Rc = runSynthForbid(A, R);
  if (Rc)
    return Rc; // refused: no result
  bool Correct = R.T.Failed.load() == 0 && R.T.Attempted.load() > 0;
  printResult(R, Correct);
  return Correct ? 0 : 1;
}
