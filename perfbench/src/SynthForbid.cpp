//===- SynthForbid.cpp - The Fig. 7 Forbid-suite synthesis ----------------===//
///
/// A pass synthesizes the x86 TM-vs-baseline Forbid suite at |E| = 5 (60
/// tests) and then the Power one at |E| = 4 (111 tests), each with an
/// unbounded budget on the work-stealing pool. The suites do not depend
/// on the seed; each pass must reproduce the pinned digest (count plus
/// the sorted canonical hashes of the tests).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "enumerate/Relaxation.h"
#include "models/ModelRegistry.h"
#include "synth/Conformance.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

using namespace tmw;

namespace tmwbench {

SynthInputs synthInputs() {
  SynthInputs In;
  In.X86 = ModelRegistry::parse("x86");
  In.X86Base = ModelRegistry::parse("x86/+baseline");
  In.Power = ModelRegistry::parse("power");
  In.PowerBase = ModelRegistry::parse("power/+baseline");
  In.X86Vocab = Vocabulary::forArch(Arch::X86);
  In.PowerVocab = Vocabulary::forArch(Arch::Power);
  return In;
}

std::string suiteDigest(const char *ArchName, unsigned NumEvents,
                        const std::vector<Execution> &Tests) {
  std::vector<uint64_t> Hashes;
  for (const Execution &X : Tests)
    Hashes.push_back(canonicalHash(X));
  std::sort(Hashes.begin(), Hashes.end());
  std::string Out = std::string(ArchName) + " " + std::to_string(NumEvents) +
                    " " + std::to_string(Tests.size()) + "\n";
  for (uint64_t H : Hashes)
    Out += hex64(H) + "\n";
  return Out;
}

void checkDigest(const std::string &Got, const std::string &Pinned,
                 Tally &T) {
  auto Lines = [](const std::string &Text) {
    std::multiset<std::string> Out;
    std::istringstream In(Text);
    for (std::string L; std::getline(In, L);)
      if (!L.empty())
        Out.insert(L);
    return Out;
  };
  std::multiset<std::string> G = Lines(Got), P = Lines(Pinned);
  // One answer per line on either side; a line present on one side only
  // is a wrong, missing, or spurious test (or a wrong count header).
  for (const std::string &L : P)
    T.record(G.count(L) > 0);
  for (const std::string &L : G)
    if (!P.count(L))
      T.record(false);
}

SynthPass synthPass(const SynthInputs &In, unsigned Jobs) {
  SynthPass Out;
  ForbidSuite X = synthesizeForbid(*In.X86, *In.X86Base, In.X86Vocab, 5,
                                   1e18, Jobs);
  ForbidSuite P = synthesizeForbid(*In.Power, *In.PowerBase, In.PowerVocab,
                                   4, 1e18, Jobs);
  Out.X86Seconds = X.SynthesisSeconds;
  Out.PowerSeconds = P.SynthesisSeconds;
  double Busy = 0, MaxBusy = 0;
  unsigned Workers = 0;
  for (const ForbidSuite *S : {&X, &P}) {
    Out.Bases += S->BasesVisited;
    Out.Placements += S->PlacementsVisited;
    double SuiteMax = 0;
    for (const WorkerLoad &W : S->Workers) {
      Out.Steals += W.Steals;
      Out.Splits += W.Splits;
      Busy += W.BusySeconds;
      SuiteMax = std::max(SuiteMax, W.BusySeconds);
    }
    MaxBusy += SuiteMax;
    Workers = std::max<unsigned>(Workers, S->Workers.size());
  }
  // Σ busy / (jobs · max busy), each suite's max summed: 1 = perfect.
  Out.Balance = MaxBusy > 0 && Workers ? Busy / (Workers * MaxBusy) : 0;
  for (const ForbidSuite *S : {&X, &P})
    for (double F : S->FoundAtSeconds)
      Out.FoundAtMs.push_back(F * 1e3);
  Out.Digest = suiteDigest("x86", 5, X.Tests) + suiteDigest("power", 4, P.Tests);
  Out.Tests = std::move(X.Tests);
  Out.Tests.insert(Out.Tests.end(), P.Tests.begin(), P.Tests.end());
  return Out;
}

int runSynthForbid(const RunArgs &A, Report &R) {
  std::string Pinned;
  if (!readFile(A.PinnedDigest, Pinned)) {
    std::fprintf(stderr, "error: cannot read pinned digest '%s'\n",
                 A.PinnedDigest.c_str());
    return 2;
  }
  // Set-up: resolve the models, build the vocabularies, and warm the
  // pool, allocator, and caches with a small x86 search (|E| = 4), so
  // the first measured pass does not pay for them.
  PassMeter Setup;
  SynthInputs In;
  for (unsigned Rep = 0; Rep < kSetupReps; ++Rep)
    Setup.pass([&] {
      In = synthInputs();
      synthesizeForbid(*In.X86, *In.X86Base, In.X86Vocab, 4, 1e18, A.Jobs);
    });

  PassMeter Passes;
  std::vector<double> Walls, FoundMs;
  double RssMb = 0;
  Clock::time_point Start = Clock::now();
  do {
    SynthPass P;
    Passes.pass([&] {
      Clock::time_point T0 = Clock::now();
      P = synthPass(In, A.Jobs);
      Walls.push_back(secondsSince(T0));
    });
    std::printf("synth-forbid pass %zu: x86 %.3f s, power %.3f s\n",
                Walls.size(), P.X86Seconds, P.PowerSeconds);
    FoundMs.insert(FoundMs.end(), P.FoundAtMs.begin(), P.FoundAtMs.end());
    checkDigest(P.Digest, Pinned, R.T);
    if (Passes.passes() == kRssAfterPasses)
      RssMb = peakRssMb();
  } while (secondsSince(Start) < A.Seconds);

  std::printf("synth-forbid: %zu passes of x86 |E|=5 + power |E|=4; on "
              "this host, median pass wall %.4f s, test discovery p50 "
              "%.4f ms, p99 %.4f ms (%zu samples); host factor %.3f\n",
              Walls.size(), median(Walls), tailPercentile(FoundMs, 50),
              tailPercentile(FoundMs, 99), FoundMs.size(),
              Passes.medianHostFactor());
  R.add("setup_s", Setup.medianRefSeconds(), "s");
  R.add("cpu_s", Passes.medianRefSeconds(), "s");
  R.add("peak_rss_mb", RssMb > 0 ? RssMb : peakRssMb(), "MB");
  return 0;
}

} // namespace tmwbench
