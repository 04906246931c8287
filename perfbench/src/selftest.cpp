//===- selftest.cpp - Tests of the benchmark itself -----------------------===//
///
/// Generator determinism and admission, span self-time arithmetic, the
/// tail-percentile rule, the pass meter's accounting, and that corrupted
/// answers are counted as failures. Run by `python3 perfbench/run.py --self-test` (or ctest in
/// the benchmark's build directory); exits nonzero on any failure.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "lint/Lint.h"
#include "litmus/Parser.h"
#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <cmath>
#include <cstdio>
#include <thread>

using namespace tmwbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What);
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

void generatorIsDeterministic() {
  GenStats S1, S2;
  std::vector<GenProgram> A = generatePool(7, 200, &S1);
  std::vector<GenProgram> B = generatePool(7, 200, &S2);
  bool Same = A.size() == B.size();
  for (size_t I = 0; Same && I < A.size(); ++I)
    Same = A[I].Source == B[I].Source;
  expect(Same, "same seed gives byte-identical sources");
  expect(S1.Generated == S2.Generated && S1.Admitted == S2.Admitted,
         "same seed gives the same admission counts");
  expect(generateSource(7, 3) == generateSource(7, 3),
         "generateSource is a pure function of (seed, index)");
  std::vector<GenProgram> C = generatePool(8, 200);
  expect(C[0].Source != A[0].Source, "another seed gives other sources");

  bool Admissible = true;
  for (const GenProgram &G : A) {
    tmw::ParseResult P = tmw::parseProgram(G.Source);
    Admissible &= P && !tmw::lintProgram(P.Prog).hasErrors() &&
                  G.Events >= kMinEvents && G.Events <= kMaxEvents &&
                  G.Candidates >= 1 && G.Candidates <= kMaxCandidates;
  }
  expect(Admissible, "admitted programs parse, lint clean, and fit bounds");
  expect(S1.Generated > S1.Admitted && S1.LintRejected > 0,
         "admission rejects some drawn programs");
}

void selfTimesSubtractChildren() {
  // root [0,10] { a [1,4], b [5,9] { c [6,7] } }, then root2 [12,13].
  std::vector<Span> S(5);
  S[0] = {"root", 0, 10, -1, 1};
  S[1] = {"a", 1, 4, 0, 1};
  S[2] = {"b", 5, 9, 0, 1};
  S[3] = {"c", 6, 7, 2, 1};
  S[4] = {"root", 12, 13, -1, 2};
  std::map<std::string, double> T = selfTimes(S);
  expect(near(T["root"], 3 + 1),
         "root self time excludes direct children only, summed by name");
  expect(near(T["a"], 3), "leaf self time is its duration");
  expect(near(T["b"], 3), "inner span self time excludes its child");
  expect(near(T["c"], 1), "grandchild self time");
  expect(near(rootTime(S), 11), "root time sums root spans");

  Tracer Tr;
  Tr.begin("outer", 5);
  Tr.begin("inner", 5);
  Tr.end();
  Tr.end();
  Tr.begin("next");
  Tr.end();
  const std::vector<Span> &Sp = Tr.spans();
  expect(Sp.size() == 3 && Sp[0].Parent == -1 && Sp[1].Parent == 0 &&
             Sp[2].Parent == -1 && Sp[1].Request == 5,
         "tracer records parents and request ids");
  expect(Sp[0].Start <= Sp[1].Start && Sp[1].End <= Sp[0].End,
         "child span nests inside its parent");
}

void tailPercentileKeepsTenBeyond() {
  std::vector<double> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  expect(near(tailPercentile(V, 99), 89),
         "p99 of 100 samples keeps 10 samples beyond it");
  expect(near(tailPercentile(V, 50), 50), "p50 is the nearest rank");
  V.clear();
  for (int I = 0; I < 2000; ++I)
    V.push_back(I);
  expect(near(tailPercentile(V, 99), 1980), "p99 of 2000 samples");
}

void corruptedAnswersAreCounted() {
  std::vector<tmw::CheckRequest> Requests =
      poolRequests(generatePool(3, 20));
  std::vector<tmw::CheckResponse> Got = tmw::QueryEngine().runAll(Requests);
  std::vector<std::string> Reference;
  for (const tmw::CheckResponse &R : Got)
    Reference.push_back(tmw::toJson(R));

  Tally Clean;
  expect(checkResponses(Got, Reference, Clean) == 0 &&
             Clean.failedFrac() == 0 && Clean.Attempted == 20,
         "identical responses pass");

  std::vector<tmw::CheckResponse> Corrupt = Got;
  Corrupt[4].Verdicts[0].Allowed = !Corrupt[4].Verdicts[0].Allowed;
  Tally T;
  expect(checkResponses(Corrupt, Reference, T) == 1 &&
             near(T.failedFrac(), 1.0 / 20),
         "a corrupted response raises failed_frac");

  std::vector<tmw::CheckResponse> Lost(Got.begin(), Got.end() - 1);
  Tally L;
  checkResponses(Lost, Reference, L);
  expect(L.Failed == 1 && L.Attempted == 20, "a lost response is a failure");

  std::string Pinned = "x86 5 2\n00000000000000aa\n00000000000000bb\n";
  Tally D1, D2;
  checkDigest(Pinned, Pinned, D1);
  expect(D1.Failed == 0 && D1.Attempted == 3, "matching digest passes");
  checkDigest("x86 5 2\n00000000000000aa\n00000000000000cc\n", Pinned, D2);
  expect(D2.Failed == 2, "a wrong test counts as missing plus spurious");
}

} // namespace

void passMeterCountsOnlyThePass() {
  // A pass that only sleeps uses no CPU, though the samplers burn some
  // beside it: their time must not be counted as the pass's.
  PassMeter Idle;
  Idle.pass([] { std::this_thread::sleep_for(std::chrono::milliseconds(300)); });
  expect(Idle.medianRefSeconds() < 0.005,
         "the samplers' CPU time is not counted as the pass's");
  double F = Idle.medianHostFactor();
  expect(F > 0 && std::isfinite(F), "the host factor is positive and finite");

  // Twice the work measures about twice as much.
  auto Spin = [](unsigned Rounds) {
    volatile uint64_t H = 0;
    for (unsigned I = 0; I < Rounds; ++I)
      H = fnv1a("spin", H + I);
  };
  PassMeter One, Two;
  for (int Rep = 0; Rep < 5; ++Rep) {
    One.pass([&] { Spin(4000000); });
    Two.pass([&] { Spin(8000000); });
  }
  double Ratio = Two.medianRefSeconds() / One.medianRefSeconds();
  expect(Ratio > 1.5 && Ratio < 2.5, "twice the work measures about twice");
}

int main() {
  generatorIsDeterministic();
  selfTimesSubtractChildren();
  tailPercentileKeepsTenBeyond();
  passMeterCountsOnlyThePass();
  corruptedAnswersAreCounted();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("tmwbench_test: all checks passed\n");
  return 0;
}
