//===- corpus_matrix.cpp - The corpus verdict matrix ----------------------------==//
///
/// Prints the full verdict matrix of the litmus corpus — for every test,
/// whether the weak outcome is reachable under SC, TSC, x86+TM, Power+TM,
/// ARMv8+TM and the simulated POWER8 (now just the registry spec
/// "power8"), plus the operational TSX machine. The matrix comes from one
/// batch of the query engine, which enumerates each program's candidates
/// once and fans them out to all requested models.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "hw/TsoMachine.h"
#include "litmus/Library.h"
#include "query/QueryEngine.h"

#include <vector>

using namespace tmw;

namespace {

std::vector<CheckRequest>
makeRequests(const std::vector<CorpusEntry> &Corpus,
             const std::vector<const char *> &Specs) {
  std::vector<CheckRequest> Requests;
  for (const CorpusEntry &E : Corpus) {
    CheckRequest R;
    R.Corpus = E.Name;
    for (const char *S : Specs)
      R.ModelSpecs.push_back(S);
    Requests.push_back(std::move(R));
  }
  return Requests;
}

} // namespace

int main(int argc, char **argv) {
  bench::header("Litmus-corpus verdict matrix (batch query engine)",
                "the executions of §1, §3, §5.2, §5.3 in one table");
  unsigned Jobs = bench::jobs(argc, argv, 4);
  std::vector<CorpusEntry> Corpus = standardCorpus();

  // The displayed matrix: five architecture columns plus the POWER8
  // hardware substitute, which the wrapper-spec registry makes just
  // another column.
  const std::vector<const char *> MatrixSpecs = {"sc",    "tsc",   "x86",
                                                 "power", "armv8", "power8"};
  std::vector<CheckResponse> Matrix =
      QueryEngine({Jobs}).runAll(makeRequests(Corpus, MatrixSpecs));

  std::printf("%-26s %4s %4s %6s %6s %6s %6s | %7s\n", "test", "SC", "TSC",
              "x86", "Power", "ARMv8", "P8-hw", "TSX-hw");
  for (size_t E = 0; E < Corpus.size(); ++E) {
    const CheckResponse &R = Matrix[E];
    if (!R) {
      std::fprintf(stderr, "error: %s: %s\n", Corpus[E].Name.c_str(),
                   R.Error.c_str());
      return 1;
    }
    TsoMachine M(Corpus[E].Prog);
    std::printf("%-26s %4s %4s %6s %6s %6s %6s | %7s\n",
                R.Name.c_str(), bench::yesNo(R.Verdicts[0].Allowed),
                bench::yesNo(R.Verdicts[1].Allowed),
                bench::yesNo(R.Verdicts[2].Allowed),
                bench::yesNo(R.Verdicts[3].Allowed),
                bench::yesNo(R.Verdicts[4].Allowed),
                R.Verdicts[5].Allowed ? "seen" : "-",
                M.postconditionObservable() ? "seen" : "-");
  }
  std::printf("\n'yes' = the weak outcome is allowed by the model; hardware "
              "columns report\nwhether the simulated machines exhibit it. "
              "Note Example1.1: allowed under\nARMv8+TM (the paper's "
              "headline), forbidden on x86.\n");
  return 0;
}
