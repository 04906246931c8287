//===- quickstart.cpp - First steps with the tmw library ------------------------==//
///
/// The whole toolflow in one request/response round-trip (query/Query.h):
/// describe a litmus test in the DSL, name the models to check it against
/// — any registry spec, including ablations ("power/-TxnOrder") and
/// hardware substitutes ("power8") — and let the `QueryEngine` enumerate
/// the candidates once, check every model over the shared analysis, and
/// explain each forbidding model's failed axioms. The same API scales to
/// corpus-sized batches on the work-stealing pool (`BatchOptions::Jobs`)
/// with deterministic, JSON-serialisable verdicts; see examples/litmus_tool
/// for the full CLI, bench/corpus_matrix for the corpus verdict matrix and
/// perfbench/ for batch throughput.
///
//===----------------------------------------------------------------------===//

#include "query/QueryEngine.h"
#include "query/QueryIO.h"

#include <cstdio>

using namespace tmw;

int main() {
  // Message passing with the writer inside a transaction (Fig. 2's shape):
  // do the implicit fences at the transaction boundary forbid the stale
  // read of x?
  CheckRequest R;
  R.Source = "name MP+txn+addr\n"
             "thread 0\n"
             "  txbegin\n"
             "  store x 1\n"
             "  store y 1\n"
             "  txend\n"
             "thread 1\n"
             "  load y\n"
             "  load x addr:r0\n"
             "post reg 1 r0 1\n"
             "post reg 1 r1 0\n";
  // Any registry spec works: architectures, ablations, hardware
  // substitutes. The non-transactional Power baseline allows the stale
  // read; the transactional models forbid it and say which axiom bites.
  R.ModelSpecs = {"sc", "x86", "power/+baseline", "power", "power8"};
  R.Explain = true;

  CheckResponse Resp = QueryEngine().evaluate(R);
  std::printf("%s: %llu candidates\n", Resp.Name.c_str(),
              static_cast<unsigned long long>(Resp.Candidates));
  for (const ModelVerdict &V : Resp.Verdicts) {
    std::printf("  %-16s %s", V.Spec.c_str(),
                V.Allowed ? "allows the stale read" : "forbids it");
    for (const FailedAxiomInfo &F : V.FailedAxioms)
      std::printf("  [violates %s]", F.Axiom.c_str());
    std::printf("\n");
  }

  // The response serialises to canonical JSON — the wire form CI archives
  // per commit (litmus_tool --corpus --json).
  std::printf("\nAs JSON:\n%s\n", toJson(Resp).c_str());
  return 0;
}
