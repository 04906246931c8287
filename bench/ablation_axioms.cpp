//===- ablation_axioms.cpp - Per-axiom ablation study ---------------------------==//
///
/// The design-choice ablations called out in DESIGN.md, generated from the
/// models themselves: for *every* named axiom of *every* registered model
/// (`MemoryModel::axioms()` — nothing is hardcoded here), synthesise the
/// model's Forbid suite, drop the axiom via a registry spec
/// ("power/-TxnOrder", ...), and report how many Forbid tests become
/// allowed — i.e. how much of the conformance suite each axiom carries.
/// Includes the §9 comparison (Dongol-style atomicity-only models) and the
/// §6.2 buggy-RTL configuration as ordinary rows of the sweep.
///
/// Knobs: `--jobs N` shards the Forbid synthesis across N threads;
/// `--smoke` shrinks budgets for CI (a seconds-scale run that still
/// exercises every model and axiom); `TMW_BENCH_BUDGET_SECONDS`,
/// `TMW_BENCH_MAX_EVENTS` as everywhere.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "models/ModelRegistry.h"
#include "synth/Conformance.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace tmw;

int main(int argc, char **argv) {
  bench::header("Ablations: what each axiom of each model carries",
                "DESIGN.md ablation index; §5-§6, §9, §6.2");
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  double Budget = bench::budgetSeconds(Smoke ? 2.0 : 60.0);
  unsigned MaxE = bench::maxEvents(Smoke ? 3 : 4);
  unsigned Jobs = bench::jobs(argc, argv);

  //===------------------------------------------------------------------===
  // Registry-driven sweep: every single-axiom ablation of every model,
  // generated from axioms().
  //===------------------------------------------------------------------===
  for (Arch A : ModelRegistry::allArchs()) {
    std::unique_ptr<MemoryModel> Tm = ModelRegistry::make(A);
    AxiomList Axioms = Tm->axioms();
    unsigned NumAxioms = static_cast<unsigned>(Axioms.size());
    std::string ArchSpec = ModelRegistry::archSpecName(A);

    // The baseline (all TM axioms off) prunes the Forbid search; models
    // without TM axioms (SC) have no Forbid suite to synthesise.
    std::unique_ptr<MemoryModel> Baseline =
        ModelRegistry::parse(ArchSpec + "/+baseline");
    bool HasTm =
        baselineMask(Axioms).normalized(NumAxioms) !=
        AxiomMask::all().normalized(NumAxioms);

    // Power/ARMv8/C++ checks are an order of magnitude heavier; cap their
    // exhaustive sweep one event earlier, like the paper's preliminary
    // mode.
    unsigned ArchMaxE =
        (A == Arch::X86 || A == Arch::TSC) ? MaxE : std::min(MaxE, 3u);

    std::vector<Execution> Forbid;
    if (HasTm)
      for (unsigned N = 2; N <= ArchMaxE; ++N) {
        ForbidSuite S =
            synthesizeForbid(*Tm, *Baseline, Vocabulary::forArch(A), N,
                             Budget, Jobs);
        Forbid.insert(Forbid.end(), S.Tests.begin(), S.Tests.end());
      }

    std::printf("\n%s: %u axioms, %zu Forbid tests (|E| <= %u, %u job%s)\n",
                Tm->name(), NumAxioms, Forbid.size(), ArchMaxE, Jobs,
                Jobs == 1 ? "" : "s");
    std::printf("  %-28s %16s\n", "dropped axiom", "tests now allowed");
    for (const Axiom &Ax : Axioms) {
      std::string Spec = ArchSpec + "/-" + std::string(Ax.Name);
      std::unique_ptr<MemoryModel> Ablated = ModelRegistry::parse(Spec);
      unsigned NowAllowed = 0;
      for (const Execution &X : Forbid)
        NowAllowed += Ablated->consistent(X);
      std::printf("  %-28s %10u / %zu\n", Spec.c_str(), NowAllowed,
                  Forbid.size());
    }
  }

  std::printf("\nReading: each row drops one axiom from its model and "
              "re-checks the model's\nForbid suite; 'tests now allowed' > "
              "0 means the axiom is load-bearing (§6.2's\nRTL bug is the "
              "armv8/-TxnOrder row; §9's atomicity-only comparison is the "
              "thb/\ntprop rows on Power).\n");
  return 0;
}
