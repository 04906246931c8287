//===- registry_test.cpp - ModelRegistry and axiom-API tests ------------------==//
///
/// The declarative axiom API: registry spec parsing and round-tripping
/// (parse -> print -> parse), arch-name resolution, the exact axioms
/// `+baseline` and `-name` disable, interned axiom names, and the witness cycles returned by
/// `MemoryModel::checkAll` (the events really form a cycle / violation in
/// the failed axiom's term).
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Enumerator.h"
#include "models/ModelRegistry.h"
#include "models/PowerModel.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tmw;

namespace {

TEST(ModelRegistry_, EveryArchNameResolves) {
  for (Arch A : ModelRegistry::allArchs()) {
    // Canonical spec name, the archName() rendering, and upper-casing all
    // resolve to the same architecture.
    EXPECT_EQ(ModelRegistry::parseArch(ModelRegistry::archSpecName(A)), A);
    EXPECT_EQ(ModelRegistry::parseArch(archName(A)), A);

    std::string Error;
    std::unique_ptr<MemoryModel> M =
        ModelRegistry::parse(ModelRegistry::archSpecName(A), &Error);
    ASSERT_TRUE(M) << Error;
    EXPECT_EQ(M->arch(), A);
    EXPECT_EQ(M->axiomMask().normalized(M->axioms().size()),
              AxiomMask::all().normalized(M->axioms().size()));
  }
  EXPECT_EQ(ModelRegistry::parseArch("ARM"), Arch::Armv8);
  EXPECT_EQ(ModelRegistry::parseArch("aarch64"), Arch::Armv8);
  EXPECT_EQ(ModelRegistry::parseArch("C++"), Arch::Cpp);
  EXPECT_EQ(ModelRegistry::parseArch("z80"), std::nullopt);
}

TEST(ModelRegistry_, AblationSpecPerModel) {
  // At least one ablation spec resolves for every model, and it really
  // changes the mask.
  for (Arch A : ModelRegistry::allArchs()) {
    std::unique_ptr<MemoryModel> Default = ModelRegistry::make(A);
    ASSERT_FALSE(Default->axioms().empty());
    std::string Spec = std::string(ModelRegistry::archSpecName(A)) + "/-" +
                       std::string(Default->axioms().front().Name);
    std::string Error;
    std::unique_ptr<MemoryModel> Ablated =
        ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(Ablated) << Spec << ": " << Error;
    EXPECT_EQ(Ablated->arch(), A);
    unsigned N = static_cast<unsigned>(Default->axioms().size());
    EXPECT_NE(Ablated->axiomMask().normalized(N),
              Default->axiomMask().normalized(N))
        << Spec;
    EXPECT_FALSE(Ablated->axiomEnabled(Default->axioms().front().Name));
  }
}

TEST(ModelRegistry_, SpecRoundTrip) {
  const char *Specs[] = {
      "sc",
      "tsc",
      "tsc/-TxnOrder",
      "x86",
      "x86/-tfence/-StrongIsol",
      "x86/+baseline",
      "power/-TxnOrder",
      "power/-thb/-tprop1/-tprop2/-TxnOrder", // §9 atomicity-only model
      "power/+baseline",
      "power/+baseline/+thb",
      "armv8/-TxnOrder", // §6.2 buggy RTL
      "cpp/+baseline",
      "cpp/-Tsw",
  };
  for (const char *Spec : Specs) {
    std::string Error;
    std::unique_ptr<MemoryModel> M = ModelRegistry::parse(Spec, &Error);
    ASSERT_TRUE(M) << Spec << ": " << Error;
    std::string Printed = ModelRegistry::print(*M);
    std::unique_ptr<MemoryModel> Reparsed =
        ModelRegistry::parse(Printed, &Error);
    ASSERT_TRUE(Reparsed) << Printed << ": " << Error;
    EXPECT_EQ(Reparsed->arch(), M->arch()) << Spec;
    unsigned N = static_cast<unsigned>(M->axioms().size());
    EXPECT_EQ(Reparsed->axiomMask().normalized(N),
              M->axiomMask().normalized(N))
        << Spec << " printed as " << Printed;
    // print is canonical: printing the reparse reproduces it.
    EXPECT_EQ(ModelRegistry::print(*Reparsed), Printed) << Spec;
  }
}

TEST(ModelRegistry_, CaseInsensitiveSpecs) {
  std::unique_ptr<MemoryModel> A = ModelRegistry::parse("POWER/-txnorder");
  std::unique_ptr<MemoryModel> B = ModelRegistry::parse("power/-TxnOrder");
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  unsigned N = static_cast<unsigned>(B->axioms().size());
  EXPECT_EQ(A->axiomMask().normalized(N), B->axiomMask().normalized(N));
}

TEST(ModelRegistry_, ErrorsNameTheProblem) {
  std::string Error;
  EXPECT_FALSE(ModelRegistry::parse("z80", &Error));
  EXPECT_NE(Error.find("z80"), std::string::npos);
  EXPECT_NE(Error.find("power"), std::string::npos); // lists alternatives

  EXPECT_FALSE(ModelRegistry::parse("x86/-Bogus", &Error));
  EXPECT_NE(Error.find("Bogus"), std::string::npos);
  EXPECT_NE(Error.find("TxnOrder"), std::string::npos); // lists axioms

  EXPECT_FALSE(ModelRegistry::parse("x86/Order", &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ModelRegistry_, BaselineSpecDisablesExactlyTheTmAxioms) {
  // The paper's TM additions per architecture (Figs. 4-9), spelled out
  // here rather than derived from the tables' Tm flags, so a flag flipped
  // by mistake changes what "+baseline" means and fails this test.
  const std::pair<const char *, std::vector<std::string_view>> TmAxioms[] = {
      {"sc", {}},
      {"tsc", {"TxnOrder"}},
      {"x86", {"tfence", "StrongIsol", "TxnOrder"}},
      {"power",
       {"tfence", "thb", "tprop1", "tprop2", "StrongIsol", "TxnOrder",
        "TxnCancelsRMW"}},
      {"armv8", {"tfence", "StrongIsol", "TxnOrder", "TxnCancelsRMW"}},
      {"cpp", {"Tsw"}},
  };
  for (const auto &[Spec, Tm] : TmAxioms) {
    std::unique_ptr<MemoryModel> Base =
        ModelRegistry::parse(std::string(Spec) + "/+baseline");
    ASSERT_TRUE(Base) << Spec;
    for (const Axiom &Ax : Base->axioms())
      EXPECT_EQ(Base->axiomEnabled(Ax.Name),
                std::find(Tm.begin(), Tm.end(), Ax.Name) == Tm.end())
          << Spec << " " << Ax.Name;
    // Switching the listed axioms off one by name reaches the same mask.
    std::unique_ptr<MemoryModel> Manual = ModelRegistry::parse(Spec);
    for (std::string_view Name : Tm)
      ASSERT_TRUE(Manual->setAxiomEnabled(Name, false)) << Spec << " " << Name;
    EXPECT_EQ(Manual->axiomMask().normalized(Manual->axioms().size()),
              Base->axiomMask().normalized(Base->axioms().size()))
        << Spec;
  }
  // And a single-axiom spec drops exactly that axiom.
  std::unique_ptr<MemoryModel> NoThb = ModelRegistry::parse("power/-thb");
  PowerModel Manual;
  ASSERT_TRUE(Manual.setAxiomEnabled("thb", false));
  EXPECT_EQ(NoThb->axiomMask().normalized(NoThb->axioms().size()),
            Manual.axiomMask().normalized(Manual.axioms().size()));
}

TEST(AxiomApi, FailedAxiomNamesAreInterned) {
  // Store buffering: forbidden outright under SC (po u com cycle).
  Execution X = shapes::storeBuffering();
  std::unique_ptr<MemoryModel> M = ModelRegistry::parse("sc");
  ConsistencyResult R = M->check(X);
  ASSERT_FALSE(R.Consistent);
  // The view points into the model's static axiom table (no lifetime
  // hazard: the table outlives every result).
  int I = findAxiom(M->axioms(), R.FailedAxiom);
  ASSERT_GE(I, 0);
  EXPECT_EQ(R.FailedAxiom.data(), M->axioms()[I].Name.data());
}

TEST(AxiomApi, CheckAllAgreesWithCheckAndWitnessesAreValid) {
  // Over a mixed corpus, checkAll must agree with check verdict-for-
  // verdict, and every failure witness must actually violate the axiom's
  // term: a cycle for acyclicity, a reflexive point for irreflexivity,
  // the non-empty field for emptiness.
  for (Arch VA : {Arch::X86, Arch::Cpp}) {
    Vocabulary V = Vocabulary::forArch(VA);
    ExecutionEnumerator Enum(V, 3);
    unsigned Seen = 0;
    Enum.forEachBase([&](Execution &Base) {
      return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
        for (Arch MA : ModelRegistry::allArchs()) {
          std::unique_ptr<MemoryModel> M = ModelRegistry::make(MA);
          ExecutionAnalysis A(X);
          ConsistencyResult R = M->check(A);
          CheckReport Report = M->checkAll(A);
          EXPECT_EQ(Report.Consistent, R.Consistent) << M->name();
          EXPECT_EQ(Report.FailedAxiom, R.FailedAxiom) << M->name();
          EXPECT_EQ(Report.Verdicts.size(), M->axioms().size());
          for (const AxiomVerdict &Verdict : Report.Verdicts) {
            if (Verdict.Holds) {
              EXPECT_TRUE(Verdict.Witness.empty());
              continue;
            }
            const Axiom &Ax = *Verdict.Ax;
            Relation Term = Ax.Term(A, M->axiomMask());
            EventSet W = Verdict.Witness;
            EXPECT_FALSE(W.empty()) << Ax.Name;
            switch (Ax.Kind) {
            case AxiomKind::Acyclic: {
              // The witness events really form a cycle in the term:
              // restricted to them, the term is cyclic and every witness
              // event lies on a cycle.
              Relation Restricted =
                  Term.restrictDomain(W).restrictRange(W);
              EXPECT_FALSE(Restricted.isAcyclic()) << Ax.Name;
              Relation TC = Restricted.transitiveClosure();
              for (EventId E : W)
                EXPECT_TRUE(TC.contains(E, E))
                    << Ax.Name << " witness event " << E;
              break;
            }
            case AxiomKind::Irreflexive:
              for (EventId E : W)
                EXPECT_TRUE(Term.contains(E, E)) << Ax.Name;
              break;
            case AxiomKind::Empty:
              EXPECT_EQ(W, Term.field()) << Ax.Name;
              EXPECT_FALSE(Term.isEmpty()) << Ax.Name;
              break;
            }
          }
        }
        return ++Seen < 60;
      });
    });
    EXPECT_GT(Seen, 20u);
  }
}

} // namespace
