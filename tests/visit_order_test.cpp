//===- visit_order_test.cpp - Pinned enumeration visit order ------------------==//
///
/// The rf/co completion order is observable: `first_forbidden` in the
/// canonical verdict JSON is a candidate index, and the counterexamples the
/// Table 2 / Fig. 10 benches print are the first witnesses the searches
/// reach. Counts and the JSON goldens only pin the order indirectly, so
/// each test here digests the in-order sequence of `Execution::hash()` of
/// every visited execution and compares it with a recorded constant. A
/// change that permutes the visit order (even one that keeps every count)
/// fails here. The ⊏-children order is observable the same way: the
/// minimality check and counterexample shrinking act on the first child
/// they reach, and the Allow suites list children in this order.
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "enumerate/Enumerator.h"
#include "enumerate/Relaxation.h"
#include "litmus/Library.h"
#include "metatheory/LockElision.h"
#include "models/Armv8Model.h"
#include "models/X86Model.h"
#include "synth/Conformance.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// Order-sensitive digest of a sequence of execution hashes.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  uint64_t Count = 0;
  void add(const Execution &X) {
    H = (H ^ X.hash()) * 0x100000001b3ull;
    ++Count;
  }
};

Digest baseDigest(Arch A, unsigned NumEvents) {
  Digest D;
  ExecutionEnumerator(Vocabulary::forArch(A), NumEvents)
      .forEachBase([&D](Execution &X) {
        D.add(X);
        return true;
      });
  return D;
}

TEST(VisitOrderTest, CorpusCandidates) {
  Digest D;
  for (const CorpusEntry &E : sharedCorpus())
    forEachCandidate(E.Prog, [&D](const Candidate &C) {
      D.add(C.X);
      return true;
    });
  EXPECT_EQ(D.Count, 403u);
  EXPECT_EQ(D.H, 11240817792820326440ull);
}

TEST(VisitOrderTest, X86BasesAtFourEvents) {
  Digest D = baseDigest(Arch::X86, 4);
  EXPECT_EQ(D.Count, 2658u);
  EXPECT_EQ(D.H, 7003526504116478187ull);
}

TEST(VisitOrderTest, PowerBasesAtThreeEvents) {
  Digest D = baseDigest(Arch::Power, 3);
  EXPECT_EQ(D.Count, 1692u);
  EXPECT_EQ(D.H, 17032542495930444970ull);
}

TEST(VisitOrderTest, Fig10LockVarCompletions) {
  Digest D;
  Execution Skeleton =
      elideLocks(shapes::lockElisionAbstract(), Arch::Armv8, false);
  for (const Execution &Y : lockVarCompletions(Skeleton))
    D.add(Y);
  EXPECT_EQ(D.Count, 8u);
  EXPECT_EQ(D.H, 9944496826946928069ull);
}

TEST(VisitOrderTest, RelaxationChildren) {
  // The children of the x86 |E| = 5 Forbid suite (the synthesis pass the
  // benchmark times), and of every corpus candidate under each vocabulary
  // with downgrades or atomic transactions.
  X86Model Tm;
  X86Model Baseline;
  Baseline.setAxiomMask(baselineMask(Baseline.axioms()));
  Vocabulary X86 = Vocabulary::forArch(Arch::X86);
  ForbidSuite S = synthesizeForbid(Tm, Baseline, X86, 5, 1e18, 4);
  ASSERT_TRUE(S.Complete);
  Digest Suite;
  for (const Execution &X : S.Tests)
    for (const Execution &Y : relaxOneStep(X, X86))
      Suite.add(Y);
  EXPECT_EQ(S.Tests.size(), 60u);
  EXPECT_EQ(Suite.Count, 444u);
  EXPECT_EQ(Suite.H, 16886439516947129923ull);

  Digest Corpus;
  for (Arch A : {Arch::X86, Arch::Power, Arch::Armv8, Arch::Cpp}) {
    Vocabulary V = Vocabulary::forArch(A);
    for (const CorpusEntry &E : sharedCorpus())
      forEachCandidate(E.Prog, [&](const Candidate &C) {
        for (const Execution &Y : relaxOneStep(C.X, V))
          Corpus.add(Y);
        return true;
      });
  }
  EXPECT_EQ(Corpus.Count, 13412u);
  EXPECT_EQ(Corpus.H, 14635993490005907381ull);
}

TEST(VisitOrderTest, Armv8LockElisionSearch) {
  Armv8Model Tm;
  Armv8Model Spec;
  Spec.setAxiomMask(baselineMask(Spec.axioms()));
  ElisionResult R =
      checkLockElision(Tm, Spec, Arch::Armv8, false, 7, 300.0);
  ASSERT_TRUE(R.CounterexampleFound);
  EXPECT_EQ(R.AbstractChecked, 214u);
  EXPECT_EQ(R.ConcreteChecked, 41u);
  EXPECT_EQ(R.Abstract.hash(), 13437888983129591727ull);
  EXPECT_EQ(R.Concrete.hash(), 1461220105254202064ull);
}

} // namespace
