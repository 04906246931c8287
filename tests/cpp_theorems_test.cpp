//===- cpp_theorems_test.cpp - Bounded checks of Theorems 7.2 and 7.3 ---------==//
///
/// The paper proves these in Isabelle; here they are model-checked over
/// the exhaustively enumerated C++ executions up to a bound (the same
/// methodology the paper uses for its other metatheory) plus directed
/// instances.
///
//===----------------------------------------------------------------------===//

#include "enumerate/Enumerator.h"

#include "execution/Builder.h"
#include "models/CppModel.h"
#include "models/ScModel.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// Sweep all C++ executions (with all transaction placements) up to
/// \p NumEvents, calling \p Check on each well-formed one.
template <typename Fn> void sweepCpp(unsigned NumEvents, Fn &&Check) {
  Vocabulary V = Vocabulary::forArch(Arch::Cpp);
  ExecutionEnumerator Enum(V, NumEvents);
  Enum.forEachBase([&](Execution &Base) {
    Check(Base);
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      Check(X);
      return true;
    });
  });
}

class TheoremSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TheoremSweep, Theorem72StrongIsolationForAtomicTransactions) {
  // If NoRace holds and atomic transactions contain no atomic operations,
  // then acyclic(stronglift(com, stxnat)).
  CppModel M;
  uint64_t Considered = 0;
  sweepCpp(GetParam(), [&](const Execution &X) {
    if (!M.consistent(X) || !M.raceFree(X))
      return;
    ExecutionAnalysis A(X);
    if (!(A.atomicTransactional() & A.atomics()).empty())
      return; // atomic transactions must contain no atomics
    ++Considered;
    EXPECT_TRUE(holdsStrongIsolationAtomic(X)) << X.dump();
  });
  EXPECT_GT(Considered, 0u);
}

TEST_P(TheoremSweep, Theorem73TransactionalScDrf) {
  // Race-free + only atomic transactions + only SC atomics => TSC.
  CppModel M;
  TscModel Tsc;
  uint64_t Considered = 0;
  sweepCpp(GetParam(), [&](const Execution &X) {
    if (!M.consistent(X) || !M.raceFree(X))
      return;
    // No relaxed transactions: stxn = stxnat.
    ExecutionAnalysis A(X);
    if (!(A.stxn() == A.stxnAtomic()))
      return;
    // No non-SC atomics: Ato = SC.
    if (!(A.atomics() - A.seqCst()).empty())
      return;
    ++Considered;
    EXPECT_TRUE(Tsc.consistent(X)) << X.dump();
  });
  EXPECT_GT(Considered, 0u);
}

TEST_P(TheoremSweep, WeakIsolationFollowsFromConsistency) {
  // §7.2: the WeakIsol axiom follows from the other C++ axioms.
  CppModel M;
  sweepCpp(GetParam(), [&](const Execution &X) {
    if (M.consistent(X)) {
      EXPECT_TRUE(holdsWeakIsolation(X)) << X.dump();
    }
  });
}

TEST_P(TheoremSweep, CnfEqualsEcomUnionInverse) {
  // §7.2 [lemma]: cnf = ecom u ecom^-1 on well-formed executions.
  CppModel M;
  sweepCpp(GetParam(), [&](const Execution &X) {
    Relation Ecom = ExecutionAnalysis(X).ecom();
    Relation Sym = Ecom | Ecom.inverse();
    Relation Cnf = M.conflicts(X);
    // Every conflicting pair is ecom-related one way or the other.
    EXPECT_TRUE(Cnf.subsetOf(Sym)) << X.dump();
  });
}

TEST_P(TheoremSweep, SeqCstImpliesScForTransactionFree) {
  // Sanity: executions whose events are all SC atomics and consistent in
  // C++ are SC-consistent (the classic SC-DRF guarantee), checked on
  // transaction-free executions.
  CppModel M;
  ScModel Sc;
  sweepCpp(GetParam(), [&](const Execution &X) {
    if (!X.transactional().empty())
      return;
    if (!(X.universe() - ExecutionAnalysis(X).seqCst()).empty())
      return;
    if (M.consistent(X)) {
      EXPECT_TRUE(Sc.consistent(X)) << X.dump();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Bounds, TheoremSweep, ::testing::Values(2u, 3u));

TEST(TheoremDirected, RacyProgramEscapesTheorem72) {
  // Without NoRace the conclusion fails: Fig. 3(d) with a non-atomic
  // external read and an atomic transaction.
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.co(W1, W2);
  B.rf(W1, R);
  B.txn({W1, W2}, /*Atomic=*/true);
  Execution X = B.build();
  CppModel M;
  ASSERT_TRUE(M.consistent(X));
  EXPECT_FALSE(M.raceFree(X)); // racy...
  EXPECT_FALSE(holdsStrongIsolationAtomic(X)); // ...and not isolated
}

TEST(TheoremDirected, RelaxedTransactionEscapesTheorem73) {
  // A consistent race-free execution with relaxed transactions need not
  // be TSC: two relaxed-atomic readers inside synchronized{} blocks can
  // observe SB.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::Relaxed, 1);
  EventId Ry = B.read(0, 1, MemOrder::Relaxed);
  EventId Wy = B.write(1, 1, MemOrder::Relaxed, 1);
  EventId Rx = B.read(1, 0, MemOrder::Relaxed);
  (void)Ry;
  (void)Rx;
  B.txn({Wx});
  B.txn({Wy});
  Execution X = B.build();
  CppModel M;
  // Consistent in C++ (the transactions do not conflict)...
  ASSERT_TRUE(M.consistent(X));
  ASSERT_TRUE(M.raceFree(X));
  // ...but not TSC (and indeed not SC).
  TscModel Tsc;
  EXPECT_FALSE(Tsc.consistent(X));
}

TEST(TheoremDirected, AtomicTransactionsRestoreTsc) {
  // The same shape with non-atomic accesses in atomic{} transactions is
  // forbidden by C++ already (tsw orders the conflicting transactions),
  // illustrating Theorem 7.3 from the other side.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(0, 1, MemOrder::NonAtomic);
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0, MemOrder::NonAtomic);
  B.txn({Wx, Ry}, /*Atomic=*/true);
  B.txn({Wy, Rx}, /*Atomic=*/true);
  Execution X = B.build();
  CppModel M;
  EXPECT_FALSE(M.consistent(X));
}

} // namespace
