//===- execution_test.cpp - Execution graphs and derived relations ------------==//

#include "TestGraphs.h"
#include "enumerate/Relaxation.h"
#include "execution/Builder.h"
#include "execution/ExecutionAnalysis.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

TEST(BuilderTest, PoFollowsInsertionOrder) {
  ExecutionBuilder B;
  EventId A = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId C = B.read(0, 0);
  EventId D = B.read(1, 0);
  Execution X = B.build();
  EXPECT_TRUE(X.Po.contains(A, C));
  EXPECT_FALSE(X.Po.contains(C, A));
  EXPECT_FALSE(X.Po.contains(A, D));
  EXPECT_EQ(X.numThreads(), 2u);
}

TEST(BuilderTest, CoCompletedInIdOrder) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  Execution X = B.build();
  EXPECT_TRUE(X.Co.contains(W1, W2));
}

TEST(BuilderTest, CoRespectsUserEdges) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  B.co(W2, W1);
  Execution X = B.build();
  EXPECT_TRUE(X.Co.contains(W2, W1));
  EXPECT_FALSE(X.Co.contains(W1, W2));
}

TEST(BuilderTest, CtrlIsForwardClosed) {
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  EventId W1 = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 1, MemOrder::NonAtomic, 2);
  B.ctrl(R, W1);
  Execution X = B.build();
  EXPECT_TRUE(X.Ctrl.contains(R, W1));
  EXPECT_TRUE(X.Ctrl.contains(R, W2));
}

TEST(DerivedTest, FromReadForInitialReads) {
  // A read with no rf source is fr-before every write to its location.
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  EventId W1 = B.write(1, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  Execution X = B.build();
  Relation Fr = ExecutionAnalysis(X).fr();
  EXPECT_TRUE(Fr.contains(R, W1));
  EXPECT_TRUE(Fr.contains(R, W2));
}

TEST(DerivedTest, FromReadSkipsCoEarlierWrites) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.rf(W1, R);
  Execution X = B.build();
  Relation Fr = ExecutionAnalysis(X).fr();
  // R observed W1, so it is fr-before the co-later W2 but not W1 itself.
  EXPECT_TRUE(Fr.contains(R, W2));
  EXPECT_FALSE(Fr.contains(R, W1));
}

TEST(DerivedTest, ExternalInternalSplit) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R0 = B.read(0, 0);
  EventId R1 = B.read(1, 0);
  B.rf(W, R0);
  Execution X = B.build();
  EXPECT_TRUE(ExecutionAnalysis(X).rfi().contains(W, R0));
  EXPECT_FALSE(ExecutionAnalysis(X).rfe().contains(W, R0));
  (void)R1;
}

TEST(DerivedTest, FenceRelation) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::MFence);
  EventId R = B.read(0, 1);
  EventId R2 = B.read(0, 1);
  Execution X = B.build();
  Relation M = ExecutionAnalysis(X).fenceRel(FenceKind::MFence);
  EXPECT_TRUE(M.contains(W, R));
  EXPECT_TRUE(M.contains(W, R2));
  EXPECT_FALSE(M.contains(R, R2)); // both after the fence
  EXPECT_TRUE(ExecutionAnalysis(X).fenceRel(FenceKind::Sync).isEmpty());
}

TEST(DerivedTest, StxnIsPartialEquivalence) {
  ExecutionBuilder B;
  EventId A = B.read(0, 0);
  EventId C = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId D = B.read(0, 0);
  B.txn({A, C});
  Execution X = B.build();
  Relation S = ExecutionAnalysis(X).stxn();
  EXPECT_TRUE(S.contains(A, A));
  EXPECT_TRUE(S.contains(A, C));
  EXPECT_TRUE(S.contains(C, A));
  EXPECT_FALSE(S.contains(D, D));
  // Symmetric and transitive by construction.
  EXPECT_EQ(S, S.inverse());
  EXPECT_TRUE(S.compose(S).subsetOf(S));
}

TEST(DerivedTest, TfenceMarksTransactionBoundaries) {
  ExecutionBuilder B;
  EventId A = B.read(0, 0);  // before the transaction
  EventId C = B.write(0, 0, MemOrder::NonAtomic, 1); // inside
  EventId D = B.read(0, 1);  // inside
  EventId E = B.write(0, 1, MemOrder::NonAtomic, 1); // after
  B.txn({C, D});
  Execution X = B.build();
  Relation T = ExecutionAnalysis(X).tfence();
  EXPECT_TRUE(T.contains(A, C));  // entering
  EXPECT_TRUE(T.contains(A, D));  // entering
  EXPECT_TRUE(T.contains(C, E));  // exiting
  EXPECT_TRUE(T.contains(D, E));  // exiting
  EXPECT_FALSE(T.contains(C, D)); // within
  // An edge skipping over the whole transaction is not itself a boundary
  // edge, but it is covered by the composition of entering and exiting.
  EXPECT_FALSE(T.contains(A, E));
  EXPECT_TRUE(T.transitiveClosure().contains(A, E));
}

TEST(DerivedTest, EcomExtendsComWithCoRf) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(2, 0);
  B.co(W1, W2);
  B.rf(W2, R);
  Execution X = B.build();
  EXPECT_FALSE(ExecutionAnalysis(X).com().contains(W1, R));
  EXPECT_TRUE(ExecutionAnalysis(X).ecom().contains(W1, R)); // co ; rf
}

TEST(DerivedTest, CnfEqualsEcomUnionInverse) {
  // §7.2: conflicting events are related by ecom one way or the other.
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(1, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(2, 0);
  B.rf(W1, R);
  Execution X = B.build();
  Relation Ecom = ExecutionAnalysis(X).ecom();
  Relation Both = Ecom | Ecom.inverse();
  // All conflicting pairs (write-write, read-write) are covered.
  EXPECT_TRUE(Both.contains(W1, W2) || Both.contains(W2, W1));
  EXPECT_TRUE(Both.contains(R, W2) || Both.contains(W2, R));
}

TEST(WellFormedTest, AcceptsBuilderOutput) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B.read(1, 0);
  B.rf(W, R);
  Execution X = B.build();
  EXPECT_EQ(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsRfFromRead) {
  ExecutionBuilder B;
  EventId R1 = B.read(0, 0);
  EventId R2 = B.read(1, 0);
  B.write(1, 0, MemOrder::NonAtomic, 1);
  B.rf(R1, R2);
  Execution X = B.buildUnchecked();
  EXPECT_NE(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsRfAcrossLocations) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B.read(1, 1);
  B.write(1, 1, MemOrder::NonAtomic, 1);
  B.rf(W, R);
  Execution X = B.buildUnchecked();
  EXPECT_NE(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsTwoRfSources) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W2 = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId R = B.read(1, 0);
  B.rf(W1, R);
  B.rf(W2, R);
  Execution X = B.buildUnchecked();
  EXPECT_NE(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsNonContiguousTransaction) {
  ExecutionBuilder B;
  EventId A = B.read(0, 0);
  EventId C = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId D = B.read(0, 0);
  B.txn({A, D}); // skips C
  (void)C;
  Execution X = B.buildUnchecked();
  EXPECT_STREQ(X.checkWellFormed(), "transaction is not contiguous in po");
}

TEST(WellFormedTest, RejectsCrossThreadTransaction) {
  ExecutionBuilder B;
  EventId A = B.read(0, 0);
  EventId C = B.write(1, 0, MemOrder::NonAtomic, 1);
  B.txn({A, C});
  Execution X = B.buildUnchecked();
  EXPECT_STREQ(X.checkWellFormed(), "transaction spans threads");
}

TEST(WellFormedTest, RejectsRmwAcrossLocations) {
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  EventId W = B.write(0, 1, MemOrder::NonAtomic, 1);
  B.write(1, 0, MemOrder::NonAtomic, 1); // make loc 0 shared
  B.read(1, 1);                          // make loc 1 shared
  B.rmw(R, W);
  Execution X = B.buildUnchecked();
  EXPECT_NE(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsRmwPairedTwice) {
  // Two reads paired with one write, then one read with two writes.
  ExecutionBuilder B;
  EventId R0 = B.read(0, 0);
  EventId R1 = B.read(0, 0);
  EventId W0 = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId W1 = B.write(0, 0, MemOrder::NonAtomic, 2);
  B.rmw(R0, W0);
  B.rmw(R1, W0);
  Execution X = B.buildUnchecked();
  EXPECT_STREQ(X.checkWellFormed(), "rmw write paired with two reads");
  X.Rmw.erase(R1, W0);
  X.Rmw.insert(R0, W1);
  EXPECT_STREQ(X.checkWellFormed(), "rmw read paired with two writes");
  X.Rmw.erase(R0, W0);
  EXPECT_EQ(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, RejectsMalformedCriticalRegion) {
  ExecutionBuilder B;
  EventId L = B.lockCall(0, EventKind::Lock);
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.read(1, 0);
  // Region never closed by an unlock.
  B.cr({L, W});
  Execution X = B.buildUnchecked();
  EXPECT_NE(X.checkWellFormed(), nullptr);
}

TEST(WellFormedTest, AcceptsLockElisionShape) {
  ExecutionBuilder B;
  EventId L = B.lockCall(0, EventKind::Lock);
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId U = B.lockCall(0, EventKind::Unlock);
  EventId Lt = B.lockCall(1, EventKind::TxLock);
  EventId R = B.read(1, 0);
  EventId Ut = B.lockCall(1, EventKind::TxUnlock);
  B.cr({L, W, U});
  B.cr({Lt, R, Ut});
  Execution X = B.build();
  EXPECT_EQ(X.checkWellFormed(), nullptr);
  EXPECT_EQ(ExecutionAnalysis(X).scr().numPairs(), 9u + 9u);
  EXPECT_EQ(ExecutionAnalysis(X).scrt().numPairs(), 9u);
  // Only the TxLock-opened region is elided.
  EXPECT_TRUE(ExecutionAnalysis(X).scrt().contains(Lt, R));
  EXPECT_FALSE(ExecutionAnalysis(X).scrt().contains(L, W));
}

TEST(ExecutionTest, DumpMentionsStructure) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B.read(1, 0);
  B.rf(W, R);
  B.txn({R});
  Execution X = B.build();
  std::string D = X.dump();
  EXPECT_NE(D.find("W x"), std::string::npos);
  EXPECT_NE(D.find("txn 0"), std::string::npos);
  EXPECT_NE(D.find("rf:"), std::string::npos);
}

TEST(ExecutionTest, HashDistinguishesRelations) {
  ExecutionBuilder B1;
  EventId W1 = B1.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R1 = B1.read(1, 0);
  B1.rf(W1, R1);

  ExecutionBuilder B2;
  B2.write(0, 0, MemOrder::NonAtomic, 1);
  B2.read(1, 0); // reads the initial value instead

  EXPECT_NE(B1.build().hash(), B2.build().hash());
  EXPECT_FALSE(B1.build() == B2.build());
  EXPECT_TRUE(B1.build() == B1.build());
}

//===----------------------------------------------------------------------===
// Reuse: an execution object that once held 64 dense events must behave
// exactly like a freshly built one after clear() or removeEvent() shrink it.
//===----------------------------------------------------------------------===

/// Copies \p From into \p To, which has been cleared to From's size, one
/// event and one edge at a time.
void refill(Execution &To, const Execution &From) {
  for (EventId E = 0; E < From.size(); ++E) {
    To.event(E) = From.event(E);
    To.Txn[E] = From.Txn[E];
    To.Cr[E] = From.Cr[E];
  }
  To.AtomicTxns = From.AtomicTxns;
  Relation Execution::*Rels[] = {&Execution::Po,   &Execution::Rf,
                                 &Execution::Co,   &Execution::Addr,
                                 &Execution::Data, &Execution::Ctrl,
                                 &Execution::Rmw};
  for (Relation Execution::*Rel : Rels)
    (From.*Rel).forEachPair(
        [&](EventId A, EventId B) { (To.*Rel).insert(A, B); });
}

TEST(ExecutionReuseTest, ClearFromSixtyFourEventsMatchesFresh) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId R = B.read(1, 0);
  EventId W2 = B.write(1, 1, MemOrder::NonAtomic, 1);
  B.rf(W, R);
  B.data(R, W2);
  B.txn({R, W2}, /*Atomic=*/true);
  const Execution Want = B.build();

  Execution Reused = shapes::denseSixtyFour();
  Reused.clear(3);
  const Execution Empty(3);
  EXPECT_TRUE(Reused == Empty);
  EXPECT_EQ(Reused.hash(), Empty.hash());

  refill(Reused, Want);
  EXPECT_TRUE(Reused == Want);
  EXPECT_EQ(Reused.hash(), Want.hash());
  const ExecutionAnalysis Got(Reused), Ref(Want);
  EXPECT_EQ(Got.fr(), Ref.fr());
  EXPECT_EQ(Got.com(), Ref.com());
  EXPECT_EQ(Got.poLoc(), Ref.poLoc());
  EXPECT_EQ(Got.stxn(), Ref.stxn());
  EXPECT_EQ(Got.stxnAtomic(), Ref.stxnAtomic());
  EXPECT_EQ(Reused.checkWellFormed(), Want.checkWellFormed());
}

TEST(ExecutionReuseTest, RemoveEventIntoLargerExecutionMatchesFresh) {
  const Execution Shapes[] = {shapes::storeBuffering(),
                              shapes::messagePassingDep(true),
                              shapes::powerWrcTxnObserved(),
                              shapes::lockElisionAbstract()};
  for (const Execution &X : Shapes)
    for (EventId E = 0; E < X.size(); ++E) {
      Execution Fresh;
      removeEvent(X, E, Fresh);
      Execution Reused = shapes::denseSixtyFour();
      removeEvent(X, E, Reused);
      EXPECT_TRUE(Reused == Fresh) << X.dump() << "removed " << E;
      EXPECT_EQ(Reused.hash(), Fresh.hash()) << X.dump() << "removed " << E;
    }
}

} // namespace
