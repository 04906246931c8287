//===- TestGraphs.h - Classic litmus shapes for tests -----------*- C++ -*-==//
///
/// \file
/// Named constructors for the classic litmus-test executions used
/// throughout the test suite and benches: SB, MP, LB, WRC, IRIW, and the
/// paper's transactional variants (§5.2, Example 1.1, Appendix B, §8.1).
/// Locations are numbered x=0, y=1, m (the lock variable) as documented
/// per shape.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_TESTS_TESTGRAPHS_H
#define TMW_TESTS_TESTGRAPHS_H

#include "execution/Builder.h"

namespace tmw::shapes {

/// Store buffering: T0: Wx=1; Ry(0).  T1: Wy=1; Rx(0).
/// The classic TSO-observable shape; forbidden under SC.
inline Execution storeBuffering(MemOrder MO = MemOrder::NonAtomic) {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MO, 1);
  B.read(0, 1, MO);
  EventId Wy = B.write(1, 1, MO, 1);
  B.read(1, 0, MO);
  (void)Wx;
  (void)Wy;
  return B.build(); // both reads observe the initial values
}

/// Message passing with the stale read: T0: Wx=1; Wy=1.  T1: Ry(1); Rx(0).
inline Execution messagePassing(MemOrder WriteMO = MemOrder::NonAtomic,
                                MemOrder ReadMO = MemOrder::NonAtomic) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, WriteMO, 1);
  EventId Ry = B.read(1, 1, ReadMO);
  B.read(1, 0);
  B.rf(Wy, Ry);
  return B.build();
}

/// Message passing with an address dependency on the reader side.
inline Execution messagePassingDep(bool WithFence) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  if (WithFence)
    B.fence(0, FenceKind::LwSync);
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(1, 1);
  EventId Rx = B.read(1, 0);
  B.rf(Wy, Ry);
  B.addr(Ry, Rx);
  return B.build();
}

/// Load buffering: T0: Rx(1); Wy=1.  T1: Ry(1); Wx=1.
inline Execution loadBuffering(bool WithDataDeps) {
  ExecutionBuilder B;
  EventId Rx = B.read(0, 0);
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(1, 1);
  EventId Wx = B.write(1, 0, MemOrder::NonAtomic, 1);
  B.rf(Wy, Ry);
  B.rf(Wx, Rx);
  if (WithDataDeps) {
    B.data(Rx, Wy);
    B.data(Ry, Wx);
  }
  return B.build();
}

/// IRIW: two writers, two readers observing them in opposite orders.
inline Execution iriw(MemOrder ReadMO = MemOrder::NonAtomic,
                      bool ReaderDeps = false) {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1);
  EventId R2x = B.read(2, 0, ReadMO);
  EventId R2y = B.read(2, 1, ReadMO);
  EventId R3y = B.read(3, 1, ReadMO);
  EventId R3x = B.read(3, 0, ReadMO);
  B.rf(Wx, R2x);
  B.rf(Wy, R3y);
  if (ReaderDeps) {
    B.addr(R2x, R2y);
    B.addr(R3y, R3x);
  }
  return B.build();
}

/// §5.2 execution (1): WRC where the middle thread's read+write form a
/// transaction; forbidden by the Power integrated memory barrier (tprop1).
inline Execution powerWrcTxnObserved() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1); // a
  EventId Rx = B.read(1, 0);                          // b
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1); // c
  EventId Ry = B.read(2, 1);                          // d
  EventId Rx2 = B.read(2, 0);                         // e: reads initial x
  B.rf(Wx, Rx);
  B.rf(Wy, Ry);
  B.addr(Ry, Rx2);
  B.txn({Rx, Wy});
  return B.build();
}

/// §5.2 execution (2): WRC where the initial write is transactional;
/// forbidden by multicopy-atomic transactional writes (tprop2).
inline Execution powerWrcTxnWrite() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1); // a (transactional)
  EventId Rx = B.read(1, 0);                          // b
  EventId Wy = B.write(1, 1, MemOrder::NonAtomic, 1); // c
  EventId Ry = B.read(2, 1);                          // d
  EventId Rx2 = B.read(2, 0);                         // e: reads initial x
  B.rf(Wx, Rx);
  B.rf(Wy, Ry);
  B.addr(Rx, Wy);
  B.addr(Ry, Rx2);
  B.txn({Wx});
  return B.build();
}

/// §5.2 execution (3) (after Cain et al., Fig. 5): IRIW where the two
/// *writes* are transactions and the readers use dependencies; the two
/// reader threads observe the transactions in incompatible orders, so the
/// shape is forbidden by transaction ordering (thb). With \p BothTxns
/// false only one write is transactional and the shape is allowed (and
/// was observed on POWER8, §5.2).
inline Execution powerIriwTxns(bool BothTxns) {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1); // a (transactional)
  EventId Rx = B.read(1, 0);                          // b
  EventId Ry = B.read(1, 1);                          // c: reads initial y
  EventId Ry2 = B.read(2, 1);                         // d
  EventId Rx2 = B.read(2, 0);                         // e: reads initial x
  EventId Wy = B.write(3, 1, MemOrder::NonAtomic, 1); // f
  B.rf(Wx, Rx);
  B.rf(Wy, Ry2);
  B.addr(Rx, Ry);
  B.addr(Ry2, Rx2);
  B.txn({Wx});
  if (BothTxns)
    B.txn({Wy});
  return B.build();
}

/// Remark 5.1 (first execution): read-only transaction in the middle of a
/// WRC shape with a sync on the right; the Power manual is ambiguous, and
/// the model errs on the side of permitting it.
inline Execution powerRemark51() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Rx = B.read(1, 0);
  EventId Ry = B.read(1, 1); // reads initial y
  EventId Wy = B.write(2, 1, MemOrder::NonAtomic, 1);
  B.fence(2, FenceKind::Sync);
  EventId Rx2 = B.read(2, 0); // reads initial x
  B.rf(Wx, Rx);
  B.txn({Rx, Ry});
  (void)Wy;
  (void)Rx2;
  return B.build();
}

/// The abstract Fig. 10 execution: a normal CR incrementing x against an
/// elided CR storing to x, with the mutual-exclusion-violating rf/co
/// pattern (final x = 2, the elided store in between).
inline Execution lockElisionAbstract() {
  ExecutionBuilder B;
  EventId L = B.lockCall(0, EventKind::Lock);
  EventId Rx = B.read(0, 0);
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 2);
  EventId U = B.lockCall(0, EventKind::Unlock);
  EventId Lt = B.lockCall(1, EventKind::TxLock);
  EventId WxT = B.write(1, 0, MemOrder::NonAtomic, 1);
  EventId Ut = B.lockCall(1, EventKind::TxUnlock);
  B.cr({L, Rx, Wx, U});
  B.cr({Lt, WxT, Ut});
  B.co(WxT, Wx);
  return B.build();
}

/// Example 1.1 / Fig. 10 (concrete, ARMv8-style): the left thread takes
/// the lock with an exclusive pair, the right elides it inside a
/// transaction. Orders: the acquire flag on the exclusive read and the
/// release flag on the unlock store. Locations: x=0, m=1.
///
/// \p FixedSpinlock inserts the DMB the paper proposes after the lock
/// acquisition. \p LoadVariant builds the Appendix B shape (an external
/// load observing an intermediate write) instead of Example 1.1 proper.
inline Execution lockElisionConcrete(bool FixedSpinlock,
                                     bool LoadVariant = false) {
  ExecutionBuilder B;
  constexpr LocId X = 0, M = 1;
  // Left thread: spinlock acquire (LDAXR/STXR), critical region, release.
  EventId Rm = B.read(0, M, MemOrder::Acquire); // LDAXR, reads m=0
  EventId Wm = B.write(0, M, MemOrder::NonAtomic, 1); // STXR
  B.rmw(Rm, Wm);
  B.ctrl(Rm, Wm); // CBNZ on the loaded value (forward-closed by build)
  if (FixedSpinlock)
    B.fence(0, FenceKind::Dmb);

  EventId WmRel;
  if (!LoadVariant) {
    // Example 1.1: x <- x + 2 in the critical region.
    EventId Rx = B.read(0, X);                          // reads initial x
    EventId Wx = B.write(0, X, MemOrder::NonAtomic, 2); // x <- 2
    B.data(Rx, Wx);
    WmRel = B.write(0, M, MemOrder::Release, 0); // STLR: unlock
    // Right thread: elided critical region inside a transaction.
    EventId RmT = B.read(1, M);                          // sees lock free
    EventId WxT = B.write(1, X, MemOrder::NonAtomic, 1); // x <- 1
    B.txn({RmT, WxT});
    B.co(WxT, Wx); // final x = 2
    (void)WmRel;
  } else {
    // Appendix B: two stores to x; the elided reader sees the first.
    EventId Wx1 = B.write(0, X, MemOrder::NonAtomic, 1);
    EventId Wx2 = B.write(0, X, MemOrder::NonAtomic, 2);
    B.co(Wx1, Wx2);
    WmRel = B.write(0, M, MemOrder::Release, 0);
    EventId RmT = B.read(1, M);
    EventId RxT = B.read(1, X);
    B.txn({RmT, RxT});
    B.rf(Wx1, RxT); // observes the intermediate value
    (void)WmRel;
  }
  return B.build();
}

/// §8.1 monotonicity counterexample (Power/ARMv8): an exclusive pair split
/// across two transactions (inconsistent via TxnCancelsRMW) vs coalesced
/// into one (consistent).
inline Execution rmwAcrossTxns(bool Coalesced) {
  ExecutionBuilder B;
  EventId R = B.read(0, 0);
  EventId W = B.write(0, 0, MemOrder::NonAtomic, 1);
  B.rmw(R, W);
  if (Coalesced) {
    B.txn({R, W});
  } else {
    B.txn({R});
    B.txn({W});
  }
  return B.build();
}

/// §9: the execution distinguishing the paper's Power model from
/// atomicity-only models (Dongol et al.): transactional message passing,
/// forbidden by C++ (hb cycle through tsw) and by the paper's Power model
/// (thb cycle), but allowed when transaction ordering is dropped.
inline Execution dongolComparison() {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1); // W x (txn)
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1); // W y (txn)
  EventId Ry = B.read(1, 1);                          // R y (txn)
  EventId Rx = B.read(1, 0);                          // R x: initial (txn)
  B.rf(Wy, Ry);
  B.txn({Wx, Wy});
  B.txn({Ry, Rx});
  return B.build();
}

/// Not a litmus shape: 64 events over 4 threads and 3 locations, every
/// stored relation the full relation over all 64 events, every event in a
/// transaction class and a critical-region class, every class atomic. Not
/// well-formed; it is the largest, densest value an `Execution` can hold.
/// Reuse tests clear or retarget it down to a small execution, where any
/// read of a row it left behind changes an answer.
inline Execution denseSixtyFour() {
  ExecutionBuilder B;
  for (unsigned E = 0; E < kMaxEvents; ++E) {
    unsigned Thread = E % 4;
    LocId Loc = static_cast<LocId>(E % 3);
    if (E % 8 == 7)
      B.fence(Thread, FenceKind::MFence);
    else if (E % 2)
      B.write(Thread, Loc, MemOrder::SeqCst, static_cast<int>(E));
    else
      B.read(Thread, Loc, MemOrder::Acquire);
  }
  Execution X = B.buildUnchecked();
  Relation Full = Relation::cross(X.universe(), X.universe(), kMaxEvents);
  for (Relation *R : {&X.Po, &X.Rf, &X.Co, &X.Addr, &X.Data, &X.Ctrl, &X.Rmw})
    *R = Full;
  for (unsigned E = 0; E < kMaxEvents; ++E) {
    X.Txn[E] = static_cast<int>(E % 5);
    X.Cr[E] = static_cast<int>(E % 3);
  }
  X.AtomicTxns = 0x1f;
  return X;
}

} // namespace tmw::shapes

#endif // TMW_TESTS_TESTGRAPHS_H
