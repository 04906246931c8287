//===- Monotonicity.cpp - Transactional monotonicity (§8.1) -------------------==//

#include "metatheory/Monotonicity.h"

#include "metatheory/BoundedSearch.h"

#include <algorithm>

using namespace tmw;

std::vector<Execution> tmw::txnAugmentations(const Execution &X,
                                             const Vocabulary &V) {
  std::vector<Execution> Out;
  unsigned NumTxns = X.numTxns();
  Relation PoImm = X.Po - X.Po.compose(X.Po); // immediate po

  // Membership lists per class, in po order.
  auto MembersOf = [&](int C) {
    std::vector<EventId> Ms;
    for (unsigned E = 0; E < X.size(); ++E)
      if (X.Txn[E] == C)
        Ms.push_back(E);
    std::sort(Ms.begin(), Ms.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    return Ms;
  };

  auto AtomicClass = [&X](int C) {
    return C != kNoClass && ((X.AtomicTxns >> C) & 1);
  };

  // Grow a class over an adjacent free event.
  for (unsigned C = 0; C < NumTxns; ++C) {
    std::vector<EventId> Ms = MembersOf(static_cast<int>(C));
    if (Ms.empty())
      continue;
    for (bool Front : {true, false}) {
      EventId Boundary = Front ? Ms.front() : Ms.back();
      for (unsigned E = 0; E < X.size(); ++E) {
        bool Adjacent = Front ? PoImm.contains(E, Boundary)
                              : PoImm.contains(Boundary, E);
        if (!Adjacent || X.Txn[E] != kNoClass)
          continue;
        // Atomic transactions may not contain atomic operations (§7).
        if (AtomicClass(static_cast<int>(C)) && X.event(E).isAtomic())
          continue;
        Execution Y = X;
        Y.Txn[E] = static_cast<int>(C);
        Out.push_back(Y);
      }
    }
  }

  // Merge two po-adjacent classes (transaction coalescing).
  for (unsigned C1 = 0; C1 < NumTxns; ++C1)
    for (unsigned C2 = 0; C2 < NumTxns; ++C2) {
      if (C1 == C2)
        continue;
      std::vector<EventId> M1 = MembersOf(static_cast<int>(C1));
      std::vector<EventId> M2 = MembersOf(static_cast<int>(C2));
      if (M1.empty() || M2.empty() ||
          !PoImm.contains(M1.back(), M2.front()))
        continue;
      // Merging an atomic with a relaxed transaction has no canonical
      // flavour; offer the merge in the flavours the contents allow.
      bool AnyAtomicOp = false;
      for (EventId E : M1)
        AnyAtomicOp |= X.event(E).isAtomic();
      for (EventId E : M2)
        AnyAtomicOp |= X.event(E).isAtomic();
      for (bool Atomic : {false, true}) {
        if (Atomic && (!V.AtomicTxns || AnyAtomicOp))
          continue;
        Execution Y = X;
        for (EventId E : M2)
          Y.Txn[E] = static_cast<int>(C1);
        if (Atomic)
          Y.AtomicTxns |= uint32_t(1) << C1;
        else
          Y.AtomicTxns &= ~(uint32_t(1) << C1);
        Out.push_back(Y);
        if (!V.AtomicTxns)
          break;
      }
    }

  // Wrap a free event in a new singleton transaction.
  int Fresh = static_cast<int>(NumTxns);
  if (Fresh < static_cast<int>(kMaxTxns))
    for (unsigned E = 0; E < X.size(); ++E) {
      if (X.Txn[E] != kNoClass || X.event(E).isLockCall())
        continue;
      {
        Execution Y = X;
        Y.Txn[E] = Fresh;
        Out.push_back(Y);
      }
      if (V.AtomicTxns && !X.event(E).isAtomic()) {
        Execution Y = X;
        Y.Txn[E] = Fresh;
        Y.AtomicTxns |= uint32_t(1) << Fresh;
        Out.push_back(Y);
      }
    }

  Out.erase(std::remove_if(
                Out.begin(), Out.end(),
                [](const Execution &Y) { return Y.checkWellFormed(); }),
            Out.end());
  return Out;
}

MonotonicityResult tmw::checkMonotonicity(const MemoryModel &M,
                                          const Vocabulary &V,
                                          unsigned NumEvents,
                                          double BudgetSeconds) {
  MonotonicityResult Res;
  // Every execution, the transaction-free bases included, is a candidate X.
  boundedTxnSearch(V, NumEvents, BudgetSeconds, Res, [&](Execution &X) {
    if (M.consistent(X))
      return true;
    for (const Execution &Y : txnAugmentations(X, V)) {
      ++Res.PairsChecked;
      if (M.consistent(Y)) {
        Res.CounterexampleFound = true;
        Res.X = X;
        Res.Y = Y;
        return false;
      }
    }
    return true;
  });
  return Res;
}
