//===- LockElision.cpp - Checking lock elision (§8.3) --------------------------==//

#include "metatheory/LockElision.h"

#include "enumerate/RfCo.h"

#include <algorithm>
#include <chrono>
#include <tuple>

using namespace tmw;

bool tmw::holdsCrOrder(const ExecutionAnalysis &A) {
  return weakLift(A.po() | A.com(), A.scr()).isAcyclic();
}

Execution tmw::elideLocks(const Execution &Abstract, Arch A,
                          bool FixedSpinlock) {
  unsigned N = Abstract.size();
  LocId LockVar = static_cast<LocId>(Abstract.numLocations());

  // Size of the implementation of each method call (Table 3).
  auto ExpansionSize = [&](EventKind K) -> unsigned {
    switch (K) {
    case EventKind::Lock:
      switch (A) {
      case Arch::X86:
        return 3; // test read; locked read; locked write
      case Arch::Power:
        return 3; // lwarx; stwcx.; isync
      case Arch::Armv8:
        return FixedSpinlock ? 3u : 2u; // ldaxr; stxr; (dmb)
      default:
        return 0;
      }
    case EventKind::Unlock:
      return A == Arch::Power ? 2 : 1; // (sync;) store
    case EventKind::TxLock:
      return 1; // read of the lock variable, inside the transaction
    case EventKind::TxUnlock:
      return 0; // vanishes
    default:
      return 1;
    }
  };

  unsigned TargetCount = 0;
  for (unsigned E = 0; E < N; ++E)
    TargetCount += ExpansionSize(Abstract.event(E).Kind);
  assert(TargetCount <= kMaxEvents && "concrete execution too large");

  Execution Y(TargetCount);
  std::vector<int> MainOf(N, -1);

  unsigned Next = 0;
  unsigned NumThreads = Abstract.numThreads();
  int NextTxn = static_cast<int>(Abstract.numTxns());

  for (unsigned T = 0; T < NumThreads; ++T) {
    std::vector<EventId> Es;
    for (EventId E : Abstract.ofThread(T))
      Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&Abstract](EventId P, EventId Q) {
      return Abstract.Po.contains(P, Q);
    });

    // Transaction class for the elided CR currently open on this thread.
    int ElidedTxn = kNoClass;

    auto Emit = [&](const Event &Ev, int Txn) {
      Y.event(Next) = Ev;
      Y.event(Next).Thread = T;
      Y.Txn[Next] = Txn;
      return static_cast<int>(Next++);
    };

    for (EventId E : Es) {
      const Event &Ev = Abstract.event(E);
      switch (Ev.Kind) {
      case EventKind::Lock: {
        if (A == Arch::X86) {
          Event Test;
          Test.Kind = EventKind::Read;
          Test.Loc = LockVar;
          Emit(Test, kNoClass);
        }
        Event Rm;
        Rm.Kind = EventKind::Read;
        Rm.Loc = LockVar;
        if (A == Arch::Armv8)
          Rm.Order = MemOrder::Acquire; // LDAXR
        int R = Emit(Rm, kNoClass);
        Event Wm;
        Wm.Kind = EventKind::Write;
        Wm.Loc = LockVar;
        Wm.WrittenValue = 1; // taken
        int W = Emit(Wm, kNoClass);
        Y.Rmw.insert(R, W);
        MainOf[E] = R;
        if (A == Arch::Power) {
          Event Isync;
          Isync.Kind = EventKind::Fence;
          Isync.Fence = FenceKind::ISync;
          Emit(Isync, kNoClass);
        }
        if (A == Arch::Armv8 && FixedSpinlock) {
          Event Dmb;
          Dmb.Kind = EventKind::Fence;
          Dmb.Fence = FenceKind::Dmb;
          Emit(Dmb, kNoClass);
        }
        break;
      }
      case EventKind::Unlock: {
        if (A == Arch::Power) {
          Event Sync;
          Sync.Kind = EventKind::Fence;
          Sync.Fence = FenceKind::Sync;
          Emit(Sync, kNoClass);
        }
        Event Wm;
        Wm.Kind = EventKind::Write;
        Wm.Loc = LockVar;
        Wm.WrittenValue = 0; // free
        if (A == Arch::Armv8)
          Wm.Order = MemOrder::Release; // STLR
        MainOf[E] = Emit(Wm, kNoClass);
        break;
      }
      case EventKind::TxLock: {
        ElidedTxn = NextTxn++;
        Event Rm;
        Rm.Kind = EventKind::Read;
        Rm.Loc = LockVar;
        MainOf[E] = Emit(Rm, ElidedTxn);
        break;
      }
      case EventKind::TxUnlock:
        ElidedTxn = kNoClass;
        break;
      default: {
        // Ordinary memory events keep their structure. Events of an
        // elided CR join its transaction (TxnIntro); others keep theirs.
        int Txn = ElidedTxn != kNoClass ? ElidedTxn : Abstract.Txn[E];
        MainOf[E] = Emit(Ev, Txn);
        break;
      }
      }
    }
  }
  assert(Next == TargetCount && "expansion size mismatch");

  Y.poFromThreadOrder();

  auto CopyRel = [&](const Relation &Src, Relation &Dst) {
    Src.forEachPair([&](EventId P, EventId Q) {
      if (MainOf[P] >= 0 && MainOf[Q] >= 0)
        Dst.insert(static_cast<EventId>(MainOf[P]),
                   static_cast<EventId>(MainOf[Q]));
    });
  };
  CopyRel(Abstract.Rf, Y.Rf);
  CopyRel(Abstract.Co, Y.Co);
  CopyRel(Abstract.Addr, Y.Addr);
  CopyRel(Abstract.Data, Y.Data);
  CopyRel(Abstract.Rmw, Y.Rmw);
  // ctrl must stay forward-closed through the mapping.
  Abstract.Ctrl.forEachPair([&](EventId P, EventId Q) {
    if (MainOf[P] >= 0 && MainOf[Q] >= 0)
      Y.addCtrl(static_cast<EventId>(MainOf[P]),
                static_cast<EventId>(MainOf[Q]));
  });

  // The spinlock's loop branches: control dependencies from the exclusive
  // read of the lock variable (branch on the loaded value) and — on Power,
  // per §8.3 footnote 3 — from the store-exclusive (branch on the
  // store-conditional's status) to everything po-later.
  for (unsigned E = 0; E < TargetCount; ++E) {
    bool ExclRead =
        Y.event(E).isRead() && Y.Rmw.domain().contains(E);
    bool ExclWrite = A == Arch::Power && Y.event(E).isWrite() &&
                     Y.Rmw.range().contains(E);
    if (Y.event(E).Loc != LockVar || (!ExclRead && !ExclWrite))
      continue;
    for (EventId B : Y.Po.successors(E))
      Y.Ctrl.insert(E, B);
  }

  return Y;
}

std::vector<Execution> tmw::lockVarCompletions(const Execution &Concrete) {
  LocId LockVar = static_cast<LocId>(Concrete.numLocations() - 1);
  EventSet Lock = Concrete.atLocation(LockVar);
  EventSet UnlockWrites;
  for (EventId W : Concrete.writes() & Lock)
    if (Concrete.event(W).WrittenValue == 0)
      UnlockWrites.insert(W);

  // Every read of the lock variable must see the lock free: acquiring
  // reads succeed only on a free lock, and elided-region reads are
  // constrained by TxnReadsLockFree. Sources: the initial value or an
  // unlock write.
  std::vector<Execution> Out;
  Execution X = Concrete;
  forEachRfCo(X, Concrete.reads() & Lock, UnlockWrites,
              Concrete.writes() & Lock, [&Out](const Execution &Y) {
                if (Y.checkWellFormed() == nullptr)
                  Out.push_back(Y);
                return true;
              });
  return Out;
}

namespace {

/// Enumerate abstract lock-elision executions: two threads, each one
/// critical region over one shared location, with a choice of normal or
/// elided locking per thread (at least one elided). \p Sink returns false
/// to stop; the result is then false.
template <typename SinkT>
bool forEachAbstract(unsigned MaxEvents, SinkT &&Sink) {
  // Body sizes: total events = 4 lock calls + B0 + B1.
  for (unsigned B0 = 0; B0 + 4 <= MaxEvents; ++B0)
    for (unsigned B1 = 0; B0 + B1 + 4 <= MaxEvents; ++B1)
      for (bool Elide0 : {false, true})
        for (bool Elide1 : {false, true}) {
          if (B0 + B1 == 0 || (!Elide0 && !Elide1))
            continue;
          // Thread T: a lock call, B_T body events and an unlock call,
          // all in critical region T.
          Execution X(4 + B0 + B1);
          std::vector<EventId> Body;
          EventId Next = 0;
          auto Add = [&](unsigned T, EventKind K) {
            X.event(Next).Kind = K;
            X.event(Next).Thread = T;
            X.Cr[Next] = static_cast<int>(T);
            return Next++;
          };
          for (const auto &[T, Size, Elide] :
               {std::tuple{0u, B0, Elide0}, std::tuple{1u, B1, Elide1}}) {
            Add(T, Elide ? EventKind::TxLock : EventKind::Lock);
            for (unsigned I = 0; I < Size; ++I)
              Body.push_back(Add(T, EventKind::Read));
            Add(T, Elide ? EventKind::TxUnlock : EventKind::Unlock);
          }
          X.poFromThreadOrder();
          // Each body event reads or writes the shared location, the
          // first body event varying slowest, a read before a write. Lock
          // calls have no location, so the body holds every read and
          // write.
          size_t NumBody = Body.size();
          for (uint64_t Kinds = 0; Kinds >> NumBody == 0; ++Kinds) {
            for (size_t I = 0; I < NumBody; ++I) {
              bool Write = (Kinds >> (NumBody - 1 - I)) & 1;
              X.event(Body[I]).Kind =
                  Write ? EventKind::Write : EventKind::Read;
              X.event(Body[I]).Loc = 0;
            }
            if (!forEachRfCo(X, X.reads(), X.writes(), X.writes(),
                             [&Sink](Execution &Y) {
                               return Y.checkWellFormed() != nullptr ||
                                      Sink(Y);
                             }))
              return false;
          }
        }
  return true;
}

} // namespace

ElisionResult tmw::checkLockElision(const MemoryModel &TmModel,
                                    const MemoryModel &SpecModel, Arch A,
                                    bool FixedSpinlock, unsigned MaxEvents,
                                    double BudgetSeconds) {
  ElisionResult Res;
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  bool Finished = forEachAbstract(MaxEvents, [&](Execution &X) {
    if (Elapsed() > BudgetSeconds)
      return false;
    ++Res.AbstractChecked;
    // Spec-forbidden: the architecture axioms hold (the behaviour is
    // plausible) but critical regions fail to serialise. One analysis
    // serves both predicates (they share com).
    ExecutionAnalysis AX(X);
    if (!SpecModel.consistent(AX) || holdsCrOrder(AX))
      return true;
    Execution Skeleton = elideLocks(X, A, FixedSpinlock);
    for (const Execution &Y : lockVarCompletions(Skeleton)) {
      ++Res.ConcreteChecked;
      if (TmModel.consistent(Y)) {
        Res.CounterexampleFound = true;
        Res.Abstract = X;
        Res.Concrete = Y;
        return false;
      }
    }
    return true;
  });
  Res.Complete = Finished || Res.CounterexampleFound;
  Res.Seconds = Elapsed();
  return Res;
}
