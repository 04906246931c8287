//===- Compilation.cpp - C++ transactions to hardware (§8.2) -------------------==//

#include "metatheory/Compilation.h"

#include "metatheory/BoundedSearch.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <vector>

using namespace tmw;

namespace {

/// The expansion of one C++ event on the target: optional leading fence,
/// the access itself (with target annotations), optional trailing fence,
/// and whether a ctrl;isync tail is required (Power acquire loads).
struct Expansion {
  FenceKind Before = FenceKind::None;
  Event Main;
  FenceKind After = FenceKind::None;
  bool CtrlIsyncTail = false;
};

Expansion expandEvent(const Event &Ev, Arch Target) {
  Expansion Ex;
  Ex.Main = Ev;
  Ex.Main.Order = MemOrder::NonAtomic;

  switch (Target) {
  case Arch::X86:
    if (Ev.isFence())
      Ex.Main.Fence = Ev.isSeqCst() ? FenceKind::MFence : FenceKind::None;
    if (Ev.isWrite() && Ev.isSeqCst())
      Ex.After = FenceKind::MFence;
    break;
  case Arch::Power:
    if (Ev.isFence())
      Ex.Main.Fence = Ev.isSeqCst() ? FenceKind::Sync : FenceKind::LwSync;
    if (Ev.isRead() && Ev.isSeqCst())
      Ex.Before = FenceKind::Sync;
    if (Ev.isRead() && Ev.isAcquire())
      Ex.CtrlIsyncTail = true;
    if (Ev.isWrite() && Ev.isSeqCst())
      Ex.Before = FenceKind::Sync;
    else if (Ev.isWrite() && Ev.isRelease())
      Ex.Before = FenceKind::LwSync;
    break;
  case Arch::Armv8:
    if (Ev.isFence())
      Ex.Main.Fence = FenceKind::Dmb;
    if (Ev.isRead() && Ev.isAcquire())
      Ex.Main.Order = MemOrder::Acquire;
    if (Ev.isWrite() && Ev.isRelease())
      Ex.Main.Order = MemOrder::Release;
    break;
  default:
    assert(false && "unsupported compilation target");
  }
  return Ex;
}

} // namespace

Execution tmw::compileExecution(const Execution &X, Arch Target) {
  unsigned N = X.size();
  // Plan the expansions and count target events.
  std::vector<Expansion> Plan(N);
  unsigned TargetCount = 0;
  for (unsigned E = 0; E < N; ++E) {
    Plan[E] = expandEvent(X.event(E), Target);
    // A C++ fence that maps to nothing still occupies a slot as a no-op?
    // No: drop it entirely.
    bool DropsOut =
        X.event(E).isFence() && Plan[E].Main.Fence == FenceKind::None;
    if (!DropsOut)
      ++TargetCount;
    if (Plan[E].Before != FenceKind::None)
      ++TargetCount;
    if (Plan[E].After != FenceKind::None)
      ++TargetCount;
    if (Plan[E].CtrlIsyncTail)
      ++TargetCount;
  }
  assert(TargetCount <= kMaxEvents && "compiled execution too large");

  Execution Y(TargetCount);
  std::vector<int> MainOf(N, -1);
  std::vector<int> IsyncOf(N, -1);

  // Emit thread by thread in po order so po = id order per thread.
  unsigned Next = 0;
  unsigned NumThreads = X.numThreads();
  for (unsigned T = 0; T < NumThreads; ++T) {
    std::vector<EventId> Es;
    for (EventId E : X.ofThread(T))
      Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    for (EventId E : Es) {
      const Expansion &Ex = Plan[E];
      int Txn = X.Txn[E];
      auto Emit = [&](const Event &Ev) {
        Y.event(Next) = Ev;
        Y.event(Next).Thread = T;
        // Inserted fences live inside the same transaction as their
        // anchor so transactions stay contiguous.
        Y.Txn[Next] = Txn;
        return static_cast<int>(Next++);
      };
      if (Ex.Before != FenceKind::None) {
        Event F;
        F.Kind = EventKind::Fence;
        F.Fence = Ex.Before;
        Emit(F);
      }
      bool DropsOut =
          X.event(E).isFence() && Ex.Main.Fence == FenceKind::None;
      if (!DropsOut)
        MainOf[E] = Emit(Ex.Main);
      if (Ex.After != FenceKind::None) {
        Event F;
        F.Kind = EventKind::Fence;
        F.Fence = Ex.After;
        Emit(F);
      }
      if (Ex.CtrlIsyncTail) {
        Event F;
        F.Kind = EventKind::Fence;
        F.Fence = FenceKind::ISync;
        IsyncOf[E] = Emit(F);
      }
    }
  }

  // po: id order within each thread.
  Y.poFromThreadOrder();

  // Transactions on hardware have no atomic/relaxed distinction.
  Y.AtomicTxns = 0;

  // Copy the communication and dependency structure over main events.
  auto CopyRel = [&](const Relation &Src, Relation &Dst) {
    Src.forEachPair([&](EventId A, EventId B) {
      if (MainOf[A] >= 0 && MainOf[B] >= 0)
        Dst.insert(static_cast<EventId>(MainOf[A]),
                   static_cast<EventId>(MainOf[B]));
    });
  };
  CopyRel(X.Rf, Y.Rf);
  CopyRel(X.Co, Y.Co);
  CopyRel(X.Rmw, Y.Rmw);
  CopyRel(X.Addr, Y.Addr);
  CopyRel(X.Data, Y.Data);
  CopyRel(X.Ctrl, Y.Ctrl);

  // Power acquire loads: ctrl edges from the load to the isync right
  // after it and everything po-after that (the bc;isync idiom).
  for (unsigned E = 0; E < N; ++E)
    if (IsyncOf[E] >= 0 && MainOf[E] >= 0)
      Y.addCtrl(static_cast<EventId>(MainOf[E]),
                static_cast<EventId>(IsyncOf[E]));

  assert(Y.checkWellFormed() == nullptr && "compilation broke well-formedness");
  return Y;
}

CompilationResult tmw::checkCompilation(Arch Target, unsigned NumEvents,
                                        double BudgetSeconds) {
  CompilationResult Res;

  CppModel Cpp;
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  const MemoryModel *TargetModel = nullptr;
  switch (Target) {
  case Arch::X86:
    TargetModel = &X86;
    break;
  case Arch::Power:
    TargetModel = &Power;
    break;
  case Arch::Armv8:
    TargetModel = &Armv8;
    break;
  default:
    assert(false && "unsupported compilation target");
    return Res;
  }

  boundedTxnSearch(Vocabulary::forArch(Arch::Cpp), NumEvents, BudgetSeconds,
                   Res, [&](Execution &X) {
    ++Res.Checked;
    // One analysis for both C++ predicates: consistency and race-freedom
    // share happens-before's building blocks and sloc.
    ExecutionAnalysis AX(X);
    if (Cpp.consistent(AX))
      return true;
    // Racy programs are undefined; the compiler owes them nothing.
    if (!Cpp.raceFree(AX))
      return true;
    Execution Y = compileExecution(X, Target);
    if (TargetModel->consistent(Y)) {
      Res.CounterexampleFound = true;
      Res.Source = X;
      Res.Compiled = Y;
      return false;
    }
    return true;
  });
  return Res;
}
