//===- Candidates.cpp - Candidate executions of a program ---------------------==//

#include "enumerate/Candidates.h"

#include <algorithm>
#include <functional>

using namespace tmw;

namespace {

/// Instruction-to-event mapping state while assembling one transaction
/// success/failure choice.
struct Shape {
  Execution X;
  /// Event id per (thread, instruction index), -1 when it vanished or is a
  /// transaction delimiter.
  std::vector<std::vector<int>> EventOf;
  /// Value written by each write event (from the program).
  std::vector<int> WriteValue;
  /// True when every transaction of the program succeeded.
  bool AllTxnsSucceeded = true;
};

/// Build the event skeleton for one choice of which transactions succeed.
/// \p Succeed holds one flag per TxBegin, in program order.
bool buildShape(const Program &P, const std::vector<bool> &Succeed,
                Shape &S) {
  unsigned NumTx = 0;
  std::vector<Event> Events;
  std::vector<int> Txns, Crs, Values;
  S.EventOf.assign(P.Threads.size(), {});

  int NextTxnClass = 0, NextCrClass = 0;
  uint32_t AtomicMask = 0;
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    int CurTxn = kNoClass;
    int CurCr = kNoClass;
    bool Skipping = false;
    for (const Instruction &I : P.Threads[T]) {
      int EventId = -1;
      switch (I.K) {
      case Instruction::Kind::TxBegin: {
        bool Ok = NumTx < Succeed.size() && Succeed[NumTx];
        if (!Ok)
          S.AllTxnsSucceeded = false;
        ++NumTx;
        if (Ok) {
          CurTxn = NextTxnClass++;
          if (I.TxnAtomic)
            AtomicMask |= uint32_t(1) << CurTxn;
        } else {
          Skipping = true;
        }
        break;
      }
      case Instruction::Kind::TxEnd:
        CurTxn = kNoClass;
        Skipping = false;
        break;
      case Instruction::Kind::Lock:
      case Instruction::Kind::TxLock: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Kind = I.K == Instruction::Kind::Lock ? EventKind::Lock
                                                 : EventKind::TxLock;
        Ev.Thread = T;
        CurCr = NextCrClass++;
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        Values.push_back(0);
        break;
      }
      case Instruction::Kind::Unlock:
      case Instruction::Kind::TxUnlock: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Kind = I.K == Instruction::Kind::Unlock ? EventKind::Unlock
                                                   : EventKind::TxUnlock;
        Ev.Thread = T;
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        Values.push_back(0);
        CurCr = kNoClass;
        break;
      }
      case Instruction::Kind::Load:
      case Instruction::Kind::Store:
      case Instruction::Kind::Fence: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Thread = T;
        Ev.Loc = I.Loc;
        Ev.Order = I.MO;
        if (I.K == Instruction::Kind::Load) {
          Ev.Kind = EventKind::Read;
        } else if (I.K == Instruction::Kind::Store) {
          Ev.Kind = EventKind::Write;
          Ev.WrittenValue = I.Value;
        } else {
          Ev.Kind = EventKind::Fence;
          Ev.Fence = I.FK;
          Ev.Loc = -1;
        }
        EventId = static_cast<int>(Events.size());
        Events.push_back(Ev);
        Txns.push_back(CurTxn);
        Crs.push_back(CurCr);
        Values.push_back(I.Value);
        break;
      }
      }
      S.EventOf[T].push_back(EventId);
    }
  }

  if (Events.size() > kMaxEvents)
    return false;

  Execution &X = S.X;
  X.clear(static_cast<unsigned>(Events.size()));
  for (unsigned E = 0; E < Events.size(); ++E) {
    X.event(E) = Events[E];
    X.Txn[E] = Txns[E];
    X.Cr[E] = Crs[E];
  }
  X.AtomicTxns = AtomicMask;
  S.WriteValue = Values;

  // po: id order within each thread (events were appended in order).
  for (unsigned A = 0; A < Events.size(); ++A)
    for (unsigned B = A + 1; B < Events.size(); ++B)
      if (Events[A].Thread == Events[B].Thread)
        X.Po.insert(A, B);

  // Dependencies and rmw edges from the instruction structure.
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    for (unsigned Idx = 0; Idx < P.Threads[T].size(); ++Idx) {
      int Target = S.EventOf[T][Idx];
      if (Target < 0)
        continue;
      const Instruction &I = P.Threads[T][Idx];
      auto Resolve = [&](unsigned LoadIdx) -> int {
        return LoadIdx < S.EventOf[T].size() ? S.EventOf[T][LoadIdx] : -1;
      };
      for (unsigned D : I.AddrDeps)
        if (int Src = Resolve(D); Src >= 0)
          X.Addr.insert(Src, Target);
      for (unsigned D : I.DataDeps)
        if (int Src = Resolve(D); Src >= 0)
          X.Data.insert(Src, Target);
      for (unsigned D : I.CtrlDeps)
        if (int Src = Resolve(D); Src >= 0) {
          // Forward closure: a branch orders everything after it.
          X.Ctrl.insert(Src, Target);
          for (unsigned B = 0; B < Events.size(); ++B)
            if (X.Po.contains(Target, B))
              X.Ctrl.insert(Src, B);
        }
      if (I.RmwPartner >= 0 && I.K == Instruction::Kind::Load)
        if (int W = Resolve(static_cast<unsigned>(I.RmwPartner)); W >= 0)
          X.Rmw.insert(Target, W);
    }
  }
  return true;
}

/// Compute the outcome of a fully assembled candidate.
Outcome outcomeOf(const Program &P, const Shape &S) {
  const Execution &X = S.X;
  Outcome O;

  for (unsigned T = 0; T < P.Threads.size(); ++T)
    for (unsigned Idx = 0; Idx < P.Threads[T].size(); ++Idx) {
      if (P.Threads[T][Idx].K != Instruction::Kind::Load)
        continue;
      int E = S.EventOf[T][Idx];
      if (E < 0)
        continue; // vanished with a failed transaction
      int V = P.initialValue(X.event(E).Loc);
      EventSet Srcs =
          X.Rf.restrictRange(EventSet::singleton(static_cast<EventId>(E)))
              .domain();
      for (EventId W : Srcs)
        V = S.WriteValue[W];
      O.RegValues.push_back({T, Idx, V});
    }
  std::sort(O.RegValues.begin(), O.RegValues.end());

  O.MemValues.assign(P.LocNames.size(), 0);
  for (unsigned L = 0; L < P.LocNames.size(); ++L)
    O.MemValues[L] = P.initialValue(static_cast<LocId>(L));
  for (unsigned L = 0; L < P.LocNames.size(); ++L) {
    EventSet Ws = X.writes() & X.atLocation(static_cast<LocId>(L));
    for (EventId W : Ws)
      if ((X.Co.successors(W) & Ws).empty())
        O.MemValues[L] = S.WriteValue[W];
  }
  // A failed transaction's abort handler zeroes `ok` (Fig. 2).
  if (!S.AllTxnsSucceeded) {
    LocId Ok = P.locByName("ok");
    if (Ok >= 0)
      O.MemValues[Ok] = 0;
  }
  return O;
}

/// Enumerate rf choices (per read: a same-location write or the initial
/// value), then co orders, invoking \p Sink on every complete candidate.
/// Stops — and returns false — as soon as \p Sink returns false.
bool enumerateRfCo(const Program &P, Shape &S,
                   const std::function<bool(const Candidate &)> &Sink) {
  Execution &X = S.X;
  std::vector<EventId> Reads;
  for (EventId R : X.reads())
    Reads.push_back(R);

  // Writers per location.
  unsigned NumLocs = X.numLocations();
  std::vector<std::vector<EventId>> WritersOf(NumLocs);
  for (EventId W : X.writes())
    WritersOf[X.event(W).Loc].push_back(W);

  std::function<bool(unsigned)> ChooseCo = [&](unsigned L) {
    if (L == NumLocs) {
      Candidate C{X, outcomeOf(P, S)};
      return Sink(C);
    }
    std::vector<EventId> &Ws = WritersOf[L];
    if (Ws.size() <= 1)
      return ChooseCo(L + 1);
    std::vector<EventId> Perm = Ws;
    std::sort(Perm.begin(), Perm.end());
    bool Go = true;
    do {
      for (unsigned I = 0; I < Perm.size(); ++I)
        for (unsigned J = 0; J < Perm.size(); ++J)
          if (I < J)
            X.Co.insert(Perm[I], Perm[J]);
          else if (I != J)
            X.Co.erase(Perm[I], Perm[J]);
      Go = ChooseCo(L + 1);
    } while (Go && std::next_permutation(Perm.begin(), Perm.end()));
    // Restore a clean slate for this location.
    for (EventId A : Ws)
      for (EventId B : Ws)
        if (A != B)
          X.Co.erase(A, B);
    return Go;
  };

  std::function<bool(unsigned)> ChooseRf = [&](unsigned RI) {
    if (RI == Reads.size())
      return ChooseCo(0);
    EventId R = Reads[RI];
    LocId L = X.event(R).Loc;
    // Initial value: no incoming rf.
    if (!ChooseRf(RI + 1))
      return false;
    for (EventId W : WritersOf[L]) {
      X.Rf.insert(W, R);
      bool Go = ChooseRf(RI + 1);
      X.Rf.erase(W, R);
      if (!Go)
        return false;
    }
    return true;
  };

  return ChooseRf(0);
}

} // namespace

bool tmw::forEachCandidate(
    const Program &P, const std::function<bool(const Candidate &)> &Sink) {
  unsigned NumTx = 0;
  for (const auto &T : P.Threads)
    for (const Instruction &I : T)
      if (I.K == Instruction::Kind::TxBegin)
        ++NumTx;

  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumTx); ++Mask) {
    std::vector<bool> Succeed(NumTx);
    for (unsigned I = 0; I < NumTx; ++I)
      Succeed[I] = (Mask >> I) & 1;
    Shape S;
    if (!buildShape(P, Succeed, S))
      continue;
    bool Go = enumerateRfCo(P, S, [&Sink](const Candidate &C) {
      if (C.X.checkWellFormed() != nullptr)
        return true; // malformed: skip, keep enumerating
      return Sink(C);
    });
    if (!Go)
      return false;
  }
  return true;
}

std::vector<Candidate> tmw::enumerateCandidates(const Program &P) {
  std::vector<Candidate> Out;
  forEachCandidate(P, [&Out](const Candidate &C) {
    Out.push_back(C);
    return true;
  });
  return Out;
}

std::vector<Outcome> tmw::allowedOutcomes(const Program &P,
                                          const MemoryModel &M) {
  std::vector<Outcome> Out;
  forEachCandidate(P, [&](const Candidate &C) {
    if (M.consistent(C.X))
      Out.push_back(C.O);
    return true;
  });
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

bool tmw::postconditionReachable(const Program &P, const MemoryModel &M) {
  bool Reachable = false;
  forEachCandidate(P, [&](const Candidate &C) {
    if (C.O.satisfies(P) && M.consistent(C.X)) {
      Reachable = true;
      return false; // one witness suffices
    }
    return true;
  });
  return Reachable;
}

bool tmw::observedForbiddenBehaviour(const Program &P,
                                     const MemoryModel &Spec,
                                     const std::vector<Outcome> &Observed) {
  // The allowed outcomes that satisfy the postcondition: one enumeration,
  // checking only the candidates an observation could need explained.
  std::vector<Outcome> Explained;
  forEachCandidate(P, [&](const Candidate &C) {
    if (C.O.satisfies(P) && Spec.consistent(C.X))
      Explained.push_back(C.O);
    return true;
  });
  std::sort(Explained.begin(), Explained.end());
  return std::any_of(Observed.begin(), Observed.end(), [&](const Outcome &O) {
    return O.satisfies(P) &&
           !std::binary_search(Explained.begin(), Explained.end(), O);
  });
}
