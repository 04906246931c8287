//===- Candidates.cpp - Candidate executions of a program ---------------------==//

#include "enumerate/Candidates.h"

#include "enumerate/RfCo.h"

#include <algorithm>

using namespace tmw;

namespace {

/// Instruction-to-event mapping state while assembling one transaction
/// success/failure choice.
struct Shape {
  /// The candidate under construction: rf/co are completed in place in
  /// `C.X`, and `C.O` is recomputed for each completion.
  Candidate C;
  /// Event id per (thread, instruction index), -1 when it vanished or is a
  /// transaction delimiter.
  std::vector<std::vector<int>> EventOf;
  /// Value written by each write event (from the program).
  std::vector<int> WriteValue;
  /// True when every transaction of the program succeeded.
  bool AllTxnsSucceeded = true;
};

/// Build the event skeleton for one choice of which transactions succeed:
/// bit I of \p Succeed is set when the I-th TxBegin (in program order)
/// succeeds.
bool buildShape(const Program &P, uint64_t Succeed, Shape &S) {
  unsigned NumTx = 0;
  std::vector<Event> Events;
  std::vector<int> Txns, Crs;
  S.EventOf.assign(P.Threads.size(), {});

  int NextTxnClass = 0, NextCrClass = 0;
  uint32_t AtomicMask = 0;
  for (unsigned T = 0; T < P.Threads.size(); ++T) {
    int CurTxn = kNoClass;
    int CurCr = kNoClass;
    bool Skipping = false;
    auto Append = [&](const Event &Ev, int Value) {
      Events.push_back(Ev);
      Events.back().Thread = T;
      Txns.push_back(CurTxn);
      Crs.push_back(CurCr);
      S.WriteValue.push_back(Value);
      return static_cast<int>(Events.size() - 1);
    };
    for (const Instruction &I : P.Threads[T]) {
      int EventId = -1;
      switch (I.K) {
      case Instruction::Kind::TxBegin: {
        bool Ok = (Succeed >> NumTx) & 1;
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
        CurCr = NextCrClass++;
        EventId = Append(Ev, 0);
        break;
      }
      case Instruction::Kind::Unlock:
      case Instruction::Kind::TxUnlock: {
        if (Skipping)
          break;
        Event Ev;
        Ev.Kind = I.K == Instruction::Kind::Unlock ? EventKind::Unlock
                                                   : EventKind::TxUnlock;
        EventId = Append(Ev, 0);
        CurCr = kNoClass;
        break;
      }
      case Instruction::Kind::Load:
      case Instruction::Kind::Store:
      case Instruction::Kind::Fence: {
        if (Skipping)
          break;
        Event Ev;
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
        EventId = Append(Ev, I.Value);
        break;
      }
      }
      S.EventOf[T].push_back(EventId);
    }
  }

  if (Events.size() > kMaxEvents)
    return false;

  Execution &X = S.C.X;
  X.clear(static_cast<unsigned>(Events.size()));
  for (unsigned E = 0; E < Events.size(); ++E) {
    X.event(E) = Events[E];
    X.Txn[E] = Txns[E];
    X.Cr[E] = Crs[E];
  }
  X.AtomicTxns = AtomicMask;

  // po: id order within each thread (events were appended in order).
  X.poFromThreadOrder();

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
        if (int Src = Resolve(D); Src >= 0)
          X.addCtrl(Src, Target);
      if (I.RmwPartner >= 0 && I.K == Instruction::Kind::Load)
        if (int W = Resolve(static_cast<unsigned>(I.RmwPartner)); W >= 0)
          X.Rmw.insert(Target, W);
    }
  }
  return true;
}

/// Compute the outcome of a fully assembled candidate.
Outcome outcomeOf(const Program &P, const Shape &S) {
  const Execution &X = S.C.X;
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

} // namespace

bool tmw::forEachCandidate(
    const Program &P, const std::function<bool(const Candidate &)> &Sink) {
  unsigned NumTx = 0;
  for (const auto &T : P.Threads)
    for (const Instruction &I : T)
      if (I.K == Instruction::Kind::TxBegin)
        ++NumTx;

  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumTx); ++Mask) {
    Shape S;
    if (!buildShape(P, Mask, S))
      continue;
    Execution &X = S.C.X;
    bool Go = forEachRfCo(X, X.reads(), X.writes(), X.writes(),
                          [&](const Execution &Y) {
                            if (Y.checkWellFormed() != nullptr)
                              return true; // malformed: skip, keep going
                            S.C.O = outcomeOf(P, S);
                            return Sink(S.C);
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
