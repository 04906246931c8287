//===- Execution.cpp - Candidate execution graphs ---------------------------==//

#include "execution/Execution.h"

#include <cstdio>

using namespace tmw;

void Execution::clear(unsigned NumEvents) {
  assert(NumEvents <= kMaxEvents && "execution too large");
  Num = NumEvents;
  Events.fill(Event());
  Po = Relation(Num);
  Rf = Relation(Num);
  Co = Relation(Num);
  Addr = Relation(Num);
  Data = Relation(Num);
  Ctrl = Relation(Num);
  Rmw = Relation(Num);
  Txn.fill(kNoClass);
  Cr.fill(kNoClass);
  AtomicTxns = 0;
}

void Execution::poFromThreadOrder() {
  Po = Relation(Num);
  for (unsigned A = 0; A < Num; ++A)
    for (unsigned B = A + 1; B < Num; ++B)
      if (Events[A].Thread == Events[B].Thread)
        Po.insert(A, B);
}

void Execution::addCtrl(EventId Src, EventId Target) {
  Ctrl.insert(Src, Target);
  for (EventId B : Po.successors(Target))
    Ctrl.insert(Src, B);
}

unsigned Execution::numThreads() const {
  unsigned N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Events[E].Thread + 1);
  return Num == 0 ? 0 : N;
}

unsigned Execution::numLocations() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Events[E].Loc + 1);
  return static_cast<unsigned>(N);
}

unsigned Execution::numTxns() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Txn[E] + 1);
  return static_cast<unsigned>(N);
}

unsigned Execution::numCrs() const {
  int N = 0;
  for (unsigned E = 0; E < Num; ++E)
    N = std::max(N, Cr[E] + 1);
  return static_cast<unsigned>(N);
}

EventSet Execution::reads() const { return ofKind(EventKind::Read); }
EventSet Execution::writes() const { return ofKind(EventKind::Write); }
EventSet Execution::accesses() const { return reads() | writes(); }

EventSet Execution::ofKind(EventKind K) const {
  return eventsWhere([&](EventId E) { return Events[E].Kind == K; });
}

EventSet Execution::transactional() const {
  return eventsWhere([&](EventId E) { return Txn[E] != kNoClass; });
}

EventSet Execution::atLocation(LocId L) const {
  return eventsWhere([&](EventId E) {
    return Events[E].isMemoryAccess() && Events[E].Loc == L;
  });
}

EventSet Execution::ofThread(unsigned T) const {
  return eventsWhere([&](EventId E) { return Events[E].Thread == T; });
}

Relation Execution::sloc() const {
  Relation R(Num);
  for (unsigned A = 0; A < Num; ++A) {
    if (!Events[A].isMemoryAccess())
      continue;
    for (unsigned B = 0; B < Num; ++B)
      if (Events[B].isMemoryAccess() && Events[A].Loc == Events[B].Loc)
        R.insert(A, B);
  }
  return R;
}

const char *Execution::checkWellFormed() const {
  EventSet R = reads(), W = writes(), Acc = accesses();
  Relation Sloc = sloc();

  // Location discipline: accesses name a location, other events do not.
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    if (Ev.isMemoryAccess() && Ev.Loc < 0)
      return "memory access without a location";
    if (!Ev.isMemoryAccess() && Ev.Loc >= 0)
      return "non-access names a location";
    if (Ev.isFence() != (Ev.Fence != FenceKind::None))
      return "fence flavour on non-fence event";
  }

  // po: strict, transitive, total per thread, intra-thread only.
  if (!Po.isIrreflexive())
    return "po is not irreflexive";
  if (!Po.compose(Po).subsetOf(Po))
    return "po is not transitive";
  for (unsigned A = 0; A < Num; ++A)
    for (unsigned B = 0; B < Num; ++B) {
      bool SameThread = Events[A].Thread == Events[B].Thread;
      if (Po.contains(A, B) && !SameThread)
        return "po crosses threads";
      if (A != B && SameThread && !Po.contains(A, B) && !Po.contains(B, A))
        return "po is not total within a thread";
    }

  // rf: writes to reads of the same location, at most one source per read.
  if (!Rf.subsetOf(Relation::cross(W, R, Num) & Sloc))
    return "rf is not W->R on a shared location";
  for (EventId B : R)
    if (Rf.restrictRange(EventSet::singleton(B)).numPairs() > 1)
      return "read with two rf sources";

  // co: strict total order over the writes of each location.
  if (!Co.subsetOf(Relation::cross(W, W, Num) & Sloc))
    return "co is not W->W on a shared location";
  if (!Co.isIrreflexive())
    return "co is not irreflexive";
  if (!Co.compose(Co).subsetOf(Co))
    return "co is not transitive";
  for (EventId A : W)
    for (EventId B : W)
      if (A != B && Events[A].Loc == Events[B].Loc && !Co.contains(A, B) &&
          !Co.contains(B, A))
        return "co is not total over a location";

  // Dependencies: within po, originating at reads.
  Relation FromReads = Relation::cross(R, universe(), Num);
  if (!Addr.subsetOf(Po & FromReads))
    return "addr escapes po or starts at a non-read";
  if (!(Addr.range() - Acc).empty())
    return "addr targets a non-access";
  if (!Data.subsetOf(Po & FromReads))
    return "data escapes po or starts at a non-read";
  if (!(Data.range() - W).empty())
    return "data targets a non-write";
  // ctrl may also originate at a store-exclusive (the branch on the
  // store-conditional's status register; §8.3 footnote 3).
  Relation FromCtrlSources =
      Relation::cross(R | Rmw.range(), universe(), Num);
  if (!Ctrl.subsetOf(Po & FromCtrlSources))
    return "ctrl escapes po or starts at a non-read";
  if (!Ctrl.compose(Po).subsetOf(Ctrl))
    return "ctrl is not forward-closed";

  // rmw: read to write, same location, in po, functional both ways.
  if (!Rmw.subsetOf(Po & Sloc & Relation::cross(R, W, Num)))
    return "rmw is not R->W in po on a shared location";
  for (EventId A : Rmw.domain())
    if (Rmw.successors(A).size() > 1)
      return "rmw read paired with two writes";
  EventSet Paired;
  for (EventId A : Rmw.domain()) {
    if (!(Rmw.successors(A) & Paired).empty())
      return "rmw write paired with two reads";
    Paired |= Rmw.successors(A);
  }

  // Transactions: intra-thread, po-contiguous, valid class ids.
  for (unsigned A = 0; A < Num; ++A) {
    if (Txn[A] == kNoClass)
      continue;
    if (Txn[A] < 0 || static_cast<unsigned>(Txn[A]) >= kMaxTxns)
      return "transaction class id out of range";
    for (unsigned B = 0; B < Num; ++B) {
      if (Txn[B] != Txn[A])
        continue;
      if (Events[A].Thread != Events[B].Thread)
        return "transaction spans threads";
      // Contiguity: everything po-between two class members is a member.
      for (unsigned C = 0; C < Num; ++C)
        if (Po.contains(A, C) && Po.contains(C, B) && Txn[C] != Txn[A])
          return "transaction is not contiguous in po";
    }
  }
  for (unsigned T = numTxns(); T < kMaxTxns; ++T)
    if ((AtomicTxns >> T) & 1)
      return "atomic flag on a non-existent transaction";

  // Critical regions: contiguous, opened by (Tx)Lock, closed by (Tx)Unlock.
  for (unsigned A = 0; A < Num; ++A) {
    if (Cr[A] == kNoClass) {
      if (Events[A].isLockCall())
        return "lock call outside any critical region";
      continue;
    }
    for (unsigned B = 0; B < Num; ++B) {
      if (Cr[B] != Cr[A])
        continue;
      if (Events[A].Thread != Events[B].Thread)
        return "critical region spans threads";
      for (unsigned C = 0; C < Num; ++C)
        if (Po.contains(A, C) && Po.contains(C, B) && Cr[C] != Cr[A])
          return "critical region is not contiguous in po";
    }
  }
  for (unsigned C = 0; C < numCrs(); ++C) {
    EventSet Members;
    for (unsigned E = 0; E < Num; ++E)
      if (Cr[E] == static_cast<int>(C))
        Members.insert(E);
    if (Members.empty())
      continue;
    // First member must be a lock, last an unlock, of matching flavour.
    EventId First = 0, Last = 0;
    bool Init = false;
    for (EventId E : Members) {
      if (!Init) {
        First = Last = E;
        Init = true;
        continue;
      }
      if (Po.contains(E, First))
        First = E;
      if (Po.contains(Last, E))
        Last = E;
    }
    EventKind FK = Events[First].Kind, LK = Events[Last].Kind;
    bool NormalCr = FK == EventKind::Lock && LK == EventKind::Unlock;
    bool ElidedCr = FK == EventKind::TxLock && LK == EventKind::TxUnlock;
    if (!NormalCr && !ElidedCr)
      return "critical region not delimited by matching lock/unlock";
    for (EventId E : Members)
      if (E != First && E != Last && Events[E].isLockCall())
        return "nested lock call inside a critical region";
  }

  return nullptr;
}

uint64_t Execution::hash() const {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  };
  Mix(Num);
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    Mix(static_cast<uint64_t>(Ev.Kind) | (uint64_t(Ev.Thread) << 8) |
        (uint64_t(Ev.Loc + 1) << 24) | (uint64_t(Ev.Order) << 40) |
        (uint64_t(Ev.Fence) << 48));
    Mix(static_cast<uint64_t>(Txn[E] + 1));
    Mix(static_cast<uint64_t>(Cr[E] + 1));
  }
  for (const Relation *Rel : {&Po, &Rf, &Co, &Addr, &Data, &Ctrl, &Rmw})
    for (unsigned A = 0; A < Num; ++A)
      Mix(Rel->successors(A).bits());
  Mix(AtomicTxns);
  return H;
}

bool Execution::operator==(const Execution &O) const {
  if (Num != O.Num || AtomicTxns != O.AtomicTxns)
    return false;
  for (unsigned E = 0; E < Num; ++E) {
    const Event &A = Events[E], &B = O.Events[E];
    if (A.Kind != B.Kind || A.Thread != B.Thread || A.Loc != B.Loc ||
        A.Order != B.Order || A.Fence != B.Fence || Txn[E] != O.Txn[E] ||
        Cr[E] != O.Cr[E])
      return false;
  }
  return Po == O.Po && Rf == O.Rf && Co == O.Co && Addr == O.Addr &&
         Data == O.Data && Ctrl == O.Ctrl && Rmw == O.Rmw;
}

std::string Execution::dump() const {
  std::string Out;
  char Buf[128];
  for (unsigned E = 0; E < Num; ++E) {
    const Event &Ev = Events[E];
    const char *Kind = eventKindName(Ev.Kind);
    snprintf(Buf, sizeof(Buf), "%c: %s", 'a' + E, Kind);
    Out += Buf;
    if (Ev.isFence()) {
      Out += ":";
      Out += fenceKindName(Ev.Fence);
    }
    if (Ev.Loc >= 0) {
      snprintf(Buf, sizeof(Buf), " %c", 'x' + Ev.Loc);
      Out += Buf;
    }
    if (Ev.Order != MemOrder::NonAtomic) {
      Out += " ";
      Out += memOrderName(Ev.Order);
    }
    snprintf(Buf, sizeof(Buf), " (T%u)", Ev.Thread);
    Out += Buf;
    if (Txn[E] != kNoClass) {
      snprintf(Buf, sizeof(Buf), " [txn %d%s]", Txn[E],
               ((AtomicTxns >> Txn[E]) & 1) ? " atomic" : "");
      Out += Buf;
    }
    if (Cr[E] != kNoClass) {
      snprintf(Buf, sizeof(Buf), " [cr %d]", Cr[E]);
      Out += Buf;
    }
    Out += "\n";
  }
  struct {
    const char *Name;
    const Relation *Rel;
  } Rels[] = {{"po", &Po},     {"rf", &Rf},   {"co", &Co},  {"addr", &Addr},
              {"data", &Data}, {"ctrl", &Ctrl}, {"rmw", &Rmw}};
  for (const auto &[Name, Rel] : Rels) {
    if (Rel->isEmpty())
      continue;
    Out += Name;
    Out += ":";
    Rel->forEachPair([&](EventId A, EventId B) {
      snprintf(Buf, sizeof(Buf), " %c->%c", 'a' + A, 'a' + B);
      Out += Buf;
    });
    Out += "\n";
  }
  return Out;
}
