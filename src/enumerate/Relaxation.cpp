//===- Relaxation.cpp - The ⊏ order between executions -------------------------==//

#include "enumerate/Relaxation.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace tmw;

void tmw::compactTxnClasses(Execution &X) {
  int Map[kMaxTxns];
  for (unsigned I = 0; I < kMaxTxns; ++I)
    Map[I] = -1;
  uint32_t NewMask = 0;
  int Next = 0;
  for (unsigned E = 0; E < X.size(); ++E) {
    int C = X.Txn[E];
    if (C == kNoClass)
      continue;
    if (Map[C] == -1) {
      Map[C] = Next++;
      if ((X.AtomicTxns >> C) & 1)
        NewMask |= uint32_t(1) << Map[C];
    }
    X.Txn[E] = Map[C];
  }
  X.AtomicTxns = NewMask;
}

void tmw::removeEvent(const Execution &X, EventId E, Execution &Y) {
  Y.clear(X.size() - 1);
  // Old id -> new id.
  int Map[kMaxEvents];
  unsigned Next = 0;
  for (unsigned A = 0; A < X.size(); ++A)
    Map[A] = A == E ? -1 : static_cast<int>(Next++);

  for (unsigned A = 0; A < X.size(); ++A) {
    if (A == E)
      continue;
    Y.event(Map[A]) = X.event(A);
    Y.Txn[Map[A]] = X.Txn[A];
    Y.Cr[Map[A]] = X.Cr[A];
  }
  Y.AtomicTxns = X.AtomicTxns;

  auto CopyRel = [&](const Relation &Src, Relation &Dst) {
    Src.forEachPair([&](EventId A, EventId B) {
      if (A != E && B != E)
        Dst.insert(Map[A], Map[B]);
    });
  };
  CopyRel(X.Po, Y.Po);
  CopyRel(X.Rf, Y.Rf);
  CopyRel(X.Co, Y.Co);
  CopyRel(X.Addr, Y.Addr);
  CopyRel(X.Data, Y.Data);
  CopyRel(X.Ctrl, Y.Ctrl);
  CopyRel(X.Rmw, Y.Rmw);
  compactTxnClasses(Y);
}

unsigned tmw::downgradesOf(const Execution &X, EventId E, Arch A,
                           Event (&Out)[2]) {
  const Event &Ev = X.event(E);
  unsigned N = 0;
  auto WithOrder = [&](MemOrder MO) {
    Out[N] = Ev;
    Out[N++].Order = MO;
  };
  auto WithFence = [&](FenceKind FK) {
    Out[N] = Ev;
    Out[N++].Fence = FK;
  };

  switch (A) {
  case Arch::SC:
  case Arch::TSC:
  case Arch::X86:
    break;
  case Arch::Power:
    if (Ev.isFence() && Ev.Fence == FenceKind::Sync)
      WithFence(FenceKind::LwSync);
    break;
  case Arch::Armv8:
    if (Ev.isRead() && Ev.Order == MemOrder::Acquire)
      WithOrder(MemOrder::NonAtomic);
    if (Ev.isWrite() && Ev.Order == MemOrder::Release)
      WithOrder(MemOrder::NonAtomic);
    if (Ev.isFence() && Ev.Fence == FenceKind::Dmb) {
      WithFence(FenceKind::DmbLd);
      WithFence(FenceKind::DmbSt);
    }
    break;
  case Arch::Cpp: {
    // One step down the C++ consistency-mode lattice.
    bool IsRmwHalf =
        X.Rmw.domain().contains(E) || X.Rmw.range().contains(E);
    switch (Ev.Order) {
    case MemOrder::SeqCst:
      if (Ev.isRead())
        WithOrder(MemOrder::Acquire);
      else if (Ev.isWrite())
        WithOrder(MemOrder::Release);
      else
        WithOrder(MemOrder::AcqRel);
      break;
    case MemOrder::AcqRel:
      WithOrder(MemOrder::Acquire);
      WithOrder(MemOrder::Release);
      break;
    case MemOrder::Acquire:
    case MemOrder::Release:
      WithOrder(MemOrder::Relaxed);
      break;
    case MemOrder::Relaxed:
      // RMW halves must stay atomic.
      if (!IsRmwHalf && Ev.isMemoryAccess())
        WithOrder(MemOrder::NonAtomic);
      break;
    case MemOrder::NonAtomic:
      break;
    }
    break;
  }
  }
  return N;
}

std::vector<Execution> tmw::relaxOneStep(const Execution &X,
                                         const Vocabulary &V) {
  std::vector<Execution> Out;
  forEachRelaxation(X, V, [&Out](const Execution &Y) {
    Out.push_back(Y);
    return true;
  });
  return Out;
}

bool tmw::isMinimallyInconsistent(const ExecutionAnalysis &A,
                                  const MemoryModel &M, const Vocabulary &V) {
  if (M.consistent(A))
    return false;
  // Each relaxation child is checked through a per-thread analysis arena:
  // retargeting via reset() is a generation bump, where the implicit
  // `Execution -> ExecutionAnalysis` conversion would construct (and
  // zero) a fresh ~25 KB cache block per child. The arena's target
  // dangles between calls (the children live in the stream's scratch
  // storage); it is never read before the next reset().
  static thread_local std::optional<ExecutionAnalysis> Arena;
  return forEachRelaxation(A.execution(), V, [&M](const Execution &Y) {
    if (!Arena)
      Arena.emplace(Y);
    else
      Arena->reset(Y);
    return M.consistent(*Arena);
  });
}

namespace {

/// Serialise with explicit thread and location renamings applied.
std::vector<uint8_t> encodeWith(const Execution &X,
                                const std::vector<unsigned> &ThreadPerm,
                                const std::vector<unsigned> &LocPerm) {
  // New event order: threads in permuted order, po order within.
  unsigned N = X.size();
  std::vector<EventId> NewOrder;
  for (unsigned NT = 0; NT < ThreadPerm.size(); ++NT) {
    unsigned OldT = ThreadPerm[NT];
    std::vector<EventId> Es;
    for (unsigned E = 0; E < N; ++E)
      if (X.event(E).Thread == OldT)
        Es.push_back(E);
    std::sort(Es.begin(), Es.end(), [&X](EventId A, EventId B) {
      return X.Po.contains(A, B);
    });
    NewOrder.insert(NewOrder.end(), Es.begin(), Es.end());
  }
  std::vector<int> NewIdOf(N, -1);
  for (unsigned I = 0; I < NewOrder.size(); ++I)
    NewIdOf[NewOrder[I]] = static_cast<int>(I);

  std::vector<uint8_t> Enc;
  Enc.push_back(static_cast<uint8_t>(N));
  // Transaction classes renumbered by first occurrence in the new order.
  std::vector<int> TxnMap(kMaxTxns, -1), CrMap(kMaxEvents, -1);
  int NextTxn = 0, NextCr = 0;
  for (EventId Old : NewOrder) {
    const Event &Ev = X.event(Old);
    Enc.push_back(static_cast<uint8_t>(Ev.Kind));
    Enc.push_back(static_cast<uint8_t>(
        Ev.Loc < 0 ? 255 : LocPerm[static_cast<unsigned>(Ev.Loc)]));
    Enc.push_back(static_cast<uint8_t>(Ev.Order));
    Enc.push_back(static_cast<uint8_t>(Ev.Fence));
    int T = X.Txn[Old];
    if (T != kNoClass && TxnMap[T] == -1)
      TxnMap[T] = NextTxn++;
    Enc.push_back(static_cast<uint8_t>(T == kNoClass ? 255 : TxnMap[T]));
    Enc.push_back(static_cast<uint8_t>(
        T != kNoClass && ((X.AtomicTxns >> T) & 1) ? 1 : 0));
    int C = X.Cr[Old];
    if (C != kNoClass && CrMap[C] == -1)
      CrMap[C] = NextCr++;
    Enc.push_back(static_cast<uint8_t>(C == kNoClass ? 255 : CrMap[C]));
  }
  // Thread boundaries.
  for (EventId Old : NewOrder)
    Enc.push_back(static_cast<uint8_t>(X.event(Old).Thread));

  for (const Relation *Rel :
       {&X.Po, &X.Rf, &X.Co, &X.Addr, &X.Data, &X.Ctrl, &X.Rmw})
    for (unsigned NewA = 0; NewA < N; ++NewA) {
      uint64_t Row = 0;
      EventId OldA = NewOrder[NewA];
      for (EventId OldB : Rel->successors(OldA))
        Row |= uint64_t(1) << NewIdOf[OldB];
      for (unsigned Byte = 0; Byte < 8; ++Byte)
        Enc.push_back(static_cast<uint8_t>(Row >> (8 * Byte)));
    }
  return Enc;
}

} // namespace

std::vector<uint8_t> tmw::canonicalEncoding(const Execution &X) {
  unsigned NumThreads = X.numThreads();
  unsigned NumLocs = X.numLocations();

  // Candidate thread permutations: only permutations preserving
  // non-increasing size order can produce the canonical skeleton.
  std::vector<unsigned> ThreadIds(NumThreads);
  std::iota(ThreadIds.begin(), ThreadIds.end(), 0);
  std::vector<unsigned> Sizes(NumThreads, 0);
  for (unsigned E = 0; E < X.size(); ++E)
    ++Sizes[X.event(E).Thread];
  std::sort(ThreadIds.begin(), ThreadIds.end(),
            [&](unsigned A, unsigned B) {
              if (Sizes[A] != Sizes[B])
                return Sizes[A] > Sizes[B];
              return A < B;
            });

  std::vector<uint8_t> Best;
  std::vector<unsigned> ThreadPerm = ThreadIds;
  // Permute within equal-size groups only.
  std::sort(ThreadPerm.begin(), ThreadPerm.end());
  do {
    bool SizeOrdered = true;
    for (unsigned I = 1; I < ThreadPerm.size(); ++I)
      if (Sizes[ThreadPerm[I - 1]] < Sizes[ThreadPerm[I]])
        SizeOrdered = false;
    if (!SizeOrdered)
      continue;
    std::vector<unsigned> LocPerm(NumLocs);
    std::iota(LocPerm.begin(), LocPerm.end(), 0);
    std::vector<unsigned> Inverse(NumLocs);
    do {
      for (unsigned I = 0; I < NumLocs; ++I)
        Inverse[LocPerm[I]] = I;
      std::vector<uint8_t> Enc = encodeWith(X, ThreadPerm, Inverse);
      if (Best.empty() || Enc < Best)
        Best = Enc;
    } while (std::next_permutation(LocPerm.begin(), LocPerm.end()));
  } while (std::next_permutation(ThreadPerm.begin(), ThreadPerm.end()));

  return Best;
}

std::vector<uint8_t> tmw::concreteEncoding(const Execution &X) {
  std::vector<unsigned> ThreadPerm(X.numThreads());
  std::iota(ThreadPerm.begin(), ThreadPerm.end(), 0);
  std::vector<unsigned> LocPerm(X.numLocations());
  std::iota(LocPerm.begin(), LocPerm.end(), 0);
  return encodeWith(X, ThreadPerm, LocPerm);
}

uint64_t tmw::canonicalHash(const Execution &X) {
  std::vector<uint8_t> Enc = canonicalEncoding(X);
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint8_t B : Enc) {
    H ^= B;
    H *= 0x100000001b3ull;
  }
  return H;
}
