//===- Gen.cpp - Seeded litmus-program generator with lint admission ------===//

#include "Gen.h"
#include "Common.h"

#include "enumerate/Candidates.h"
#include "lint/Lint.h"
#include "litmus/Parser.h"

#include <string>

using namespace tmw;

namespace tmwbench {
namespace {

enum class Arch3 { X86, Power, Armv8 };

const std::vector<const char *> &fencesOf(Arch3 A) {
  static const std::vector<const char *> X86 = {"mfence"};
  static const std::vector<const char *> Power = {"sync", "lwsync", "isync"};
  static const std::vector<const char *> Armv8 = {"dmb", "dmb.ld", "dmb.st",
                                                  "isb"};
  return A == Arch3::X86 ? X86 : A == Arch3::Power ? Power : Armv8;
}

/// One abstract instruction before indices are final.
struct Op {
  enum Kind { Load, Store, Fence, TxBegin, TxEnd } K = Load;
  unsigned Loc = 0;
  int Value = 0;
  const char *FenceName = nullptr;
  int RmwPartner = -1; ///< final index of the partner
  bool RmwLoad = false; ///< first half of an RMW pair, partner unresolved
  std::string Deps;    ///< rendered dependency attributes
};

const char *const LocNames[] = {"x", "y", "z"};

} // namespace

std::string generateSource(uint64_t Seed, uint64_t Index) {
  Rng R(Seed * 0x2545f4914f6cdd1dull ^ (Index + 1) * 0x9e3779b97f4a7c15ull);
  Arch3 A = static_cast<Arch3>(R.below(3));
  unsigned Events = kMinEvents + R.below(kMaxEvents - kMinEvents + 1);
  unsigned NumThreads = Events >= 6 && R.chance(35) ? 3 : 2;
  unsigned NumLocs = Events >= 6 && R.chance(30) ? 3 : 2;

  // Deal the events: two per thread, the rest at random.
  std::vector<unsigned> PerThread(NumThreads, 2);
  for (unsigned E = 2 * NumThreads; E < Events; ++E)
    ++PerThread[R.below(NumThreads)];

  std::vector<int> NextValue(NumLocs, 1);
  std::vector<bool> LocUsed(NumLocs, false);
  std::vector<std::vector<Op>> Threads(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    std::vector<Op> Body;
    unsigned Slots = PerThread[T];
    for (unsigned S = 0; S < Slots; ++S) {
      bool Inner = S > 0 && S + 1 < Slots;
      if (Inner && R.chance(22)) {
        const auto &Fs = fencesOf(A);
        Op F;
        F.K = Op::Fence;
        F.FenceName = Fs[R.below(static_cast<unsigned>(Fs.size()))];
        Body.push_back(F);
        continue;
      }
      unsigned Loc = R.below(NumLocs);
      LocUsed[Loc] = true;
      if (S + 1 < Slots && R.chance(8)) {
        // An RMW pair: exclusive load then exclusive store, same location.
        Op L, W;
        L.K = Op::Load;
        W.K = Op::Store;
        L.Loc = W.Loc = Loc;
        W.Value = NextValue[Loc]++;
        L.RmwLoad = true; // partner resolved once indices are final
        Body.push_back(L);
        Body.push_back(W);
        ++S;
        continue;
      }
      Op M;
      M.K = R.chance(50) ? Op::Load : Op::Store;
      M.Loc = Loc;
      if (M.K == Op::Store)
        M.Value = NextValue[Loc]++;
      Body.push_back(M);
    }

    // Optionally wrap a contiguous run of the body in a transaction.
    if (R.chance(30)) {
      unsigned N = static_cast<unsigned>(Body.size());
      unsigned From = R.below(N);
      unsigned To = From + R.below(N - From); // inclusive
      Op B, E;
      B.K = Op::TxBegin;
      E.K = Op::TxEnd;
      Body.insert(Body.begin() + To + 1, E);
      Body.insert(Body.begin() + From, B);
    }

    // Indices are final now: resolve RMW partners and draw dependencies
    // (Power and ARMv8 only). A dependency source is usually an earlier
    // load, sometimes any earlier instruction — lint rejects those that
    // name a non-load, which is what admission is for.
    for (unsigned I = 0; I < Body.size(); ++I) {
      Op &O = Body[I];
      if (O.RmwLoad) {
        unsigned J = I + 1;
        while (Body[J].K != Op::Store) // skip a txbegin/txend in between
          ++J;
        O.RmwPartner = static_cast<int>(J);
        Body[J].RmwPartner = static_cast<int>(I);
      }
      if (A == Arch3::X86 || I == 0 ||
          (O.K != Op::Load && O.K != Op::Store) || !R.chance(25))
        continue;
      std::vector<unsigned> Loads;
      for (unsigned D = 0; D < I; ++D)
        if (Body[D].K == Op::Load)
          Loads.push_back(D);
      unsigned Src;
      if (!Loads.empty() && !R.chance(12))
        Src = Loads[R.below(static_cast<unsigned>(Loads.size()))];
      else
        Src = R.below(I);
      static const char *const LoadDeps[] = {"addr", "ctrl"};
      static const char *const StoreDeps[] = {"addr", "data", "ctrl"};
      const char *Kind =
          O.K == Op::Load ? LoadDeps[R.below(2)] : StoreDeps[R.below(3)];
      O.Deps += std::string(" ") + Kind + ":r" + std::to_string(Src);
    }
    Threads[T] = std::move(Body);
  }

  std::string Out = "name g" + std::to_string(Seed) + "-" +
                    std::to_string(Index) + "\n";
  for (unsigned L = 0; L < NumLocs; ++L)
    if (LocUsed[L])
      Out += std::string("loc ") + LocNames[L] + " 0\n";
  struct LoadRef {
    unsigned T, I, Loc;
  };
  std::vector<LoadRef> Loads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Out += "thread " + std::to_string(T) + "\n";
    for (unsigned I = 0; I < Threads[T].size(); ++I) {
      const Op &O = Threads[T][I];
      switch (O.K) {
      case Op::Load:
        Out += std::string("  load ") + LocNames[O.Loc] + " na";
        Loads.push_back({T, I, O.Loc});
        break;
      case Op::Store:
        Out += std::string("  store ") + LocNames[O.Loc] + " " +
               std::to_string(O.Value) + " na";
        break;
      case Op::Fence:
        Out += std::string("  fence ") + O.FenceName;
        break;
      case Op::TxBegin:
        Out += "  txbegin";
        break;
      case Op::TxEnd:
        Out += "  txend";
        break;
      }
      if (O.RmwPartner >= 0)
        Out += " excl rmw:" + std::to_string(O.RmwPartner);
      Out += O.Deps + "\n";
    }
  }

  // Postcondition: one to three loads, each reading the initial value or
  // some value stored to its location; a store-only program asserts a
  // final memory value instead.
  if (Loads.empty()) {
    unsigned Loc = 0;
    while (!LocUsed[Loc])
      ++Loc;
    int V = static_cast<int>(R.below(static_cast<unsigned>(NextValue[Loc])));
    Out += std::string("post mem ") + LocNames[Loc] + " " +
           std::to_string(V) + "\n";
    return Out;
  }
  unsigned NumLoads = static_cast<unsigned>(Loads.size());
  unsigned NumPost = 1 + R.below(std::min(3u, NumLoads));
  unsigned First = R.below(NumLoads);
  for (unsigned K = 0; K < NumPost; ++K) {
    const LoadRef &L = Loads[(First + K) % NumLoads];
    int V = static_cast<int>(R.below(static_cast<unsigned>(NextValue[L.Loc])));
    Out += "post reg " + std::to_string(L.T) + " r" + std::to_string(L.I) +
           " " + std::to_string(V) + "\n";
  }
  return Out;
}

namespace {

/// Admit draw \p Index of stream \p Seed: parse, lint, and bound its
/// candidate count. Returns false (and counts the reason) on rejection.
bool admit(uint64_t Seed, uint64_t Index, GenProgram &Out, GenStats &Stats) {
  ++Stats.Generated;
  std::string Source = generateSource(Seed, Index);
  ParseResult P = parseProgram(Source);
  if (!P || lintProgram(P.Prog).hasErrors()) {
    ++Stats.LintRejected;
    return false;
  }
  uint64_t Candidates = 0;
  unsigned Events = 0;
  forEachCandidate(P.Prog, [&](const Candidate &C) {
    Events = C.X.size();
    return ++Candidates <= kMaxCandidates;
  });
  if (Candidates == 0 || Candidates > kMaxCandidates) {
    ++Stats.BoundRejected;
    return false;
  }
  ++Stats.Admitted;
  Out.Name = P.Prog.Name;
  Out.Source = std::move(Source);
  Out.Candidates = Candidates;
  Out.Events = Events;
  return true;
}

} // namespace

std::vector<GenProgram> generatePool(uint64_t Seed, size_t Count,
                                     GenStats *Stats) {
  GenStats Local;
  GenStats &S = Stats ? *Stats : Local;
  std::vector<GenProgram> Pool;
  Pool.reserve(Count);
  for (uint64_t Index = 0; Pool.size() < Count; ++Index) {
    GenProgram G;
    if (admit(Seed, Index, G, S))
      Pool.push_back(std::move(G));
  }
  return Pool;
}

} // namespace tmwbench
