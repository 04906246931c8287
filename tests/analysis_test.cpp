//===- analysis_test.cpp - ExecutionAnalysis cross-checks ---------------------==//
///
/// Every derived event set and relation of `ExecutionAnalysis` must equal
/// an independent per-pair oracle written from the paper's definitions,
/// over corpus candidates, four architectures' enumerated vocabularies and
/// the Fig. 10 lock-elision shapes, in `Memoized` and `Recompute` mode and
/// on a reused arena. Every model's verdict through a shared memoized
/// analysis must equal the verdict through per-check and recompute-mode
/// analyses. Also covers the memoization/invalidation contract
/// (weakLift/strongLift caching, cache drop on copy and on reset) and the
/// sharded enumeration partition.
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Candidates.h"
#include "enumerate/Relaxation.h"
#include "hw/ImplModel.h"
#include "litmus/Library.h"
#include "metatheory/LockElision.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"
#include "synth/Conformance.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

using namespace tmw;

namespace {

/// All transaction placements over all bases of \p V at \p NumEvents,
/// capped at \p Cap executions (placement-free bases included).
std::vector<Execution> corpus(const Vocabulary &V, unsigned NumEvents,
                              unsigned Cap) {
  std::vector<Execution> Out;
  ExecutionEnumerator Enum(V, NumEvents);
  Enum.forEachBase([&](Execution &Base) {
    Out.push_back(Base);
    if (Out.size() >= Cap)
      return false;
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      Out.push_back(X);
      return Out.size() < Cap;
    });
  });
  return Out;
}

/// A relation as a plain N×N truth table: the oracle's own representation,
/// so that no `Relation` kernel sits between a definition and its check.
class Table {
public:
  Table() = default;
  template <typename Pred> Table(unsigned N, Pred &&P) : N(N), Bits(N * N) {
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B)
        Bits[A * N + B] = P(A, B);
  }
  bool operator()(EventId A, EventId B) const { return Bits[A * N + B]; }
  unsigned size() const { return N; }

private:
  unsigned N = 0;
  std::vector<bool> Bits;
};

/// An independent oracle for `ExecutionAnalysis`: every derived event set
/// and relation written as a per-event or per-pair predicate straight from
/// its definition (§2.1, §3.1, §3.3, §7.2, §8.3). It reads only event
/// labels, class ids and membership in the stored relations, never a
/// `Relation` operator, so a slip in an analysis formula has no twin here.
class Oracle {
public:
  explicit Oracle(const Execution &X) : X(X), N(X.size()) {
    auto Po = [&](EventId A, EventId B) { return X.Po.contains(A, B); };
    auto Rf = [&](EventId A, EventId B) { return X.Rf.contains(A, B); };
    auto Co = [&](EventId A, EventId B) { return X.Co.contains(A, B); };
    auto Same = [&](EventId A, EventId B) {
      return X.event(A).Thread == X.event(B).Thread;
    };
    CoPlus = closure(Table(N, Co), /*Reflexive=*/false);
    // (rf ; rmw)*: a write reaches the write of an RMW that read from it.
    Table RfRmw(N, [&](EventId A, EventId B) {
      return exists(
          [&](EventId C) { return Rf(A, C) && X.Rmw.contains(C, B); });
    });
    RfRmwStar = closure(RfRmw, /*Reflexive=*/true);

    Sloc = Table(N, [&](EventId A, EventId B) {
      return access(A) && access(B) && X.event(A).Loc == X.event(B).Loc;
    });
    SameThread = Table(N, Same);
    PoLoc = Table(N, [&](EventId A, EventId B) {
      return Po(A, B) && Sloc(A, B);
    });
    PoImm = Table(N, [&](EventId A, EventId B) {
      return Po(A, B) &&
             !exists([&](EventId C) { return Po(A, C) && Po(C, B); });
    });
    // A read is fr-before the same-location writes that are not its rf
    // source or co-before it; with no source, before all of them.
    Fr = Table(N, [&](EventId A, EventId B) {
      return read(A) && write(B) && Sloc(A, B) &&
             !exists([&](EventId W) {
               return Rf(W, A) && (W == B || CoPlus(B, W));
             });
    });
    Com = Table(N, [&](EventId A, EventId B) {
      return Rf(A, B) || Co(A, B) || Fr(A, B);
    });
    Ecom = Table(N, [&](EventId A, EventId B) {
      return Com(A, B) ||
             exists([&](EventId W) { return Co(A, W) && Rf(W, B); });
    });
    Rfe = Table(N, [&](EventId A, EventId B) {
      return Rf(A, B) && !Same(A, B);
    });
    Rfi = Table(N, [&](EventId A, EventId B) {
      return Rf(A, B) && Same(A, B);
    });
    Coe = Table(N, [&](EventId A, EventId B) {
      return Co(A, B) && !Same(A, B);
    });
    Coi = Table(N, [&](EventId A, EventId B) {
      return Co(A, B) && Same(A, B);
    });
    Fre = Table(N, [&](EventId A, EventId B) {
      return Fr(A, B) && !Same(A, B);
    });
    Fri = Table(N, [&](EventId A, EventId B) {
      return Fr(A, B) && Same(A, B);
    });

    Stxn = Table(N, [&](EventId A, EventId B) {
      return transactional(A) && X.Txn[A] == X.Txn[B];
    });
    StxnAtomic = Table(N, [&](EventId A, EventId B) {
      return atomicTransactional(A) && X.Txn[A] == X.Txn[B];
    });
    // A po edge entering or leaving a transaction: at least one end is
    // transactional and the two ends are not in the same one.
    Tfence = Table(N, [&](EventId A, EventId B) {
      return Po(A, B) && (transactional(A) || transactional(B)) &&
             !Stxn(A, B);
    });
    Scr = Table(N, [&](EventId A, EventId B) {
      return X.Cr[A] != kNoClass && X.Cr[A] == X.Cr[B];
    });
    // An elided region is one a TxLock opens.
    Scrt = Table(N, [&](EventId A, EventId B) {
      return Scr(A, B) && exists([&](EventId L) {
               return X.Cr[L] == X.Cr[A] &&
                      X.event(L).Kind == EventKind::TxLock;
             });
    });
    for (unsigned K = 0; K < kNumFenceKinds; ++K)
      FenceRel[K] = Table(N, [&](EventId A, EventId B) {
        return exists([&](EventId F) {
          return fenceOf(F, FenceKind(K)) && Po(A, F) && Po(F, B);
        });
      });

    WeakLiftComStxn = lift(Com, Stxn, /*Strong=*/false);
    StrongLiftComStxn = lift(Com, Stxn, /*Strong=*/true);
    StrongLiftComStxnAtomic = lift(Com, StxnAtomic, /*Strong=*/true);
    CppTransactionalSw = lift(Ecom, Stxn, /*Strong=*/false);

    // RC11 sw (§7.1): a release event, optionally a fence po-before the
    // write that heads a release sequence (that write, optionally a
    // po-later same-location atomic write, then rf;rmw steps), read by an
    // atomic read, optionally po-before a fence, which is the acquire.
    Table Rs(N, [&](EventId Head, EventId W) {
      return write(Head) && exists([&](EventId M) {
               return (M == Head || PoLoc(Head, M)) && write(M) &&
                      atomic(M) && RfRmwStar(M, W);
             });
    });
    Table RsRf(N, [&](EventId Head, EventId R) {
      return read(R) && atomic(R) &&
             exists([&](EventId W) { return Rs(Head, W) && Rf(W, R); });
    });
    CppSw = Table(N, [&](EventId A, EventId B) {
      if (!release(A) || !acquire(B))
        return false;
      return exists([&](EventId Head) {
        if (Head != A && !(fence(A) && Po(A, Head)))
          return false;
        return exists([&](EventId R) {
          return RsRf(Head, R) && (R == B || (Po(R, B) && fence(B)));
        });
      });
    });
  }

  // Event sets, one predicate each.
  bool read(EventId E) const { return X.event(E).Kind == EventKind::Read; }
  bool write(EventId E) const { return X.event(E).Kind == EventKind::Write; }
  bool fence(EventId E) const { return X.event(E).Kind == EventKind::Fence; }
  bool access(EventId E) const { return read(E) || write(E); }
  bool fenceOf(EventId E, FenceKind K) const {
    return fence(E) && X.event(E).Fence == K;
  }
  bool atomic(EventId E) const {
    return X.event(E).Order != MemOrder::NonAtomic;
  }
  bool acquire(EventId E) const {
    MemOrder O = X.event(E).Order;
    return O == MemOrder::Acquire || O == MemOrder::AcqRel ||
           O == MemOrder::SeqCst;
  }
  bool release(EventId E) const {
    MemOrder O = X.event(E).Order;
    return O == MemOrder::Release || O == MemOrder::AcqRel ||
           O == MemOrder::SeqCst;
  }
  bool seqCst(EventId E) const {
    return X.event(E).Order == MemOrder::SeqCst;
  }
  bool transactional(EventId E) const { return X.Txn[E] != kNoClass; }
  bool atomicTransactional(EventId E) const {
    return transactional(E) && ((X.AtomicTxns >> X.Txn[E]) & 1);
  }

  const Execution &X;
  unsigned N;
  Table CoPlus, RfRmwStar;
  Table Sloc, SameThread, PoLoc, PoImm, Fr, Com, Ecom, Rfe, Rfi, Coe, Coi,
      Fre, Fri, Stxn, StxnAtomic, Tfence, Scr, Scrt;
  Table FenceRel[kNumFenceKinds];
  Table WeakLiftComStxn, StrongLiftComStxn, StrongLiftComStxnAtomic;
  Table CppSw, CppTransactionalSw;

private:
  template <typename Pred> bool exists(Pred &&P) const {
    for (EventId E = 0; E < N; ++E)
      if (P(E))
        return true;
    return false;
  }

  /// The (reflexive-)transitive closure of \p Step, by path search.
  Table closure(const Table &Step, bool Reflexive) const {
    std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
    for (EventId A = 0; A < N; ++A) {
      std::vector<EventId> Stack = {A};
      std::vector<bool> Seen(N, false);
      while (!Stack.empty()) {
        EventId C = Stack.back();
        Stack.pop_back();
        for (EventId B = 0; B < N; ++B)
          if (Step(C, B) && !Seen[B]) {
            Seen[B] = true;
            Stack.push_back(B);
          }
      }
      Reach[A] = Seen;
      if (Reflexive)
        Reach[A][A] = true;
    }
    return Table(N, [&](EventId A, EventId B) { return bool(Reach[A][B]); });
  }

  /// weaklift(r, t)(a, b): an r-edge c -> d outside t with a t c and d t b;
  /// stronglift relaxes both t to t? (§3.3).
  Table lift(const Table &R, const Table &T, bool Strong) const {
    return Table(N, [&](EventId A, EventId B) {
      return exists([&](EventId C) {
        if (!T(A, C) && !(Strong && A == C))
          return false;
        return exists([&](EventId D) {
          return R(C, D) && !T(C, D) && (T(D, B) || (Strong && D == B));
        });
      });
    });
  }
};

::testing::AssertionResult sameRelation(const Relation &Got,
                                        const Table &Want) {
  if (Got.size() != Want.size())
    return ::testing::AssertionFailure()
           << "size " << Got.size() << ", want " << Want.size();
  for (EventId A = 0; A < Want.size(); ++A)
    for (EventId B = 0; B < Want.size(); ++B)
      if (Got.contains(A, B) != Want(A, B))
        return ::testing::AssertionFailure()
               << char('a' + A) << "->" << char('a' + B)
               << (Want(A, B) ? " missing" : " spurious");
  return ::testing::AssertionSuccess();
}

template <typename Pred>
::testing::AssertionResult sameSet(EventSet Got, unsigned N, Pred &&Want) {
  for (EventId E = 0; E < kMaxEvents; ++E)
    if (Got.contains(E) != (E < N && Want(E)))
      return ::testing::AssertionFailure()
             << char('a' + E) << (Got.contains(E) ? " spurious" : " missing");
  return ::testing::AssertionSuccess();
}

/// Compare every derived term of \p A with the oracle, twice (the second
/// pass reads whatever the first one memoized).
void expectMatchesOracle(const ExecutionAnalysis &A, const Oracle &O,
                         const std::string &Where) {
  auto Rel = [&](const char *Name, const Relation &Got, const Table &Want) {
    EXPECT_TRUE(sameRelation(Got, Want))
        << Name << " on " << Where << "\n"
        << O.X.dump();
  };
  auto Set = [&](const char *Name, EventSet Got, auto &&Want) {
    EXPECT_TRUE(sameSet(Got, O.N, Want))
        << Name << " on " << Where << "\n"
        << O.X.dump();
  };
  for (int Round = 0; Round < 2; ++Round) {
    Set("reads", A.reads(), [&](EventId E) { return O.read(E); });
    Set("writes", A.writes(), [&](EventId E) { return O.write(E); });
    Set("fences", A.fences(), [&](EventId E) { return O.fence(E); });
    Set("accesses", A.accesses(), [&](EventId E) { return O.access(E); });
    Set("atomics", A.atomics(), [&](EventId E) { return O.atomic(E); });
    Set("acquires", A.acquires(), [&](EventId E) { return O.acquire(E); });
    Set("releases", A.releases(), [&](EventId E) { return O.release(E); });
    Set("seqCst", A.seqCst(), [&](EventId E) { return O.seqCst(E); });
    Set("transactional", A.transactional(),
        [&](EventId E) { return O.transactional(E); });
    Set("atomicTransactional", A.atomicTransactional(),
        [&](EventId E) { return O.atomicTransactional(E); });
    Rel("sloc", A.sloc(), O.Sloc);
    Rel("sameThread", A.sameThread(), O.SameThread);
    Rel("poLoc", A.poLoc(), O.PoLoc);
    Rel("poImm", A.poImm(), O.PoImm);
    Rel("fr", A.fr(), O.Fr);
    Rel("com", A.com(), O.Com);
    Rel("ecom", A.ecom(), O.Ecom);
    Rel("rfe", A.rfe(), O.Rfe);
    Rel("rfi", A.rfi(), O.Rfi);
    Rel("coe", A.coe(), O.Coe);
    Rel("coi", A.coi(), O.Coi);
    Rel("fre", A.fre(), O.Fre);
    Rel("fri", A.fri(), O.Fri);
    Rel("external(fr)", A.external(A.fr()), O.Fre);
    Rel("internal(co)", A.internal(A.co()), O.Coi);
    Rel("stxn", A.stxn(), O.Stxn);
    Rel("stxnAtomic", A.stxnAtomic(), O.StxnAtomic);
    Rel("tfence", A.tfence(), O.Tfence);
    Rel("scr", A.scr(), O.Scr);
    Rel("scrt", A.scrt(), O.Scrt);
    for (unsigned K = 0; K < kNumFenceKinds; ++K) {
      Set("fences(K)", A.fences(FenceKind(K)),
          [&](EventId E) { return O.fenceOf(E, FenceKind(K)); });
      Rel("fenceRel(K)", A.fenceRel(FenceKind(K)), O.FenceRel[K]);
    }
    Rel("weakLiftComStxn", A.weakLiftComStxn(), O.WeakLiftComStxn);
    Rel("strongLiftComStxn", A.strongLiftComStxn(), O.StrongLiftComStxn);
    Rel("strongLiftComStxnAtomic", A.strongLiftComStxnAtomic(),
        O.StrongLiftComStxnAtomic);
    Rel("cppSynchronisesWith", A.cppSynchronisesWith(), O.CppSw);
    Rel("cppTransactionalSw", A.cppTransactionalSw(), O.CppTransactionalSw);
  }
}

/// Check \p X against the oracle through a fresh memoized analysis, a
/// fresh `Recompute` one, and \p Arena, which the caller has already
/// pointed at \p X (by `reset`, or by transaction invalidation when only
/// the placement changed).
void expectAllModesMatchOracle(const Execution &X, ExecutionAnalysis &Arena,
                               const std::string &Where) {
  const Oracle O(X);
  expectMatchesOracle(ExecutionAnalysis(X), O, Where + " [memoized]");
  expectMatchesOracle(ExecutionAnalysis(X, AnalysisCaching::Recompute), O,
                      Where + " [recompute]");
  expectMatchesOracle(Arena, O, Where + " [arena]");
}

TEST(AnalysisOracle, DerivedTermsMatchPerPairDefinitions) {
  // The arena starts out on 64 events, so every later execution reuses
  // slots that once held a larger value.
  const Execution Big = shapes::denseSixtyFour();
  ExecutionAnalysis Arena(Big);
  unsigned Checked = 0;

  // Every candidate of every corpus program.
  for (const CorpusEntry &E : sharedCorpus()) {
    forEachCandidate(E.Prog, [&](const Candidate &C) {
      Arena.reset(C.X);
      expectAllModesMatchOracle(C.X, Arena, E.Name);
      ++Checked;
      return !::testing::Test::HasFailure();
    });
    if (::testing::Test::HasFailure())
      return;
  }

  // The enumerated vocabularies, each base followed by its transaction
  // placements exactly as the synthesis search drives its arena: reset per
  // base, transaction invalidation per placement.
  for (Arch A : {Arch::X86, Arch::Power, Arch::Armv8, Arch::Cpp}) {
    ExecutionEnumerator Enum(Vocabulary::forArch(A), 4);
    unsigned PerArch = 0;
    Enum.forEachBase([&](Execution &Base) {
      Arena.reset(Base);
      expectAllModesMatchOracle(Base, Arena, "base");
      Enum.forEachTxnPlacement(Base, [&](Execution &X) {
        Arena.invalidateTransactionalState();
        expectAllModesMatchOracle(X, Arena, "placement");
        return ++PerArch < 1000 && !::testing::Test::HasFailure();
      });
      return ++PerArch < 1000 && !::testing::Test::HasFailure();
    });
    Checked += PerArch;
    if (::testing::Test::HasFailure())
      return;
  }

  // Hand-built shapes: a transaction strictly inside its thread (po edges
  // both enter and leave it) beside an atomic transaction and a
  // release/acquire pair with a release sequence through an RMW; the
  // paper's transactional shapes; and the Fig. 10 lock-elision shapes,
  // abstract (a normal and an elided critical region), hand-built
  // concrete, and the elided image of the abstract execution on every
  // hardware target with each lock-variable completion.
  ExecutionBuilder B;
  EventId Rel = B.write(0, 0, MemOrder::Release, 1);
  EventId In1 = B.read(0, 1);
  EventId In2 = B.write(0, 1, MemOrder::NonAtomic, 1);
  B.fence(0, FenceKind::CppFence, MemOrder::SeqCst);
  B.read(0, 2, MemOrder::Relaxed);
  EventId Upd = B.read(1, 0, MemOrder::Relaxed);
  EventId UpdW = B.write(1, 0, MemOrder::Relaxed, 2);
  EventId Acq = B.read(2, 0, MemOrder::Acquire);
  EventId At = B.write(2, 2, MemOrder::NonAtomic, 1);
  B.rf(Rel, Upd);
  B.rmw(Upd, UpdW);
  B.rf(UpdW, Acq);
  B.txn({In1, In2});
  B.txn({Acq, At}, /*Atomic=*/true);
  std::vector<Execution> Shapes = {
      B.build(),
      shapes::powerWrcTxnObserved(),
      shapes::powerWrcTxnWrite(),
      shapes::powerIriwTxns(false),
      shapes::powerIriwTxns(true),
      shapes::powerRemark51(),
      shapes::rmwAcrossTxns(false),
      shapes::rmwAcrossTxns(true),
      shapes::dongolComparison(),
      shapes::lockElisionAbstract()};
  for (bool Fixed : {false, true})
    for (bool LoadVariant : {false, true})
      Shapes.push_back(shapes::lockElisionConcrete(Fixed, LoadVariant));
  for (Arch A : {Arch::X86, Arch::Power, Arch::Armv8})
    for (bool Fixed : {false, true})
      for (Execution &Y : lockVarCompletions(
               elideLocks(shapes::lockElisionAbstract(), A, Fixed)))
        Shapes.push_back(std::move(Y));
  for (const Execution &X : Shapes) {
    Arena.reset(X);
    expectAllModesMatchOracle(X, Arena, "hand-built shape");
    ++Checked;
  }
  EXPECT_GT(Checked, 1000u);
}

TEST(AnalysisCrossCheck, VerdictsAgreeAcrossAllSixModels) {
  ScModel Sc;
  TscModel Tsc;
  X86Model X86;
  PowerModel Power;
  Armv8Model Armv8;
  CppModel Cpp;
  const MemoryModel *Models[] = {&Sc, &Tsc, &X86, &Power, &Armv8, &Cpp};

  for (Arch A : {Arch::X86, Arch::Cpp}) {
    for (const Execution &X :
         corpus(Vocabulary::forArch(A), 3, /*Cap=*/400)) {
      // One memoized analysis shared across all six models...
      ExecutionAnalysis Shared(X);
      for (const MemoryModel *M : Models) {
        ConsistencyResult Cached = M->check(Shared);
        // ...versus a fresh per-check analysis (the compatibility path)...
        ConsistencyResult Fresh = M->check(X);
        // ...versus full per-access recomputation (the seed behaviour).
        ExecutionAnalysis Recomp(X, AnalysisCaching::Recompute);
        ConsistencyResult Uncached = M->check(Recomp);
        EXPECT_EQ(Cached.Consistent, Fresh.Consistent)
            << M->name() << "\n"
            << X.dump();
        EXPECT_EQ(Cached.Consistent, Uncached.Consistent)
            << M->name() << "\n"
            << X.dump();
        EXPECT_EQ(Cached.FailedAxiom, Fresh.FailedAxiom) << M->name();
        EXPECT_EQ(Cached.FailedAxiom, Uncached.FailedAxiom)
            << M->name();
      }
    }
  }
}

TEST(AnalysisCrossCheck, ArenaInvalidationMatchesFreshAnalyses) {
  // Mirror the sharded synthesis loop: one arena reset per base,
  // transaction-state invalidation per placement.
  X86Model Tm;
  Vocabulary V = Vocabulary::forArch(Arch::X86);
  ExecutionEnumerator Enum(V, 3);
  unsigned Compared = 0;
  Execution First = shapes::storeBuffering();
  ExecutionAnalysis Arena(First);
  Enum.forEachBase([&](Execution &Base) {
    Arena.reset(Base);
    EXPECT_EQ(Tm.consistent(Arena), Tm.consistent(ExecutionAnalysis(Base)));
    return Enum.forEachTxnPlacement(Base, [&](Execution &X) {
      Arena.invalidateTransactionalState();
      EXPECT_EQ(Tm.consistent(Arena), Tm.consistent(ExecutionAnalysis(X)))
          << X.dump();
      return ++Compared < 500;
    });
  });
  EXPECT_GT(Compared, 100u);
}

TEST(AnalysisMemoization, LiftedIsolationTermsComputeOnce) {
  Execution X = shapes::storeBuffering();
  X.Txn[0] = 0;
  X.Txn[1] = 0;
  ExecutionAnalysis A(X);
  uint64_t Before = A.recomputeCount();
  const Relation &First = A.strongLiftComStxn();
  uint64_t AfterFirst = A.recomputeCount();
  EXPECT_GT(AfterFirst, Before); // computed com, stxn, and the lift
  const Relation &Second = A.strongLiftComStxn();
  EXPECT_EQ(A.recomputeCount(), AfterFirst); // memoized: no recompute
  EXPECT_EQ(First, Second);

  // weakLift reuses the memoized com/stxn: only the lift itself is new.
  A.weakLiftComStxn();
  EXPECT_EQ(A.recomputeCount(), AfterFirst + 1);
  A.weakLiftComStxn();
  EXPECT_EQ(A.recomputeCount(), AfterFirst + 1);

  // Recompute mode re-derives on every access.
  ExecutionAnalysis R(X, AnalysisCaching::Recompute);
  R.strongLiftComStxn();
  uint64_t N1 = R.recomputeCount();
  R.strongLiftComStxn();
  EXPECT_GT(R.recomputeCount(), N1);
  EXPECT_EQ(R.strongLiftComStxn(), A.strongLiftComStxn());
}

TEST(AnalysisMemoization, CopyInvalidatesCaches) {
  Execution X = shapes::messagePassing();
  ExecutionAnalysis A(X);
  A.com();
  A.fenceRel(FenceKind::MFence);
  ASSERT_GT(A.recomputeCount(), 0u);

  // The copy starts cold but re-derives identical results.
  ExecutionAnalysis B(A);
  EXPECT_EQ(B.recomputeCount(), 0u);
  EXPECT_EQ(B.com(), A.com());
  EXPECT_GT(B.recomputeCount(), 0u);

  ExecutionAnalysis C = A;
  (void)C;
  ExecutionAnalysis D(X);
  D = A;
  EXPECT_EQ(D.recomputeCount(), 0u);
  EXPECT_EQ(D.fr(), ExecutionAnalysis(X).fr());
}

TEST(AnalysisMemoization, ResetRetargets) {
  Execution X = shapes::storeBuffering();
  Execution Y = shapes::messagePassing();
  ExecutionAnalysis A(X);
  EXPECT_EQ(A.com(), ExecutionAnalysis(X).com());
  A.reset(Y);
  EXPECT_EQ(A.recomputeCount(), 0u);
  EXPECT_EQ(&A.execution(), &Y);
  const ExecutionAnalysis FreshY(Y);
  EXPECT_EQ(A.com(), FreshY.com());
  EXPECT_EQ(A.rfe(), FreshY.rfe());
}

/// Every memoized event set of \p A; reading them fills each slot.
std::vector<EventSet> allSets(const ExecutionAnalysis &A) {
  std::vector<EventSet> Out = {A.reads(),    A.writes(),   A.fences(),
                               A.accesses(), A.atomics(),  A.acquires(),
                               A.releases(), A.seqCst(),   A.transactional(),
                               A.atomicTransactional()};
  for (unsigned K = 0; K < kNumFenceKinds; ++K)
    Out.push_back(A.fences(static_cast<FenceKind>(K)));
  return Out;
}

/// Every memoized relation of \p A plus one transaction-dependent
/// `memoTerm` entry; reading them fills each slot.
std::vector<Relation> allRelations(const ExecutionAnalysis &A) {
  static const char TermTag = 0;
  std::vector<Relation> Out = {A.sloc(),
                               A.sameThread(),
                               A.poLoc(),
                               A.poImm(),
                               A.fr(),
                               A.com(),
                               A.ecom(),
                               A.rfe(),
                               A.rfi(),
                               A.coe(),
                               A.coi(),
                               A.fre(),
                               A.fri(),
                               A.stxn(),
                               A.stxnAtomic(),
                               A.tfence(),
                               A.scr(),
                               A.scrt(),
                               A.cppSynchronisesWith(),
                               A.cppTransactionalSw(),
                               A.weakLiftComStxn(),
                               A.strongLiftComStxn(),
                               A.strongLiftComStxnAtomic()};
  for (unsigned K = 0; K < kNumFenceKinds; ++K)
    Out.push_back(A.fenceRel(static_cast<FenceKind>(K)));
  Out.push_back(A.memoTerm(&TermTag, /*Salt=*/7, /*TxnDependent=*/true, [&] {
    return A.com().compose(A.stxn()) | A.po().inverse();
  }));
  return Out;
}

TEST(AnalysisMemoization, ResetFromSixtyFourEventsMatchesFreshAnalysis) {
  // An arena whose every slot and term holds a 64-event value, retargeted
  // to a 4-event execution, must answer exactly like a fresh analysis.
  const Execution Big = shapes::denseSixtyFour();
  Execution Small = shapes::messagePassing();
  Small.Txn[0] = 0;
  Small.Txn[1] = 0;
  Small.AtomicTxns = 1;
  ExecutionAnalysis Arena(Big);
  ASSERT_EQ(allRelations(Arena).front().size(), kMaxEvents);
  allSets(Arena);
  Arena.reset(Small);
  const ExecutionAnalysis Fresh(Small);
  EXPECT_EQ(Arena.execution().hash(), Fresh.execution().hash());
  EXPECT_EQ(allSets(Arena), allSets(Fresh));
  // Twice: once computing into the reused slots, once from the memo.
  for (int Round = 0; Round < 2; ++Round) {
    std::vector<Relation> Got = allRelations(Arena);
    std::vector<Relation> Want = allRelations(Fresh);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I < Got.size(); ++I) {
      EXPECT_EQ(Got[I].size(), Small.size()) << "term " << I;
      EXPECT_EQ(Got[I], Want[I]) << "term " << I;
    }
  }
}

TEST(ShardedEnumeration, ParallelForbidSynthesisMatchesSequential) {
  X86Model Tm;
  X86Model Baseline;
  Baseline.setAxiomMask(baselineMask(Baseline.axioms()));
  Vocabulary V = Vocabulary::forArch(Arch::X86);

  ForbidSuite Seq = synthesizeForbid(Tm, Baseline, V, 4, 300.0, 1);
  ForbidSuite Par = synthesizeForbid(Tm, Baseline, V, 4, 300.0, 4);
  ASSERT_TRUE(Seq.Complete);
  ASSERT_TRUE(Par.Complete);
  EXPECT_EQ(Seq.BasesVisited, Par.BasesVisited);
  EXPECT_EQ(Seq.PlacementsVisited, Par.PlacementsVisited);

  std::set<uint64_t> SeqHashes, ParHashes;
  for (const Execution &X : Seq.Tests)
    SeqHashes.insert(canonicalHash(X));
  for (const Execution &X : Par.Tests)
    ParHashes.insert(canonicalHash(X));
  EXPECT_EQ(SeqHashes, ParHashes);
  EXPECT_EQ(Seq.Tests.size(), Par.Tests.size());
}

//===----------------------------------------------------------------------===
// Axiom-engine cross-check: the declarative axiom lists driven by the
// generic engine must reproduce, verdict for verdict (including the first
// failed axiom), the original hand-written check() bodies, which are
// kept below as independent reference implementations.
//===----------------------------------------------------------------------===

namespace legacy {

/// The TM toggles the hand-written checkers read, one flag per toggleable
/// TM axiom (each checker reads only its own model's flags).
struct TmFlags {
  bool Tfence = true, StrongIsol = true, TxnOrder = true,
       TxnCancelsRmw = true, TProp1 = true, TProp2 = true, Thb = true,
       Tsw = true;
};

/// A flag and the axiom-table name the generic engine toggles for it.
struct Toggle {
  const char *Axiom;
  bool TmFlags::*Flag;
};

constexpr Toggle X86Toggles[] = {{"tfence", &TmFlags::Tfence},
                                 {"StrongIsol", &TmFlags::StrongIsol},
                                 {"TxnOrder", &TmFlags::TxnOrder}};
constexpr Toggle PowerToggles[] = {{"tfence", &TmFlags::Tfence},
                                   {"StrongIsol", &TmFlags::StrongIsol},
                                   {"TxnOrder", &TmFlags::TxnOrder},
                                   {"TxnCancelsRMW", &TmFlags::TxnCancelsRmw},
                                   {"tprop1", &TmFlags::TProp1},
                                   {"tprop2", &TmFlags::TProp2},
                                   {"thb", &TmFlags::Thb}};
constexpr Toggle Armv8Toggles[] = {{"tfence", &TmFlags::Tfence},
                                   {"StrongIsol", &TmFlags::StrongIsol},
                                   {"TxnOrder", &TmFlags::TxnOrder},
                                   {"TxnCancelsRMW", &TmFlags::TxnCancelsRmw}};
constexpr Toggle CppToggles[] = {{"Tsw", &TmFlags::Tsw}};

/// Default (all on), baseline (all off), and each single toggle off — the
/// drop is skipped when it would repeat the baseline.
std::vector<TmFlags> sweep(std::span<const Toggle> Toggles) {
  TmFlags Baseline;
  for (const Toggle &T : Toggles)
    Baseline.*T.Flag = false;
  std::vector<TmFlags> Out = {TmFlags(), Baseline};
  if (Toggles.size() > 1)
    for (const Toggle &T : Toggles) {
      Out.emplace_back();
      Out.back().*T.Flag = false;
    }
  return Out;
}

/// A default `Model` with exactly the toggles \p F turns off disabled,
/// addressed by axiom name.
template <typename Model>
Model configured(std::span<const Toggle> Toggles, const TmFlags &F) {
  Model M;
  for (const Toggle &T : Toggles)
    EXPECT_TRUE(M.setAxiomEnabled(T.Axiom, F.*T.Flag)) << T.Axiom;
  return M;
}

ConsistencyResult checkSc(const ExecutionAnalysis &A) {
  Relation Hb = A.po() | A.com();
  if (!Hb.isAcyclic())
    return ConsistencyResult::fail("Order");
  return ConsistencyResult::ok();
}

ConsistencyResult checkTsc(const ExecutionAnalysis &A) {
  Relation Hb = A.po() | A.com();
  if (!Hb.isAcyclic())
    return ConsistencyResult::fail("Order");
  if (!strongLift(Hb, A.stxn()).isAcyclic())
    return ConsistencyResult::fail("TxnOrder");
  return ConsistencyResult::ok();
}

ConsistencyResult checkX86(const ExecutionAnalysis &A, const TmFlags &Cfg) {
  unsigned N = A.size();
  const Relation &Com = A.com();
  if (!(A.poLoc() | Com).isAcyclic())
    return ConsistencyResult::fail("Coherence");
  if (!(A.rmw() & A.fre().compose(A.coe())).isEmpty())
    return ConsistencyResult::fail("RMWIsol");

  EventSet R = A.reads(), W = A.writes();
  Relation Ppo = (Relation::cross(W, W, N) | Relation::cross(R, W, N) |
                  Relation::cross(R, R, N)) &
                 A.po();
  EventSet Locked = A.rmw().domain() | A.rmw().range();
  Relation LockedId = Relation::identityOn(Locked, N);
  Relation Implied = LockedId.compose(A.po()) | A.po().compose(LockedId);
  if (Cfg.Tfence)
    Implied |= A.tfence();
  Relation Hb = A.fenceRel(FenceKind::MFence) | Ppo | Implied | A.rfe() |
                A.fr() | A.co();
  if (!Hb.isAcyclic())
    return ConsistencyResult::fail("Order");

  if (Cfg.StrongIsol && !A.strongLiftComStxn().isAcyclic())
    return ConsistencyResult::fail("StrongIsol");
  if (Cfg.TxnOrder && !strongLift(Hb, A.stxn()).isAcyclic())
    return ConsistencyResult::fail("TxnOrder");
  return ConsistencyResult::ok();
}

Relation legacyPowerPpo(const ExecutionAnalysis &A) {
  unsigned N = A.size();
  EventSet R = A.reads(), W = A.writes();
  Relation Dd = A.addr() | A.data();
  const Relation &PoLoc = A.poLoc();
  Relation Rdw = PoLoc & A.fre().compose(A.rfe());
  Relation Detour = PoLoc & A.coe().compose(A.rfe());
  Relation CtrlIsync = A.ctrl() & A.fenceRel(FenceKind::ISync);
  Relation Ii0 = Dd | A.rfi() | Rdw;
  Relation Ci0 = CtrlIsync | Detour;
  Relation Ic0(N);
  Relation Cc0 = Dd | PoLoc | A.ctrl() | A.addr().compose(A.po());
  Relation Ii = Ii0, Ci = Ci0, Ic = Ic0, Cc = Cc0;
  for (;;) {
    Relation NewIi = Ii0 | Ci | Ic.compose(Ci) | Ii.compose(Ii);
    Relation NewCi = Ci0 | Ci.compose(Ii) | Cc.compose(Ci);
    Relation NewIc = Ic0 | Ii | Cc | Ic.compose(Cc) | Ii.compose(Ic);
    Relation NewCc = Cc0 | Ci | Ci.compose(Ic) | Cc.compose(Cc);
    if (NewIi == Ii && NewCi == Ci && NewIc == Ic && NewCc == Cc)
      break;
    Ii = NewIi;
    Ci = NewCi;
    Ic = NewIc;
    Cc = NewCc;
  }
  return (Ii & Relation::cross(R, R, N)) | (Ic & Relation::cross(R, W, N));
}

ConsistencyResult checkPower(const ExecutionAnalysis &A, const TmFlags &Cfg) {
  unsigned N = A.size();
  const Relation &Com = A.com();
  if (!(A.poLoc() | Com).isAcyclic())
    return ConsistencyResult::fail("Coherence");
  if (!(A.rmw() & A.fre().compose(A.coe())).isEmpty())
    return ConsistencyResult::fail("RMWIsol");

  EventSet W = A.writes(), Rd = A.reads();
  const Relation &Sync = A.fenceRel(FenceKind::Sync);
  Relation LwSync =
      A.fenceRel(FenceKind::LwSync) - Relation::cross(W, Rd, N);
  const Relation &Tfence = A.tfence();
  Relation Fence = Sync | LwSync;
  if (Cfg.Tfence)
    Fence |= Tfence;

  Relation Ihb = legacyPowerPpo(A) | Fence;
  const Relation &Rfe = A.rfe();
  Relation Hb = Rfe.optional().compose(Ihb).compose(Rfe.optional());
  const Relation &Stxn = A.stxn();
  if (Cfg.Thb) {
    Relation FreCoe = (A.fre() | A.coe()).reflexiveTransitiveClosure();
    Relation Chain =
        (Rfe | FreCoe.compose(Ihb)).reflexiveTransitiveClosure();
    Relation Thb = Chain.compose(FreCoe).compose(Rfe.optional());
    Hb |= weakLift(Thb, Stxn);
  }
  if (!Hb.isAcyclic())
    return ConsistencyResult::fail("Order");

  Relation HbStar = Hb.reflexiveTransitiveClosure();
  Relation IdW = Relation::identityOn(W, N);
  Relation Efence = Rfe.optional().compose(Fence).compose(Rfe.optional());
  Relation Prop1 = IdW.compose(Efence).compose(HbStar).compose(IdW);
  Relation SyncLike = Sync;
  if (Cfg.Tfence)
    SyncLike |= Tfence;
  Relation Prop2 = A.external(Com)
                       .reflexiveTransitiveClosure()
                       .compose(Efence.reflexiveTransitiveClosure())
                       .compose(HbStar)
                       .compose(SyncLike)
                       .compose(HbStar);
  Relation Prop = Prop1 | Prop2;
  if (Cfg.TProp1)
    Prop |= Rfe.compose(Stxn).compose(IdW);
  if (Cfg.TProp2)
    Prop |= Stxn.compose(Rfe);

  if (!(A.co() | Prop).isAcyclic())
    return ConsistencyResult::fail("Propagation");
  if (!A.fre().compose(Prop).compose(HbStar).isIrreflexive())
    return ConsistencyResult::fail("Observation");
  if (Cfg.StrongIsol && !A.strongLiftComStxn().isAcyclic())
    return ConsistencyResult::fail("StrongIsol");
  if (Cfg.TxnOrder && !strongLift(Hb, Stxn).isAcyclic())
    return ConsistencyResult::fail("TxnOrder");
  if (Cfg.TxnCancelsRmw && !(A.rmw() & Tfence.transitiveClosure()).isEmpty())
    return ConsistencyResult::fail("TxnCancelsRMW");
  return ConsistencyResult::ok();
}

ConsistencyResult checkArmv8(const ExecutionAnalysis &A, const TmFlags &Cfg) {
  unsigned N = A.size();
  const Relation &Com = A.com();
  if (!(A.poLoc() | Com).isAcyclic())
    return ConsistencyResult::fail("Coherence");

  EventSet R = A.reads(), W = A.writes();
  EventSet Acq = A.acquires() & R;
  EventSet L = A.releases() & W;
  Relation IdA = Relation::identityOn(Acq, N);
  Relation IdL = Relation::identityOn(L, N);
  Relation IdR = Relation::identityOn(R, N);
  Relation IdW = Relation::identityOn(W, N);
  Relation Obs = A.external(Com);
  Relation IsbId = Relation::identityOn(A.fences(FenceKind::Isb), N);
  Relation IsbBefore =
      (A.ctrl() | A.addr().compose(A.po())).compose(IsbId).compose(A.po())
          .compose(IdR);
  Relation Dob = A.addr() | A.data();
  Dob |= A.ctrl().compose(IdW);
  Dob |= IsbBefore;
  Dob |= A.addr().compose(A.po()).compose(IdW);
  Dob |= (A.ctrl() | A.data()).compose(A.coi());
  Dob |= (A.addr() | A.data()).compose(A.rfi());
  Relation Aob = A.rmw();
  Aob |= Relation::identityOn(A.rmw().range(), N).compose(A.rfi())
             .compose(IdA);
  Relation DmbId = Relation::identityOn(A.fences(FenceKind::Dmb), N);
  Relation DmbLdId = Relation::identityOn(A.fences(FenceKind::DmbLd), N);
  Relation DmbStId = Relation::identityOn(A.fences(FenceKind::DmbSt), N);
  Relation Bob = A.po().compose(DmbId).compose(A.po());
  Bob |= IdL.compose(A.po()).compose(IdA);
  Bob |= IdR.compose(A.po()).compose(DmbLdId).compose(A.po());
  Bob |= IdA.compose(A.po());
  Bob |= IdW.compose(A.po()).compose(DmbStId).compose(A.po()).compose(IdW);
  Bob |= A.po().compose(IdL);
  Bob |= A.po().compose(IdL).compose(A.coi());
  Relation Ob = Obs | Dob | Aob | Bob;
  if (Cfg.Tfence)
    Ob |= A.tfence();
  if (!Ob.isAcyclic())
    return ConsistencyResult::fail("Order");

  if (!(A.rmw() & A.fre().compose(A.coe())).isEmpty())
    return ConsistencyResult::fail("RMWIsol");
  if (Cfg.StrongIsol && !A.strongLiftComStxn().isAcyclic())
    return ConsistencyResult::fail("StrongIsol");
  if (Cfg.TxnOrder && !strongLift(Ob, A.stxn()).isAcyclic())
    return ConsistencyResult::fail("TxnOrder");
  if (Cfg.TxnCancelsRmw &&
      !(A.rmw() & A.tfence().transitiveClosure()).isEmpty())
    return ConsistencyResult::fail("TxnCancelsRMW");
  return ConsistencyResult::ok();
}

ConsistencyResult checkCpp(const ExecutionAnalysis &A, const TmFlags &Cfg) {
  unsigned N = A.size();
  Relation Sw = A.cppSynchronisesWith();
  if (Cfg.Tsw)
    Sw |= A.cppTransactionalSw();
  Relation Hb = (Sw | A.po()).transitiveClosure();
  const Relation &Com = A.com();

  if (!Hb.compose(Com.reflexiveTransitiveClosure()).isIrreflexive())
    return ConsistencyResult::fail("HbCom");
  if (!(A.rmw() & A.fre().compose(A.coe())).isEmpty())
    return ConsistencyResult::fail("RMWIsol");
  if (!(A.po() | A.rf()).isAcyclic())
    return ConsistencyResult::fail("NoThinAir");

  Relation HbOpt = Hb.optional();
  Relation Eco = Com.transitiveClosure();
  const Relation &Sloc = A.sloc();
  EventSet Sc = A.seqCst();
  EventSet Fsc = Sc & A.fences();
  Relation IdSc = Relation::identityOn(Sc, N);
  Relation IdFsc = Relation::identityOn(Fsc, N);
  Relation PoNonLoc = A.po() - Sloc;
  Relation Scb = A.po() | PoNonLoc.compose(Hb).compose(PoNonLoc) |
                 (Hb & Sloc) | A.co() | A.fr();
  Relation Left = IdSc | IdFsc.compose(HbOpt);
  Relation Right = IdSc | HbOpt.compose(IdFsc);
  Relation Psc = Left.compose(Scb).compose(Right) |
                 IdFsc.compose(Hb | Hb.compose(Eco).compose(Hb))
                     .compose(IdFsc);
  if (!Psc.isAcyclic())
    return ConsistencyResult::fail("SeqCst");
  return ConsistencyResult::ok();
}

/// Compare the generic engine's verdict with a reference checker on one
/// execution (verdict and first failed axiom).
void expectSameVerdict(const MemoryModel &M, ConsistencyResult Ref,
                       const Execution &X, const char *What) {
  ConsistencyResult New = M.check(X);
  EXPECT_EQ(New.Consistent, Ref.Consistent)
      << What << "\n"
      << X.dump();
  EXPECT_EQ(New.FailedAxiom, Ref.FailedAxiom) << What << "\n" << X.dump();
}

TEST(AxiomEngineCrossCheck, MatchesLegacyCheckersOnAllConfigs) {
  // Every TM-toggle configuration the checkers take — default, baseline,
  // and each single-toggle drop — plus SC and TSC, over the mixed x86/C++
  // cross-check corpus.
  EXPECT_EQ(sweep(X86Toggles).size(), 5u);
  EXPECT_EQ(sweep(PowerToggles).size(), 9u);
  EXPECT_EQ(sweep(Armv8Toggles).size(), 6u);
  EXPECT_EQ(sweep(CppToggles).size(), 2u);
  for (Arch A : {Arch::X86, Arch::Cpp}) {
    for (const Execution &X :
         corpus(Vocabulary::forArch(A), 3, /*Cap=*/300)) {
      ExecutionAnalysis An(X);
      expectSameVerdict(ScModel(), legacy::checkSc(An), X, "SC");
      expectSameVerdict(TscModel(), legacy::checkTsc(An), X, "TSC");
      for (const TmFlags &F : sweep(X86Toggles))
        expectSameVerdict(configured<X86Model>(X86Toggles, F),
                          legacy::checkX86(An, F), X, "x86");
      for (const TmFlags &F : sweep(PowerToggles))
        expectSameVerdict(configured<PowerModel>(PowerToggles, F),
                          legacy::checkPower(An, F), X, "Power");
      for (const TmFlags &F : sweep(Armv8Toggles))
        expectSameVerdict(configured<Armv8Model>(Armv8Toggles, F),
                          legacy::checkArmv8(An, F), X, "ARMv8");
      for (const TmFlags &F : sweep(CppToggles))
        expectSameVerdict(configured<CppModel>(CppToggles, F),
                          legacy::checkCpp(An, F), X, "C++");
    }
  }
}

} // namespace legacy

TEST(BuilderCapacity, SixtyFourEventExecutionIsLegal) {
  // Exactly kMaxEvents events must be accepted end-to-end — pins the
  // builder's capacity bound against off-by-one regressions.
  ExecutionBuilder B;
  for (unsigned T = 0; T < 4; ++T) {
    // Initial-value reads first, then the write: fr agrees with po.
    for (unsigned I = 1; I < kMaxEvents / 4; ++I)
      B.read(T, static_cast<LocId>(T));
    B.write(T, static_cast<LocId>(T), MemOrder::NonAtomic, 1);
  }
  Execution X = B.build();
  ASSERT_EQ(X.size(), kMaxEvents);
  EXPECT_EQ(X.checkWellFormed(), nullptr);
  ExecutionAnalysis A(X);
  EXPECT_TRUE(sameRelation(A.com(), Oracle(X).Com));
  ScModel Sc;
  EXPECT_TRUE(Sc.consistent(A));
}

} // namespace
