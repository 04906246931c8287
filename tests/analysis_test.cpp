//===- analysis_test.cpp - ExecutionAnalysis cross-checks ---------------------==//
///
/// The memoized analysis layer must be *observationally identical* to the
/// uncached `Execution` methods: for a corpus of enumerated executions,
/// every memoized derived relation equals its uncached counterpart, and
/// every model's verdict through a shared memoized analysis equals the
/// verdict through per-check and recompute-mode analyses. Also covers the
/// memoization/invalidation contract (weakLift/strongLift caching, cache
/// drop on copy and on reset) and the sharded enumeration partition.
///
//===----------------------------------------------------------------------===//

#include "TestGraphs.h"
#include "enumerate/Relaxation.h"
#include "hw/ImplModel.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/ScModel.h"
#include "models/X86Model.h"
#include "synth/Conformance.h"

#include <gtest/gtest.h>

#include <set>
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

TEST(AnalysisCrossCheck, DerivedRelationsMatchUncachedExecutionMethods) {
  for (Arch A : {Arch::X86, Arch::Cpp}) {
    for (const Execution &X :
         corpus(Vocabulary::forArch(A), 3, /*Cap=*/400)) {
      ExecutionAnalysis An(X);
      // Query some terms twice so both the compute and the memoized path
      // are compared.
      for (int Round = 0; Round < 2; ++Round) {
        EXPECT_EQ(An.sloc(), X.sloc());
        EXPECT_EQ(An.sameThread(), X.sameThread());
        EXPECT_EQ(An.poLoc(), X.poLoc());
        EXPECT_EQ(An.poImm(), X.poImm());
        EXPECT_EQ(An.fr(), X.fr());
        EXPECT_EQ(An.com(), X.com());
        EXPECT_EQ(An.ecom(), X.ecom());
        EXPECT_EQ(An.rfe(), X.rfe());
        EXPECT_EQ(An.rfi(), X.rfi());
        EXPECT_EQ(An.coe(), X.coe());
        EXPECT_EQ(An.coi(), X.coi());
        EXPECT_EQ(An.fre(), X.fre());
        EXPECT_EQ(An.fri(), X.fri());
        EXPECT_EQ(An.stxn(), X.stxn());
        EXPECT_EQ(An.stxnAtomic(), X.stxnAtomic());
        EXPECT_EQ(An.tfence(), X.tfence());
        EXPECT_EQ(An.scr(), X.scr());
        EXPECT_EQ(An.scrt(), X.scrt());
        EXPECT_EQ(An.reads(), X.reads());
        EXPECT_EQ(An.writes(), X.writes());
        EXPECT_EQ(An.accesses(), X.accesses());
        EXPECT_EQ(An.atomics(), X.atomics());
        EXPECT_EQ(An.transactional(), X.transactional());
        EXPECT_EQ(An.atomicTransactional(), X.atomicTransactional());
        for (FenceKind K : {FenceKind::MFence, FenceKind::Sync,
                            FenceKind::CppFence}) {
          EXPECT_EQ(An.fences(K), X.fences(K));
          EXPECT_EQ(An.fenceRel(K), X.fenceRel(K));
        }
        EXPECT_EQ(An.weakLiftComStxn(), weakLift(X.com(), X.stxn()));
        EXPECT_EQ(An.strongLiftComStxn(), strongLift(X.com(), X.stxn()));
        EXPECT_EQ(An.strongLiftComStxnAtomic(),
                  strongLift(X.com(), X.stxnAtomic()));
      }
    }
  }
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
  EXPECT_EQ(D.fr(), X.fr());
}

TEST(AnalysisMemoization, ResetRetargets) {
  Execution X = shapes::storeBuffering();
  Execution Y = shapes::messagePassing();
  ExecutionAnalysis A(X);
  EXPECT_EQ(A.com(), X.com());
  A.reset(Y);
  EXPECT_EQ(A.recomputeCount(), 0u);
  EXPECT_EQ(&A.execution(), &Y);
  EXPECT_EQ(A.com(), Y.com());
  EXPECT_EQ(A.rfe(), Y.rfe());
}

TEST(ShardedEnumeration, ParallelForbidSynthesisMatchesSequential) {
  X86Model Tm;
  X86Model Baseline{X86Model::Config::baseline()};
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
// failed axiom), the PR-1 hand-written check() bodies, which are kept
// below as independent reference implementations.
//===----------------------------------------------------------------------===

namespace legacy {

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

ConsistencyResult checkX86(const ExecutionAnalysis &A,
                           X86Model::Config Cfg) {
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

ConsistencyResult checkPower(const ExecutionAnalysis &A,
                             PowerModel::Config Cfg) {
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

ConsistencyResult checkArmv8(const ExecutionAnalysis &A,
                             Armv8Model::Config Cfg) {
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

ConsistencyResult checkCpp(const ExecutionAnalysis &A,
                           CppModel::Config Cfg) {
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
  // Every config the PR-1 Config structs could express: default,
  // baseline, and each single-toggle-off variant, for all six models,
  // over the mixed x86/C++ cross-check corpus.
  for (Arch A : {Arch::X86, Arch::Cpp}) {
    for (const Execution &X :
         corpus(Vocabulary::forArch(A), 3, /*Cap=*/300)) {
      ExecutionAnalysis An(X);
      expectSameVerdict(ScModel(), legacy::checkSc(An), X, "SC");
      expectSameVerdict(TscModel(), legacy::checkTsc(An), X, "TSC");

      for (int Drop = -2; Drop < 3; ++Drop) {
        X86Model::Config C =
            Drop == -2 ? X86Model::Config::baseline() : X86Model::Config();
        if (Drop == 0)
          C.Tfence = false;
        if (Drop == 1)
          C.StrongIsol = false;
        if (Drop == 2)
          C.TxnOrder = false;
        expectSameVerdict(X86Model(C), legacy::checkX86(An, C), X, "x86");
      }
      for (int Drop = -2; Drop < 7; ++Drop) {
        PowerModel::Config C = Drop == -2 ? PowerModel::Config::baseline()
                                          : PowerModel::Config();
        if (Drop == 0)
          C.Tfence = false;
        if (Drop == 1)
          C.StrongIsol = false;
        if (Drop == 2)
          C.TxnOrder = false;
        if (Drop == 3)
          C.TxnCancelsRmw = false;
        if (Drop == 4)
          C.TProp1 = false;
        if (Drop == 5)
          C.TProp2 = false;
        if (Drop == 6)
          C.Thb = false;
        expectSameVerdict(PowerModel(C), legacy::checkPower(An, C), X,
                          "Power");
      }
      for (int Drop = -2; Drop < 4; ++Drop) {
        Armv8Model::Config C = Drop == -2 ? Armv8Model::Config::baseline()
                                          : Armv8Model::Config();
        if (Drop == 0)
          C.Tfence = false;
        if (Drop == 1)
          C.StrongIsol = false;
        if (Drop == 2)
          C.TxnOrder = false;
        if (Drop == 3)
          C.TxnCancelsRmw = false;
        expectSameVerdict(Armv8Model(C), legacy::checkArmv8(An, C), X,
                          "ARMv8");
      }
      for (bool Tsw : {true, false}) {
        CppModel::Config C{Tsw};
        expectSameVerdict(CppModel(C), legacy::checkCpp(An, C), X, "C++");
      }
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
  EXPECT_EQ(A.com(), X.com());
  ScModel Sc;
  EXPECT_TRUE(Sc.consistent(A));
}

} // namespace
