//===- ExecutionAnalysis.cpp - Memoized derived relations ---------------------==//

#include "execution/ExecutionAnalysis.h"

using namespace tmw;

namespace {

/// The equivalence a per-event class labelling induces on the classes
/// \p Keep admits: A ~ B iff Class[A] == Class[B] != kNoClass. Reflexive
/// on the admitted classes' members, empty elsewhere (§3.1 stxn, §8.3 scr).
template <typename KeepFn>
Relation classEquivalence(unsigned N, const std::array<int, kMaxEvents> &Class,
                          KeepFn &&Keep) {
  Relation R(N);
  for (unsigned A = 0; A < N; ++A) {
    if (Class[A] == kNoClass || !Keep(Class[A]))
      continue;
    for (unsigned B = 0; B < N; ++B)
      if (Class[B] == Class[A])
        R.insert(A, B);
  }
  return R;
}

/// The events of \p X whose label satisfies the `Event` predicate \p P.
EventSet labelled(const Execution &X, bool (Event::*P)() const) {
  return X.eventsWhere([&](EventId E) { return (X.event(E).*P)(); });
}

} // namespace

//===----------------------------------------------------------------------===
// Event sets.
//===----------------------------------------------------------------------===

EventSet ExecutionAnalysis::reads() const {
  return memo(C.Reads, StructGen, [&] { return X->reads(); });
}

EventSet ExecutionAnalysis::writes() const {
  return memo(C.Writes, StructGen, [&] { return X->writes(); });
}

EventSet ExecutionAnalysis::fences() const {
  return memo(C.Fences, StructGen,
              [&] { return X->ofKind(EventKind::Fence); });
}

EventSet ExecutionAnalysis::accesses() const {
  return memo(C.Accesses, StructGen, [&] { return reads() | writes(); });
}

EventSet ExecutionAnalysis::fences(FenceKind K) const {
  return memo(C.FencesOf[static_cast<unsigned>(K)], StructGen, [&] {
    return X->eventsWhere([&](EventId E) {
      return X->event(E).isFence() && X->event(E).Fence == K;
    });
  });
}

EventSet ExecutionAnalysis::atomics() const {
  return memo(C.Atomics, StructGen,
              [&] { return labelled(*X, &Event::isAtomic); });
}

EventSet ExecutionAnalysis::acquires() const {
  return memo(C.Acquires, StructGen,
              [&] { return labelled(*X, &Event::isAcquire); });
}

EventSet ExecutionAnalysis::releases() const {
  return memo(C.Releases, StructGen,
              [&] { return labelled(*X, &Event::isRelease); });
}

EventSet ExecutionAnalysis::seqCst() const {
  return memo(C.SeqCst, StructGen,
              [&] { return labelled(*X, &Event::isSeqCst); });
}

EventSet ExecutionAnalysis::transactional() const {
  return memo(C.Transactional, TxnGen, [&] { return X->transactional(); });
}

EventSet ExecutionAnalysis::atomicTransactional() const {
  return memo(C.AtomicTransactional, TxnGen, [&] {
    return X->eventsWhere([&](EventId E) {
      return X->Txn[E] != kNoClass && ((X->AtomicTxns >> X->Txn[E]) & 1);
    });
  });
}

//===----------------------------------------------------------------------===
// Derived relations (§2.1, §3.1, §3.3, §8.3), each built from already
// memoized sub-terms wherever possible.
//===----------------------------------------------------------------------===

const Relation &ExecutionAnalysis::sloc() const {
  return memo(C.Sloc, StructGen, [&] { return X->sloc(); });
}

const Relation &ExecutionAnalysis::sameThread() const {
  // (po ∪ po^-1)^*: every pair of events of one thread, identity included.
  return memo(C.SameThread, StructGen, [&] {
    unsigned N = X->size();
    Relation R(N);
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B)
        if (X->event(A).Thread == X->event(B).Thread)
          R.insert(A, B);
    return R;
  });
}

const Relation &ExecutionAnalysis::poLoc() const {
  return memo(C.PoLoc, StructGen, [&] { return X->Po & sloc(); });
}

const Relation &ExecutionAnalysis::poImm() const {
  return memo(C.PoImm, StructGen, [&] { return X->Po - X->Po.compose(X->Po); });
}

const Relation &ExecutionAnalysis::fr() const {
  // fr = ([R] ; sloc ; [W]) \ (rf^-1 ; (co^-1)^*). A read with no rf
  // source reads the initial value and is fr-before every write to its
  // location.
  return memo(C.Fr, StructGen, [&] {
    Relation ReadsToWrites = sloc().restrictDomain(reads()).restrictRange(
        writes());
    Relation NotAfter = X->Rf.inverse().compose(
        X->Co.inverse().reflexiveTransitiveClosure());
    return ReadsToWrites - NotAfter;
  });
}

const Relation &ExecutionAnalysis::com() const {
  return memo(C.Com, StructGen, [&] { return X->Rf | X->Co | fr(); });
}

const Relation &ExecutionAnalysis::ecom() const {
  return memo(C.Ecom, StructGen, [&] { return com() | X->Co.compose(X->Rf); });
}

const Relation &ExecutionAnalysis::rfe() const {
  return memo(C.Rfe, StructGen, [&] { return external(X->Rf); });
}

const Relation &ExecutionAnalysis::rfi() const {
  return memo(C.Rfi, StructGen, [&] { return internal(X->Rf); });
}

const Relation &ExecutionAnalysis::coe() const {
  return memo(C.Coe, StructGen, [&] { return external(X->Co); });
}

const Relation &ExecutionAnalysis::coi() const {
  return memo(C.Coi, StructGen, [&] { return internal(X->Co); });
}

const Relation &ExecutionAnalysis::fre() const {
  return memo(C.Fre, StructGen, [&] { return external(fr()); });
}

const Relation &ExecutionAnalysis::fri() const {
  return memo(C.Fri, StructGen, [&] { return internal(fr()); });
}

const Relation &ExecutionAnalysis::stxn() const {
  return memo(C.Stxn, TxnGen, [&] {
    return classEquivalence(X->size(), X->Txn, [](int) { return true; });
  });
}

const Relation &ExecutionAnalysis::stxnAtomic() const {
  return memo(C.StxnAtomic, TxnGen, [&] {
    return classEquivalence(X->size(), X->Txn,
                            [&](int T) { return (X->AtomicTxns >> T) & 1; });
  });
}

const Relation &ExecutionAnalysis::tfence() const {
  // po ∩ ((¬stxn ; stxn) ∪ (stxn ; ¬stxn)): po edges entering or leaving a
  // transaction.
  return memo(C.Tfence, TxnGen, [&] {
    const Relation &S = stxn();
    Relation NotS = S.complement();
    return X->Po & (NotS.compose(S) | S.compose(NotS));
  });
}

const Relation &ExecutionAnalysis::scr() const {
  return memo(C.Scr, StructGen, [&] {
    return classEquivalence(X->size(), X->Cr, [](int) { return true; });
  });
}

const Relation &ExecutionAnalysis::scrt() const {
  // `scr` restricted to the regions a TxLock opens (the elided ones).
  return memo(C.Scrt, StructGen, [&] {
    EventSet TxLocks = X->ofKind(EventKind::TxLock);
    return classEquivalence(X->size(), X->Cr, [&](int Cr) {
      for (EventId E : TxLocks)
        if (X->Cr[E] == Cr)
          return true;
      return false;
    });
  });
}

const Relation &ExecutionAnalysis::fenceRel(FenceKind K) const {
  return memo(C.FenceRels[static_cast<unsigned>(K)], StructGen, [&] {
    Relation Id = Relation::identityOn(fences(K), X->size());
    return X->Po.compose(Id).compose(X->Po);
  });
}

const Relation &ExecutionAnalysis::cppSynchronisesWith() const {
  return memo(C.CppSw, StructGen, [&] {
    unsigned N = X->size();
    EventSet W = writes(), R = reads(), F = fences();
    EventSet Ato = atomics();

    // Release sequence: rs = [W] ; poloc? ; [W n Ato] ; (rf ; rmw)*.
    Relation Rs =
        Relation::identityOn(W, N)
            .compose(poLoc().optional())
            .compose(Relation::identityOn(W & Ato, N))
            .compose(
                X->Rf.compose(X->Rmw).reflexiveTransitiveClosure());

    // sw = [Rel] ; ([F] ; po)? ; rs ; rf ; [R n Ato] ; (po ; [F])? ; [Acq].
    Relation IdF = Relation::identityOn(F, N);
    Relation RelSide = Relation::identityOn(releases(), N)
                           .compose(IdF.compose(X->Po).optional());
    Relation AcqSide = X->Po.compose(IdF).optional().compose(
        Relation::identityOn(acquires(), N));
    return RelSide.compose(Rs)
        .compose(X->Rf)
        .compose(Relation::identityOn(R & Ato, N))
        .compose(AcqSide);
  });
}

const Relation &ExecutionAnalysis::cppTransactionalSw() const {
  return memo(C.CppTsw, TxnGen, [&] { return weakLift(ecom(), stxn()); });
}

const Relation &ExecutionAnalysis::weakLiftComStxn() const {
  return memo(C.WeakLiftComStxn, TxnGen, [&] { return weakLift(com(), stxn()); });
}

const Relation &ExecutionAnalysis::strongLiftComStxn() const {
  return memo(C.StrongLiftComStxn, TxnGen,
              [&] { return strongLift(com(), stxn()); });
}

const Relation &ExecutionAnalysis::strongLiftComStxnAtomic() const {
  return memo(C.StrongLiftComStxnAtomic, TxnGen,
              [&] { return strongLift(com(), stxnAtomic()); });
}
