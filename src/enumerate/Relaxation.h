//===- Relaxation.h - The ⊏ order between executions ------------*- C++ -*-==//
///
/// \file
/// The relaxation order between executions (§4.2, after Lustig et al.):
/// X ⊏ Y when X is obtained from Y by one of
///
///   (i)   removing an event (plus incident edges),
///   (ii)  removing a dependency edge (addr, ctrl, data, rmw),
///   (iii) downgrading an event (e.g. acquire read to plain read), or
///   (v)   making the first or last event of a transaction
///         non-transactional (and, for C++, an atomic{} transaction a
///         relaxed one).
///
/// `forEachRelaxation` is the one generator of these children: it streams
/// them lazily, so a caller that stops at the first child it wants (the
/// minimality check, counterexample shrinking) never builds the rest.
///
/// Minimally inconsistent executions are inconsistent executions all of
/// whose one-step relaxations are consistent; maximally consistent
/// executions are the one-step relaxations of minimally inconsistent ones.
///
/// Canonicalisation (thread and location symmetry) deduplicates the
/// synthesised test suites.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_RELAXATION_H
#define TMW_ENUMERATE_RELAXATION_H

#include "enumerate/Enumerator.h"

#include <vector>

namespace tmw {

/// Write into \p Out (discarding its contents) \p X without event \p E,
/// remapping ids and dropping incident edges. \p Out is a parameter so a
/// caller can reuse one execution for every removal child.
void removeEvent(const Execution &X, EventId E, Execution &Out);

/// Renumber transaction classes densely (dropping emptied classes) and
/// remap the atomic-transaction mask accordingly.
void compactTxnClasses(Execution &X);

/// The one-step downgrades of event \p E under architecture \p A (§4.2
/// (iii)), in the order the relaxation stream visits them: each is
/// `X.event(E)` with a weaker order or fence flavour. Returns how many of
/// \p Out were filled.
unsigned downgradesOf(const Execution &X, EventId E, Arch A, Event (&Out)[2]);

/// Stream the well-formed executions one ⊏-step below \p X under
/// vocabulary \p V to \p Sink, in this order:
///
///  * (i) event removals, by ascending event id;
///  * (ii) addr, then data, then ctrl, then rmw edge drops, each in
///    ascending (source, target) order — ctrl drops only the earliest
///    target of each source, so the remaining targets stay a po-suffix
///    (forward closure);
///  * (iii) downgrades, by ascending event id (`downgradesOf`);
///  * (v) transaction shrinks, by ascending class id: the po-first member
///    made non-transactional, then the po-last (one child for a singleton);
///  * (iii') for C++ only, each atomic{} transaction made relaxed, by
///    ascending class id.
///
/// Sink contract: \p Sink(const Execution &) sees each child once; the
/// child lives in scratch storage that the next child overwrites, so a
/// sink that keeps it must copy it. \p Sink returns false to stop: no
/// further child is built and the result is false. \p X itself is never
/// written, so an `ExecutionAnalysis` targeting it stays valid.
template <typename SinkT>
bool forEachRelaxation(const Execution &X, const Vocabulary &V,
                       SinkT &&Sink) {
  Execution Y;
  // A malformed child is skipped; it never reaches the sink.
  auto Emit = [&Sink, &Y]() -> bool {
    return Y.checkWellFormed() != nullptr ||
           Sink(static_cast<const Execution &>(Y));
  };

  // (i) Remove an event.
  for (unsigned E = 0; E < X.size(); ++E) {
    removeEvent(X, E, Y);
    if (!Emit())
      return false;
  }

  // Every later child is one field of X changed: mutate a copy of X and
  // restore the field after each child.
  Y = X;

  // (ii) Remove a dependency edge. For ctrl (forward-closed), only the
  // earliest target of a source: the one with no target po-before it.
  auto PoAfterAnyOf = [&X](EventId B, EventSet S) {
    for (EventId A : S)
      if (X.Po.contains(A, B))
        return true;
    return false;
  };
  auto DropEach = [&](Relation Execution::*Rel, bool EarliestOnly) -> bool {
    for (EventId A : (X.*Rel).domain()) {
      EventSet Targets = (X.*Rel).successors(A);
      for (EventId B : Targets) {
        if (EarliestOnly && PoAfterAnyOf(B, Targets))
          continue;
        (Y.*Rel).erase(A, B);
        bool Go = Emit();
        (Y.*Rel).insert(A, B);
        if (!Go)
          return false;
      }
    }
    return true;
  };
  if (!DropEach(&Execution::Addr, false) ||
      !DropEach(&Execution::Data, false) ||
      !DropEach(&Execution::Ctrl, true) || !DropEach(&Execution::Rmw, false))
    return false;

  // (iii) Downgrade an event.
  for (unsigned E = 0; E < X.size(); ++E) {
    Event Alt[2];
    unsigned N = downgradesOf(X, E, V.A, Alt);
    for (unsigned I = 0; I < N; ++I) {
      Y.event(E) = Alt[I];
      bool Go = Emit();
      Y.event(E) = X.event(E);
      if (!Go)
        return false;
    }
  }

  // (v) Shrink a transaction at either end.
  for (unsigned C = 0; C < X.numTxns(); ++C) {
    EventSet Members;
    for (unsigned E = 0; E < X.size(); ++E)
      if (X.Txn[E] == static_cast<int>(C))
        Members.insert(E);
    if (Members.empty())
      continue;
    // The po-first member has every other member po-after it, the po-last
    // none; a singleton is both and yields one child.
    EventId First = 0, Last = 0;
    for (EventId M : Members) {
      unsigned After = (X.Po.successors(M) & Members).size();
      if (After + 1 == Members.size())
        First = M;
      if (After == 0)
        Last = M;
    }
    for (EventId Boundary : {First, Last}) {
      Y.Txn[Boundary] = kNoClass;
      compactTxnClasses(Y);
      bool Go = Emit();
      Y.Txn = X.Txn;
      Y.AtomicTxns = X.AtomicTxns;
      if (!Go)
        return false;
      if (First == Last)
        break;
    }
  }

  // (iii') Downgrade an atomic{} transaction to a relaxed one (C++ only).
  if (V.A == Arch::Cpp)
    for (unsigned C = 0; C < X.numTxns(); ++C)
      if ((X.AtomicTxns >> C) & 1) {
        Y.AtomicTxns &= ~(uint32_t(1) << C);
        bool Go = Emit();
        Y.AtomicTxns = X.AtomicTxns;
        if (!Go)
          return false;
      }
  return true;
}

/// All children of `forEachRelaxation`, collected in stream order.
std::vector<Execution> relaxOneStep(const Execution &X, const Vocabulary &V);

/// True when the analysed execution is inconsistent under \p M and every
/// one-step relaxation is consistent. Takes the (possibly shared) analysis
/// so the caller's `M.check` and this function's own top-level check reuse
/// the same derived relations; an `Execution` converts implicitly. The
/// children are streamed by `forEachRelaxation`, which stops at the first
/// inconsistent one, so the rest are never built; each is checked through
/// a reusable per-thread analysis arena (safe: models are stateless and
/// shards never share a thread). The analysed execution is not written.
bool isMinimallyInconsistent(const ExecutionAnalysis &A, const MemoryModel &M,
                             const Vocabulary &V);

/// A serialisation of \p X that is invariant under renaming of threads (of
/// equal size) and locations: the lexicographically least encoding over all
/// such renamings.
std::vector<uint8_t> canonicalEncoding(const Execution &X);

/// The same serialisation with the identity renaming — a total key on
/// *concrete* executions that discriminates between symmetry-equivalent
/// ones (which share `canonicalEncoding`). The synthesis layer keeps the
/// least-keyed representative of each canonical class, making the suite
/// byte-for-byte independent of enumeration order and shard count.
std::vector<uint8_t> concreteEncoding(const Execution &X);

/// FNV hash of `canonicalEncoding`.
uint64_t canonicalHash(const Execution &X);

} // namespace tmw

#endif // TMW_ENUMERATE_RELAXATION_H
