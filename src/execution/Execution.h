//===- Execution.h - Candidate execution graphs -----------------*- C++ -*-==//
///
/// \file
/// Executions (§2.1) extended with transactions (§3.1) and lock-elision
/// method calls (§8.3). An execution is a graph over events with the basic
/// relations po, rf, co, addr/data/ctrl, and rmw; transactions are a
/// per-event class id inducing the `stxn` partial equivalence relation, and
/// critical regions similarly induce `scr`.
///
/// `Execution` is the graph and nothing more: the stored relations and
/// class labellings, plus the few event sets and `sloc` that building and
/// validating a graph needs. Every derived term of the axioms (fr, com,
/// stxn, tfence, the fence relations, internal/external splits, ...) is
/// defined once, in `ExecutionAnalysis` (ExecutionAnalysis.h), which
/// memoizes it per immutable execution.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_EXECUTION_EXECUTION_H
#define TMW_EXECUTION_EXECUTION_H

#include "execution/Event.h"
#include "relation/Relation.h"

#include <array>
#include <string>

namespace tmw {

/// Marker for events outside any transaction / critical region.
inline constexpr int kNoClass = -1;

/// Cap on transaction classes per execution (fits an atomicity bitmask).
inline constexpr unsigned kMaxTxns = 32;

/// A candidate execution graph.
///
/// Fields are public so that builders and the exhaustive enumerator can fill
/// them directly; call `checkWellFormed()` to validate the result against
/// the well-formedness conditions of §2.1/§3.1.
class Execution {
public:
  Execution() { clear(0); }
  explicit Execution(unsigned NumEvents) { clear(NumEvents); }

  /// Reset to \p NumEvents default-constructed events and empty relations.
  void clear(unsigned NumEvents);

  unsigned size() const { return Num; }
  EventSet universe() const { return EventSet::universe(Num); }

  const Event &event(EventId E) const {
    assert(E < Num);
    return Events[E];
  }
  Event &event(EventId E) {
    assert(E < Num);
    return Events[E];
  }

  /// Number of threads (1 + max thread index).
  unsigned numThreads() const;
  /// Number of locations (1 + max location index), 0 if none accessed.
  unsigned numLocations() const;
  /// Number of transaction classes (1 + max class id).
  unsigned numTxns() const;
  /// Number of critical regions (1 + max region id).
  unsigned numCrs() const;

  //===--------------------------------------------------------------------===
  // Basic relations (stored).
  //===--------------------------------------------------------------------===

  /// Program order: strict total order per thread.
  Relation Po;
  /// Reads-from: writes to reads of the same location.
  Relation Rf;
  /// Coherence: strict total order over the writes to each location.
  Relation Co;
  /// Address dependencies (read to po-later access).
  Relation Addr;
  /// Data dependencies (read to po-later write).
  Relation Data;
  /// Control dependencies (read to po-later events; forward-closed).
  Relation Ctrl;
  /// Read-modify-write pairing (read to its paired write).
  Relation Rmw;

  /// Transaction class per event, `kNoClass` when not transactional.
  std::array<int, kMaxEvents> Txn;
  /// Bitmask of transaction classes that are C++ `atomic{}` transactions.
  uint32_t AtomicTxns = 0;
  /// Critical-region class per event, `kNoClass` when outside any CR.
  std::array<int, kMaxEvents> Cr;

  //===--------------------------------------------------------------------===
  // Event sets.
  //===--------------------------------------------------------------------===

  EventSet reads() const;
  EventSet writes() const;
  /// Reads and writes.
  EventSet accesses() const;
  /// Events of kind \p K.
  EventSet ofKind(EventKind K) const;
  /// Events inside some successful transaction.
  EventSet transactional() const;
  /// Events accessing location \p L.
  EventSet atLocation(LocId L) const;
  /// Events of thread \p T.
  EventSet ofThread(unsigned T) const;

  /// The events \p E with `P(E)`: the one per-event scan every event set
  /// here and in `ExecutionAnalysis` is built from.
  template <typename Pred> EventSet eventsWhere(Pred &&P) const {
    EventSet S;
    for (unsigned E = 0; E < Num; ++E)
      if (P(E))
        S.insert(E);
    return S;
  }

  /// Same-location relation over memory accesses (includes identity pairs).
  Relation sloc() const;

  //===--------------------------------------------------------------------===
  // Well-formedness and utilities.
  //===--------------------------------------------------------------------===

  /// Set po to event-id order within each thread: the layout of every
  /// builder and enumerator, which append each thread's events in program
  /// order.
  void poFromThreadOrder();
  /// Add the control dependency \p Src -> \p Target, forward-closed:
  /// \p Src also reaches every po-successor of \p Target (a branch orders
  /// everything after it). Uses the current po.
  void addCtrl(EventId Src, EventId Target);

  /// Returns nullptr when well-formed, otherwise a static description of the
  /// first violated condition.
  const char *checkWellFormed() const;

  /// Multi-line dump ("a: W x (T0) [txn 0]" plus relation edge lists).
  std::string dump() const;

  /// Structural fingerprint used to deduplicate executions that are equal
  /// up to nothing (exact equality of all fields).
  uint64_t hash() const;
  bool operator==(const Execution &O) const;

private:
  unsigned Num = 0;
  std::array<Event, kMaxEvents> Events;
};

} // namespace tmw

#endif // TMW_EXECUTION_EXECUTION_H
