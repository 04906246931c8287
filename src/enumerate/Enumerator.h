//===- Enumerator.h - Exhaustive execution enumeration ----------*- C++ -*-==//
///
/// \file
/// Exhaustive enumeration of executions up to a bounded number of events —
/// the explicit-search substitute for the paper's SAT-backed Memalloy
/// queries (§4.2). Executions are generated in a canonical skeleton form
/// (threads ordered by non-increasing size, locations numbered by first
/// use, program order = event-id order within a thread) and the synthesis
/// layer deduplicates final results up to thread/location symmetry.
///
/// Structural filters sound for *minimal* inconsistent executions are
/// applied during generation: every location has at least two accesses,
/// one of which is a write (an access without a communication edge cannot
/// lie on a violation cycle), and fences are interior to their thread.
///
/// The search space is partitioned for parallel enumeration by *prefix
/// tasks* (`forEachSkeleton` / `expandPrefix` / `forEachBasePrefixed`): a
/// `BasePrefix` names one subtree of the DFS — a complete skeleton plus
/// the first K event labels — and can be either *expanded* into one child
/// per admissible label of event K or *resumed*, visiting exactly the
/// bases below it. The children of a prefix are produced by the same
/// choice generator the plain DFS recursion uses, so for any expansion
/// depth the frontier partitions the base space exactly (no base visited
/// twice, none missed) and the visit order below one prefix equals the
/// sequential DFS order. This is the resumability contract the
/// work-stealing synthesis (`enumerate/WorkQueue.h`, `synthesizeForbid`)
/// and the canonical-hash dedup depend on;
/// `tests/sharding_differential_test.cpp` pins it. Each task runs with an
/// independent `Execution` buffer and `ExecutionAnalysis` arena; nothing
/// is shared.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_ENUMERATOR_H
#define TMW_ENUMERATE_ENUMERATOR_H

#include "enumerate/Prefix.h"
#include "execution/Execution.h"
#include "models/MemoryModel.h"

#include <functional>
#include <vector>

namespace tmw {

/// The event vocabulary available to the enumerator for one architecture:
/// which fence flavours, consistency modes, dependencies, RMW pairs, and
/// transaction forms may appear.
struct Vocabulary {
  Arch A = Arch::X86;
  std::vector<FenceKind> Fences;
  std::vector<MemOrder> ReadOrders = {MemOrder::NonAtomic};
  std::vector<MemOrder> WriteOrders = {MemOrder::NonAtomic};
  /// Orders available on CppFence events (empty unless C++).
  std::vector<MemOrder> FenceOrders;
  /// Enumerate addr/data/ctrl dependencies.
  bool Deps = false;
  /// Enumerate adjacent RMW pairs.
  bool Rmw = true;
  /// Distinguish C++ atomic{} from synchronized{} transactions.
  bool AtomicTxns = false;
  unsigned MaxLocations = 3;
  unsigned MaxThreads = 4;

  /// The vocabulary used for each target in the paper's experiments.
  static Vocabulary forArch(Arch A);
};

/// Exhaustive generator of base (transaction-free) executions and of
/// transaction placements over a base.
class ExecutionEnumerator {
public:
  ExecutionEnumerator(const Vocabulary &V, unsigned NumEvents)
      : Vocab(V), Num(NumEvents) {}

  /// Invoke \p F on every well-formed base execution (the execution is
  /// reused between calls; copy it to keep it). \p F returns false to abort
  /// the enumeration (e.g. on a time budget); the result is false when
  /// aborted.
  bool forEachBase(const std::function<bool(Execution &)> &F) const;

  /// Invoke \p F on every canonical skeleton (non-increasing thread-size
  /// vector summing to `numEvents()`, at most `MaxThreads` parts) in DFS
  /// order. The skeletons are the root prefixes (`Labels` empty) of the
  /// prefix-task decomposition.
  void forEachSkeleton(
      const std::function<void(const std::vector<unsigned> &)> &F) const;

  /// The children of \p P: one prefix per admissible label of event
  /// `P.Labels.size()`, in the order the sequential DFS tries them.
  /// Empty when \p P is fully labelled. Replacing any task by its
  /// children preserves exact partitioning of the base space.
  std::vector<BasePrefix> expandPrefix(const BasePrefix &P) const;

  /// Upper bound on the number of labelled completions below \p P (the
  /// product of per-position branching-factor bounds). Strictly shrinks
  /// along any expansion; the pool splits tasks until it falls under a
  /// target cost.
  double estimateCost(const BasePrefix &P) const;

  /// Resume the base DFS below \p P: invoke \p F on exactly the
  /// well-formed bases whose skeleton is `P.Sizes` and whose first
  /// `P.Labels.size()` event labels equal `P.Labels`, in sequential DFS
  /// order. \p F returns false to abort; the result is false when aborted.
  bool forEachBasePrefixed(const BasePrefix &P,
                           const std::function<bool(Execution &)> &F) const;

  /// Invoke \p F on every placement of at least one successful transaction
  /// over \p X (the Txn fields are mutated in place and restored). \p F
  /// returns false to abort.
  bool forEachTxnPlacement(Execution &X,
                           const std::function<bool(Execution &)> &F) const;

  const Vocabulary &vocabulary() const { return Vocab; }
  unsigned numEvents() const { return Num; }

private:
  Vocabulary Vocab;
  unsigned Num;
};

} // namespace tmw

#endif // TMW_ENUMERATE_ENUMERATOR_H
