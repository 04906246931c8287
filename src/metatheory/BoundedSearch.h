//===- BoundedSearch.h - The §8.1/§8.2 bounded search loop ------*- C++ -*-==//

#ifndef TMW_METATHEORY_BOUNDEDSEARCH_H
#define TMW_METATHEORY_BOUNDEDSEARCH_H

#include "enumerate/Enumerator.h"

#include <chrono>
#include <functional>

namespace tmw {

/// The search loop of the monotonicity (§8.1) and compilation (§8.2)
/// checks: hand every execution of up to \p NumEvents events over \p V to
/// \p Try — each transaction-free base, then every transaction placement
/// over it — until \p Try returns false (it found a counterexample and
/// recorded it in \p Res) or \p BudgetSeconds runs out. Sets
/// `Res.Complete` and `Res.Seconds`.
template <typename ResultT, typename TryT>
void boundedTxnSearch(const Vocabulary &V, unsigned NumEvents,
                      double BudgetSeconds, ResultT &Res, TryT &&Try) {
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };
  ExecutionEnumerator Enum(V, NumEvents);
  std::function<bool(Execution &)> Visit = [&](Execution &X) {
    return Elapsed() <= BudgetSeconds && Try(X);
  };
  bool Finished = Enum.forEachBase([&](Execution &Base) {
    return Visit(Base) && Enum.forEachTxnPlacement(Base, Visit);
  });
  Res.Complete = Finished || Res.CounterexampleFound;
  Res.Seconds = Elapsed();
}

} // namespace tmw

#endif // TMW_METATHEORY_BOUNDEDSEARCH_H
