//===- Minimize.cpp - Shrinking counterexamples ---------------------------------==//

#include "metatheory/Minimize.h"

using namespace tmw;

Execution tmw::minimizeInconsistent(
    const Execution &X, const MemoryModel &M, const Vocabulary &V,
    const std::function<bool(const Execution &)> &Invariant) {
  assert(!M.consistent(X) && "nothing to minimise");
  Execution Cur = X, Next;
  // Step to the first inconsistent, invariant-preserving child until none
  // is left; the stream stops at that child, so the rest are never built.
  while (!forEachRelaxation(Cur, V, [&](const Execution &Child) {
    if (M.consistent(Child) || (Invariant && !Invariant(Child)))
      return true;
    Next = Child;
    return false;
  }))
    Cur = Next;
  return Cur;
}
