//===- RfCo.h - The rf/co completion primitive ------------------*- C++ -*-==//
///
/// \file
/// The freedom of a candidate execution (§2): every read observes a
/// same-location write or the initial value, and coherence is any strict
/// total order over the writes to each location. `forEachRfCo` enumerates
/// exactly that freedom over the events a caller names, and it is the
/// library's only rf/co chooser: program candidates (Candidates.h),
/// synthesis bases (Enumerator.h), abstract lock-elision executions and
/// lock-variable completions (LockElision.h) all pass through it.
///
/// The visit order is a contract — the candidate index `first_forbidden`
/// in the canonical verdict JSON and the counterexamples the benches print
/// are defined by it, and tests/visit_order_test.cpp pins it:
///
///  * every rf choice is made before any co choice;
///  * reads are decided in ascending event id, the lowest varying slowest;
///    per read the initial value (no incoming rf) comes first, then the
///    same-location sources in ascending event id;
///  * co is chosen per location in ascending location order, each
///    location walking `std::next_permutation` from ascending event ids.
///
/// Well-formedness filtering stays with the caller: the sink sees every
/// completion.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_ENUMERATE_RFCO_H
#define TMW_ENUMERATE_RFCO_H

#include "execution/Execution.h"

#include <algorithm>
#include <array>

namespace tmw {

/// Call \p Sink(X) on every completion of rf into \p Reads (each read
/// observes the initial value or a member of \p Sources at its location)
/// and of co over the writes \p Ordered (a strict total order per
/// location), in the order of the file comment. \p X is mutated in place
/// and restored before returning, also when stopped early; rf into
/// \p Reads and co among \p Ordered must be empty on entry. \p Sink
/// returns false to stop the enumeration; the result is then false.
template <typename SinkT>
bool forEachRfCo(Execution &X, EventSet Reads, EventSet Sources,
                 EventSet Ordered, SinkT &&Sink) {
  // Fixed-size state, no allocation: the synthesis search calls this once
  // per dependency choice.
  std::array<EventId, kMaxEvents> Read{};
  std::array<EventSet, kMaxEvents> SourcesOf{}; // same-location sources
  // Co group G is Perm[GroupBegin[G], GroupBegin[G + 1]), permuted in place.
  std::array<EventId, kMaxEvents> Perm{};
  std::array<unsigned, kMaxEvents + 1> GroupBegin{};
  unsigned NumReads = 0, NumGroups = 0;
  for (EventId R : Reads) {
    Read[NumReads] = R;
    SourcesOf[NumReads++] = Sources & X.atLocation(X.event(R).Loc);
  }
  assert((Ordered - X.writes()).empty() && "co orders writes only");
  for (LocId L = 0; !Ordered.empty(); ++L) {
    EventSet Group = Ordered & X.atLocation(L);
    Ordered = Ordered - Group;
    if (Group.size() < 2)
      continue; // nothing to order
    unsigned End = GroupBegin[NumGroups];
    for (EventId W : Group)
      Perm[End++] = W;
    GroupBegin[++NumGroups] = End;
  }

  auto ChooseCo = [&](auto &Self, unsigned G) -> bool {
    if (G == NumGroups)
      return Sink(X);
    EventId *First = Perm.data() + GroupBegin[G];
    EventId *Last = Perm.data() + GroupBegin[G + 1];
    bool Go = true;
    do {
      for (EventId *A = First; A != Last; ++A)
        for (EventId *B = First; B != Last; ++B)
          if (A < B)
            X.Co.insert(*A, *B);
          else if (A != B)
            X.Co.erase(*A, *B);
      Go = Self(Self, G + 1);
    } while (Go && std::next_permutation(First, Last));
    for (EventId *A = First; A != Last; ++A)
      for (EventId *B = First; B != Last; ++B)
        if (A != B)
          X.Co.erase(*A, *B);
    return Go;
  };
  auto ChooseRf = [&](auto &Self, unsigned I) -> bool {
    if (I == NumReads)
      return ChooseCo(ChooseCo, 0);
    if (!Self(Self, I + 1)) // the initial value
      return false;
    for (EventId W : SourcesOf[I]) {
      X.Rf.insert(W, Read[I]);
      bool Go = Self(Self, I + 1);
      X.Rf.erase(W, Read[I]);
      if (!Go)
        return false;
    }
    return true;
  };
  return ChooseRf(ChooseRf, 0);
}

} // namespace tmw

#endif // TMW_ENUMERATE_RFCO_H
