//===- Builder.cpp - Fluent construction of executions ----------------------==//

#include "execution/Builder.h"

#include <algorithm>

using namespace tmw;

EventId ExecutionBuilder::append(const Event &Ev) {
  // Exactly kMaxEvents events are legal, matching Execution::clear.
  assert(Events.size() < kMaxEvents && "execution too large");
  Events.push_back(Ev);
  return static_cast<EventId>(Events.size() - 1);
}

EventId ExecutionBuilder::read(unsigned Thread, LocId Loc, MemOrder MO) {
  Event Ev;
  Ev.Kind = EventKind::Read;
  Ev.Thread = Thread;
  Ev.Loc = Loc;
  Ev.Order = MO;
  return append(Ev);
}

EventId ExecutionBuilder::write(unsigned Thread, LocId Loc, MemOrder MO,
                                int Value) {
  Event Ev;
  Ev.Kind = EventKind::Write;
  Ev.Thread = Thread;
  Ev.Loc = Loc;
  Ev.Order = MO;
  Ev.WrittenValue = Value;
  return append(Ev);
}

EventId ExecutionBuilder::fence(unsigned Thread, FenceKind K, MemOrder MO) {
  Event Ev;
  Ev.Kind = EventKind::Fence;
  Ev.Thread = Thread;
  Ev.Fence = K;
  Ev.Order = MO;
  return append(Ev);
}

EventId ExecutionBuilder::lockCall(unsigned Thread, EventKind K) {
  assert((K == EventKind::Lock || K == EventKind::Unlock ||
          K == EventKind::TxLock || K == EventKind::TxUnlock) &&
         "not a lock method call");
  Event Ev;
  Ev.Kind = K;
  Ev.Thread = Thread;
  return append(Ev);
}

void ExecutionBuilder::rf(EventId W, EventId R) { RfEdges.push_back({W, R}); }
void ExecutionBuilder::co(EventId A, EventId B) { CoEdges.push_back({A, B}); }
void ExecutionBuilder::addr(EventId A, EventId B) {
  AddrEdges.push_back({A, B});
}
void ExecutionBuilder::data(EventId A, EventId B) {
  DataEdges.push_back({A, B});
}
void ExecutionBuilder::ctrl(EventId A, EventId B) {
  CtrlEdges.push_back({A, B});
}
void ExecutionBuilder::rmw(EventId A, EventId B) {
  RmwEdges.push_back({A, B});
}

int ExecutionBuilder::txn(std::initializer_list<EventId> Members,
                          bool Atomic) {
  Txns.push_back({std::vector<EventId>(Members), Atomic});
  return static_cast<int>(Txns.size() - 1);
}

int ExecutionBuilder::cr(std::initializer_list<EventId> Members) {
  Crs.push_back(std::vector<EventId>(Members));
  return static_cast<int>(Crs.size() - 1);
}

Execution ExecutionBuilder::buildUnchecked() const {
  Execution X(static_cast<unsigned>(Events.size()));
  for (unsigned E = 0; E < Events.size(); ++E)
    X.event(E) = Events[E];

  // po: strict total order per thread in insertion order.
  X.poFromThreadOrder();

  for (auto [A, B] : RfEdges)
    X.Rf.insert(A, B);
  for (auto [A, B] : AddrEdges)
    X.Addr.insert(A, B);
  for (auto [A, B] : DataEdges)
    X.Data.insert(A, B);
  for (auto [A, B] : RmwEdges)
    X.Rmw.insert(A, B);

  for (auto [A, B] : CtrlEdges)
    X.addCtrl(A, B);

  // co: complete the user edges to a strict total order per location,
  // breaking ties by event id (a stable topological extension).
  unsigned NumLocs = X.numLocations();
  for (unsigned L = 0; L < NumLocs; ++L) {
    std::vector<EventId> Ws;
    for (unsigned E = 0; E < Events.size(); ++E)
      if (Events[E].isWrite() && Events[E].Loc == static_cast<LocId>(L))
        Ws.push_back(E);
    Relation UserCo(X.size());
    for (auto [A, B] : CoEdges)
      if (Events[A].Loc == static_cast<LocId>(L))
        UserCo.insert(A, B);
    Relation UserCoPlus = UserCo.transitiveClosure();
    assert(UserCoPlus.isIrreflexive() && "contradictory co edges");
    // Kahn's algorithm with event-id tie-break.
    std::vector<EventId> Order;
    EventSet Remaining;
    for (EventId E : Ws)
      Remaining.insert(E);
    while (!Remaining.empty()) {
      EventId Next = kMaxEvents;
      for (EventId E : Remaining) {
        EventSet Preds = UserCoPlus.restrictRange(EventSet::singleton(E))
                             .domain() &
                         Remaining;
        if (Preds.empty()) {
          Next = E;
          break;
        }
      }
      assert(Next != kMaxEvents && "contradictory co edges");
      Order.push_back(Next);
      Remaining.erase(Next);
    }
    for (unsigned I = 0; I < Order.size(); ++I)
      for (unsigned J = I + 1; J < Order.size(); ++J)
        X.Co.insert(Order[I], Order[J]);
  }

  for (unsigned T = 0; T < Txns.size(); ++T) {
    for (EventId E : Txns[T].first)
      X.Txn[E] = static_cast<int>(T);
    if (Txns[T].second)
      X.AtomicTxns |= uint32_t(1) << T;
  }
  for (unsigned C = 0; C < Crs.size(); ++C)
    for (EventId E : Crs[C])
      X.Cr[E] = static_cast<int>(C);

  return X;
}

Execution ExecutionBuilder::build() const {
  Execution X = buildUnchecked();
  [[maybe_unused]] const char *Err = X.checkWellFormed();
  assert(Err == nullptr && "builder produced an ill-formed execution");
  return X;
}
