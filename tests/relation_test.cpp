//===- relation_test.cpp - Relational algebra unit tests ----------------------==//

#include "relation/Relation.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>
#include <vector>

using namespace tmw;

namespace {

Relation chain(unsigned N) {
  Relation R(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    R.insert(I, I + 1);
  return R;
}

TEST(EventSetTest, BasicOperations) {
  EventSet S;
  EXPECT_TRUE(S.empty());
  S.insert(3);
  S.insert(7);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(4));
  S.erase(3);
  EXPECT_FALSE(S.contains(3));
  EXPECT_EQ(S.size(), 1u);
}

TEST(EventSetTest, SetAlgebra) {
  EventSet A = EventSet::singleton(1) | EventSet::singleton(2);
  EventSet B = EventSet::singleton(2) | EventSet::singleton(3);
  EXPECT_EQ((A & B), EventSet::singleton(2));
  EXPECT_EQ((A - B), EventSet::singleton(1));
  EXPECT_EQ((A | B).size(), 3u);
}

TEST(EventSetTest, UniverseAndComplement) {
  EventSet U = EventSet::universe(5);
  EXPECT_EQ(U.size(), 5u);
  EventSet S = EventSet::singleton(0);
  EXPECT_EQ(S.complement(5).size(), 4u);
  EXPECT_FALSE(S.complement(5).contains(0));
}

TEST(EventSetTest, Iteration) {
  EventSet S;
  S.insert(5);
  S.insert(1);
  S.insert(9);
  std::vector<EventId> Got;
  for (EventId E : S)
    Got.push_back(E);
  EXPECT_EQ(Got, (std::vector<EventId>{1, 5, 9}));
}

TEST(RelationTest, InsertContainsErase) {
  Relation R(4);
  EXPECT_TRUE(R.isEmpty());
  R.insert(0, 3);
  EXPECT_TRUE(R.contains(0, 3));
  EXPECT_FALSE(R.contains(3, 0));
  EXPECT_EQ(R.numPairs(), 1u);
  R.erase(0, 3);
  EXPECT_TRUE(R.isEmpty());
}

TEST(RelationTest, ComposeChains) {
  Relation R = chain(4);
  Relation RR = R.compose(R);
  EXPECT_TRUE(RR.contains(0, 2));
  EXPECT_TRUE(RR.contains(1, 3));
  EXPECT_FALSE(RR.contains(0, 1));
  EXPECT_EQ(RR.numPairs(), 2u);
}

TEST(RelationTest, TransitiveClosureOfChain) {
  Relation R = chain(4).transitiveClosure();
  EXPECT_EQ(R.numPairs(), 6u); // 3 + 2 + 1
  EXPECT_TRUE(R.contains(0, 3));
  EXPECT_FALSE(R.contains(3, 0));
  EXPECT_TRUE(R.isAcyclic());
}

TEST(RelationTest, CycleDetection) {
  Relation R = chain(3);
  EXPECT_TRUE(R.isAcyclic());
  R.insert(2, 0);
  EXPECT_FALSE(R.isAcyclic());
  // A self-loop is a cycle too.
  Relation Self(2);
  Self.insert(1, 1);
  EXPECT_FALSE(Self.isAcyclic());
}

TEST(RelationTest, InverseInvolution) {
  Relation R(5);
  R.insert(0, 2);
  R.insert(2, 4);
  R.insert(1, 1);
  EXPECT_EQ(R.inverse().inverse(), R);
  EXPECT_TRUE(R.inverse().contains(2, 0));
}

TEST(RelationTest, IdentityAndCross) {
  EventSet S = EventSet::singleton(1) | EventSet::singleton(3);
  Relation Id = Relation::identityOn(S, 4);
  EXPECT_EQ(Id.numPairs(), 2u);
  EXPECT_TRUE(Id.contains(1, 1));
  Relation Cross = Relation::cross(S, EventSet::singleton(0), 4);
  EXPECT_EQ(Cross.numPairs(), 2u);
  EXPECT_TRUE(Cross.contains(3, 0));
}

TEST(RelationTest, DomainRange) {
  Relation R(4);
  R.insert(0, 1);
  R.insert(0, 2);
  R.insert(3, 1);
  EXPECT_EQ(R.domain(), (EventSet::singleton(0) | EventSet::singleton(3)));
  EXPECT_EQ(R.range(), (EventSet::singleton(1) | EventSet::singleton(2)));
  EXPECT_EQ(R.field().size(), 4u);
}

TEST(RelationTest, RestrictionAndComplement) {
  Relation R = chain(4);
  EXPECT_EQ(R.restrictDomain(EventSet::singleton(1)).numPairs(), 1u);
  EXPECT_EQ(R.restrictRange(EventSet::singleton(1)).numPairs(), 1u);
  Relation C = R.complement();
  EXPECT_EQ(C.numPairs(), 16u - 3u);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = 0; B < 4; ++B)
      EXPECT_NE(R.contains(A, B), C.contains(A, B));
}

TEST(RelationTest, OptionalAddsIdentity) {
  Relation R = chain(3).optional();
  EXPECT_TRUE(R.contains(0, 0));
  EXPECT_TRUE(R.contains(2, 2));
  EXPECT_EQ(R.numPairs(), 5u);
}

TEST(RelationTest, SubsetOf) {
  Relation R = chain(4);
  EXPECT_TRUE(R.subsetOf(R.transitiveClosure()));
  EXPECT_FALSE(R.transitiveClosure().subsetOf(R));
}

TEST(LiftTest, WeakLiftNeedsBothEndsInClasses) {
  // Two singleton transactions {0} and {2}; event 1 unclassified.
  Relation T(3);
  T.insert(0, 0);
  T.insert(2, 2);
  Relation R(3);
  R.insert(0, 2); // between transactions: lifted
  R.insert(0, 1); // to a non-transactional event: not lifted
  Relation W = weakLift(R, T);
  EXPECT_TRUE(W.contains(0, 2));
  EXPECT_FALSE(W.contains(0, 1));
}

TEST(LiftTest, StrongLiftIncludesOutsideEndpoints) {
  Relation T(3);
  T.insert(0, 0);
  Relation R(3);
  R.insert(1, 0); // into the transaction from outside
  R.insert(0, 2); // out of the transaction
  Relation S = strongLift(R, T);
  EXPECT_TRUE(S.contains(1, 0));
  EXPECT_TRUE(S.contains(0, 2));
  // weaklift sees neither.
  EXPECT_TRUE(weakLift(R, T).isEmpty());
}

TEST(LiftTest, LiftTreatsTransactionAsOneNode) {
  // Transaction {0,1}; edges 2->0 and 1->3 lift to edges covering the
  // whole class, creating 2 -> {0,1} -> 3.
  Relation T(4);
  for (EventId A : {0, 1})
    for (EventId B : {0, 1})
      T.insert(A, B);
  Relation R(4);
  R.insert(2, 0);
  R.insert(1, 3);
  Relation S = strongLift(R, T);
  EXPECT_TRUE(S.contains(2, 1));
  EXPECT_TRUE(S.contains(0, 3));
  // Composing finds the communication path through the transaction.
  EXPECT_TRUE(S.compose(S).contains(2, 3));
}

//===----------------------------------------------------------------------===
// Property sweeps over random relations.
//===----------------------------------------------------------------------===

class RandomRelationTest : public ::testing::TestWithParam<unsigned> {
protected:
  Relation randomRelation(std::mt19937 &Rng, unsigned N, double Density) {
    Relation R(N);
    std::bernoulli_distribution Flip(Density);
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = 0; B < N; ++B)
        if (Flip(Rng))
          R.insert(A, B);
    return R;
  }
};

TEST_P(RandomRelationTest, AlgebraicLaws) {
  std::mt19937 Rng(GetParam());
  unsigned N = 2 + GetParam() % 7;
  Relation R = randomRelation(Rng, N, 0.3);
  Relation S = randomRelation(Rng, N, 0.3);
  Relation T = randomRelation(Rng, N, 0.3);

  // Composition is associative.
  EXPECT_EQ(R.compose(S).compose(T), R.compose(S.compose(T)));
  // Composition distributes over union.
  EXPECT_EQ(R.compose(S | T), (R.compose(S) | R.compose(T)));
  // Inverse is an involution and reverses composition.
  EXPECT_EQ(R.inverse().inverse(), R);
  EXPECT_EQ(R.compose(S).inverse(), S.inverse().compose(R.inverse()));
  // De Morgan for sets of pairs.
  EXPECT_EQ((R | S).complement(), (R.complement() & S.complement()));
}

TEST_P(RandomRelationTest, ClosureLaws) {
  std::mt19937 Rng(GetParam() * 7919 + 1);
  unsigned N = 2 + GetParam() % 7;
  Relation R = randomRelation(Rng, N, 0.25);

  Relation Plus = R.transitiveClosure();
  // Closure is idempotent and contains the relation.
  EXPECT_EQ(Plus.transitiveClosure(), Plus);
  EXPECT_TRUE(R.subsetOf(Plus));
  // r+ is transitive.
  EXPECT_TRUE(Plus.compose(Plus).subsetOf(Plus));
  // r* = r+ u id.
  EXPECT_EQ(R.reflexiveTransitiveClosure(), Plus.optional());
  // Acyclicity agrees between r and r+.
  EXPECT_EQ(R.isAcyclic(), Plus.isIrreflexive());
}

TEST_P(RandomRelationTest, LiftDefinitions) {
  std::mt19937 Rng(GetParam() * 104729 + 3);
  unsigned N = 3 + GetParam() % 5;
  Relation R = randomRelation(Rng, N, 0.3);
  // Build a partial equivalence: a random block of events.
  Relation T(N);
  std::bernoulli_distribution Flip(0.5);
  EventSet Block;
  for (unsigned E = 0; E < N; ++E)
    if (Flip(Rng))
      Block.insert(E);
  for (EventId A : Block)
    for (EventId B : Block)
      T.insert(A, B);

  EXPECT_EQ(weakLift(R, T), T.compose(R - T).compose(T));
  EXPECT_EQ(strongLift(R, T),
            T.optional().compose(R - T).compose(T.optional()));
  // weaklift is contained in stronglift.
  EXPECT_TRUE(weakLift(R, T).subsetOf(strongLift(R, T)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRelationTest,
                         ::testing::Range(0u, 24u));

//===----------------------------------------------------------------------===
// Differential oracle: every public operation against a naive set of pairs,
// at every size 0..64, on fresh objects and on objects that first held the
// full relation over 64 events and were then assigned down to the size.
// Only rows [0, size()) of a relation are meaningful; a kernel that read a
// row past size() would see the stale all-ones rows and change an answer.
//===----------------------------------------------------------------------===

using PairSet = std::set<std::pair<EventId, EventId>>;

PairSet pairsOf(const Relation &R) {
  PairSet P;
  for (EventId A = 0; A < R.size(); ++A)
    for (EventId B = 0; B < R.size(); ++B)
      if (R.contains(A, B))
        P.insert({A, B});
  return P;
}

Relation fromPairs(const PairSet &P, unsigned N) {
  Relation R(N);
  for (auto [A, B] : P)
    R.insert(A, B);
  return R;
}

/// Successors of \p A in \p R, ascending.
std::vector<EventId> naiveSuccessors(const PairSet &R, EventId A) {
  std::vector<EventId> Out;
  for (auto It = R.lower_bound({A, 0}); It != R.end() && It->first == A; ++It)
    Out.push_back(It->second);
  return Out;
}

PairSet naiveUnion(const PairSet &R, const PairSet &S) {
  PairSet Out = R;
  Out.insert(S.begin(), S.end());
  return Out;
}

PairSet naiveIntersection(const PairSet &R, const PairSet &S) {
  PairSet Out;
  for (const auto &P : R)
    if (S.count(P))
      Out.insert(P);
  return Out;
}

PairSet naiveDifference(const PairSet &R, const PairSet &S) {
  PairSet Out;
  for (const auto &P : R)
    if (!S.count(P))
      Out.insert(P);
  return Out;
}

PairSet naiveCompose(const PairSet &R, const PairSet &S) {
  PairSet Out;
  for (auto [A, Mid] : R)
    for (EventId B : naiveSuccessors(S, Mid))
      Out.insert({A, B});
  return Out;
}

PairSet naiveInverse(const PairSet &R) {
  PairSet Out;
  for (auto [A, B] : R)
    Out.insert({B, A});
  return Out;
}

PairSet naiveIdentity(EventSet S, unsigned N) {
  PairSet Out;
  for (EventId E = 0; E < N; ++E)
    if (S.contains(E))
      Out.insert({E, E});
  return Out;
}

PairSet naiveComplement(const PairSet &R, unsigned N) {
  PairSet Out;
  for (EventId A = 0; A < N; ++A)
    for (EventId B = 0; B < N; ++B)
      if (!R.count({A, B}))
        Out.insert({A, B});
  return Out;
}

/// Transitive closure by a depth-first search from every event.
PairSet naivePlus(const PairSet &R, unsigned N) {
  PairSet Out;
  for (EventId Src = 0; Src < N; ++Src) {
    std::vector<EventId> Stack = {Src};
    while (!Stack.empty()) {
      EventId U = Stack.back();
      Stack.pop_back();
      for (EventId V : naiveSuccessors(R, U))
        if (Out.insert({Src, V}).second)
          Stack.push_back(V);
    }
  }
  return Out;
}

bool naiveIrreflexive(const PairSet &R) {
  for (auto [A, B] : R)
    if (A == B)
      return false;
  return true;
}

/// Length of a shortest cycle through \p E, or 0 when E lies on none.
unsigned naiveShortestCycle(const PairSet &R, EventId E, unsigned N) {
  std::vector<bool> Seen(N, false);
  std::vector<EventId> Frontier = {E};
  for (unsigned Len = 1; !Frontier.empty(); ++Len) {
    std::vector<EventId> Next;
    for (EventId U : Frontier)
      for (EventId V : naiveSuccessors(R, U)) {
        if (V == E)
          return Len;
        if (!Seen[V]) {
          Seen[V] = true;
          Next.push_back(V);
        }
      }
    Frontier = std::move(Next);
  }
  return 0;
}

PairSet randomPairs(std::mt19937 &Rng, unsigned N, double Density,
                    bool ForwardOnly) {
  PairSet P;
  std::bernoulli_distribution Flip(Density);
  for (EventId A = 0; A < N; ++A)
    for (EventId B = 0; B < N; ++B)
      if ((!ForwardOnly || A < B) && Flip(Rng))
        P.insert({A, B});
  return P;
}

EventSet randomSet(std::mt19937 &Rng, unsigned N) {
  std::bernoulli_distribution Flip(0.5);
  EventSet S;
  for (EventId E = 0; E < N; ++E)
    if (Flip(Rng))
      S.insert(E);
  return S;
}

/// The full relation over kMaxEvents events: every row all ones.
Relation fullRelation() {
  return Relation::cross(EventSet::universe(kMaxEvents),
                         EventSet::universe(kMaxEvents), kMaxEvents);
}

/// How the objects under test came to hold their value.
enum class Reuse {
  /// Built directly at their size.
  Fresh,
  /// Held fullRelation(), then copy-assigned from a named relation.
  CopyAssigned,
  /// Held fullRelation(), then move-assigned.
  MoveAssigned,
};

/// Gives \p Obj the value \p P over \p N events the way \p M says.
void assign(Relation &Obj, const PairSet &P, unsigned N, Reuse M) {
  Relation Built = fromPairs(P, N);
  if (M != Reuse::Fresh)
    Obj = fullRelation();
  if (M == Reuse::MoveAssigned)
    Obj = std::move(Built);
  else
    Obj = Built;
}

class RelationOracleTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RelationOracleTest, EveryOperationMatchesNaivePairSets) {
  const unsigned N = GetParam();
  std::mt19937 Rng(N * 2654435761u + 17);
  struct Shape {
    double Density;
    bool ForwardOnly;
  };
  // Sparse, medium and dense relations, plus acyclic (forward-only) ones
  // so that isAcyclic and findCycle see both answers at every size.
  const Shape Shapes[] = {{0.05, false}, {0.3, false}, {0.9, false},
                          {0.3, true}};
  for (const Shape &Sh : Shapes) {
    const PairSet RP = randomPairs(Rng, N, Sh.Density, Sh.ForwardOnly);
    const PairSet SP = randomPairs(Rng, N, Sh.Density, Sh.ForwardOnly);
    const EventSet Dom = randomSet(Rng, N), Ran = randomSet(Rng, N);
    const PairSet Id = naiveIdentity(EventSet::universe(N), N);
    const PairSet Composed = naiveCompose(RP, SP);
    const PairSet Complement = naiveComplement(RP, N);
    const PairSet Plus = naivePlus(RP, N);
    for (Reuse M : {Reuse::Fresh, Reuse::CopyAssigned, Reuse::MoveAssigned}) {
      SCOPED_TRACE(testing::Message()
                   << "N=" << N << " density=" << Sh.Density
                   << " forward=" << Sh.ForwardOnly
                   << " reuse=" << static_cast<int>(M));
      Relation R, S;
      assign(R, RP, N, M);
      assign(S, SP, N, M);
      // Results land in an object that held fullRelation() as well.
      Relation Out = fullRelation();
      auto Got = [&](const Relation &Value) {
        Out = Value;
        EXPECT_EQ(Out.size(), N);
        return pairsOf(Out);
      };

      EXPECT_EQ(R.size(), N);
      EXPECT_EQ(pairsOf(R), RP);
      EXPECT_EQ(Got(R | S), naiveUnion(RP, SP));
      EXPECT_EQ(Got(R & S), naiveIntersection(RP, SP));
      EXPECT_EQ(Got(R - S), naiveDifference(RP, SP));
      {
        Relation C;
        assign(C, RP, N, M);
        C |= S;
        EXPECT_EQ(pairsOf(C), naiveUnion(RP, SP));
        assign(C, RP, N, M);
        C &= S;
        EXPECT_EQ(pairsOf(C), naiveIntersection(RP, SP));
        assign(C, RP, N, M);
        C -= S;
        EXPECT_EQ(pairsOf(C), naiveDifference(RP, SP));
      }
      EXPECT_EQ(Got(R.compose(S)), Composed);
      EXPECT_EQ(Got(R.inverse()), naiveInverse(RP));
      EXPECT_EQ(Got(R.complement()), Complement);
      EXPECT_EQ(Got(R.optional()), naiveUnion(RP, Id));
      EXPECT_EQ(Got(R.transitiveClosure()), Plus);
      EXPECT_EQ(Got(R.reflexiveTransitiveClosure()), naiveUnion(Plus, Id));

      PairSet RestrictedDom, RestrictedRan;
      EventSet Domain, Range, Reflexive;
      for (auto [A, B] : RP) {
        if (Dom.contains(A))
          RestrictedDom.insert({A, B});
        if (Ran.contains(B))
          RestrictedRan.insert({A, B});
        Domain.insert(A);
        Range.insert(B);
        if (A == B)
          Reflexive.insert(A);
      }
      EXPECT_EQ(Got(R.restrictDomain(Dom)), RestrictedDom);
      EXPECT_EQ(Got(R.restrictRange(Ran)), RestrictedRan);
      EXPECT_EQ(R.domain(), Domain);
      EXPECT_EQ(R.range(), Range);
      EXPECT_EQ(R.field(), Domain | Range);
      EXPECT_EQ(R.reflexivePoints(), Reflexive);

      EXPECT_EQ(Got(Relation::identityOn(Dom, N)), naiveIdentity(Dom, N));
      PairSet Cross;
      for (EventId A : Dom)
        for (EventId B : Ran)
          Cross.insert({A, B});
      EXPECT_EQ(Got(Relation::cross(Dom, Ran, N)), Cross);
      EXPECT_TRUE(Relation::empty(N).isEmpty());

      EXPECT_EQ(R.isEmpty(), RP.empty());
      EXPECT_EQ(R.isIrreflexive(), naiveIrreflexive(RP));
      EXPECT_EQ(R.isAcyclic(), naiveIrreflexive(Plus));
      EXPECT_EQ(R.numPairs(), RP.size());
      EXPECT_EQ(R.subsetOf(S), naiveDifference(RP, SP).empty());
      EXPECT_EQ(R == S, RP == SP);

      // Witness: the shortest cycle through the lowest event on a cycle.
      EventSet Cycle = R.findCycle();
      if (naiveIrreflexive(Plus)) {
        EXPECT_TRUE(Cycle.empty());
      } else {
        EventId Lowest = 0;
        while (!Plus.count({Lowest, Lowest}))
          ++Lowest;
        EXPECT_EQ(Cycle.first(), EventSet::singleton(Lowest));
        EXPECT_EQ(Cycle.size(), naiveShortestCycle(RP, Lowest, N));
        // Restricted to its own events, the witness still cycles through
        // the lowest one.
        PairSet Within;
        for (auto [A, B] : RP)
          if (Cycle.contains(A) && Cycle.contains(B))
            Within.insert({A, B});
        EXPECT_TRUE(naivePlus(Within, N).count({Lowest, Lowest}));
      }

      PairSet Visited;
      EventId PrevA = 0, PrevB = 0;
      bool Ordered = true;
      R.forEachPair([&](EventId A, EventId B) {
        if (!Visited.empty() &&
            std::make_pair(A, B) <= std::make_pair(PrevA, PrevB))
          Ordered = false;
        Visited.insert({A, B});
        PrevA = A;
        PrevB = B;
      });
      EXPECT_EQ(Visited, RP);
      EXPECT_TRUE(Ordered);
      for (EventId A = 0; A < N; ++A) {
        EventSet Succ;
        for (EventId B : naiveSuccessors(RP, A))
          Succ.insert(B);
        EXPECT_EQ(R.successors(A), Succ);
      }
    }
  }
}

TEST_P(RelationOracleTest, EqualityIgnoresRowsPastSize) {
  // The same value held by objects whose dead rows differ: one reused
  // from the full 64-event relation, one from the empty one, one fresh.
  const unsigned N = GetParam();
  std::mt19937 Rng(N + 101);
  const PairSet P = randomPairs(Rng, N, 0.4, false);
  Relation FromFull = fullRelation();
  FromFull = fromPairs(P, N);
  Relation FromEmpty(kMaxEvents);
  FromEmpty = fromPairs(P, N);
  Relation Fresh = fromPairs(P, N);
  EXPECT_TRUE(FromFull == FromEmpty);
  EXPECT_TRUE(FromEmpty == FromFull);
  EXPECT_TRUE(FromFull == Fresh);
  EXPECT_TRUE(FromFull.subsetOf(FromEmpty));
  EXPECT_TRUE(FromEmpty.subsetOf(FromFull));
  EXPECT_EQ((FromFull | FromEmpty), Fresh);
  EXPECT_EQ((FromFull - FromEmpty).numPairs(), 0u);
  // Copies of a reused object carry only its live rows.
  Relation Copy(FromFull);
  EXPECT_EQ(Copy, FromEmpty);
  Copy = Copy; // self-assignment keeps the value
  EXPECT_EQ(pairsOf(Copy), P);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelationOracleTest,
                         ::testing::Range(0u, kMaxEvents + 1));

TEST(RelationTest, UniverseOf64Events) {
  // The edge the byte-per-row sweeps never reach: a full 64-bit row.
  Relation Full = fullRelation();
  EXPECT_EQ(Full.size(), kMaxEvents);
  EXPECT_EQ(Full.numPairs(), kMaxEvents * kMaxEvents);
  EXPECT_EQ(Full.domain(), EventSet::universe(kMaxEvents));
  EXPECT_EQ(Full.range(), EventSet::universe(kMaxEvents));
  EXPECT_TRUE(Full.complement().isEmpty());
  EXPECT_EQ(Full.compose(Full), Full);
  EXPECT_EQ(Full.transitiveClosure(), Full);
  EXPECT_EQ(Relation(kMaxEvents).complement(), Full);
  EXPECT_FALSE(Full.isAcyclic());
  EXPECT_EQ(Full.findCycle(), EventSet::singleton(0));
  EXPECT_FALSE(Relation(kMaxEvents).optional().isIrreflexive());
}

} // namespace
