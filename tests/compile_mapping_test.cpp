//===- compile_mapping_test.cpp - Per-rule compilation-mapping checks ----------==//
///
/// Each row of the §8.2 mapping table exercised in isolation: the right
/// fences/annotations appear in the right places, transactions absorb
/// their inserted fences, and end-to-end verdicts agree on directed
/// shapes.
///
//===----------------------------------------------------------------------===//

#include "metatheory/Compilation.h"

#include "execution/Builder.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

/// One C++ access of the given kind/order plus a second thread to keep
/// the location shared.
Execution single(EventKind K, MemOrder MO) {
  ExecutionBuilder B;
  if (K == EventKind::Read) {
    B.read(0, 0, MO);
    B.write(1, 0, MemOrder::Relaxed, 1);
  } else {
    B.write(0, 0, MO, 1);
    B.read(1, 0, MemOrder::Relaxed);
  }
  return B.build();
}

unsigned countFences(const Execution &X, FenceKind K) {
  return ExecutionAnalysis(X).fences(K).size();
}

TEST(CompileRuleTest, X86RelaxedAccessesAreBare) {
  Execution Y = compileExecution(single(EventKind::Read, MemOrder::Relaxed),
                                 Arch::X86);
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
  Y = compileExecution(single(EventKind::Write, MemOrder::Release),
                       Arch::X86);
  // Release is free on TSO.
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
}

TEST(CompileRuleTest, X86ScStoreGetsTrailingMfence) {
  Execution Y = compileExecution(single(EventKind::Write, MemOrder::SeqCst),
                                 Arch::X86);
  ASSERT_EQ(countFences(Y, FenceKind::MFence), 1u);
  EventId F = *ExecutionAnalysis(Y).fences(FenceKind::MFence).begin();
  // The fence follows the store in program order.
  EXPECT_FALSE(
      Y.Po.restrictRange(EventSet::singleton(F)).domain().empty());
}

TEST(CompileRuleTest, X86ScLoadIsBare) {
  Execution Y = compileExecution(single(EventKind::Read, MemOrder::SeqCst),
                                 Arch::X86);
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
}

TEST(CompileRuleTest, PowerAcquireLoadGetsCtrlIsync) {
  Execution Y = compileExecution(
      single(EventKind::Read, MemOrder::Acquire), Arch::Power);
  EXPECT_EQ(countFences(Y, FenceKind::ISync), 1u);
  EXPECT_FALSE(Y.Ctrl.isEmpty());
  EXPECT_EQ(countFences(Y, FenceKind::Sync), 0u);
}

TEST(CompileRuleTest, PowerScLoadAddsLeadingSync) {
  Execution Y = compileExecution(single(EventKind::Read, MemOrder::SeqCst),
                                 Arch::Power);
  EXPECT_EQ(countFences(Y, FenceKind::Sync), 1u);
  EXPECT_EQ(countFences(Y, FenceKind::ISync), 1u);
}

TEST(CompileRuleTest, PowerReleaseStoreGetsLwsync) {
  Execution Y = compileExecution(
      single(EventKind::Write, MemOrder::Release), Arch::Power);
  EXPECT_EQ(countFences(Y, FenceKind::LwSync), 1u);
  Y = compileExecution(single(EventKind::Write, MemOrder::SeqCst),
                       Arch::Power);
  EXPECT_EQ(countFences(Y, FenceKind::Sync), 1u);
  EXPECT_EQ(countFences(Y, FenceKind::LwSync), 0u);
}

TEST(CompileRuleTest, Armv8UsesAnnotationsNotFences) {
  Execution Y = compileExecution(
      single(EventKind::Read, MemOrder::Acquire), Arch::Armv8);
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
  EXPECT_EQ((ExecutionAnalysis(Y).acquires() & Y.reads()).size(), 1u);

  Y = compileExecution(single(EventKind::Write, MemOrder::SeqCst),
                       Arch::Armv8);
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
  EXPECT_EQ((ExecutionAnalysis(Y).releases() & Y.writes()).size(), 1u);
}

TEST(CompileRuleTest, CppFencesMapPerTarget) {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::Relaxed, 1);
  B.fence(0, FenceKind::CppFence, MemOrder::SeqCst);
  B.read(0, 1, MemOrder::Relaxed);
  B.write(1, 1, MemOrder::Relaxed, 1);
  B.fence(1, FenceKind::CppFence, MemOrder::Acquire);
  B.read(1, 0, MemOrder::Relaxed);
  Execution X = B.build();

  Execution Yx = compileExecution(X, Arch::X86);
  EXPECT_EQ(countFences(Yx, FenceKind::MFence), 1u); // acq fence drops

  Execution Yp = compileExecution(X, Arch::Power);
  EXPECT_EQ(countFences(Yp, FenceKind::Sync), 1u);
  EXPECT_EQ(countFences(Yp, FenceKind::LwSync), 1u);

  Execution Ya = compileExecution(X, Arch::Armv8);
  EXPECT_EQ(countFences(Ya, FenceKind::Dmb), 2u);
}

TEST(CompileRuleTest, EventCountsAccount) {
  // 2 relaxed accesses + 1 sc store + 1 acq load -> Power: 4 accesses +
  // 1 sync (sc store) + 1 isync (acq load) = 6.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::Relaxed, 1);
  B.write(0, 1, MemOrder::SeqCst, 1);
  B.read(1, 1, MemOrder::Acquire);
  B.read(1, 0, MemOrder::Relaxed);
  Execution Y = compileExecution(B.build(), Arch::Power);
  EXPECT_EQ(Y.size(), 6u);
}

TEST(CompileRuleTest, MappedMpIsForbiddenOnEveryTarget) {
  // MP with rel/acq compiles to shapes that forbid the stale read
  // everywhere — the soundness direction on the classic idiom.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::Relaxed, 1);
  EventId Wy = B.write(0, 1, MemOrder::Release, 1);
  EventId Ry = B.read(1, 1, MemOrder::Acquire);
  B.read(1, 0, MemOrder::Relaxed);
  B.rf(Wy, Ry);
  Execution X = B.build();
  CppModel Cpp;
  ASSERT_FALSE(Cpp.consistent(X));

  EXPECT_FALSE(X86Model().consistent(compileExecution(X, Arch::X86)));
  EXPECT_FALSE(PowerModel().consistent(compileExecution(X, Arch::Power)));
  EXPECT_FALSE(Armv8Model().consistent(compileExecution(X, Arch::Armv8)));
}

TEST(CompileRuleTest, AllowedSourceStaysAllowedOnWeakTargets) {
  // Relaxed MP is C++-allowed; its compilations stay allowed on
  // Power/ARMv8 (completeness direction — the mapping inserts no
  // spurious fences).
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::Relaxed, 1);
  EventId Wy = B.write(0, 1, MemOrder::Relaxed, 1);
  EventId Ry = B.read(1, 1, MemOrder::Relaxed);
  B.read(1, 0, MemOrder::Relaxed);
  B.rf(Wy, Ry);
  Execution X = B.build();
  CppModel Cpp;
  ASSERT_TRUE(Cpp.consistent(X));

  EXPECT_TRUE(PowerModel().consistent(compileExecution(X, Arch::Power)));
  EXPECT_TRUE(Armv8Model().consistent(compileExecution(X, Arch::Armv8)));
}

} // namespace
