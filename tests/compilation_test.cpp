//===- compilation_test.cpp - C++ to hardware compilation (§8.2) --------------==//

#include "metatheory/Compilation.h"

#include "execution/Builder.h"
#include "models/Armv8Model.h"
#include "models/CppModel.h"
#include "models/PowerModel.h"
#include "models/X86Model.h"

#include <gtest/gtest.h>

using namespace tmw;

namespace {

Execution scMp() {
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, MemOrder::SeqCst, 1);
  EventId Ry = B.read(1, 1, MemOrder::SeqCst);
  B.read(1, 0);
  B.rf(Wy, Ry);
  return B.build();
}

TEST(CompileTest, X86InsertsMfenceAfterScStore) {
  Execution Y = compileExecution(scMp(), Arch::X86);
  EXPECT_EQ(ExecutionAnalysis(Y).fences(FenceKind::MFence).size(), 1u);
  EXPECT_EQ(Y.checkWellFormed(), nullptr);
  // The fence sits po-after the store to y on thread 0.
  EventId F = *ExecutionAnalysis(Y).fences(FenceKind::MFence).begin();
  EXPECT_EQ(Y.event(F).Thread, 0u);
}

TEST(CompileTest, PowerMapping) {
  Execution Y = compileExecution(scMp(), Arch::Power);
  // SC store: sync before. SC load: sync before + ctrl-isync after.
  EXPECT_EQ(ExecutionAnalysis(Y).fences(FenceKind::Sync).size(), 2u);
  EXPECT_EQ(ExecutionAnalysis(Y).fences(FenceKind::ISync).size(), 1u);
  EXPECT_FALSE(Y.Ctrl.isEmpty());
  EXPECT_EQ(Y.checkWellFormed(), nullptr);
}

TEST(CompileTest, Armv8UsesAcquireReleaseAccesses) {
  Execution Y = compileExecution(scMp(), Arch::Armv8);
  // LDAR/STLR, no barriers.
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
  unsigned Acq = 0, Rel = 0;
  for (unsigned E = 0; E < Y.size(); ++E) {
    Acq += Y.event(E).isRead() && Y.event(E).isAcquire();
    Rel += Y.event(E).isWrite() && Y.event(E).isRelease();
  }
  EXPECT_EQ(Acq, 1u);
  EXPECT_EQ(Rel, 1u);
}

TEST(CompileTest, RelaxedFencesDropOnX86) {
  ExecutionBuilder B;
  EventId W = B.write(0, 0, MemOrder::Relaxed, 1);
  B.fence(0, FenceKind::CppFence, MemOrder::Acquire);
  EventId R = B.read(0, 0, MemOrder::Relaxed);
  B.rf(W, R);
  B.read(1, 0, MemOrder::Relaxed);
  Execution Y = compileExecution(B.build(), Arch::X86);
  EXPECT_TRUE(ExecutionAnalysis(Y).fences().empty());
  EXPECT_EQ(Y.size(), 3u);
}

TEST(CompileTest, TransactionsPreserved) {
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, MemOrder::SeqCst, 1);
  B.txn({Wx, Wy});
  B.read(1, 0);
  B.read(1, 1);
  Execution Y = compileExecution(B.build(), Arch::Power);
  // The transaction covers both mapped stores and the inserted sync.
  EXPECT_EQ(Y.numTxns(), 1u);
  EXPECT_GE(Y.transactional().size(), 3u);
  EXPECT_EQ(Y.checkWellFormed(), nullptr);
}

TEST(CompileTest, RfCoRmwCarriedOver) {
  ExecutionBuilder B;
  EventId W1 = B.write(0, 0, MemOrder::Relaxed, 1);
  EventId R = B.read(1, 0, MemOrder::Relaxed);
  EventId W2 = B.write(1, 0, MemOrder::Relaxed, 2);
  B.rmw(R, W2);
  B.rf(W1, R);
  B.co(W1, W2);
  Execution Y = compileExecution(B.build(), Arch::Armv8);
  EXPECT_EQ(Y.Rf.numPairs(), 1u);
  EXPECT_EQ(Y.Co.numPairs(), 1u);
  EXPECT_EQ(Y.Rmw.numPairs(), 1u);
}

class CompilationSoundness : public ::testing::TestWithParam<Arch> {};

TEST_P(CompilationSoundness, HoldsAtSmallBounds) {
  // Table 2: no counterexample up to 6 events (we sweep 3 here; the
  // bench pushes further).
  CompilationResult R = checkCompilation(GetParam(), 3, 300.0);
  EXPECT_FALSE(R.CounterexampleFound)
      << "source:\n"
      << R.Source.dump() << "compiled:\n"
      << R.Compiled.dump();
  EXPECT_GT(R.Checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Targets, CompilationSoundness,
                         ::testing::Values(Arch::X86, Arch::Power,
                                           Arch::Armv8),
                         [](const auto &Info) {
                           return std::string(archName(Info.param));
                         });

TEST(CompilationSoundnessDirected, ForbiddenSourceStaysForbidden) {
  // The SC-SB execution is forbidden in C++; its compilations must be
  // forbidden too.
  ExecutionBuilder B;
  B.write(0, 0, MemOrder::SeqCst, 1);
  B.read(0, 1, MemOrder::SeqCst);
  B.write(1, 1, MemOrder::SeqCst, 1);
  B.read(1, 0, MemOrder::SeqCst);
  Execution X = B.build();
  CppModel Cpp;
  ASSERT_FALSE(Cpp.consistent(X));
  ASSERT_TRUE(Cpp.raceFree(X));

  EXPECT_FALSE(X86Model().consistent(compileExecution(X, Arch::X86)));
  EXPECT_FALSE(PowerModel().consistent(compileExecution(X, Arch::Power)));
  EXPECT_FALSE(Armv8Model().consistent(compileExecution(X, Arch::Armv8)));
}

TEST(CompilationSoundnessDirected, TransactionalMpStaysForbidden) {
  // Transactional message passing (§9 shape) is forbidden in C++ and on
  // every target after compilation.
  ExecutionBuilder B;
  EventId Wx = B.write(0, 0, MemOrder::NonAtomic, 1);
  EventId Wy = B.write(0, 1, MemOrder::NonAtomic, 1);
  EventId Ry = B.read(1, 1);
  EventId Rx = B.read(1, 0);
  B.rf(Wy, Ry);
  B.txn({Wx, Wy});
  B.txn({Ry, Rx});
  Execution X = B.build();
  CppModel Cpp;
  ASSERT_FALSE(Cpp.consistent(X));
  ASSERT_TRUE(Cpp.raceFree(X));

  EXPECT_FALSE(X86Model().consistent(compileExecution(X, Arch::X86)));
  EXPECT_FALSE(PowerModel().consistent(compileExecution(X, Arch::Power)));
  EXPECT_FALSE(Armv8Model().consistent(compileExecution(X, Arch::Armv8)));
}

} // namespace
