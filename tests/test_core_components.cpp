// Unit tests for the Dnode local control unit.  The register file,
// the Dnode datapath and the feedback pipelines are tested at the ring
// level (test_ring.cpp).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/local_control.hpp"

namespace sring {
namespace {

TEST(LocalControl, CountsThroughLimitAndWraps) {
  LocalControl lc;
  DnodeInstr i0, i1, i2;
  i0.op = DnodeOp::kPass;
  i1.op = DnodeOp::kAdd;
  i2.op = DnodeOp::kMul;
  lc.write(0, i0.encode());
  lc.write(1, i1.encode());
  lc.write(2, i2.encode());
  lc.write(LocalControl::kLimitSlot, 2);
  EXPECT_EQ(lc.current().op, DnodeOp::kPass);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kAdd);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kMul);
  lc.advance();
  EXPECT_EQ(lc.current().op, DnodeOp::kPass) << "must wrap after LIMIT";
}

TEST(LocalControl, LimitOneRegisterLoopsSlotZero) {
  LocalControl lc;
  DnodeInstr mac;
  mac.op = DnodeOp::kMac;
  lc.write(0, mac.encode());
  lc.write(LocalControl::kLimitSlot, 0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lc.current().op, DnodeOp::kMac);
    lc.advance();
  }
}

TEST(LocalControl, ResetSlotClearsCounter) {
  LocalControl lc;
  lc.write(LocalControl::kLimitSlot, 7);
  lc.advance();
  lc.advance();
  EXPECT_EQ(lc.counter(), 2);
  lc.write(LocalControl::kResetSlot, 0);
  EXPECT_EQ(lc.counter(), 0);
}

TEST(LocalControl, LimitShrinkResetsOutOfRangeCounter) {
  LocalControl lc;
  lc.write(LocalControl::kLimitSlot, 7);
  for (int i = 0; i < 6; ++i) lc.advance();
  EXPECT_EQ(lc.counter(), 6);
  lc.write(LocalControl::kLimitSlot, 3);
  EXPECT_EQ(lc.counter(), 0) << "counter beyond new LIMIT must clear";
}

TEST(LocalControl, BadSlotRejected) {
  LocalControl lc;
  EXPECT_THROW(lc.write(10, 0), SimError);
}

}  // namespace
}  // namespace sring
