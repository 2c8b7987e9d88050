/**
 * @file
 * Unit tests for src/core metrics helpers and the resource
 * primitives in src/core/resources.hh.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/core/metrics.hh"
#include "src/core/resources.hh"
#include "src/core/sim_error.hh"
#include "src/memsys/mem_system.hh"

namespace mtv
{
namespace
{

TEST(Metrics, FuStateNamesMatchPaperTuples)
{
    EXPECT_EQ(fuStateName(0), "<   ,   ,  >");
    EXPECT_EQ(fuStateName(1), "<   ,   ,LD>");
    EXPECT_EQ(fuStateName(2), "<   ,FU1,  >");
    EXPECT_EQ(fuStateName(4), "<FU2,   ,  >");
    EXPECT_EQ(fuStateName(7), "<FU2,FU1,LD>");
}

TEST(Metrics, BlockReasonNamesAreDistinct)
{
    std::set<std::string> names;
    for (int i = 0; i < static_cast<int>(BlockReason::NumReasons); ++i)
        names.insert(blockReasonName(static_cast<BlockReason>(i)));
    EXPECT_EQ(names.size(),
              static_cast<size_t>(BlockReason::NumReasons));
}

TEST(Metrics, OccupationAndVopc)
{
    SimStats s;
    s.cycles = 1000;
    s.memRequests = 800;
    s.vecOpsFu1 = 600;
    s.vecOpsFu2 = 400;
    EXPECT_DOUBLE_EQ(s.memPortOccupation(), 0.8);
    EXPECT_DOUBLE_EQ(s.vopc(), 1.0);
    s.memPorts = 2;
    EXPECT_DOUBLE_EQ(s.memPortOccupation(), 0.4);
}

TEST(Metrics, ZeroCycleStatsAreSafe)
{
    const SimStats s;
    EXPECT_EQ(s.memPortOccupation(), 0.0);
    EXPECT_EQ(s.vopc(), 0.0);
    EXPECT_EQ(s.memPortIdleFraction(), 0.0);
}

TEST(Metrics, IdleFractionCountsLdClearStates)
{
    SimStats s;
    s.cycles = 100;
    s.stateHist[0] = 30;   // all idle
    s.stateHist[2] = 20;   // FU1 only
    s.stateHist[1] = 25;   // LD only
    s.stateHist[7] = 25;   // all busy
    EXPECT_DOUBLE_EQ(s.memPortIdleFraction(), 0.5);
}

TEST(Metrics, SimErrorCarriesBlockedContexts)
{
    std::vector<BlockedContext> blocked;
    blocked.push_back({0, "flo52", BlockReason::MemPortBusy,
                       "vload v1, 0x100", 1});
    blocked.push_back({1, "tomcatv", BlockReason::SourceNotReady,
                       "", 0});
    const SimError err(123456, 2000, blocked);
    EXPECT_EQ(err.cycle(), 123456u);
    EXPECT_EQ(err.stalledCycles(), 2000u);
    ASSERT_EQ(err.contexts().size(), 2u);
    EXPECT_EQ(err.contexts()[0].reason, BlockReason::MemPortBusy);
    EXPECT_EQ(err.contexts()[1].program, "tomcatv");
    const std::string what = err.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("mem-port-busy"), std::string::npos);
    EXPECT_NE(what.find("flo52"), std::string::npos);
    EXPECT_NE(what.find("2000"), std::string::npos);
}

TEST(Resources, ReportedNextEvents)
{
    MemPort port;
    port.pipe.occupy(5, 25);
    port.bus.reserve(5, 3);
    const uint64_t busFree = port.bus.freeCycle();
    ASSERT_GT(busFree, 5u);
    ASSERT_LT(busFree, 25u);
    EXPECT_EQ(port.nextEventAfter(4), busFree);
    EXPECT_EQ(port.nextEventAfter(busFree), 25u);
    EXPECT_EQ(port.nextEventAfter(25), 0u);

    EventMin em(10);
    em.consider(9);   // not pending
    em.consider(10);  // not strictly after
    EXPECT_EQ(em.next, 0u);
    em.consider(40);
    em.consider(15);
    em.consider(20);
    EXPECT_EQ(em.next, 15u);
}

TEST(Resources, PipeUnitOccupancy)
{
    PipeUnit unit;
    EXPECT_TRUE(unit.freeAt(0));
    unit.occupy(5, 10);
    EXPECT_FALSE(unit.freeAt(9));
    EXPECT_TRUE(unit.freeAt(10));
    EXPECT_FALSE(unit.busyAt(4));
    EXPECT_TRUE(unit.busyAt(5));
    EXPECT_TRUE(unit.busyAt(9));
    EXPECT_FALSE(unit.busyAt(10));
    EXPECT_EQ(unit.busyCycles(), 5u);
    unit.occupy(20, 22);
    EXPECT_EQ(unit.busyCycles(), 7u);
    unit.clear();
    EXPECT_EQ(unit.busyCycles(), 0u);
    EXPECT_TRUE(unit.freeAt(0));
}

TEST(Resources, VRegTimingPredicates)
{
    VRegTiming reg;
    EXPECT_TRUE(reg.completeAt(0));
    EXPECT_TRUE(reg.idleAt(0));
    reg.writeDone = 100;
    reg.readBusy = 50;
    EXPECT_FALSE(reg.completeAt(99));
    EXPECT_TRUE(reg.completeAt(100));
    EXPECT_FALSE(reg.idleAt(99));
    EXPECT_TRUE(reg.idleAt(100));
    reg.readBusy = 120;
    EXPECT_FALSE(reg.idleAt(110));
    EXPECT_TRUE(reg.idleAt(120));
}

TEST(Resources, BankPortsTwoReadersOneWriter)
{
    BankPorts bank;
    EXPECT_EQ(bank.freeReadPorts(0), 2);
    bank.takeReadPort(0, 100);
    EXPECT_EQ(bank.freeReadPorts(0), 1);
    bank.takeReadPort(0, 50);
    EXPECT_EQ(bank.freeReadPorts(0), 0);
    EXPECT_EQ(bank.freeReadPorts(50), 1);
    EXPECT_EQ(bank.freeReadPorts(100), 2);
    EXPECT_TRUE(bank.writeFreeAt(0));
    bank.writeUntil = 40;
    EXPECT_FALSE(bank.writeFreeAt(39));
    EXPECT_TRUE(bank.writeFreeAt(40));
}

TEST(Resources, BankPortReusesFreedSlot)
{
    BankPorts bank;
    bank.takeReadPort(0, 10);
    bank.takeReadPort(0, 100);
    // At t=10 the first port is free again and can be re-taken.
    EXPECT_EQ(bank.freeReadPorts(10), 1);
    bank.takeReadPort(10, 60);
    EXPECT_EQ(bank.freeReadPorts(10), 0);
    EXPECT_EQ(bank.freeReadPorts(60), 1);
}

TEST(Resources, VRegBankPairing)
{
    EXPECT_EQ(vregBank(0), 0);
    EXPECT_EQ(vregBank(1), 0);
    EXPECT_EQ(vregBank(2), 1);
    EXPECT_EQ(vregBank(6), 3);
    EXPECT_EQ(vregBank(7), 3);
}

} // namespace
} // namespace mtv
