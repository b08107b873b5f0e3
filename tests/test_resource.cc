/**
 * @file
 * Structural-resource tests: the per-cycle slot calendar (issue and
 * commit bandwidth, functional units) and the occupancy window (ROB,
 * IQ, LQ, SQ, physical registers) of the timing core.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/resource.hh"

namespace chex
{
namespace
{

TEST(Resource, CalendarSpillsToNextCycleAtWidth)
{
    ResourceCalendar cal(2);
    EXPECT_EQ(cal.reserve(10), 10u);
    EXPECT_EQ(cal.reserve(10), 10u);
    EXPECT_EQ(cal.reserve(10), 11u);
    EXPECT_EQ(cal.reserve(10), 11u);
    EXPECT_EQ(cal.reserve(10), 12u);
    // An earlier cycle with free slots is still taken.
    EXPECT_EQ(cal.reserve(9), 9u);
}

TEST(Resource, CalendarClampsReservationBelowBase)
{
    ResourceCalendar cal(1);
    // Reserving past the horizon slides the window's base to
    // 5000 - 1024 + 1; nothing earlier can be reserved any more.
    EXPECT_EQ(cal.reserve(5000), 5000u);
    const uint64_t base = 5000 - ResourceCalendar::Horizon + 1;
    EXPECT_EQ(cal.reserve(0), base);
    EXPECT_EQ(cal.reserve(base - 1), base + 1);
}

TEST(Resource, CalendarSlideClearsSlotsPastHorizon)
{
    const uint64_t h = ResourceCalendar::Horizon;
    ResourceCalendar cal(1);
    EXPECT_EQ(cal.reserve(5), 5u);
    EXPECT_EQ(cal.reserve(5), 6u);
    EXPECT_EQ(cal.reserve(100), 100u);
    // Cycles 5 + h and 6 + h share the ring slots of 5 and 6; the
    // slide that reaches them clears those slots first.
    EXPECT_EQ(cal.reserve(5 + h), 5 + h);
    EXPECT_EQ(cal.reserve(6 + h), 6 + h);
    // Cycle 100 is still inside the window: its slot stays taken.
    EXPECT_EQ(cal.reserve(100), 101u);
}

TEST(Resource, CalendarSnapshotRoundTripsAcrossSlide)
{
    const uint64_t h = ResourceCalendar::Horizon;
    ResourceCalendar cal(3);
    for (uint64_t c = 0; c < 3 * h; c += 7)
        cal.reserve(c);
    for (int i = 0; i < 5; ++i)
        cal.reserve(3 * h - 2);
    json::Value saved = json::encodeFields(cal);

    ResourceCalendar back(3);
    back.reserve(17); // state the decode must overwrite
    std::string why;
    ASSERT_TRUE(json::decodeFields(saved, back, &why)) << why;
    EXPECT_EQ(json::encodeFields(back).dump(0), saved.dump(0));
    // Both carry on identically, including across another slide.
    for (uint64_t c : {3 * h - 2, 3 * h - 2, 2 * h, 5 * h, 5 * h})
        EXPECT_EQ(back.reserve(c), cal.reserve(c)) << c;
    EXPECT_EQ(json::encodeFields(back).dump(0),
              json::encodeFields(cal).dump(0));
}

TEST(Resource, CalendarDecodeRejectsWrongLength)
{
    ResourceCalendar cal(1);
    json::Value saved = json::encodeFields(cal);
    saved.set("used", std::string("AAAA"));
    std::string why;
    EXPECT_FALSE(json::decodeFields(saved, cal, &why));
    EXPECT_NE(why.find("is not base64 of 1024 bytes"), std::string::npos)
        << why;
}

TEST(Resource, WindowBoundIsReleaseOfEntryCapacityAgo)
{
    OccupancyWindow win(3);
    EXPECT_EQ(win.allocBound(), 0u);
    win.push(10);
    win.push(20);
    win.push(30);
    // The fourth entry reuses the first one's slot.
    EXPECT_EQ(win.allocBound(), 10u);
    win.push(40);
    EXPECT_EQ(win.allocBound(), 20u);
}

TEST(Resource, WindowSnapshotRebuildsWrappedIndex)
{
    OccupancyWindow win(3);
    for (uint64_t c = 1; c <= 7; ++c)
        win.push(c * 10);
    json::Value saved = json::encodeFields(win);

    OccupancyWindow back(3);
    std::string why;
    ASSERT_TRUE(back.decode(saved, &why)) << why;
    EXPECT_EQ(json::encodeFields(back).dump(0), saved.dump(0));
    for (uint64_t c = 8; c <= 12; ++c) {
        EXPECT_EQ(back.allocBound(), win.allocBound()) << c;
        back.push(c * 10);
        win.push(c * 10);
    }
}

} // namespace
} // namespace chex
