/** @file Unit tests for the generic set-associative array. */

#include <gtest/gtest.h>

#include "arch/set_assoc.hh"

using namespace upr;

TEST(SetAssoc, MissThenHit)
{
    SetAssocArray<std::uint64_t, int> arr(4, 2);
    EXPECT_EQ(arr.lookup(0, 10), nullptr);
    arr.insert(0, 10, 42);
    int *p = arr.lookup(0, 10);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 42);
}

TEST(SetAssoc, SetsAreIndependent)
{
    SetAssocArray<std::uint64_t, int> arr(4, 1);
    arr.insert(0, 5, 1);
    arr.insert(1, 5, 2);
    EXPECT_EQ(*arr.lookup(0, 5), 1);
    EXPECT_EQ(*arr.lookup(1, 5), 2);
}

TEST(SetAssoc, LruEvictionOrder)
{
    SetAssocArray<std::uint64_t, int> arr(1, 2);
    arr.insert(0, 1, 1);
    arr.insert(0, 2, 2);
    // Touch tag 1 so tag 2 becomes LRU.
    EXPECT_NE(arr.lookup(0, 1), nullptr);
    int evicted = 0;
    EXPECT_TRUE(arr.insert(0, 3, 3, &evicted).evicted);
    EXPECT_EQ(evicted, 2);
    EXPECT_NE(arr.lookup(0, 1), nullptr);
    EXPECT_EQ(arr.lookup(0, 2), nullptr);
    EXPECT_NE(arr.lookup(0, 3), nullptr);
}

TEST(SetAssoc, InsertIntoFreeWayDoesNotEvict)
{
    SetAssocArray<std::uint64_t, int> arr(1, 4);
    EXPECT_FALSE(arr.insert(0, 1, 1).evicted);
    EXPECT_FALSE(arr.insert(0, 2, 2).evicted);
    EXPECT_FALSE(arr.insert(0, 3, 3).evicted);
    EXPECT_FALSE(arr.insert(0, 4, 4).evicted);
    EXPECT_TRUE(arr.insert(0, 5, 5).evicted);
    EXPECT_EQ(arr.validCount(), 4u);
}

TEST(SetAssoc, InvalidateSingle)
{
    SetAssocArray<std::uint64_t, int> arr(2, 2);
    arr.insert(0, 7, 7);
    arr.invalidate(0, 7);
    EXPECT_EQ(arr.lookup(0, 7), nullptr);
    // Invalidating a missing tag is harmless.
    arr.invalidate(0, 99);
}

TEST(SetAssoc, InvalidateAll)
{
    SetAssocArray<std::uint64_t, int> arr(2, 2);
    arr.insert(0, 1, 1);
    arr.insert(1, 2, 2);
    arr.invalidateAll();
    EXPECT_EQ(arr.validCount(), 0u);
    EXPECT_EQ(arr.lookup(0, 1), nullptr);
    EXPECT_EQ(arr.lookup(1, 2), nullptr);
}

TEST(SetAssoc, PeekDoesNotChangeLru)
{
    SetAssocArray<std::uint64_t, int> arr(1, 2);
    arr.insert(0, 1, 1);
    arr.insert(0, 2, 2);
    // Peek at 1 (no LRU update): 1 is still LRU and gets evicted.
    EXPECT_NE(arr.peek(0, 1), nullptr);
    int evicted = 0;
    arr.insert(0, 3, 3, &evicted);
    EXPECT_EQ(evicted, 1);
}

TEST(SetAssoc, ForEachValidVisitsAll)
{
    SetAssocArray<std::uint64_t, int> arr(2, 2);
    arr.insert(0, 1, 10);
    arr.insert(1, 2, 20);
    int sum = 0, count = 0;
    arr.forEachValid([&](std::uint32_t, std::uint64_t, int v) {
        sum += v;
        ++count;
    });
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sum, 30);
}
