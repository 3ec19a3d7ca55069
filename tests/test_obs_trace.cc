/** @file Unit tests for the TraceRing event buffer: disabled
 * emission is a no-op, wraparound retains exactly the newest
 * kCapacity events, and both exporters emit parseable output. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/trace_ring.hh"

using namespace upr;
using namespace upr::obs;

namespace
{

/** Save/restore the process-wide trace gate around each test. */
class TraceGate : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        was_ = traceEnabled();
        traceRing().clear();
    }

    void TearDown() override
    {
        setTraceEnabled(was_);
        traceRing().clear();
    }

  private:
    bool was_ = false;
};

} // namespace

TEST_F(TraceGate, DisabledEmissionIsANoOp)
{
    setTraceEnabled(false);
    traceEvent(EventKind::PoolOpen, 1, 2);
    traceEvent(EventKind::TxnCommit, 3, 4);
    EXPECT_EQ(traceRing().appended(), 0u);
    EXPECT_TRUE(traceRing().snapshot().empty());
}

TEST_F(TraceGate, EnabledEmissionAppendsStructuredEvents)
{
    setTraceEnabled(true);
    traceEvent(EventKind::PoolAdopt, 7, 1);
    traceEvent(EventKind::UndoTruncate, 7, 4096);

    const std::vector<TraceRingEvent> evs = traceRing().snapshot();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].seq, 0u);
    EXPECT_EQ(evs[0].kind, EventKind::PoolAdopt);
    EXPECT_EQ(evs[0].a, 7u);
    EXPECT_EQ(evs[0].b, 1u);
    EXPECT_EQ(evs[1].seq, 1u);
    EXPECT_EQ(evs[1].kind, EventKind::UndoTruncate);
    EXPECT_EQ(evs[1].b, 4096u);
    EXPECT_EQ(traceRing().dropped(), 0u);
}

TEST(TraceRing, WraparoundKeepsNewestCapacityEvents)
{
    TraceRing ring;
    const std::uint64_t n = TraceRing::kCapacity + 123;
    for (std::uint64_t i = 0; i < n; ++i)
        ring.append(EventKind::CrashPoint, i, 0);

    EXPECT_EQ(ring.appended(), n);
    EXPECT_EQ(ring.dropped(), 123u);

    const std::vector<TraceRingEvent> evs = ring.snapshot();
    ASSERT_EQ(evs.size(), TraceRing::kCapacity);
    EXPECT_EQ(evs.front().seq, 123u);
    EXPECT_EQ(evs.back().seq, n - 1);
    // Oldest-first, and the payload tracks the sequence number.
    for (std::size_t i = 0; i < evs.size(); ++i) {
        ASSERT_EQ(evs[i].seq, 123u + i);
        ASSERT_EQ(evs[i].a, 123u + i);
    }
}

TEST(TraceRing, NothingDroppedBelowCapacity)
{
    TraceRing ring;
    for (int i = 0; i < 5; ++i)
        ring.append(EventKind::TxnBegin, 1, 0);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.snapshot().size(), 5u);
}

TEST(TraceRing, ClearForgetsEverything)
{
    TraceRing ring;
    ring.append(EventKind::FaultRaised, 2, 0);
    ring.clear();
    EXPECT_EQ(ring.appended(), 0u);
    EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, KindNamesAreStableIdentifiers)
{
    EXPECT_STREQ(eventKindName(EventKind::FaultRaised),
                 "fault-raised");
    EXPECT_STREQ(eventKindName(EventKind::RecoveryApplied),
                 "recovery-applied");
    EXPECT_STREQ(eventKindName(EventKind::PoolAttach), "pool-attach");
    EXPECT_STREQ(eventKindName(EventKind::PoolDetach), "pool-detach");
    EXPECT_STREQ(eventKindName(EventKind::PoolAdopt), "pool-adopt");
    EXPECT_STREQ(eventKindName(EventKind::PoolOpen), "pool-open");
    EXPECT_STREQ(eventKindName(EventKind::UndoTruncate),
                 "undo-truncate");
    EXPECT_STREQ(eventKindName(EventKind::TxnBegin), "txn-begin");
    EXPECT_STREQ(eventKindName(EventKind::TxnCommit), "txn-commit");
    EXPECT_STREQ(eventKindName(EventKind::TxnAbort), "txn-abort");
    EXPECT_STREQ(eventKindName(EventKind::CrashPoint), "crash-point");
    EXPECT_STREQ(eventKindName(EventKind::ElisionDecision),
                 "elision-decision");
}

TEST(TraceRing, JsonlExportIsOneParseableObjectPerEvent)
{
    TraceRing ring;
    ring.append(EventKind::PoolOpen, 1, 0);
    ring.append(EventKind::TxnCommit, 1, 9);
    ring.append(EventKind::TxnAbort, 2, 0);

    std::ostringstream os;
    ring.exportJsonl(os);
    std::istringstream in(os.str());
    std::string line;
    std::vector<std::string> kinds;
    while (std::getline(in, line)) {
        const JsonValue obj = parseJson(line);
        ASSERT_TRUE(obj.isObject());
        ASSERT_NE(obj.find("seq"), nullptr);
        kinds.push_back(obj.find("kind")->asString());
    }
    ASSERT_EQ(kinds.size(), 3u);
    EXPECT_EQ(kinds[0], "pool-open");
    EXPECT_EQ(kinds[1], "txn-commit");
    EXPECT_EQ(kinds[2], "txn-abort");
}

TEST(TraceRing, ChromeTraceExportParsesWithSeqAsTimestamp)
{
    TraceRing ring;
    ring.append(EventKind::ElisionDecision, 42, 1);
    ring.append(EventKind::ElisionDecision, 43, 0);

    std::ostringstream os;
    ring.exportChromeTrace(os);
    const JsonValue doc = parseJson(os.str());
    const JsonValue *evs = doc.find("traceEvents");
    ASSERT_NE(evs, nullptr);
    ASSERT_TRUE(evs->isArray());
    ASSERT_EQ(evs->items().size(), 2u);

    const JsonValue &first = evs->items()[0];
    EXPECT_EQ(first.find("name")->asString(), "elision-decision");
    EXPECT_EQ(first.find("ts")->asUint(), 0u);
    EXPECT_EQ(first.find("args")->find("a")->asUint(), 42u);
    const JsonValue &second = evs->items()[1];
    EXPECT_EQ(second.find("ts")->asUint(), 1u);
    EXPECT_EQ(second.find("args")->find("b")->asUint(), 0u);
}

TEST(TraceRing, ChromeTraceOfEmptyRingIsValidJson)
{
    TraceRing ring;
    std::ostringstream os;
    ring.exportChromeTrace(os);
    const JsonValue doc = parseJson(os.str());
    const JsonValue *evs = doc.find("traceEvents");
    ASSERT_NE(evs, nullptr);
    EXPECT_TRUE(evs->items().empty());
}
