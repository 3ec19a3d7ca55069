/** @file Unit tests for the observability metrics layer: log2
 * histogram bucket boundaries and percentiles, snapshot-delta
 * arithmetic, MetricsRegistry federation (same-named groups sum,
 * same-named histograms merge), and the count==counter invariants the
 * runtime wiring guarantees. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/stats.hh"
#include "core/runtime.hh"
#include "common/json.hh"
#include "obs/metrics.hh"

using namespace upr;
using namespace upr::obs;

namespace
{
constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();
} // namespace

// ----------------------------------------------------------------------
// Bucket geometry
// ----------------------------------------------------------------------

TEST(HistogramBuckets, ZeroHasItsOwnBucket)
{
    EXPECT_EQ(histogramBucketOf(0), 0u);
    EXPECT_EQ(histogramBucketLow(0), 0u);
    EXPECT_EQ(histogramBucketHigh(0), 0u);
}

TEST(HistogramBuckets, PowersOfTwoOpenNewBuckets)
{
    for (unsigned k = 0; k < 64; ++k) {
        const std::uint64_t pow = std::uint64_t{1} << k;
        // 2^k is the smallest value in bucket k+1 ...
        EXPECT_EQ(histogramBucketOf(pow), k + 1) << "k=" << k;
        EXPECT_EQ(histogramBucketLow(k + 1), pow) << "k=" << k;
        // ... and 2^k - 1 is the largest value in bucket k.
        EXPECT_EQ(histogramBucketOf(pow - 1), k) << "k=" << k;
        EXPECT_EQ(histogramBucketHigh(k), pow - 1) << "k=" << k;
    }
}

TEST(HistogramBuckets, MaxValueLandsInLastBucket)
{
    EXPECT_EQ(histogramBucketOf(kU64Max), 64u);
    EXPECT_EQ(histogramBucketHigh(64), kU64Max);
    EXPECT_EQ(histogramBucketLow(64), std::uint64_t{1} << 63);
}

TEST(HistogramBuckets, EveryValueFallsInsideItsBucketRange)
{
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{3}, std::uint64_t{7}, std::uint64_t{100},
          std::uint64_t{4096}, std::uint64_t{1} << 40, kU64Max - 1,
          kU64Max}) {
        const unsigned b = histogramBucketOf(v);
        ASSERT_LT(b, HistogramData::kBuckets);
        EXPECT_LE(histogramBucketLow(b), v);
        EXPECT_GE(histogramBucketHigh(b), v);
    }
}

// ----------------------------------------------------------------------
// Recording and percentiles
// ----------------------------------------------------------------------

TEST(LatencyHistogram, RecordsCountSumMinMax)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    h.record(8);
    h.record(2);
    h.record(0);
    h.record(kU64Max);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 10u + kU64Max);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kU64Max);
    EXPECT_EQ(h.data().buckets[0], 1u);  // the zero
    EXPECT_EQ(h.data().buckets[2], 1u);  // 2 in [2,3]
    EXPECT_EQ(h.data().buckets[4], 1u);  // 8 in [8,15]
    EXPECT_EQ(h.data().buckets[64], 1u); // uint64 max
}

TEST(LatencyHistogram, EmptyPercentileIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(100), 0u);
}

TEST(LatencyHistogram, PercentileEndpointsAreMinAndMax)
{
    LatencyHistogram h;
    h.record(3);
    h.record(40);
    h.record(500);
    EXPECT_EQ(h.percentile(0), 3u);
    EXPECT_EQ(h.percentile(100), 500u);
}

TEST(LatencyHistogram, PercentileIsUpperBucketBoundClamped)
{
    LatencyHistogram h;
    h.record(1); // bucket 1: [1,1]
    h.record(2); // bucket 2: [2,3]
    h.record(4); // bucket 3: [4,7]
    h.record(8); // bucket 4: [8,15]
    // rank ceil(0.50*4)=2 -> bucket 2 -> upper bound 3.
    EXPECT_EQ(h.percentile(50), 3u);
    // rank ceil(0.99*4)=4 -> bucket 4 -> bound 15, clamped to max 8.
    EXPECT_EQ(h.percentile(99), 8u);
}

TEST(LatencyHistogram, AllZerosPercentileIsZero)
{
    LatencyHistogram h;
    for (int i = 0; i < 64; ++i)
        h.record(0);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, ResetForgetsEverything)
{
    LatencyHistogram h;
    h.record(17);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
}

// ----------------------------------------------------------------------
// Merge and interval (delta) arithmetic
// ----------------------------------------------------------------------

TEST(HistogramData, MergeCombinesSamples)
{
    LatencyHistogram a, b;
    a.record(1);
    a.record(100);
    b.record(50);
    b.record(kU64Max);

    HistogramData m = a.data();
    m.merge(b.data());
    EXPECT_EQ(m.count, 4u);
    EXPECT_EQ(m.sum, 151u + kU64Max);
    EXPECT_EQ(m.min, 1u);
    EXPECT_EQ(m.max, kU64Max);

    // Merging an empty histogram changes nothing.
    HistogramData before = m;
    m.merge(HistogramData{});
    EXPECT_EQ(m.count, before.count);
    EXPECT_EQ(m.min, before.min);
    EXPECT_EQ(m.max, before.max);
}

TEST(HistogramData, MinusSubtractsBucketwise)
{
    LatencyHistogram h;
    h.record(4);
    h.record(16);
    const HistogramData older = h.data();
    h.record(1000);
    h.record(4);

    const HistogramData d = h.data().minus(older);
    EXPECT_EQ(d.count, 2u);
    EXPECT_EQ(d.sum, 1004u);
    EXPECT_EQ(d.buckets[histogramBucketOf(1000)], 1u);
    EXPECT_EQ(d.buckets[histogramBucketOf(4)], 1u);
    EXPECT_EQ(d.buckets[histogramBucketOf(16)], 0u);
}

TEST(HistogramData, MinusOfSelfIsEmpty)
{
    LatencyHistogram h;
    h.record(9);
    h.record(200);
    const HistogramData d = h.data().minus(h.data());
    EXPECT_EQ(d.count, 0u);
    EXPECT_EQ(d.sum, 0u);
    EXPECT_EQ(d.min, 0u);
    EXPECT_EQ(d.max, 0u);
    for (unsigned b = 0; b < HistogramData::kBuckets; ++b)
        EXPECT_EQ(d.buckets[b], 0u);
}

TEST(MetricsSnapshot, MinusSubtractsAndSaturates)
{
    MetricsSnapshot older, newer;
    older.counters["a"] = 10;
    older.counters["gone"] = 99; // re-created component: now smaller
    newer.counters["a"] = 15;
    newer.counters["gone"] = 3;
    newer.counters["fresh"] = 7; // absent from older: passes through

    const MetricsSnapshot d = newer.minus(older);
    EXPECT_EQ(d.counters.at("a"), 5u);
    EXPECT_EQ(d.counters.at("gone"), 0u); // saturates, no wrap
    EXPECT_EQ(d.counters.at("fresh"), 7u);
}

// ----------------------------------------------------------------------
// Registry federation
// ----------------------------------------------------------------------

TEST(MetricsRegistry, ScopedRegistrationIsBalanced)
{
    auto &reg = MetricsRegistry::instance();
    const std::size_t g0 = reg.groupCount();
    const std::size_t h0 = reg.histogramCount();
    {
        StatGroup g("tg");
        Counter c;
        g.registerCounter("c", c, "test");
        LatencyHistogram h;
        ScopedMetricsGroup sg(g);
        ScopedMetricsHistogram sh("t.h", h);
        EXPECT_EQ(reg.groupCount(), g0 + 1);
        EXPECT_EQ(reg.histogramCount(), h0 + 1);
    }
    EXPECT_EQ(reg.groupCount(), g0);
    EXPECT_EQ(reg.histogramCount(), h0);
}

TEST(MetricsRegistry, SameNamedGroupsSumInSnapshot)
{
    StatGroup g1("tgsum"), g2("tgsum");
    Counter a, b;
    g1.registerCounter("x", a, "one instance");
    g2.registerCounter("x", b, "another instance");
    a.add(3);
    b.add(4);
    ScopedMetricsGroup r1(g1), r2(g2);

    const MetricsSnapshot s = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(s.counters.at("tgsum.x"), 7u); // fleet view: 3 + 4
}

TEST(MetricsRegistry, SameNamedHistogramsMergeInSnapshot)
{
    LatencyHistogram h1, h2;
    h1.record(2);
    h2.record(1 << 20);
    ScopedMetricsHistogram r1("t.merge", h1);
    ScopedMetricsHistogram r2("t.merge", h2);

    const MetricsSnapshot s = MetricsRegistry::instance().snapshot();
    const HistogramData &d = s.histograms.at("t.merge");
    EXPECT_EQ(d.count, 2u);
    EXPECT_EQ(d.min, 2u);
    EXPECT_EQ(d.max, std::uint64_t{1} << 20);
}

TEST(MetricsRegistry, PrefixedDuplicateGroupIsDetectedNotMerged)
{
    // Unprefixed same-named groups sum (the fleet view above); a
    // *prefixed* name claims uniqueness — two registrations under the
    // same shard prefix are a wiring bug. Sanitized builds fault;
    // release builds keep both visible under a "#N" rename so the
    // collision shows up in dumps instead of silently summing.
    StatGroup g1("tdup"), g2("tdup");
    Counter a, b;
    g1.registerCounter("x", a, "first owner");
    g2.registerCounter("x", b, "accidental twin");
    a.add(1);
    b.add(10);

    ScopedRegistrationPrefix prefix("shardX.");
    ScopedMetricsGroup r1(g1);
#ifdef UPR_SANITIZE
    try {
        ScopedMetricsGroup r2(g2);
        FAIL() << "expected Fault{BadUsage} on duplicate "
                  "prefixed group";
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::BadUsage);
    }
#else
    ScopedMetricsGroup r2(g2);
    const MetricsSnapshot s = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(s.counters.at("shardX.tdup.x"), 1u);
    EXPECT_EQ(s.counters.at("shardX.tdup#2.x"), 10u);
    // No silent sum under the claimed name.
    EXPECT_EQ(s.counters.count("shardX.tdup.x"), 1u);
#endif
}

#ifndef UPR_SANITIZE
TEST(MetricsRegistry, PrefixedTripleCollisionRenamesDistinctly)
{
    StatGroup g1("ttri"), g2("ttri"), g3("ttri");
    Counter a, b, c;
    g1.registerCounter("n", a, "one");
    g2.registerCounter("n", b, "two");
    g3.registerCounter("n", c, "three");
    a.add(1);
    b.add(2);
    c.add(3);

    ScopedRegistrationPrefix prefix("shardY.");
    ScopedMetricsGroup r1(g1), r2(g2), r3(g3);
    const MetricsSnapshot s = MetricsRegistry::instance().snapshot();
    EXPECT_EQ(s.counters.at("shardY.ttri.n"), 1u);
    EXPECT_EQ(s.counters.at("shardY.ttri#2.n"), 2u);
    EXPECT_EQ(s.counters.at("shardY.ttri#3.n"), 3u);
}
#endif

TEST(MetricsRegistry, NamedSnapshotsGiveIntervalDeltas)
{
    auto &reg = MetricsRegistry::instance();
    StatGroup g("tgiv");
    Counter c;
    g.registerCounter("ops", c, "interval test");
    ScopedMetricsGroup sg(g);

    c.add(5);
    reg.saveNamed("phase1");
    c.add(11);

    const MetricsSnapshot d =
        reg.snapshot().minus(reg.named("phase1"));
    EXPECT_EQ(d.counters.at("tgiv.ops"), 11u);

    reg.dropNamed("phase1");
    EXPECT_EQ(reg.named("phase1").counters.size(), 0u);
    // Never-saved names come back empty, not as an error.
    EXPECT_EQ(reg.named("no-such-snapshot").counters.size(), 0u);
}

TEST(MetricsSnapshot, ToJsonRoundTripsThroughParser)
{
    StatGroup g("tgjson");
    Counter c;
    g.registerCounter("n", c, "json test");
    c.add(kU64Max); // exact 64-bit values must survive
    LatencyHistogram h;
    h.record(3);
    h.record(3);
    ScopedMetricsGroup sg(g);
    ScopedMetricsHistogram sh("t.json", h);

    const std::string text =
        MetricsRegistry::instance().snapshot().toJson();
    const JsonValue doc = parseJson(text);

    const JsonValue *cs = doc.find("counters");
    ASSERT_NE(cs, nullptr);
    const JsonValue *n = cs->find("tgjson.n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->asUint(), kU64Max);

    const JsonValue *hs = doc.find("histograms");
    ASSERT_NE(hs, nullptr);
    const JsonValue *hj = hs->find("t.json");
    ASSERT_NE(hj, nullptr);
    EXPECT_EQ(hj->find("count")->asUint(), 2u);
    EXPECT_EQ(hj->find("p50")->asUint(), 3u);
}

TEST(MetricsSnapshot, ToJsonEscapesGroupNames)
{
    const std::string name = "tg\"q\\b\nl\x01x";
    StatGroup g(name);
    Counter c;
    g.registerCounter("n", c, "escape test");
    c.add(7);
    ScopedMetricsGroup sg(g);

    const std::string text =
        MetricsRegistry::instance().snapshot().toJson();
    for (const char ch : text)
        EXPECT_TRUE(static_cast<unsigned char>(ch) >= 0x20 || ch == '\n');
    EXPECT_NE(text.find("\"tg\\\"q\\\\b\\nl\\u0001x.n\": 7"),
              std::string::npos)
        << text;
    const JsonValue doc = parseJson(text);
    const JsonValue *n = doc.find("counters")->find(name + ".n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->asUint(), 7u);
}

// ----------------------------------------------------------------------
// Runtime wiring invariants
// ----------------------------------------------------------------------

namespace
{

Runtime::Config
makeConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.placement = Placement::Randomized;
    cfg.seed = 77;
    return cfg;
}

} // namespace

TEST(RuntimeObservability, CheckHistogramCountEqualsDynamicChecks)
{
    Runtime rt(makeConfig(Version::Sw));
    const PoolId pool = rt.createPool("tp", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);
    const PtrBits q = rt.pmallocBits(pool, 64);
    const SimAddr va = rt.resolveForAccess(p, 1);
    rt.storePtr(va, q, 2);
    (void)rt.loadPtr(va);

    EXPECT_GT(rt.dynamicChecks(), 0u);
    EXPECT_EQ(rt.checkHistogram().count(), rt.dynamicChecks());
    // Every software check costs at least one simulated cycle.
    EXPECT_GE(rt.checkHistogram().min(), 1u);
}

TEST(RuntimeObservability, PtrAssignHistogramCountEqualsStorePOps)
{
    for (Version v : {Version::Sw, Version::Hw, Version::Explicit}) {
        SCOPED_TRACE(static_cast<int>(v));
        Runtime rt(makeConfig(v));
        const PoolId pool = rt.createPool("tp", 1 << 20);
        const PtrBits p = rt.pmallocBits(pool, 64);
        const PtrBits q = rt.pmallocBits(pool, 64);
        const SimAddr va = rt.resolveForAccess(p, 1);
        rt.storePtr(va, q, 2);
        rt.storePtr(va, q, 2);

        EXPECT_EQ(rt.ptrAssignHistogram().count(),
                  rt.stats().lookup("storePOps"));
        EXPECT_EQ(rt.ptrAssignHistogram().count(), 2u);
    }
}

TEST(RuntimeObservability, VolatileVersionRecordsNothing)
{
    Runtime rt(makeConfig(Version::Volatile));
    const SimAddr a = rt.mallocBytes(64);
    const SimAddr b = rt.mallocBytes(64);
    rt.storePtr(a, b, 1);
    EXPECT_EQ(rt.checkHistogram().count(), 0u);
    EXPECT_EQ(rt.ptrAssignHistogram().count(), 0u);
}

TEST(RuntimeObservability, ResetCountersClearsHistograms)
{
    Runtime rt(makeConfig(Version::Sw));
    const PoolId pool = rt.createPool("tp", 1 << 20);
    const PtrBits p = rt.pmallocBits(pool, 64);
    (void)rt.resolveForAccess(p, 1);
    ASSERT_GT(rt.checkHistogram().count(), 0u);

    rt.resetCounters();
    EXPECT_EQ(rt.dynamicChecks(), 0u);
    EXPECT_EQ(rt.checkHistogram().count(), 0u);
    EXPECT_EQ(rt.ptrAssignHistogram().count(), 0u);
    EXPECT_EQ(rt.txnCommitHistogram().count(), 0u);
}
