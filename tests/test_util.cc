/**
 * @file
 * Unit tests for the util library: RNG determinism and distribution,
 * bit-manipulation helpers, statistics accumulators.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <set>

#include <cstdlib>

#include "util/bitfield.hh"
#include "util/env.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

TEST(Types, BlockAlignRoundsDown)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(65), 64u);
    EXPECT_EQ(blockAlign(0xABCDEF), 0xABCDEFULL & ~63ULL);
}

TEST(Types, BlockOffset)
{
    EXPECT_EQ(blockOffset(0), 0u);
    EXPECT_EQ(blockOffset(63), 63u);
    EXPECT_EQ(blockOffset(64), 0u);
    EXPECT_EQ(blockOffset(100), 36u);
}

TEST(Types, BlockConstantsConsistent)
{
    EXPECT_EQ(1u << blockOffsetBits, blockBytes);
}

TEST(Bitfield, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1024));
    EXPECT_TRUE(isPowerOf2(1ULL << 63));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(1536));
}

TEST(Bitfield, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(floorLog2(1536), 10u);
}

TEST(Bitfield, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1536), 11u);
    EXPECT_EQ(ceilLog2(16 * 1024), 14u);
    EXPECT_EQ(ceilLog2(32 * 1024), 15u);
}

TEST(Bitfield, BitsExtraction)
{
    EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
    EXPECT_EQ(bits(0xFF00, 7, 0), 0x00u);
    EXPECT_EQ(bits(0xA5, 3, 0), 0x5u);
    EXPECT_EQ(bits(0xA5, 7, 4), 0xAu);
    EXPECT_EQ(bits(~0ULL, 63, 0), ~0ULL);
}

TEST(Bitfield, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    const u64 first = a.next();
    a.next();
    a.reseed(7);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(10);
    std::set<u64> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(11);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 10000; ++i) {
        const i64 v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        sawLo |= v == -3;
        sawHi |= v == 3;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(12);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(13);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng r(14);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.sample(r.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled)
{
    Rng r(15);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.sample(r.gaussian(10.0, 3.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.1);
    EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, Reset)
{
    RunningStat s;
    s.sample(42.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

// ---------------------------------------------------------------------
// Record reader strictness (util/json.hh).
// ---------------------------------------------------------------------

namespace
{

bool
parses(const std::string &text)
{
    JsonValue v;
    return JsonParser(text).parse(v);
}

} // namespace

TEST(Json, RepeatedKeyFailsTheObject)
{
    EXPECT_TRUE(parses(R"({"mapBits":14,"dataFraction":0.5})"));
    EXPECT_FALSE(parses(R"({"mapBits":14,"mapBits":14})"));
    EXPECT_FALSE(parses(R"({"a":{"mapBits":14,"mapBits":12}})"));
    // Keys are per object: the same key in two objects is fine.
    EXPECT_TRUE(parses(R"([{"n":"a","u":1},{"n":"b","u":2}])"));
}

TEST(Json, NumbersFollowJsonGrammar)
{
    for (const char *ok : {"0", "-0", "7", "-12", "0.5", "1.25e-3",
                           "1E+9", "6e0", "18446744073709551615"}) {
        EXPECT_TRUE(parses(std::string("{\"u\":") + ok + "}")) << ok;
    }
    for (const char *bad : {"00", "0256", "-01", "+1", "-", ".5", "1.",
                            "1.e3", "1e", "1e+", "--1", "1-2", "0x10"}) {
        EXPECT_FALSE(parses(std::string("{\"u\":") + bad + "}")) << bad;
    }

    // asDouble fails a value a double cannot hold.
    const auto number = [](const std::string &raw) {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.raw = raw;
        return v;
    };
    double x = 0.0;
    EXPECT_FALSE(number("1e-400").asDouble(x));
    EXPECT_FALSE(number("-2e999").asDouble(x));
    EXPECT_TRUE(number("0e-400").asDouble(x));
    EXPECT_EQ(x, 0.0);

    // Every finite value the writer emits reads back bit-exactly.
    for (const double d :
         {0.0, -0.0, 1.0, -1.5, 0.1, 1e-5, 123456789.125, DBL_MAX,
          -DBL_MAX, DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
          DBL_MIN / 3.0}) {
        const std::string text = jsonFmtDouble(d);
        JsonValue v;
        ASSERT_TRUE(JsonParser(text).parse(v)) << text;
        double back = 0.0;
        ASSERT_TRUE(v.asDouble(back)) << text;
        EXPECT_EQ(std::signbit(back), std::signbit(d)) << text;
        EXPECT_EQ(back, d) << text;
    }
}

// ---------------------------------------------------------------------
// Strict environment parsing (util/env.hh).
// ---------------------------------------------------------------------

TEST(Env, UnsetGivesFallback)
{
    unsetenv("DOPP_TEST_KNOB");
    EXPECT_EQ(envU64("DOPP_TEST_KNOB", 42), 42u);
    EXPECT_DOUBLE_EQ(envDouble("DOPP_TEST_KNOB", 1.5), 1.5);
}

TEST(Env, ValidValuesParse)
{
    setenv("DOPP_TEST_KNOB", "123", 1);
    EXPECT_EQ(envU64("DOPP_TEST_KNOB", 42), 123u);
    setenv("DOPP_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(envDouble("DOPP_TEST_KNOB", 1.0), 0.25);
    unsetenv("DOPP_TEST_KNOB");
}

TEST(EnvDeathTest, GarbageU64IsFatalAndNamesTheVariable)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "abc", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1),
        "DOPP_TEST_KNOB='abc' is not a positive integer");
}

TEST(EnvDeathTest, NegativeZeroAndTrailingJunkU64AreFatal)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "-7", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "0", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "12x", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "", 1);
            envU64("DOPP_TEST_KNOB", 1);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
}

TEST(EnvDeathTest, GarbageDoubleIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "fast", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1),
        "DOPP_TEST_KNOB='fast' is not a positive number");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "-0.5", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1), "not a positive number");
    EXPECT_EXIT(
        {
            setenv("DOPP_TEST_KNOB", "nan", 1);
            envDouble("DOPP_TEST_KNOB", 1.0);
        },
        ::testing::ExitedWithCode(1), "not a positive number");
}

TEST(EnvDeathTest, ParseDoubleTakesWholeFiniteNumbersOnly)
{
    EXPECT_DOUBLE_EQ(parseDouble("min", "-1.5"), -1.5);
    EXPECT_DOUBLE_EQ(parseDouble("min", "0"), 0.0);
    EXPECT_DOUBLE_EQ(parsePositiveDouble("scale", "0.05"), 0.05);
    EXPECT_EXIT(parseDouble("max", "abc"), ::testing::ExitedWithCode(1),
                "max='abc' is not a finite number");
    EXPECT_EXIT(parseDouble("max", "2x"), ::testing::ExitedWithCode(1),
                "max='2x' is not a finite number");
    EXPECT_EXIT(parseDouble("max", "inf"), ::testing::ExitedWithCode(1),
                "not a finite number");
    EXPECT_EXIT(parseDouble("max", ""), ::testing::ExitedWithCode(1),
                "not a finite number");
    EXPECT_EXIT(parsePositiveDouble("scale", "0"),
                ::testing::ExitedWithCode(1),
                "scale='0' is not a positive number");
}

} // namespace dopp
