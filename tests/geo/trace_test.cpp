#include "geo/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

namespace dtn::geo {
namespace {

TEST(Trace, ParseBasic) {
  const Trace t = parse_trace("0 0 1.5 2.5\n10 1 3 4\n");
  ASSERT_EQ(t.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(t.samples[0].time, 0.0);
  EXPECT_EQ(t.samples[0].node, 0);
  EXPECT_DOUBLE_EQ(t.samples[0].pos.x, 1.5);
  EXPECT_DOUBLE_EQ(t.samples[1].pos.y, 4.0);
}

TEST(Trace, ParseSkipsCommentsAndBlanks) {
  const Trace t = parse_trace("# header\n\n  \n5 0 1 1\n# trailing\n");
  EXPECT_EQ(t.samples.size(), 1u);
}

TEST(Trace, ParseSortsByTimeThenNode) {
  const Trace t = parse_trace("10 1 0 0\n5 0 0 0\n10 0 0 0\n");
  ASSERT_EQ(t.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(t.samples[0].time, 5.0);
  EXPECT_EQ(t.samples[1].node, 0);
  EXPECT_EQ(t.samples[2].node, 1);
}

TEST(Trace, ParseRejectsMalformed) {
  EXPECT_THROW(parse_trace("not a number\n"), std::runtime_error);
  EXPECT_THROW(parse_trace("1 0 2\n"), std::runtime_error);  // missing y
  EXPECT_THROW(parse_trace("1 -2 0 0\n"), std::runtime_error);  // negative id
  EXPECT_THROW(parse_trace("1 2.5 3 4\n"), std::runtime_error);  // fractional id
  EXPECT_THROW(parse_trace("1 2 3 4 5\n"), std::runtime_error);  // extra field
}

TEST(Trace, NodeCountAndDuration) {
  const Trace t = parse_trace("0 0 0 0\n50 3 1 1\n100 1 2 2\n");
  EXPECT_EQ(t.node_count(), 4);  // max id 3 -> 4 slots
  EXPECT_DOUBLE_EQ(t.duration(), 100.0);
}

TEST(Trace, EmptyTrace) {
  const Trace t = parse_trace("");
  EXPECT_EQ(t.node_count(), 0);
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
}

TEST(Trace, WriteReadRoundTrip) {
  // Bit-exact: positions past 6 significant digits and times above 1e6 s
  // must survive the text form unchanged.
  Trace t;
  t.samples = {{0.0, 0, {1.0, 2.0}},
               {5.5, 1, {-3.25, 4.75}},
               {10.0, 0, {0.0, 0.0}},
               {1234567.125, 2, {1234.5678, 0.1 + 0.2}}};
  const std::string path = ::testing::TempDir() + "/dtn_trace_test.txt";
  ASSERT_TRUE(write_trace(path, t));
  const Trace back = read_trace(path);
  ASSERT_EQ(back.samples.size(), t.samples.size());
  for (std::size_t i = 0; i < t.samples.size(); ++i) {
    EXPECT_EQ(back.samples[i].time, t.samples[i].time);
    EXPECT_EQ(back.samples[i].node, t.samples[i].node);
    EXPECT_EQ(back.samples[i].pos.x, t.samples[i].pos.x);
    EXPECT_EQ(back.samples[i].pos.y, t.samples[i].pos.y);
  }
  std::remove(path.c_str());
}

TEST(Trace, ReadMissingFileThrows) {
  EXPECT_THROW(read_trace("/nonexistent/dir/trace.txt"), std::runtime_error);
}

}  // namespace
}  // namespace dtn::geo
