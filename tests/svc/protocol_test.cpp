// Protocol-layer tests: line framing (including the oversized-line discard
// mode), request parsing, and the reply builders round-tripping through the
// JSON parser the clients use.
#include "svc/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nomc::svc {
namespace {

TEST(LineSplitter, SplitsAcrossFeeds) {
  LineSplitter splitter;
  splitter.feed("hel");
  std::string line;
  bool oversized = false;
  EXPECT_FALSE(splitter.take(line, oversized));
  splitter.feed("lo\nwor");
  ASSERT_TRUE(splitter.take(line, oversized));
  EXPECT_EQ(line, "hello");
  EXPECT_FALSE(oversized);
  EXPECT_FALSE(splitter.take(line, oversized));
  EXPECT_EQ(splitter.pending(), 3u);
  splitter.feed("ld\n");
  ASSERT_TRUE(splitter.take(line, oversized));
  EXPECT_EQ(line, "world");
}

TEST(LineSplitter, ManyLinesInOneFeed) {
  LineSplitter splitter;
  splitter.feed("a\nb\n\nc\n");
  std::string line;
  bool oversized = false;
  std::vector<std::string> lines;
  while (splitter.take(line, oversized)) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "b", "", "c"}));
}

TEST(LineSplitter, OversizedLineIsDiscardedNotBuffered) {
  LineSplitter splitter{8};
  splitter.feed("0123456789abcdef");  // blows the cap mid-line
  EXPECT_EQ(splitter.pending(), 0u);  // discard mode buffers nothing
  splitter.feed("more\nnext\n");
  std::string line;
  bool oversized = false;
  ASSERT_TRUE(splitter.take(line, oversized));
  EXPECT_TRUE(oversized);  // the poisoned line surfaces once, empty
  EXPECT_TRUE(line.empty());
  ASSERT_TRUE(splitter.take(line, oversized));
  EXPECT_FALSE(oversized);  // framing recovers on the next line
  EXPECT_EQ(line, "next");
}

TEST(ProtocolRequest, ParsesEveryOp) {
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"op":"ping"})", request, error)) << error;
  EXPECT_EQ(request.op, "ping");

  ASSERT_TRUE(parse_request(R"({"op":"submit","spec":"name = x\n"})", request, error));
  EXPECT_EQ(request.op, "submit");
  EXPECT_EQ(request.spec, "name = x\n");

  ASSERT_TRUE(parse_request(R"({"op":"query","spec_hash":"ab","point":3})", request, error));
  EXPECT_EQ(request.spec_hash, "ab");
  EXPECT_TRUE(request.has_point);
  EXPECT_EQ(request.point, 3);

  ASSERT_TRUE(parse_request(R"({"op":"status"})", request, error));
  EXPECT_FALSE(request.has_point);
  EXPECT_TRUE(request.spec_hash.empty());
}

TEST(ProtocolRequest, RejectsMalformedLines) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request("not json", request, error));
  EXPECT_NE(error.find("bad JSON"), std::string::npos);
  EXPECT_FALSE(parse_request("42", request, error));
  EXPECT_NE(error.find("object"), std::string::npos);
  EXPECT_FALSE(parse_request(R"({"spec":"x"})", request, error));
  EXPECT_NE(error.find("op"), std::string::npos);
  EXPECT_FALSE(parse_request(R"({"op":7})", request, error));
  // strtod reads these as numbers; none of them fits an int point.
  for (const char* point : {"1e300", "-1e300", "inf", "-inf", "-nan", "2147483648"}) {
    EXPECT_FALSE(parse_request(std::string{R"({"op":"query","spec_hash":"ab","point":)"} +
                                   point + "}",
                               request, error))
        << point;
    EXPECT_NE(error.find("point"), std::string::npos) << point;
  }
}

TEST(ProtocolReplies, RoundTripThroughJsonParser) {
  exp::JsonValue value;
  std::string error;

  ASSERT_TRUE(parse_reply(pong_reply(), value, error)) << error;
  EXPECT_TRUE(value.find("ok")->boolean);
  EXPECT_TRUE(value.find("pong")->boolean);

  ASSERT_TRUE(parse_reply(error_reply("boom \"quoted\""), value, error));
  EXPECT_FALSE(value.find("ok")->boolean);
  EXPECT_EQ(value.find("error")->string, "boom \"quoted\"");

  ASSERT_TRUE(parse_reply(submit_reply("00aa", "camp", 5, 5), value, error));
  EXPECT_EQ(value.find("spec_hash")->string, "00aa");
  EXPECT_EQ(value.find("campaign")->string, "camp");
  EXPECT_EQ(static_cast<int>(value.find("points")->number), 5);
  EXPECT_EQ(static_cast<int>(value.find("done")->number), 5);

  StatusInfo info;
  info.submissions = 2;
  info.computed = 5;
  info.cache_hits = 7;
  info.campaigns = 1;
  info.campaign = "camp";
  info.spec_hash = "00aa";
  info.points = 5;
  info.done = 5;
  ASSERT_TRUE(parse_reply(status_reply(info), value, error));
  EXPECT_EQ(static_cast<int>(value.find("cache_hits")->number), 7);
  EXPECT_EQ(value.find("campaign")->string, "camp");

  // The per-campaign block is absent without a campaign name.
  info.campaign.clear();
  ASSERT_TRUE(parse_reply(status_reply(info), value, error));
  EXPECT_EQ(value.find("campaign"), nullptr);

  const std::string record = R"({"v":2,"point":0})";
  ASSERT_TRUE(parse_reply(query_reply(record), value, error));
  EXPECT_EQ(value.find("record")->string, record);

  ASSERT_TRUE(parse_reply(export_row("a,b,1.5"), value, error));
  EXPECT_EQ(value.find("csv")->string, "a,b,1.5");

  ASSERT_TRUE(parse_reply(export_done(12), value, error));
  EXPECT_TRUE(value.find("done")->boolean);
  EXPECT_EQ(static_cast<int>(value.find("rows")->number), 12);

  ASSERT_TRUE(parse_reply(shutdown_reply(), value, error));
  EXPECT_TRUE(value.find("shutdown")->boolean);
}

TEST(ProtocolReplies, SubmitReplyIsAPureFunctionOfTheSpec) {
  // The dedupe contract: two clients submitting the same spec must receive
  // byte-identical replies, so nothing run-dependent may enter this line.
  EXPECT_EQ(submit_reply("00aa", "c", 4, 4), submit_reply("00aa", "c", 4, 4));
}

TEST(ProtocolReplies, StatusReplyCarriesCountersAndCampaignState) {
  StatusInfo info;
  info.submissions = 2;
  info.computed = 5;
  info.cache_hits = 7;
  info.campaigns = 1;
  EXPECT_EQ(status_reply(info),
            R"({"ok":true,"submissions":2,"computed":5,"cache_hits":7,"campaigns":1})");

  info.campaign = "camp";
  info.spec_hash = "00aa";
  info.points = 4;
  info.done = 2;
  info.state = "partial";
  EXPECT_EQ(status_reply(info),
            R"({"ok":true,"submissions":2,"computed":5,"cache_hits":7,"campaigns":1,)"
            R"("campaign":"camp","spec_hash":"00aa","points":4,"done":2,"state":"partial"})");

  info.done = 4;
  info.state = "complete";
  exp::JsonValue value;
  std::string error;
  ASSERT_TRUE(parse_reply(status_reply(info), value, error)) << error;
  EXPECT_EQ(value.find("state")->string, "complete");
  // Submits compute in-process: nothing is ever retried or left failed.
  EXPECT_EQ(value.find("retried"), nullptr);
  EXPECT_EQ(value.find("failed_first"), nullptr);
  EXPECT_EQ(value.find("failed_count"), nullptr);
}

}  // namespace
}  // namespace nomc::svc
