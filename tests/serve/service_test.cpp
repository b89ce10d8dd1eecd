// Protocol-level tests for the serve request dispatcher: structured errors
// for every malformed-input class, correct results for each op, and the
// byte-identity contract (cold vs cached vs any --jobs count).
#include "serve/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parallel/pool.h"
#include "telemetry/json.h"

namespace asimt::serve {
namespace {

const char kProgram[] =
    ".text\n"
    "start:\n"
    "  li $t0, 12\n"
    "loop:\n"
    "  addiu $t1, $t1, 3\n"
    "  addiu $t0, $t0, -1\n"
    "  bnez $t0, loop\n"
    "  halt\n";

std::string encode_request(const std::string& text, int id = 1, int k = 5) {
  json::Value req = json::Value::object();
  req.set("id", id);
  req.set("op", "encode");
  req.set("text", text);
  req.set("k", k);
  return req.dump();
}

json::Value reply_of(Service& service, const std::string& line) {
  return json::parse(service.handle_line(line));
}

// Every error reply must carry ok:false and a kind from the documented set.
void expect_error(Service& service, const std::string& line,
                  const std::string& kind) {
  const json::Value reply = reply_of(service, line);
  EXPECT_FALSE(reply.at("ok").as_bool()) << line;
  EXPECT_EQ(reply.at("error").at("kind").as_string(), kind) << line;
  EXPECT_FALSE(reply.at("error").at("message").as_string().empty()) << line;
}

TEST(Service, PingEchoesId) {
  Service service;
  EXPECT_EQ(service.handle_line("{\"id\":7,\"op\":\"ping\"}"),
            "{\"id\":7,\"ok\":true,\"result\":{\"pong\":true}}");
  // String ids round-trip too.
  EXPECT_EQ(service.handle_line("{\"id\":\"a-7\",\"op\":\"ping\"}"),
            "{\"id\":\"a-7\",\"ok\":true,\"result\":{\"pong\":true}}");
}

TEST(Service, MalformedRequestsGetStructuredErrorsNeverThrow) {
  Service service;
  expect_error(service, "this is not json", "parse");
  expect_error(service, "{\"id\":1,\"op\":\"ping\"", "parse");  // truncated
  expect_error(service, "[1,2,3]", "parse");  // not an object
  expect_error(service, "{\"id\":1}", "bad_request");  // missing op
  expect_error(service, "{\"id\":1,\"op\":42}", "bad_request");
  expect_error(service, "{\"id\":1,\"op\":\"frobnicate\"}", "bad_request");
  expect_error(service, "{\"id\":[1],\"op\":\"ping\"}", "bad_request");
  expect_error(service, "{\"id\":1,\"op\":\"encode\"}", "bad_request");
  expect_error(service, "{\"id\":1,\"op\":\"encode\",\"text\":17}",
               "bad_request");
  expect_error(service,
               "{\"id\":1,\"op\":\"encode\",\"text\":\".text\\n halt\\n\","
               "\"k\":1}",
               "bad_request");  // k below min
  expect_error(service,
               "{\"id\":1,\"op\":\"encode\",\"text\":\".text\\n halt\\n\","
               "\"k\":99}",
               "bad_request");  // k above max
  expect_error(service,
               "{\"id\":1,\"op\":\"encode\",\"text\":\".text\\n halt\\n\","
               "\"k\":\"five\"}",
               "bad_request");
  expect_error(service,
               "{\"id\":1,\"op\":\"encode\",\"text\":\".text\\n halt\\n\","
               "\"strategy\":\"psychic\"}",
               "bad_request");
  expect_error(service,
               "{\"id\":1,\"op\":\"encode\",\"text\":\".text\\n halt\\n\","
               "\"transforms\":\"imaginary\"}",
               "bad_request");
  // 14 malformed requests, 14 error replies, zero crashes.
  EXPECT_EQ(service.errors(), 14u);
  EXPECT_EQ(service.requests(), 14u);
}

TEST(Service, AssemblyErrorsAreTheirOwnKindWithLineDiagnostics) {
  Service service;
  json::Value req = json::Value::object();
  req.set("id", 1);
  req.set("op", "encode");
  req.set("text", ".text\n  li $t0, banana\n  halt\n");
  const json::Value reply = reply_of(service, req.dump());
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("error").at("kind").as_string(), "assembly");
  // The assembler diagnostic (with its line number) reaches the client.
  EXPECT_NE(reply.at("error").at("message").as_string().find("line 2"),
            std::string::npos);
}

// Out-of-bounds .align/.space directives are assembly errors with a line
// number. They used to answer `internal` (.space -1), shift by more than 31
// (.align 36) or allocate as much as the request asked for (.space), up to
// a gigabyte of daemon memory for `.space 1000000000`.
TEST(Service, BoundedDirectivesAnswerAssemblyErrors) {
  Service service;
  for (const std::string text :
       {".data\n.space -1\n", ".data\n.word 1\n.align 36\n",
        ".data\n.space 16777217\n"}) {
    const json::Value reply = reply_of(service, encode_request(text));
    EXPECT_FALSE(reply.at("ok").as_bool()) << text;
    EXPECT_EQ(reply.at("error").at("kind").as_string(), "assembly") << text;
    EXPECT_EQ(reply.at("error").at("message").as_string().rfind("line ", 0), 0u)
        << text;
  }
}

// A request line nested 500 000 deep used to overflow the daemon's stack;
// a lone-surrogate id used to be echoed back as invalid UTF-8.
TEST(Service, HostileJsonAnswersParseErrors) {
  Service service;
  expect_error(service, std::string(500000, '['), "parse");
  expect_error(service, "{\"id\":\"\\ud800\",\"op\":\"ping\"}", "parse");
  const json::Value reply =
      reply_of(service, "{\"id\":\"\\ud83d\\ude00\",\"op\":\"ping\"}");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("id").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Service, OversizedTextIsRejectedNotEncoded) {
  ServiceOptions options;
  options.max_text_bytes = 64;
  Service service(options);
  expect_error(service, encode_request(std::string(100, 'x')), "bad_request");
}

TEST(Service, EncodeReportsTransitionSavings) {
  Service service;
  const json::Value reply = reply_of(service, encode_request(kProgram));
  ASSERT_TRUE(reply.at("ok").as_bool());
  const json::Value& result = reply.at("result");
  EXPECT_EQ(result.at("instructions").as_int(), 5);
  EXPECT_EQ(result.at("k").as_int(), 5);
  EXPECT_GT(result.at("original_transitions").as_int(), 0);
  EXPECT_LT(result.at("encoded_transitions").as_int(),
            result.at("original_transitions").as_int());
  EXPECT_EQ(result.at("saved_transitions").as_int(),
            result.at("original_transitions").as_int() -
                result.at("encoded_transitions").as_int());
}

TEST(Service, VerifyConfirmsRoundtrip) {
  Service service;
  json::Value req = json::Value::object();
  req.set("id", 1);
  req.set("op", "verify");
  req.set("text", kProgram);
  const json::Value reply = reply_of(service, req.dump());
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("result").at("roundtrip_ok").as_bool());
  EXPECT_EQ(reply.at("result").at("roundtrip_mismatches").as_int(), 0);
  EXPECT_EQ(reply.at("result").at("lines_checked").as_int(), 32);
}

TEST(Service, ProfileExecutesTheProgram) {
  Service service;
  json::Value req = json::Value::object();
  req.set("id", 1);
  req.set("op", "profile");
  req.set("text", kProgram);
  const json::Value reply = reply_of(service, req.dump());
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("result").at("halted").as_bool());
  // 12 loop iterations × 3 instructions + prologue/halt.
  EXPECT_GT(reply.at("result").at("instructions").as_int(), 30);
  EXPECT_GT(reply.at("result").at("bus_transitions").as_int(), 0);
}

TEST(Service, ProfileStepCapIsEnforced) {
  ServiceOptions options;
  options.max_profile_steps = 1000;
  Service service(options);
  json::Value req = json::Value::object();
  req.set("id", 1);
  req.set("op", "profile");
  req.set("text", kProgram);
  req.set("max_steps", 5000);
  expect_error(service, req.dump(), "bad_request");
}

TEST(Service, CachedReplyIsByteIdenticalToColdEncode) {
  Service service;
  const std::string request = encode_request(kProgram);
  const std::string cold = service.handle_line(request);
  const std::string warm = service.handle_line(request);
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(Service, CacheIsContentAddressedAcrossTextualVariants) {
  Service service;
  // Same instructions, different comments/whitespace: same assembled image,
  // so the second request must hit the first one's cache entry.
  const std::string variant =
      ".text\n"
      "start:   # entry\n"
      "  li $t0, 12     # counter\n"
      "loop:\n"
      "  addiu $t1, $t1, 3\n"
      "  addiu $t0, $t0, -1\n"
      "  bnez $t0, loop\n"
      "  halt\n";
  const std::string first = service.handle_line(encode_request(kProgram));
  const std::string second = service.handle_line(encode_request(variant));
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST(Service, DistinctParametersGetDistinctEntries) {
  Service service;
  const std::string k5 = service.handle_line(encode_request(kProgram, 1, 5));
  const std::string k6 = service.handle_line(encode_request(kProgram, 1, 6));
  EXPECT_NE(k5, k6);
  EXPECT_EQ(service.cache().stats().misses, 2u);
  EXPECT_EQ(service.cache().stats().entries, 2u);
}

TEST(Service, ReplyBytesIdenticalAtAnyJobsCount) {
  // The determinism contract across the thread pool: the reply for one
  // request is byte-identical whether the encode ran serial or on 8
  // workers, cold or cached.
  const std::string request = encode_request(kProgram);
  std::vector<std::string> replies;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    parallel::set_default_jobs(jobs);
    Service service;  // fresh cache: every reply here is a cold encode
    replies.push_back(service.handle_line(request));
    replies.push_back(service.handle_line(request));  // and a cached one
  }
  parallel::set_default_jobs(0);  // restore automatic sizing
  for (const std::string& reply : replies) EXPECT_EQ(reply, replies[0]);
}

TEST(Service, StatsReportsCacheAndRequestCounters) {
  Service service;
  service.handle_line(encode_request(kProgram));
  service.handle_line(encode_request(kProgram));
  service.handle_line("garbage");
  const json::Value reply = reply_of(service, "{\"id\":9,\"op\":\"stats\"}");
  ASSERT_TRUE(reply.at("ok").as_bool());
  const json::Value& result = reply.at("result");
  EXPECT_EQ(result.at("requests").as_int(), 4);  // including this stats call
  EXPECT_EQ(result.at("errors").as_int(), 1);
  EXPECT_EQ(result.at("cache").at("hits").as_int(), 1);
  EXPECT_EQ(result.at("cache").at("misses").as_int(), 1);
  EXPECT_EQ(result.at("cache").at("entries").as_int(), 1);
}

TEST(Service, ErrorReplyHelperCountsLikeARequest) {
  Service service;
  const std::string reply = service.error_reply("bad_request", "too big");
  const json::Value parsed = json::parse(reply);
  EXPECT_TRUE(parsed.at("id").is_null());
  EXPECT_FALSE(parsed.at("ok").as_bool());
  EXPECT_EQ(parsed.at("error").at("kind").as_string(), "bad_request");
  EXPECT_EQ(service.requests(), 1u);
  EXPECT_EQ(service.errors(), 1u);
}

}  // namespace
}  // namespace asimt::serve
