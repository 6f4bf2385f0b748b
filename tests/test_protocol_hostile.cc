// Hostile-input limits for the NDJSON protocol (src/service/protocol.*):
// oversized fields, duplicate keys, non-UTF8 bytes smuggled through valid
// JSON, and register/load_cache/recover_session pointed at crafted or
// corrupt files. The contract under attack is always the same —
// connection-stays-alive: every request gets exactly one well-formed
// single-line JSON object back (ok:false + code on rejection), and the
// service keeps answering normal traffic afterwards. The fuzz harness
// fuzz/fuzz_protocol.cc explores this surface with coverage guidance;
// these tests pin the specific shapes it must never regress on.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/thread_pool.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"
#include "src/table/csv_reader.h"

namespace tsexplain {
namespace {

std::string TempPath(const std::string& tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  static int counter = 0;
  return std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
         "/tsx_hostile_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(++counter);
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void RegisterSmallDataset(ExplainService& service) {
  std::string error;
  CsvOptions options;
  options.time_column = "time";
  options.measure_columns = {"value"};
  ASSERT_TRUE(service.registry().RegisterCsvText(
      "ds",
      "time,region,value\nd0,east,1\nd0,west,2\nd1,east,3\nd1,west,1\n"
      "d2,east,2\nd2,west,5\nd3,east,4\nd3,west,2\n",
      options, &error))
      << error;
}

// Everything from "result": on, minus the wall-clock "timing_ms" block:
// the part of an explain response that must not depend on the process,
// the thread count or the host's speed.
std::string ResultPart(const std::string& response) {
  const size_t at = response.find("\"result\":");
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return std::string();
  std::string result = response.substr(at);
  const size_t begin = result.find("\"timing_ms\":{");
  EXPECT_NE(begin, std::string::npos) << response;
  if (begin != std::string::npos) {
    result.erase(begin, result.find('}', begin) - begin + 1);
  }
  return result;
}

class HostileProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterSmallDataset(service_); }

  // Transport loop in miniature: parse-or-parse-error, then Handle. Also
  // asserts the connection-alive contract on every response.
  std::string Roundtrip(const std::string& line) {
    JsonValue request;
    std::string parse_error;
    std::string response;
    if (ParseJson(line, &request, &parse_error)) {
      response = handler_.Handle(request);
    } else {
      response = handler_.MakeParseError(parse_error);
    }
    EXPECT_FALSE(response.empty());
    EXPECT_EQ(response.find('\n'), std::string::npos) << response;
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(ParseJson(response, &parsed, &error))
        << error << " in " << response.substr(0, 200);
    EXPECT_TRUE(parsed.IsObject()) << response.substr(0, 200);
    return response;
  }

  // The liveness probe run after each attack: normal traffic must still
  // be served.
  void ExpectStillServing() {
    const std::string ok = Roundtrip(
        R"({"op":"explain","id":99,"dataset":"ds","measure":"value",)"
        R"("explain_by":["region"]})");
    EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  }

  ExplainService service_;
  ProtocolHandler handler_{service_};
};

TEST_F(HostileProtocolTest, OversizedFieldsGetStructuredErrors) {
  // A multi-megabyte dataset name: rejected (or at worst not found) —
  // never a crash, never a connection drop.
  const std::string huge_name(4u << 20, 'x');
  const std::string by_name = Roundtrip(
      R"({"op":"explain","id":1,"dataset":")" + huge_name +
      R"(","measure":"value","explain_by":["region"]})");
  EXPECT_NE(by_name.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(by_name.find("\"code\":"), std::string::npos);

  // 100k explain_by entries: the dimension validator must reject this
  // without building a 100k-attribute cube.
  std::string many_dims = R"({"op":"explain","id":2,"dataset":"ds",)"
                          R"("measure":"value","explain_by":[)";
  for (int i = 0; i < 100000; ++i) {
    many_dims += i ? ",\"d\"" : "\"d\"";
  }
  many_dims += "]}";
  const std::string by_dims = Roundtrip(many_dims);
  EXPECT_NE(by_dims.find("\"ok\":false"), std::string::npos);

  // k far past any real segment count: the DP clamps it to the bucket
  // count — the response must succeed with a SMALL k, proving the
  // hostile value never sized an allocation.
  const std::string by_k = Roundtrip(
      R"({"op":"explain","id":3,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"k":1000000000})");
  JsonValue k_response;
  std::string k_error;
  ASSERT_TRUE(ParseJson(by_k, &k_response, &k_error));
  EXPECT_TRUE(k_response.GetBool("ok")) << by_k;
  const JsonValue* result = k_response.Find("result");
  ASSERT_NE(result, nullptr) << by_k;
  EXPECT_LE(result->GetInt("k", 0), 20) << by_k;

  // Negative counts are rejected up front with a structured error.
  const std::string by_neg = Roundtrip(
      R"({"op":"explain","id":4,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"max_k":-5})");
  EXPECT_NE(by_neg.find("\"ok\":false"), std::string::npos) << by_neg;
  EXPECT_NE(by_neg.find("\"code\":\"invalid_query\""), std::string::npos)
      << by_neg;

  ExpectStillServing();
}

TEST_F(HostileProtocolTest, TopMAboveTheBoundIsRejected) {
  // Cascading Analysts costs O(m^2) per lattice edge, so an unbounded "m"
  // would let one request pin a worker: explain, open_session and
  // recommend reject m > kMaxTopM up front, before any engine work.
  for (const std::string op : {"explain", "open_session", "recommend"}) {
    for (const int m : {kMaxTopM + 1, 1000000000}) {
      const std::string response = Roundtrip(
          R"({"op":")" + op + R"(","id":1,"dataset":"ds","measure":"value",)"
          R"("explain_by":["region"],"m":)" + std::to_string(m) + "}");
      EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
          << op << " " << response;
      EXPECT_NE(response.find("\"code\":\"invalid_query\""),
                std::string::npos)
          << op << " " << response;
    }
  }
  // The bound itself is served.
  const std::string at_bound = Roundtrip(
      R"({"op":"explain","id":2,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"m":)" + std::to_string(kMaxTopM) + "}");
  EXPECT_NE(at_bound.find("\"ok\":true"), std::string::npos) << at_bound;
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, DuplicateKeysAreDeterministicNotCrashy) {
  // Duplicate "op" and duplicate "dataset": RFC 8259 leaves the behavior
  // open; the handler must pick one deterministically and answer once.
  const std::string line =
      R"({"op":"explain","op":"stats","id":1,"dataset":"ds",)"
      R"("dataset":"ghost","measure":"value","explain_by":["region"]})";
  const std::string dup = Roundtrip(line);
  // First key wins in this handler: the request runs as explain on "ds"
  // (not stats, not the nonexistent "ghost") — and does so on every
  // repetition, so duplicate keys cannot flip the dispatched op between
  // retries.
  EXPECT_NE(dup.find("\"op\":\"explain\""), std::string::npos) << dup;
  EXPECT_NE(dup.find("\"dataset\":\"ds\""), std::string::npos) << dup;
  EXPECT_NE(dup.find("\"ok\":true"), std::string::npos) << dup;
  const std::string again = Roundtrip(line);
  EXPECT_NE(again.find("\"op\":\"explain\""), std::string::npos) << again;
  EXPECT_NE(again.find("\"dataset\":\"ds\""), std::string::npos) << again;
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, NonUtf8BytesInValidJsonStayContained) {
  // Raw 0xFF/0xC0 bytes inside JSON strings: the parser is byte-oriented
  // so the document may parse; whatever happens the response is one
  // well-formed line and the service survives.
  std::string line = R"({"op":"explain","id":1,"dataset":")";
  line += '\xff';
  line += '\xc0';
  line += '\x80';
  line += R"(","measure":"value","explain_by":["region"]})";
  const std::string response = Roundtrip(line);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);

  // Non-UTF8 in a registered CSV body: either rejected at registration
  // or registered verbatim — not a crash either way.
  std::string csv_line = R"({"op":"register","id":2,"name":"bin","csv":)";
  csv_line += R"("time,region,value\nd0,e)";
  csv_line += '\xfe';
  csv_line += R"(,1\n","time_column":"time","measures":["value"]})";
  Roundtrip(csv_line);
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, LoadCacheOnCraftedFilesIsStructured) {
  // Arbitrary bytes, a truncated frame, and a wrong-magic file — the
  // exact classes the snapshot fuzzers mutate. Each must come back as a
  // structured error with the connection alive.
  const std::string garbage = TempPath("garbage");
  WriteRawFile(garbage, "this is not a cache snapshot");
  const std::string r1 = Roundtrip(
      R"({"op":"load_cache","id":1,"path":")" + garbage + R"("})");
  EXPECT_NE(r1.find("\"ok\":false"), std::string::npos) << r1;
  EXPECT_NE(r1.find("\"code\":"), std::string::npos) << r1;
  std::remove(garbage.c_str());

  // A real snapshot truncated mid-payload.
  const std::string warm = TempPath("warm");
  const std::string save = Roundtrip(
      R"({"op":"save_cache","id":2,"path":")" + warm + R"("})");
  EXPECT_NE(save.find("\"ok\":true"), std::string::npos) << save;
  std::string bytes;
  {
    std::FILE* f = std::fopen(warm.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
  }
  ASSERT_GT(bytes.size(), 4u);
  WriteRawFile(warm, bytes.substr(0, bytes.size() - 3));
  const std::string r2 = Roundtrip(
      R"({"op":"load_cache","id":3,"path":")" + warm + R"("})");
  EXPECT_NE(r2.find("\"ok\":false"), std::string::npos) << r2;
  std::remove(warm.c_str());

  // recover_session on a non-log file: structured rejection.
  const std::string fake_log = TempPath("fakelog");
  WriteRawFile(fake_log, std::string(64, '\xab'));
  const std::string r3 = Roundtrip(
      R"({"op":"recover_session","id":4,"path":")" + fake_log + R"("})");
  EXPECT_NE(r3.find("\"ok\":false"), std::string::npos) << r3;
  std::remove(fake_log.c_str());

  ExpectStillServing();
}

TEST_F(HostileProtocolTest, RegisterFromCraftedCsvPathIsStructured) {
  // csv_path pointed at binary garbage (a "snapshot-looking" file): the
  // CSV reader must reject it structurally, not crash or hang.
  const std::string binary = TempPath("binary");
  std::string bytes = "TSXSNAP1";
  for (int i = 0; i < 1024; ++i) bytes.push_back(static_cast<char>(i));
  WriteRawFile(binary, bytes);
  const std::string response = Roundtrip(
      R"({"op":"register","id":1,"name":"b","csv_path":")" + binary +
      R"(","time_column":"time","measures":["value"]})");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  std::remove(binary.c_str());
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, StructurallyWrongRequestsAnswerOnce) {
  // Non-object roots, wrong-typed fields, null op, array op.
  for (const std::string& line : {
           std::string("[1,2,3]"),
           std::string("\"just a string\""),
           std::string("{\"op\":null,\"id\":1}"),
           std::string("{\"op\":[\"explain\"],\"id\":2}"),
           std::string("{\"op\":\"append\",\"id\":3,\"session\":\"x\","
                       "\"rows\":7}"),
           std::string("{\"op\":\"explain\",\"id\":4,\"dataset\":\"ds\","
                       "\"measure\":42,\"explain_by\":\"region\"}"),
       }) {
    const std::string response = Roundtrip(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
        << line << " -> " << response;
  }
  ExpectStillServing();
}

TEST_F(HostileProtocolTest, OversizedThreadCountIsClampedToThePool) {
  // The parser caps "threads" at the shared pool size: the cold engine
  // build hands it to the cube's ParallelFor, which the admission grant
  // does not cover. Explicit counts within the pool and 0 (= auto) pass
  // through; negatives still reach validation and are rejected.
  const int pool = ThreadPool::Shared().size();
  JsonValue request;
  std::string error;
  TSExplainConfig config;
  ASSERT_TRUE(ParseJson(R"({"threads":1000})", &request, &error)) << error;
  ASSERT_TRUE(ParseQueryConfig(request, &config, &error)) << error;
  EXPECT_EQ(config.threads, pool);
  ASSERT_TRUE(ParseJson(R"({"threads":0})", &request, &error)) << error;
  ASSERT_TRUE(ParseQueryConfig(request, &config, &error)) << error;
  EXPECT_EQ(config.threads, 0);
  ASSERT_TRUE(ParseJson(R"({"threads":1})", &request, &error)) << error;
  ASSERT_TRUE(ParseQueryConfig(request, &config, &error)) << error;
  EXPECT_EQ(config.threads, 1);
  const std::string negative = Roundtrip(
      R"({"op":"explain","id":1,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"threads":-3})");
  EXPECT_NE(negative.find("\"code\":\"invalid_query\""), std::string::npos)
      << negative;

  // The clamped cold answer is byte-identical to a threads:1 cold answer
  // from a second, independent service.
  const std::string oversized = Roundtrip(
      R"({"op":"explain","id":2,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"threads":1000})");
  EXPECT_NE(oversized.find("\"ok\":true"), std::string::npos) << oversized;
  ExplainService single_service;
  RegisterSmallDataset(single_service);
  ProtocolHandler single_handler(single_service);
  JsonValue single_request;
  ASSERT_TRUE(ParseJson(
      R"({"op":"explain","id":2,"dataset":"ds","measure":"value",)"
      R"("explain_by":["region"],"threads":1})",
      &single_request, &error))
      << error;
  const std::string single = single_handler.Handle(single_request);
  EXPECT_NE(single.find("\"cache_hit\":false"), std::string::npos) << single;
  EXPECT_NE(oversized.find("\"cache_hit\":false"), std::string::npos)
      << oversized;
  EXPECT_EQ(ResultPart(oversized), ResultPart(single));
  ExpectStillServing();
}

}  // namespace
}  // namespace tsexplain
