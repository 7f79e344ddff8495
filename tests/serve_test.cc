// Tests for the query service: wire-protocol codecs and framing (torn
// frames, CRC corruption, oversized payloads), per-connection
// authentication, admission control (queue-full backpressure, deadline
// expiry), replies too large for a frame, reader-thread reaping and the
// gea_stat_serve view.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/net.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/format.h"
#include "support/corpus.h"
#include "workbench/session.h"

namespace gea::serve {
namespace {

// ---------- Protocol codecs ----------

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.request_id = 42;
  request.deadline_ms = 250;
  request.op = "populate";
  request.params = {{"sumy", "Brain_SUMY"}, {"base", "Brain"}, {"out", "P"}};

  Result<Request> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->op, "populate");
  EXPECT_EQ(decoded->params, request.params);
}

TEST(ProtocolTest, ResponseRoundTripWithTable) {
  Response response;
  response.request_id = 7;
  response.code = StatusCode::kOk;
  response.text = "hello";
  rel::Table table("query", rel::Schema({{"name", rel::ValueType::kString},
                                         {"n", rel::ValueType::kInt}}));
  table.AppendRowUnchecked({rel::Value::String("a"), rel::Value::Int(1)});
  response.table = std::move(table);

  Result<Response> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->text, "hello");
  ASSERT_TRUE(decoded->table.has_value());
  EXPECT_EQ(decoded->table->NumRows(), 1u);
}

TEST(ProtocolTest, ErrorResponseCarriesCodeAndMessage) {
  Response response =
      ErrorResponse(9, Status::ResourceExhausted("queue full"));
  Result<Response> decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->message, "queue full");
  EXPECT_TRUE(decoded->ToStatus().IsResourceExhausted());
}

TEST(ProtocolTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeRequest("not a request").ok());
  EXPECT_FALSE(DecodeResponse("").ok());
}

TEST(ProtocolTest, RequestParamsMustBeUniqueAndOrdered) {
  // A hand-built "aggregate" request whose parameter pairs are written in
  // the order given.
  auto payload = [](std::vector<std::pair<std::string, std::string>> params) {
    std::string out;
    store::PutU8(&out, kProtocolVersion);
    store::PutU64(&out, 1);  // request id
    store::PutU32(&out, 0);  // deadline
    store::PutString(&out, "aggregate");
    store::PutU32(&out, static_cast<uint32_t>(params.size()));
    for (const auto& [key, value] : params) {
      store::PutString(&out, key);
      store::PutString(&out, value);
    }
    store::PutU8(&out, 0);  // no trace context
    return out;
  };
  Result<Request> ordered =
      DecodeRequest(payload({{"enum", "brain"}, {"out", "S"}}));
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  EXPECT_EQ(EncodeRequest(*ordered),
            payload({{"enum", "brain"}, {"out", "S"}}));
  // A repeated key or keys out of order would leave the value, and the
  // bytes a request re-encodes to, up to the decoder: refused.
  EXPECT_FALSE(DecodeRequest(payload({{"out", "S"}, {"out", "T"}})).ok());
  EXPECT_FALSE(DecodeRequest(payload({{"out", "S"}, {"enum", "brain"}})).ok());
}

TEST(ProtocolTest, DecodersAcceptOnlyTheProtocolVersion) {
  std::string request = EncodeRequest(Request{});
  std::string response = EncodeResponse(Response{});
  ASSERT_TRUE(DecodeRequest(request).ok());
  ASSERT_TRUE(DecodeResponse(response).ok());
  for (int version = 0; version < 256; ++version) {
    if (version == kProtocolVersion) continue;
    request[0] = static_cast<char>(version);
    response[0] = static_cast<char>(version);
    EXPECT_FALSE(DecodeRequest(request).ok()) << "version " << version;
    EXPECT_FALSE(DecodeResponse(response).ok()) << "version " << version;
  }
}

TEST(ProtocolTest, UnknownWireStatusCodeRejected) {
  EXPECT_FALSE(StatusCodeFromWire(200).ok());
  Result<StatusCode> deadline = StatusCodeFromWire(
      static_cast<uint8_t>(StatusCode::kDeadlineExceeded));
  ASSERT_TRUE(deadline.ok());
  EXPECT_EQ(*deadline, StatusCode::kDeadlineExceeded);
}

// ---------- Trace context & stage timing ----------

TEST(ProtocolTest, RequestTraceContextRoundTrip) {
  Request request;
  request.request_id = 5;
  request.op = "ping";
  TraceContext trace;
  trace.trace_id = 0xdeadbeefcafe;
  trace.sampled = true;
  request.trace = trace;

  Result<Request> decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(decoded->trace.has_value());
  EXPECT_EQ(decoded->trace->trace_id, 0xdeadbeefcafeu);
  EXPECT_TRUE(decoded->trace->sampled);

  // Absent context stays absent.
  request.trace.reset();
  decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->trace.has_value());
}

TEST(ProtocolTest, PatchResponseTimingStampsTrailingBlock) {
  Response response;
  response.request_id = 3;
  response.trace_id = 42;
  response.timing.emplace();  // encoded as zeros, patched below

  std::string payload = EncodeResponse(response);
  StageBreakdown timing;
  timing.decode_nanos = 1000;
  timing.queue_nanos = 2000;
  timing.execute_nanos = 3000;
  timing.wal_append_nanos = 400;
  timing.wal_fsync_nanos = 500;
  timing.encode_nanos = 6000;
  ASSERT_TRUE(PatchResponseTiming(&payload, timing));

  Result<Response> decoded = DecodeResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, 42u);
  ASSERT_TRUE(decoded->timing.has_value());
  EXPECT_EQ(decoded->timing->decode_nanos, 1000u);
  EXPECT_EQ(decoded->timing->queue_nanos, 2000u);
  EXPECT_EQ(decoded->timing->execute_nanos, 3000u);
  EXPECT_EQ(decoded->timing->wal_append_nanos, 400u);
  EXPECT_EQ(decoded->timing->wal_fsync_nanos, 500u);
  EXPECT_EQ(decoded->timing->encode_nanos, 6000u);
  EXPECT_EQ(decoded->timing->TotalNanos(), 1000u + 2000u + 3000u + 6000u);
}

TEST(ProtocolTest, PatchResponseTimingRefusesNonTimingPayloads) {
  StageBreakdown timing;
  // No timing block present.
  Response bare;
  bare.request_id = 1;
  std::string payload = EncodeResponse(bare);
  std::string before = payload;
  EXPECT_FALSE(PatchResponseTiming(&payload, timing));
  EXPECT_EQ(payload, before);

  // Too short to hold the block at all.
  std::string tiny = "\x03";
  EXPECT_FALSE(PatchResponseTiming(&tiny, timing));
}

TEST(ProtocolTest, MalformedTraceFlagsRejected) {
  Request request;
  request.op = "ping";
  TraceContext trace;
  trace.sampled = true;
  request.trace = trace;
  std::string payload = EncodeRequest(request);
  // Corrupt the trailing sampled flag (must be 0/1).
  payload[payload.size() - 1] = 7;
  EXPECT_FALSE(DecodeRequest(payload).ok());
}

// ---------- Framing over a socketpair ----------

class FramingTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    net::CloseFd(fds_[0]);
    net::CloseFd(fds_[1]);
  }
  int fds_[2];
};

TEST_F(FramingTest, FrameRoundTrip) {
  ASSERT_TRUE(WriteFrame(fds_[0], "payload bytes").ok());
  Result<std::optional<std::string>> frame = ReadFrame(fds_[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ(**frame, "payload bytes");
}

TEST_F(FramingTest, CleanEofBetweenFramesIsNotAnError) {
  net::CloseFd(fds_[0]);
  fds_[0] = -1;
  Result<std::optional<std::string>> frame = ReadFrame(fds_[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame->has_value());
}

TEST_F(FramingTest, TornFrameIsAnError) {
  // A header promising 100 bytes, then the peer dies after 3.
  std::string wire = Frame(std::string(100, 'x')).substr(0, 8 + 3);
  ASSERT_TRUE(net::SendAll(fds_[0], wire).ok());
  net::CloseFd(fds_[0]);
  fds_[0] = -1;
  Result<std::optional<std::string>> frame = ReadFrame(fds_[1]);
  EXPECT_FALSE(frame.ok());
}

TEST_F(FramingTest, CrcMismatchIsAnError) {
  std::string wire = Frame("payload bytes");
  wire[wire.size() - 1] ^= 0x5a;  // flip bits in the payload tail
  ASSERT_TRUE(net::SendAll(fds_[0], wire).ok());
  Result<std::optional<std::string>> frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIoError);
}

TEST_F(FramingTest, OversizedFrameRejectedBeforeAllocation) {
  std::string header;
  store::PutU32(&header, 64u << 20);  // 64 MiB, over the 16 MiB cap
  store::PutU32(&header, 0);
  ASSERT_TRUE(net::SendAll(fds_[0], header).ok());
  Result<std::optional<std::string>> frame = ReadFrame(fds_[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsInvalidArgument());

  // The writer refuses oversized payloads symmetrically.
  EXPECT_TRUE(WriteFrame(fds_[0], std::string_view("x", 1)).ok());
  std::string big(kMaxPayloadBytes + 1, 'x');
  EXPECT_TRUE(WriteFrame(fds_[0], big).IsInvalidArgument());
}

// ---------- Server fixture ----------

class ServeTest : public testing::Test {
 protected:
  std::unique_ptr<workbench::AnalysisSession> MakeSession() {
    auto session = support::AdminSession();
    EXPECT_TRUE(session->LoadDataSet(support::Panel()).ok());
    EXPECT_TRUE(
        session->CreateTissueDataSet(sage::TissueType::kBrain).ok());
    EXPECT_TRUE(
        session->AddUser("reader", "pw", workbench::AccessLevel::kUser).ok());
    return session;
  }
};

TEST_F(ServeTest, StartRequiresLoggedInSession) {
  workbench::AnalysisSession session("admin", "secret");
  QueryServer server(&session);
  EXPECT_TRUE(server.Start().IsFailedPrecondition());
}

TEST_F(ServeTest, AuthGatingPerConnection) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());

  // Ping is open; everything else needs connection-level auth — even
  // though the embedded session itself is logged in.
  EXPECT_TRUE(client.Ping().ok());
  Result<rel::Table> denied = client.Sql("SELECT * FROM Libraries");
  EXPECT_TRUE(denied.status().IsPermissionDenied());

  EXPECT_TRUE(client.Login("reader", "wrong").IsPermissionDenied());
  ASSERT_TRUE(client.Login("reader", "pw").ok());
  Result<rel::Table> table = client.Sql("SELECT * FROM Libraries LIMIT 3");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->NumRows(), 3u);

  // Non-admin connections cannot checkpoint.
  Result<Response> checkpoint = client.Call("checkpoint");
  ASSERT_TRUE(checkpoint.ok());
  EXPECT_EQ(checkpoint->code, StatusCode::kPermissionDenied);

  // Logout drops the connection's rights again.
  ASSERT_TRUE(client.Logout().ok());
  EXPECT_TRUE(
      client.Sql("SELECT * FROM Libraries").status().IsPermissionDenied());

  server.Stop();
  EXPECT_FALSE(server.Running());
}

TEST_F(ServeTest, UnknownCommandAndBadParams) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());

  Result<Response> unknown = client.Call("frobnicate");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->code, StatusCode::kInvalidArgument);

  Result<Response> missing = client.Call("aggregate", {{"enum", "brain"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, StatusCode::kInvalidArgument);

  Result<Response> bad_range =
      client.Call("gap_query",
                  {{"compared", "x"}, {"query", "99"}, {"out", "y"}});
  ASSERT_TRUE(bad_range.ok());
  EXPECT_EQ(bad_range->code, StatusCode::kInvalidArgument);

  // Values the command decoder refuses, for wire and WAL replay alike. The
  // mine request is valid but for its algorithm.
  Result<Response> meta = client.Call(
      "generate_metadata", {{"dataset", "brain"}, {"percent", "25"},
                            {"meta", "m25"}});
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(meta->ok()) << meta->message;
  const std::vector<std::pair<std::string, std::map<std::string, std::string>>>
      refused = {
          // A library id beyond int, which used to wrap to library 1.
          {"custom_dataset", {{"name", "wrapped"}, {"libs", "4294967297"}}},
          {"generate_metadata",
           {{"dataset", "brain"}, {"percent", "nan"}, {"meta", "nan_meta"}}},
          {"aggregate",
           {{"enum", "brain"}, {"out", "yes_sumy"}, {"replace", "yes"}}},
          {"mine",
           {{"dataset", "brain"},
            {"meta", "m25"},
            {"min_compact_tags", "150"},
            {"batch_size", "6"},
            {"min_size", "3"},
            {"out_prefix", "A2"},
            {"algorithm", "2"}}},
      };
  const std::vector<std::string> tables = session->TableNames();
  for (const auto& [op, params] : refused) {
    Result<Response> response = client.Call(op, params);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, StatusCode::kInvalidArgument)
        << op << ": " << response->message;
  }
  EXPECT_EQ(session->TableNames(), tables);
  Result<Response> nan_meta = client.Call(
      "mine", {{"dataset", "brain"}, {"meta", "nan_meta"},
               {"min_compact_tags", "150"}, {"batch_size", "6"},
               {"min_size", "3"}, {"out_prefix", "N"}});
  ASSERT_TRUE(nan_meta.ok());
  EXPECT_EQ(nan_meta->code, StatusCode::kNotFound) << nan_meta->message;
}

// Each wire command leaves the catalog its library call leaves, and a
// parameter the wire leaves out means the library's default: a `mine`
// without `algorithm` mines greedy and a `top_gap` without `mode` ranks
// by magnitude. The numbered parameters name the library's enumerators.
TEST_F(ServeTest, WireCommandsMeanTheirLibraryCalls) {
  using workbench::AnalysisSession;
  std::vector<int> ids;
  std::string libs;
  for (size_t i = 0; i < 3; ++i) {
    ids.push_back(support::Panel().library(i).id());
    libs += (i > 0 ? "," : "") + std::to_string(ids.back());
  }
  auto mine = [](const std::string& prefix, const std::string& min_size) {
    return std::map<std::string, std::string>{{"dataset", "brain"},
                                              {"meta", "meta"},
                                              {"min_compact_tags", "150"},
                                              {"batch_size", "6"},
                                              {"min_size", min_size},
                                              {"out_prefix", prefix}};
  };
  std::map<std::string, std::string> exact = mine("E", "6");
  exact["algorithm"] = "0";
  struct Step {
    std::string op;
    std::map<std::string, std::string> params;
    std::function<Status(AnalysisSession&)> call;
  };
  const std::vector<Step> steps = {
      {"tissue_dataset",
       {{"tissue", "breast"}},
       [](AnalysisSession& s) {
         return s.CreateTissueDataSet(sage::TissueType::kBreast);
       }},
      {"generate_metadata",
       {{"dataset", "brain"}, {"percent", "25"}, {"meta", "meta"}},
       [](AnalysisSession& s) {
         return s.GenerateMetadata("brain", 25.0, "meta");
       }},
      {"aggregate",
       {{"enum", "brain"}, {"out", "s1"}},
       [](AnalysisSession& s) { return s.Aggregate("brain", "s1"); }},
      {"aggregate",
       {{"enum", "breast"}, {"out", "s2"}},
       [](AnalysisSession& s) { return s.Aggregate("breast", "s2"); }},
      {"diff",
       {{"sumy1", "s1"}, {"sumy2", "s2"}, {"gap", "g"}},
       [](AnalysisSession& s) { return s.CreateGap("s1", "s2", "g"); }},
      {"diff",
       {{"sumy1", "s2"}, {"sumy2", "s1"}, {"gap", "g2"}},
       [](AnalysisSession& s) { return s.CreateGap("s2", "s1", "g2"); }},
      {"top_gap",
       {{"gap", "g"}, {"x", "5"}},
       [](AnalysisSession& s) { return s.CalculateTopGap("g", 5).status(); }},
      {"top_gap",
       {{"gap", "g2"}, {"x", "4"}, {"mode", "2"}},
       [](AnalysisSession& s) {
         return s.CalculateTopGap("g2", 4, core::TopGapMode::kLowest)
             .status();
       }},
      {"custom_dataset",
       {{"name", "X"}, {"libs", libs}},
       [&ids](AnalysisSession& s) { return s.CreateCustomDataSet("X", ids); }},
      {"mine", mine("F", "3"),
       [](AnalysisSession& s) {
         return s.CalculateFascicles("brain", "meta", 150, 6, 3, "F")
             .status();
       }},
      {"mine", exact,
       [](AnalysisSession& s) {
         return s
             .CalculateFascicles("brain", "meta", 150, 6, 6, "E",
                                 cluster::FascicleParams::Algorithm::kExact)
             .status();
       }},
      {"populate",
       {{"sumy", "s1"}, {"base", "X"}, {"out", "p"}},
       [](AnalysisSession& s) { return s.Populate("s1", "X", "p"); }},
      {"compare_gaps",
       {{"a", "g"}, {"b", "g2"}, {"kind", "0"}, {"out", "cmp"}},
       [](AnalysisSession& s) {
         return s.CompareGapTables("g", "g2", core::GapCompareKind::kUnion,
                                   "cmp");
       }},
      {"compare_gaps",
       {{"a", "g"}, {"b", "g2"}, {"kind", "2"}, {"out", "cmp2"}},
       [](AnalysisSession& s) {
         return s.CompareGapTables("g", "g2",
                                   core::GapCompareKind::kDifference, "cmp2");
       }},
      {"gap_query",
       {{"compared", "cmp"}, {"query", "1"}, {"out", "q"}},
       [](AnalysisSession& s) {
         return s.RunGapQuery("cmp", core::GapCompareQuery::kHigherInAInBoth,
                              "q");
       }},
  };

  auto served = MakeSession();
  auto direct = MakeSession();
  QueryServer server(served.get());
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
  for (const Step& step : steps) {
    Result<Response> response = client.Call(step.op, step.params);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << step.op << ": " << response->message;
    Status called = step.call(*direct);
    ASSERT_TRUE(called.ok()) << step.op << ": " << called.ToString();
  }
  server.Stop();
  EXPECT_TRUE(support::SameCatalog(support::Fingerprint(*served),
                                   support::Fingerprint(*direct)));
  // Both mines found fascicles, so the comparison covers what they chose.
  EXPECT_TRUE(direct->GetEnum("F_1").ok());
  EXPECT_TRUE(direct->GetEnum("E_1").ok());
}

TEST_F(ServeTest, OperatorCommandsEndToEnd) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());

  Result<Response> agg = client.Call(
      "aggregate", {{"enum", "brain"}, {"out", "Brain_SUMY"}});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->ok()) << agg->message;

  Result<Response> gap = client.Call(
      "diff",
      {{"sumy1", "Brain_SUMY"}, {"sumy2", "Brain_SUMY"}, {"gap", "G0"}});
  ASSERT_TRUE(gap.ok());
  ASSERT_TRUE(gap->ok()) << gap->message;

  Result<Response> table = client.Call("get_table", {{"name", "Brain_SUMY"}});
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->ok()) << table->message;
  ASSERT_TRUE(table->table.has_value());
  EXPECT_GT(table->table->NumRows(), 0u);

  Result<Response> tables = client.Call("tables");
  ASSERT_TRUE(tables.ok());
  ASSERT_TRUE(tables->table.has_value());
  EXPECT_GT(tables->table->NumRows(), 0u);

  // The mutations ran through Logged(): the query log saw them, and
  // EXPLAIN of the most recent operation renders.
  Result<Response> log = client.Call("query_log", {{"limit", "10"}});
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->table.has_value());
  EXPECT_GT(log->table->NumRows(), 0u);
  Result<Response> explain = client.Call("explain");
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->ok());
  EXPECT_FALSE(explain->text.empty());
}

TEST_F(ServeTest, QueueFullBackpressureIsExplicit) {
  auto session = MakeSession();
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker...
  QueryClient busy;
  ASSERT_TRUE(busy.Connect(server.Port()).ok());
  std::thread busy_thread([&busy] {
    (void)busy.Call("ping", {{"sleep_ms", "400"}});
  });
  // ...wait until the worker picked it up (queue back to empty)...
  while (server.GetStats().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // ...fill the queue with a second sleeper...
  QueryClient filler;
  ASSERT_TRUE(filler.Connect(server.Port()).ok());
  std::thread filler_thread([&filler] {
    (void)filler.Call("ping", {{"sleep_ms", "100"}});
  });
  while (server.GetStats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // ...and the next request must be rejected, immediately and loudly.
  QueryClient rejected;
  ASSERT_TRUE(rejected.Connect(server.Port()).ok());
  Result<Response> response = rejected.Call("ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kResourceExhausted);

  busy_thread.join();
  filler_thread.join();
  EXPECT_GE(server.GetStats().rejected_queue_full, 1u);
  server.Stop();
}

TEST_F(ServeTest, ExpiredDeadlineRejectedBeforeExecution) {
  auto session = MakeSession();
  ServerOptions options;
  options.num_workers = 1;
  QueryServer server(session.get(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient busy;
  ASSERT_TRUE(busy.Connect(server.Port()).ok());
  std::thread busy_thread([&busy] {
    (void)busy.Call("ping", {{"sleep_ms", "300"}});
  });
  while (server.GetStats().requests < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 20 ms deadline, stuck behind a 300 ms sleeper: must come back as
  // DEADLINE_EXCEEDED without running.
  QueryClient late;
  late.SetDeadlineMs(20);
  ASSERT_TRUE(late.Connect(server.Port()).ok());
  Result<Response> response = late.Call("ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);

  busy_thread.join();
  EXPECT_GE(server.GetStats().rejected_deadline, 1u);
  server.Stop();
}

TEST_F(ServeTest, StatViewReportsServer) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  ASSERT_TRUE(client.Login("admin", "secret", "admin").ok());
  ASSERT_TRUE(client.Ping().ok());

  // The serve view is a computed catalog table like gea_stat_storage —
  // queryable over the wire, about the server answering the query.
  Result<rel::Table> view = client.Sql(
      "SELECT port, requests FROM gea_stat_serve WHERE running = 1");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_GE(view->NumRows(), 1u);
  bool found = false;
  for (size_t i = 0; i < view->NumRows(); ++i) {
    if (view->At(i, 0).AsInt() == server.Port()) found = true;
  }
  EXPECT_TRUE(found);
  server.Stop();
}

TEST_F(ServeTest, GracefulStopDeliversInFlightResponses) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  std::atomic<bool> got_response{false};
  std::thread slow([&] {
    Result<Response> response = client.Call("ping", {{"sleep_ms", "200"}});
    if (response.ok() && response->ok()) got_response = true;
  });
  // Give the request time to be admitted, then stop mid-execution.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop();
  slow.join();
  EXPECT_TRUE(got_response.load());
  EXPECT_FALSE(server.Running());

  // Stop is idempotent and the port is released.
  server.Stop();
  EXPECT_EQ(server.Port(), 0);
}

TEST_F(ServeTest, OversizedReplyIsAnsweredWithAnError) {
  auto session = MakeSession();
  QueryServer server(session.get());
  QueryServer::HandlerSpec spec;
  spec.needs_auth = false;
  server.RegisterHandler("huge", spec, [](const Request&) {
    Response response;
    response.text.assign(17u << 20, 'x');  // over the 16 MiB frame cap
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect(server.Port()).ok());
  client.SetTracing(true);
  // Bounded wait: a server that never answers fails the test instead of
  // hanging it.
  std::future<Result<Response>> call = std::async(
      std::launch::async, [&client] { return client.Call("huge"); });
  if (call.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    server.Stop();  // closes the connection, which ends the blocked call
    call.wait();
    FAIL() << "the oversized reply was never answered";
  }
  Result<Response> reply = call.get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->code, StatusCode::kResourceExhausted);
  EXPECT_NE(reply->message.find(std::to_string(kMaxPayloadBytes)),
            std::string::npos)
      << reply->message;
  EXPECT_EQ(server.GetStats().errors, 1u);
  // The trace ring records the status the client received. The record is
  // published after the reply is written, so wait for it.
  const uint64_t trace_id = client.LastTraceId();
  ASSERT_NE(trace_id, 0u);
  std::optional<int> recorded_code;
  const auto ring_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!recorded_code.has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), ring_deadline);
    for (const obs::RequestTraceRecord& record :
         obs::RequestTraceRing::Global().Snapshot()) {
      if (record.trace_id == trace_id) recorded_code = record.status_code;
    }
    if (!recorded_code.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(*recorded_code, static_cast<int>(StatusCode::kResourceExhausted));
  // The connection stays open for the next request.
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

// One numeric field of /proc/self/status ("Threads", or "VmSize" in kB).
long ProcStatusField(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

TEST_F(ServeTest, ClosedConnectionsReleaseTheirReaderThreads) {
  auto session = MakeSession();
  QueryServer server(session.get());
  ASSERT_TRUE(server.Start().ok());
  const long idle_threads = ProcStatusField("Threads");
  ASSERT_GT(idle_threads, 0);
  // One connection at a time, each waiting (bounded) for its reader to
  // exit, so the next reader reuses the allocator arena the last one
  // released instead of reserving a new one: arenas count in VmSize too.
  auto cycle = [&] {
    QueryClient client;
    ASSERT_TRUE(client.Connect(server.Port()).ok());
    ASSERT_TRUE(client.Ping().ok());
    client.Close();
    for (int i = 0; i < 1000 && ProcStatusField("Threads") > idle_threads;
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  for (int i = 0; i < 20; ++i) cycle();  // warms the thread-stack cache
  const long vm_kb_before = ProcStatusField("VmSize");
  ASSERT_GT(vm_kb_before, 0);

  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_LE(ProcStatusField("Threads"), idle_threads + 2);
  // An unjoined reader keeps its whole stack mapped (8 MiB by default).
  EXPECT_LT(ProcStatusField("VmSize") - vm_kb_before, 64 * 1024);
  server.Stop();
}

}  // namespace
}  // namespace gea::serve
