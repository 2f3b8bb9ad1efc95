// Adversarial coverage for the hand-rolled HTTP/1.1 request parser in
// http_server.cc: truncated request lines, oversized headers, bad and
// overflowing Content-Length values, Transfer-Encoding, pipelined
// keep-alive requests, and torn (byte-at-a-time) or trickled reads.
// Every case must produce a correct 400/413/408/501 response (or a
// served request) — never a hang, a
// desynced keep-alive stream, or UB. Every socket read in the test
// client carries a deadline, so a server hang fails fast instead of
// wedging the suite.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "serve/http_server.h"

namespace simpush {
namespace serve {
namespace {

// A raw TCP client with a receive deadline on every read. Unlike
// HttpClient it sends exactly the bytes it is told to — including
// malformed ones — and can read multiple pipelined responses off one
// connection.
class RawClient {
 public:
  explicit RawClient(uint16_t port, int recv_timeout_ms = 3000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{};
    timeout.tv_sec = recv_timeout_ms / 1000;
    timeout.tv_usec = (recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(std::string_view bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Sends one byte at a time — the torn-read shape.
  void SendTorn(std::string_view bytes) {
    for (const char c : bytes) {
      ASSERT_EQ(::send(fd_, &c, 1, MSG_NOSIGNAL), 1);
    }
  }

  // Sends one byte per `interval_ms`, stopping early once the server
  // has answered or closed, so no byte lands on a closed socket.
  void Trickle(std::string_view bytes, int interval_ms) {
    for (const char c : bytes) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, interval_ms) != 0) return;
      if (::send(fd_, &c, 1, MSG_NOSIGNAL) != 1) return;
    }
  }

  struct Response {
    bool ok = false;      // A complete response was parsed.
    int status = 0;
    std::string body;
    std::string raw;      // Status line + headers, for diagnostics.
  };

  // Reads exactly one framed HTTP response (status line + headers +
  // Content-Length body). Returns ok=false on timeout or close.
  Response ReadResponse() {
    Response response;
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return response;
    }
    response.raw = buffer_.substr(0, header_end);
    // "HTTP/1.1 NNN ...".
    if (response.raw.size() < 12 ||
        response.raw.compare(0, 9, "HTTP/1.1 ") != 0) {
      return response;
    }
    response.status = std::atoi(response.raw.c_str() + 9);
    size_t content_length = 0;
    const size_t cl = response.raw.find("Content-Length: ");
    if (cl != std::string::npos) {
      content_length = std::strtoull(response.raw.c_str() + cl + 16,
                                     nullptr, 10);
    }
    const size_t body_begin = header_end + 4;
    while (buffer_.size() < body_begin + content_length) {
      if (!Fill()) return response;
    }
    response.body = buffer_.substr(body_begin, content_length);
    buffer_.erase(0, body_begin + content_length);
    response.ok = true;
    return response;
  }

  // Reads until the server closes the connection (or the deadline).
  std::string ReadUntilClose() {
    while (Fill()) {
    }
    return std::exchange(buffer_, std::string());
  }

 private:
  bool Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

// A server with fast timeouts and simple echo/ping routes — no engine,
// this suite tests only the protocol layer.
class ParseFixture {
 public:
  explicit ParseFixture(size_t max_body_bytes = 1u << 20) {
    HttpServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.read_timeout_ms = 20;
    options.idle_timeout_ms = 200;  // 408 after ~0.2s of mid-request stall.
    options.max_body_bytes = max_body_bytes;
    server_ = std::make_unique<HttpServer>(options);
    server_->Route("GET", "/ping", [](const HttpRequest&) {
      return HttpResponse{200, "application/json", "{\"pong\":true}", {}};
    });
    server_->Route("POST", "/echo", [](const HttpRequest& request) {
      return HttpResponse{200, "application/octet-stream", request.body, {}};
    });
    const Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  uint16_t port() const { return server_->port(); }
  HttpServer& server() { return *server_; }

 private:
  std::unique_ptr<HttpServer> server_;
};

std::string EchoRequest(const std::string& body) {
  return "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(HttpParse, MalformedRequestLinesGet400) {
  ParseFixture fixture;
  for (const std::string& request :
       {std::string("GARBAGE\r\n\r\n"), std::string("GET\r\n\r\n"),
        std::string("GET /ping\r\n\r\n"),       // No version token.
        std::string("\r\n\r\n"),                // Empty request line.
        std::string("\x01\x02\x03\r\n\r\n")}) { // Binary junk.
    RawClient client(fixture.port());
    client.Send(request);
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok) << "no response for: " << request;
    EXPECT_EQ(response.status, 400) << request << " -> " << response.raw;
  }
}

TEST(HttpParse, TruncatedRequestLineStallsAnswered408) {
  ParseFixture fixture;
  // Headers never complete: after idle_timeout the server must answer
  // 408 and close, releasing the worker.
  RawClient client(fixture.port());
  client.Send("POST /echo HTTP/1.1\r\nContent-Len");
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok) << "server hung on truncated request";
  EXPECT_EQ(response.status, 408);

  // A stalled BODY (headers complete, body bytes missing) is also 408.
  RawClient stalled(fixture.port());
  stalled.Send("POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  const auto body_stall = stalled.ReadResponse();
  ASSERT_TRUE(body_stall.ok) << "server hung on stalled body";
  EXPECT_EQ(body_stall.status, 408);

  // The server is still healthy for the next client.
  RawClient fresh(fixture.port());
  fresh.Send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(fresh.ReadResponse().status, 200);
}

TEST(HttpParse, OversizedHeadersGet400) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  // > kMaxHeaderBytes (64 KiB) of headers with no terminator.
  std::string request = "GET /ping HTTP/1.1\r\n";
  while (request.size() <= (64u << 10)) {
    request += "X-Filler: " + std::string(1000, 'a') + "\r\n";
  }
  client.Send(request);
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok) << "server hung on oversized headers";
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("headers too large"), std::string::npos)
      << response.body;
}

TEST(HttpParse, ContentLengthMalformedAndOverflowing) {
  ParseFixture fixture(/*max_body_bytes=*/1024);
  const struct {
    const char* value;
    int expected_status;
  } kCases[] = {
      {"abc", 400},                        // Not a number.
      {"12abc", 400},                      // Digits-then-garbage prefix.
      {"-5", 400},                         // Negative (strtoull would wrap).
      {"+5", 400},                         // Sign not allowed.
      {"5 ", 400},                         // Trailing whitespace.
      {"0x10", 400},                       // Hex not allowed.
      {"", 400},                           // Empty value.
      {"2048", 413},                       // Over max_body_bytes.
      {"99999999999999999999999999", 413}, // Overflows uint64.
      {"18446744073709551615", 413},       // ULLONG_MAX exactly.
  };
  for (const auto& test_case : kCases) {
    RawClient client(fixture.port());
    client.Send(std::string("POST /echo HTTP/1.1\r\nContent-Length: ") +
                test_case.value + "\r\n\r\n");
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok) << "no response for CL=" << test_case.value;
    EXPECT_EQ(response.status, test_case.expected_status)
        << "Content-Length: " << test_case.value << " -> " << response.raw;
  }
}

// Bodies are framed by Content-Length only. A chunked request is
// answered 501 and its connection closed, so its chunk bytes are never
// read as a next request. Beside a Content-Length (the request-smuggling
// shape of RFC 9112 §6.3), in either order, it is refused the same way.
TEST(HttpParse, TransferEncodingRefused501) {
  ParseFixture fixture;
  for (const std::string headers :
       {"Transfer-Encoding: chunked\r\n",
        "Content-Length: 10\r\nTransfer-Encoding: chunked\r\n",
        "Transfer-Encoding: chunked\r\nContent-Length: 10\r\n"}) {
    RawClient client(fixture.port());
    client.Send("POST /echo HTTP/1.1\r\n" + headers +
                "\r\n5\r\nhello\r\n0\r\n\r\n");
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok) << headers;
    EXPECT_EQ(response.status, 501) << headers << response.raw;
    EXPECT_EQ(response.body,
              "{\"error\":\"transfer-encoding not supported\"}\n");
    EXPECT_NE(response.raw.find("Connection: close"), std::string::npos)
        << response.raw;
    // Nothing else comes back: no chunk line was served as a request.
    EXPECT_EQ(client.ReadUntilClose(), "") << headers;
  }
}

// Two Content-Length headers that disagree, in either order, leave the
// body's end ambiguous (RFC 9110 §8.6): the request is answered 400 and
// its connection closed, so no leftover body byte is read as a next
// request. Identical repeats frame the body as one header would.
TEST(HttpParse, ConflictingContentLengthRefused400) {
  ParseFixture fixture;
  const std::string body(20, 'x');
  for (const std::string headers :
       {"Content-Length: 20\r\nContent-Length: 5\r\n",
        "Content-Length: 5\r\nContent-Length: 20\r\n",
        "Content-Length: 20\r\nHost: x\r\ncontent-length: 21\r\n"}) {
    RawClient client(fixture.port());
    client.Send("POST /echo HTTP/1.1\r\n" + headers + "\r\n" + body);
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok) << headers;
    EXPECT_EQ(response.status, 400) << headers << response.raw;
    EXPECT_EQ(response.body, "{\"error\":\"conflicting content-length\"}\n");
    EXPECT_NE(response.raw.find("Connection: close"), std::string::npos)
        << response.raw;
    EXPECT_EQ(client.ReadUntilClose(), "") << headers;
  }

  RawClient client(fixture.port());
  client.Send("POST /echo HTTP/1.1\r\nContent-Length: 20\r\n"
              "Content-Length: 20\r\n\r\n" + body);
  const auto repeated = client.ReadResponse();
  ASSERT_TRUE(repeated.ok);
  EXPECT_EQ(repeated.status, 200) << repeated.raw;
  EXPECT_EQ(repeated.body, body);
}

// Whitespace between a header name and its colon (RFC 9112 §5.1) gets
// 400 and a closed connection: "Content-Length : 20" must neither be
// ignored, leaving its body to be read as the next request, nor honoured.
TEST(HttpParse, WhitespaceBeforeHeaderColonRefused400) {
  ParseFixture fixture;
  for (const std::string header :
       {"Content-Length : 20", "Content-Length\t: 20", "Host : x"}) {
    RawClient client(fixture.port());
    client.Send("POST /echo HTTP/1.1\r\n" + header + "\r\n\r\n" +
                std::string(20, 'x'));
    const auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok) << header;
    EXPECT_EQ(response.status, 400) << header << response.raw;
    EXPECT_EQ(response.body,
              "{\"error\":\"whitespace before header colon\"}\n");
    EXPECT_NE(response.raw.find("Connection: close"), std::string::npos)
        << response.raw;
    EXPECT_EQ(client.ReadUntilClose(), "") << header;
  }
}

// A client that sends one byte per 30 ms never leaves the socket quiet
// for a whole read timeout (20 ms). It must still be answered 408 once
// idle_timeout_ms (200 ms) has passed since the request's first byte,
// long before its ~4 s request would have completed.
TEST(HttpParse, TrickledRequestAnswered408) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  const auto start = std::chrono::steady_clock::now();
  client.Trickle(EchoRequest(std::string(80, 'x')), /*interval_ms=*/30);
  const auto response = client.ReadResponse();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(response.ok) << "no response to a trickled request";
  EXPECT_EQ(response.status, 408) << response.raw;
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(HttpParse, PipelinedKeepAliveRequestsAllServedInOrder) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  // Three requests in a single write: two echoes and a ping. Responses
  // must come back in order on the same connection, correctly framed.
  client.Send(EchoRequest("first") + EchoRequest("second") +
              "GET /ping HTTP/1.1\r\n\r\n");
  const auto r1 = client.ReadResponse();
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.status, 200);
  EXPECT_EQ(r1.body, "first");
  const auto r2 = client.ReadResponse();
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.status, 200);
  EXPECT_EQ(r2.body, "second");
  const auto r3 = client.ReadResponse();
  ASSERT_TRUE(r3.ok);
  EXPECT_EQ(r3.status, 200);
  EXPECT_EQ(r3.body, "{\"pong\":true}");
  EXPECT_EQ(fixture.server().counters().accepted, 1u)
      << "all three must ride one connection";
}

TEST(HttpParse, TornByteAtATimeRequestParses) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  // Every byte in its own TCP send: the parser must accumulate across
  // short reads without misframing.
  client.SendTorn(EchoRequest("torn-read-body"));
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok) << "server hung on torn request";
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "torn-read-body");

  // Keep-alive still works after a torn request: the stream stayed in
  // sync.
  client.Send(EchoRequest("after"));
  const auto next = client.ReadResponse();
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.body, "after");
}

TEST(HttpParse, ExcessBodyBytesBecomeNextRequest) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  // The framed body is exactly Content-Length bytes; the trailing
  // bytes must be parsed as the NEXT request, not leak into the body.
  client.Send(
      "POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\n"
      "abcGET /ping HTTP/1.1\r\n\r\n");
  const auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.body, "abc");
  const auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.body, "{\"pong\":true}");
}

TEST(HttpParse, Expect100ContinueHandshake) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  client.Send(
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n"
      "Expect: 100-continue\r\n\r\n");
  // The interim response has no Content-Length; it is exactly one
  // header block.
  const auto interim = client.ReadResponse();
  ASSERT_TRUE(interim.ok);
  EXPECT_EQ(interim.status, 100);
  client.Send("hello");
  const auto final_response = client.ReadResponse();
  ASSERT_TRUE(final_response.ok);
  EXPECT_EQ(final_response.status, 200);
  EXPECT_EQ(final_response.body, "hello");
}

TEST(HttpParse, MissingContentLengthMeansEmptyBody) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  client.Send("POST /echo HTTP/1.1\r\nHost: x\r\n\r\n");
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "");
}

TEST(HttpParse, HeaderEdgeCasesAreTolerated) {
  ParseFixture fixture;
  RawClient client(fixture.port());
  // Colon-less junk headers are skipped; case-insensitive names and
  // optional value padding are normalized; query strings are ignored
  // for routing.
  client.Send(
      "GET /ping?debug=1&x=%20 HTTP/1.1\r\n"
      "ThisHasNoColon\r\n"
      "CONTENT-TYPE:application/json\r\n"
      "X-Padded:     spaced out\r\n\r\n");
  const auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"pong\":true}");

  // RFC 9110 OWS after the colon is space OR horizontal tab; a
  // tab-separated Content-Length must frame the body correctly.
  client.Send("POST /echo HTTP/1.1\r\nContent-Length:\t4\r\n\r\ntabs");
  const auto tabbed = client.ReadResponse();
  ASSERT_TRUE(tabbed.ok);
  EXPECT_EQ(tabbed.status, 200);
  EXPECT_EQ(tabbed.body, "tabs");
}

}  // namespace
}  // namespace serve
}  // namespace simpush
