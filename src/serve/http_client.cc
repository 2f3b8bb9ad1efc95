#include "serve/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "serve/net_util.h"

namespace simpush {
namespace serve {

HttpClient::HttpClient(std::string host, uint16_t port,
                       HttpRetryOptions retry)
    : host_(std::move(host)),
      port_(port),
      retry_(retry),
      jitter_(std::random_device{}()) {}

HttpClient::~HttpClient() { Disconnect(); }

void HttpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IOError("socket(): " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("invalid IPv4 address: " + host_);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IOError("connect(): " + std::string(std::strerror(errno)));
    Disconnect();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

int HttpClient::BackoffMs(int retry) {
  // base * 2^retry, capped, then jittered to [ms/2, ms*3/2) so a fleet
  // of clients hammering a restarted server spreads out.
  constexpr int64_t kBaseBackoffMs = 10;
  constexpr int64_t kMaxBackoffMs = 250;
  int64_t ms = kBaseBackoffMs;
  for (int i = 0; i < retry && ms < kMaxBackoffMs; ++i) ms *= 2;
  ms = std::min(ms, kMaxBackoffMs);
  std::uniform_int_distribution<int64_t> spread(ms / 2, ms + ms / 2);
  return static_cast<int>(spread(jitter_));
}

Status HttpClient::ConnectWithRetry() {
  // A failed connect never carried a request, so retrying is safe for
  // every method — this is where a client rides out a server restart.
  Status status = Status::OK();
  for (int attempt = 0; attempt < std::max(1, retry_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(attempt - 1)));
    }
    status = Connect();
    if (status.ok()) return status;
  }
  return status;
}

StatusOr<HttpResponse> HttpClient::Request(std::string_view method,
                                           std::string_view target,
                                           std::string_view body) {
  auto response = RequestAttempt(method, target, body);
  // Full-request retries only for idempotent GETs: a POST whose
  // connection died mid-exchange may already have executed.
  if (response.ok() || method != "GET") return response;
  for (int attempt = 1; attempt < retry_.max_attempts; ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(BackoffMs(attempt - 1)));
    response = RequestAttempt(method, target, body);
    if (response.ok()) return response;
  }
  return response;
}

StatusOr<HttpResponse> HttpClient::RequestAttempt(std::string_view method,
                                                  std::string_view target,
                                                  std::string_view body) {
  const bool reused_connection = fd_ >= 0;
  if (fd_ < 0) SIMPUSH_RETURN_NOT_OK(ConnectWithRetry());
  bool connection_closed = false;
  auto response = RequestOnce(method, target, body, &connection_closed);
  if (response.ok()) {
    if (connection_closed) Disconnect();
    return response;
  }
  if (!reused_connection) {
    // A fresh connection failed: retrying would re-execute the request
    // against a server that may have processed it already (Request
    // loops back here only for GETs, where that is harmless).
    Disconnect();
    return response;
  }
  // A reused keep-alive connection may simply have been closed by the
  // server while idle; reconnect and retry once.
  Disconnect();
  SIMPUSH_RETURN_NOT_OK(ConnectWithRetry());
  response = RequestOnce(method, target, body, &connection_closed);
  if (response.ok() && connection_closed) Disconnect();
  return response;
}

StatusOr<HttpResponse> HttpClient::RequestOnce(std::string_view method,
                                               std::string_view target,
                                               std::string_view body,
                                               bool* connection_closed) {
  std::string request;
  request.reserve(128 + body.size());
  request.append(method);
  request.push_back(' ');
  request.append(target);
  request.append(" HTTP/1.1\r\nHost: ");
  request.append(host_);
  request.append("\r\nContent-Length: ");
  request.append(std::to_string(body.size()));
  request.append("\r\n\r\n");
  request.append(body);
  if (!SendAll(fd_, request.data(), request.size())) {
    return Status::IOError("send failed: " + std::string(std::strerror(errno)));
  }

  // Read until the header terminator, skipping interim 1xx responses.
  while (true) {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("connection closed mid-response");
    }
    const std::string head = buffer_.substr(0, header_end);

    HttpResponse response;
    if (head.compare(0, 9, "HTTP/1.1 ") != 0 &&
        head.compare(0, 9, "HTTP/1.0 ") != 0) {
      return Status::IOError("malformed status line");
    }
    response.status = std::atoi(head.c_str() + 9);
    if (response.status == 100) {  // 100 Continue: discard, keep reading.
      buffer_.erase(0, header_end + 4);
      continue;
    }

    size_t content_length = 0;
    *connection_closed = false;
    size_t cursor = head.find("\r\n");
    while (cursor != std::string::npos && cursor + 2 < head.size()) {
      cursor += 2;
      size_t eol = head.find("\r\n", cursor);
      if (eol == std::string::npos) eol = head.size();
      std::string line = AsciiLowerCase(head.substr(cursor, eol - cursor));
      if (line.rfind("content-length:", 0) == 0) {
        content_length = std::strtoull(line.c_str() + 15, nullptr, 10);
      } else if (line.rfind("content-type:", 0) == 0) {
        size_t begin = 13;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        response.content_type = line.substr(begin);
      } else if (line.rfind("connection:", 0) == 0 &&
                 line.find("close") != std::string::npos) {
        *connection_closed = true;
      }
      cursor = eol;
    }

    const size_t body_begin = header_end + 4;
    while (buffer_.size() < body_begin + content_length) {
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("connection closed mid-body");
    }
    response.body = buffer_.substr(body_begin, content_length);
    buffer_.erase(0, body_begin + content_length);
    return response;
  }
}

}  // namespace serve
}  // namespace simpush
