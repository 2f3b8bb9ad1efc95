#include "serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "serve/net_util.h"

namespace simpush {
namespace serve {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    // Nginx's code for "client went away before the response": used
    // when a query's CancelToken sees its client hang up. The
    // response is usually unsendable — the status mainly feeds logs
    // and counters — but a half-closed client can still receive it.
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

constexpr size_t kMaxHeaderBytes = 64u << 10;

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Route(std::string method, std::string path,
                       HttpHandler handler) {
  routes_.emplace_back(std::move(method), std::move(path),
                       std::move(handler));
}

void HttpServer::RoutePrefix(std::string method, std::string prefix,
                             HttpHandler handler) {
  prefix_routes_.emplace_back(std::move(method), std::move(prefix),
                              std::move(handler));
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  bool path_known = false;
  const HttpHandler* handler = nullptr;
  for (const auto& [method, path, route_handler] : routes_) {
    if (path != request.target) continue;
    path_known = true;
    if (method == request.method) {
      handler = &route_handler;
      break;
    }
  }
  if (handler == nullptr) {
    // No exact route: longest matching prefix route wins (405 when a
    // prefix covers the path but not the method).
    size_t best_len = 0;
    for (const auto& [method, prefix, route_handler] : prefix_routes_) {
      if (request.target.compare(0, prefix.size(), prefix) != 0) continue;
      path_known = true;
      if (method != request.method || prefix.size() < best_len) continue;
      best_len = prefix.size();
      handler = &route_handler;
    }
  }
  if (handler != nullptr) return (*handler)(request);
  HttpResponse response;
  response.status = path_known ? 405 : 404;
  response.body = path_known ? "{\"error\":\"method not allowed\"}\n"
                             : "{\"error\":\"not found\"}\n";
  return response;
}

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status =
        Status::IOError("bind(): " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status =
        Status::IOError("listen(): " + std::string(std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);

  accept_stopping_.store(false);
  stopping_.store(false);
  running_.store(true);
  const size_t workers = options_.num_workers != 0
                             ? options_.num_workers
                             : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!running_.load()) return;
  // Two-phase stop, in strict order: first join the accept thread so
  // no connection can be enqueued after this point, THEN tell workers
  // to exit once the queue is drained. Stopping both with one flag
  // would race — workers could see an empty queue and exit just before
  // the accept thread pushes one last connection, stranding it.
  accept_stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  stopping_.store(true);
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
}

HttpServerCounters HttpServer::counters() const {
  HttpServerCounters counters;
  counters.accepted = accepted_.load();
  counters.rejected_503 = rejected_.load();
  counters.requests = requests_.load();
  return counters;
}

size_t HttpServer::queue_depth() const {
  MutexLock lock(&queue_mu_);
  return pending_.size();
}

void HttpServer::AcceptLoop() {
  while (!accept_stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // Timeout or EINTR: re-check stopping_.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;

    // Bound how long a worker can block reading from this socket.
    timeval timeout{};
    timeout.tv_sec = options_.read_timeout_ms / 1000;
    timeout.tv_usec = (options_.read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    // ... and the write-side mirror: one send() to a client that
    // stopped reading unblocks after this long (WriteResponse then
    // retries under its total budget or gives up).
    timeval write_timeout{};
    write_timeout.tv_sec = options_.write_timeout_ms / 1000;
    write_timeout.tv_usec = (options_.write_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &write_timeout,
                 sizeof(write_timeout));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    {
      MutexLock lock(&queue_mu_);
      if (pending_.size() < options_.max_queued_connections) {
        pending_.push_back(fd);
        accepted_.fetch_add(1);
        queue_cv_.NotifyOne();
        continue;
      }
    }
    // Admission control: shed the connection at the door with a canned
    // 503 rather than queueing unboundedly.
    rejected_.fetch_add(1);
    // Retry-After tells well-behaved clients to back off instead of
    // hammering an overloaded server into a 503 storm.
    static constexpr char kOverloaded[] =
        "HTTP/1.1 503 Service Unavailable\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: 23\r\n"
        "Retry-After: 1\r\n"
        "Connection: close\r\n\r\n"
        "{\"error\":\"overloaded\"}\n";
    SendAll(fd, kOverloaded, sizeof(kOverloaded) - 1);
    ::close(fd);
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(&queue_mu_);
      while (pending_.empty() && !stopping_.load()) queue_cv_.Wait(queue_mu_);
      if (pending_.empty()) return;  // stopping_ && drained.
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;  // Carries pipelined leftovers between requests.
  while (true) {
    HttpRequest request;
    const int got = ReadRequest(fd, &buffer, &request);
    if (got <= 0) break;
    request.client_fd = fd;  // Lets a query's CancelToken probe it.

    const HttpResponse response = Dispatch(request);

    // Drain mode and explicit client requests both end the connection
    // after this response.
    bool close = stopping_.load();
    if (const std::string* connection = request.FindHeader("connection")) {
      if (AsciiLowerCase(*connection) == "close") close = true;
    }
    requests_.fetch_add(1);
    // A failed write means the connection is stalled or gone; further
    // keep-alive requests on it would only waste the worker.
    if (!WriteResponse(fd, response, close)) break;
    if (close) break;
  }
  ::close(fd);
}

int HttpServer::ReadRequest(int fd, std::string* buffer,
                            HttpRequest* request) {
  // Answers a request that cannot be served and closes the connection.
  auto reject = [&](int status, std::string_view error) {
    WriteResponse(fd,
                  HttpResponse{status, "application/json",
                               "{\"error\":\"" + std::string(error) + "\"}\n",
                               {}},
                  /*close=*/true);
    return -1;
  };
  // Between requests each recv timeout (read_timeout_ms) burns one tick
  // of the idle budget, so an idle keep-alive connection closes after
  // idle_timeout_ms of silence. Once a request has begun, all of the
  // rest of it must arrive within idle_timeout_ms of the first of its
  // bytes this worker holds, or it is answered 408: a budget refilled
  // per chunk would let a client trickling one byte per read timeout
  // hold the worker for as long as it likes. The deadline is armed when
  // the request first needs another recv(), so a request that arrives
  // whole reads no clock. Once draining, a connection holds its worker
  // for at most ~2s of timeouts.
  const int read_ms = std::max(1, options_.read_timeout_ms);
  int idle_ticks_left = std::max(1, options_.idle_timeout_ms / read_ms);
  int drain_timeouts_left = std::max(1, 2000 / read_ms);
  std::optional<Deadline> request_deadline;
  // Appends the next bytes of the request to `buffer`. 1 = bytes read,
  // 0 = clean close before any byte of a request, -1 = the connection
  // must close (a stalled request has been answered 408).
  auto receive = [&]() -> int {
    if (!buffer->empty()) {
      if (!request_deadline) {
        request_deadline = Deadline::After(options_.idle_timeout_ms);
      } else if (request_deadline->expired()) {
        return reject(408, "request timeout");
      }
    }
    while (true) {
      char chunk[8192];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer->append(chunk, static_cast<size_t>(n));
        return 1;
      }
      // Peer closed. Clean only between requests.
      if (n == 0) return buffer->empty() ? 0 : -1;
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return -1;
      if (stopping_.load()) {
        if (buffer->empty() || --drain_timeouts_left <= 0) return -1;
        continue;
      }
      if (buffer->empty()) {
        if (--idle_ticks_left > 0) continue;
        return -1;  // Idle between requests: close silently.
      }
      if (request_deadline->expired()) return reject(408, "request timeout");
    }
  };

  // Phase 1: accumulate bytes until the header terminator.
  size_t header_end = std::string::npos;
  while ((header_end = buffer->find("\r\n\r\n")) == std::string::npos) {
    if (buffer->size() > kMaxHeaderBytes) {
      return reject(400, "headers too large");
    }
    const int got = receive();
    if (got <= 0) return got;
  }

  // Phase 2: parse request line + headers.
  const std::string_view head(buffer->data(), header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view request_line = head.substr(0, line_end);
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return reject(400, "malformed request line");
  }
  request->method = std::string(request_line.substr(0, sp1));
  request->target =
      std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  // Ignore query strings for routing purposes.
  const size_t question = request->target.find('?');
  if (question != std::string::npos) request->target.resize(question);

  request->headers.clear();
  size_t cursor = line_end == std::string_view::npos ? head.size()
                                                     : line_end + 2;
  while (cursor < head.size()) {
    size_t eol = head.find("\r\n", cursor);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(cursor, eol - cursor);
    cursor = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    // RFC 9112 §5.1 allows no whitespace between a field name and its
    // colon. A lenient proxy may strip it and frame the body by
    // "Content-Length : 5" where a strict one would not, so the request
    // is refused whole.
    if (colon > 0 && (line[colon - 1] == ' ' || line[colon - 1] == '\t')) {
      return reject(400, "whitespace before header colon");
    }
    std::string name = AsciiLowerCase(std::string(line.substr(0, colon)));
    size_t value_begin = colon + 1;
    // Strip optional whitespace after the colon — RFC 9110 OWS is
    // space OR horizontal tab.
    while (value_begin < line.size() &&
           (line[value_begin] == ' ' || line[value_begin] == '\t')) {
      ++value_begin;
    }
    request->headers.emplace_back(std::move(name),
                                  std::string(line.substr(value_begin)));
  }

  // Phase 3: read the Content-Length body. Bodies are framed by
  // Content-Length only. A Transfer-Encoding request is refused whole,
  // Content-Length or not: its chunk bytes would otherwise be read as
  // the next request, and a request carrying both headers is the
  // request-smuggling shape of RFC 9112 §6.3.
  if (request->FindHeader("transfer-encoding") != nullptr) {
    return reject(501, "transfer-encoding not supported");
  }
  // Differing Content-Length values leave the body's end ambiguous
  // (RFC 9110 §8.6, RFC 9112 §6.3); identical repeats are harmless.
  const std::string* header = request->FindHeader("content-length");
  for (const auto& [name, value] : request->headers) {
    if (name == "content-length" && value != *header) {
      return reject(400, "conflicting content-length");
    }
  }
  size_t content_length = 0;
  if (header != nullptr) {
    // The whole value must be digits: accepting a "12abc" prefix would
    // misframe the body and desync the keep-alive byte stream, and
    // strtoull would silently wrap a "-5" into a huge positive.
    const bool all_digits =
        !header->empty() &&
        header->find_first_not_of("0123456789") == std::string::npos;
    if (!all_digits) return reject(400, "malformed content-length");
    errno = 0;
    content_length = std::strtoull(header->c_str(), nullptr, 10);
    // A value that overflows uint64 reads back as ULLONG_MAX, which the
    // size cap below rejects with 413 like any other oversized body.
    if (errno == ERANGE || content_length > options_.max_body_bytes) {
      return reject(413, "body too large");
    }
  }
  if (const std::string* expect = request->FindHeader("expect")) {
    if (AsciiLowerCase(*expect) == "100-continue") {
      static constexpr char kContinue[] = "HTTP/1.1 100 Continue\r\n\r\n";
      if (!SendAll(fd, kContinue, sizeof(kContinue) - 1)) return -1;
    }
  }
  const size_t body_begin = header_end + 4;
  while (buffer->size() < body_begin + content_length) {
    if (receive() <= 0) return -1;
  }
  request->body.assign(*buffer, body_begin, content_length);
  buffer->erase(0, body_begin + content_length);
  return 1;
}

bool HttpServer::WriteResponse(int fd, const HttpResponse& response,
                               bool close) {
  // Chaos hook: error mode aborts the connection as if the client
  // vanished mid-write; sleep mode delays the response (slow-network
  // simulation without traffic shaping).
  static Failpoint* write_fp =
      FailpointRegistry::Get().Register("http.write");
  if (write_fp->active()) {
    if (!write_fp->Fire().ok()) return false;
  }

  std::string head;
  head.reserve(160);
  head.append("HTTP/1.1 ");
  head.append(std::to_string(response.status));
  head.push_back(' ');
  head.append(StatusText(response.status));
  head.append("\r\nContent-Type: ");
  head.append(response.content_type);
  head.append("\r\nContent-Length: ");
  head.append(std::to_string(response.body.size()));
  for (const auto& [name, value] : response.extra_headers) {
    head.append("\r\n");
    head.append(name);
    head.append(": ");
    head.append(value);
  }
  head.append(close ? "\r\nConnection: close\r\n\r\n"
                    : "\r\nConnection: keep-alive\r\n\r\n");
  // One TOTAL budget across head + body. Each send() already unblocks
  // after write_timeout_ms (SO_SNDTIMEO), but a client draining a few
  // bytes per timeout would keep every send "succeeding" — the shared
  // deadline bounds the worker's total exposure to a stuck or
  // trickling reader no matter how the progress is shaped.
  const Deadline budget = Deadline::After(
      std::max(options_.write_timeout_ms, options_.idle_timeout_ms));
  if (!SendAllWithin(fd, head.data(), head.size(), budget)) return false;
  return SendAllWithin(fd, response.body.data(), response.body.size(),
                       budget);
}

}  // namespace serve
}  // namespace simpush
