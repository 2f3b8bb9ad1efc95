// Drives a SimPushService through its real route table without sockets.

#ifndef SIMPUSH_TESTS_SERVE_ROUTES_H_
#define SIMPUSH_TESTS_SERVE_ROUTES_H_

#include <memory>

#include "serve/http_server.h"
#include "serve/service.h"

namespace simpush {
namespace serve {

/// The service's route table (RegisterRoutes) on a server that is never
/// started: a test sends each request through HttpServer::Dispatch,
/// exactly as a served connection routes it, 404s and 405s included.
/// The server must outlive the service's /v1/stats requests.
inline std::unique_ptr<HttpServer> RoutesOf(SimPushService* service) {
  auto routes = std::make_unique<HttpServer>(HttpServerOptions{});
  service->RegisterRoutes(routes.get());
  return routes;
}

}  // namespace serve
}  // namespace simpush

#endif  // SIMPUSH_TESTS_SERVE_ROUTES_H_
