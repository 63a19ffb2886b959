#include "wum/net/http.h"

#include <cstdlib>
#include <utility>

namespace wum::net {

namespace {

const char* ReasonPhrase(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace

HttpParseOutcome ParseHttpRequest(std::string_view buffer,
                                  HttpRequest* request) {
  std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    // Lenient: bare-LF requests (telnet, hand-rolled tests) are fine.
    head_end = buffer.find("\n\n");
    if (head_end == std::string_view::npos) {
      return buffer.size() > kMaxHttpRequestBytes ? HttpParseOutcome::kTooLarge
                                                  : HttpParseOutcome::kNeedMore;
    }
  }
  if (head_end > kMaxHttpRequestBytes) return HttpParseOutcome::kTooLarge;
  std::string_view line = buffer.substr(0, buffer.find_first_of("\r\n"));
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos || method_end == 0) {
    return HttpParseOutcome::kBad;
  }
  const std::size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos ||
      target_end == method_end + 1) {
    return HttpParseOutcome::kBad;
  }
  const std::string_view version = line.substr(target_end + 1);
  if (version.rfind("HTTP/", 0) != 0) return HttpParseOutcome::kBad;
  request->method = std::string(line.substr(0, method_end));
  request->target =
      std::string(line.substr(method_end + 1, target_end - method_end - 1));
  return HttpParseOutcome::kOk;
}

std::string RenderHttpResponse(int status_code, std::string_view content_type,
                               std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status_code) + " " +
                    ReasonPhrase(status_code) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

Result<HttpResponse> HttpFetch(const std::string& host, std::uint16_t port,
                               const std::string& target) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp(host, port));
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  WUM_RETURN_NOT_OK(WriteAll(socket, request));
  std::string raw;
  char buffer[4096];
  while (true) {
    WUM_ASSIGN_OR_RETURN(ReadResult result,
                         ReadSome(socket, buffer, sizeof(buffer)));
    raw.append(buffer, result.bytes);
    if (result.eof) break;
    if (raw.size() > (1u << 24)) {
      return Status::IoError("HTTP response exceeds 16 MiB");
    }
  }
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.rfind("HTTP/", 0) != 0) {
    return Status::IoError("malformed HTTP response from " + host + ":" +
                           std::to_string(port));
  }
  const std::size_t code_start = raw.find(' ');
  if (code_start == std::string::npos || code_start + 4 > line_end) {
    return Status::IoError("malformed HTTP status line");
  }
  HttpResponse response;
  response.status_code = std::atoi(raw.c_str() + code_start + 1);
  std::size_t body_start = raw.find("\r\n\r\n");
  if (body_start == std::string::npos) {
    return Status::IoError("HTTP response has no header terminator");
  }
  response.body = raw.substr(body_start + 4);
  return response;
}

Result<std::string> HttpGet(const std::string& host, std::uint16_t port,
                            const std::string& target) {
  WUM_ASSIGN_OR_RETURN(HttpResponse response, HttpFetch(host, port, target));
  if (response.status_code != 200) {
    return Status::IoError("HTTP " + std::to_string(response.status_code) +
                           " for " + target);
  }
  return std::move(response.body);
}

}  // namespace wum::net
