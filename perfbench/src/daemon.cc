// The daemon front door: an in-process LogServer over loopback, fed by
// the benchmark's own load generator (one sender thread on
// kConnections producer connections, plus one scraper thread on `live`).

#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "wum/mine/path_miner.h"
#include "wum/net/server.h"
#include "wum/net/socket.h"

namespace perfbench {
namespace {

constexpr std::size_t kSendBytes = 256u << 10;
constexpr std::int64_t kScrapePeriodNs = 25'000'000;

/// Blocking write of all of `data`; returns false on a socket error.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads one '\n'-terminated reply (blocking socket).
std::string ReadLine(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') return line;
    line.push_back(c);
  }
}

/// Waits (up to 60 s) until the peer closes the connection, discarding
/// anything it sends meanwhile.
bool AwaitPeerClose(int fd) {
  char buffer[256];
  while (true) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 60'000) <= 0) return false;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EINTR) return errno == ECONNRESET;
  }
}

struct AdminResult {
  bool ok = false;
  double ms = 0;
  std::string reply;
};

AdminResult Admin(int fd, const std::string& command) {
  const std::int64_t start = NowNs();
  AdminResult result;
  if (SendAll(fd, command + "\n")) result.reply = ReadLine(fd);
  result.ms = static_cast<double>(NowNs() - start) / 1e6;
  result.ok = result.reply.rfind("OK", 0) == 0;
  return result;
}

/// What the scraper thread saw; merged into the Iteration after join.
struct Scrapes {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  LatencyHistogram ms;
  std::int64_t cpu_ns = 0;  // the scraper thread's own CPU time
};

/// GET /metrics every kScrapePeriodNs until `stop`.
void ScrapeLoop(std::uint16_t port, const std::atomic<bool>* stop,
                SpanLog* spans, Scrapes* out) {
  const std::int64_t cpu_start = ThreadCpuNs();
  std::int64_t next = NowNs();
  std::vector<char> buffer(64u << 10);
  while (!stop->load(std::memory_order_acquire)) {
    const std::int64_t start = NowNs();
    ++out->attempted;
    ScopedSpan span(spans, "scrape", -1);
    bool ok = false;
    std::string head;
    wum::Result<wum::net::Fd> fd = wum::net::ConnectTcp("127.0.0.1", port);
    if (fd.ok() &&
        SendAll(fd->get(), "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")) {
      while (true) {
        const ssize_t n = ::recv(fd->get(), buffer.data(), buffer.size(), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ok = n == 0 && head.rfind("HTTP/1.1 200", 0) == 0;
          break;
        }
        if (head.size() < 16) head.append(buffer.data(), std::min<ssize_t>(n, 16));
        out->bytes += static_cast<std::uint64_t>(n);
      }
    }
    if (ok) {
      out->ms.Add(static_cast<double>(NowNs() - start) / 1e6);
    } else {
      ++out->failed;
    }
    next += kScrapePeriodNs;
    const std::int64_t now = NowNs();
    if (next < now) next = now;
    const timespec until{static_cast<time_t>(next / 1'000'000'000),
                         static_cast<long>(next % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr) ==
           EINTR) {
    }
  }
  out->cpu_ns = ThreadCpuNs() - cpu_start;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace

Iteration RunDaemon(const Context& ctx, std::size_t shards, bool traced) {
  const Inputs& inputs = *ctx.inputs;
  const WorkloadSpec& spec = inputs.spec;
  Iteration it;
  it.shards = shards;
  it.traced = traced;
  ctx.sink->Clear();
  ctx.accs->Reset();
  SpanLog* spans = traced ? ctx.spans : nullptr;
  auto fail = [&it](const std::string& what, const wum::Status& status) {
    it.problems.push_back(what + ": " + status.ToString());
    return it;
  };

  const std::string ckpt_dir = ctx.work_dir + "/ckpt";
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
  wum::DeadLetterQueue dead_letters;
  wum::obs::MetricRegistry registry;
  wum::Result<std::unique_ptr<wum::StreamEngine>> created =
      wum::StreamEngine::Create(
          EngineOptionsFor(ctx, shards, traced, &dead_letters,
                           spec.metrics ? &registry : nullptr),
          ctx.sink);
  if (!created.ok()) return fail("engine", created.status());
  std::unique_ptr<wum::StreamEngine> engine = std::move(*created);

  wum::net::ServerOptions options;
  if (spec.checkpoint_every > 0) options.ingest.checkpoint_dir = ckpt_dir;
  if (spec.metrics) {
    options.metrics = &registry;
    options.http_port = 0;
  }
  wum::Result<std::unique_ptr<wum::net::LogServer>> started =
      wum::net::LogServer::Start(options, engine.get(), &dead_letters);
  if (!started.ok()) return fail("server", started.status());
  std::unique_ptr<wum::net::LogServer> server = std::move(*started);
  wum::Status served;
  std::thread serve_thread([&] { served = server->Serve(); });

  // Connect and handshake every producer before the clock starts, so
  // the server has accepted them all by QUIESCE.
  std::vector<wum::net::Fd> data;
  bool connected = true;
  for (std::size_t c = 0; c < kConnections && connected; ++c) {
    wum::Result<wum::net::Fd> fd = wum::net::ConnectTcp("127.0.0.1",
                                                        server->port());
    connected = fd.ok();
    if (!connected) break;
    ++it.attempted;
    const std::string reply = SendAll(fd->get(), "HELLO bench-" +
                                                     std::to_string(c) + "\n")
                                  ? ReadLine(fd->get())
                                  : "";
    if (reply != "OK 0") {
      ++it.failed;
      connected = false;
    }
    data.push_back(std::move(*fd));
  }
  wum::Result<wum::net::Fd> admin =
      wum::net::ConnectTcp("127.0.0.1", server->admin_port());
  if (!connected || !admin.ok()) {
    server->RequestStop();
    serve_thread.join();
    it.problems.push_back("could not connect the producers");
    return it;
  }

  std::vector<std::vector<Delivery>> deliveries(kConnections);
  std::vector<std::size_t> pos(kConnections, 0);
  std::vector<double> ckpt_ms;
  double send_blocked_ns = 0;
  std::uint64_t bytes_sent = 0;
  Scrapes scrapes;
  std::atomic<bool> stop_scraping{false};
  std::thread scraper;

  ctx.sampler->Attach(engine.get());
  const std::int64_t start = NowNs();
  const std::int64_t cpu_start = CpuNs();
  const std::int64_t generator_cpu_start = ThreadCpuNs();
  if (spec.metrics) {
    scraper = std::thread(ScrapeLoop, server->http_port(), &stop_scraping,
                          spans, &scrapes);
  }
  if (spec.rate <= 0) {
    // Closed loop: send whatever each socket accepts, as fast as the
    // server reads; admin CHECKPOINT every checkpoint_every lines.
    for (wum::net::Fd& fd : data) (void)wum::net::SetNonBlocking(fd, true);
    const auto& line_ends = inputs.stream_line_ends;
    std::vector<std::size_t> lines_done(kConnections, 0);
    std::uint64_t lines_sent = 0;
    std::uint64_t next_checkpoint = spec.checkpoint_every;
    while (true) {
      std::vector<pollfd> fds;
      std::vector<std::size_t> which;
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (pos[c] < inputs.streams[c].size()) {
          fds.push_back(pollfd{data[c].get(), POLLOUT, 0});
          which.push_back(c);
        }
      }
      if (fds.empty()) break;
      const std::int64_t wait_start = NowNs();
      if (::poll(fds.data(), fds.size(), 10'000) <= 0) {
        it.problems.push_back("producer sockets stalled");
        break;
      }
      send_blocked_ns += static_cast<double>(NowNs() - wait_start);
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
        const std::size_t c = which[k];
        const std::string& stream = inputs.streams[c];
        const std::size_t len = std::min(kSendBytes, stream.size() - pos[c]);
        const ssize_t n = ::send(data[c].get(), stream.data() + pos[c], len,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (n <= 0) {
          it.problems.push_back("producer send failed");
          pos[c] = stream.size();
          continue;
        }
        pos[c] += static_cast<std::size_t>(n);
        bytes_sent += static_cast<std::uint64_t>(n);
        deliveries[c].push_back(Delivery{pos[c], NowNs()});
        while (lines_done[c] < line_ends[c].size() &&
               line_ends[c][lines_done[c]] <= pos[c]) {
          ++lines_done[c];
          ++lines_sent;
        }
      }
      if (spec.checkpoint_every > 0 && lines_sent >= next_checkpoint) {
        next_checkpoint += spec.checkpoint_every;
        ++it.attempted;
        ScopedSpan span(spans, "checkpoint", -1);
        const AdminResult result = Admin(admin->get(), "CHECKPOINT");
        if (result.ok) {
          ckpt_ms.push_back(result.ms);
        } else {
          ++it.failed;
          it.problems.push_back("CHECKPOINT: " + result.reply);
        }
      }
    }
  } else {
    // Open loop: every record is sent at its due time regardless of how
    // the server keeps up; lateness is the generator's send lag.
    const std::int64_t t0 = start + 2'000'000;
    std::vector<std::size_t> upto(kConnections, 0);
    std::size_t i = 0;
    const std::size_t n = inputs.log.size();
    while (i < n) {
      const std::int64_t due = t0 + inputs.due_ns[i];
      std::int64_t now = NowNs();
      if (due > now) {
        const timespec until{static_cast<time_t>(due / 1'000'000'000),
                             static_cast<long>(due % 1'000'000'000)};
        while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until,
                               nullptr) == EINTR) {
        }
        now = NowNs();
      }
      const std::size_t first = i;
      while (i < n && t0 + inputs.due_ns[i] <= now) {
        upto[inputs.conn[i]] = inputs.conn_end[i];
        ++i;
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (upto[c] <= pos[c]) continue;
        const std::int64_t write_start = NowNs();
        const std::string_view bytes(inputs.streams[c].data() + pos[c],
                                     upto[c] - pos[c]);
        if (!SendAll(data[c].get(), bytes)) {
          it.problems.push_back("producer send failed");
          i = n;
          break;
        }
        send_blocked_ns += static_cast<double>(NowNs() - write_start);
        bytes_sent += bytes.size();
        pos[c] = upto[c];
      }
      for (std::size_t r = first; r < i; ++r) {
        it.send_lag_ms.Add(
            static_cast<double>(now - (t0 + inputs.due_ns[r])) / 1e6);
      }
    }
  }
  stop_scraping.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  it.attempted += scrapes.attempted;
  it.failed += scrapes.failed;
  it.scrape_ms = scrapes.ms;
  // QUIESCE drains only what the server's kernel buffer holds when it
  // arrives, so bytes still in flight from a closed producer would be
  // dropped. Half-close each producer and wait for the server to close
  // its side: it does so only after reading and pumping everything up to
  // our FIN.
  for (wum::net::Fd& fd : data) ::shutdown(fd.get(), SHUT_WR);
  for (wum::net::Fd& fd : data) {
    if (!AwaitPeerClose(fd.get())) {
      it.problems.push_back("server never closed a drained producer");
    }
    fd.reset();
  }
  ctx.sampler->SampleNow();
  AdminResult quiesce;
  {
    ScopedSpan span(spans, "quiesce", -1);
    quiesce = Admin(admin->get(), "QUIESCE");
  }
  ++it.attempted;
  it.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  // The load generator (this thread and the scraper) is not the system
  // under test; its CPU time is taken out.
  it.cpu_s = static_cast<double>(CpuNs() - cpu_start -
                                 (ThreadCpuNs() - generator_cpu_start) -
                                 scrapes.cpu_ns) /
             1e9;
  serve_thread.join();
  const EngineSamples samples = ctx.sampler->Detach();
  if (!quiesce.ok) {
    ++it.failed;
    it.problems.push_back("QUIESCE: " + quiesce.reply);
  }
  if (!served.ok()) return fail("serve", served);

  // Conservation: every line sent is a record in the engine, a parse
  // reject or a dead letter.
  const wum::EngineStats total = engine->TotalStats();
  std::uint64_t rejected = 0;
  for (const wum::DeadLetter& letter : dead_letters.Drain()) {
    if (letter.stage == wum::DeadLetter::Stage::kParse) ++rejected;
  }
  const std::uint64_t lines = ctx.reference->lines;
  const std::uint64_t accounted =
      total.records_in + dead_letters.records_covered();
  it.lines = lines;
  it.attempted += lines;
  if (accounted != lines) {
    it.problems.push_back("conservation: " + std::to_string(lines) +
                          " lines sent, " + std::to_string(accounted) +
                          " accounted");
  }
  it.failed += rejected + (lines > accounted ? lines - accounted : 0);

  const std::int64_t t0 = start + 2'000'000;
  CheckSessionsAndLatency(
      ctx,
      [&](std::size_t record) -> std::int64_t {
        if (spec.rate > 0) return t0 + inputs.due_ns[record];
        return DeliveredAt(deliveries[inputs.conn[record]],
                           inputs.conn_end[record]);
      },
      &it);
  FillShardLayers(ctx, *engine, samples, &it);
  if (engine->mining() != nullptr &&
      engine->mining()->sessions_seen() != ctx.sink->digest().sessions) {
    it.problems.push_back("miner saw " +
                          std::to_string(engine->mining()->sessions_seen()) +
                          " sessions, sink " +
                          std::to_string(ctx.sink->digest().sessions));
  }

  auto& layer = it.layer;
  layer["clf.lines"] = static_cast<double>(lines);
  layer["clf.rejected"] = static_cast<double>(rejected);
  layer["net.send_blocked_s"] = send_blocked_ns / 1e9;
  layer["net.bytes_sent"] = static_cast<double>(bytes_sent);
  layer["net.connections"] = static_cast<double>(data.size());
  layer["ckpt.count"] = static_cast<double>(ckpt_ms.size());
  layer["ckpt.p50_ms"] = Percentile(ckpt_ms, 0.5);
  layer["ckpt.max_ms"] =
      ckpt_ms.empty() ? 0 : *std::max_element(ckpt_ms.begin(), ckpt_ms.end());
  layer["ckpt.bytes"] =
      spec.checkpoint_every > 0 ? static_cast<double>(DirectoryBytes(ckpt_dir))
                                : 0;
  layer["obs.scrapes"] = static_cast<double>(it.scrape_ms.count());
  layer["obs.scrape_bytes"] = static_cast<double>(scrapes.bytes);
  layer["stream.finish_s"] = quiesce.ms / 1e3;
  // The poll loop's parse/offer split happens inside Serve(); from
  // outside its whole wall time is unattributed.
  layer["ingest_thread.wall_s"] = it.wall_s;
  layer["ingest_thread.unattributed_s"] = it.wall_s;
  std::filesystem::remove_all(ckpt_dir, ec);
  return it;
}

}  // namespace perfbench
