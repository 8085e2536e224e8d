// Shared helpers for transport-level tests: wire a connection through an
// emulated network and push a response of a given size with backpressure.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/emulated_network.hpp"
#include "net/profile.hpp"
#include "quic/connection.hpp"
#include "sim/simulator.hpp"
#include "tcp/connection.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace qperc::testutil {

/// A client/server TCP harness: on establishment the server pushes
/// `response_bytes` subject to send-buffer backpressure.
struct TcpHarness {
  sim::Simulator simulator;
  std::unique_ptr<net::EmulatedNetwork> network;
  std::unique_ptr<tcp::TcpConnection> connection;
  std::uint64_t response_bytes = 0;
  std::uint64_t written = 0;
  std::uint64_t delivered = 0;
  std::uint64_t request_delivered = 0;
  SimTime established_at{kNoTime};
  SimTime finished_at{kNoTime};  // exact completion time of the response

  TcpHarness(const net::NetworkProfile& profile, const tcp::TcpConfig& config,
             std::uint64_t response, std::uint64_t seed = 1)
      : response_bytes(response) {
    network = std::make_unique<net::EmulatedNetwork>(simulator, profile, Rng(seed));
    connection = std::make_unique<tcp::TcpConnection>(
        simulator, *network, net::ServerId{0}, config,
        tcp::TcpConnection::Callbacks{
            .on_established =
                [this] {
                  established_at = simulator.now();
                  push();
                },
            .on_request_bytes = [this](std::uint64_t t) { request_delivered = t; },
            .on_response_bytes =
                [this](std::uint64_t t) {
                  delivered = t;
                  if (delivered >= response_bytes && finished_at == kNoTime) {
                    finished_at = simulator.now();
                  }
                },
        });
    connection->set_server_on_writable([this] { push(); });
  }

  void push() {
    while (written < response_bytes) {
      const std::uint64_t accepted = connection->server_write(response_bytes - written);
      if (accepted == 0) break;
      written += accepted;
    }
  }

  /// Runs until everything is delivered or the deadline passes; returns
  /// whether delivery completed.
  bool run(SimDuration deadline = seconds(120)) {
    connection->connect();
    const SimTime end = simulator.now() + deadline;
    while (delivered < response_bytes && simulator.now() < end) {
      simulator.run_until(std::min(end, simulator.now() + milliseconds(100)));
    }
    return delivered >= response_bytes;
  }
};

/// QUIC harness: the server answers each request stream with a fixed-size
/// response on the same stream.
struct QuicHarness {
  sim::Simulator simulator;
  std::unique_ptr<net::EmulatedNetwork> network;
  std::unique_ptr<quic::QuicConnection> connection;
  std::uint64_t response_bytes = 0;
  std::uint64_t streams_completed = 0;
  std::uint64_t bytes_delivered = 0;
  SimTime established_at{kNoTime};

  QuicHarness(const net::NetworkProfile& profile, const quic::QuicConfig& config,
              std::uint64_t response, std::uint64_t seed = 1)
      : response_bytes(response) {
    network = std::make_unique<net::EmulatedNetwork>(simulator, profile, Rng(seed));
    connection = std::make_unique<quic::QuicConnection>(
        simulator, *network, net::ServerId{0}, config,
        quic::QuicConnection::Callbacks{
            .on_established = [this] { established_at = simulator.now(); },
            .on_request_stream =
                [this](std::uint64_t stream, std::uint64_t /*bytes*/, bool fin) {
                  if (fin) {
                    connection->server_write_stream(stream, response_bytes, true, 1);
                  }
                },
            .on_response_stream =
                [this](std::uint64_t /*stream*/, std::uint64_t bytes, bool fin) {
                  latest_stream_bytes = bytes;
                  if (fin) {
                    ++streams_completed;
                    bytes_delivered += bytes;
                  }
                },
        });
  }

  std::uint64_t latest_stream_bytes = 0;

  /// Opens `streams` request streams and runs until all responses complete.
  bool run(std::uint32_t streams, SimDuration deadline = seconds(120)) {
    connection->connect();
    for (std::uint32_t i = 0; i < streams; ++i) {
      connection->client_write_stream(5 + 2 * i, 300, true, 1);
    }
    const SimTime end = simulator.now() + deadline;
    while (streams_completed < streams && simulator.now() < end) {
      simulator.run_until(std::min(end, simulator.now() + milliseconds(100)));
    }
    return streams_completed >= streams;
  }
};

/// An ACK frame over arena nodes chained from `ranges` ([first, last],
/// newest first) exactly as given: nothing is checked, so a test can forge
/// out-of-order or overlapping frames.
inline quic::AckRanges forge_ack_ranges(
    Arena& arena, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  const quic::AckRangeNode* head = nullptr;
  for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
    head = arena.create<quic::AckRangeNode>(quic::AckRangeNode{
        it->first, it->second, head, head == nullptr ? 1u : head->depth + 1});
  }
  return quic::AckRanges{head, static_cast<std::uint32_t>(ranges.size())};
}

}  // namespace qperc::testutil
