#include "probes.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "protocol/chunk_table.h"
#include "protocol/frame.h"

namespace marea::perfbench {

double probe_frame_seal_ns(size_t payload_bytes) {
  FramePool pool;
  Buffer payload(payload_bytes, 0x5A);
  uint64_t sink = 0;
  const double ns = median_ns_per_call(7, 5000, [&] {
    proto::FrameBuilder fb(pool, proto::FrameHeader{proto::MsgType::kVarSample, 1});
    fb.payload().bytes(BytesView(payload));
    SharedFrame f = std::move(fb).seal();
    sink += f.view().size();
  });
  return sink ? ns : -1;
}

double probe_chunk_table_ms(BytesView content, uint32_t chunk_size,
                            util::Codec codec) {
  uint64_t sink = 0;
  const double ns = median_ns_per_call(3, 1, [&] {
    proto::ChunkTable t = proto::ChunkTable::build(content, chunk_size, codec, 1);
    sink += t.chunk_count();
  });
  return sink ? ns * 1e-6 : -1;
}

double probe_oneway_p50_us(transport::TransportBackend backend,
                           size_t frame_bytes, double rate, int receivers,
                           double seconds, int64_t* samples) {
  transport::TransportConfig cfg;
  cfg.backend = backend;
  auto tx = transport::make_live_transport("127.0.0.1", cfg);
  if (!tx->bind_frames(0, [](transport::Address, SharedFrame) {}).is_ok()) {
    return -1;
  }
  const uint16_t tx_port = tx->bound_port(0);
  const size_t n_frames = static_cast<size_t>(rate * seconds);
  std::vector<std::unique_ptr<transport::LiveTransport>> rx;
  std::vector<Samples> lat(static_cast<size_t>(receivers));
  std::vector<transport::Address> dst;
  for (int r = 0; r < receivers; ++r) {
    const std::string ip = "127.0.0." + std::to_string(r + 2);
    rx.push_back(transport::make_live_transport(ip, cfg));
    Samples* out = &lat[static_cast<size_t>(r)];
    out->reserve(n_frames);
    Status s = rx.back()->bind_frames(0, [out](transport::Address, SharedFrame f) {
      const int64_t now = now_ns();
      BytesView v = f.view();
      int64_t stamp = 0;
      if (v.size() >= sizeof stamp) {
        std::memcpy(&stamp, v.data(), sizeof stamp);
        out->add(now - stamp);
      }
    });
    if (!s.is_ok()) return -1;
    dst.push_back({transport::ipv4_host(ip), rx.back()->bound_port(0)});
  }

  tighten_timer_slack();
  const int64_t gap = static_cast<int64_t>(1e9 / rate);
  const int64_t t0 = now_ns() + 5'000'000;
  Buffer body(frame_bytes < 8 ? 8 : frame_bytes, 0x33);
  for (size_t i = 0; i < n_frames; ++i) {
    sleep_until_ns(t0 + static_cast<int64_t>(i) * gap);
    for (const transport::Address& a : dst) {
      FrameLease lease = tx->frame_pool().acquire(body.size());
      const int64_t stamp = now_ns();
      std::memcpy(body.data(), &stamp, sizeof stamp);
      lease.buffer().assign(body.begin(), body.end());
      (void)tx->send_frame(tx_port, a, std::move(lease).freeze());
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  rx.clear();  // joins the receive threads before reading the samples
  Samples all;
  for (Samples& s : lat) all.append(s);
  *samples = static_cast<int64_t>(all.size());
  return all.pct(0.50) * 1e-3;
}

}  // namespace marea::perfbench
