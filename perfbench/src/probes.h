// Per-layer micro-measurements for the traced run: each times one layer's
// public entry point on the workload's own message shapes, outside the
// end-to-end window, and reports the median of several batches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "encoding/codec.h"
#include "encoding/typed.h"
#include "harness.h"
#include "transport/live_transport.h"
#include "util/bytes.h"
#include "util/compress.h"

namespace marea::perfbench {

// Median over `batches` of the per-call ns of `fn` run `iters` times.
template <typename Fn>
double median_ns_per_call(int batches, int iters, Fn&& fn) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn();
    per.push_back(static_cast<double>(now_ns() - t0) / iters);
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

struct CodecCost {
  double encode_ns = 0;  // enc::to_value + enc::encode_value_into
  double decode_ns = 0;  // enc::decode_value
  size_t encoded_bytes = 0;
};

template <typename T>
CodecCost probe_codec(const T& obj) {
  CodecCost c;
  const enc::TypePtr& type = enc::descriptor_of<T>();
  Buffer out;
  uint64_t sink = 0;
  c.encode_ns = median_ns_per_call(7, 2000, [&] {
    enc::Value v = enc::to_value(obj);
    (void)enc::encode_value_into(v, *type, out);
    sink += out.size();
  });
  c.encoded_bytes = out.size();
  c.decode_ns = median_ns_per_call(7, 2000, [&] {
    auto v = enc::decode_value(BytesView(out), *type);
    sink += v.ok() ? 1 : 0;
  });
  if (sink == 0) c.decode_ns = -1;  // keeps the loops observable
  return c;
}

// proto::FrameBuilder build + seal() of a `payload_bytes` payload.
double probe_frame_seal_ns(size_t payload_bytes);

// proto::ChunkTable::build over `content` (median of 3), milliseconds.
double probe_chunk_table_ms(BytesView content, uint32_t chunk_size,
                            util::Codec codec);

// Bare LiveTransport one-way latency with no container: one sender on
// 127.0.0.1 unicasts a `frame_bytes` frame to each of `receivers`
// endpoints (127.0.0.2..) at `rate` frames/s for `seconds`; returns the
// p50 of send_frame -> frame handler in microseconds.
double probe_oneway_p50_us(transport::TransportBackend backend,
                           size_t frame_bytes, double rate, int receivers,
                           double seconds, int64_t* samples);

}  // namespace marea::perfbench
