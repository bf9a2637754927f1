// Microbenchmark: the traffic-compression codecs of paper section 2.4.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/prefix_group.h"
#include "encoding/varint.h"

namespace tj {
namespace {

std::vector<uint64_t> DenseKeys(int64_t n) {
  Rng rng(3);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.Below(static_cast<uint64_t>(n) * 4);
  return keys;
}

void BM_DeltaEncode(benchmark::State& state) {
  auto keys = DenseKeys(state.range(0));
  for (auto _ : state) {
    ByteBuffer buf;
    DeltaEncode(keys, /*presorted=*/false, &buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeltaEncode)->Arg(1 << 12)->Arg(1 << 18);

void BM_DeltaDecode(benchmark::State& state) {
  auto keys = DenseKeys(state.range(0));
  ByteBuffer buf;
  DeltaEncode(keys, false, &buf);
  for (auto _ : state) {
    ByteReader reader(buf);
    std::vector<uint64_t> decoded;
    Status status = TryDeltaDecode(&reader, &decoded);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(decoded.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeltaDecode)->Arg(1 << 12)->Arg(1 << 18);

void BM_PrefixGroupEncode(benchmark::State& state) {
  auto keys = DenseKeys(state.range(0));
  for (auto _ : state) {
    ByteBuffer buf;
    PrefixGroupEncode(keys, 32, 12, &buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixGroupEncode)->Arg(1 << 12)->Arg(1 << 18);

void BM_BitPack(benchmark::State& state) {
  auto keys = DenseKeys(state.range(0));
  for (auto _ : state) {
    ByteBuffer buf;
    BitPacker packer(&buf);
    for (uint64_t k : keys) packer.Put(k & ((1ULL << 30) - 1), 30);
    packer.Flush();
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitPack)->Arg(1 << 12)->Arg(1 << 18);

void BM_Base100Encode(benchmark::State& state) {
  auto keys = DenseKeys(state.range(0));
  for (auto _ : state) {
    ByteBuffer buf;
    for (uint64_t k : keys) EncodeBase100(k, &buf);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Base100Encode)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
}  // namespace tj

BENCHMARK_MAIN();
