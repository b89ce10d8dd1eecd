// Exact heap-allocation counts on the serving path. This binary replaces the
// global operator new with a counting one, so an allocation regression fails
// here deterministically, with no clock involved. The bounds are the counts
// measured when the opcode-table assembler landed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "isa/assembler.h"
#include "serve/service.h"
#include "telemetry/json.h"
#include "workloads/workload.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace asimt {
namespace {

// Allocations made while `fn` runs.
template <typename F>
std::uint64_t allocations_during(F&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::vector<workloads::Workload> kernels() {
  std::vector<workloads::Workload> suite = workloads::make_all();
  for (auto& w : workloads::make_extra()) suite.push_back(std::move(w));
  return suite;
}

TEST(AllocationCount, AssembleEachKernel) {
  // The text and data images plus one map node per label.
  const std::map<std::string, std::uint64_t> bound = {
      {"mmul", 5}, {"sor", 5}, {"ej", 8}, {"fft", 9}, {"tri", 7},
      {"lu", 7},   {"fir", 4}, {"crc32", 5}, {"dct", 5}, {"hist", 3}};
  for (const workloads::Workload& w : kernels()) {
    isa::Program program;
    const std::uint64_t n =
        allocations_during([&] { program = isa::assemble(w.source); });
    std::printf("assemble %-6s %llu\n", w.name.c_str(),
                static_cast<unsigned long long>(n));
    EXPECT_LE(n, bound.at(w.name)) << w.name;
  }
}

TEST(AllocationCount, WarmServiceEncode) {
  const std::map<std::string, std::uint64_t> bound = {
      {"mmul", 55}, {"sor", 55}, {"ej", 58}, {"fft", 60}, {"tri", 58},
      {"lu", 57},   {"fir", 53}, {"crc32", 54}, {"dct", 55}, {"hist", 51}};
  serve::Service service;
  for (const workloads::Workload& w : kernels()) {
    const std::string line = "{\"id\":1,\"op\":\"encode\",\"k\":5,\"text\":\"" +
                             json::escape(w.source) + "\"}";
    const std::string cold = service.handle_line(line);
    ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
    std::string warm;
    const std::uint64_t n =
        allocations_during([&] { warm = service.handle_line(line); });
    ASSERT_EQ(warm, cold);
    std::printf("warm encode %-6s %llu\n", w.name.c_str(),
                static_cast<unsigned long long>(n));
    EXPECT_LE(n, bound.at(w.name)) << w.name;
  }
}

}  // namespace
}  // namespace asimt
