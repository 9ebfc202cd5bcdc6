// Allocation regression tests for the prepared fast path: this binary
// overrides global operator new to count heap allocations and asserts
// that the prepared explicit admissibility check — mask compilation,
// base po-closure, and the disjunction DFS — performs exactly zero of
// them, as does the classic explicit engine's non-witness decision on a
// prebuilt HbProblem.  (These overrides are binary-wide, which is why
// this suite lives in its own test executable.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/analysis.h"
#include "core/checker.h"
#include "core/hb.h"
#include "core/prepared.h"
#include "litmus/catalog.h"
#include "models/zoo.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcmc {
namespace {

/// Allocations performed by `fn`, measured outside any gtest assertion
/// machinery.
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(PreparedAllocation, OperatorNewOverrideIsActive) {
  const std::size_t n = allocations_during([] {
    std::vector<int>* v = new std::vector<int>(100);
    delete v;
  });
  EXPECT_GE(n, 1u);
}

TEST(PreparedAllocation, PreparedExplicitCheckIsAllocationFree) {
  // Tests chosen to exercise every hot-path shape: forced-edge-only
  // problems (SB), coherence + escape edges (L9), fences (TestA), and
  // multi-rf-map enumerations (MP's unconstrained-read variants).
  const auto tests = {litmus::store_buffering(), litmus::test_a(),
                      litmus::l2(), litmus::l9(), litmus::message_passing(),
                      litmus::iriw()};
  const auto models = models::all_named_models();
  for (const auto& t : tests) {
    const core::PreparedTest prep(t.program(), t.outcome());
    for (const auto& m : models) {
      bool verdict = false;
      const std::size_t allocs = allocations_during([&] {
        verdict = prep.allowed(m, core::Engine::Explicit);
      });
      EXPECT_EQ(allocs, 0u) << t.name() << " under " << m.name();
      // The fast path must agree with the classic per-cell check.
      EXPECT_EQ(verdict, core::is_allowed(prep.analysis(), m, t.outcome(),
                                          core::Engine::Explicit))
          << t.name() << " under " << m.name();
    }
  }
}

TEST(PreparedAllocation, ClassicExplicitDecisionIsAllocationFree) {
  // The rewritten ExplicitSearch (fixed closure arrays + frame-local
  // stack copies) must not allocate when no witness is requested.
  const auto t = litmus::l9();
  const core::Analysis an(t.program());
  const auto model = models::pso();
  const auto rfs = core::enumerate_read_from(an, t.outcome());
  ASSERT_FALSE(rfs.empty());
  const core::HbProblem p = core::build_hb_problem(an, model, rfs[0]);
  bool verdict = false;
  const std::size_t allocs = allocations_during([&] {
    verdict = core::hb_satisfiable(p, core::Engine::Explicit);
  });
  EXPECT_EQ(allocs, 0u);
  (void)verdict;
}

TEST(PreparedAllocation, CompileMaskIsAllocationFree) {
  const auto t = litmus::store_buffering();
  const core::PreparedTest prep(t.program(), t.outcome());
  const auto model = models::sc();
  core::ReorderMask mask;
  const std::size_t allocs =
      allocations_during([&] { prep.compile_mask(model, mask); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(mask.num_events, prep.analysis().num_events());
}

}  // namespace
}  // namespace mcmc
