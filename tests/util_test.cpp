#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tempest/util/align.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/rng.hpp"
#include "tempest/util/stats.hpp"
#include "tempest/util/table.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace tu = tempest::util;

TEST(Require, ThrowsOnViolation) {
  EXPECT_THROW(TEMPEST_REQUIRE(1 == 2), tu::PreconditionError);
  EXPECT_NO_THROW(TEMPEST_REQUIRE(1 == 1));
  try {
    TEMPEST_REQUIRE_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

TEST(Require, MessageNamesExpressionAndLocation) {
  // The diagnostic must be self-contained: expression text, source
  // file:line, and — for the _MSG form — the caller's detail after a dash.
  try {
    TEMPEST_REQUIRE(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("precondition failed: (2 + 2 == 5)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("util_test.cpp:"), std::string::npos) << msg;
  }
  try {
    TEMPEST_REQUIRE_MSG(1 > 3, "tile wider than the domain");
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("(1 > 3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("— tile wider than the domain"), std::string::npos)
        << msg;
  }
}

TEST(Require, IsACatchableLogicError) {
  // Consumers that cannot include tempest headers still catch std::.
  EXPECT_THROW(TEMPEST_REQUIRE(false), std::logic_error);
  EXPECT_THROW(TEMPEST_REQUIRE_MSG(false, "x"), std::exception);
}

TEST(AlignedVector, StorageIsAligned) {
  tu::aligned_vector<float> v(1000, 1.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % tu::kAlignment, 0u);
  tu::aligned_vector<double> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % tu::kAlignment, 0u);
}

TEST(AlignedVector, AllocatorEqualityAndRebind) {
  tu::AlignedAllocator<float> a;
  tu::AlignedAllocator<double> b;
  EXPECT_TRUE(a == tu::AlignedAllocator<float>(b));
}

TEST(Rng, Deterministic) {
  tu::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  tu::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  tu::SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Stats, SummaryOfKnownSeries) {
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  const tu::Summary s = tu::summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944487358056, 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, OddMedianAndEmpty) {
  const double xs[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(tu::summarize(xs).median, 3.0);
  const tu::Summary empty = tu::summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Stats, RelErr) {
  EXPECT_DOUBLE_EQ(tu::rel_err(1.0, 1.0), 0.0);
  EXPECT_NEAR(tu::rel_err(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(tu::rel_err(0.0, 0.0), 0.0);
}

TEST(Timer, MeasuresElapsed) {
  tu::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  const double ms = t.milliseconds();
  EXPECT_GE(ms, 0.0);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",      "--size=128", "--steps=50",
                        "--verbose", "pos1",       "--ratio=0.5"};
  tu::Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("size", 0), 128);
  EXPECT_EQ(cli.get_int("steps", 0), 50);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.get_flag("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  tu::Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_TRUE(cli.get_flag("missing", true));
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--so=4,8,12"};
  tu::Cli cli(2, argv);
  const auto so = cli.get_int_list("so", {2});
  ASSERT_EQ(so.size(), 3u);
  EXPECT_EQ(so[0], 4);
  EXPECT_EQ(so[1], 8);
  EXPECT_EQ(so[2], 12);
  EXPECT_EQ(cli.get_int_list("missing", {2, 4}).size(), 2u);
}

TEST(Table, AsciiAndCsv) {
  tu::Table t({"name", "value"});
  t.add_row({"alpha", tu::Table::num(1.5, 2)});
  t.add_row({"beta", "2"});
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream ascii;
  t.print_ascii(ascii);
  EXPECT_NE(ascii.str().find("alpha"), std::string::npos);
  EXPECT_NE(ascii.str().find("1.50"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.50\nbeta,2\n");
}

TEST(Table, RejectsWrongArity) {
  tu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), tu::PreconditionError);
}

// --- Thread policy + task-graph substrate --------------------------------

namespace {

/// Counts the distinct OS threads that ever touched it: a thread_local's
/// constructor runs once per thread, whatever id the thread is given.
std::atomic<int> g_probe_threads{0};
struct ThreadProbe {
  ThreadProbe() { g_probe_threads.fetch_add(1); }
};
thread_local ThreadProbe t_probe;

}  // namespace

TEST(Threads, TeamPersistsAcrossCalls) {
  // A team spawned per call would bring fresh threads every time; the
  // persistent team serves 200 calls with the caller plus 3 members.
  std::mutex mu;
  std::set<std::thread::id> ids;
  g_probe_threads.store(0);
  for (int call = 0; call < 200; ++call) {
    tu::parallel_for(64, 4, [&](int) {
      (void)&t_probe;
      const std::lock_guard<std::mutex> lk(mu);
      ids.insert(std::this_thread::get_id());
    });
  }
  EXPECT_LE(ids.size(), 4u);
  EXPECT_LE(g_probe_threads.load(), 4);
}

TEST(Threads, ConcurrentCallersBothGetCorrectResults) {
  // Whichever caller does not get the team runs its loop inline.
  auto caller = [](std::vector<long long>* sums) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<std::atomic<int>> hits(257);
      tu::parallel_for(257, 4,
                       [&](int i) { hits[static_cast<std::size_t>(i)]++; });
      long long sum = 0;
      for (const auto& h : hits) sum += h.load();
      sums->push_back(sum);
    }
  };
  std::vector<long long> a, b;
  std::thread ta(caller, &a);
  std::thread tb(caller, &b);
  ta.join();
  tb.join();
  ASSERT_EQ(a.size(), 50u);
  ASSERT_EQ(b.size(), 50u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k], 257);
    EXPECT_EQ(b[k], 257);
  }
}

TEST(Threads, TeamRunsNextCallAfterException) {
  EXPECT_THROW(tu::parallel_for(64, 8,
                                [](int i) {
                                  if (i % 9 == 4) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(97);
  tu::parallel_for(97, 8,
                   [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < 97; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(Threads, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(97);
    tu::parallel_for(97, threads,
                     [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < 97; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(Threads, ParallelForPropagatesException) {
  for (const int threads : {1, 8}) {
    EXPECT_THROW(
        tu::parallel_for(16, threads,
                         [](int i) {
                           if (i == 7) throw std::runtime_error("boom");
                         }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

namespace {

/// A staircase DAG matching the engine's wavefront tile graphs: node
/// (ix, iy) on an ni x nj grid depends on (ix-1, iy) and (ix, iy-1).
tu::TaskDag staircase(int ni, int nj) {
  tu::TaskDag dag(ni * nj);
  for (int ix = 0; ix < ni; ++ix) {
    for (int iy = 0; iy < nj; ++iy) {
      const int node = ix * nj + iy;
      if (ix > 0) dag.add_edge((ix - 1) * nj + iy, node);
      if (iy > 0) dag.add_edge(ix * nj + (iy - 1), node);
    }
  }
  return dag;
}

/// Run `dag` at each thread count: every node must run exactly once, and
/// only after all of its predecessors.
void expect_edges_honored(const tu::TaskDag& dag,
                          std::initializer_list<int> thread_counts) {
  for (const int threads : thread_counts) {
    std::vector<std::atomic<int>> done(static_cast<std::size_t>(dag.size()));
    std::atomic<bool> violated{false};
    dag.run(threads, [&](int node) {
      for (const int p : dag.preds(node)) {
        if (done[static_cast<std::size_t>(p)].load() == 0) {
          violated.store(true);
        }
      }
      done[static_cast<std::size_t>(node)]++;
    });
    EXPECT_FALSE(violated.load()) << "threads=" << threads;
    for (int i = 0; i < dag.size(); ++i) {
      EXPECT_EQ(done[static_cast<std::size_t>(i)].load(), 1)
          << "node " << i << " threads=" << threads;
    }
  }
}

}  // namespace

TEST(TaskDag, HonorsStaircaseEdgesAtEveryThreadCount) {
  expect_edges_honored(staircase(5, 4), {1, 2, 8});
}

TEST(TaskDag, HonorsEveryEdgeOfWideNodes) {
  // Layers of 4 nodes; every node depends on all 4 nodes of the layer
  // before, so each non-root node has 4 predecessors.
  const int width = 4, layers = 6;
  tu::TaskDag dag(width * layers);
  for (int l = 1; l < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      for (int p = 0; p < width; ++p) {
        dag.add_edge((l - 1) * width + p, l * width + i);
      }
    }
  }
  EXPECT_EQ(dag.preds(width * layers - 1).size(), 4u);
  expect_edges_honored(dag, {2, 8});
}

TEST(TaskDag, NestedParallelForRunsInline) {
  const tu::TaskDag dag = staircase(3, 3);
  std::atomic<int> foreign{0};
  std::atomic<int> iterations{0};
  dag.run(4, [&](int) {
    const std::thread::id self = std::this_thread::get_id();
    tu::parallel_for(16, 4, [&](int) {
      if (std::this_thread::get_id() != self) foreign++;
      iterations++;
    });
  });
  EXPECT_EQ(iterations.load(), 9 * 16);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(TaskDag, SerialRunIsAscendingNodeOrder) {
  const tu::TaskDag dag = staircase(3, 3);
  std::vector<int> order;
  dag.run(1, [&](int node) { order.push_back(node); });
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskDag, RejectsBackwardEdge) {
  tu::TaskDag dag(4);
  EXPECT_THROW(dag.add_edge(2, 1), tu::PreconditionError);
  EXPECT_THROW(dag.add_edge(1, 1), tu::PreconditionError);
  EXPECT_THROW(dag.add_edge(0, 4), tu::PreconditionError);
}

TEST(TaskDag, PropagatesExceptionFromTaskBody) {
  const tu::TaskDag dag = staircase(4, 4);
  for (const int threads : {1, 8}) {
    EXPECT_THROW(dag.run(threads,
                         [](int node) {
                           if (node == 5) throw std::runtime_error("boom");
                         }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}
