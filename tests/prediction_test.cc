#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <string>

#include <gtest/gtest.h>

#include "prediction/count_history.h"
#include "prediction/count_predictor.h"
#include "prediction/grid.h"
#include "prediction/predictor.h"
#include "tests/predictor_reference.h"
#include "tests/test_util.h"

namespace mqa {
namespace {

using testing_util::MakeTask;
using testing_util::MakeWorker;

// ------------------------------------------------------------------ grid

TEST(GridTest, CellMapping) {
  const Grid grid(2);
  EXPECT_EQ(grid.num_cells(), 4);
  EXPECT_DOUBLE_EQ(grid.cell_side(), 0.5);
  EXPECT_EQ(grid.CellOf({0.1, 0.1}), 0);
  EXPECT_EQ(grid.CellOf({0.9, 0.1}), 1);
  EXPECT_EQ(grid.CellOf({0.1, 0.9}), 2);
  EXPECT_EQ(grid.CellOf({0.9, 0.9}), 3);
}

TEST(GridTest, BoundaryPointsClampIntoLastCell) {
  const Grid grid(4);
  EXPECT_EQ(grid.CellOf({1.0, 1.0}), 15);
  EXPECT_EQ(grid.CellOf({0.0, 0.0}), 0);
  // Out-of-space points clamp rather than crash.
  EXPECT_EQ(grid.CellOf({1.5, -0.5}), 3);
  // Far-out coordinates clamp too, with no overflow on the way.
  const Grid wide(20);
  EXPECT_EQ(wide.CellOf({1e12, 0.5}), 219);
  EXPECT_EQ(wide.CellOf({0.5, 1e12}), 390);
  EXPECT_EQ(wide.CellOf({-1e12, 0.5}), 200);
  EXPECT_EQ(wide.CellOf({0.5, -1e12}), 10);
}

TEST(GridTest, CellBoxRoundTrip) {
  const Grid grid(5);
  for (int c = 0; c < grid.num_cells(); ++c) {
    const BBox box = grid.CellBox(c);
    EXPECT_EQ(grid.CellOf(box.Center()), c);
  }
}

TEST(GridTest, HistogramCountsAll) {
  const Grid grid(2);
  const std::vector<Point> pts = {{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9},
                                  {0.6, 0.1}};
  const auto h = grid.Histogram(pts);
  EXPECT_EQ(h[0], 2);
  EXPECT_EQ(h[1], 1);
  EXPECT_EQ(h[2], 0);
  EXPECT_EQ(h[3], 1);
}

// --------------------------------------------------------- count history

std::vector<double> SeriesOf(const CountHistory& hist, int cell) {
  std::vector<double> out;
  hist.Series(cell, &out);
  return out;
}

TEST(CountHistoryTest, WindowEviction) {
  CountHistory hist(2, 3);
  hist.Push({1, 10});
  hist.Push({2, 20});
  hist.Push({3, 30});
  hist.Push({4, 40});  // evicts the first
  EXPECT_EQ(hist.size(), 3);
  EXPECT_EQ(SeriesOf(hist, 0), (std::vector<double>{2, 3, 4}));
  EXPECT_EQ(SeriesOf(hist, 1), (std::vector<double>{20, 30, 40}));
}

TEST(CountHistoryTest, PartiallyFilled) {
  CountHistory hist(1, 5);
  EXPECT_TRUE(hist.WindowIsZero(0));
  hist.Push({7});
  EXPECT_EQ(hist.size(), 1);
  EXPECT_EQ(SeriesOf(hist, 0), (std::vector<double>{7}));
  EXPECT_FALSE(hist.WindowIsZero(0));
}

TEST(CountHistoryTest, RingWrapsTwiceKeepingSeriesAndZeroWindows) {
  // Window 3 over 9 pushes: every ring row is overwritten twice. Cell 0
  // never sees an arrival, cell 1 only in the first instance (its window
  // is zero again from the fourth push on), the others vary and hit zero
  // now and then.
  constexpr int kCells = 5;
  constexpr int kWindow = 3;
  CountHistory hist(kCells, kWindow);
  std::vector<std::deque<double>> model(kCells);
  std::vector<double> series;
  for (int r = 0; r < 3 * kWindow; ++r) {
    const std::vector<int64_t> counts = {0, r == 0 ? 5 : 0, r,
                                         r % 3 == 0 ? 0 : r, 8 - r};
    hist.Push(counts);
    for (int c = 0; c < kCells; ++c) {
      model[c].push_back(static_cast<double>(counts[c]));
      if (static_cast<int>(model[c].size()) > kWindow) model[c].pop_front();
    }
    EXPECT_EQ(hist.size(), std::min(r + 1, kWindow));
    for (int c = 0; c < kCells; ++c) {
      hist.Series(c, &series);
      EXPECT_EQ(series, std::vector<double>(model[c].begin(), model[c].end()))
          << "push " << r << " cell " << c;
      const bool all_zero = std::all_of(model[c].begin(), model[c].end(),
                                        [](double v) { return v == 0.0; });
      EXPECT_EQ(hist.WindowIsZero(c), all_zero)
          << "push " << r << " cell " << c;
    }
  }
  EXPECT_TRUE(hist.WindowIsZero(0));
  EXPECT_TRUE(hist.WindowIsZero(1));
  EXPECT_FALSE(hist.WindowIsZero(2));
}

TEST(CountHistoryTest, HugeWindowHoldsOnlyPushedRows) {
  // 400 cells x 2^30 rows would be terabytes: the ring must grow with the
  // pushes, not with the window.
  CountHistory hist(400, 1 << 30);
  for (int64_t r = 1; r <= 3; ++r) {
    std::vector<int64_t> counts(400, 0);
    counts[7] = r;
    counts[399] = 10 * r;
    hist.Push(counts);
  }
  EXPECT_EQ(hist.size(), 3);
  EXPECT_EQ(SeriesOf(hist, 7), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(SeriesOf(hist, 399), (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(SeriesOf(hist, 0), (std::vector<double>{0, 0, 0}));
  EXPECT_TRUE(hist.WindowIsZero(0));
  EXPECT_FALSE(hist.WindowIsZero(7));
}

// ------------------------------------------------------- count predictor

TEST(CountPredictorTest, LinearRegressionExtrapolatesTrend) {
  const auto lr = MakeLinearRegressionPredictor();
  EXPECT_EQ(lr->PredictNext({1, 2, 3}), 4);
  EXPECT_EQ(lr->PredictNext({10, 8, 6}), 4);
  EXPECT_EQ(lr->PredictNext({5, 5, 5}), 5);
  EXPECT_EQ(lr->PredictNext({}), 0);
  EXPECT_EQ(lr->PredictNext({3}), 3);  // window 1 = carry forward
}

TEST(CountPredictorTest, NeverNegative) {
  const auto lr = MakeLinearRegressionPredictor();
  EXPECT_EQ(lr->PredictNext({9, 5, 1}), 0);  // trend would hit -3
}

TEST(CountPredictorTest, PaperTableIIIExample) {
  // Table III reports [4,3,4]->4, [2,3,3]->3, [0,1,0]->0, [1,1,1]->1.
  // The least-squares line through (1,2),(2,3),(3,3) evaluated at 4 gives
  // 3.67 -> 4, so the printed example actually matches the window *mean*
  // (moving average); see docs/DEVIATIONS.md, row D9. Both predictors are
  // provided.
  const auto ma = MakeMovingAveragePredictor();
  EXPECT_EQ(ma->PredictNext({4, 3, 4}), 4);
  EXPECT_EQ(ma->PredictNext({2, 3, 3}), 3);
  EXPECT_EQ(ma->PredictNext({0, 1, 0}), 0);
  EXPECT_EQ(ma->PredictNext({1, 1, 1}), 1);

  const auto lr = MakeLinearRegressionPredictor();
  EXPECT_EQ(lr->PredictNext({4, 3, 4}), 4);
  EXPECT_EQ(lr->PredictNext({0, 1, 0}), 0);
  EXPECT_EQ(lr->PredictNext({1, 1, 1}), 1);
}

TEST(CountPredictorTest, LastValue) {
  const auto last = MakeLastValuePredictor();
  EXPECT_EQ(last->PredictNext({1, 2, 9}), 9);
  EXPECT_EQ(last->PredictNext({}), 0);
}

constexpr CountPredictorKind kAllPredictorKinds[] = {
    CountPredictorKind::kLinearRegression, CountPredictorKind::kLastValue,
    CountPredictorKind::kMovingAverage};

TEST(CountPredictorTest, AllZeroSeriesPredictsZero) {
  // The contract GridPredictor's skip of all-zero windows rests on.
  for (const CountPredictorKind kind : kAllPredictorKinds) {
    const auto predictor = MakeCountPredictor(kind);
    for (size_t length = 1; length <= 5; ++length) {
      EXPECT_EQ(predictor->PredictNext(std::vector<double>(length, 0.0)), 0)
          << "kind " << static_cast<int>(kind) << " length " << length;
    }
  }
}

// -------------------------------------------------------- grid predictor

std::vector<Worker> WorkersAt(const std::vector<Point>& pts, Timestamp p) {
  std::vector<Worker> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    Worker w = MakeWorker(static_cast<WorkerId>(i), pts[i].x, pts[i].y, 0.25);
    w.arrival = p;
    out.push_back(w);
  }
  return out;
}

std::vector<Task> TasksAt(const std::vector<Point>& pts, Timestamp p) {
  std::vector<Task> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    Task t = MakeTask(static_cast<TaskId>(i), pts[i].x, pts[i].y, 1.5);
    t.arrival = p;
    out.push_back(t);
  }
  return out;
}

TEST(GridPredictorTest, StationaryStreamPredictsSameCounts) {
  PredictionConfig config;
  config.gamma = 2;
  config.window = 3;
  GridPredictor predictor(config);

  // Same 3 workers in cell 0 and 2 tasks in cell 3 every instance.
  const std::vector<Point> worker_pts = {{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.1}};
  const std::vector<Point> task_pts = {{0.8, 0.8}, {0.9, 0.7}};
  for (int p = 0; p < 3; ++p) {
    predictor.Observe(WorkersAt(worker_pts, p), TasksAt(task_pts, p));
  }
  const Prediction pred = predictor.PredictNext();
  EXPECT_EQ(pred.worker_cell_counts[0], 3);
  EXPECT_EQ(pred.worker_cell_counts[1], 0);
  EXPECT_EQ(pred.task_cell_counts[3], 2);
  EXPECT_EQ(pred.workers.size(), 3u);
  EXPECT_EQ(pred.tasks.size(), 2u);
}

TEST(GridPredictorTest, PredictedEntitiesAreFlaggedWithNegativeIds) {
  PredictionConfig config;
  config.gamma = 2;
  GridPredictor predictor(config);
  predictor.Observe(WorkersAt({{0.1, 0.1}}, 0), TasksAt({{0.9, 0.9}}, 0));
  const Prediction pred = predictor.PredictNext();
  ASSERT_EQ(pred.workers.size(), 1u);
  EXPECT_TRUE(pred.workers[0].predicted);
  EXPECT_LT(pred.workers[0].id, 0);
  ASSERT_EQ(pred.tasks.size(), 1u);
  EXPECT_TRUE(pred.tasks[0].predicted);
}

TEST(GridPredictorTest, SampleBoxesStayNearTheirCell) {
  PredictionConfig config;
  config.gamma = 4;
  GridPredictor predictor(config);
  std::vector<Point> pts;
  for (int i = 0; i < 8; ++i) {
    pts.push_back({0.05 + 0.02 * i, 0.1});  // all in cell row 0
  }
  for (int p = 0; p < 3; ++p) {
    predictor.Observe(WorkersAt(pts, p), {});
  }
  const Prediction pred = predictor.PredictNext();
  ASSERT_FALSE(pred.workers.empty());
  for (const Worker& w : pred.workers) {
    // Centers must lie in the lowest row of cells; boxes are clipped to
    // the unit square.
    EXPECT_LE(w.Center().y, 0.25 + 0.3);
    EXPECT_GE(w.location.lo().x, 0.0);
    EXPECT_LE(w.location.hi().x, 1.0);
  }
}

TEST(GridPredictorTest, PredictedVelocitiesWithinObservedRange) {
  PredictionConfig config;
  config.gamma = 2;
  GridPredictor predictor(config);
  std::vector<Worker> workers = WorkersAt({{0.1, 0.1}, {0.4, 0.2}}, 0);
  workers[0].velocity = 0.2;
  workers[1].velocity = 0.3;
  predictor.Observe(workers, TasksAt({{0.9, 0.9}}, 0));
  const Prediction pred = predictor.PredictNext();
  for (const Worker& w : pred.workers) {
    EXPECT_GE(w.velocity, 0.2);
    EXPECT_LE(w.velocity, 0.3);
  }
}

TEST(GridPredictorTest, NoObservationsPredictNothing) {
  PredictionConfig config;
  config.gamma = 2;
  GridPredictor predictor(config);
  const Prediction pred = predictor.PredictNext();
  EXPECT_TRUE(pred.workers.empty());
  EXPECT_TRUE(pred.tasks.empty());
}

TEST(GridPredictorTest, ObserveKeepsTheArrivalHistograms) {
  PredictionConfig config;
  config.gamma = 2;
  GridPredictor predictor(config);
  EXPECT_TRUE(predictor.last_worker_counts().empty());
  predictor.Observe(WorkersAt({{0.1, 0.1}, {0.2, 0.3}, {0.9, 0.9}}, 0),
                    TasksAt({{0.6, 0.1}}, 0));
  EXPECT_EQ(predictor.last_worker_counts(),
            (std::vector<int64_t>{2, 0, 0, 1}));
  EXPECT_EQ(predictor.last_task_counts(), (std::vector<int64_t>{0, 1, 0, 0}));
  predictor.Observe({}, {});
  EXPECT_EQ(predictor.last_worker_counts(), (std::vector<int64_t>(4, 0)));
}

TEST(GridPredictorTest, AverageRelativeError) {
  EXPECT_DOUBLE_EQ(
      GridPredictor::AverageRelativeError({4, 3, 0, 1}, {4, 3, 0, 1}), 0.0);
  // |5-4|/4 = 0.25 over 1 cell of 4 -> 0.0625.
  EXPECT_DOUBLE_EQ(
      GridPredictor::AverageRelativeError({5, 3, 0, 1}, {4, 3, 0, 1}),
      0.25 / 4.0);
  // Empty actual cell with estimate 2 counts as |2-0|/max(0,1) = 2.
  EXPECT_DOUBLE_EQ(GridPredictor::AverageRelativeError({2}, {0}), 2.0);
}

// ------------------------------------- grid predictor vs the reference

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBox(const BBox& got, const BBox& want, const std::string& at) {
  ASSERT_EQ(Bits(got.lo().x), Bits(want.lo().x)) << at;
  ASSERT_EQ(Bits(got.lo().y), Bits(want.lo().y)) << at;
  ASSERT_EQ(Bits(got.hi().x), Bits(want.hi().x)) << at;
  ASSERT_EQ(Bits(got.hi().y), Bits(want.hi().y)) << at;
}

void ExpectSamePrediction(const Prediction& got, const Prediction& want,
                          const std::string& at) {
  ASSERT_EQ(got.worker_cell_counts, want.worker_cell_counts) << at;
  ASSERT_EQ(got.task_cell_counts, want.task_cell_counts) << at;
  ASSERT_EQ(got.workers.size(), want.workers.size()) << at;
  for (size_t i = 0; i < got.workers.size(); ++i) {
    const Worker& g = got.workers[i];
    const Worker& w = want.workers[i];
    ASSERT_EQ(g.id, w.id) << at;
    ASSERT_EQ(g.predicted, w.predicted) << at;
    ASSERT_EQ(Bits(g.velocity), Bits(w.velocity)) << at << " worker " << i;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameBox(g.location, w.location, at + " worker box"));
  }
  ASSERT_EQ(got.tasks.size(), want.tasks.size()) << at;
  for (size_t j = 0; j < got.tasks.size(); ++j) {
    const Task& g = got.tasks[j];
    const Task& t = want.tasks[j];
    ASSERT_EQ(g.id, t.id) << at;
    ASSERT_EQ(g.predicted, t.predicted) << at;
    ASSERT_EQ(Bits(g.deadline), Bits(t.deadline)) << at << " task " << j;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameBox(g.location, t.location, at + " task box"));
  }
}

// One coordinate of a sweep arrival: mostly uniform, otherwise exactly on
// an interior cell edge, on the 1.0 border, or outside the unit square
// (CellOf clamps those into a border cell; no cell box Contains them).
double SweepCoordinate(Rng* rng, const Grid& grid) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
    case 1:
      if (grid.gamma() >= 2) {
        const int cx = static_cast<int>(rng->UniformInt(1, grid.gamma() - 1));
        return grid.CellBox(cx).lo().x;
      }
      return 0.0;
    case 2:
      return 1.0;
    case 3:
      return rng->Bernoulli(0.5) ? rng->Uniform(-0.3, 0.0)
                                 : rng->Uniform(1.0, 1.3);
    default:
      return rng->Uniform();
  }
}

TEST(GridPredictorTest, MatchesTheFitEveryWindowReference) {
  // The production predictor skips all-zero windows and reads the others
  // from a flat ring; the reference fits every deque window. Every
  // prediction must agree bit for bit, over every built-in count
  // predictor, grid size and window, with idle epochs (so windows that
  // held counts return to zero) and arrivals on cell edges, on 1.0 and
  // outside the unit square.
  constexpr int kEpochs = 16;
  int64_t zero_windows = 0;
  int64_t emptied_windows = 0;
  int64_t predicted_entities = 0;
  for (const CountPredictorKind kind : kAllPredictorKinds) {
    for (const int gamma : {1, 2, 7, 20}) {
      for (const int window : {1, 3, 5}) {
        for (const uint64_t seed : {5u, 17u}) {
          const std::string config_at =
              "kind " + std::to_string(static_cast<int>(kind)) + " gamma " +
              std::to_string(gamma) + " window " + std::to_string(window) +
              " seed " + std::to_string(seed);
          PredictionConfig config;
          config.gamma = gamma;
          config.window = window;
          config.seed = seed;
          GridPredictor predictor(config, MakeCountPredictor(kind));
          testing_util::ReferenceGridPredictor reference(
              config, testing_util::MakeReferenceCountPredictor(kind));
          const Grid grid(gamma);
          Rng rng(seed * 7919 + static_cast<uint64_t>(gamma * 31 + window));
          std::vector<char> was_zero(
              2 * static_cast<size_t>(grid.num_cells()), 1);
          int64_t next_id = 0;
          for (int p = 0; p < kEpochs; ++p) {
            const std::string at = config_at + " epoch " + std::to_string(p);
            // Workers stop arriving for epochs 5-10, tasks for 6-11: six
            // idle epochs empty even a window of 5.
            const int64_t num_workers =
                (p >= 5 && p <= 10) ? 0 : rng.UniformInt(0, 24);
            const int64_t num_tasks =
                (p >= 6 && p <= 11) ? 0 : rng.UniformInt(0, 24);
            std::vector<Worker> workers;
            for (int64_t i = 0; i < num_workers; ++i) {
              const double x = SweepCoordinate(&rng, grid);
              const double y = SweepCoordinate(&rng, grid);
              workers.push_back(
                  MakeWorker(next_id++, x, y, rng.Uniform(0.1, 0.4)));
            }
            std::vector<Task> tasks;
            for (int64_t j = 0; j < num_tasks; ++j) {
              const double x = SweepCoordinate(&rng, grid);
              const double y = SweepCoordinate(&rng, grid);
              tasks.push_back(MakeTask(next_id++, x, y, rng.Uniform(0.5, 2.5)));
            }
            predictor.Observe(workers, tasks);
            reference.Observe(workers, tasks);

            // Observe's histograms are the counts the reference pushed.
            for (int c = 0; c < grid.num_cells(); ++c) {
              const size_t cell = static_cast<size_t>(c);
              const std::vector<double> ws =
                  reference.worker_history().Series(c);
              const std::vector<double> ts =
                  reference.task_history().Series(c);
              ASSERT_EQ(
                  static_cast<double>(predictor.last_worker_counts()[cell]),
                  ws.back())
                  << at << " cell " << c;
              ASSERT_EQ(
                  static_cast<double>(predictor.last_task_counts()[cell]),
                  ts.back())
                  << at << " cell " << c;
              for (int side = 0; side < 2; ++side) {
                const std::vector<double>& series = side == 0 ? ws : ts;
                const bool zero =
                    std::all_of(series.begin(), series.end(),
                                [](double v) { return v == 0.0; });
                char& prev = was_zero[2 * cell + static_cast<size_t>(side)];
                zero_windows += zero ? 1 : 0;
                emptied_windows += (zero && !prev) ? 1 : 0;
                prev = zero ? 1 : 0;
              }
            }

            // Epoch 3 only observes, as the last epoch of a run does.
            if (p == 3) continue;
            const Prediction got = predictor.PredictNext();
            const Prediction want = reference.PredictNext();
            ASSERT_NO_FATAL_FAILURE(ExpectSamePrediction(got, want, at));
            predicted_entities +=
                static_cast<int64_t>(got.workers.size() + got.tasks.size());
          }
        }
      }
    }
  }
  // The skip path, windows that return to zero and sampling all ran.
  EXPECT_GT(zero_windows, 0);
  EXPECT_GT(emptied_windows, 0);
  EXPECT_GT(predicted_entities, 0);
}

}  // namespace
}  // namespace mqa
