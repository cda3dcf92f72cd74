// Figure 15: MySQL performance (192 sysbench threads) with and without
// Tai Chi. Paper: 1.56% average overhead, peaking at 1.63% (avg query
// throughput).
//
// Exits 1 on a shape mismatch: average or peak overhead across the four
// throughput rows at or above 2%. The verdict goes to stderr, so stdout
// stays the figure alone.
#include "bench/common.h"
#include "src/apps/mysql_sim.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 15", "MySQL (sysbench, 192 threads): Tai Chi vs baseline");
  bench::JsonReport json("fig15_mysql", argc, argv);
  json.Config("threads", static_cast<int64_t>(apps::MysqlConfig{}.threads));
  json.Config("seed", static_cast<int64_t>(42));

  auto run = [](exp::Mode mode) {
    auto bed = bench::MakeTestbed(mode, 42, bench::CpPressure);
    bed->SpawnBackgroundCp();
    bed->sim().RunFor(sim::Millis(2));
    apps::MysqlSim mysql(bed.get(), apps::MysqlConfig{});
    return mysql.Run(sim::Millis(200), sim::Millis(50));
  };
  apps::MysqlResult base = run(exp::Mode::kBaseline);
  apps::MysqlResult taichi = run(exp::Mode::kTaiChi);

  sim::Table t({"Metric", "Baseline", "Tai Chi", "Overhead"});
  double sum = 0;
  double worst = 0;
  int rows = 0;
  auto row = [&](const char* name, double b, double v) {
    const double overhead = (1.0 - v / b) * 100.0;
    sum += overhead;
    worst = std::max(worst, overhead);
    ++rows;
    t.AddRow({name, sim::Table::Num(b, 0), sim::Table::Num(v, 0),
              sim::Table::Num(overhead, 2) + "%"});
  };
  row("avg_query (qps)", base.avg_qps, taichi.avg_qps);
  row("max_query (qps)", base.max_qps, taichi.max_qps);
  row("avg_trans (tps)", base.avg_tps, taichi.avg_tps);
  row("max_trans (tps)", base.max_tps, taichi.max_tps);
  t.Print();
  std::printf("\nquery latency: baseline %.1f us, taichi %.1f us\n",
              base.query_latency_us.mean(), taichi.query_latency_us.mean());
  std::printf("paper: 1.56%% average overhead (peak 1.63%%)\n");
  const double average = sum / rows;
  json.Metric("baseline.avg_qps", base.avg_qps);
  json.Metric("baseline.max_qps", base.max_qps);
  json.Metric("taichi.avg_qps", taichi.avg_qps);
  json.Metric("taichi.max_qps", taichi.max_qps);
  json.Metric("baseline.query_latency_us", base.query_latency_us);
  json.Metric("taichi.query_latency_us", taichi.query_latency_us);
  json.Metric("throughput_overhead.avg_pct", average);
  json.Metric("throughput_overhead.peak_pct", worst);
  if (!json.Write()) {
    return 1;
  }
  return bench::OverheadShapeHolds(average, worst) ? 0 : 1;
}
