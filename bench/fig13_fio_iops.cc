// Figure 13: fio 4 KB storage IOPS under four mechanisms (fio_rw: 16
// threads, libaio). Paper: Tai Chi -0.06%, Tai Chi-vDP ~-6%, type-2 ~-25.7%
// versus baseline.
//
// Exits 1 on a shape mismatch, with Fig. 12's bands: Tai Chi IOPS more than
// 1% from the baseline, vDP outside [-12%, -3%] of it, or type-2 outside
// [-32%, -18%]. The verdict goes to stderr, so stdout stays the figure alone.
#include "bench/common.h"

using namespace taichi;

int main(int argc, char** argv) {
  bench::PrintHeader("Figure 13", "fio 4KB IOPS across virtualization mechanisms");

  bench::JsonReport json("fig13_fio_iops", argc, argv);
  json.Config("threads", static_cast<int64_t>(16));
  json.Config("iodepth", static_cast<int64_t>(32));
  json.Config("seed", static_cast<int64_t>(42));

  struct Row {
    exp::Mode mode;
    exp::FioResult result;
  };
  std::vector<Row> rows;

  for (exp::Mode mode : {exp::Mode::kBaseline, exp::Mode::kTaiChi, exp::Mode::kTaiChiVdp,
                         exp::Mode::kType2}) {
    auto bed = bench::MakeTestbed(mode);
    bed->SpawnBackgroundCp();
    bed->sim().RunFor(sim::Millis(2));
    exp::FioConfig fcfg;
    fcfg.threads = 16;
    fcfg.iodepth = 32;  // Saturate the storage path.
    exp::FioRunner fio(bed.get(), fcfg);
    rows.push_back({mode, fio.Run(sim::Millis(80), sim::Millis(20))});
  }

  const exp::FioResult& base = rows[0].result;
  sim::Table t({"Mechanism", "IOPS", "vs base", "bw (MB/s)", "avg lat (us)"});
  for (const Row& row : rows) {
    t.AddRow({exp::ToString(row.mode), sim::Table::Num(row.result.iops, 0),
              bench::Pct(row.result.iops, base.iops),
              sim::Table::Num(row.result.bw_mbps, 1),
              sim::Table::Num(row.result.io_latency_us.mean(), 1)});
  }
  t.Print();
  std::printf("\npaper: Tai Chi ~-0.06%%, Tai Chi-vDP ~-6%%, type-2 ~-25.7%% vs baseline\n");

  // IOPS change vs baseline, in percent, per mechanism (rows[0] is baseline).
  double delta[4] = {};
  for (size_t i = 0; i < rows.size(); ++i) {
    delta[i] = (rows[i].result.iops / base.iops - 1.0) * 100.0;
    const std::string prefix = std::string(exp::ToString(rows[i].mode)) + ".";
    json.Metric(prefix + "iops", rows[i].result.iops);
    json.Metric(prefix + "iops_vs_base_pct", delta[i]);
  }
  if (!json.Write()) {
    return 1;
  }
  return bench::MechanismShapeHolds("IOPS", delta[1], delta[2], delta[3]) ? 0 : 1;
}
