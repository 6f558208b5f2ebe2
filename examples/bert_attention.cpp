// BERT attention accuracy study: run multi-head attention with every
// softmax implementation in the repo (exact, STAR crossbar engine,
// Softermax, CMOS baseline) on score distributions from the three dataset
// profiles, and report output fidelity.
//
//   $ ./bert_attention
#include <cmath>
#include <cstdio>

#include "baseline/cmos_softmax.hpp"
#include "baseline/softermax.hpp"
#include "core/functional_attention.hpp"
#include "core/softmax_engine.hpp"
#include "nn/attention.hpp"
#include "nn/softmax_ref.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/dataset_profile.hpp"
#include "workload/trace_gen.hpp"

int main() {
  using namespace star;
  Rng rng(2024);

  // A scaled-down head (the functional path runs real crossbar searches,
  // so keep the tensor sizes moderate).
  constexpr std::size_t kSeqLen = 48;
  constexpr std::size_t kDHead = 64;

  core::StarConfig cfg;
  cfg.softmax_format = fxp::kMrpcFormat;
  const core::SoftmaxEngine star_engine(cfg);
  core::SoftmaxRunState star_run;
  core::SoftmaxEngineRowRef star(star_engine, star_run);
  baseline::SoftermaxUnit softermax(hw::TechNode::n32());
  baseline::CmosSoftmaxUnit cmos(hw::TechNode::n32());
  nn::ExactSoftmaxInto exact;

  std::printf("Attention output fidelity vs exact softmax "
              "(one head, L=%zu, d_k=%zu)\n\n", kSeqLen, kDHead);

  TablePrinter table({"softmax impl", "max |err|", "rms err", "cosine sim"});

  const auto qkv = workload::random_qkv(kSeqLen, kDHead, 2.0, rng);
  const auto ref = nn::scaled_dot_attention(qkv.q, qkv.k, qkv.v, exact);

  for (nn::RowSoftmaxInto* impl : std::initializer_list<nn::RowSoftmaxInto*>{
           &star, &softermax, &cmos}) {
    const auto out = nn::scaled_dot_attention(qkv.q, qkv.k, qkv.v, *impl);
    table.add_row({impl->name(),
                   TablePrinter::num(nn::Tensor::max_abs_diff(ref, out), 5),
                   TablePrinter::num(rms_diff(ref.flat(), out.flat()), 5),
                   TablePrinter::num(cosine_similarity(ref.flat(), out.flat()), 6)});
  }
  table.print();

  // Per-dataset softmax-row fidelity at the paper's formats.
  std::printf("\nPer-dataset softmax fidelity at the paper's operand formats:\n\n");
  TablePrinter per_ds({"dataset", "format", "rows tested", "argmax agreement",
                       "mean max|err|"});
  for (const auto& profile : workload::DatasetProfile::all()) {
    const fxp::QFormat fmt =
        fxp::make_unsigned(profile.expected_int_bits, profile.expected_frac_bits);
    core::StarConfig ds_cfg;
    ds_cfg.softmax_format = fmt;
    const core::SoftmaxEngine engine(ds_cfg);
    core::SoftmaxRunState run;
    core::SoftmaxEngineRowRef ds_star(engine, run);

    const int rows = 200;
    int agree = 0;
    double err_acc = 0.0;
    for (int r = 0; r < rows; ++r) {
      const auto row = profile.sample_row(64, rng);
      const auto p_exact = nn::softmax(row);
      const auto p_star = nn::softmax_row(ds_star, row);
      agree += (argmax(p_exact) == argmax(p_star)) ? 1 : 0;
      err_acc += max_abs_diff(p_exact, p_star);
    }
    per_ds.add_row({profile.name, fmt.name(), std::to_string(rows),
                    TablePrinter::num(100.0 * agree / rows, 1) + "%",
                    TablePrinter::num(err_acc / rows, 5)});
  }
  per_ds.print();
  std::printf("\nThe 8/9/7-bit formats hold argmax agreement near 100%% on\n"
              "their own datasets — the accuracy/efficiency balance the\n"
              "paper's Section II analysis selects.\n");

  // Full silicon datapath: score matmul, softmax AND context matmul all on
  // the hardware models (5-bit ADC crossbar matmuls + crossbar softmax).
  std::printf("\nEnd-to-end on-crossbar attention (matmuls + softmax on the "
              "engines):\n");
  const auto hw_res = core::attention_on_star(qkv.q, qkv.k, qkv.v, cfg);
  std::printf("  vs exact: max|err| %.5f, rms %.5f, cosine %.6f\n",
              nn::Tensor::max_abs_diff(ref, hw_res.output),
              rms_diff(ref.flat(), hw_res.output.flat()),
              cosine_similarity(ref.flat(), hw_res.output.flat()));
  return 0;
}
