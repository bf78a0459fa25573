#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "workload/gemm.h"
#include "workload/model.h"

namespace simphony::workload {
namespace {

TEST(Layer, Conv2dGeometry) {
  util::Rng rng(1);
  const Layer conv = make_conv2d("c", 3, 64, 3, 32, 32, rng);
  EXPECT_EQ(conv.out_height(), 32);  // same padding, stride 1
  EXPECT_EQ(conv.out_width(), 32);
  EXPECT_EQ(conv.macs(), 1024LL * 64 * 27);
  EXPECT_EQ(conv.weight_count(), 64LL * 27);
  EXPECT_EQ(conv.weights.numel(), conv.weight_count());
}

TEST(Layer, StridedConv) {
  util::Rng rng(1);
  const Layer conv = make_conv2d("c", 8, 8, 3, 32, 32, rng, /*stride=*/2);
  EXPECT_EQ(conv.out_height(), 16);
}

TEST(Layer, LinearGeometry) {
  util::Rng rng(1);
  const Layer fc = make_linear("fc", 4096, 512, rng);
  EXPECT_EQ(fc.macs(), 4096LL * 512);
  EXPECT_EQ(fc.weight_count(), 4096LL * 512);
}

TEST(Layer, WeightsNormalizedForEncoding) {
  util::Rng rng(1);
  const Layer fc = make_linear("fc", 128, 64, rng);
  EXPECT_NEAR(fc.weights.abs_max(), 1.0f, 1e-6);
}

TEST(Layer, MatMulIsDynamic) {
  const Layer qk = make_matmul("qk", LayerType::kMatMulQK, 197, 64, 197, 12);
  EXPECT_TRUE(qk.b_is_dynamic());
  EXPECT_EQ(qk.macs(), 197LL * 64 * 197 * 12);
  EXPECT_EQ(qk.weight_count(), 0);
  util::Rng rng(1);
  EXPECT_FALSE(make_linear("fc", 8, 8, rng).b_is_dynamic());
}

TEST(Layer, FactoryValidation) {
  util::Rng rng(1);
  EXPECT_THROW(make_conv2d("c", 0, 8, 3, 8, 8, rng), std::invalid_argument);
  EXPECT_THROW(make_linear("l", 8, 0, rng), std::invalid_argument);
  EXPECT_THROW(make_matmul("m", LayerType::kLinear, 1, 1, 1, 1),
               std::invalid_argument);
}

TEST(Model, Vgg8Structure) {
  const Model m = vgg8_cifar10();
  ASSERT_EQ(m.layers.size(), 8u);  // 6 conv + 2 fc
  EXPECT_EQ(m.layers[0].type, LayerType::kConv2d);
  EXPECT_EQ(m.layers[6].type, LayerType::kLinear);
  EXPECT_EQ(m.layers[6].in_features, 4096);
  EXPECT_EQ(m.layers[7].out_features, 10);
  EXPECT_GT(m.total_macs(), 100'000'000);  // ~hundreds of MMACs
  EXPECT_GT(m.total_weights(), 2'000'000);
}

TEST(Model, Vgg8PruningAppliesToAllLayers) {
  const Model m = vgg8_cifar10(42, 0.3);
  for (const auto& layer : m.layers) {
    EXPECT_NEAR(layer.weights.sparsity(), 0.3, 0.05) << layer.name;
    EXPECT_DOUBLE_EQ(layer.prune_ratio, 0.3);
  }
}

TEST(Model, BertBaseStructure) {
  const Model m = bert_base_image224();
  ASSERT_EQ(m.layers.size(), 96u);  // 12 layers x 8 gemms
  // Exact GEMM MACs for seq 197:
  // 12 * (4 proj * 197*768^2 + 2 attn * 12*197^2*64 + 2 FFN * 197*768*3072)
  // = 17.447 GMACs.
  EXPECT_NEAR(static_cast<double>(m.total_macs()) / 1e9, 17.447, 0.01);
  // Linear layers carry the sequence length.
  EXPECT_EQ(m.layers[0].mm_m, 197);
}

/// Compares `model`'s weights with a rebuild that draws each layer from
/// std::mt19937_64 through a fresh std::normal_distribution (what
/// util::Rng mirrors), then normalizes and prunes as model_from_spec does.
void expect_std_weights(const Model& model, double prune_ratio,
                        const std::string& what) {
  std::mt19937_64 engine(42);
  for (const Layer& layer : model.layers) {
    if (layer.weights.numel() == 0) continue;
    const double stddev =
        layer.type == LayerType::kConv2d
            ? std::sqrt(2.0 / (static_cast<double>(layer.in_channels) *
                               layer.kernel * layer.kernel))
            : std::sqrt(2.0 / static_cast<double>(layer.in_features));
    std::normal_distribution<double> normal(0.0, stddev);
    Tensor want(layer.weights.shape());
    for (float& v : want.data()) v = static_cast<float>(normal(engine));
    want.normalize_to(1.0f);
    want.prune_smallest(prune_ratio);
    ASSERT_EQ(std::memcmp(layer.weights.data().data(), want.data().data(),
                          want.data().size() * sizeof(float)),
              0)
        << what << " " << layer.name << " differs from the std draw";
  }
}

TEST(Model, WeightsMatchStdOnlySynthesis) {
  for (const std::string spec : {"vgg8", "resnet20", "mlp", "gemm:64x32x64"}) {
    expect_std_weights(model_from_spec(spec), 0.0, spec);
  }
  expect_std_weights(vgg8_cifar10(42, 0.5), 0.5, "vgg8 pruned 0.5");
}

TEST(Gemm, ConvLowersViaIm2col) {
  util::Rng rng(1);
  const Layer conv = make_conv2d("c", 64, 128, 3, 16, 16, rng);
  const GemmWorkload g = gemm_of_layer(conv);
  EXPECT_EQ(g.n, 256);        // 16x16 output pixels
  EXPECT_EQ(g.d, 64 * 9);     // patch
  EXPECT_EQ(g.m, 128);        // output channels
  EXPECT_EQ(g.macs(), conv.macs());
  EXPECT_FALSE(g.b_dynamic);
  EXPECT_NE(g.weights, nullptr);
}

TEST(Gemm, AttentionLowersToBatchedDynamicGemm) {
  const Layer qk = make_matmul("qk", LayerType::kMatMulQK, 197, 64, 197, 12);
  const GemmWorkload g = gemm_of_layer(qk);
  EXPECT_EQ(g.batch, 12);
  EXPECT_TRUE(g.b_dynamic);
  EXPECT_EQ(g.weights, nullptr);
  EXPECT_EQ(g.macs(), qk.macs());
}

TEST(Gemm, ByteSizesFollowBitwidths) {
  util::Rng rng(1);
  Layer fc = make_linear("fc", 100, 50, rng);
  fc.input_bits = 4;
  fc.weight_bits = 4;
  fc.output_bits = 8;
  fc.mm_m = 10;
  const GemmWorkload g = gemm_of_layer(fc);
  EXPECT_DOUBLE_EQ(g.bytes_a(), 10 * 100 * 0.5);
  EXPECT_DOUBLE_EQ(g.bytes_b(), 100 * 50 * 0.5);
  EXPECT_DOUBLE_EQ(g.bytes_out(), 10 * 50 * 1.0);
}

TEST(Gemm, ExtractWholeModelPreservesOrderAndMacs) {
  const Model m = vgg8_cifar10();
  const auto gemms = extract_gemms(m);
  ASSERT_EQ(gemms.size(), m.layers.size());
  int64_t macs = 0;
  for (const auto& g : gemms) macs += g.macs();
  EXPECT_EQ(macs, m.total_macs());
  EXPECT_EQ(gemms.front().name, "conv1");
  EXPECT_EQ(gemms.back().name, "fc2");
}

}  // namespace
}  // namespace simphony::workload
