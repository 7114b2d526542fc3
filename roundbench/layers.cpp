#include "roundbench/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <thread>

#include "src/comm/compression.hpp"
#include "src/comm/crc32.hpp"
#include "src/comm/message.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/core/detector.hpp"
#include "src/core/fedcav.hpp"
#include "src/data/partition.hpp"
#include "src/data/synthetic.hpp"
#include "src/metrics/evaluation.hpp"
#include "src/nn/activation.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/dense.hpp"
#include "src/nn/flatten.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/pool2d.hpp"
#include "src/nn/replica_pool.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/nn/zoo.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/parallel.hpp"
#include "src/utils/error.hpp"

namespace roundbench {

using namespace fedcav;

namespace {

constexpr std::size_t kBatch = 10;
const SpanLog kNoSpans(false);

enum Direction : std::size_t { kFwd = 0, kDw, kDx, kDirections };
constexpr const char* kDirectionName[kDirections] = {"fwd", "dw", "dx"};

struct GemmSite {
  std::size_t m, n, k;
};

/// A copy of one zoo model built layer by layer, so each top-level
/// layer can be timed on its own. measure_model() copies the zoo model's
/// weights into it and checks that both compute the same logits.
/// `sites` lists the im2col-lowered GEMM shapes of every weighted layer
/// at batch kBatch, per direction.
struct Mirror {
  std::unique_ptr<nn::Model> model;  // owns the Sequential below
  nn::Sequential* net = nullptr;
  std::vector<std::string> labels;   // "L<i>_<Layer>"
  std::vector<GemmSite> sites[kDirections];

  void add(const char* kind, std::unique_ptr<nn::Layer> layer) {
    labels.push_back("L" + std::to_string(net->size()) + "_" + kind);
    net->add(std::move(layer));
  }
  void conv_sites(std::size_t cin, std::size_t cout, std::size_t kernel,
                  std::size_t stride, std::size_t pad, std::size_t h) {
    const std::size_t out = (h + 2 * pad - kernel) / stride + 1;
    const std::size_t cols = kBatch * out * out;
    const std::size_t rows = cin * kernel * kernel;
    sites[kFwd].push_back({cout, cols, rows});
    sites[kDw].push_back({cout, rows, cols});
    sites[kDx].push_back({rows, cols, cout});
  }
  void conv(std::size_t cin, std::size_t cout, std::size_t kernel, std::size_t stride,
            std::size_t pad, std::size_t h, Rng& rng) {
    add("Conv2D", std::make_unique<nn::Conv2D>(cin, cout, kernel, stride, pad, h, h, rng));
    conv_sites(cin, cout, kernel, stride, pad, h);
  }
  void dense(std::size_t in, std::size_t out, Rng& rng) {
    add("Dense", std::make_unique<nn::Dense>(in, out, rng));
    sites[kFwd].push_back({kBatch, out, in});
    sites[kDw].push_back({out, in, kBatch});
    sites[kDx].push_back({kBatch, in, out});
  }
  void residual(std::size_t cin, std::size_t cout, std::size_t stride, std::size_t h,
                Rng& rng) {
    add("ResidualBlock",
        std::make_unique<nn::ResidualBlock>(cin, cout, stride, h, h, rng));
    conv_sites(cin, cout, 3, stride, 1, h);
    conv_sites(cout, cout, 3, 1, 1, (h + 2 - 3) / stride + 1);
    if (stride != 1 || cin != cout) conv_sites(cin, cout, 1, stride, 0, h);
  }
};

/// Layer lists of src/nn/zoo.cpp.
Mirror build_mirror(const std::string& model) {
  Mirror m;
  auto net = std::make_unique<nn::Sequential>();
  m.net = net.get();
  Rng rng(1);
  if (model == "lenet5") {
    m.conv(1, 6, 5, 1, 2, 14, rng);
    m.add("ReLU", std::make_unique<nn::ReLU>());
    m.add("MaxPool2D", std::make_unique<nn::MaxPool2D>(2, 2));
    m.conv(6, 16, 5, 1, 0, 7, rng);
    m.add("ReLU", std::make_unique<nn::ReLU>());
    m.add("Flatten", std::make_unique<nn::Flatten>());
    m.dense(16 * 3 * 3, 64, rng);
    m.add("ReLU", std::make_unique<nn::ReLU>());
    m.dense(64, nn::kNumClasses, rng);
  } else if (model == "resnet") {
    m.conv(3, 8, 3, 1, 1, 16, rng);
    m.add("ReLU", std::make_unique<nn::ReLU>());
    m.residual(8, 8, 1, 16, rng);
    m.residual(8, 16, 2, 16, rng);
    m.residual(16, 32, 2, 8, rng);
    m.add("GlobalAvgPool", std::make_unique<nn::GlobalAvgPool>());
    m.dense(32, nn::kNumClasses, rng);
  } else if (model == "mlp") {
    m.add("Flatten", std::make_unique<nn::Flatten>());
    m.dense(nn::kGraySide * nn::kGraySide, 32, rng);
    m.add("ReLU", std::make_unique<nn::ReLU>());
    m.dense(32, nn::kNumClasses, rng);
  } else {
    throw Error("roundbench: no mirror for model " + model);
  }
  m.model = std::make_unique<nn::Model>(
      std::move(net), std::make_unique<nn::SoftmaxCrossEntropy>(), model + "-mirror");
  return m;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

std::string dataset_of(const std::string& model) {
  return model == "resnet" ? "cifar" : "digits";
}

/// One batch of kBatch samples (one per class) of the model's dataset.
Tensor sample_batch(const std::string& model, std::vector<std::size_t>& labels) {
  const data::SynthGenerator gen(data::synth_config_by_name(dataset_of(model), 1));
  Rng rng(2);
  const data::Dataset d = gen.generate_balanced(kBatch / nn::kNumClasses, rng);
  std::vector<std::size_t> idx(d.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return d.make_batch(idx, &labels);
}

void measure_model(const std::string& name, Runner& runner, const SpanLog& spans,
                   Report& report) {
  const std::string prefix = "nn." + name + ".";
  Rng zoo_rng(1);
  std::unique_ptr<nn::Model> zoo = nn::model_builder(name)(zoo_rng);
  Mirror mirror = build_mirror(name);
  std::vector<std::size_t> labels;
  const Tensor x = sample_batch(name, labels);

  report.check(mirror.model->num_params() == zoo->num_params(),
               name + ": mirror parameter count differs from the zoo model");
  if (mirror.model->num_params() != zoo->num_params()) return;
  mirror.model->set_weights(zoo->get_weights());
  report.check(same_bits(mirror.model->predict(x), zoo->predict(x)),
               name + ": mirror logits differ from the zoo model");

  nn::SgdConfig sgd_config;
  sgd_config.lr = 0.01f;

  // Per-layer split: one train step at a time, each call timed alone.
  // Each split step is followed by one whole step on the zoo model
  // through the public Model API, so both see the same host: timed in two
  // separate stretches, a host that changed speed in between moved the
  // ratio of the two by 28%.
  const std::size_t layers = mirror.net->size();
  std::vector<std::vector<double>> fwd(layers), bwd(layers);
  std::vector<double> loss_t, sgd_t, step;
  {
    nn::Sgd sgd(sgd_config);
    nn::Sgd zoo_sgd(sgd_config);
    nn::Model& model = *mirror.model;
    model.zero_grad();
    zoo->zero_grad();
    const double begin = now_s();
    for (std::size_t it = 0; it < 3000 && (it < 105 || now_s() - begin < 0.6); ++it) {
      const bool keep = it >= 5;  // first steps grow the workspaces
      const SpanLog& step_spans = it < 5 + kSpansPerMetric ? spans : kNoSpans;
      const Tensor* a = &x;
      for (std::size_t i = 0; i < layers; ++i) {
        const std::uint64_t s = step_spans.start();
        const double t0 = now_s();
        a = &mirror.net->layer(i).forward(*a, /*training=*/true);
        if (keep) fwd[i].push_back(now_s() - t0);
        step_spans.record(prefix + mirror.labels[i] + ".fwd", s);
      }
      double t0 = now_s();
      model.loss().forward(*a, labels);
      const Tensor* g = &model.loss().backward();
      if (keep) loss_t.push_back(now_s() - t0);
      for (std::size_t i = layers; i-- > 0;) {
        const std::uint64_t s = step_spans.start();
        t0 = now_s();
        g = &mirror.net->layer(i).backward(*g);
        if (keep) bwd[i].push_back(now_s() - t0);
        step_spans.record(prefix + mirror.labels[i] + ".bwd", s);
      }
      t0 = now_s();
      sgd.step(model);
      if (keep) sgd_t.push_back(now_s() - t0);

      const std::uint64_t s = step_spans.start();
      t0 = now_s();
      zoo->forward_backward(x, labels);
      zoo_sgd.step(*zoo);
      if (keep) step.push_back(now_s() - t0);
      step_spans.record(prefix + "step", s);
    }
  }
  double layer_sum = median(loss_t) + median(sgd_t);
  for (std::size_t i = 0; i < layers; ++i) {
    const double f = median(fwd[i]);
    const double b = median(bwd[i]);
    layer_sum += f + b;
    report.add_timing(prefix + mirror.labels[i] + ".fwd_us", "us", 1e6, fwd[i]);
    report.add_timing(prefix + mirror.labels[i] + ".bwd_us", "us", 1e6, bwd[i]);
  }

  // The whole step again with a 4-thread kernel pool.
  ops::set_kernel_pool(&runner.pool());
  nn::Sgd sgd(sgd_config);
  const std::vector<double> step_t4 = time_calls(
      spans, prefix + "step.t4",
      [&] {
        zoo->forward_backward(x, labels);
        sgd.step(*zoo);
      },
      100, 0.3, 3000);
  ops::set_kernel_pool(nullptr);
  report.add_timing(prefix + "step_us", "us", 1e6, step);
  report.add_timing(prefix + "step_us.t4", "us", 1e6, step_t4);

  const double ratio = layer_sum / median(step);
  report.add(prefix + "layer_sum_ratio", "ratio", ratio);
  report.check(std::abs(ratio - 1.0) <= kLayerSumTolerance,
               name + ": per-layer sum / step = " + std::to_string(ratio) +
                   " is outside 1 +- " + std::to_string(kLayerSumTolerance));

  // GEMM at each lowered site shape, aggregated per direction.
  Rng rng(3);
  for (std::size_t d = 0; d < kDirections; ++d) {
    double flops = 0.0;
    double seconds = 0.0;
    for (const GemmSite& s : mirror.sites[d]) {
      const Tensor a = Tensor::uniform(Shape::of(s.m, s.k), rng, -1.0f, 1.0f);
      const Tensor b = Tensor::uniform(Shape::of(s.k, s.n), rng, -1.0f, 1.0f);
      Tensor c = Tensor::zeros(Shape::of(s.m, s.n));
      seconds += median(time_calls(
          spans, "tensor.gemm." + name + "." + kDirectionName[d],
          [&] {
            ops::gemm(ops::Trans::kNo, ops::Trans::kNo, s.m, s.n, s.k, a.data(), s.k,
                      b.data(), s.n, 0.0f, c.data(), s.n);
          },
          30, 0.01, 5000));
      flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
    }
    report.add("tensor.gemm." + name + "." + kDirectionName[d] + "_gflops", "GFLOP/s",
               flops / seconds / 1e9);
  }
}

/// Model-size Envelope ping-pong over a loopback TcpTransport pair.
void measure_tcp(const ByteBuffer& payload, const SpanLog& spans, Report& report) {
  const comm::Envelope env{comm::MessageType::kGlobalModel, payload};
  comm::StreamTransportConfig cfg;
  cfg.auth_token = "roundbench-pair";
  constexpr std::size_t kPairs = 5;
  constexpr std::size_t kPings = 200;
  std::vector<double> handshakes;
  std::vector<double> roundtrips;
  bool echo_ok = true;
  for (std::size_t pair = 0; pair < kPairs; ++pair) {
    const std::string address = "127.0.0.1:" + std::to_string(free_loopback_port());
    std::exception_ptr worker_error;
    std::unique_ptr<comm::TcpTransport> daemon;
    // The worker echoes every frame until the daemon closes the pair.
    std::thread worker([&] {
      try {
        auto t = comm::TcpTransport::connect(address, comm::kAnyRank, cfg);
        for (std::size_t i = 0; i < kPings + 1; ++i) {
          std::optional<ByteBuffer> wire;
          while (!(wire = t->try_recv_wire(1, 0)).has_value()) {
            FEDCAV_REQUIRE(!t->peer_closed(0), "roundbench: tcp pair closed early");
            t->poll(0.05);
          }
          t->send(1, 0, comm::Envelope::decode(*wire));
        }
      } catch (...) {
        worker_error = std::current_exception();
      }
    });
    try {
      const std::uint64_t s = spans.start();
      const double t0 = now_s();
      daemon = comm::TcpTransport::serve(address, 1, cfg);
      handshakes.push_back(now_s() - t0);
      spans.record("comm.tcp.handshake", s);
      for (std::size_t i = 0; i < kPings + 1; ++i) {
        const std::uint64_t ps = spans.start();
        const double p0 = now_s();
        daemon->send(0, 1, env);
        std::optional<ByteBuffer> wire;
        while (!(wire = daemon->try_recv_wire(0, 1)).has_value()) {
          FEDCAV_REQUIRE(!daemon->peer_closed(1), "roundbench: tcp echo closed early");
          daemon->poll(0.05);
        }
        if (i > 0) roundtrips.push_back(now_s() - p0);  // first one warms up
        spans.record("comm.tcp.roundtrip", ps);
        echo_ok = echo_ok && comm::Envelope::decode(*wire).payload == payload;
      }
    } catch (...) {
      daemon.reset();
      worker.join();
      throw;
    }
    daemon.reset();
    worker.join();
    if (worker_error) std::rethrow_exception(worker_error);
  }
  report.check(echo_ok, "comm.tcp: echoed envelope differs from the one sent");
  report.add_timing("comm.tcp.handshake_ms", "ms", 1e3, handshakes);
  report.add_timing("comm.tcp.roundtrip_us", "us", 1e6, roundtrips);
}

}  // namespace

void measure_models(Runner& runner, const SpanLog& spans, Report& report) {
  for (const char* model : {"lenet5", "resnet", "mlp"}) {
    measure_model(model, runner, spans, report);
  }
}

void measure_workload_layers(const Workload& w, std::uint64_t seed,
                             std::size_t cohort, Runner& runner,
                             const SpanLog& spans, Report& report) {
  const fl::SimulationConfig config = make_config(w, seed);
  // `metric` ends in _ms or _us; its span is the name without the unit.
  auto timed = [&](const std::string& metric, const std::function<void()>& fn,
                   std::size_t min_iters, double min_seconds, std::size_t max_iters) {
    const std::string unit = metric.substr(metric.size() - 2);
    const std::string span = metric.substr(0, metric.size() - 3);
    report.add_timing(metric, unit, unit == "ms" ? 1e3 : 1e6,
                      time_calls(spans, span, fn, min_iters, min_seconds, max_iters));
  };

  // data: corpus generation and partitioning at the workload's sizes.
  data::Dataset train;
  timed("data.synthesize_ms", [&] {
    const data::SynthGenerator gen(data::synth_config_by_name(config.dataset, seed));
    Rng rng(seed);
    train = gen.generate_balanced(config.train_samples_per_class, rng);
  }, 5, 0.2, 200);
  timed("data.partition_ms", [&] { (void)data::make_partition(train, config.partition); },
        5, 0.2, 200);

  fl::Simulation sim = fl::build_simulation(config);
  const nn::Weights global = sim.server->global_weights();
  Rng model_rng(seed);
  std::unique_ptr<nn::Model> replica = nn::model_builder(config.model)(model_rng);

  // fl.client: one replica, the median-sized client, the round's E/B/η.
  std::vector<std::size_t> by_size(sim.server->num_clients());
  for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    return sim.server->client_at(a).num_samples() < sim.server->client_at(b).num_samples();
  });
  fl::Client& client = sim.server->client_at(by_size[by_size.size() / 2]);
  const fl::LocalTrainConfig local = sim.server->effective_local();
  double f_i = 0.0;
  timed("fl.client.inference_loss_ms",
        [&] { f_i = client.compute_inference_loss(*replica, global); }, 20, 0.1, 2000);
  timed("fl.client.train_update_ms",
        [&] { (void)client.train_update(*replica, global, local, f_i); }, 10, 0.2, 2000);

  // metrics: the server's sharded evaluation over the test set.
  nn::ReplicaPool replicas(*replica, runner.pool().size() + 1);
  timed("metrics.evaluate_ms", [&] {
    (void)metrics::evaluate(replicas, global, sim.test, runner.pool(),
                            config.server.eval_batch_size);
  }, 10, 0.2, 2000);

  // core: one FedCav aggregation of the round's cohort, and the detector.
  std::vector<fl::ClientUpdate> metadata(cohort);
  std::vector<double> losses(cohort);
  Rng noise(seed ^ 0x5eed);
  for (std::size_t i = 0; i < cohort; ++i) {
    metadata[i].client_id = i;
    metadata[i].num_samples = 1 + i % 7;
    metadata[i].inference_loss = 0.5 + noise.uniform();
    losses[i] = metadata[i].inference_loss;
  }
  std::vector<fl::ClientUpdate> full(cohort);
  for (std::size_t i = 0; i < cohort; ++i) {
    full[i] = metadata[i];
    full[i].weights = global;
    for (float& v : full[i].weights) v += 0.01f * noise.uniform_f(-1.0f, 1.0f);
  }
  std::vector<double> agg;
  for (std::size_t it = 0; it < 12; ++it) {
    std::vector<fl::ClientUpdate> batch = full;  // accumulate() consumes them
    core::FedCavStrategy fedcav;
    const std::uint64_t s = spans.start();
    const double t0 = now_s();
    fedcav.begin_aggregation(global, metadata);
    for (fl::ClientUpdate& u : batch) fedcav.accumulate(std::move(u));
    (void)fedcav.finish_aggregation();
    if (it >= 2) agg.push_back(now_s() - t0);
    spans.record("core.fedcav.aggregate", s);
  }
  report.add_timing("core.fedcav.aggregate_ms", "ms", 1e3, agg);
  core::AnomalyDetector detector;
  detector.commit(losses);
  timed("core.detector.check_us", [&] { (void)detector.check(losses); }, 200, 0.05, 100000);

  // comm: the model message codec, CRC, int8 quantizer and a TCP pair.
  comm::GlobalModelMsg msg;
  msg.round = 1;
  msg.weights = global;
  ByteBuffer wire;
  timed("comm.envelope.encode_us", [&] {
    wire = comm::Envelope{comm::MessageType::kGlobalModel, msg.encode()}.encode();
  }, 50, 0.05, 100000);
  bool decode_ok = true;
  timed("comm.envelope.decode_us", [&] {
    const comm::Envelope env = comm::Envelope::decode(wire);
    ByteReader reader(env.payload);
    decode_ok = decode_ok && comm::GlobalModelMsg::decode(reader).weights == global;
  }, 50, 0.05, 100000);
  report.check(decode_ok, "comm.envelope: decoded model differs from the encoded one");
  std::uint32_t crc = 0;
  const double crc_s = median(time_calls(
      spans, "comm.crc32", [&] { crc ^= comm::crc32(wire); }, 50, 0.05, 100000));
  report.add("comm.crc32_MBps", "MB/s", static_cast<double>(wire.size()) / crc_s / 1e6);

  std::vector<float> delta(global.size());
  for (float& v : delta) v = 0.01f * noise.uniform_f(-1.0f, 1.0f);
  comm::QuantizedDelta q;
  timed("comm.quantize_ms", [&] { q = comm::quantize(delta, comm::QuantMode::kInt8, 0.25); },
        20, 0.05, 100000);
  std::vector<float> y(global.size(), 0.0f);
  timed("comm.dequantize_add_ms", [&] { comm::dequantize_add(y, q); }, 20, 0.05, 100000);
  measure_tcp(msg.encode(), spans, report);
}

}  // namespace roundbench
