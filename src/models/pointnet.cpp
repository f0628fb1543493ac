#include "models/pointnet.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace edgepc {

PointNetConfig
PointNetConfig::classification(std::size_t num_classes)
{
    PointNetConfig cfg;
    cfg.numClasses = num_classes;
    cfg.mlp = {64, 128, 256};
    cfg.headMlp = {128};
    cfg.segmentation = false;
    return cfg;
}

PointNetConfig
PointNetConfig::segmentationConfig(std::size_t num_classes)
{
    PointNetConfig cfg;
    cfg.numClasses = num_classes;
    cfg.mlp = {64, 128, 256};
    cfg.headMlp = {128, 64};
    cfg.segmentation = true;
    return cfg;
}

PointNet::PointNet(PointNetConfig config, std::uint64_t seed)
    : cfg(std::move(config))
{
    if (cfg.mlp.empty() || cfg.numClasses == 0) {
        // NOLINTNEXTLINE(edgepc-R1): impossible configuration, not data
        fatal("PointNet: mlp widths and numClasses are required");
    }
    Rng rng(seed);

    std::size_t in_dim = 3;
    for (std::size_t wi = 0; wi < cfg.mlp.size(); ++wi) {
        const std::size_t width = cfg.mlp[wi];
        if (wi + 1 == cfg.mlp.size()) {
            // Final stage before the global max-pool: no per-cloud
            // batch norm (see the rationale in dgcnn.cpp).
            pointMlp.add(std::make_unique<nn::Linear>(in_dim, width,
                                                      rng));
            pointMlp.add(std::make_unique<nn::LeakyReLU>());
        } else {
            pointMlp.addLinearBnRelu(in_dim, width, rng);
        }
        in_dim = width;
    }

    std::size_t head_in = cfg.segmentation
                              ? cfg.mlp.back() + cfg.mlp.back()
                              : cfg.mlp.back();
    for (const std::size_t width : cfg.headMlp) {
        head.addLinearBnRelu(head_in, width, rng);
        head_in = width;
    }
    head.add(std::make_unique<nn::Linear>(head_in, cfg.numClasses, rng));
    headFirstLinear = static_cast<nn::Linear *>(head.layerAt(0));
}

nn::Matrix
PointNet::forward(const PointCloud &cloud, const EdgePcConfig &config,
                  StageTimer *timer, bool train)
{
    // PointNet has no sample/NS stage to approximate: the config only
    // routes its GEMMs.
    if (cloud.empty()) {
        raise(ErrorCode::EmptyCloud, "PointNet::forward: empty cloud");
    }
    const std::size_t n = cloud.size();
    const nn::GemmRoute route = config.gemmRoute();
    if (train) {
        trainEngine = &route.engine;
        savedPoints = n;
    }

    StageTimer dummy;
    StageTimer &t = timer ? *timer : dummy;
    StageTimer::ScopedStage scope(t, kStageFeature);

    nn::Matrix coords(n, 3);
    for (std::size_t i = 0; i < n; ++i) {
        const Vec3 &p = cloud.position(i);
        coords.at(i, 0) = p.x;
        coords.at(i, 1) = p.y;
        coords.at(i, 2) = p.z;
    }

    const nn::Matrix point_features = pointMlp.forward(coords, route, train);
    const nn::Matrix pooled = globalPool.forward(point_features, route, train);

    if (!cfg.segmentation) {
        return head.forward(pooled, route, train);
    }
    // The head reads [local | 1 global] without building it: its first
    // Linear runs split (DESIGN.md §13).
    return head.forwardFrom(
        1,
        nn::broadcastFirstLinear(point_features, pooled,
                                 headFirstLinear->weights().value,
                                 headFirstLinear->biases().value,
                                 route.engine, train ? &headCache : nullptr),
        route, train);
}

nn::Matrix
PointNet::infer(const PointCloud &cloud, const EdgePcConfig &config,
                StageTimer *timer)
{
    return forward(cloud, config, timer, false);
}

void
PointNet::backward(const nn::Matrix &grad_logits)
{
    if (trainEngine == nullptr) {
        // NOLINTNEXTLINE(edgepc-R1): caller protocol violation, not data
        panic("PointNet::backward without forward(train=true)");
    }
    nn::Matrix grad_point_features;
    nn::Matrix grad_pooled;
    if (cfg.segmentation) {
        auto [d_local, d_global] = nn::broadcastFirstLinearBackward(
            headCache, head.backwardFrom(1, grad_logits),
            headFirstLinear->weights(), headFirstLinear->biases(),
            *trainEngine);
        grad_point_features = std::move(d_local);
        grad_pooled = std::move(d_global);
    } else {
        grad_pooled = head.backward(grad_logits);
        grad_point_features =
            nn::Matrix(savedPoints, cfg.mlp.back());
    }

    grad_point_features.add(globalPool.backward(grad_pooled));
    pointMlp.backward(grad_point_features);
}

void
PointNet::collectParameters(std::vector<nn::Parameter *> &out)
{
    pointMlp.collectParameters(out);
    head.collectParameters(out);
}

void
PointNet::collectBuffers(std::vector<std::vector<float> *> &out)
{
    pointMlp.collectBuffers(out);
    head.collectBuffers(out);
}

} // namespace edgepc
