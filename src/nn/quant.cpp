#include "nn/quant.hpp"

#include <algorithm>
#include <cstring>

#include "nn/gemm.hpp"

namespace edgepc {
namespace nn {

namespace {

/** 8-byte block mixer (splitmix64 finalizer) over the weight bytes:
    ~8x faster than byte-wise FNV at identical sensitivity, which
    keeps the per-call cache-validity check negligible next to the
    GEMM it guards. */
std::uint64_t
mixBlocks(const unsigned char *bytes, std::size_t len)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ len;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        w ^= h;
        w *= 0xbf58476d1ce4e5b9ull;
        w ^= w >> 27;
        w *= 0x94d049bb133111ebull;
        h = w ^ (w >> 31);
    }
    std::uint64_t tail = 0;
    if (i < len) {
        std::memcpy(&tail, bytes + i, len - i);
        tail ^= h;
        tail *= 0xbf58476d1ce4e5b9ull;
        tail ^= tail >> 27;
        h = tail ^ (tail >> 31);
    }
    return h;
}

} // namespace

bool
resolveQuantGemm(Route route, std::size_t m, std::size_t k)
{
    switch (route) {
      case Route::On:
        return true;
      case Route::Off:
        return false;
      case Route::Auto:
        break;
    }
    return m >= kQuantMinRows && k >= kQuantMinK;
}

ActQuant
computeActQuant(const float *x, std::size_t n)
{
    if (n == 0) {
        return ActQuant{};
    }
    float lo = x[0];
    float hi = x[0];
    for (std::size_t i = 1; i < n; ++i) {
        const float v = x[i];
        lo = v < lo ? v : lo;
        hi = v > hi ? v : hi;
    }
    return actQuantFromRange(lo, hi);
}

ActQuant
actQuantFromRange(float lo, float hi)
{
    ActQuant q;
    float scale =
        (hi - lo) / static_cast<float>(kQuantActMax);
    if (!(scale > 0.0f)) {
        // Constant tensor (including all-zero): any positive scale
        // whose lattice reaches the constant works; |hi|/127 puts the
        // constant exactly on a lattice point relative to zero.
        const float mag = std::fabs(hi);
        scale = (mag > 0.0f ? mag : 1.0f) /
                static_cast<float>(kQuantActMax);
    }
    q.scale = scale;
    q.invScale = 1.0f / scale;
    std::int32_t z =
        static_cast<std::int32_t>(std::lrintf(-lo * q.invScale));
    z = z < 0 ? 0 : (z > kQuantActMax ? kQuantActMax : z);
    q.zeroPoint = z;
    return q;
}

std::uint64_t
weightContentHash(const Matrix &w)
{
    return mixBlocks(
        reinterpret_cast<const unsigned char *>(w.data()),
        w.numel() * sizeof(float));
}

std::shared_ptr<const QuantizedWeights>
buildQuantizedWeights(const Matrix &w)
{
    auto out = std::make_shared<QuantizedWeights>();
    const std::size_t k = w.rows();
    const std::size_t n = w.cols();
    out->k = k;
    out->n = n;
    out->kPadded = quantPaddedK(k);
    out->panels = (n + kQuantNR - 1) / kQuantNR;
    const std::size_t padded_n = out->panels * kQuantNR;
    out->panelData.assign(out->panels * out->kPadded * kQuantNR, 0);
    out->colScale.assign(padded_n, 0.0f);
    out->colSum.assign(padded_n, 0);
    out->contentHash = weightContentHash(w);

    const float *wd = w.data();
    std::vector<float> inv_scale(n, 0.0f);
    for (std::size_t j = 0; j < n; ++j) {
        float amax = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float v = std::fabs(wd[kk * n + j]);
            amax = v > amax ? v : amax;
        }
        if (amax > 0.0f) {
            const float s = amax / 127.0f;
            out->colScale[j] = s;
            inv_scale[j] = 1.0f / s;
        }
        // amax == 0: scale 0, every quantized weight 0 — the dequant
        // product is exactly zero for the whole channel.
    }

    // Panel-major maddubs layout: quad q of panel p holds columns
    // j0..j0+7 (bytes 0..31, kQuantKQ consecutive ks per column) then
    // j0+8..j0+15 (bytes 32..63). Zero padding beyond k and n is
    // already in place from assign().
    const std::size_t quads = out->kPadded / kQuantKQ;
    for (std::size_t p = 0; p < out->panels; ++p) {
        std::int8_t *panel = out->panelData.data() + out->panelOffset(p);
        const std::size_t j0 = p * kQuantNR;
        const std::size_t cols = std::min(kQuantNR, n - j0);
        for (std::size_t q = 0; q < quads; ++q) {
            std::int8_t *quad = panel + q * kQuantNR * kQuantKQ;
            for (std::size_t c = 0; c < cols; ++c) {
                const std::size_t j = j0 + c;
                std::int8_t *dst =
                    quad + (c < 8 ? c * kQuantKQ
                                  : 32 + (c - 8) * kQuantKQ);
                for (std::size_t t = 0; t < kQuantKQ; ++t) {
                    const std::size_t kk = q * kQuantKQ + t;
                    if (kk >= k) {
                        break;
                    }
                    std::int32_t r = static_cast<std::int32_t>(
                        std::lrintf(wd[kk * n + j] * inv_scale[j]));
                    r = r < -127 ? -127 : (r > 127 ? 127 : r);
                    dst[t] = static_cast<std::int8_t>(r);
                    out->colSum[j] += r;
                }
            }
        }
    }
    return out;
}

std::shared_ptr<const QuantizedWeights>
QuantPanelCache::get(const Matrix &weight)
{
    const std::uint64_t hash = weightContentHash(weight);
    {
        MutexLock lock(mu);
        if (cached && cached->contentHash == hash &&
            cached->k == weight.rows() && cached->n == weight.cols()) {
            return cached;
        }
    }
    // Build outside the lock: concurrent first-touch builds race to
    // publish (last write wins, both results are identical) rather
    // than serializing every reader behind the quantization pass.
    auto built = buildQuantizedWeights(weight);
    MutexLock lock(mu);
    cached = built;
    ++rebuildCount;
    return built;
}

std::uint64_t
QuantPanelCache::rebuilds() const
{
    MutexLock lock(mu);
    return rebuildCount;
}

void
quantizedGemmRef(const float *a, std::size_t m, const ActQuant &aq,
                 const QuantizedWeights &wq, float *c,
                 GemmEpilogue epilogue, const float *bias)
{
    const std::size_t k = wq.k;
    const std::size_t n = wq.n;
    const bool with_bias = epilogue != GemmEpilogue::None;
    const bool relu = epilogue == GemmEpilogue::BiasRelu;
    std::vector<std::uint8_t> aqv(m * k);
    for (std::size_t i = 0; i < m * k; ++i) {
        aqv[i] = quantizeAct(a[i], aq);
    }
    // Read the quantized weights back out of the panel layout so the
    // reference exercises exactly the bytes the kernels consume.
    std::vector<std::int8_t> wqv(k * n, 0);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t p = j / kQuantNR;
        const std::size_t col = j % kQuantNR;
        const std::int8_t *panel =
            wq.panelData.data() + wq.panelOffset(p);
        for (std::size_t kk = 0; kk < k; ++kk) {
            const std::size_t q = kk / kQuantKQ;
            const std::size_t t = kk % kQuantKQ;
            wqv[kk * n + j] =
                panel[q * kQuantNR * kQuantKQ +
                      (col < 8 ? col * kQuantKQ
                               : 32 + (col - 8) * kQuantKQ) +
                      t];
        }
    }
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<std::int32_t>(aqv[i * k + kk]) *
                       static_cast<std::int32_t>(wqv[kk * n + j]);
            }
            // The kernels' exact float op order: combined scale (one
            // mul), integer zero-point correction, convert, mul, add
            // bias, relu. quant.cpp and gemm.cpp are both built with
            // -ffp-contract=off so no step fuses.
            const float combined = aq.scale * wq.colScale[j];
            const std::int32_t corr = aq.zeroPoint * wq.colSum[j];
            float v = combined * static_cast<float>(acc - corr);
            if (with_bias) {
                v = v + bias[j];
            }
            if (relu) {
                v = v > 0.0f ? v : 0.0f;
            }
            c[i * n + j] = v;
        }
    }
}

} // namespace nn
} // namespace edgepc
