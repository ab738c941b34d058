/**
 * @file
 * Catalogue of model descriptors used across the evaluation.
 *
 * gptOss120b() is the model the paper hardwires (Section 6.2); the other
 * production models parameterise the Table 4 NRE study.  Configurations
 * are assembled from the models' public architecture descriptions; where
 * an architecture does not map exactly onto our GQA descriptor (e.g.
 * MLA in DeepSeek-V3/Kimi-K2) we pick the GQA-equivalent shapes that
 * reproduce the published total parameter count, which is the quantity
 * the cost model consumes.
 */

#ifndef HNLPU_MODEL_MODEL_ZOO_HH
#define HNLPU_MODEL_MODEL_ZOO_HH

#include <vector>

#include "model/transformer_config.hh"

namespace hnlpu {

/** gpt-oss 120 B (MoE, 128 experts top-4) -- the hardwired model. */
TransformerConfig gptOss120b();

/** gpt-oss 20 B class sibling (for scalability sweeps). */
TransformerConfig gptOss20b();

/** Kimi-K2 (~1 T parameter MoE), Table 4. */
TransformerConfig kimiK2();

/** DeepSeek-V3 (671 B MoE), Table 4. */
TransformerConfig deepSeekV3();

/** QwQ-32B (dense), Table 4. */
TransformerConfig qwq32b();

/** Llama-3 8B (dense), Table 4. */
TransformerConfig llama3_8b();

/**
 * A miniature gpt-oss-like configuration that is cheap enough to
 * instantiate with real weight matrices for functional tests.
 */
TransformerConfig tinyTestModel();

/**
 * A gpt-oss-shaped block at ~1/10 linear scale: the same head and
 * expert structure as gpt-oss 120 B (GQA group of 4, top-2 of 8
 * experts), hidden 288 = 2880 / 10, one layer.  The serving and
 * throughput benches and the experiment driver's model preset run it.
 */
TransformerConfig scaledGptOssBlock();

/** All production models, gpt-oss first. */
std::vector<TransformerConfig> productionModels();

} // namespace hnlpu

#endif // HNLPU_MODEL_MODEL_ZOO_HH
