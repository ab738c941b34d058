#include "model/model_zoo.hh"

namespace hnlpu {

TransformerConfig
gptOss120b()
{
    TransformerConfig cfg;
    cfg.name = "gpt-oss-120b";
    cfg.hiddenSize = 2880;
    cfg.layerCount = 36;
    cfg.queryHeads = 64;
    cfg.kvHeads = 8;
    cfg.headDim = 64;
    cfg.vocabSize = 201088;
    cfg.expertCount = 128;
    cfg.activeExperts = 4;
    cfg.expertHidden = 2880;
    cfg.weightBits = 4;
    cfg.slidingWindow = 128;
    cfg.slidingLayerFraction = 0.5;
    cfg.validate();
    return cfg;
}

TransformerConfig
gptOss20b()
{
    TransformerConfig cfg;
    cfg.name = "gpt-oss-20b";
    cfg.hiddenSize = 2880;
    cfg.layerCount = 24;
    cfg.queryHeads = 64;
    cfg.kvHeads = 8;
    cfg.headDim = 64;
    cfg.vocabSize = 201088;
    cfg.expertCount = 32;
    cfg.activeExperts = 4;
    cfg.expertHidden = 2880;
    cfg.weightBits = 4;
    cfg.slidingWindow = 128;
    cfg.slidingLayerFraction = 0.5;
    cfg.validate();
    return cfg;
}

TransformerConfig
kimiK2()
{
    TransformerConfig cfg;
    cfg.name = "kimi-k2";
    cfg.hiddenSize = 7168;
    cfg.layerCount = 61;
    cfg.queryHeads = 64;
    cfg.kvHeads = 8;
    cfg.headDim = 128;
    cfg.vocabSize = 163840;
    cfg.expertCount = 384;
    cfg.activeExperts = 8;
    cfg.expertHidden = 2048;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

TransformerConfig
deepSeekV3()
{
    TransformerConfig cfg;
    cfg.name = "deepseek-v3";
    cfg.hiddenSize = 7168;
    cfg.layerCount = 61;
    cfg.queryHeads = 128;
    cfg.kvHeads = 16;
    cfg.headDim = 128;
    cfg.vocabSize = 129280;
    cfg.expertCount = 249; // 248 routed (GQA-equivalent) + 1 shared
    cfg.activeExperts = 9;
    cfg.expertHidden = 2048;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

TransformerConfig
qwq32b()
{
    TransformerConfig cfg;
    cfg.name = "qwq-32b";
    cfg.hiddenSize = 5120;
    cfg.layerCount = 64;
    cfg.queryHeads = 40;
    cfg.kvHeads = 8;
    cfg.headDim = 128;
    cfg.vocabSize = 152064;
    cfg.expertCount = 1;
    cfg.activeExperts = 1;
    cfg.expertHidden = 27648;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

TransformerConfig
llama3_8b()
{
    TransformerConfig cfg;
    cfg.name = "llama-3-8b";
    cfg.hiddenSize = 4096;
    cfg.layerCount = 32;
    cfg.queryHeads = 32;
    cfg.kvHeads = 8;
    cfg.headDim = 128;
    cfg.vocabSize = 128256;
    cfg.expertCount = 1;
    cfg.activeExperts = 1;
    cfg.expertHidden = 14336;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

TransformerConfig
tinyTestModel()
{
    TransformerConfig cfg;
    cfg.name = "tiny-test";
    cfg.hiddenSize = 32;
    cfg.layerCount = 2;
    cfg.queryHeads = 4;
    cfg.kvHeads = 2;
    cfg.headDim = 8;
    cfg.vocabSize = 64;
    cfg.expertCount = 4;
    cfg.activeExperts = 2;
    cfg.expertHidden = 48;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

TransformerConfig
scaledGptOssBlock()
{
    TransformerConfig cfg;
    cfg.name = "gpt-oss-scaled-block";
    cfg.hiddenSize = 288;
    cfg.layerCount = 1;
    cfg.queryHeads = 8;
    cfg.kvHeads = 2;
    cfg.headDim = 36;
    cfg.vocabSize = 2048;
    cfg.expertCount = 8;
    cfg.activeExperts = 2;
    cfg.expertHidden = 288;
    cfg.weightBits = 4;
    cfg.validate();
    return cfg;
}

std::vector<TransformerConfig>
productionModels()
{
    return {gptOss120b(), kimiK2(), deepSeekV3(), qwq32b(), llama3_8b()};
}

} // namespace hnlpu
