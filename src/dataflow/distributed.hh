/**
 * @file
 * Functional distributed dataflow engine (paper Section 5, Appendix A).
 *
 * Executes a transformer forward pass the way the HNLPU grid does:
 * every chip holds only its weight shards --
 *
 *  - Wq/Wk/Wv column-partitioned across column groups and
 *    row-partitioned across the hidden dimension (each chip sees a
 *    (hidden/rows) x (proj/cols) block and produces a partial sum that
 *    a column all-reduce completes);
 *  - KV cache interleaved across a column's chips (token t lives on
 *    chip row t mod rows) with FlashAttention-style cross-chip score
 *    combination (global max, then exp-sum and weighted-V reduction);
 *  - Wo row-partitioned, combined by a row all-reduce plus a column
 *    all-gather;
 *  - the router replicated on every chip, experts distributed
 *    round-robin, outputs combined by the all-chip (grid) all-reduce;
 *  - the unembedding row-partitioned with a final logit all-gather.
 *
 * The engine is bit-faithful to the monolithic xformer Engine on the
 * Reference path (identical weights, same math reassociated only by
 * collectives) and tracks the byte volume of every collective so the
 * pipeline simulator's message sizes can be cross-checked against a
 * real execution.
 */

#ifndef HNLPU_DATAFLOW_DISTRIBUTED_HH
#define HNLPU_DATAFLOW_DISTRIBUTED_HH

#include <memory>
#include <vector>

#include "model/partition.hh"
#include "xformer/engine.hh"

namespace hnlpu {

/** Bytes moved per collective class during a run (FP8 elements). */
struct CommVolume
{
    double queryReduce = 0;  //!< column all-reduce of Q partials
    double kvCollect = 0;    //!< K/V reduction to the owner chip
    double scoreStats = 0;   //!< attention max/sum statistics
    double attnCombine = 0;  //!< weighted-V partial combination
    double xoReduce = 0;     //!< row all-reduce of Wo partials
    double xoGather = 0;     //!< column all-gather of Xo slices
    double moeReduce = 0;    //!< all-chip all-reduce of expert outputs
    double logitGather = 0;  //!< unembedding shard gather

    double total() const;
};

/** A transformer executor sharded over a chip grid. */
class DistributedEngine
{
  public:
    /**
     * Shard @p weights over a rows x cols grid.  The weights must
     * outlive the engine.  @p path selects reference or hardwired
     * execution of every on-chip projection shard.
     */
    DistributedEngine(const TransformerConfig &cfg,
                      const ModelWeights &weights, std::size_t grid_rows,
                      std::size_t grid_cols,
                      ExecPath path = ExecPath::Reference,
                      unsigned activation_bits = 8,
                      HnKernel kernel = HnKernel::Packed);

    /** Per-sequence distributed KV cache. */
    class Cache;

    /** Run one token; returns the (replicated) logits. */
    Vec forwardToken(std::size_t token_id, Cache &cache);

    /** Fresh cache for this engine. */
    Cache makeCache() const;

    /** Communication volume accumulated so far. */
    const CommVolume &commVolume() const { return comm_; }

    std::size_t chipCount() const { return rows_ * cols_; }
    const SystemPartition &partition() const { return partition_; }

    ~DistributedEngine();
    DistributedEngine(DistributedEngine &&) noexcept;

  private:
    struct ChipShard;
    struct ShardSet;

    /** Distributed GQA attention for one layer. */
    Vec attention(std::size_t layer, const Vec &x_norm, Cache &cache);
    /** Distributed MoE FFN for one layer. */
    Vec feedForward(std::size_t layer, const Vec &x_norm);
    /**
     * The ExecContext every per-shard projection call reads (path /
     * bits / kernel / the engine's scratch; no pool -- shards execute
     * serially to model one chip at a time, and no activity sink).
     */
    ExecContext shardContext();

    TransformerConfig cfg_;
    const ModelWeights &weights_;
    std::size_t rows_;
    std::size_t cols_;
    ExecPath path_;
    unsigned activationBits_;
    /** Hardwired-path GEMV kernel for every projection shard. */
    HnKernel kernel_;
    /** Column and output buffers every shard GEMV leases in turn. */
    HnScratch scratch_;
    SystemPartition partition_;
    CommVolume comm_;
    std::unique_ptr<ShardSet> shards_;
};

/** Distributed KV cache: tokens interleaved over a column's chips. */
class DistributedEngine::Cache
{
  public:
    Cache(std::size_t layers, std::size_t rows, std::size_t kv_heads,
          std::size_t head_dim);

    /** Append token @p pos's K/V heads (full vectors; each chip keeps
     *  only its column's heads for positions pos mod rows == row). */
    void append(std::size_t layer, std::size_t pos,
                const std::vector<Vec> &keys,
                const std::vector<Vec> &values);

    /** Positions owned by @p row. */
    std::vector<std::size_t> ownedPositions(std::size_t row) const;

    const Vec &key(std::size_t layer, std::size_t head,
                   std::size_t pos) const;
    const Vec &value(std::size_t layer, std::size_t head,
                     std::size_t pos) const;

    std::size_t length() const { return length_; }

  private:
    std::size_t rows_;
    std::size_t length_ = 0;
    std::size_t layers_;
    /** [layer][head][pos]; storage is logically distributed, the
     *  ownership split is realised through ownedPositions(). */
    std::vector<std::vector<std::vector<Vec>>> keys_;
    std::vector<std::vector<std::vector<Vec>>> values_;
};

} // namespace hnlpu

#endif // HNLPU_DATAFLOW_DISTRIBUTED_HH
