/**
 * @file
 * Typed request-outcome vocabulary shared by every serving front end.
 *
 * ServingEngine (xformer/serving.hh) and serve::ServingRouter both
 * refuse bad traffic with a typed reason instead of aborting; this
 * header is the single home of that vocabulary (RejectReason, its
 * stable names, EnqueueResult) so the two front ends and every emitter
 * that breaks sheds down by reason agree on one enum and one name
 * table.
 */

#ifndef HNLPU_XFORMER_REQUEST_HH
#define HNLPU_XFORMER_REQUEST_HH

#include <cstddef>

namespace hnlpu {

/**
 * Typed reasons a request is refused at admission, shed by load/health
 * policy, or cancelled after admission.  A serving front end must never
 * abort on bad traffic -- it reports one of these instead
 * (ServingEngine::tryEnqueue, serve::ServingRouter::enqueue).
 *
 * The first group is request validation, the second admission-control /
 * health policy (used by serve::ServingRouter), the third cancellation
 * of already-admitted work.
 */
enum class RejectReason
{
    None = 0,              //!< accepted (not a rejection)
    // Request validation.
    EmptyPrompt,           //!< prompt has no tokens
    ZeroDecodeTokens,      //!< nothing to generate
    TokenOutOfVocab,       //!< a prompt id >= vocabSize
    ArrivalOrderViolation, //!< arrivalStep below the queue tail's
    InvalidSampler,        //!< non-finite/negative temperature, topK > vocab
    DeadlineInfeasible,    //!< budget below the minimum servable steps
    UnknownTenant,         //!< tenantId not in the LoraRegistry
    // Admission control and shard health (router policy).
    QueueFull,             //!< bounded class queue at capacity
    DegradedShed,          //!< batch traffic shed in degraded mode
    NoUsableShard,         //!< every shard drained or unreachable
    RetriesExhausted,      //!< failovers exceeded the retry budget
    // Cancellation of admitted work.
    DeadlineExpired,       //!< TTFT or total step budget ran out
};

/** Number of distinct RejectReason values (for dense count arrays). */
constexpr std::size_t kRejectReasonCount = 13;

/** Stable snake_case name (JSON keys, log lines). */
const char *rejectReasonName(RejectReason reason);

/** Outcome of a non-fatal enqueue attempt. */
struct EnqueueResult
{
    /** Request id (enqueue order); valid only when admitted(). */
    std::size_t id = 0;
    RejectReason reason = RejectReason::None;

    bool admitted() const { return reason == RejectReason::None; }
};

} // namespace hnlpu

#endif // HNLPU_XFORMER_REQUEST_HH
