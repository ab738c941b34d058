#include "hn/hn_kernel.hh"

#include "common/logging.hh"

namespace hnlpu {

void
HnScratch::ensureSlots(std::size_t slots)
{
    if (quantized.size() < slots) {
        quantized.resize(slots);
        planes.resize(slots);
        columns.resize(slots);
    }
}

HnScratchLease::HnScratchLease(HnScratch *scratch)
    : scratch_(scratch ? scratch : &own_)
{
    hnlpu_assert(!scratch_->leased, "scratch leased twice: a nested "
                 "lease would overwrite the columns of the outer one");
    scratch_->leased = true;
}

} // namespace hnlpu
